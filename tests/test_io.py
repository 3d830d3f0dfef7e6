import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trialtensor import DataError, io
from trialtensor.io import FLOAT_BLOCK, entry_lines, escape_percent, float_rows, format_floats, read_tsv

from conftest import DATA_DIR, EDITS, splice


def _bits(value):
    return struct.pack("<d", value)


class TestFormatFloat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(0.0)
    @example(1.0)
    @example(5e-324)  # smallest subnormal
    @example(2.225073858507201e-308)  # largest subnormal
    @example(-1.7976931348623157e308)
    def test_round_trips_exactly(self, value):
        assert _bits(float(format_floats([value])[0].decode())) == _bits(value)

    @given(st.floats())
    def test_bytes_match_the_17_digit_form(self, value):
        assert format_floats([value])[0].decode() == f"{value:.17g}"


class TestFloatRows:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 5), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_matches_per_field_join(self, matrix):
        expected = "".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in matrix.tolist())
        assert b"".join(float_rows(matrix)).decode() == expected


class TestEntryLines:
    def test_blocks_join_to_one_line_per_entry(self):
        n = 2 * FLOAT_BLOCK + 3
        rng = np.random.default_rng(4)
        coords, values = rng.integers(0, 10**6, size=(n, 3)), rng.normal(size=n)
        blocks = list(entry_lines(coords, values))
        expected = "".join("%d\t%d\t%d\t%.17g\n" % (*c, v) for c, v in zip(coords.tolist(), values.tolist()))
        assert len(blocks) == 3
        assert b"".join(blocks).decode() == expected
        assert list(entry_lines(coords[:0], values[:0])) == []


class TestEscapePercent:
    @given(st.text())
    def test_survives_formatting(self, text):
        assert (escape_percent(text) + "%s") % "" == text


def _printf(values):
    return [b"%.17g" % value for value in np.asarray(values, dtype=np.float64).tolist()]


def _powers_of_ten():
    """10**k for k in [-5, 16] and the three doubles on either side of each."""
    values = 10.0 ** np.arange(-5, 17)
    for _ in range(3):
        values = np.unique(np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]))
    return values


class TestFormatFloats:
    @given(st.lists(st.floats(allow_subnormal=True), max_size=40))
    def test_matches_printf_on_any_floats(self, values):
        assert format_floats(np.array(values, dtype=np.float64)) == _printf(values)

    @given(arrays(np.uint64, st.integers(0, 64)))
    def test_matches_printf_on_raw_bit_patterns(self, bits):
        values = bits.view(np.float64)
        assert format_floats(values) == _printf(values)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_table_of_edges(self, sign):
        short_mantissas = np.array([m / 2.0**k for m in (1, 3, 5, 7, 255, 1023, 2**20 + 1) for k in range(0, 40, 3)])
        values = sign * np.concatenate([
            _powers_of_ten(),
            [1e-4, np.nextafter(1e-4, 0.0), 1e15, np.nextafter(1e15, 0.0), 0.0],
            [1.0, 1000.0, 120000.0, 1e14, 9e14, 123456789012345.0, 0.5, 0.25, 0.125, 0.0625],
            short_mantissas,
        ])
        assert format_floats(values) == _printf(values)

    def test_signed_zeros(self):
        assert format_floats([0.0, -0.0]) == [b"0", b"-0"]

    def test_clipped_score_blocks(self):
        rng = np.random.default_rng(0)
        scores = np.clip(rng.normal(0.5, 0.8, size=(50, 40)), 0.0, 1.0)
        assert (scores == 0.0).any() and (scores == 1.0).any()
        assert format_floats(scores) == _printf(scores.ravel())
        assert format_floats(np.zeros(100)) == [b"0"] * 100
        assert format_floats(np.ones(100)) == [b"1"] * 100

    def test_a_million_random_bit_patterns(self):
        values = np.random.default_rng(14).integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
        assert format_floats(values) == _printf(values)

    def test_a_million_uniform_and_normal_draws(self):
        rng = np.random.default_rng(15)
        half = 5 * 10**5
        values = np.concatenate([rng.random(half), rng.standard_normal(half) * 10.0 ** rng.integers(-6, 17, half)])
        assert format_floats(values) == _printf(values)

    def test_empty(self):
        assert format_floats(np.empty(0)) == []


REQUIRED = ("gene_id", "efo_id", "confidence")
TEXT = dict.fromkeys(REQUIRED, str)


class TestRowsFuzz:
    @settings(max_examples=150, deadline=None)
    @given(edits=EDITS)
    def test_edited_text_yields_rows_or_is_data_error(self, edits):
        text = splice((DATA_DIR / "rare_disease.tsv").read_text(encoding="utf-8"), edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rare.tsv"
            path.write_text(text, encoding="utf-8")
            try:
                *columns, _ = read_tsv(path, TEXT)
            except DataError:
                return
        assert all(field for column in columns for field in column)

    def test_oversized_field_is_read(self, tmp_path):
        path = tmp_path / "rare.tsv"
        path.write_text(f"gene_id\tefo_id\tconfidence\nG1\t{'E' * 200_000}\tstrong\n")
        genes, diseases, confidence, lines = read_tsv(path, TEXT)
        assert diseases.tolist() == ["E" * 200_000]
        assert lines.tolist() == [2]


class TestTable:
    def _read(self, tmp_path, text, columns=TEXT, **kwargs):
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        return read_tsv(path, columns, **kwargs)

    def test_crlf_reads_like_lf(self, tmp_path):
        text = "gene_id\tefo_id\tconfidence\nG1\tE1\tstrong\nG2\tE2\tlimited\n"
        lf = self._read(tmp_path, text)
        crlf = self._read(tmp_path, text.replace("\n", "\r\n"))
        assert [column.tolist() for column in lf] == [column.tolist() for column in crlf]

    def test_blank_lines_skipped_and_lines_numbered_as_in_the_file(self, tmp_path):
        genes, _, _, lines = self._read(tmp_path, "gene_id\tefo_id\tconfidence\n\nG1\tE1\tstrong\n\r\nG2\tE2\tx")
        assert genes.tolist() == ["G1", "G2"]
        assert lines.tolist() == [3, 5]
        with pytest.raises(DataError, match=r"t\.tsv:4: malformed row"):
            self._read(tmp_path, "gene_id\tefo_id\tconfidence\n\nG1\tE1\tstrong\nG2\t\tx\n")

    @pytest.mark.parametrize("row", ["G1\tE1\tstrong\textra", "G1\tE1", "G1"])
    def test_field_count_must_match_header(self, tmp_path, row):
        with pytest.raises(DataError, match=r"t\.tsv:3: \d fields, the header has 3"):
            self._read(tmp_path, f"gene_id\tefo_id\tconfidence\nG0\tE0\tstrong\n{row}\n")

    def test_rows_that_share_fields_out_are_caught(self, tmp_path):
        # Four and two fields make six, as two rows of three would.
        with pytest.raises(DataError, match=r"t\.tsv:2: 4 fields, the header has 3"):
            self._read(tmp_path, "gene_id\tefo_id\tconfidence\nG1\tE1\tstrong\tx\nG2\tE2\n")

    def test_no_quoting_and_only_newline_splits_lines(self, tmp_path):
        genes, diseases, _, _ = self._read(
            tmp_path, 'gene_id\tefo_id\tconfidence\n"G1"\tE\x85F\u2028G\rH\tstrong\n'
        )
        assert genes.tolist() == ['"G1"']
        assert diseases.tolist() == ["E\x85F\u2028G\rH"]

    def test_optional_columns(self, tmp_path):
        *_, label, lines = self._read(
            tmp_path, "gene_id\tefo_id\tconfidence\tlabel\nG1\tE1\tstrong\t\n", optional=("label",)
        )
        assert label.tolist() == [""]
        *_, absent, lines = self._read(tmp_path, "gene_id\tefo_id\tconfidence\nG1\tE1\tstrong\n",
                                       optional=("label",))
        assert absent.tolist() == [""]

    def test_numeric_columns(self, tmp_path):
        columns = {"n": int, "x": float, "name": str}
        n, x, name, lines = self._read(tmp_path, "name\tx\tn\r\na\t0.5\t-3\r\nb\t 1e3\t+0\r\n", columns)
        assert (n.dtype, x.dtype, name.dtype) == (np.int64, np.float64, object)
        assert n.tolist() == [-3, 0] and x.tolist() == [0.5, 1000.0] and name.tolist() == ["a", "b"]
        assert self._read(tmp_path, "n\tx\n", {"n": int, "x": float})[0].dtype == np.int64

    @pytest.mark.parametrize(
        "rows,message",
        [("1\t0.5\ta\nx\t0.5\ta\n", "t.tsv:3: bad n 'x'"),
         ("1.0\t0.5\ta\n", "t.tsv:2: bad n '1.0'"),
         (f"{2**63}\t0.5\ta\n", f"t.tsv:2: bad n '{2**63}'"),
         ("1\tnan\ta\n2\t\t\ta\n", "t.tsv:3: 4 fields, the header has 3"),
         ("1\t0.5\ta\n\t0.5\ta\nx\t1\ta\n", "t.tsv:3: bad n ''"),
         ("1\tone\ta\nx\t0.5\ta\n", "t.tsv:3: bad n 'x'"),
         ("1\tone\ta\n2\t0.5\ta\n", "t.tsv:2: bad x 'one'"),
         ("x\ty\ta\n1\t0.5\t\n", "t.tsv:3: malformed row, expected fields ['n', 'x', 'name']")],
    )
    def test_numeric_faults_name_their_line(self, tmp_path, rows, message):
        # An empty text field is found first, then the numbers column by column.
        with pytest.raises(DataError) as caught:
            self._read(tmp_path, "n\tx\tname\n" + rows, {"n": int, "x": float, "name": str})
        assert message in str(caught.value)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.sampled_from(["G1\tE1\tstrong", "G22\tE\r2\tlimited", "", "\r", "Gène\tδ\tx"]), max_size=12),
        crlf=st.booleans(),
        final_newline=st.booleans(),
        block=st.integers(1, 40),
    )
    def test_blocks_of_any_size_read_as_one(self, rows, crlf, final_newline, block):
        text = "\n".join(["gene_id\tefo_id\tconfidence", *rows]) + ("\n" if final_newline else "")
        if crlf:
            text = text.replace("\n", "\r\n")

        def outcome(tmp):
            try:
                return [column.tolist() for column in self._read(Path(tmp), text)]
            except DataError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            whole = outcome(tmp)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(io, "_BLOCK_CHARS", block)
                assert outcome(tmp) == whole

    def test_fault_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_BLOCK_CHARS", 16)
        rows = "".join(f"G{n}\tE{n}\tstrong\n" for n in range(20))
        with pytest.raises(DataError, match=r"t\.tsv:23: 2 fields, the header has 3"):
            self._read(tmp_path, f"gene_id\tefo_id\tconfidence\n{rows}\nG\tE\n")
