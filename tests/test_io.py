import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trialtensor.io import FLOAT_BLOCK, entry_lines, escape_percent, float_rows, format_floats


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
