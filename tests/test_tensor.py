import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialtensor import (
    DataError,
    SparseTensor,
    block_union,
    build_tensor,
    label_outcomes,
    load_tensor,
    save_tensor,
    select_layers,
    split_cells,
)
from trialtensor.io import read_json, read_text
from trialtensor.tensor import _meta_indices

from conftest import (
    BYTE_EDITS, EDITS, FIXTURE_ENTRIES, cell_value, evidence_table, splice, tensor_from_entries, trial_table,
)


def _build_genes(genes):
    """build_tensor over one burden record per listed gene, each on its own disease."""
    evidence = evidence_table([(gene, f"D{n}", "gene_burden", 1.0) for n, gene in enumerate(genes)])
    pairs = label_outcomes(trial_table([(genes[0], "D0", 4, "approved", "none")]))
    return build_tensor(evidence, pairs)


class TestBuildIndex:
    """build_tensor numbers each mode's identifiers: deduplicated, sorted, from 0."""

    def test_dedup_and_sort(self):
        _, modes = _build_genes(["ENSG2", "ENSG1", "ENSG2"])
        assert modes[0] == ("ENSG1", "ENSG2")

    def test_singleton(self):
        _, modes = _build_genes(["A"])
        assert modes[0] == ("A",)

    def test_fixture_gene_column_sorted(self, data_dir, fixture_tensor):
        with open(data_dir / "outcomes.tsv", newline="") as fh:
            genes = [row["gene_id"] for row in csv.DictReader(fh, delimiter="\t")]
        _, modes = fixture_tensor
        assert modes[0] == tuple(sorted(set(genes)))

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=40))
    def test_bijection(self, identifiers):
        tensor, (targets, indications, _) = _build_genes(identifiers)
        assert targets == tuple(sorted(set(identifiers)))
        for n, gene in enumerate(identifiers):
            assert cell_value(tensor, targets.index(gene), indications.index(f"D{n}"), 2) == 1.0


class TestSparseTensor:
    def test_single_cell_tensor(self):
        tensor = SparseTensor((2, 2, 2), [[0, 0, 0]], [1.0])
        assert tensor.n_entries == 1
        assert cell_value(tensor, 0, 0, 0) == 1.0

    def test_duplicate_coordinate_is_error(self):
        with pytest.raises(DataError, match="duplicate"):
            tensor_from_entries((2, 2, 2), [(0, 0, 0, 1.0), (0, 0, 0, 0.5)])

    def test_bulk_fixture_entries(self):
        tensor = tensor_from_entries((3, 2, 4), FIXTURE_ENTRIES)
        assert tensor.n_entries == 12
        assert tensor.n_entries / np.prod(tensor.dims) == pytest.approx(12 / (3 * 2 * 4))

    @pytest.mark.parametrize(
        "coord,value,match",
        [
            ((5, 0, 0), 0.5, "out of range"),
            ((0, 0, 0), float("nan"), "non-finite"),
            ((0, 0, 0), 1.5, r"\[0, 1\]"),
            ((-1, 0, 0), 0.5, "out of range"),
        ],
    )
    def test_invalid_entries(self, coord, value, match):
        with pytest.raises(DataError, match=match):
            tensor_from_entries((2, 2, 2), [(*coord, value)])

    @pytest.mark.parametrize("dims", [(2**40, 2**40, 8), (2**62, 2, 1), (2**63 - 1, 2, 1)])
    def test_dims_beyond_int64_linear_index_rejected(self, dims):
        with pytest.raises(DataError, match="more cells than an int64 index"):
            SparseTensor(dims, [[0, 0, 0], [2**39, 0, 0]], [0.5, 0.25])

    def test_lookup_missing_returns_none(self, tiny_tensor):
        assert cell_value(tiny_tensor, 2, 0, 0) is None

    def test_immutable(self, tiny_tensor):
        with pytest.raises(AttributeError):
            tiny_tensor.dims = (1, 1, 1)
        assert not tiny_tensor.values.flags.writeable

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_lookup(self, data):
        dims = data.draw(st.tuples(*(st.integers(1, 5) for _ in range(3))))
        n_cells = dims[0] * dims[1] * dims[2]
        count = data.draw(st.integers(0, n_cells))
        chosen = data.draw(st.permutations(range(n_cells)))[:count]
        entries = []
        for lin in chosen:
            i, rest = divmod(lin, dims[1] * dims[2])
            j, k = divmod(rest, dims[2])
            entries.append((i, j, k, data.draw(st.floats(0, 1, allow_nan=False))))
        tensor = tensor_from_entries(dims, entries)
        for i, j, k, value in entries:
            assert cell_value(tensor, i, j, k) == value

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_cells_stored_in_coordinate_order(self, data):
        dims = data.draw(st.tuples(*(st.integers(1, 5) for _ in range(3))))
        n_cells = dims[0] * dims[1] * dims[2]
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells)))
        coords = np.argwhere(mask.reshape(dims))
        values = np.arange(len(coords)) / max(len(coords), 1)
        shuffle = np.array(data.draw(st.permutations(range(len(coords)))), dtype=np.int64)
        ordered = SparseTensor(dims, coords, values)
        shuffled = SparseTensor(dims, coords[shuffle], values[shuffle])
        assert np.array_equal(ordered.coords, coords) and np.array_equal(ordered.values, values)
        assert np.array_equal(shuffled.coords, coords) and np.array_equal(shuffled.values, values)

    def test_owns_its_arrays(self):
        coords, values = np.array([[1, 0, 0], [0, 0, 0]]), np.array([0.25, 0.5])
        tensor = SparseTensor((2, 1, 1), coords, values)
        coords[:], values[:] = 0, 1.0
        assert tensor.coords.tolist() == [[0, 0, 0], [1, 0, 0]]
        assert tensor.values.tolist() == [0.5, 0.25]

    def test_count_runs_group_fibers_by_count(self, tiny_tensor):
        for mode in range(3):
            counts = np.bincount(tiny_tensor.coords[:, mode], minlength=tiny_tensor.dims[mode])
            runs = tiny_tensor.count_runs(mode)
            assert runs.entities.tolist() == sorted(range(tiny_tensor.dims[mode]), key=lambda e: (counts[e], e))
            sorted_counts = counts[runs.entities]
            assert np.array_equal(np.diff(runs.offsets), sorted_counts)
            assert runs.starts[0] == 0 and runs.starts[-1] == len(runs.entities)
            for lo, hi in zip(runs.starts[:-1], runs.starts[1:]):
                assert (sorted_counts[lo:hi] == sorted_counts[lo]).all()
                assert hi == len(runs.entities) or sorted_counts[hi] != sorted_counts[lo]
            other_a, other_b = (other for other in range(3) if other != mode)
            for pos, entity in enumerate(runs.entities):
                rows = np.flatnonzero(tiny_tensor.coords[:, mode] == entity)  # the entity's cells in storage order
                cells = slice(runs.offsets[pos], runs.offsets[pos + 1])
                assert np.array_equal(runs.index_a[cells], tiny_tensor.coords[rows, other_a])
                assert np.array_equal(runs.index_b[cells], tiny_tensor.coords[rows, other_b])
                assert np.array_equal(runs.values[cells], tiny_tensor.values[rows])
            assert tiny_tensor.count_runs(mode) is runs
            assert not any(array.flags.writeable for array in runs)

    def test_count_runs_of_empty_tensor(self):
        runs = SparseTensor.empty((3, 2, 1)).count_runs(0)
        assert runs.entities.tolist() == [0, 1, 2]
        assert runs.offsets.tolist() == [0, 0, 0, 0]
        assert runs.starts.tolist() == [0, 3]
        assert runs.index_a.shape == runs.values.shape == (0,)

    def test_block_union_offsets_each_block(self, tiny_tensor):
        other = tensor_from_entries((2, 3, 2), [(1, 2, 0, 0.25), (0, 0, 1, 1.0), (1, 0, 1, 0.5)])
        blocks = [tiny_tensor, other, tiny_tensor]
        union = block_union(blocks)
        offsets = np.cumsum([(0, 0, 0)] + [block.dims for block in blocks], axis=0)
        assert union.dims == tuple(offsets[-1])
        assert np.array_equal(union.coords, np.concatenate([b.coords + o for b, o in zip(blocks, offsets)]))
        assert np.array_equal(union.values, np.concatenate([b.values for b in blocks]))
        for mode in range(3):
            other_a, other_b = (m for m in range(3) if m != mode)
            runs = union.count_runs(mode)
            for block, offset in zip(blocks, offsets):
                own = block.count_runs(mode)
                for pos, entity in enumerate(own.entities):
                    # The union entity holds the block entity's cells, in the same order.
                    (upos,) = np.flatnonzero(runs.entities == entity + offset[mode])
                    cells, ucells = (slice(r.offsets[p], r.offsets[p + 1]) for r, p in ((own, pos), (runs, upos)))
                    assert np.array_equal(runs.index_a[ucells], own.index_a[cells] + offset[other_a])
                    assert np.array_equal(runs.index_b[ucells], own.index_b[cells] + offset[other_b])
                    assert np.array_equal(runs.values[ucells], own.values[cells])

    def test_block_union_of_one_tensor_is_the_tensor(self, tiny_tensor):
        assert block_union([tiny_tensor]) is tiny_tensor
        with pytest.raises(DataError, match="no tensors"):
            block_union([])


class TestSelectLayers:
    def test_subset_renumbers(self, tiny_tensor):
        sub = select_layers(tiny_tensor, [0, 3])
        assert sub.dims == (3, 2, 2)
        assert cell_value(sub, 0, 0, 1) == 0.83
        assert cell_value(sub, 0, 0, 0) == 1.0
        assert sub.n_entries == 6

    def test_bad_layer(self, tiny_tensor):
        with pytest.raises(DataError):
            select_layers(tiny_tensor, [0, 9])

    def test_every_layer_in_order_is_the_tensor(self, tiny_tensor):
        assert select_layers(tiny_tensor, range(tiny_tensor.dims[2])) is tiny_tensor
        reordered = select_layers(tiny_tensor, [0, 2, 1, 3])
        assert reordered is not tiny_tensor
        assert cell_value(reordered, 0, 0, 3) == cell_value(tiny_tensor, 0, 0, 3)


def _ten_cell_layer():
    entries = [(i, 0, 0, 1.0) for i in range(5)] + [(i, 0, 0, 0.0) for i in range(5, 10)]
    return tensor_from_entries((10, 1, 1), entries)


class TestSplitCells:
    def test_proportional_rounding(self):
        tensor = _ten_cell_layer()
        heldout = split_cells(tensor, 0, 0.2, seed=3)
        assert len(heldout) == 2
        assert sorted(tensor.values[heldout]) == [0.0, 1.0]

    def test_deterministic(self):
        tensor = _ten_cell_layer()
        first = split_cells(tensor, 0, 0.4, seed=11)
        second = split_cells(tensor, 0, 0.4, seed=11)
        assert np.array_equal(first, second)

    def test_partition_is_exhaustive(self):
        tensor = _ten_cell_layer()
        heldout = split_cells(tensor, 0, 0.3, seed=2)
        layer_rows = np.nonzero(tensor.coords[:, 2] == 0)[0]
        # The layer's other rows are the training rows.
        assert np.isin(heldout, layer_rows).all()
        assert np.unique(heldout).size == heldout.size

    def test_rows_in_lexicographic_order(self):
        entries = [(i, j, k, float(i % 2)) for i in range(6) for j in range(3) for k in range(2)]
        tensor = tensor_from_entries((6, 3, 2), entries[::-1])
        rows = split_cells(tensor, 1, 0.4, seed=4)
        assert rows.dtype == np.int64
        cells = [tuple(c) for c in tensor.coords[rows].tolist()]
        assert all(k == 1 for _, _, k in cells)
        assert cells == sorted(set(cells))

    def test_heldout_cells_do_not_depend_on_entry_order(self):
        entries = [(i, j, k, float((i + j) % 2)) for i in range(6) for j in range(3) for k in range(2)]
        rng = np.random.default_rng(7)
        orders = [entries, entries[::-1], [entries[n] for n in rng.permutation(len(entries))]]
        held = []
        for ordered in orders:
            tensor = tensor_from_entries((6, 3, 2), ordered)
            held.append(tensor.coords[split_cells(tensor, 0, 0.4, seed=9)].tolist())
        assert held[0] == held[1] == held[2]

    def test_insufficient_class_members(self):
        entries = [(0, 0, 0, 1.0), (1, 0, 0, 0.0), (2, 0, 0, 0.0)]
        tensor = tensor_from_entries((3, 1, 1), entries)
        with pytest.raises(DataError, match="insufficient class members"):
            split_cells(tensor, 0, 0.5, seed=0)

    def test_class_with_no_heldout_cell(self):
        # floor(2 * 0.2 + 0.5) = 0 positives held out: the split could never be scored.
        entries = [(i, 0, 0, float(i < 2)) for i in range(10)]
        tensor = tensor_from_entries((10, 1, 1), entries)
        with pytest.raises(DataError, match=r"heldout_fraction 0\.2 holds out none of the 2 positive cells in layer 0"):
            split_cells(tensor, 0, 0.2, seed=0)
        assert len(split_cells(tensor, 0, 0.3, seed=0)) == 3  # 1 positive, 2 negatives

    def test_reference_shuffle_oracle(self, tiny_tensor):
        # Independent re-implementation of the documented draw protocol.
        heldout = split_cells(tiny_tensor, 0, 0.5, seed=41)
        coords, values = tiny_tensor.layer_entries(0)
        cells = [tuple(int(c) for c in xyz) for xyz in coords]
        pos = sorted(c for c, v in zip(cells, values) if v >= 0.5)
        neg = sorted(c for c, v in zip(cells, values) if v < 0.5)
        rng = np.random.default_rng(41)
        expected = set()
        for group in (pos, neg):
            n_held = int(np.floor(len(group) * 0.5 + 0.5))
            for idx in rng.choice(len(group), size=n_held, replace=False):
                expected.add(group[idx])
        assert [tuple(c) for c in tiny_tensor.coords[heldout].tolist()] == sorted(expected)

    @given(
        n_pos=st.integers(2, 40),
        n_neg=st.integers(2, 40),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_stratification_property(self, n_pos, n_neg, fraction, seed):
        entries = [(i, 0, 0, 1.0) for i in range(n_pos)]
        entries += [(n_pos + i, 0, 0, 0.0) for i in range(n_neg)]
        tensor = tensor_from_entries((n_pos + n_neg, 1, 1), entries)
        if min(np.floor(n * fraction + 0.5) for n in (n_pos, n_neg)) == 0:
            with pytest.raises(DataError, match="holds out none"):
                split_cells(tensor, 0, fraction, seed=seed)
            return
        heldout = split_cells(tensor, 0, fraction, seed=seed)
        held_pos = int((tensor.coords[heldout, 0] < n_pos).sum())
        assert abs(held_pos - fraction * n_pos) <= 1.0

    def test_bad_fraction(self, tiny_tensor):
        with pytest.raises(DataError):
            split_cells(tiny_tensor, 0, 1.0, seed=0)


class TestSerialization:
    def test_roundtrip(self, tiny_tensor, tmp_path):
        modes = (("g1", "g2", "g3"), ("d1", "d2"), ("outcome", "rare_disease", "gene_burden", "gwas"))
        save_tensor(tiny_tensor, modes, tmp_path)
        assert (tmp_path / "tensor.tsv").read_text().splitlines()[0] == "i\tj\tk\tvalue"
        loaded, loaded_modes = load_tensor(tmp_path)
        assert loaded.dims == tiny_tensor.dims
        assert np.array_equal(loaded.coords, tiny_tensor.coords)
        assert np.array_equal(loaded.values, tiny_tensor.values)
        assert loaded_modes[0] == ("g1", "g2", "g3")
        assert loaded_modes[2].index("gwas") == 3

    def test_size_mismatch_rejected(self, tiny_tensor, tmp_path):
        modes = (("g1",), ("d1", "d2"), ("a", "b", "c", "d"))
        with pytest.raises(DataError):
            save_tensor(tiny_tensor, modes, tmp_path)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("targets,match", [
        (("g1", "g\t2", "g3"), r"'modes.targets' identifier 'g\\t2' is empty or holds a tab or newline"),
        (("g1", "", "g3"), "'modes.targets' identifier '' is empty"),
        (("g1", "g1", "g3"), "duplicate identifiers in 'modes.targets'"),
    ])
    def test_metadata_load_would_reject_is_not_written(self, tiny_tensor, tmp_path, targets, match):
        modes = (targets, ("d1", "d2"), ("outcome", "rare_disease", "gene_burden", "gwas"))
        with pytest.raises(DataError, match=match):
            save_tensor(tiny_tensor, modes, tmp_path)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("missing", ["tensor.tsv", "tensor.meta.json"])
    def test_missing_file_is_data_error_naming_it(self, tiny_tensor, tmp_path, missing):
        modes = (("g1", "g2", "g3"), ("d1", "d2"), ("outcome", "rare_disease", "gene_burden", "gwas"))
        save_tensor(tiny_tensor, modes, tmp_path)
        (tmp_path / missing).unlink()
        with pytest.raises(DataError, match=re.escape(f"cannot read {tmp_path / missing}: ")):
            load_tensor(tmp_path)

    @pytest.mark.parametrize("empty", [False, True])
    def test_tsv_bytes_match_per_field_writer(self, tmp_path, empty):
        tensor = SparseTensor.empty((3, 2, 4)) if empty else tensor_from_entries((3, 2, 4), FIXTURE_ENTRIES)
        save_tensor(tensor, FIXTURE_NAMES, tmp_path)
        assert (tmp_path / "tensor.tsv").read_bytes() == _reference_tsv_text(tensor).encode()

    def test_tsv_rows_in_coordinate_order(self, tmp_path):
        shuffled = [FIXTURE_ENTRIES[n] for n in np.random.default_rng(3).permutation(len(FIXTURE_ENTRIES))]
        save_tensor(tensor_from_entries((3, 2, 4), shuffled), FIXTURE_NAMES, tmp_path)
        rows = [tuple(map(int, line.split("\t")[:3])) for line in (tmp_path / "tensor.tsv").read_text().splitlines()[1:]]
        assert rows == sorted((i, j, k) for i, j, k, _ in FIXTURE_ENTRIES)

    @pytest.mark.parametrize("dim,type_name", [(1.0, "float"), (True, "bool"), ("1", "str")])
    def test_non_integer_dims_rejected(self, tmp_path, dim, type_name):
        meta = {"dims": [dim, 1, 1], "modes": {"targets": ["t"], "indications": ["d"], "layers": ["outcome"]}}
        (tmp_path / "tensor.meta.json").write_text(json.dumps(meta))
        (tmp_path / "tensor.tsv").write_text("i\tj\tk\tvalue\n0\t0\t0\t1\n")
        with pytest.raises(DataError, match=rf"'dims\[0\]' must be an integer, got {type_name} "):
            load_tensor(tmp_path)


FIXTURE_NAMES = (("G1", "G2", "G3"), ("D1", "D2"), ("o", "a", "b", "c"))


def _reference_tsv_text(tensor):
    """tensor.tsv as the per-field writer that save_tensor's template replaced wrote it."""
    lines = ["i\tj\tk\tvalue\n"]
    for (i, j, k), v in zip(tensor.coords.tolist(), tensor.values.tolist()):
        lines.append(f"{i}\t{j}\t{k}\t{v:.17g}\n")
    return "".join(lines)


def _reference_load_tensor(directory):
    """A line loop over a directory's tensor.tsv by the TSV reader's rules.

    Each kind of fault is looked for over the whole file, in the reader's
    order and then load_tensor's: missing columns, field counts, each
    column's numbers, coordinates out of range, non-finite values, values
    outside [0, 1] and repeated cells.
    """
    tsv_path, meta_path = directory / "tensor.tsv", directory / "tensor.meta.json"
    dims, modes = _meta_indices(read_json(meta_path), meta_path)
    with read_text(tsv_path, newline="") as handle:
        lines = handle.read().replace("\r\n", "\n").split("\n")
    lines[-1] = lines[-1].removesuffix("\r")  # a "\r" ending the file ends its last line
    header, *lines = lines
    header, names = header.split("\t"), ["i", "j", "k", "value"]
    missing = [name for name in names if name not in header]
    if missing:
        raise DataError(f"{tsv_path}: missing columns {missing}")
    rows = [(lineno, line.split("\t")) for lineno, line in enumerate(lines, start=2) if line]
    for lineno, parts in rows:
        if len(parts) != len(header):
            raise DataError(f"{tsv_path}:{lineno}: {len(parts)} fields, the header has {len(header)}")
    fields = [(lineno, [parts[header.index(name)] for name in names]) for lineno, parts in rows]
    entries = [[] for _ in fields]
    for column, (name, convert) in enumerate(zip(names, (int, int, int, float))):
        for (lineno, row), entry in zip(fields, entries):
            try:
                number = convert(row[column])
            except ValueError as exc:
                raise DataError(f"{tsv_path}:{lineno}: bad {name} {row[column]!r}") from exc
            if convert is int and not -(2**63) <= number < 2**63:
                raise DataError(f"{tsv_path}:{lineno}: bad {name} {row[column]!r}")
            entry.append(number)
    numbered = [(lineno, entry) for (lineno, _), entry in zip(fields, entries)]
    for lineno, (i, j, k, _) in numbered:
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            raise DataError(f"{tsv_path}:{lineno}: coordinate ({i}, {j}, {k}) out of range for dims {list(dims)}")
    for lineno, (*_, value) in numbered:
        if not math.isfinite(value):
            raise DataError(f"{tsv_path}:{lineno}: non-finite value {value}")
    for lineno, (*_, value) in numbered:
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{tsv_path}:{lineno}: value {value} outside [0, 1]")
    seen = set()
    for lineno, (*cell, _) in numbered:
        if tuple(cell) in seen:
            raise DataError(f"{tsv_path}:{lineno}: duplicate coordinate {tuple(cell)}")
        seen.add(tuple(cell))
    return tensor_from_entries(dims, entries), modes


def _load_outcome(load, directory):
    """What a loader makes of a tensor directory: its arrays, bit for bit, or its error message."""
    try:
        tensor, modes = load(directory)
    except DataError as exc:
        return str(exc)
    return tensor.dims, tensor.coords.tolist(), tensor.values.view(np.int64).tolist(), list(modes)


def _assert_loads_like_line_loop(directory):
    outcome = _load_outcome(load_tensor, directory)
    assert outcome == _load_outcome(_reference_load_tensor, directory)
    return outcome


@pytest.fixture(scope="module")
def tensor_texts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tensor")
    tensor = tensor_from_entries((3, 2, 4), FIXTURE_ENTRIES)
    save_tensor(tensor, FIXTURE_NAMES, directory)
    return {path.name: path.read_text() for path in directory.iterdir()}


class TestLoadTensorFuzz:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["tensor.tsv", "tensor.meta.json"]), edits=EDITS)
    def test_edited_text_loads_or_is_data_error(self, tensor_texts, name, edits):
        # load_tensor and the reference line loop return the same arrays or
        # raise the same message on every edited text.
        self._check_edited({name: splice(tensor_texts[name], edits).encode()}, tensor_texts)

    @settings(max_examples=150, deadline=None)
    @given(edits=BYTE_EDITS)
    def test_edited_bytes_load_or_are_data_error(self, tensor_texts, edits):
        self._check_edited({"tensor.tsv": splice(tensor_texts["tensor.tsv"].encode(), edits)}, tensor_texts)

    @staticmethod
    def _check_edited(edited, tensor_texts):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for filename, original in tensor_texts.items():
                (directory / filename).write_bytes(edited.get(filename, original.encode()))
            outcome = _assert_loads_like_line_loop(directory)
        if not isinstance(outcome, str):
            dims, _, _, idents = outcome
            assert tuple(len(reverse) for reverse in idents) == dims

    @pytest.mark.parametrize("column", [0, 3])
    @pytest.mark.parametrize(
        "field",
        [" 1", "+1", "0_1", "1__0", "\u0661", "01", "-0", "1.0", "1e0", "0x1", "\u00bd", "", " .5\x0c",
         "nan", "inf", "1e400", "-1e-400", str(2**63), str(-(2**63) - 1), "9" * 5000,
         "1_000.5", "\u0663.\u0665", "infinity", "-NaN", "1e-320"],
    )
    def test_number_forms_load_like_line_loop(self, tensor_texts, tmp_path, column, field):
        lines = tensor_texts["tensor.tsv"].split("\n")
        parts = lines[2].split("\t")
        parts[column] = field
        lines[2] = "\t".join(parts)
        (tmp_path / "tensor.tsv").write_text("\n".join(lines), encoding="utf-8")
        (tmp_path / "tensor.meta.json").write_text(tensor_texts["tensor.meta.json"], encoding="utf-8")
        _assert_loads_like_line_loop(tmp_path)

    @pytest.mark.parametrize(
        "line,row,message",
        [(3, "0\t1\t0\t1.5", "value 1.5 outside [0, 1]"), (4, "1\t0\t0\tnan", "non-finite value nan"),
         (5, "0\t0\t0\t0.25", "duplicate coordinate (0, 0, 0)"), (2, "0\t0\t0\t-inf", "non-finite value -inf")],
    )
    def test_value_faults_name_their_line(self, tensor_texts, tmp_path, line, row, message):
        lines = tensor_texts["tensor.tsv"].split("\n")
        lines[line - 1] = row
        (tmp_path / "tensor.tsv").write_text("\n".join(lines), encoding="utf-8")
        (tmp_path / "tensor.meta.json").write_text(tensor_texts["tensor.meta.json"], encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_tensor(tmp_path)
        assert str(caught.value) == f"{tmp_path / 'tensor.tsv'}:{line}: {message}"
        _assert_loads_like_line_loop(tmp_path)

    def test_crlf_blank_lines_and_column_order(self, tensor_texts, tmp_path):
        lines = tensor_texts["tensor.tsv"].rstrip("\n").split("\n")
        swapped = ["\t".join(line.split("\t")[::-1] + ["note"]) for line in lines]
        (tmp_path / "tensor.tsv").write_text("\r\n\r\n".join(swapped) + "\r\n", encoding="utf-8")
        (tmp_path / "tensor.meta.json").write_text(tensor_texts["tensor.meta.json"], encoding="utf-8")
        tensor, _ = load_tensor(tmp_path)
        assert np.array_equal(tensor.coords, tensor_from_entries((3, 2, 4), FIXTURE_ENTRIES).coords)
        _assert_loads_like_line_loop(tmp_path)

    # 16_484 rows take several blocks of the reader.
    @pytest.mark.parametrize("bad_line", [None, 3, 16_434])
    def test_files_longer_than_a_block(self, tmp_path, bad_line):
        n = 16_484
        tensor = SparseTensor(
            (n, 1, 2), np.column_stack([np.arange(n), np.zeros(n), np.arange(n) % 2]), np.arange(n) % 3 / 2
        )
        save_tensor(tensor, [[f"t{i}" for i in range(n)], ["d"], ["o", "e"]], tmp_path)
        if bad_line is not None:
            lines = (tmp_path / "tensor.tsv").read_text().split("\n")
            lines[bad_line - 1] = f"{n}\t0\t0\t1"
            (tmp_path / "tensor.tsv").write_text("\n".join(lines))
        outcome = _assert_loads_like_line_loop(tmp_path)
        if bad_line is None:
            assert outcome[2] == tensor.values.view(np.int64).tolist()
        else:
            assert f"tensor.tsv:{bad_line}: coordinate ({n}, 0, 0) out of range" in outcome
