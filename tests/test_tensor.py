import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialtensor import (
    CellSplit,
    DataError,
    Mode,
    SparseTensor,
    build_index,
    load_tensor,
    save_tensor,
    select_layers,
    split_cells,
)
from trialtensor.io import read_json, read_text
from trialtensor.tensor import _BLOCK_LINES, ModeIndex, _meta_indices

from conftest import EDITS, FIXTURE_ENTRIES, cell_value, splice


class TestBuildIndex:
    def test_dedup_and_sort(self):
        index = build_index(["ENSG2", "ENSG1", "ENSG2"])
        assert index.forward == {"ENSG1": 0, "ENSG2": 1}
        assert index.reverse == ("ENSG1", "ENSG2")

    def test_singleton(self):
        index = build_index(["A"])
        assert index.forward == {"A": 0}

    def test_empty_is_error(self):
        with pytest.raises(DataError, match="empty mode"):
            build_index([])

    def test_fixture_gene_column_sorted(self, data_dir):
        with open(data_dir / "outcomes.tsv", newline="") as fh:
            genes = [row["gene_id"] for row in csv.DictReader(fh, delimiter="\t")]
        index = build_index(genes, Mode.TARGET)
        assert index.reverse == tuple(sorted(set(genes)))
        assert [index.forward[g] for g in index.reverse] == list(range(len(index)))

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=40))
    def test_bijection(self, identifiers):
        index = build_index(identifiers)
        for ident in set(identifiers):
            assert index.reverse[index.forward[ident]] == ident
        assert sorted(index.forward.values()) == list(range(len(index)))

    @given(st.lists(st.text(min_size=1, max_size=8), unique=True, min_size=1, max_size=40))
    def test_forward_is_derived_from_reverse(self, identifiers):
        index = ModeIndex(Mode.LAYER, tuple(identifiers))
        assert [index.forward[ident] for ident in identifiers] == list(range(len(identifiers)))
        assert len(index.forward) == len(index)
        other = ModeIndex(Mode.LAYER, tuple(identifiers))
        object.__setattr__(other, "forward", {})
        assert other == index and hash(other) == hash(index)
        assert ModeIndex(Mode.TARGET, tuple(identifiers)) != index


class TestSparseTensor:
    def test_single_cell_tensor(self):
        tensor = SparseTensor((2, 2, 2), [[0, 0, 0]], [1.0])
        assert tensor.n_entries == 1
        assert cell_value(tensor, 0, 0, 0) == 1.0

    def test_duplicate_coordinate_is_error(self):
        with pytest.raises(DataError, match="duplicate"):
            SparseTensor.from_entries((2, 2, 2), [(0, 0, 0, 1.0), (0, 0, 0, 0.5)])

    def test_bulk_fixture_entries(self):
        tensor = SparseTensor.from_entries((3, 2, 4), FIXTURE_ENTRIES)
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
            SparseTensor.from_entries((2, 2, 2), [(*coord, value)])

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
        tensor = SparseTensor.from_entries(dims, entries)
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

    def test_without_cells(self, tiny_tensor):
        trimmed = tiny_tensor.without_cells(np.array([(0, 0, 0), (1, 1, 3)]))
        assert trimmed.n_entries == 10
        assert cell_value(trimmed, 0, 0, 0) is None
        assert cell_value(trimmed, 0, 1, 0) == 0.0

    def test_without_cells_keeps_storage_order_and_ignores_absent(self, tiny_tensor):
        drop = [1, 4, 7]
        absent = np.array([
            (2, 0, 0),  # in range, unobserved
            (0, 2, 0),  # out of range; its linear index is that of (1, 0, 0)
            (0, 0, 4),  # out of range; its linear index is that of (0, 1, 0)
            (-1, 2, 0),  # out of range; its linear index is that of (0, 0, 0)
        ])
        trimmed = tiny_tensor.without_cells(np.vstack([tiny_tensor.coords[drop], absent]))
        keep = np.ones(tiny_tensor.n_entries, dtype=bool)
        keep[drop] = False
        assert np.array_equal(trimmed.coords, tiny_tensor.coords[keep])
        assert np.array_equal(trimmed.values, tiny_tensor.values[keep])


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


def _ten_cell_layer():
    entries = [(i, 0, 0, 1.0) for i in range(5)] + [(i, 0, 0, 0.0) for i in range(5, 10)]
    return SparseTensor.from_entries((10, 1, 1), entries)


class TestSplitCells:
    def test_proportional_rounding(self):
        tensor = _ten_cell_layer()
        split = split_cells(tensor, 0, 0.2, seed=3)
        assert len(split.heldout) == 2
        assert sorted(tensor.values[split.heldout]) == [0.0, 1.0]

    def test_deterministic(self):
        tensor = _ten_cell_layer()
        first = split_cells(tensor, 0, 0.4, seed=11)
        second = split_cells(tensor, 0, 0.4, seed=11)
        assert np.array_equal(first.heldout, second.heldout)
        assert np.array_equal(first.train, second.train)

    def test_partition_is_exhaustive(self):
        tensor = _ten_cell_layer()
        split = split_cells(tensor, 0, 0.3, seed=2)
        layer_rows = np.nonzero(tensor.coords[:, 2] == 0)[0]
        assert np.array_equal(np.sort(np.concatenate([split.train, split.heldout])), layer_rows)
        assert np.intersect1d(split.train, split.heldout).size == 0

    def test_rows_in_lexicographic_order(self):
        entries = [(i, j, k, float(i % 2)) for i in range(6) for j in range(3) for k in range(2)]
        tensor = SparseTensor.from_entries((6, 3, 2), entries[::-1])
        split = split_cells(tensor, 1, 0.4, seed=4)
        for rows in (split.train, split.heldout):
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
            tensor = SparseTensor.from_entries((6, 3, 2), ordered)
            split = split_cells(tensor, 0, 0.4, seed=9)
            held.append((tensor.coords[split.heldout].tolist(), tensor.coords[split.train].tolist()))
        assert held[0] == held[1] == held[2]

    def test_overlap_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            CellSplit(train=np.array([1, 2]), heldout=np.array([2, 3]), seed=0)

    def test_insufficient_class_members(self):
        entries = [(0, 0, 0, 1.0), (1, 0, 0, 0.0), (2, 0, 0, 0.0)]
        tensor = SparseTensor.from_entries((3, 1, 1), entries)
        with pytest.raises(DataError, match="insufficient class members"):
            split_cells(tensor, 0, 0.5, seed=0)

    def test_reference_shuffle_oracle(self, tiny_tensor):
        # Independent re-implementation of the documented draw protocol.
        split = split_cells(tiny_tensor, 0, 0.5, seed=41)
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
        assert [tuple(c) for c in tiny_tensor.coords[split.heldout].tolist()] == sorted(expected)

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
        tensor = SparseTensor.from_entries((n_pos + n_neg, 1, 1), entries)
        split = split_cells(tensor, 0, fraction, seed=seed)
        held_pos = int((tensor.coords[split.heldout, 0] < n_pos).sum())
        assert abs(held_pos - fraction * n_pos) <= 1.0

    def test_bad_fraction(self, tiny_tensor):
        with pytest.raises(DataError):
            split_cells(tiny_tensor, 0, 1.0, seed=0)


class TestSerialization:
    def test_roundtrip(self, tiny_tensor, tmp_path):
        modes = (
            build_index(["g1", "g2", "g3"], Mode.TARGET),
            build_index(["d1", "d2"], Mode.INDICATION),
            build_index(["outcome", "rare_disease", "gene_burden", "gwas"], Mode.LAYER),
        )
        # layer index order must match layer positions, so rebuild unsorted
        layers = ModeIndex(Mode.LAYER, ("outcome", "rare_disease", "gene_burden", "gwas"))
        modes = (modes[0], modes[1], layers)
        tsv, meta = tmp_path / "tensor.tsv", tmp_path / "tensor.meta.json"
        save_tensor(tiny_tensor, modes, tsv, meta)
        assert tsv.read_text().splitlines()[0] == "i\tj\tk\tvalue"
        loaded, loaded_modes = load_tensor(tsv, meta)
        assert loaded.dims == tiny_tensor.dims
        assert np.array_equal(loaded.coords, tiny_tensor.coords)
        assert np.array_equal(loaded.values, tiny_tensor.values)
        assert loaded_modes[0].reverse == ("g1", "g2", "g3")
        assert loaded_modes[2].forward["gwas"] == 3

    def test_size_mismatch_rejected(self, tiny_tensor, tmp_path):
        modes = (
            build_index(["g1"], Mode.TARGET),
            build_index(["d1", "d2"], Mode.INDICATION),
            build_index(["a", "b", "c", "d"], Mode.LAYER),
        )
        with pytest.raises(DataError):
            save_tensor(tiny_tensor, modes, tmp_path / "t.tsv", tmp_path / "t.meta.json")

    @pytest.mark.parametrize("empty", [False, True])
    def test_tsv_bytes_match_per_field_writer(self, tmp_path, empty):
        tensor = SparseTensor.empty((3, 2, 4)) if empty else SparseTensor.from_entries((3, 2, 4), FIXTURE_ENTRIES)
        save_tensor(tensor, _modes(FIXTURE_NAMES), tmp_path / "tensor.tsv", tmp_path / "tensor.meta.json")
        assert (tmp_path / "tensor.tsv").read_bytes() == _reference_tsv_text(tensor).encode()

    def test_tsv_rows_in_coordinate_order(self, tmp_path):
        shuffled = [FIXTURE_ENTRIES[n] for n in np.random.default_rng(3).permutation(len(FIXTURE_ENTRIES))]
        save_tensor(SparseTensor.from_entries((3, 2, 4), shuffled), _modes(FIXTURE_NAMES),
                    tmp_path / "tensor.tsv", tmp_path / "tensor.meta.json")
        rows = [tuple(map(int, line.split("\t")[:3])) for line in (tmp_path / "tensor.tsv").read_text().splitlines()[1:]]
        assert rows == sorted((i, j, k) for i, j, k, _ in FIXTURE_ENTRIES)

    @pytest.mark.parametrize("dim,type_name", [(1.0, "float"), (True, "bool"), ("1", "str")])
    def test_non_integer_dims_rejected(self, tmp_path, dim, type_name):
        meta = {"dims": [dim, 1, 1], "modes": {"targets": ["t"], "indications": ["d"], "layers": ["outcome"]}}
        (tmp_path / "tensor.meta.json").write_text(json.dumps(meta))
        (tmp_path / "tensor.tsv").write_text("i\tj\tk\tvalue\n0\t0\t0\t1\n")
        with pytest.raises(DataError, match=rf"'dims\[0\]' must be an integer, got {type_name} "):
            load_tensor(tmp_path / "tensor.tsv", tmp_path / "tensor.meta.json")


FIXTURE_NAMES = [("G1", "G2", "G3"), ("D1", "D2"), ("o", "a", "b", "c")]


def _modes(names):
    return tuple(ModeIndex(mode, ids) for mode, ids in zip(Mode, names))


def _reference_tsv_text(tensor):
    """tensor.tsv as the per-field writer that save_tensor's template replaced wrote it."""
    lines = ["i\tj\tk\tvalue\n"]
    for (i, j, k), v in zip(tensor.coords.tolist(), tensor.values.tolist()):
        lines.append(f"{i}\t{j}\t{k}\t{v:.17g}\n")
    return "".join(lines)


def _reference_load_tensor(tsv_path, meta_path):
    """The line loop that load_tensor's vectorised pass replaced."""
    dims, modes = _meta_indices(read_json(meta_path), meta_path)
    entries = []
    with read_text(tsv_path) as handle:
        header = handle.readline().rstrip("\n")
        if header.split("\t") != ["i", "j", "k", "value"]:
            raise DataError(f"unexpected tensor header in {tsv_path}: {header!r}")
        for lineno, line in enumerate(handle, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise DataError(f"{tsv_path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                i, j, k, value = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError as exc:
                raise DataError(f"{tsv_path}:{lineno}: {exc}") from exc
            if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
                raise DataError(f"{tsv_path}:{lineno}: coordinate ({i}, {j}, {k}) out of range for dims {dims}")
            entries.append((i, j, k, value))
    return SparseTensor.from_entries(dims, entries), modes


def _load_outcome(load, directory):
    """What a loader makes of a tensor directory: its arrays, bit for bit, or its error message."""
    try:
        tensor, modes = load(directory / "tensor.tsv", directory / "tensor.meta.json")
    except DataError as exc:
        return str(exc)
    return tensor.dims, tensor.coords.tolist(), tensor.values.view(np.int64).tolist(), [m.reverse for m in modes]


def _assert_loads_like_line_loop(directory):
    outcome = _load_outcome(load_tensor, directory)
    assert outcome == _load_outcome(_reference_load_tensor, directory)
    return outcome


@pytest.fixture(scope="module")
def tensor_texts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tensor")
    tensor = SparseTensor.from_entries((3, 2, 4), FIXTURE_ENTRIES)
    save_tensor(tensor, _modes(FIXTURE_NAMES), directory / "tensor.tsv", directory / "tensor.meta.json")
    return {path.name: path.read_text() for path in directory.iterdir()}


class TestLoadTensorFuzz:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["tensor.tsv", "tensor.meta.json"]), edits=EDITS)
    def test_edited_text_loads_or_is_data_error(self, tensor_texts, name, edits):
        # The vectorised pass and the reference line loop return the same
        # arrays or raise the same message on every edited text.
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for filename, original in tensor_texts.items():
                text = splice(original, edits) if filename == name else original
                (directory / filename).write_text(text, encoding="utf-8")
            outcome = _assert_loads_like_line_loop(directory)
        if not isinstance(outcome, str):
            dims, _, _, idents = outcome
            assert tuple(len(reverse) for reverse in idents) == dims

    @pytest.mark.parametrize("column", [0, 3])
    @pytest.mark.parametrize(
        "field",
        [" 1", "+1", "0_1", "1__0", "\u0661", "01", "-0", "1.0", "1e0", "0x1", "\u00bd", "", " .5\x0c",
         "nan", "inf", "1e400", "-1e-400", str(2**63), str(-(2**63) - 1), "9" * 5000],
    )
    def test_number_forms_load_like_line_loop(self, tensor_texts, tmp_path, column, field):
        lines = tensor_texts["tensor.tsv"].split("\n")
        parts = lines[2].split("\t")
        parts[column] = field
        lines[2] = "\t".join(parts)
        (tmp_path / "tensor.tsv").write_text("\n".join(lines), encoding="utf-8")
        (tmp_path / "tensor.meta.json").write_text(tensor_texts["tensor.meta.json"], encoding="utf-8")
        _assert_loads_like_line_loop(tmp_path)

    @pytest.mark.parametrize("bad_line", [None, 3, _BLOCK_LINES + 50])
    def test_files_longer_than_a_block(self, tmp_path, bad_line):
        n = _BLOCK_LINES + 100
        tensor = SparseTensor(
            (n, 1, 2), np.column_stack([np.arange(n), np.zeros(n), np.arange(n) % 2]), np.arange(n) % 3 / 2
        )
        save_tensor(tensor, _modes([[f"t{i}" for i in range(n)], ["d"], ["o", "e"]]),
                    tmp_path / "tensor.tsv", tmp_path / "tensor.meta.json")
        if bad_line is not None:
            lines = (tmp_path / "tensor.tsv").read_text().split("\n")
            lines[bad_line - 1] = f"{n}\t0\t0\t1"
            (tmp_path / "tensor.tsv").write_text("\n".join(lines))
        outcome = _assert_loads_like_line_loop(tmp_path)
        if bad_line is None:
            assert outcome[2] == tensor.values.view(np.int64).tolist()
        else:
            assert f"tensor.tsv:{bad_line}: coordinate ({n}, 0, 0) out of range" in outcome
