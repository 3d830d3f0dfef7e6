"""Sparse rank-3 tensor storage, evaluation splits and serialization.

Observations live in coordinate (COO) form: an ``(n, 3)`` integer array of
``(i, j, k)`` coordinates plus a value vector, kept in coordinate
(lexicographic ``(i, j, k)``) order whatever order they were given in.
Tensors are immutable after construction; each mode's count-sorted layout
is built lazily and cached, which is safe because nothing mutates the
arrays afterwards.

Layer convention used throughout the package: ``k = 0`` holds the clinical
outcome labels, ``k >= 1`` hold the evidence layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import DataError
from .io import entry_lines, read_json, read_text, write_json, write_tsv


class CountRuns(NamedTuple):
    """One mode's cells laid out by entity, entities in (cell count, id) order.

    ``entities`` holds the sorted entity ids; the cells of ``entities[e]``
    are ``offsets[e]:offsets[e + 1]`` of ``index_a``, ``index_b`` (their
    coordinates in the two other modes, lower mode first) and ``values``,
    in coordinate order. Runs of equal-count entities start at the
    positions in ``starts``, which ends with ``len(entities)``; entities
    without cells form the first run when there are any.
    """

    entities: np.ndarray
    offsets: np.ndarray
    starts: np.ndarray
    index_a: np.ndarray
    index_b: np.ndarray
    values: np.ndarray


def _linearize(coords: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    return (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]


class SparseTensor:
    """Immutable COO tensor with values in [0, 1], cells in coordinate order.

    Duplicate coordinates are rejected rather than overwritten: a duplicate
    means two curation sources disagreed about one cell, and that conflict
    must be resolved upstream, not silently here.
    """

    __slots__ = ("dims", "_coords", "_values", "_runs")

    def __init__(self, dims: Sequence[int], coords: np.ndarray, values: np.ndarray):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise DataError(f"dims must be three positive integers, got {dims}")
        if dims[0] * dims[1] * dims[2] > np.iinfo(np.int64).max:  # the cell order is an int64 linear index
            raise DataError(f"dims {dims} hold more cells than an int64 index can number")
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if coords.shape[0] != values.shape[0]:
            raise DataError("coordinate and value counts differ")
        if coords.size:
            if coords.min() < 0 or (coords >= np.asarray(dims)).any():
                raise DataError("coordinate out of range for dims")
            if not np.isfinite(values).all():
                raise DataError("non-finite value in tensor")
            if values.min() < 0.0 or values.max() > 1.0:
                raise DataError("tensor values must lie in [0, 1]")
        lin = _linearize(coords, dims)
        order = np.argsort(lin, kind="stable")
        lin = lin[order]
        repeated = np.flatnonzero(lin[1:] == lin[:-1])
        if repeated.size:
            dup = coords[order[repeated[0]]]
            raise DataError(f"duplicate coordinate {tuple(int(c) for c in dup)}")
        coords, values = coords[order], values[order]  # the tensor's own copies
        coords.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_runs", {})

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("SparseTensor is immutable")

    @classmethod
    def empty(cls, dims: Sequence[int]) -> "SparseTensor":
        return cls(dims, np.empty((0, 3), dtype=np.int64), np.empty(0))

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_entries(self) -> int:
        return int(self._values.shape[0])

    def count_runs(self, mode: int) -> CountRuns:
        """The cells of ``mode`` grouped by entity in (cell count, id) order; see :class:`CountRuns`."""
        mode = int(mode)
        if mode not in self._runs:
            counts = np.bincount(self._coords[:, mode], minlength=self.dims[mode])
            entities = np.argsort(counts, kind="stable")
            rank = np.empty_like(entities)
            rank[entities] = np.arange(entities.size)
            # Cells by their entity's rank; each entity's cells stay in coordinate order.
            cells = np.argsort(rank[self._coords[:, mode]], kind="stable")
            sorted_counts = counts[entities]
            offsets = np.concatenate([[0], np.cumsum(sorted_counts)])
            starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_counts)) + 1, [len(entities)]])
            other_a, other_b = (other for other in range(3) if other != mode)
            coords_a, coords_b = self._coords[cells, other_a], self._coords[cells, other_b]
            runs = CountRuns(entities, offsets, starts, coords_a, coords_b, self._values[cells])
            for array in runs:
                array.flags.writeable = False
            self._runs[mode] = runs
        return self._runs[mode]

    def layer_entries(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and values of one frontal slice."""
        mask = self._coords[:, 2] == layer
        return self._coords[mask], self._values[mask]

    def without_cells(self, cells: np.ndarray) -> "SparseTensor":
        """Copy without the cells of an ``(n, 3)`` coordinate array.

        Survivors stay in coordinate order; cells the tensor does not hold,
        including out-of-range ones, are ignored.
        """
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        cells = cells[((cells >= 0) & (cells < np.asarray(self.dims))).all(axis=1)]
        keep = ~np.isin(_linearize(self._coords, self.dims), _linearize(cells, self.dims))
        return SparseTensor(self.dims, self._coords[keep], self._values[keep])


def block_union(tensors: Sequence[SparseTensor]) -> SparseTensor:
    """Block-diagonal union: tensor ``c``'s entity ``e`` of each mode becomes ``offsets[c, mode] + e``.

    ``offsets`` are the running sums of the tensors' dims, starting at 0.
    No cell links two tensors, so each union entity holds exactly the cells
    of its own entity, in the same coordinate order, and each block keeps
    its :meth:`SparseTensor.count_runs` layout up to the offset. One tensor
    is its own union.
    """
    if len(tensors) == 1:
        return tensors[0]
    if not tensors:
        raise DataError("union of no tensors")
    dims = np.array([tensor.dims for tensor in tensors], dtype=np.int64)
    offsets = np.cumsum(dims, axis=0) - dims
    coords = np.concatenate([tensor.coords + offset for tensor, offset in zip(tensors, offsets)])
    values = np.concatenate([tensor.values for tensor in tensors])
    return SparseTensor(dims.sum(axis=0), coords, values)


def select_layers(tensor: SparseTensor, keep: Sequence[int]) -> SparseTensor:
    """Subset the layer mode, renumbering kept layers to 0..len(keep)-1."""
    keep = [int(k) for k in keep]
    if len(set(keep)) != len(keep):
        raise DataError("layer selection contains duplicates")
    for k in keep:
        if not 0 <= k < tensor.dims[2]:
            raise DataError(f"layer {k} out of range")
    lut = np.full(tensor.dims[2], -1, dtype=np.int64)
    for new, old in enumerate(keep):
        lut[old] = new
    mask = np.isin(tensor.coords[:, 2], keep)
    coords = tensor.coords[mask].copy()
    coords[:, 2] = lut[coords[:, 2]]
    return SparseTensor((tensor.dims[0], tensor.dims[1], len(keep)), coords, tensor.values[mask])


@dataclass(frozen=True)
class CellSplit:
    """Disjoint train/held-out partition of one layer's observed cells.

    ``train`` and ``heldout`` are int64 arrays of entry rows into the
    tensor's ``coords``/``values``, each ascending, so in coordinate order.
    """

    train: np.ndarray
    heldout: np.ndarray
    seed: int

    def __post_init__(self):
        if np.intersect1d(self.train, self.heldout).size:
            raise DataError("train and heldout sets overlap")


def split_cells(
    tensor: SparseTensor, layer: int, heldout_fraction: float, seed: int
) -> CellSplit:
    """Stratified, seeded split of one layer's cells into train/held-out.

    Protocol (deterministic given ``seed``): cells are classed as positive
    (value >= 0.5) or negative, each class is sorted lexicographically by
    coordinate, and ``floor(n_class * fraction + 0.5)`` cells are drawn
    per class without replacement from one ``numpy`` PCG64 generator,
    positives first. The split holds entry rows, not coordinates:
    ``tensor.coords[split.heldout]`` are the held-out cells.
    """
    if not 0.0 < heldout_fraction < 1.0:
        raise DataError(f"heldout_fraction must be in (0, 1), got {heldout_fraction}")
    if not 0 <= layer < tensor.dims[2]:
        raise DataError(f"layer {layer} out of range")
    rows = np.flatnonzero(tensor.coords[:, 2] == layer)  # in coordinate order
    positive = tensor.values[rows] >= 0.5
    pos, neg = rows[positive], rows[~positive]
    if pos.size < 2 or neg.size < 2:
        raise DataError(
            f"insufficient class members in layer {layer}: {pos.size} positive, {neg.size} negative"
        )
    rng = np.random.default_rng(seed)
    chosen = []
    for cells in (pos, neg):
        n_held = int(np.floor(cells.size * heldout_fraction + 0.5))
        chosen.append(cells[rng.choice(cells.size, size=n_held, replace=False)])
    held = np.isin(rows, np.concatenate(chosen))
    return CellSplit(train=rows[~held], heldout=rows[held], seed=seed)


# --------------------------------------------------------------------------
# Serialization: a TSV of entries plus a JSON sidecar with dims and the
# three identifier sequences. Each mode's identifiers are a tuple of strings
# in index order: entity ``e`` of the mode is named by ``identifiers[e]``.

_META_MODES = ("targets", "indications", "layers")
_TSV_HEADER = ("i", "j", "k", "value")
_BLOCK_LINES = 1 << 14  # entry lines split into fields at a time while loading


def save_tensor(
    tensor: SparseTensor,
    modes: Sequence[Sequence[str]],
    tsv_path: str | Path,
    meta_path: str | Path,
) -> None:
    if len(modes) != 3:
        raise DataError("expected one identifier sequence per tensor mode")
    for key, identifiers, dim in zip(_META_MODES, modes, tensor.dims):
        if len(identifiers) != dim:
            raise DataError(f"{len(identifiers)} {key} identifiers do not match dim {dim}")
    write_tsv(tsv_path, _TSV_HEADER, entry_lines(tensor.coords, tensor.values))
    meta = {
        "dims": list(tensor.dims),
        "modes": {key: list(identifiers) for key, identifiers in zip(_META_MODES, modes)},
    }
    write_json(meta_path, meta, sort_keys=False)


def _meta_indices(meta: object, meta_path: str | Path) -> tuple[list, tuple[tuple[str, ...], ...]]:
    """Validate parsed tensor metadata and return its dims and per-mode identifiers."""
    try:
        dims = list(meta["dims"])
        lists = [meta["modes"][key] for key in _META_MODES]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{meta_path}: tensor metadata needs 'dims' and 'modes' {_META_MODES}") from exc
    if len(dims) != 3:
        raise DataError(f"{meta_path}: 'dims' must list three sizes, got {dims}")
    for mode, (key, dim, idents) in enumerate(zip(_META_MODES, dims, lists)):
        if type(dim) is not int:  # JSON true, 1.0 and "1" are not sizes
            raise DataError(f"{meta_path}: 'dims[{mode}]' must be an integer, got {type(dim).__name__} {dim!r}")
        if not isinstance(idents, list) or not all(isinstance(i, str) for i in idents):
            raise DataError(f"{meta_path}: 'modes.{key}' must be a list of identifiers")
        if len(idents) != dim:
            raise DataError(f"{meta_path}: {len(idents)} {key} identifiers for dims[{mode}] = {dim}")
        if len(set(idents)) != dim:
            raise DataError(f"{meta_path}: duplicate identifiers in 'modes.{key}'")
    return dims, tuple(tuple(idents) for idents in lists)


def _entry_arrays(lines: list[str], dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray] | None:
    """Coordinates and values of ``tensor.tsv`` entry lines, or None if any line is malformed.

    Fields go through ``int`` and ``float`` column by column, a block of
    lines at a time; a line is malformed exactly when the line loop of
    :func:`_raise_malformed` rejects it.
    """
    if set(map(str.count, lines, repeat("\t"))) - {3}:
        return None
    coords = np.empty((len(lines), 3), dtype=np.int64)
    values = np.empty(len(lines))
    try:
        for start in range(0, len(lines), _BLOCK_LINES):
            fields = "\t".join(lines[start : start + _BLOCK_LINES]).split("\t")
            stop = start + len(fields) // 4
            values[start:stop] = np.fromiter(map(float, fields[3::4]), np.float64, stop - start)
            del fields[3::4]
            coords[start:stop] = np.fromiter(map(int, fields), np.int64, 3 * (stop - start)).reshape(-1, 3)
    except (ValueError, OverflowError):  # not a number, or a coordinate beyond int64
        return None
    if coords.size and (coords.min() < 0 or (coords >= np.asarray(dims)).any()):
        return None
    return coords, values


def _raise_malformed(tsv_path: str | Path, header: str, lines: list[str], dims: Sequence[int]) -> NoReturn:
    """Raise the :class:`DataError` that names the first malformed line of ``tensor.tsv``."""
    if header != "\t".join(_TSV_HEADER):
        raise DataError(f"unexpected tensor header in {tsv_path}: {header!r}")
    for lineno, line in enumerate(lines, start=2):
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{tsv_path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            i, j, k, _ = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as exc:
            raise DataError(f"{tsv_path}:{lineno}: {exc}") from exc
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            raise DataError(f"{tsv_path}:{lineno}: coordinate ({i}, {j}, {k}) out of range for dims {dims}")
    raise DataError(f"{tsv_path}: malformed tensor entries")


def load_tensor(
    tsv_path: str | Path, meta_path: str | Path
) -> tuple[SparseTensor, tuple[tuple[str, ...], ...]]:
    """The tensor and per-mode identifiers of a ``tensor.tsv`` plus its JSON sidecar.

    The entries are parsed in one vectorised pass; only when it fails does
    a line loop run, to name the first malformed ``path:line``.
    """
    dims, modes = _meta_indices(read_json(meta_path), meta_path)
    with read_text(tsv_path) as handle:
        header, *lines = handle.read().split("\n")
    if lines and lines[-1] == "":  # the final newline ends the last line, it starts none
        lines.pop()
    entries = _entry_arrays(lines, dims) if header == "\t".join(_TSV_HEADER) else None
    if entries is None:
        _raise_malformed(tsv_path, header, lines, dims)
    return SparseTensor(dims, *entries), modes
