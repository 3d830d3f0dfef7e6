"""Sparse rank-3 tensor storage, evaluation splits and serialization.

Observations live in coordinate (COO) form: an ``(n, 3)`` integer array of
``(i, j, k)`` coordinates plus a value vector, kept in coordinate
(lexicographic ``(i, j, k)``) order whatever order they were given in.
Tensors are immutable after construction.

Layer convention used throughout the package: ``k = 0`` holds the clinical
outcome labels, ``k >= 1`` hold the evidence layers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .io import check, entry_lines, read_json, read_tsv, repeats, write_json, write_tsv

def _checked_dims(dims: Sequence[int]) -> tuple[int, int, int]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise DataError(f"dims must be three positive integers, got {dims}")
    if dims[0] * dims[1] * dims[2] > np.iinfo(np.int64).max:  # the cell order is an int64 linear index
        raise DataError(f"dims {dims} hold more cells than an int64 index can number")
    return dims


def _linearize(coords: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    return (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]


class SparseTensor:
    """Immutable COO tensor with values in [0, 1], cells in coordinate order.

    Duplicate coordinates are rejected rather than overwritten: a duplicate
    means two curation sources disagreed about one cell, and that conflict
    must be resolved upstream, not silently here.
    """

    __slots__ = ("dims", "_coords", "_values")

    def __init__(
        self, dims: Sequence[int], coords: np.ndarray, values: np.ndarray,
        *, path: str | Path | None = None, lines: np.ndarray | None = None,
    ):
        """A cell out of range, a value not finite or not in [0, 1] and a repeated
        cell are each a :class:`DataError` naming the first cell that breaks
        the rule; for cells read from a file, ``path`` and each cell's line
        number in ``lines`` make it name that line."""
        dims = _checked_dims(dims)
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if coords.shape[0] != values.shape[0]:
            raise DataError("coordinate and value counts differ")
        check(path, lines, ((coords >= 0) & (coords < dims)).all(axis=1),
              lambda r: f"coordinate {tuple(coords[r].tolist())} out of range for dims {list(dims)}")
        check(path, lines, np.isfinite(values), lambda r: f"non-finite value {values[r]}")
        check(path, lines, (values >= 0.0) & (values <= 1.0), lambda r: f"value {values[r]} outside [0, 1]")
        order, repeated = repeats(_linearize(coords, dims))
        check(path, lines, ~repeated, lambda r: f"duplicate coordinate {tuple(coords[r].tolist())}")
        coords, values = coords[order], values[order]  # the tensor's own copies
        coords.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("SparseTensor is immutable")

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_entries(self) -> int:
        return int(self._values.shape[0])

    def layer_entries(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and values of one frontal slice."""
        mask = self._coords[:, 2] == layer
        return self._coords[mask], self._values[mask]


def select_layers(tensor: SparseTensor, keep: Sequence[int]) -> SparseTensor:
    """Subset the layer mode, renumbering kept layers to 0..len(keep)-1.

    Keeping every layer in order returns ``tensor`` itself, which, being
    immutable, is its own copy.
    """
    keep = [int(k) for k in keep]
    if keep == list(range(tensor.dims[2])):
        return tensor
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


def split_cells(tensor: SparseTensor, layer: int, heldout_fraction: float, seed: int) -> np.ndarray:
    """The held-out cells of a stratified, seeded split of one layer's cells.

    Protocol (deterministic given ``seed``): cells are classed as positive
    (value >= 0.5) or negative, each class is sorted lexicographically by
    coordinate, and ``floor(n_class * fraction + 0.5)`` cells are drawn
    per class without replacement from one ``numpy`` PCG64 generator,
    positives first. A class of which that holds out no cell is a
    :class:`DataError`, raised before any draw. Returns the held-out cells'
    entry rows into the tensor's ``coords``/``values``, ascending as int64,
    so in coordinate order: ``tensor.coords[heldout]`` are the held-out
    cells.
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
    n_held = [int(np.floor(cells.size * heldout_fraction + 0.5)) for cells in (pos, neg)]
    for name, cells, held in zip(("positive", "negative"), (pos, neg), n_held):
        if not held:  # the held-out cells must hold both classes to be scored
            raise DataError(
                f"heldout_fraction {heldout_fraction} holds out none of the {cells.size} {name} cells in layer {layer}"
            )
    rng = np.random.default_rng(seed)
    chosen = [cells[rng.choice(cells.size, size=held, replace=False)] for cells, held in zip((pos, neg), n_held)]
    return np.sort(np.concatenate(chosen))


# --------------------------------------------------------------------------
# Serialization: a directory holding ``tensor.tsv``, a TSV of entries, and
# ``tensor.meta.json``, a JSON sidecar with dims and the three identifier
# sequences. Each mode's identifiers are a tuple of strings in index order:
# entity ``e`` of the mode is named by ``identifiers[e]``.

_META_MODES = ("targets", "indications", "layers")
_TSV_HEADER = ("i", "j", "k", "value")


def _tensor_files(directory: str | Path) -> tuple[Path, Path]:
    """The ``tensor.tsv`` and ``tensor.meta.json`` paths of a tensor directory."""
    return Path(directory) / "tensor.tsv", Path(directory) / "tensor.meta.json"


def save_tensor(tensor: SparseTensor, modes: Sequence[Sequence[str]], directory: str | Path) -> None:
    """Write ``tensor`` and its per-mode identifiers into ``directory``, creating it if need be.

    The metadata must pass the check :func:`load_tensor` applies, so
    nothing is written that could not be read back.
    """
    if len(modes) != 3:
        raise DataError("expected one identifier sequence per tensor mode")
    tsv_path, meta_path = _tensor_files(directory)
    meta = {
        "dims": list(tensor.dims),
        "modes": {key: list(identifiers) for key, identifiers in zip(_META_MODES, modes)},
    }
    _meta_indices(meta, meta_path)
    write_tsv(tsv_path, _TSV_HEADER, entry_lines(tensor.coords, tensor.values))
    write_json(meta_path, meta, sort_keys=False)


def _meta_indices(meta: object, meta_path: str | Path) -> tuple[tuple[int, int, int], tuple[tuple[str, ...], ...]]:
    """Validate parsed tensor metadata and return its dims and per-mode identifiers.

    An identifier must be non-empty and hold no tab or newline, since it
    becomes a field of the TSV rows that ``train`` writes.
    """
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
        for ident in idents:
            if not ident or "\t" in ident or "\n" in ident:
                raise DataError(f"{meta_path}: 'modes.{key}' identifier {ident!r} is empty or holds a tab or newline")
    return _checked_dims(dims), tuple(tuple(idents) for idents in lists)


def load_tensor(directory: str | Path) -> tuple[SparseTensor, tuple[tuple[str, ...], ...]]:
    """The tensor and per-mode identifiers that :func:`save_tensor` wrote into ``directory``.

    ``tensor.tsv`` goes through :func:`~trialtensor.io.read_tsv`; a cell
    that breaks a :class:`SparseTensor` rule names its line. A missing or
    unreadable file is a :class:`DataError` naming it.
    """
    tsv_path, meta_path = _tensor_files(directory)
    dims, modes = _meta_indices(read_json(meta_path), meta_path)
    i, j, k, values, lines = read_tsv(tsv_path, dict(zip(_TSV_HEADER, (int, int, int, float))))
    return SparseTensor(dims, np.column_stack((i, j, k)), values, path=tsv_path, lines=lines), modes
