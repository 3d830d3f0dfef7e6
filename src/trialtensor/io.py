"""Atomic file writing and small TSV/JSON helpers.

Every artifact the package writes goes through :func:`atomic_write`, so a
crashed or interrupted run never leaves a partially written file behind:
content lands in a temp file in the destination directory and is moved into
place with ``os.replace``.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError

# The float format of every text artefact and of every writer's ``%`` row
# template: 17 significant digits, so ``float`` reads back the value written.
FLOAT_FORMAT = "%.17g"


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open a temp file for writing and rename it onto ``path`` on success."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@contextmanager
def read_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading; failing to open or decode it is a
    :class:`DataError` naming the file."""
    try:
        handle = open(path, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def format_float(value: float) -> str:
    """17 significant digits, round-trips exactly; stable across runs."""
    return FLOAT_FORMAT % float(value)


def escape_percent(text: str) -> str:
    """``text`` as a literal inside a ``%`` template."""
    return text.replace("%", "%%")


def float_rows(matrix: np.ndarray) -> str:
    """A 2-D array as text: one line per row, ``FLOAT_FORMAT`` fields split by tabs."""
    n_rows, n_cols = matrix.shape
    template = ("\t".join([FLOAT_FORMAT] * n_cols) + "\n") * n_rows
    return template % tuple(matrix.ravel().tolist())


def write_tsv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a header plus already formatted lines as tab-separated text, atomically.

    Each item of ``lines`` is one or more complete lines, newline included.
    """
    with atomic_write(path) as handle:
        handle.write("\t".join(header) + "\n")
        handle.writelines(lines)


def write_json(path: str | Path, payload: object) -> None:
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path: str | Path) -> object:
    with read_text(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
