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

from .errors import DataError


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
    """Shortest round-trippable decimal form, stable across runs."""
    return f"{float(value):.17g}"


def write_tsv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a header plus rows as tab-separated text, atomically."""
    with atomic_write(path) as handle:
        handle.write("\t".join(header) + "\n")
        for row in rows:
            handle.write("\t".join(str(field) for field in row) + "\n")


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
