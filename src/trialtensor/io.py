"""Atomic file writing, the one TSV reader, small JSON helpers and the float format of every text artefact.

Every artifact the package writes goes through :func:`atomic_write`, so a
crashed or interrupted run never leaves a partially written file behind:
content lands in a temp file in the destination directory and is moved into
place with ``os.replace``. Every float in a text artefact is written as
``%.17g`` by :func:`format_floats`, so ``float`` reads back the value written.
Every TSV the package reads, evidence, ``tensor.tsv``, checkpoints,
``pairs.tsv`` and ``predictions.tsv`` alike, goes through :func:`tsv_blocks`.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from itertools import chain, repeat
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError

FLOAT_BLOCK = 1 << 12  # the most floats a writer formats at a time

@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Open a temp file for writing bytes and rename it onto ``path`` on success."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "wb") as handle:
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
            # The decoder counts positions from the start of a read, not of the file.
            raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from exc


# --------------------------------------------------------------------------
# The TSV reader. Lines split on "\n", and a "\r" just before it goes with
# it, so CRLF reads as LF; blank lines are skipped. Fields split on tabs, with
# no quoting, and columns are found by header name.

_BLOCK_CHARS = 1 << 16  # characters read at a time: a block of lines is what they hold
_DTYPES = {int: np.int64, float: np.float64}


def line_blocks(handle: TextIO) -> Iterator[list[str]]:
    """The lines of a text file opened with ``newline=""``, a block at a time.

    A ``"\\r"`` ending a line goes with it, so CRLF reads as LF; one anywhere
    else stays in its field. The last line is the text after the last
    newline, empty when the file ends with one; it ends the last block, so
    a file of one read is one block.
    """
    lines = [""]
    while chunk := handle.read(_BLOCK_CHARS):
        carry = lines.pop()  # the text after the last newline read so far
        if lines:
            yield lines
        lines = (carry + chunk).replace("\r\n", "\n").split("\n")
    lines[-1] = lines[-1].removesuffix("\r")
    yield lines


def read_header(path: str | Path) -> list[str]:
    """The column names of a TSV's header row."""
    with read_text(path, newline="") as handle:
        return next(line_blocks(handle))[0].split("\t")


def tsv_blocks(
    path: str | Path, columns: Mapping[str, type], optional: Sequence[str] = ()
) -> Iterator[tuple[np.ndarray, ...]]:
    """The ``columns`` then ``optional`` columns of a header-bearing TSV, then each row's line number,
    a block of rows at a time; at least one block, empty for a file without rows.

    ``columns`` maps each required column to how its fields are read: ``str``
    keeps them as an object array, ``int`` and ``float`` read each as they
    read text, into an int64 or float64 array. An optional column the header
    lacks reads as empty strings. Each block is checked when it is read:
    every line must have the header's field count, then no required ``str``
    field may be empty, then each number must read, column by column. The
    first fault names its ``path:line``.
    """
    path = Path(path)
    with read_text(path, newline="") as handle:
        blocks = line_blocks(handle)
        lines = next(blocks)
        header = lines[0].split("\t")
        missing = [name for name in columns if name not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        first = 2  # the line number of the line after the header
        for lines in chain([lines[1:]], blocks):
            yield _rows(path, header, lines, first, columns, optional)
            first += len(lines)


def _rows(
    path: Path, header: list[str], lines: list[str], first: int, columns: Mapping[str, type], optional: Sequence[str]
) -> tuple[np.ndarray, ...]:
    """One block of :func:`tsv_blocks`: the columns of ``lines``, numbered from ``first``."""
    width, step = len(header), len(header) + 1
    if "" in lines:  # blank lines are skipped; the others keep their numbers
        numbers = np.flatnonzero(np.fromiter(map(bool, lines), bool, len(lines))) + first
        lines = [line for line in lines if line]
    else:
        numbers = np.arange(first, first + len(lines))
    # The rows split as one string with a "\n" field after each row but the last.
    # No other field holds a "\n", so every row has the header's width exactly
    # when those fall every width + 1 fields; column c is then every
    # (width + 1)-th field from c.
    fields = "\t\n\t".join(lines).split("\t") if lines else []
    if len(fields) + 1 != len(lines) * step or fields[width::step].count("\n") + 1 != len(lines):
        widths = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) + 1
        check(path, numbers, widths == width, lambda r: f"{widths[r]} fields, the header has {width}")

    def column(name: str) -> list[str]:
        return fields[header.index(name)::step] if name in header else [""] * len(numbers)

    text = {name: np.array(column(name), dtype=object) for name, convert in columns.items() if convert is str}
    check(path, numbers, np.all([array != "" for array in text.values()], axis=0),
          lambda r: f"malformed row, expected fields {list(columns)}")
    read = [text[name] if convert is str else parse_fields(path, numbers, column(name), convert, name)
            for name, convert in columns.items()]
    return (*read, *(np.array(column(name), dtype=object) for name in optional), numbers)


def parse_fields(path: str | Path, lines: np.ndarray, fields: list[str], convert: type, name: str) -> np.ndarray:
    """``fields`` read by ``convert``, ``int`` or ``float``, into an int64 or float64 array;
    the first field it rejects is a :class:`DataError` naming its line."""
    dtype = _DTYPES[convert]
    try:
        return np.array(fields, dtype)  # each field parsed as convert(field) would, with no text array between
    except (ValueError, OverflowError):
        for line, field in zip(lines.tolist(), fields):
            try:
                np.array([field], dtype)
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{line}: bad {name} {field!r}") from exc
        raise


def read_tsv(path: str | Path, columns: Mapping[str, type], optional: Sequence[str] = ()) -> tuple[np.ndarray, ...]:
    """All the blocks of :func:`tsv_blocks` as one table. Columns are joined one
    at a time, each dropping its blocks, so a file's columns are never held twice."""
    joined = [list(blocks) for blocks in zip(*tsv_blocks(path, columns, optional))]
    return tuple(np.concatenate(joined.pop(0)) for _ in range(len(joined)))


def check(path: str | Path | None, lines: np.ndarray | None, ok: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise a :class:`DataError` at the first row where ``ok`` is False, as ``message(row)`` says;
    with a ``path``, the error names the row's line from ``lines``."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if bad.size:
        where = "" if path is None else f"{path}:{lines[bad[0]]}: "
        raise DataError(where + message(int(bad[0])))


def repeats(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending order of an int64 ``key``, and True for each row whose key an earlier row holds."""
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(len(key), dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    return order, repeated


# --------------------------------------------------------------------------
# ``%.17g`` over arrays. For 1e-4 <= |v| < 1e15, ``%.17g`` prints the 17
# significant digits N = round(|v| * 10**(16 - X)) in positional notation,
# X being the decimal exponent of N's leading digit, and drops the trailing
# zeros of the fraction. With v = m * 2**e (m the 53-bit mantissa) and
# q = 16 - X, |v| * 10**q is m * 5**q shifted right by -(e + q) bits: a
# product below 2**102, taken in two uint64 limbs and rounded half to even,
# so no bignum is needed (Adams, "Ryu revisited: printf floating point
# conversion", OOPSLA 2019). Every operand stays uint64: numpy promotes
# uint64 meeting int64 to float64. Before NEP 50 (numpy < 2) an array meeting
# a scalar of its own kind keeps the array's dtype whenever the value fits it,
# so a narrow array never meets a wider scalar here either.

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5**q for q in range(23)], dtype=np.uint64)


@functools.cache
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four decimal digits of 0..9999 as ASCII, one uint32 each in memory
    order, and the count of their trailing zeros. Built from the 100 digit
    pairs on first use, so an import that writes no text does not hold them."""
    pairs = np.frombuffer(b"".join(b"%02d" % n for n in range(100)), dtype=np.uint16)
    digits = np.empty((100, 100, 2), dtype=np.uint16)
    digits[..., 0], digits[..., 1] = pairs[:, None], pairs
    trailing = np.array([4] + [len(text) - len(text.rstrip("0")) for text in map(str, range(1, 10_000))])
    tables = digits.view(np.uint32).ravel(), trailing
    for table in tables:
        table.flags.writeable = False  # every call shares them
    return tables


# _KEEP[c] keeps the first c bytes of a uint64 word and clears the rest.
_KEEP = np.array([b"\xff" * c + b"\0" * (8 - c) for c in range(9)]).view(np.uint64)
_WIDTH = 24  # the longest fast-path text, "-0.000" and 17 digits, is 23 bytes


def _scaled(mantissa: np.ndarray, exponent2: np.ndarray, exponent10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(v * 10**(16 - exponent10)) for v = mantissa * 2**exponent2, and whether
    round half to even takes it one up."""
    q = 16 - exponent10
    power = _POW5[q]
    shift = (-(exponent2 + q)).astype(np.uint64)  # 1..50 over the fast range
    m_hi, m_lo = mantissa >> _U64(32), mantissa & _LOW32
    p_hi, p_lo = power >> _U64(32), power & _LOW32
    low = m_lo * p_lo
    middle = m_lo * p_hi + m_hi * p_lo  # below 2**54
    lo = low + (middle << _U64(32))  # wraps modulo 2**64; the carry goes to hi
    hi = m_hi * p_hi + (middle >> _U64(32)) + (lo < low).astype(np.uint64)
    floor = (lo >> shift) | (hi << (_U64(64) - shift))
    rest = lo & ((_U64(1) << shift) - _U64(1))
    half = _U64(1) << (shift - _U64(1))
    return floor, (rest > half) | ((rest == half) & (floor & _U64(1)).astype(bool))


def format_floats(values) -> list[bytes]:
    """``b"%.17g" % v`` for every value of a float array, in order.

    Values with 1e-4 <= |v| < 1e15 are formatted in numpy and ±0 written
    directly; only smaller, larger and non-finite values go through ``%``,
    one at a time.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    size = len(values)
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e15)
    zero = magnitude == 0.0
    magnitude = np.where(fast, magnitude, 1.0)
    fraction, exponent2 = np.frexp(magnitude)
    mantissa = (fraction * 2.0**53).astype(np.uint64)
    exponent2 = exponent2.astype(np.int64) - 53
    # log10 may miss the decimal exponent by one next to a power of ten; the
    # floor of the scaled value, never the rounded one, says which way.
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    digits, up = _scaled(mantissa, exponent2, exponent)
    off = np.flatnonzero((digits < _U64(10**16)) | (digits >= _U64(10**17)))
    if off.size:
        exponent[off] += np.where(digits[off] < _U64(10**16), -1, 1)
        digits[off], up[off] = _scaled(mantissa[off], exponent2[off], exponent[off])
    # Rounding never carries N up to 10**17: that needs a double within 5e-18
    # (relative) below a power of ten, and the nearest in this range is 8e-17 away.
    digits += up.astype(np.uint64)

    # Every step below works on the values sorted by (sign, exponent) group,
    # so that each group is one run of rows; a uint8 key sorts by radix.
    negative = np.signbit(values)
    group = (negative * 20 + exponent + 4).astype(np.uint8)
    order = np.argsort(group, kind="stable")
    digits, exponent = digits[order], exponent[order]

    # The 17 digits, four at a time: the leading digit, then four groups of four.
    high = digits // _U64(10**8)  # the leading 9 digits, kept uint64 for the product
    low = (digits - high * _U64(10**8)).astype(np.uint32)
    high = high.astype(np.uint32)
    quads = np.empty((5, size), dtype=np.intp)
    quads[0], middle = np.divmod(high, np.uint32(10**8))
    quads[1], quads[2] = np.divmod(middle, np.uint32(10**4))
    quads[3], quads[4] = np.divmod(low, np.uint32(10**4))
    digits4, trailing4 = _quad_tables()
    ascii = np.empty((size, 5), dtype=np.uint32)
    for column, quad in enumerate(quads):
        ascii[:, column] = digits4[quad]
    ascii = ascii.view(np.uint8)[:, 3:]
    trailing = trailing4[quads[4]]
    zeros = quads[4] == 0
    for quad in quads[3:0:-1]:
        trailing += zeros * trailing4[quad]
        zeros &= quad == 0

    # Lay each group out with fixed column slices.
    counts = np.bincount(group, minlength=40)
    bounds = np.cumsum(counts).tolist()
    rows = np.zeros((size, _WIDTH), dtype=np.uint8)
    for key in np.flatnonzero(counts).tolist():
        sign, x = divmod(key, 20)
        x -= 4
        start, stop = bounds[key] - int(counts[key]), bounds[key]
        out, digit = rows[start:stop], ascii[start:stop]
        prefix = b"-" * sign
        if x < 0:
            prefix += b"0." + b"0" * (-x - 1)
            out[:, len(prefix):len(prefix) + 17] = digit
        else:
            out[:, sign:sign + x + 1] = digit[:, :x + 1]
            out[:, sign + x + 1] = ord(".")
            out[:, sign + x + 2:sign + 18] = digit[:, x + 1:]
        out[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
    # Strip the fraction's trailing zeros, and the point when nothing follows it.
    strip = np.flatnonzero(trailing)
    point, tail = exponent[strip], trailing[strip]
    decimals = 16 - point  # digits after the point before stripping
    length = (negative[order[strip]] + np.where(point < 0, 1 - point, 1) + 17
              - np.minimum(tail, decimals) - (tail >= decimals))
    words = rows.view(np.uint64)
    words[strip] &= _KEEP[np.clip(length[:, None] - np.arange(0, _WIDTH, 8), 0, 8)]
    text = np.empty(size, dtype=f"S{_WIDTH}")
    text[order] = rows.view(f"S{_WIDTH}").ravel()  # a bytes item ends at its first NUL padding
    text[zero] = np.where(negative[zero], b"-0", b"0")
    text = text.tolist()
    for index in np.flatnonzero(~(fast | zero)).tolist():
        text[index] = b"%.17g" % values[index]
    return text


def escape_percent(text: str) -> str:
    """``text`` as a literal inside a ``%`` template."""
    return text.replace("%", "%%")


def float_rows(matrix: np.ndarray) -> Iterator[bytes]:
    """A 2-D array as text, a block of lines at a time: one line per row, fields split by tabs."""
    n_rows, n_cols = matrix.shape
    line = b"\t".join([b"%b"] * n_cols) + b"\n"
    step = max(1, FLOAT_BLOCK // max(1, n_cols))
    for start in range(0, n_rows, step):
        block = matrix[start:start + step]
        yield line * len(block) % tuple(format_floats(block))


def entry_lines(coords: np.ndarray, values: np.ndarray) -> Iterator[bytes]:
    """One ``i, j, k, value`` line per row of ``coords`` and entry of ``values``,
    a block of lines at a time."""
    for start in range(0, len(values), FLOAT_BLOCK):
        block = values[start:start + FLOAT_BLOCK]
        fields = np.empty((len(block), 4), dtype=object)
        fields[:, :3] = coords[start:start + FLOAT_BLOCK]
        fields[:, 3] = format_floats(block)
        yield b"%d\t%d\t%d\t%b\n" * len(block) % tuple(fields.ravel().tolist())


def write_tsv(path: str | Path, header: Sequence[str], lines: Iterable[bytes]) -> None:
    """Write a header plus already formatted lines as tab-separated text, atomically.

    Each item of ``lines`` is one or more complete lines, newline included.
    """
    with atomic_write(path) as handle:
        handle.write("\t".join(header).encode() + b"\n")
        handle.writelines(lines)


def write_json(path: str | Path, payload: object, sort_keys: bool = True) -> None:
    with atomic_write(path) as handle:
        handle.write((json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n").encode())


def read_json(path: str | Path) -> object:
    with read_text(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
