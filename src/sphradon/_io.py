"""Output helpers shared by every writer: the lossless number format, for
one number or a whole table, and atomic (write-then-rename) file emission."""

from __future__ import annotations

import os
import tempfile

_CELL = "%.17g"  # 17 significant digits: every float64 reads back exactly


def fmt(x: float) -> str:
    return _CELL % float(x)


def format_rows(rows, prefixes=None) -> str:
    """One line of comma-separated `fmt` cells per row of a 2-D float
    array, every line ending in a newline, formatted in one call; with
    `prefixes`, one string per row, each line starts with its row's."""
    line = ",".join([_CELL] * rows.shape[1]) + "\n"
    if prefixes is None:
        return (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    width = rows.shape[1] + 1
    cells = [None] * (rows.shape[0] * width)
    cells[::width] = prefixes
    for col in range(1, width):
        cells[col::width] = rows[:, col - 1].tolist()
    return (("%s" + line) * rows.shape[0]) % tuple(cells)


def atomic_write(path: str, payload: bytes) -> None:
    """Write `payload` to a temporary file beside `path`, then rename it over
    `path`; on failure the temporary file is removed and `path` is untouched."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
