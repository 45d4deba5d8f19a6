"""Output helpers shared by every writer: the lossless number format and
atomic (write-then-rename) file emission."""

from __future__ import annotations

import os
import tempfile


def fmt(x: float) -> str:
    """17 significant digits: every float64 reads back exactly."""
    return f"{float(x):.17g}"


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
