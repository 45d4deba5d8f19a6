"""Shared output helpers: number format and atomic writes."""

from __future__ import annotations

import os

import pytest

from sphradon._io import atomic_write, fmt


def test_fmt_reads_back_exactly():
    for x in (0.1, 1.0 / 3.0, -2.5e-300, 1e22):
        assert float(fmt(x)) == x


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    path = str(tmp_path / "out.csv")
    atomic_write(path, b"old\n")
    atomic_write(path, b"new\n")
    assert open(path, "rb").read() == b"new\n"
    # a failing write leaves the old file and no temporary behind
    with pytest.raises(TypeError):
        atomic_write(path, "not bytes")
    assert open(path, "rb").read() == b"new\n"
    assert os.listdir(tmp_path) == ["out.csv"]
