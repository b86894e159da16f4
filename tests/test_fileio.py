"""Atomic output: a failed write keeps the earlier file and leaves no partial one."""

import os

import numpy as np
import pytest

from forgetlab.fileio import atomic_write
from forgetlab.model import init_params, load_params, save_params
from forgetlab.numerics import stream


class Interrupted(Exception):
    pass


def test_success_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_write(str(path)) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failure_mid_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(Interrupted):
        with atomic_write(str(path)) as fh:
            fh.write("partial")
            raise Interrupted
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failure_on_a_new_path_leaves_no_file(tmp_path):
    with pytest.raises(Interrupted):
        with atomic_write(str(tmp_path / "new.csv")) as fh:
            fh.write("partial")
            raise Interrupted
    assert os.listdir(tmp_path) == []


def test_interrupted_checkpoint_keeps_the_previous_one(tmp_path, monkeypatch):
    path = str(tmp_path / "params.npz")
    first = init_params(stream(1), (4, 3, 2))
    save_params(first, path)

    def savez_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04 truncated")
        raise Interrupted

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(Interrupted):
        save_params(init_params(stream(2), (4, 3, 2)), path)
    assert np.array_equal(load_params(path).flat, first.flat)
    assert os.listdir(tmp_path) == ["params.npz"]
