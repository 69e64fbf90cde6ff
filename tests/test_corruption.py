"""Corrupted and half-written artefact files.

A dataset or checkpoint with any byte changed or cut off raises a
FormatError naming its file, and a save that fails partway leaves the
previous checkpoint as it was.
"""

import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopp import adm, data, envs, nn, value
from mopp.errors import FormatError
from mopp.manifest import CHECKPOINT_FILE, read_manifest

LOADS = {"data.ds": data.load_dataset, "dynamics": adm.load_ensemble, "q": value.load_q}
SAVES = {"dynamics": adm.save_ensemble, "q": value.save_q}
# an offset into the file (taken modulo its length), and the byte XORed into it there (so that it
# changes), or None to cut the file at the offset
OFFSETS = st.integers(0, 1 << 16)
FLIPS = st.none() | st.integers(1, 255)
FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A tiny dataset, dynamics ensemble and Q, saved under one directory."""
    root = tmp_path_factory.mktemp("saved")
    env = envs.pointmass_env(max_steps=5)
    ds = data.generate_dataset(env, envs.scripted_policy("medium", env, 0), episodes=2, seed=0)
    data.save_dataset(ds, root / "data.ds")
    adm_cfg = adm.AdmConfig(members=2, steps=1, batch_size=4, embed_width=3, head_hidden=(2,))
    adm.save_ensemble(adm.adm_train(ds, "dynamics", adm_cfg, seed=1), root / "dynamics")
    fqe_cfg = value.FqeConfig(iterations=1, steps_per_iteration=1, batch_size=4, hidden=(3,))
    value.save_q(value.fqe_train(ds, fqe_cfg, seed=2), root / "q")
    return root


def test_manifest_lines_split_as_text_mode_open_splits_them(tmp_path):
    # universal newlines end a line; other Unicode line breaks (form feed, U+2028) do not
    path = tmp_path / "manifest.txt"
    path.write_bytes("a = 1\rb = 2\r\nc = x\x0cy\u2028z\n\rd = 4".encode())
    assert read_manifest(path) == {"a": "1", "b": "2", "c": "x\x0cy\u2028z", "d": "4"}


def load_corrupted(saved, target: str, offset: int, flip) -> None:
    """Loading a copy of ``target``, its file cut at ``offset`` or ``flip`` XORed into the byte there, raises a FormatError naming the file."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = os.path.join(scratch, target)
        (shutil.copytree if os.path.isdir(saved / target) else shutil.copyfile)(saved / target, copy)
        path = os.path.join(copy, CHECKPOINT_FILE) if os.path.isdir(copy) else copy
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        offset %= len(blob)
        if flip is None:
            del blob[offset:]
        else:
            blob[offset] ^= flip
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
            LOADS[target](copy)


@FUZZ
@given(offset=OFFSETS, flip=FLIPS)
@example(offset=9, flip=ord("2") ^ ord("1"))  # format = 1
@example(offset=-1, flip=None)  # the last byte of the digest cut off
def test_corrupted_dataset_raises_format_error(saved, offset, flip):
    load_corrupted(saved, "data.ds", offset, flip)


@FUZZ
@given(offset=OFFSETS, flip=FLIPS)
@example(offset=9, flip=ord("2") ^ ord("1"))  # format = 1
@example(offset=-1, flip=None)  # the last byte of the digest cut off
@example(offset=-1, flip=1)  # the last byte of the digest changed
def test_corrupted_ensemble_raises_format_error(saved, offset, flip):
    load_corrupted(saved, "dynamics", offset, flip)


@FUZZ
@given(offset=OFFSETS, flip=FLIPS)
@example(offset=9, flip=ord("2") ^ ord("1"))  # format = 1
@example(offset=-32, flip=None)  # the whole digest cut off
def test_corrupted_q_raises_format_error(saved, offset, flip):
    load_corrupted(saved, "q", offset, flip)


def failing_fsync(fd):
    raise OSError("disk full")


def failing_write_net(write, net):
    write(nn.NET_MAGIC)  # part of a record
    raise OSError("disk full")


@pytest.mark.parametrize("failure", [(os, "fsync", failing_fsync), (nn, "write_net", failing_write_net)], ids=["fsync", "net record"])
@pytest.mark.parametrize("target", ["dynamics", "q"])
def test_failed_save_keeps_the_previous_checkpoint(saved, tmp_path, monkeypatch, target, failure):
    copy = tmp_path / target
    shutil.copytree(saved / target, copy)
    before = (copy / CHECKPOINT_FILE).read_bytes()
    model = LOADS[target](copy)
    params = adm_or_q_params(model)
    saved_params = [p.copy() for p in params]
    for p in params:
        p += 1.0  # a different model to save over it
    with monkeypatch.context() as m:
        m.setattr(*failure)
        with pytest.raises(OSError, match="disk full"):
            SAVES[target](model, copy)
    assert [p.name for p in copy.iterdir()] == [CHECKPOINT_FILE]
    assert (copy / CHECKPOINT_FILE).read_bytes() == before
    for got, want in zip(adm_or_q_params(LOADS[target](copy)), saved_params, strict=True):
        np.testing.assert_array_equal(got, want)


def adm_or_q_params(model) -> list:
    return model.net.params() if isinstance(model, value.QNetwork) else [p for m in model.members for p in m.params()]
