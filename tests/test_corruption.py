"""Corrupted artefact files: each load returns or raises a FormatError, never another exception."""

import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mopp import adm, data, envs, value
from mopp.errors import FormatError
from mopp.manifest import read_manifest

# The dynamics ensemble has 2 members of 5 heads (|S| + 1 outputs on the point mass).
ENSEMBLE_FILES = [os.path.basename(p) for p in adm.ensemble_files("", 2, 5)]
LOADS = {"data.ds": data.load_dataset, "dynamics": adm.load_ensemble, "q": value.load_q}
# an offset into the file (taken modulo its length), and the byte set there or None to cut the file at it
OFFSETS = st.integers(0, 1 << 16)
BYTES = st.none() | st.integers(0, 255)
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


def load_corrupted(saved, target: str, name: str, offset: int, byte) -> None:
    """Load a copy of ``target`` whose file ``name`` is cut at ``offset``, or has ``byte`` there.

    A load may return or raise a FormatError. A manifest that loads must
    still declare the format and role it was saved with, and a Q that loads
    must hold a relu net.
    """
    with tempfile.TemporaryDirectory() as scratch:
        copy = os.path.join(scratch, target)
        (shutil.copytree if os.path.isdir(saved / target) else shutil.copyfile)(saved / target, copy)
        path = os.path.join(copy, name) if name != target else copy
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        offset %= len(blob)
        if byte is None:
            del blob[offset:]
        else:
            blob[offset] = byte
        with open(path, "wb") as f:
            f.write(blob)
        try:
            loaded = LOADS[target](copy)
        except FormatError:
            return
        if target == "q":
            assert loaded.net.activation == "relu"
        if name == "manifest.txt":
            got, want = read_manifest(path), read_manifest(saved / target / name)
            assert (got["format"], got["role"]) == (want["format"], want["role"])


@FUZZ
@given(offset=OFFSETS, byte=BYTES)
@example(offset=15, byte=0x80)  # the high byte of the header's state dimension
@example(offset=19, byte=0x80)  # the high byte of the header's action dimension
def test_corrupted_dataset_loads_or_raises_format_error(saved, offset, byte):
    load_corrupted(saved, "data.ds", "data.ds", offset, byte)


@FUZZ
@given(name=st.sampled_from(ENSEMBLE_FILES), offset=OFFSETS, byte=BYTES)
@example(name="manifest.txt", offset=25, byte=ord("r"))  # role = dynamicr
@example(name="manifest.txt", offset=9, byte=ord("9"))  # format = 9
def test_corrupted_ensemble_loads_or_raises_format_error(saved, name, offset, byte):
    load_corrupted(saved, "dynamics", name, offset, byte)


@FUZZ
@given(name=st.sampled_from(["manifest.txt", "q.nn"]), offset=OFFSETS, byte=BYTES)
@example(name="manifest.txt", offset=9, byte=ord("9"))  # format = 9
@example(name="q.nn", offset=24, byte=1)  # the activation tag of the [6, 3, 1] net: tanh
def test_corrupted_q_loads_or_raises_format_error(saved, name, offset, byte):
    load_corrupted(saved, "q", name, offset, byte)
