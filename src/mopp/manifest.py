"""Checkpoint files, and the flat key-value text of their manifests.

A checkpoint directory holds one file, ``checkpoint.bin``: the manifest's
``key = value`` lines, a NUL byte, each net's record (see
:func:`nn.write_net`), then the SHA-256 of every byte before it.
"""

from __future__ import annotations

import hashlib
import io
import os

import numpy as np

from . import nn
from .data import atomic_write, hash_file, open_file, read_file
from .errors import FormatError

FORMAT = "2"  # the value of key 'format' in the checkpoint manifests this version writes and reads
CHECKPOINT_FILE = "checkpoint.bin"
DIGEST_SIZE = hashlib.sha256().digest_size


def format_floats(values) -> str:
    """Comma-joined float values; repr round-trips exactly through parse_floats."""
    return ",".join(repr(float(v)) for v in np.asarray(values).ravel())


def parse_floats(text: str) -> np.ndarray:
    if text == "":
        return np.zeros(0, dtype=np.float32)
    return np.array([float(v) for v in text.split(",")], dtype=np.float32)


def parse_ints(text: str) -> list[int]:
    if text == "":
        return []
    return [int(v) for v in text.split(",")]


def write_checkpoint(directory, entries: dict, nets) -> None:
    """Write ``directory``'s checkpoint file crash-safe (see :func:`data.atomic_write`), ``format`` first."""
    os.makedirs(directory, exist_ok=True)
    h = hashlib.sha256()
    with atomic_write(os.path.join(directory, CHECKPOINT_FILE)) as f:

        def write(blob) -> None:
            h.update(blob)
            f.write(blob)

        write("".join(f"{k} = {v}\n" for k, v in {"format": FORMAT, **entries}.items()).encode() + b"\0")
        for net in nets:
            nn.write_net(write, net)
        f.write(h.digest())


def read_checkpoint(directory):
    """The manifest and the nets of ``directory``'s checkpoint file, once its digest matches its bytes.

    A file that does not, or that does not parse, is a FormatError naming it.
    """
    path = os.path.join(directory, CHECKPOINT_FILE)
    with open_file(path) as f:
        body = max(os.fstat(f.fileno()).st_size - DIGEST_SIZE, 0)
        h = hashlib.sha256()
        hash_file(h, f, body)
        if f.read() != h.digest():
            raise FormatError(f"{path}: the bytes before byte offset {body} do not match the SHA-256 after them")
        f.seek(0)
        text, nul, _ = f.read(min(body, 1 << 20)).partition(b"\0")
        if not nul:
            raise FormatError(f"{path}: no NUL byte ends the manifest within its first MiB")
        f.seek(len(text) + 1)
        entries = Manifest(path, text)
        entries.expect("format", (FORMAT,))
        nets = []
        while f.tell() < body:
            nets.append(nn.read_net(f, path, body))
    return entries, nets


def stored_digest(directory) -> bytes:
    """The SHA-256 that ends ``directory``'s checkpoint file, as :func:`read_checkpoint` checks it."""
    with open_file(os.path.join(directory, CHECKPOINT_FILE)) as f:
        f.seek(-DIGEST_SIZE, os.SEEK_END)
        return f.read()


class Manifest(dict):
    """The entries of the manifest text ``blob`` from ``path``; a missing key is a FormatError naming it and the file."""

    def __init__(self, path, blob: bytes):
        super().__init__()
        self.path = path
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: not UTF-8 text ({err.reason})") from None
        for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):  # the lines open(path, "r") reads
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            self[key.strip()] = value.strip()

    def __missing__(self, key):
        raise FormatError(f"{self.path}: missing key {key!r}")

    def parse(self, key, convert):
        """``convert(self[key])``; a value it rejects raises a FormatError naming the key and the file."""
        try:
            return convert(self[key])
        except ValueError as err:
            raise FormatError(f"{self.path}: bad value for key {key!r}: {err}") from None

    def expect(self, key, allowed) -> str:
        """``self[key]``; a value not in ``allowed`` raises a FormatError naming the key and the file."""
        if self[key] not in allowed:
            raise FormatError(f"{self.path}: key {key!r} = {self[key]}, expected one of {sorted(allowed)}")
        return self[key]

    def mean_std(self, name: str, length_key=None) -> list:
        """Keys ``{name}_mean`` and ``{name}_std``: as many float32 values as the integer at ``length_key``, or a float.

        A mean must be finite, and a std finite and positive; else a FormatError names the key and the file.
        """
        stats = []
        for key, low, what in ((f"{name}_mean", -np.inf, "finite"), (f"{name}_std", 0.0, "finite and positive")):
            values = self.parse(key, float if length_key is None else parse_floats)
            if length_key is not None and len(values) != self.parse(length_key, int):
                raise FormatError(
                    f"{self.path}: key {key!r} = {self[key]} holds {len(values)} values, "
                    f"but key {length_key!r} = {self[length_key]}"
                )
            if not np.all((low < values) & (values < np.inf)):  # NaN fails both
                raise FormatError(f"{self.path}: key {key!r} = {self[key]}, but each value must be {what}")
            stats.append(values)
        return stats


def read_manifest(path) -> Manifest:
    return Manifest(path, read_file(path))
