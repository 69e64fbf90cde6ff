"""Artefact files, and the flat key-value text of their manifests.

Every binary artefact is one file: its manifest's ``key = value`` lines,
``format`` first, a NUL byte, its payload, then the SHA-256 of every byte
before it. A dataset's payload is its packed records (see
:func:`data.save_dataset`). A checkpoint directory holds one artefact file,
``checkpoint.bin``, whose payload is each net's record (see
:func:`nn.write_net`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

from . import nn
from .errors import FormatError

FORMAT = "2"  # the value of key 'format' in the artefact manifests this version writes and reads
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


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temp file next to ``path`` for writing; on a clean exit, move it over ``path``.

    The temp file is flushed and synced before ``os.replace``, so ``path``
    always holds a whole file: the old one or the new one. A failure at any
    point removes the temp file and re-raises. A directory at ``path`` is a
    FormatError, raised before the temp file is made.
    """
    if os.path.isdir(path):
        raise FormatError(f"{path}: is a directory, so no file can be written there")
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def open_file(path):
    """``path`` opened for binary reading; an OSError in opening or reading it is a FormatError naming it."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as err:
        raise FormatError(f"{path}: cannot read ({err.strerror})") from None


def read_file(path) -> bytes:
    """The bytes of the file at ``path`` (see :func:`open_file`)."""
    with open_file(path) as f:
        return f.read()


def write_artefact(path, entries: dict, payload) -> None:
    """Write the artefact file ``path`` crash-safe (see :func:`atomic_write`).

    Its manifest holds ``format``, then ``entries``; its payload is the bytes
    that ``payload(write)`` passes to ``write``.
    """
    h = hashlib.sha256()
    with atomic_write(path) as f:

        def write(blob) -> None:
            h.update(blob)
            f.write(blob)

        write("".join(f"{k} = {v}\n" for k, v in {"format": FORMAT, **entries}.items()).encode() + b"\0")
        payload(write)
        f.write(h.digest())


def read_artefact(path, payload):
    """The manifest of the artefact file ``path`` and ``payload(manifest, f, end)``, once its digest matches its bytes.

    ``payload`` reads the payload from the binary file ``f``, from its
    position to byte offset ``end``. A file whose digest does not match, or
    that does not parse, is a FormatError naming it.
    """
    with open_file(path) as f:
        body = max(os.fstat(f.fileno()).st_size - DIGEST_SIZE, 0)
        h = hashlib.sha256()
        for start in range(0, body, 1 << 20):
            h.update(f.read(min(1 << 20, body - start)))
        if f.read() != h.digest():
            raise FormatError(f"{path}: the bytes before byte offset {body} do not match the SHA-256 after them")
        f.seek(0)
        text, nul, _ = f.read(min(body, 1 << 20)).partition(b"\0")
        if not nul:
            raise FormatError(f"{path}: no NUL byte ends the manifest within its first MiB")
        f.seek(len(text) + 1)
        entries = Manifest(path, text)
        entries.expect("format", (FORMAT,))
        return entries, payload(entries, f, body)


def stored_digest(path) -> bytes:
    """The SHA-256 that ends the artefact file ``path``, unchecked (see :func:`read_artefact`); all of a shorter file."""
    with open_file(path) as f:
        f.seek(max(os.fstat(f.fileno()).st_size - DIGEST_SIZE, 0))
        return f.read()


def write_checkpoint(directory, entries: dict, nets) -> None:
    """Write ``directory``'s checkpoint file: an artefact file whose payload is the record of each of ``nets``."""
    os.makedirs(directory, exist_ok=True)

    def records(write) -> None:
        for net in nets:
            nn.write_net(write, net)

    write_artefact(os.path.join(directory, CHECKPOINT_FILE), entries, records)


def read_checkpoint(directory):
    """The manifest and the nets of ``directory``'s checkpoint file (see :func:`read_artefact`)."""

    def records(entries, f, end) -> list:
        nets = []
        while f.tell() < end:
            nets.append(nn.read_net(f, entries.path, end))
        return nets

    return read_artefact(os.path.join(directory, CHECKPOINT_FILE), records)


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
