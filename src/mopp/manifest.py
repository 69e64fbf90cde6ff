"""Flat key-value text files used by checkpoint directories."""

from __future__ import annotations

import io

import numpy as np

from .data import read_file
from .errors import FormatError

FORMAT = "1"  # the value of key 'format' in the checkpoint manifests this version writes and reads


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


def write_manifest(path, entries: dict) -> None:
    lines = [f"{k} = {v}\n" for k, v in entries.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(lines)


class Manifest(dict):
    """Manifest entries; looking up a missing key raises a FormatError naming it and the file."""

    def __init__(self, path):
        super().__init__()
        self.path = path

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

    def parse_vector(self, key, length_key) -> np.ndarray:
        """Float values at ``key``; there must be as many as the integer at ``length_key``."""
        values = self.parse(key, parse_floats)
        length = self.parse(length_key, int)
        if len(values) != length:
            raise FormatError(
                f"{self.path}: key {key!r} = {self[key]} holds {len(values)} values, "
                f"but key {length_key!r} = {length}"
            )
        return values


def read_manifest(path) -> Manifest:
    entries = Manifest(path)
    try:
        text = read_file(path).decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not UTF-8 text ({err.reason})") from None
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):  # the lines open(path, "r") reads
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries
