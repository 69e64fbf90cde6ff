"""Edit a saved checkpoint file and write the digest of its new bytes.

A checkpoint whose bytes do not match its digest fails to load before any
other check runs. Tests that corrupt one part of a checkpoint on purpose,
to reach the check of that part, edit it through :func:`rewrite_checkpoint`.
"""

import hashlib

from mopp.manifest import CHECKPOINT_FILE, DIGEST_SIZE


def rewrite_checkpoint(directory, edit):
    """Replace the checkpoint's manifest and net bytes by ``edit(manifest, nets)``, then its digest.

    ``manifest`` is the bytes before the NUL, ``nets`` those after it and
    before the digest; ``edit`` returns the pair to write. Returns the path.
    """
    path = directory / CHECKPOINT_FILE
    manifest, _, nets = path.read_bytes()[:-DIGEST_SIZE].partition(b"\0")
    body = b"\0".join(edit(manifest, nets))
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


def edit_lines(edit):
    """An ``edit`` for :func:`rewrite_checkpoint` that maps the manifest's text lines through ``edit(lines)``."""

    def apply(manifest, nets):
        lines = manifest.decode().splitlines(keepends=True)
        return "".join(edit(lines)).encode(), nets

    return apply
