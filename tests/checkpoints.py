"""Edit a saved artefact file (a dataset or a checkpoint) and write the digest of its new bytes.

An artefact file whose bytes do not match its digest fails to load before
any other check runs. Tests that corrupt one part of a file on purpose, to
reach the check of that part, edit it through :func:`rewrite_artefact`.
"""

import hashlib

from mopp.manifest import CHECKPOINT_FILE, DIGEST_SIZE


def rewrite_checkpoint(directory, edit):
    """:func:`rewrite_artefact` on ``directory``'s checkpoint file, whose payload is its nets."""
    return rewrite_artefact(directory / CHECKPOINT_FILE, edit)


def rewrite_artefact(path, edit):
    """Replace the artefact file's manifest and payload bytes by ``edit(manifest, payload)``, then its digest.

    ``manifest`` is the bytes before the NUL, ``payload`` those after it and
    before the digest; ``edit`` returns the pair to write. Returns the path.
    """
    manifest, _, payload = path.read_bytes()[:-DIGEST_SIZE].partition(b"\0")
    body = b"\0".join(edit(manifest, payload))
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


def edit_lines(edit):
    """An ``edit`` for :func:`rewrite_artefact` that maps the manifest's text lines through ``edit(lines)``."""

    def apply(manifest, payload):
        lines = manifest.decode().splitlines(keepends=True)
        return "".join(edit(lines)).encode(), payload

    return apply
