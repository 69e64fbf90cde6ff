"""tools/identity.py without a pipeline run: its configs load, and its tree comparison marks what it should."""

import importlib.util
import os

import pytest

from mopp.config import load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("identity", os.path.join(ROOT, "tools", "identity.py"))
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

CONFIG_NAMES = ["fixture", "velocity-rollout", "paper-default", "constrained-default", "velocity-penalty", "height-bonus"]
CALIBRATION = b"threshold = 0.25\nkey = 0123\n"


def test_configs_of_this_tree_are_the_six_named_and_each_loads(tmp_path):
    runs = identity.configs(ROOT)
    assert list(runs) == CONFIG_NAMES
    for name, (text, _) in runs.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        load_config(path)


def make_tree(root, files: dict):
    for rel, blob in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
    return str(root)


TREE = {"data.ds": b"\x00\x01", "q/manifest.txt": b"role = q\n", "calibration.txt": CALIBRATION}


@pytest.mark.parametrize(
    "path, other, allowed",
    [
        (None, None, None),
        ("calibration.txt", CALIBRATION.replace(b"0123", b"4567"), True),
        ("calibration.txt", CALIBRATION.replace(b"0.25", b"0.5"), False),
        ("q/manifest.txt", b"role = Q\n", False),
        ("data.ds", b"\x00\x02", False),
        ("results.csv", b"seed\n", False),  # present on one side only
    ],
)
def test_differences_marks_only_a_calibration_key_line_as_allowed(tmp_path, path, other, allowed):
    ref = make_tree(tmp_path / "ref", TREE)
    changed = make_tree(tmp_path / "other", {**TREE, **({path: other} if path else {})})
    assert identity.differences(ref, changed) == ([] if path is None else [(path, allowed)])
    if path == "results.csv":
        assert identity.differences(changed, ref) == [(path, False)]
