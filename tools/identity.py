"""Check that two versions of mopp write byte-identical pipeline outputs.

    python tools/identity.py A B [--work DIR]

A and B are each a source tree (a directory holding ``src/mopp``) or a git
revision of the repository this script sits in, extracted with
``git archive``. For each side, every config below runs ``gen-data``,
``train-dynamics``, ``train-behavior``, ``train-q``, ``evaluate`` and
``ablate`` as separate processes, with BLAS pinned to one thread, twice:
under ``taskset`` on one CPU (one pool worker, episodes on one process) and
on two CPUs (two pool workers, episodes on two processes). Every run's
output tree is compared with A's one-CPU run, and each file that differs is
printed. ``calibration.txt`` may differ in its ``key =`` line, which hashes
the code; any other difference exits 1. A command that fails exits 2.

The configs: the ``tests/test_cli.py`` fixture; the fixture on
``pointmass_constrained`` with ``v_cap = 0.05``, ``velocity_rollout`` and all
four ablation variants; perfbench's two workload configs with ``--seed 7``;
the fixture with seeds 0,1,2 x 2 episodes and ``velocity_penalty``; and seeds
2,0 x 2 with ``height_bonus``. The fixture and the workloads are read from B's
``tests/test_cli.py`` and ``perfbench/bench.py``. The work directory keeps the
trees and outputs when a check fails; a temporary one is removed when all pass.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

COMMANDS = ("gen-data", "train-dynamics", "train-behavior", "train-q", "evaluate", "ablate")
WORKERS = (1, 2)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CheckError(Exception):
    """The check cannot run: a bad argument, too few CPUs or a failed command."""


def string_constants(path: str) -> dict:
    """Module-level names of ``path`` bound to strings (literals, earlier names, ``+``) or dicts of them."""

    def value(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return names[node.id]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return value(node.left) + value(node.right)
        if isinstance(node, ast.Dict):
            return {value(k): value(v) for k, v in zip(node.keys, node.values)}
        raise ValueError("not a string constant")

    names = {}
    with open(path, encoding="utf-8") as f:
        for stmt in ast.parse(f.read(), path).body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                try:
                    names[stmt.targets[0].id] = value(stmt.value)
                except (KeyError, ValueError):
                    pass
    return names


def edit(text: str, old: str, new: str) -> str:
    if old not in text:
        raise CheckError(f"the fixture config has no line {old!r} to edit")
    return text.replace(old, new, 1)


def configs(tree: str) -> dict:
    """Config name -> (config text, extra CLI arguments)."""
    fixture = string_constants(os.path.join(tree, "tests", "test_cli.py"))["TINY_CONFIG"]
    workloads = string_constants(os.path.join(tree, "perfbench", "bench.py"))["WORKLOADS"]
    constrained = edit(fixture, "[data]", "env = pointmass_constrained\nv_cap = 0.05\n\n[constraint]\nmode = velocity_rollout\n\n[data]")
    penalty = edit(fixture, "seeds = 0\nepisodes = 1", "env = pointmass_constrained\nseeds = 0,1,2\nepisodes = 2")
    bonus = edit(fixture, "seeds = 0\nepisodes = 1", "seeds = 2,0\nepisodes = 2")
    return {
        "fixture": (fixture, []),
        "velocity-rollout": (edit(constrained, "variants = full,noP", "variants = full,noMQ,noP,noV"), []),
        **{name: (text, ["--seed", "7"]) for name, text in workloads.items()},
        "velocity-penalty": (penalty + "\n[constraint]\nmode = velocity_penalty\n", []),
        "height-bonus": (bonus + "\n[constraint]\nmode = height_bonus\n", []),
    }


def source_tree(spec: str, dest: str) -> str:
    """The directory of source tree or git revision ``spec``; a revision is extracted to ``dest``."""
    if os.path.isdir(os.path.join(spec, "src", "mopp")):
        return os.path.abspath(spec)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", spec], capture_output=True)
    if archive.returncode != 0:
        raise CheckError(f"{spec}: neither a source tree nor a git revision ({archive.stderr.decode().strip()})")
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return dest


def run_pipeline(tree: str, cpus: list, cfg_dir: str, runs: dict, out_root: str) -> None:
    """Every command of every config of ``runs``, on ``tree``'s package, pinned to ``cpus``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    pin = ["taskset", "-c", ",".join(map(str, cpus))]
    for name, (_, extra) in runs.items():
        out = os.path.join(out_root, name)
        for command in COMMANDS:
            argv = [*pin, sys.executable, "-m", "mopp.cli", command, "--config", os.path.join(cfg_dir, f"{name}.cfg")]
            done = subprocess.run([*argv, "--out", out, "--quiet", *extra], env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise CheckError(f"{tree}: {name}: `{command}` exited {done.returncode}:\n{done.stderr}")


def files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}


def differences(ref: str, other: str) -> list:
    """(path, allowed) for each file that differs between the two output trees."""
    out = []
    ref_files, other_files = files(ref), files(other)
    for path in sorted(ref_files | other_files):
        if path not in ref_files or path not in other_files:
            out.append((path, False))
            continue
        with open(os.path.join(ref, path), "rb") as f1, open(os.path.join(other, path), "rb") as f2:
            a, b = f1.read(), f2.read()
        if a != b:
            allowed = os.path.basename(path) == "calibration.txt" and [
                line for line in a.splitlines() if not line.startswith(b"key =")
            ] == [line for line in b.splitlines() if not line.startswith(b"key =")]
            out.append((path, allowed))
    return out


def check(a: str, b: str, work: str) -> bool:
    """Run both sides into ``work``; print the differing files; True if only key lines differ."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < max(WORKERS):
        raise CheckError(f"needs {max(WORKERS)} CPUs to compare pool sizes, has {len(cpus)}")
    if shutil.which("taskset") is None:
        raise CheckError("needs taskset (util-linux) to pin each run's CPUs")
    trees = {"A": source_tree(a, os.path.join(work, "A")), "B": source_tree(b, os.path.join(work, "B"))}
    runs = configs(trees["B"])
    cfg_dir = os.path.join(work, "configs")
    os.makedirs(cfg_dir)
    for name, (text, _) in runs.items():
        with open(os.path.join(cfg_dir, f"{name}.cfg"), "w", encoding="utf-8") as f:
            f.write(text)
    outs = {}
    for side, tree in trees.items():
        for workers in WORKERS:
            label = f"{side}@{workers}"
            print(f"running {label} ({tree}) on configs {', '.join(runs)}", flush=True)
            outs[label] = os.path.join(work, "out", label)
            run_pipeline(tree, cpus[:workers], cfg_dir, runs, outs[label])
    ok, ref = True, "A@1"
    for label, root in outs.items():
        if label == ref:
            continue
        for name in runs:
            for path, allowed in differences(os.path.join(outs[ref], name), os.path.join(root, name)):
                ok &= allowed
                print(f"{label} vs {ref}: {name}/{path}: {'key line only' if allowed else 'DIFFERS'}")
    compared = sum(len(files(os.path.join(outs[ref], name))) for name in runs)
    print(f"{'identical' if ok else 'NOT identical'}: {compared} files per run, {len(outs) - 1} runs against {ref}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the reference: a source tree or a git revision")
    parser.add_argument("b", help="the version checked against it")
    parser.add_argument("--work", help="an empty or missing directory for the trees and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    work = os.path.abspath(args.work) if args.work else tempfile.mkdtemp(prefix="mopp-identity-")
    if os.path.isdir(work) and os.listdir(work):
        print(f"error: --work {work} is not empty", file=sys.stderr)
        return 2
    try:
        ok = check(args.a, args.b, work)
    except CheckError as err:
        print(f"error: {err}\n(work directory kept: {work})", file=sys.stderr)
        return 2
    if ok and not args.work:
        shutil.rmtree(work)
    elif not ok:
        print(f"outputs kept in {work}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
