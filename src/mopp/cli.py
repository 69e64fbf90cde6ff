"""Command-line pipeline: data generation, model training, evaluation, ablations."""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import math
import multiprocessing.connection
import os
import signal
import sys
import time

import numpy as np

from . import adm, data, envs, nn, planner, value
from .config import (
    ABLATE_VARIANTS,
    RunConfig,
    ablate_axis_field,
    adm_config,
    constraint_config,
    default_config_text,
    fqe_config,
    load_config,
    planner_config,
)
from .errors import ConfigError, FormatError, MoppError
from .manifest import CHECKPOINT_FILE, atomic_write, read_file, read_manifest, stored_digest

CALIBRATION_FILE = "calibration.txt"
# The calibration key covers every module of the package, so an edit to the
# `l = auto` rule (planner.uncertainty_threshold_from_data and its constants)
# or to anything it calls recomputes the stored threshold once.
CALIBRATION_CODE = tuple(sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.py"))))


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, flush=True)


def _resolve(out_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _load_run_config(args) -> RunConfig:
    if not args.out:
        raise ConfigError("--out is empty; name a directory")
    _check_dir_target(args.out, f"--out {args.out}")
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed {args.seed}: a seed must be non-negative")
        cfg.seeds = (args.seed,)
        cfg.data_seed = args.seed
        cfg.dynamics_seed = args.seed + 1
        cfg.behavior_seed = args.seed + 2
        cfg.fqe_seed = args.seed + 3
    seen = {}  # checkpoint directory -> the [run] key naming it
    for key in ("dynamics_dir", "behavior_dir", "q_dir"):
        path = os.path.realpath(_resolve(args.out, getattr(cfg, key)))
        if path in seen:
            first = seen[path]
            raise ConfigError(
                f"[run] {first} = {getattr(cfg, first)} and {key} = {getattr(cfg, key)} name the same "
                f"directory {path}; each checkpoint needs its own"
            )
        seen[path] = key
    return cfg


def _check_dir_target(path: str, what: str) -> None:
    """Raise a ConfigError, named by ``what``, if ``path`` or its nearest existing ancestor is not a directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"{what}: {existing} is not a directory")


def _make_env(cfg: RunConfig):
    return envs.make_env(cfg.env, v_cap=cfg.v_cap)


def _require(path: str, hint: str) -> None:
    if not os.path.exists(path):
        raise ConfigError(f"missing artifact {path}; {hint}")


def _load_bundle(cfg: RunConfig, out_dir: str, planners: list):
    """The models that the planner configs ``planners`` read; Q is loaded only if one of them reads it.

    A model that cannot plan one of them on the env is a ConfigError naming its directory.
    """
    dyn_dir = _resolve(out_dir, cfg.dynamics_dir)
    beh_dir = _resolve(out_dir, cfg.behavior_dir)
    q_dir = _resolve(out_dir, cfg.q_dir)
    _require(os.path.join(dyn_dir, CHECKPOINT_FILE), "run `mopp train-dynamics` first")
    _require(os.path.join(beh_dir, CHECKPOINT_FILE), "run `mopp train-behavior` first")
    dynamics = adm.load_ensemble(dyn_dir)
    behavior = adm.load_ensemble(beh_dir)
    for path, ensemble, role in ((dyn_dir, dynamics, "dynamics"), (beh_dir, behavior, "behavior")):
        if ensemble.role != role:
            raise FormatError(f"{path}: holds the {ensemble.role!r} ensemble, expected {role!r}")
    q = None
    if any(p.use_max_q or p.use_value for p in planners):
        _require(os.path.join(q_dir, CHECKPOINT_FILE), "run `mopp train-q` first (or disable use_max_q/use_value)")
        q = value.load_q(q_dir)
    bundle = planner.ModelBundle(dynamics=dynamics, behavior=behavior, q=q)
    sources = {"dynamics": dyn_dir, "behavior": beh_dir, "q": q_dir}
    for p in planners:
        planner.check_models(bundle, p, _make_env(cfg).spec, sources=sources)
    return bundle


def _load_planner_inputs(cfg: RunConfig, out_dir: str, fields: list):
    """The models and the planner configs; returns (bundle, planner configs, note on the threshold).

    Each dict of ``fields`` holds the PlannerConfig fields that one planner
    config sets over the config file's. A config reads the configured
    threshold iff it prunes and sets no ``uncertainty_threshold``. If none
    does, the threshold is not computed and ``inf`` stands in, and the
    dataset is not read. Every model is checked before the threshold is.
    """
    base = planner_config(cfg, math.inf)
    planners = [dataclasses.replace(base, **sets) for sets in fields]
    reads = [p.use_pruning and "uncertainty_threshold" not in sets for p, sets in zip(planners, fields)]
    dataset_path = _resolve(out_dir, cfg.dataset)
    if any(reads) and cfg.threshold is None:
        _require(dataset_path, "run `mopp gen-data` first")
    bundle = _load_bundle(cfg, out_dir, planners)
    if not any(reads):
        return bundle, planners, "no planner prunes by the uncertainty threshold"
    if cfg.threshold is not None:
        threshold, how = cfg.threshold, "from the config"
    else:
        dyn_dir = _resolve(out_dir, cfg.dynamics_dir)
        threshold, how = _calibrated_threshold(out_dir, dataset_path, dyn_dir, bundle.dynamics)
    planners = [dataclasses.replace(p, uncertainty_threshold=threshold) if r else p for p, r in zip(planners, reads)]
    return bundle, planners, f"uncertainty threshold {threshold:.6g} {how}"


def _calibrated_threshold(out_dir: str, dataset_path: str, dyn_dir: str, dynamics):
    """The `l = auto` threshold, computed once per dataset, dynamics checkpoint and code.

    ``<out>/calibration.txt`` stores it with a key over the code and the
    digests stored in the dataset and checkpoint files. A missing,
    unreadable, malformed or stale file is recomputed and rewritten: it holds
    derived data only. Returns (threshold, how it was obtained).
    """
    path = os.path.join(out_dir, CALIBRATION_FILE)
    key = _calibration_key(dataset_path, dyn_dir)
    stored = _stored_threshold(path, key)
    if stored is not None:
        return stored, f"read from {path}"
    threshold = planner.uncertainty_threshold_from_data(dynamics, data.load_dataset(dataset_path))
    os.makedirs(out_dir, exist_ok=True)
    _write_text(path, f"threshold = {threshold!r}\nkey = {key}\n")
    return threshold, f"computed on the dataset, saved to {path}"


def _calibration_key(dataset_path: str, dyn_dir: str) -> str:
    """SHA-256 over numpy's version, each code file framed by name and size, and the dataset's and checkpoint's stored digests."""
    h = hashlib.sha256(np.__version__.encode())
    for path in CALIBRATION_CODE:
        code = read_file(path)
        h.update(f"\n{os.path.basename(path)} {len(code)}\n".encode() + code)
    h.update(stored_digest(dataset_path) + stored_digest(os.path.join(dyn_dir, CHECKPOINT_FILE)))
    return h.hexdigest()


def _stored_threshold(path: str, key: str):
    """The threshold stored at ``path`` under ``key``, or None if there is no usable one.

    The key is written after the threshold, so a truncated file lacks the whole key.
    """
    try:
        entries = read_manifest(path)
        if entries["key"] != key:
            return None
        threshold = entries.parse("threshold", float)
    except MoppError:
        return None
    return threshold if threshold > 0 else None


def cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    path = _resolve(args.out, cfg.dataset)
    _check_dir_target(os.path.dirname(path), f"[run] dataset = {cfg.dataset}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    env = _make_env(cfg)
    policy = envs.scripted_policy(cfg.data_policy, env, seed=cfg.data_seed + 1)
    dataset = data.generate_dataset(env, policy, cfg.data_episodes, seed=cfg.data_seed)
    data.save_dataset(dataset, path)
    _info(
        args,
        f"wrote {len(dataset)} transitions ({dataset.n_episodes} episodes, "
        f"mean return {dataset.episode_returns().mean():.2f}) to {path}",
    )
    return 0


def _load_dataset(cfg: RunConfig, out_dir: str) -> data.Dataset:
    path = _resolve(out_dir, cfg.dataset)
    _require(path, "run `mopp gen-data` first")
    return data.load_dataset(path)


def cmd_train_adm(args) -> int:
    """Fit the ``args.role`` ensemble: k1 dynamics or k2 behavior members."""
    cfg = _load_run_config(args)
    key = f"{args.role}_dir"
    out = _resolve(args.out, getattr(cfg, key))
    _check_dir_target(out, f"[run] {key} = {getattr(cfg, key)}")
    dataset = _load_dataset(cfg, args.out)
    members = cfg.k1 if args.role == "dynamics" else cfg.k2
    t0 = time.perf_counter()
    ensemble = adm.adm_train(dataset, args.role, adm_config(cfg, members), seed=getattr(cfg, f"{args.role}_seed"))
    adm.save_ensemble(ensemble, out)
    _info(args, f"trained {members} {args.role} members in {time.perf_counter() - t0:.0f}s -> {out}")
    return 0


def cmd_train_q(args) -> int:
    cfg = _load_run_config(args)
    out = _resolve(args.out, cfg.q_dir)
    _check_dir_target(out, f"[run] q_dir = {cfg.q_dir}")
    dataset = _load_dataset(cfg, args.out)
    t0 = time.perf_counter()
    q = value.fqe_train(dataset, fqe_config(cfg, constraint_config(cfg).reward_transform), seed=cfg.fqe_seed)
    value.save_q(q, out)
    tag = f" (reward transform: {cfg.constraint})" if cfg.constraint != "none" else ""
    _info(args, f"fitted Q in {time.perf_counter() - t0:.0f}s{tag} -> {out}")
    return 0


def _write_text(path: str, text: str) -> None:
    """Write a text file crash-safe: ``path`` holds the old file or the whole new one."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _format_row(values) -> str:
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(f"{v:.6f}")
        else:
            out.append(str(v))
    return ",".join(out)


def _episodes(cfg: RunConfig, bundle, constraints, jobs) -> list:
    """Plan each (planner config, seed, episode) job; returns the EpisodeResults in job order.

    The jobs run on min(nn._workers, len(jobs)) processes. With one, they run
    here, one after another. Otherwise children of multiprocessing's fork
    context share the loaded models: child p of P plans jobs p, p + P, ...
    with nn._workers // P pool workers and sends each result back as it
    finishes. Forking is safe because the pool's threads are idle between
    maps and a forked child drops the pools (see nn). A child that dies ends
    the command with a MoppError naming the seed and episode it was planning,
    and every child is reaped on every path, the parent's own exceptions
    included.
    """

    def run(job):
        pcfg, seed, ep = job
        return planner.run_episode(_make_env(cfg), bundle, pcfg, constraints=constraints, seed=(seed, ep))

    def child(jobs, conn, workers: int) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C interrupts the parent, which kills its children
        nn._workers = workers
        for job in jobs:
            conn.send(run(job))

    procs = min(nn._workers, len(jobs))
    if procs < 2:
        return [run(job) for job in jobs]
    sys.stdout.flush()  # else a child that flushes writes the parent's buffered output a second time
    sys.stderr.flush()
    fork = multiprocessing.get_context("fork")
    results, reads, children = [None] * len(jobs), [], []
    todo = list(range(procs))  # the job each child sends next
    try:
        for p in range(procs):
            r, w = fork.Pipe(duplex=False)
            reads.append(r)
            c = fork.Process(target=child, args=(jobs[p::procs], w, nn._workers // procs))
            try:
                c.start()
            finally:
                w.close()  # so the read end sees EOF once the child exits
            children.append(c)
        waiting = list(reads)
        while waiting:
            for r in multiprocessing.connection.wait(waiting):
                p = reads.index(r)
                try:
                    results[todo[p]] = r.recv()
                    todo[p] += procs
                except (EOFError, OSError):  # all sent, or the child died before or while sending
                    waiting.remove(r)
        for c in children:
            c.join()
    finally:
        for c in children:
            if c.exitcode is None:  # still running after an exception here
                c.kill()
                c.join()
        for r in reads:
            r.close()

    dead = [(i, c.exitcode) for i, c in zip(todo, children) if i < len(jobs)]
    if dead:
        i, code = min(dead)
        _, seed, ep = jobs[i]
        how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
        raise MoppError(f"seed {seed} episode {ep}: the process planning it {how}")
    return results


def _run_planners(args, cfg: RunConfig, fields: list, doing: str):
    """Plan each (seed, episode) run under each planner config of ``fields``; returns the runs and each config's results."""
    bundle, planners, note = _load_planner_inputs(cfg, args.out, fields)
    _info(args, f"{doing}: {note}")
    runs = [(seed, ep) for seed in cfg.seeds for ep in range(cfg.episodes)]
    results = _episodes(cfg, bundle, constraint_config(cfg), [(p, *run) for p in planners for run in runs])
    return runs, [results[c * len(runs) : (c + 1) * len(runs)] for c in range(len(planners))]


def _write_outputs(args, texts: dict) -> None:
    """Write each file name -> text of ``texts`` under --out, crash-safe, and report it."""
    os.makedirs(args.out, exist_ok=True)
    for name, text in texts.items():
        path = os.path.join(args.out, name)
        _write_text(path, text)
        _info(args, f"wrote {path}")


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    runs, (results,) = _run_planners(args, cfg, [{}], "evaluating")
    lines = ["seed,episode,return,steps,violations"]
    per_seed = {}
    for (seed, ep), res in zip(runs, results):
        lines.append(_format_row((seed, ep, float(res.ret), res.steps, res.violations)))
        per_seed.setdefault(seed, []).append(res)
        _info(args, f"seed {seed} episode {ep}: return {res.ret:.2f} violations {res.violations}")
    fields = ("ret", "steps", "violations")
    means = np.array([[np.mean([getattr(r, f) for r in rs]) for f in fields] for rs in per_seed.values()])
    ret_mean, ret_std = float(means[:, 0].mean()), float(means[:, 0].std())
    steps_mean = float(means[:, 1].mean())
    viol_mean, viol_std = float(means[:, 2].mean()), float(means[:, 2].std())
    lines.append(
        f"aggregate,,{ret_mean:.6f}±{ret_std:.6f},{steps_mean:.6f},{viol_mean:.6f}±{viol_std:.6f}"
    )
    _write_outputs(args, {"results.csv": "\n".join(lines) + "\n", "diagnostics.csv": planner.diagnostics_csv(results[0])})
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_run_config(args)
    cells = [(axis_value, variant) for axis_value in cfg.ablate_values for variant in cfg.ablate_variants]
    fields = [{**ablate_axis_field(cfg, v), **ABLATE_VARIANTS[name]} for v, name in cells]
    _, per_cell = _run_planners(args, cfg, fields, f"ablating {cfg.ablate_axis}")
    lines = ["axis,value,variant,return_mean,return_std,violations_mean"]
    for (axis_value, variant), cell in zip(cells, per_cell):
        rets, viols = [res.ret for res in cell], [res.violations for res in cell]
        lines.append(
            f"{cfg.ablate_axis},{axis_value},{variant},"
            f"{np.mean(rets):.6f},{np.std(rets):.6f},{np.mean(viols):.6f}"
        )
        _info(args, f"{cfg.ablate_axis}={axis_value} {variant}: {np.mean(rets):.2f}")
    _write_outputs(args, {"ablation.csv": "\n".join(lines) + "\n"})
    return 0


def cmd_print_config(args) -> int:
    print(default_config_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (flat key = value sections)")
    common.add_argument("--seed", type=int, metavar="N", help="override every seed in the config")
    common.add_argument("--out", metavar="DIR", default="runs", help="artifact directory (default: runs)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="mopp",
        description="Offline planning pipeline: learn models from a fixed dataset, plan with pruning and MPPI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", parents=[common], help="roll scripted-policy episodes into a dataset file").set_defaults(fn=cmd_gen_data)
    for role in ("dynamics", "behavior"):
        sub.add_parser(f"train-{role}", parents=[common], help=f"fit the {role} ensemble").set_defaults(fn=cmd_train_adm, role=role)
    sub.add_parser("train-q", parents=[common], help="fit the behavioral Q-function (honors the constraint reward transform)").set_defaults(fn=cmd_train_q)
    sub.add_parser("evaluate", parents=[common], help="run planning episodes and write results.csv").set_defaults(fn=cmd_evaluate)
    sub.add_parser("ablate", parents=[common], help="sweep one axis with component toggles into ablation.csv").set_defaults(fn=cmd_ablate)
    sub.add_parser("print-config", help="print a config file with every default").set_defaults(fn=cmd_print_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MoppError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
