"""Command-line pipeline: data generation, model training, evaluation, ablations."""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import io
import math
import os
import pickle
import select
import signal
import sys
import time
import traceback

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
from .manifest import read_manifest

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


def _load_bundle(cfg: RunConfig, out_dir: str):
    dyn_dir = _resolve(out_dir, cfg.dynamics_dir)
    beh_dir = _resolve(out_dir, cfg.behavior_dir)
    q_dir = _resolve(out_dir, cfg.q_dir)
    _require(dyn_dir, "run `mopp train-dynamics` first")
    _require(beh_dir, "run `mopp train-behavior` first")
    dynamics = adm.load_ensemble(dyn_dir)
    behavior = adm.load_ensemble(beh_dir)
    for path, ensemble, role in ((dyn_dir, dynamics, "dynamics"), (beh_dir, behavior, "behavior")):
        if ensemble.role != role:
            raise FormatError(f"{path}: holds the {ensemble.role!r} ensemble, expected {role!r}")
    if cfg.use_pruning and dynamics.k < 2:
        raise ConfigError(f"{dyn_dir}: use_pruning needs >= 2 dynamics members, found {dynamics.k}")
    q = None
    if cfg.use_max_q or cfg.use_value:
        _require(q_dir, "run `mopp train-q` first (or disable use_max_q/use_value)")
        q = value.load_q(q_dir)
    return planner.ModelBundle(dynamics=dynamics, behavior=behavior, q=q)


def _load_planner_inputs(cfg: RunConfig, out_dir: str, prunes: bool):
    """The models and the pruning threshold; returns (bundle, threshold, note on the threshold).

    ``prunes`` says whether a planner of the command prunes by the configured
    threshold. If none does, the threshold is not computed and ``inf`` stands
    in, and the dataset is not read.
    """
    dataset_path = _resolve(out_dir, cfg.dataset)
    calibrate = prunes and cfg.threshold is None
    if calibrate:
        _require(dataset_path, "run `mopp gen-data` first")
    bundle = _load_bundle(cfg, out_dir)
    if not prunes:
        return bundle, math.inf, "no planner prunes by the uncertainty threshold"
    if not calibrate:
        return bundle, cfg.threshold, f"uncertainty threshold {cfg.threshold:.6g} from the config"
    dyn_dir = _resolve(out_dir, cfg.dynamics_dir)
    threshold, how = _calibrated_threshold(out_dir, dataset_path, dyn_dir, bundle.dynamics)
    return bundle, threshold, f"uncertainty threshold {threshold:.6g} {how}"


def _calibrated_threshold(out_dir: str, dataset_path: str, dyn_dir: str, dynamics):
    """The `l = auto` threshold, computed once per dataset, dynamics checkpoint and code.

    ``<out>/calibration.txt`` stores it with a key over the dataset's bytes,
    the checkpoint's manifest and net files, and the code. A missing,
    unreadable, malformed or stale file is recomputed and rewritten: it holds
    derived data only. Returns (threshold, how it was obtained).
    """
    path = os.path.join(out_dir, CALIBRATION_FILE)
    key = _calibration_key(dataset_path, adm.ensemble_files(dyn_dir, dynamics.k, dynamics.output_dim))
    stored = _stored_threshold(path, key)
    if stored is not None:
        return stored, f"read from {path}"
    threshold = planner.uncertainty_threshold_from_data(dynamics, data.load_dataset(dataset_path))
    os.makedirs(out_dir, exist_ok=True)
    _write_text(path, f"threshold = {threshold!r}\nkey = {key}\n")
    return threshold, f"computed on the dataset, saved to {path}"


def _calibration_key(dataset_path: str, checkpoint_files) -> str:
    """SHA-256 over numpy's version and the code, dataset and checkpoint files, each framed by name and size."""
    h = hashlib.sha256(np.__version__.encode())
    for path in (*CALIBRATION_CODE, dataset_path, *checkpoint_files):
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError as err:
            raise FormatError(f"{path}: cannot read ({err.strerror})") from None
        h.update(f"\n{os.path.basename(path)} {len(blob)}\n".encode())
        h.update(blob)
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
    except (OSError, ValueError, MoppError):
        return None
    return threshold if threshold > 0 else None


def cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    os.makedirs(args.out, exist_ok=True)
    env = _make_env(cfg)
    policy = envs.scripted_policy(cfg.data_policy, env, seed=cfg.data_seed + 1)
    dataset = data.generate_dataset(env, policy, cfg.data_episodes, seed=cfg.data_seed)
    path = _resolve(args.out, cfg.dataset)
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
    with data.atomic_write(path, "w", encoding="utf-8", newline="\n") as f:
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
    """Plan each (planner config, seed, episode) job; returns, in job order, each result or the MoppError it raised.

    The jobs run on min(nn._workers, len(jobs)) processes. With one, they run
    here, one after another. Otherwise forked children share the loaded
    models: child p of P plans jobs p, p + P, ... with nn._workers // P pool
    workers and pipes each result back as it finishes. Forking is safe
    because the pool's threads are idle between maps and a forked child
    drops the pools (see nn). A child that dies ends the command with a
    MoppError naming the seed and episode it was planning, and every child
    is reaped on every path, the parent's own exceptions included.
    """

    def run(job):
        pcfg, seed, ep = job
        try:
            return planner.run_episode(_make_env(cfg), bundle, pcfg, constraints=constraints, seed=(seed, ep))
        except MoppError as err:
            return err

    procs = min(nn._workers, len(jobs))
    if procs < 2:
        return [run(job) for job in jobs]
    sys.stdout.flush()  # else a child that flushes writes the parent's buffered output a second time
    sys.stderr.flush()
    reads, pids, statuses = [], [], {}
    try:
        for p in range(procs):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _episode_child(run, jobs[p::procs], w, nn._workers // procs)
            finally:
                os.close(w)
            pids.append(pid)
        received = _read_to_end(reads)
        for pid in pids:
            statuses[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            if pid not in statuses:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    results = [None] * len(jobs)
    dead = []
    for p, (pid, blob) in enumerate(zip(pids, received)):
        stream = io.BytesIO(blob)
        for i in range(p, len(jobs), procs):
            try:
                results[i] = pickle.load(stream)
            except (EOFError, pickle.UnpicklingError):  # missing or cut short: the child died planning job i
                dead.append((i, statuses[pid]))
                break
    if dead:
        i, code = min(dead)
        _, seed, ep = jobs[i]
        how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
        raise MoppError(f"seed {seed} episode {ep}: the process planning it {how}")
    return results


def _episode_child(run, jobs, fd: int, workers: int) -> None:
    """Body of a forked child: pickle ``run(job)`` for each job to ``fd`` as it finishes, then exit without returning."""
    status = 1
    try:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C interrupts the parent, which kills its children
            nn._workers = workers
            with os.fdopen(fd, "wb") as f:
                for job in jobs:
                    pickle.dump(run(job), f, pickle.HIGHEST_PROTOCOL)
                    f.flush()
            status = 0
        except BaseException:  # reported, then the child exits non-zero below; it never unwinds into the parent's code
            traceback.print_exc()
            sys.stderr.flush()
    finally:
        os._exit(status)


def _read_to_end(fds) -> list:
    """Everything written to each of the pipes ``fds`` until every writer has closed it, read as it arrives."""
    received = {fd: bytearray() for fd in fds}
    open_fds = list(fds)
    while open_fds:
        ready, _, _ = select.select(open_fds, [], [])
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if chunk:
                received[fd] += chunk
            else:
                open_fds.remove(fd)
    return [bytes(received[fd]) for fd in fds]


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    bundle, threshold, note = _load_planner_inputs(cfg, args.out, prunes=cfg.use_pruning)
    pcfg = planner_config(cfg, threshold)
    _info(args, f"evaluating: {note}")

    rows = []
    per_seed = {}
    first_episode_diag = None
    jobs = [(pcfg, seed, ep) for seed in cfg.seeds for ep in range(cfg.episodes)]
    for (_, seed, ep), res in zip(jobs, _episodes(cfg, bundle, constraint_config(cfg), jobs)):
        if isinstance(res, MoppError):
            rows.append((seed, ep, "", "", "", "failed"))
            print(f"seed {seed} episode {ep} failed: {res}", file=sys.stderr)
            continue
        rows.append((seed, ep, float(res.ret), res.steps, res.violations, "ok"))
        per_seed.setdefault(seed, []).append(res)
        if first_episode_diag is None:
            first_episode_diag = planner.diagnostics_csv(res)
        _info(args, f"seed {seed} episode {ep}: return {res.ret:.2f} violations {res.violations}")
    failed = any(row[-1] == "failed" for row in rows)

    header = "seed,episode,return,steps,violations" + (",status" if failed else "")
    lines = [_format_row(row if failed else row[:-1]) for row in rows]
    if per_seed:
        fields = ("ret", "steps", "violations")
        means = np.array([[np.mean([getattr(r, f) for r in rs]) for f in fields] for rs in per_seed.values()])
        ret_mean, ret_std = float(means[:, 0].mean()), float(means[:, 0].std())
        steps_mean = float(means[:, 1].mean())
        viol_mean, viol_std = float(means[:, 2].mean()), float(means[:, 2].std())
        agg = [
            "aggregate",
            "",
            f"{ret_mean:.6f}±{ret_std:.6f}",
            f"{steps_mean:.6f}",
            f"{viol_mean:.6f}±{viol_std:.6f}",
        ]
        if failed:
            agg.append("partial")
        lines.append(",".join(agg))

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "results.csv")
    _write_text(out_path, header + "\n" + "\n".join(lines) + "\n")
    if first_episode_diag is not None:
        _write_text(os.path.join(args.out, "diagnostics.csv"), first_episode_diag)
    _info(args, f"wrote {out_path}")
    return 1 if failed else 0


def cmd_ablate(args) -> int:
    cfg = _load_run_config(args)
    # the l axis sets every cell's threshold; otherwise pruning cells read the configured one
    prunes = cfg.ablate_axis != "l" and any(
        ABLATE_VARIANTS[v].get("use_pruning", cfg.use_pruning) for v in cfg.ablate_variants
    )
    bundle, threshold, note = _load_planner_inputs(cfg, args.out, prunes)
    base = planner_config(cfg, threshold)
    constraints = constraint_config(cfg)
    _info(args, f"ablating {cfg.ablate_axis}: {note}")

    cells = [(axis_value, variant) for axis_value in cfg.ablate_values for variant in cfg.ablate_variants]
    runs = [(seed, ep) for seed in cfg.seeds for ep in range(cfg.episodes)]
    jobs = []
    for axis_value, variant in cells:
        pcfg = dataclasses.replace(base, **ablate_axis_field(cfg, axis_value), **ABLATE_VARIANTS[variant])
        jobs += [(pcfg, seed, ep) for seed, ep in runs]
    results = _episodes(cfg, bundle, constraints, jobs)

    lines = ["axis,value,variant,return_mean,return_std,violations_mean"]
    failed = False
    for c, (axis_value, variant) in enumerate(cells):
        rets, viols = [], []
        for res in results[c * len(runs) : (c + 1) * len(runs)]:
            if isinstance(res, MoppError):
                failed = True
                lines.append(f"{cfg.ablate_axis},{axis_value},{variant},,,")
                print(f"cell {axis_value}/{variant} failed: {res}", file=sys.stderr)
                break
            rets.append(res.ret)
            viols.append(res.violations)
        else:
            lines.append(
                f"{cfg.ablate_axis},{axis_value},{variant},"
                f"{np.mean(rets):.6f},{np.std(rets):.6f},{np.mean(viols):.6f}"
            )
            _info(args, f"{cfg.ablate_axis}={axis_value} {variant}: {np.mean(rets):.2f}")

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "ablation.csv")
    _write_text(out_path, "\n".join(lines) + "\n")
    _info(args, f"wrote {out_path}")
    return 1 if failed else 0


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
