"""Workloads of the mopp benchmark and the phases that measure them.

A run of a workload happens in one process, on the workload's own config.
It builds the pipeline's artefacts once (set-up 0), then repeats rounds
while another fits in --seconds (at least MIN_ROUNDS). Each round runs:

set-up    ``mopp gen-data``, ``train-dynamics``, ``train-behavior`` and
          ``train-q`` into a fresh directory; the artefacts must be
          byte-identical to set-up 0's;
train     one timed call each of ``adm.adm_train`` (dynamics, behavior) and
          ``value.fqe_train`` on the set-up dataset, at the workload's
          architecture and batch sizes and TRAIN_* step counts;
control   one closed-loop episode of CONTROL_STEPS steps through
          ``planner.run_episode`` on the set-up models, timing every
          ``planner.plan_step`` call;
evaluate  ``mopp evaluate`` (results.csv must match every earlier round's)
          and ``mopp ablate``, in-process on the set-up 0 artefacts, with
          every episode cut to EVAL_STEPS control steps.

Every timing is corrected for the shared host's speed (see hostclock.py):
a fixed probe runs before each timed operation and control step, and times
are scaled to a host on which the probe takes hostclock.REF_S. The report
line gives the uncorrected values too.

- setup_s is the median over all set-up repetitions (set-up 0 and one per
  round), so work moved into set-up shows;
- plan_step_ms_p50 and _p95 are percentiles over every control step;
- adm_*_steps_per_s, fqe_steps_per_s and control_steps_per_s (evaluate
  and ablate control steps) are work over time pooled across the rounds;
- pipeline_s is the median over rounds of set-up plus evaluate plus
  ablate: one pass through every CLI command.

All loops are closed: each operation starts when the one before it ends.
The seed reaches the program only as ``--seed`` and as episode seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from mopp import adm, cli, data, envs, nn, planner, value
from mopp.config import load_config

import tracing
from hostclock import HostClock

SETUP_COMMANDS = ("gen-data", "train-dynamics", "train-behavior", "train-q")
EVAL_COMMANDS = ("evaluate", "ablate")
MIN_ROUNDS = 4
CONTROL_STEPS = 50
# Episode seeds of the control phase and the held-out data sit apart from
# the ones the CLI uses, so no phase replays another's draws.
CONTROL_EPISODE_BASE = 1000
HELDOUT_SEED_OFFSET = 7919
HELDOUT_EPISODES = 2
# One timed training round: optimizer steps per member of each adm_train
# call, and (iterations, steps per iteration) of the fqe_train call.
TRAIN_ADM_STEPS = 6
TRAIN_FQE_SHAPE = (1, 20)
# Control steps per episode inside evaluate and ablate.
EVAL_STEPS = 4


# Workloads are mopp config files; seeds come from --seed. Both use the
# paper-default planner and network sizes: N=100, H=4, m=10, K_Q=10, 3+3
# members, a 500-wide embedding, (200, 100) heads and a 500x500 Q trunk, on
# the 20k-transition medium dataset. The set-up trains for a few steps only:
# planning cost does not depend on the weights. Most time goes to GEMMs in
# the ADM heads and the Q trunk.
SETUP_CONFIG = """\
[data]
policy = medium
episodes = 100
[adm]
steps = 5
[fqe]
iterations = 1
steps = 10
"""

# Plain point-mass task with every planner component on; evaluate runs two
# episodes per call, so batching across episodes can show.
PAPER_DEFAULT = SETUP_CONFIG + """\
[run]
episodes = 2
[ablate]
axis = sigma_m
values = 0.5
variants = noP
"""

# Constrained env with the rollout-penalty hook in pruning; the ablation runs
# the toggled planner paths (m=1 without max-Q, no pruning, no value tail),
# which shift the GEMM mix away from the Q trunk.
CONSTRAINED_DEFAULT = SETUP_CONFIG + """\
[run]
env = pointmass_constrained
episodes = 1
[constraint]
mode = velocity_rollout
[ablate]
axis = sigma_m
values = 0.5
variants = noMQ,noP,noV
"""

WORKLOADS = {"paper-default": PAPER_DEFAULT, "constrained-default": CONSTRAINED_DEFAULT}


class Ops:
    """Attempted operations (commands, episodes, training runs) and their failed checks."""

    def __init__(self):
        self.problems = {}

    def add(self, name: str, problems=()) -> None:
        self.problems.setdefault(name, []).extend(problems)
        for problem in problems:
            print(f"check failed: {name}: {problem}", file=sys.stderr, flush=True)

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def _more(start: float, budget: float, done: int) -> bool:
    """Whether one more round, at the mean cost so far, fits in the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= budget


def run_cli(command: str, cfg_path: str, out: str, seed: int, clock: HostClock):
    """Run one mopp command in-process; returns (Interval, problem or None)."""
    argv = [command, "--config", cfg_path, "--out", out, "--seed", str(seed), "--quiet"]
    mark = clock.start()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as err:  # a crashed command is a failed operation
        traceback.print_exc()
        code = repr(err)
    return clock.stop(mark), None if code == 0 else f"exit {code}"


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, filenames in os.walk(root)
        for name in filenames
    )


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Temporarily replace ``owner.attr`` with ``make(original)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def short_episodes(steps: int):
    """Cut every environment made through ``envs.make_env`` to ``steps`` control steps."""

    def make(original):
        def make_env(*args, **kwargs):
            env = original(*args, **kwargs)
            env.spec = dataclasses.replace(env.spec, max_steps=steps)
            return env

        return make_env

    return patched(envs, "make_env", make)


def probing(clock: HostClock):
    """Probe the host's speed before every ``planner.plan_step`` call."""

    def make(original):
        def plan_step(*args, **kwargs):
            clock.probe()
            return original(*args, **kwargs)

        return plan_step

    return patched(planner, "plan_step", make)


class StepTimer:
    """Times every ``planner.plan_step`` call while installed, each after a probe.

    With a tracer, tracing is switched on for even-numbered steps only, so
    traced and untraced steps of the same episodes give the tracing overhead.
    """

    def __init__(self, clock: HostClock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.intervals = []
        self.traced = []

    @property
    def seconds(self):
        return [iv.seconds for iv in self.intervals]

    def installed(self):
        def make(original):
            def plan_step(*args, **kwargs):
                traced = self.tracer is not None and len(self.intervals) % 2 == 0
                if self.tracer is not None:
                    was, self.tracer.enabled = self.tracer.enabled, traced
                mark = self.clock.start()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.intervals.append(self.clock.stop(mark))
                    self.traced.append(traced)
                    if self.tracer is not None:
                        self.tracer.enabled = was

            return plan_step

        return patched(planner, "plan_step", make)


def setup_rep(cfg_path: str, out: str, seed: int, rep: int, ops: Ops, clock: HostClock, cli_times: dict):
    """Build the workload's artefacts into ``out``; returns (Interval, artefact digest)."""
    mark = clock.start()
    for command in SETUP_COMMANDS:
        iv, problem = run_cli(command, cfg_path, out, seed, clock)
        cli_times.setdefault(command, []).append(iv.seconds)
        ops.add(f"set-up {rep}: mopp {command}", [problem] if problem else [])
    return clock.stop(mark), tree_digest(out)


def load_models(cfg, out: str):
    dataset = data.load_dataset(os.path.join(out, cfg.dataset))
    bundle = planner.ModelBundle(
        dynamics=adm.load_ensemble(os.path.join(out, cfg.dynamics_dir)),
        behavior=adm.load_ensemble(os.path.join(out, cfg.behavior_dir)),
        q=value.load_q(os.path.join(out, cfg.q_dir)),
    )
    return dataset, bundle


def planner_setup(cfg, bundle, dataset):
    """PlannerConfig and constraint hooks for the workload, as ``mopp evaluate`` builds them."""
    threshold = cfg.threshold
    if threshold is None:
        threshold = max(planner.uncertainty_threshold_from_data(bundle.dynamics, dataset, 85.0), 1e-12)
    pcfg = planner.PlannerConfig(
        horizon=cfg.horizon,
        kappa=cfg.kappa,
        beta=cfg.beta,
        uncertainty_threshold=threshold,
        sigma_scale=cfg.sigma_m,
        n_rollouts=cfg.n_rollouts,
        n_min=cfg.n_min,
        candidates=cfg.candidates,
        value_samples=cfg.k_q,
        use_max_q=cfg.use_max_q,
        use_pruning=cfg.use_pruning,
        use_value=cfg.use_value,
    )
    if cfg.constraint == "velocity_rollout":
        cap = cfg.v_cap if cfg.v_cap is not None else envs.DEFAULT_V_CAP
        penalty = envs.velocity_rollout_penalty(v_cap=cap, weight=cfg.constraint_weight)
        return pcfg, planner.ConstraintConfig(rollout_penalty=penalty)
    if cfg.constraint != "none":
        raise ValueError(f"no workload uses constraint mode {cfg.constraint!r}")
    return pcfg, planner.ConstraintConfig()


def heldout_error(cfg, dynamics, seed: int) -> float:
    """RMSE, in normalized units, of the ensemble-mean mode prediction on fresh episodes."""
    env = envs.make_env(cfg.env, v_cap=cfg.v_cap)
    policy = envs.scripted_policy(cfg.data_policy, env, seed=seed + HELDOUT_SEED_OFFSET)
    ds = data.generate_dataset(env, policy, HELDOUT_EPISODES, seed=seed + HELDOUT_SEED_OFFSET)
    pred = adm.dynamics_mode_all(dynamics, ds.states, ds.actions).mean(axis=0)
    target = np.concatenate([ds.rewards[:, None], ds.next_states], axis=1)
    target = (target - dynamics.stats.o_mean) / dynamics.stats.o_std
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def train_round(cfg, dataset, seed: int, rnd: int, ops: Ops, clock: HostClock, rates: dict) -> None:
    """One timed call of each training entry point; appends (optimizer steps, Interval)."""
    for role, members in (("dynamics", cfg.k1), ("behavior", cfg.k2)):
        acfg = adm.AdmConfig(
            members=members,
            steps=TRAIN_ADM_STEPS,
            batch_size=cfg.adm_batch,
            learning_rate=cfg.adm_lr,
            embed_width=cfg.adm_embed,
            head_hidden=cfg.adm_head_hidden,
            activation=cfg.adm_activation,
        )
        name = f"round {rnd}: adm_train {role}"
        mark = clock.start()
        try:
            adm.adm_train(dataset, role, acfg, seed=seed)
        except Exception as err:  # a failed training run is counted, not fatal
            ops.add(name, [repr(err)])
            continue
        rates[f"adm_{role}"].append((members * TRAIN_ADM_STEPS, clock.stop(mark)))
        ops.add(name)
    iterations, steps = TRAIN_FQE_SHAPE
    fcfg = value.FqeConfig(
        gamma=cfg.fqe_gamma,
        iterations=iterations,
        steps_per_iteration=steps,
        batch_size=cfg.fqe_batch,
        learning_rate=cfg.fqe_lr,
        hidden=cfg.fqe_hidden,
    )
    name = f"round {rnd}: fqe_train"
    mark = clock.start()
    try:
        q = value.fqe_train(dataset, fcfg, seed=seed)
    except Exception as err:
        ops.add(name, [repr(err)])
        return
    rates["fqe"].append((iterations * steps, clock.stop(mark)))
    ops.add(name, [] if np.all(np.isfinite(q.iteration_deltas)) else ["non-finite iteration deltas"])


def control_round(cfg, bundle, pcfg, constraints, seed, rnd, ops, timer: StepTimer, control: dict) -> None:
    """One closed-loop episode of CONTROL_STEPS steps with every plan_step call timed."""
    env = envs.make_env(cfg.env, v_cap=cfg.v_cap)
    env.spec = dataclasses.replace(env.spec, max_steps=CONTROL_STEPS)
    name = f"round {rnd}: control episode"
    timed_before = len(timer.seconds)
    try:
        with timer.installed():
            res = planner.run_episode(
                env, bundle, pcfg, constraints=constraints, seed=(seed, CONTROL_EPISODE_BASE + rnd)
            )
    except Exception as err:  # a failed episode is counted, not fatal
        ops.add(name, [repr(err)])
        return
    kept = [d.surviving for d in res.diagnostics]
    timed = len(timer.seconds) - timed_before
    problems = []
    if not math.isfinite(res.ret):
        problems.append(f"non-finite return {res.ret}")
    if res.steps != CONTROL_STEPS or timed != res.steps:
        problems.append(f"{res.steps} steps, {timed} timed plan_step calls")
    floor = pcfg.n_min if pcfg.use_pruning else pcfg.n_rollouts
    if min(kept) < floor:
        problems.append(f"survivors {min(kept)} below {floor}")
    ops.add(name, problems)
    control["returns"].append(res.ret)
    control["survivors"].extend(kept)


def _results_problems(text: str, episodes: int, steps: int) -> list:
    lines = text.strip().split("\n")
    if lines[0] != "seed,episode,return,steps,violations":
        return [f"results.csv header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("aggregate")]
    problems = []
    if len(rows) != episodes:
        problems.append(f"{len(rows)} episode rows, expected {episodes}")
    for row in rows:
        if int(row[3]) != steps or not math.isfinite(float(row[2])):
            problems.append(f"episode row {','.join(row)}")
    return problems


def _ablation_problems(text: str, cells: int) -> list:
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    problems = [] if len(rows) == cells else [f"{len(rows)} ablation rows, expected {cells}"]
    for row in rows:
        if row[3] == "" or not math.isfinite(float(row[3])):
            problems.append(f"ablation row {','.join(row)}")
    return problems


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError:
        return ""


def evaluate_round(cfg, cfg_path, out, seed, rnd, ops, clock: HostClock, cli_times, evals: dict) -> list:
    """``mopp evaluate`` then ``mopp ablate``; results.csv must match every earlier round's.

    Returns the two commands' Intervals; the host is probed before every control step.
    """
    episodes = cfg.episodes  # --seed leaves a single seed
    cells = len(cfg.ablate_values) * len(cfg.ablate_variants)
    intervals, steps = [], 0
    with short_episodes(EVAL_STEPS), probing(clock):
        for command in EVAL_COMMANDS:
            iv, problem = run_cli(command, cfg_path, out, seed, clock)
            cli_times.setdefault(command, []).append(iv.seconds)
            intervals.append(iv)
            problems = [problem] if problem else []
            if command == "evaluate":
                results = _read(os.path.join(out, "results.csv"))
                problems += _results_problems(results, episodes, EVAL_STEPS)
                evals.setdefault("results_csv", results)
                if results != evals["results_csv"]:
                    problems.append("results.csv differs from the first evaluate run")
                steps += episodes * EVAL_STEPS
            else:
                problems += _ablation_problems(_read(os.path.join(out, "ablation.csv")), cells)
                steps += cells * episodes * EVAL_STEPS
            ops.add(f"round {rnd}: mopp {command}", problems)
    evals["steps"].append((steps, intervals))
    return intervals


def pooled_rate(samples, seconds) -> float:
    """Work per second over all rounds, from (work, timing) samples and a timing -> seconds map."""
    return sum(w for w, _ in samples) / sum(seconds(t) for _, t in samples)


def run(workload: str, seed: int, seconds: float, work: str, peak_gflops: float, tracer=None):
    """Run ``workload``: set-up 0, then rounds of set-up, train, control and evaluate.

    Rounds repeat while another fits in ``seconds`` (at least MIN_ROUNDS),
    so the samples of every metric spread over the whole run. Returns (ops,
    metrics, report); ``metrics`` maps name -> (value, unit): the end-to-end
    metrics, or with a tracer the per-layer metrics of the traced run.
    """
    ops = Ops()
    clock = HostClock()
    cli_times = {}
    roles = tracing.NetRoles()
    if tracer is not None:
        install_tracer(tracer, roles)
        tracer.enabled = True
    cfg_path = os.path.join(work, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.write(WORKLOADS[workload])

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    phase("setup")
    out = os.path.join(work, "setup0")
    setup_iv, digest = setup_rep(cfg_path, out, seed, 0, ops, clock, cli_times)
    setups = [setup_iv]
    cfg = load_config(cfg_path)
    dataset, bundle = load_models(cfg, out)
    pcfg, constraints = planner_setup(cfg, bundle, dataset)
    model_rmse = heldout_error(cfg, bundle.dynamics, seed)

    rates = {"adm_dynamics": [], "adm_behavior": [], "fqe": []}
    control = {"returns": [], "survivors": []}
    evals = {"steps": []}
    passes = []
    timer = StepTimer(clock, tracer)
    start, rnd = time.perf_counter(), 0
    while rnd < MIN_ROUNDS or _more(start, seconds, rnd):
        phase("setup")
        rep_out = os.path.join(work, f"setup{rnd + 1}")
        setup_iv, rep_digest = setup_rep(cfg_path, rep_out, seed, rnd + 1, ops, clock, cli_times)
        shutil.rmtree(rep_out, ignore_errors=True)
        setups.append(setup_iv)
        if rep_digest != digest:
            ops.add(f"set-up {rnd + 1}: artefacts", ["differ from set-up 0"])
        phase("train")
        train_round(cfg, dataset, seed, rnd, ops, clock, rates)
        phase("control")
        control_round(cfg, bundle, pcfg, constraints, seed, rnd, ops, timer, control)
        phase("evaluate")
        passes.append([setup_iv] + evaluate_round(cfg, cfg_path, out, seed, rnd, ops, clock, cli_times, evals))
        rnd += 1
    clock.probe()  # so the last operation has a probe after it too
    if tracer is not None:
        tracer.enabled = False
        tracer.restore()

    report = {
        "rounds": rnd,
        "control_returns": control["returns"],
        "heldout_model_rmse": model_rmse,
        "uncertainty_threshold": pcfg.uncertainty_threshold,
        "plan_step_samples": len(timer.intervals),
        "probe_ms": {
            "samples": len(clock.took),
            "min": 1e3 * min(clock.took),
            "median": 1e3 * statistics.median(clock.took),
            "max": 1e3 * max(clock.took),
        },
        "cli_seconds": cli_times,
    }
    if tracer is not None:
        metrics = traced_metrics(tracer, timer, cli_times, control["survivors"], pcfg, peak_gflops)
        report["untraced_layers"] = tracer.missing
        report["expected_plan_counts"] = expected_plan_counts(pcfg, bundle)
        return ops, metrics, report

    def timings(seconds):
        """The end-to-end timings, with ``seconds`` mapping an Interval to seconds."""
        ms = np.array([seconds(iv) for iv in timer.intervals]) * 1e3
        return {
            "setup_s": (statistics.median(seconds(iv) for iv in setups), "s"),
            "plan_step_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "plan_step_ms_p95": (float(np.percentile(ms, 95)), "ms"),
            "control_steps_per_s": (
                pooled_rate(evals["steps"], lambda ivs: sum(seconds(iv) for iv in ivs)),
                "1/s",
            ),
            "adm_dynamics_steps_per_s": (pooled_rate(rates["adm_dynamics"], seconds), "1/s"),
            "adm_behavior_steps_per_s": (pooled_rate(rates["adm_behavior"], seconds), "1/s"),
            "fqe_steps_per_s": (pooled_rate(rates["fqe"], seconds), "1/s"),
            "pipeline_s": (statistics.median(sum(seconds(iv) for iv in ivs) for ivs in passes), "s"),
        }

    report["uncorrected"] = {name: v for name, (v, _) in timings(lambda iv: iv.seconds).items()}
    return ops, timings(clock.corrected), report


def install_tracer(tracer, roles) -> None:
    """Wrap the public layer functions of mopp at their module or class attributes."""

    def rows(x) -> int:
        return len(x) if np.ndim(x) == 2 else 1

    def forward_size(args, result):
        n = rows(args[1])
        return n, tracing.dense_flops(args[0].layer_sizes, n)

    def backward_size(args, result):
        n = rows(args[2])
        return n, 2 * tracing.dense_flops(args[0].layer_sizes, n)

    def batch_size(args, result):
        return rows(args[1]), 0

    def register_bundle(args):
        roles.register(args[1])

    wrap = tracer.wrap
    wrap(nn, "forward", "nn.forward", tag=lambda a: roles.role(a[0]), size=forward_size)
    wrap(nn, "forward_cached", "nn.forward_cached", size=forward_size)
    wrap(nn, "backward", "nn.backward", size=backward_size)
    wrap(nn, "adam_update", "nn.adam_update")
    wrap(adm, "adm_train", "adm.adm_train", tag=lambda a: f"adm_{a[1]}")
    wrap(adm, "dynamics_mode_all", "adm.dynamics_mode_all", size=batch_size)
    wrap(adm, "behavior_action_distribution_batch", "adm.behavior_action_distribution_batch", size=batch_size)
    wrap(adm.AdmModel, "sample_normalized", "adm.AdmModel.sample_normalized", size=batch_size)
    wrap(adm, "save_ensemble", "adm.save_ensemble", size=lambda a, r: (tree_bytes(a[1]), 0))
    wrap(adm, "load_ensemble", "adm.load_ensemble")
    wrap(value, "fqe_train", "value.fqe_train", tag=lambda a: "fqe")
    wrap(value.QNetwork, "values", "value.QNetwork.values", size=batch_size)
    wrap(value.QNetwork, "values_flat", "value.QNetwork.values_flat", size=batch_size)
    wrap(value, "save_q", "value.save_q", size=lambda a, r: (tree_bytes(a[1]), 0))
    wrap(value, "load_q", "value.load_q")
    wrap(planner, "run_episode", "planner.run_episode", tag=register_bundle)
    wrap(planner, "plan_step", tracing.PLAN_STEP)
    wrap(planner, "prune_indices", "planner.prune_indices")
    wrap(planner, "mppi_update", "planner.mppi_update")
    wrap(envs.PointMassEnv, "step", "envs.PointMassEnv.step")
    wrap(data, "generate_dataset", "data.generate_dataset", size=lambda a, r: (len(r), 0))
    wrap(data, "save_dataset", "data.save_dataset", size=lambda a, r: (os.path.getsize(a[1]), 0))
    wrap(data, "load_dataset", "data.load_dataset")
    wrap(cli, "load_config", "cli.load_config")


def expected_plan_counts(pcfg, bundle) -> dict:
    """nn.forward calls per plan_step under the current rollout layout, if no rollout dies.

    Per horizon step: one embed + |A| heads per behavior member group, a Q
    call per group when max-Q selection is on, and one embed + (1 + |S|)
    heads per dynamics member; the value tail adds one group pass per
    behavior member.
    """
    k1, k2, h = bundle.dynamics.k, bundle.behavior.k, pcfg.horizon
    a_dim, o_dim = bundle.behavior.output_dim, bundle.dynamics.output_dim
    q_groups = k2 if pcfg.use_max_q and pcfg.candidates > 1 else 0
    tail = k2 if pcfg.use_value else 0
    return {
        "adm_embed": h * (k2 + k1) + tail,
        "adm_head": h * (k2 * a_dim + k1 * o_dim) + tail * a_dim,
        "q_trunk": h * q_groups + tail,
    }


def traced_metrics(tracer, timer: StepTimer, cli_times: dict, survivors, pcfg, peak_gflops) -> dict:
    sp = tracer.spans()
    metrics = {}
    metrics.update(tracing.plan_layer_metrics(sp.only("control"), peak_gflops))
    metrics.update(tracing.train_layer_metrics(sp.only("train")))
    metrics.update(tracing.io_layer_metrics(sp))
    for command in SETUP_COMMANDS + ("evaluate", "ablate"):
        metrics[f"cli.{command.replace('-', '_')}_s"] = (statistics.mean(cli_times[command]), "s")
    kept = np.array(survivors, dtype=np.float64)
    metrics["planner.survivor_ratio"] = (float(kept.mean() / pcfg.n_rollouts), "ratio")
    metrics["planner.backfill_frac"] = (float(np.mean(kept == pcfg.n_min)), "ratio")
    seconds = np.array(timer.seconds) * 1e3
    traced = np.array(timer.traced)
    on, off = float(np.median(seconds[traced])), float(np.median(seconds[~traced]))
    metrics["trace.plan_step_ms_p50_traced"] = (on, "ms")
    metrics["trace.plan_step_ms_p50_untraced"] = (off, "ms")
    metrics["trace.overhead_frac"] = ((on - off) / off, "ratio")
    metrics["nn.sgemm_peak_gflops"] = (peak_gflops, "GFLOP/s")
    return metrics


def sgemm_peak(m: int = 1000, k: int = 500, n: int = 500, repeats: int = 20):
    """Best float32 GEMM rate (GFLOP/s) over ``repeats`` timed (m,k)@(k,n) products."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * m * k * n / best / 1e9, f"{m}x{k}x{n}"
