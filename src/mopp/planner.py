"""Offline planning loop: guided rollouts, trajectory pruning, MPPI re-weighting.

Each control step shoots N model rollouts whose actions are sampled from the
learned behavior policy with rescaled stds and optionally picked by highest
behavioral Q-value, discards rollouts that hit high ensemble disagreement,
and averages the survivors' action sequences with exponentiated-return
weights. Only the first action of the updated plan is executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import adm, nn
from .adm import AdmEnsemble
from .data import Dataset
from .errors import ConfigError
from .value import QNetwork

SIGMA_EPS = 1e-6


@dataclass
class PlannerConfig:
    horizon: int = 4
    kappa: float = 3.0
    beta: float = 0.0
    uncertainty_threshold: float = 1.0
    sigma_scale: float = 0.5
    n_rollouts: int = 100
    n_min: Optional[int] = None
    candidates: int = 10
    value_samples: int = 10
    use_max_q: bool = True
    use_pruning: bool = True
    use_value: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if not 0 < self.kappa < math.inf:
            raise ConfigError("re-weighting factor must be positive and finite")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("mixture coefficient must lie in [0, 1]")
        if not self.uncertainty_threshold > 0:
            raise ConfigError("uncertainty threshold must be positive")
        if not 0 < self.sigma_scale < math.inf:
            raise ConfigError("std scaling parameter must be positive and finite")
        if self.n_rollouts < 1:
            raise ConfigError("need at least one rollout")
        if self.candidates < 1 or self.value_samples < 1:
            raise ConfigError("candidate and value-sample counts must be positive")
        if self.candidates == 1:  # one candidate leaves nothing to select, so no Q is read for it
            self.use_max_q = False
        if self.n_min is None:
            self.n_min = max(1, int(0.2 * self.n_rollouts))
        if not 1 <= self.n_min <= self.n_rollouts:
            raise ConfigError(
                f"minimum surviving count {self.n_min} must lie in [1, {self.n_rollouts}]"
            )


@dataclass
class ConstraintConfig:
    """Optional planning-time hooks: reward reshaping and pruning penalties.

    Both callables are batch-wise: states (n, |S|), actions (n, |A|); the
    reward transform also takes rewards (n,). The rollout penalty must be
    non-negative.
    """

    reward_transform: Optional[Callable] = None
    rollout_penalty: Optional[Callable] = None


NO_CONSTRAINTS = ConstraintConfig()


@dataclass
class ModelBundle:
    dynamics: AdmEnsemble
    behavior: AdmEnsemble
    q: Optional[QNetwork] = None


@dataclass
class StepDiagnostics:
    return_mean: float
    return_max: float
    surviving: int
    u_mean: float
    u_max: float


@dataclass
class EpisodeResult:
    ret: float
    steps: int
    violations: int
    diagnostics: list
    violation_flags: list = field(default_factory=list)


def initial_plan(horizon: int, action_dim: int) -> np.ndarray:
    """Zero action plan, per the planner's cold-start convention."""
    return np.zeros((horizon, action_dim), dtype=np.float32)


def scale_std(sigma, sigma_scale: float):
    """Rescale stds so their maximum equals ``sigma_scale``, preserving ratios.

    A 2-D array is rescaled row by row. Degenerate all-but-zero rows (max
    below 1e-6) map to a constant ``sigma_scale`` row.
    """
    if sigma_scale <= 0:
        raise ConfigError("std scaling parameter must be positive")
    sigma = np.asarray(sigma)
    top = sigma.max(axis=-1, keepdims=True)
    out = np.where(top < SIGMA_EPS, sigma_scale, sigma * (sigma_scale / np.maximum(top, SIGMA_EPS)))
    return out.astype(np.float64)


def _guided_actions(states, members, member_idx, q, config, eps):
    """Guided actions for a batch; row r samples from ``members[member_idx[r]]``.

    eps: (n, m, |A|) pre-drawn normals. Each member computes its rows'
    candidate means and stds; Q does not depend on the member, so one Q call
    scores the candidates of every row.
    """
    n, m, a_dim = eps.shape
    states = np.asarray(states, dtype=np.float32)
    cands = np.empty(eps.shape)

    def member_cands(k):
        rows = np.flatnonzero(member_idx == k)
        if rows.size:
            mu, sigma = adm.behavior_action_distribution_batch(members[k], states[rows])
            sigma = scale_std(sigma, config.sigma_scale)
            cands[rows] = mu[:, None, :] + sigma[:, None, :] * eps[rows]

    nn._pool_map(member_cands, range(len(members)), members[0].macs(n // len(members)))
    if not config.use_max_q:
        return cands[:, 0, :].astype(np.float32)
    qv = q.values(np.repeat(states, m, axis=0), cands.reshape(n * m, a_dim)).reshape(n, m)
    best = np.argmax(qv, axis=1)
    return cands[np.arange(n), best].astype(np.float32)


def _rollout_batch(
    start_states: np.ndarray,
    bundle: ModelBundle,
    plan: np.ndarray,
    config: PlannerConfig,
    constraints: ConstraintConfig,
    rng,
):
    """Roll ``len(start_states)`` trajectories in lockstep through the frozen models.

    The first stage of a plan step (roll out, prune, value tail, MPPI; see
    :func:`plan_step`). Draws from ``rng``, one array each and in this
    order: behavior members (N, H), candidate normals (N, H, m, |A|) with
    m = 1 when max-Q selection is off, and dynamics members (N, H). The
    value tail's draws follow in :func:`plan_step`, from the same Generator.

    Returns (actions (n,H,|A|), model returns (n,), uncertainty (n,H),
    final states (n,|S|), alive (n,)). Rollouts that produce a non-finite
    quantity are frozen in place, marked not alive, and carry infinite
    uncertainty from that step on; their returns stay finite.
    """
    n = len(start_states)
    h = config.horizon
    a_dim = bundle.behavior.output_dim
    plan = np.asarray(plan, dtype=np.float32)
    if plan.shape != (h, a_dim):
        raise ValueError(
            f"plan shape {plan.shape} does not match (horizon, action dim) ({h}, {a_dim})"
        )
    b_members = rng.integers(bundle.behavior.k, size=(n, h))
    m = config.candidates if config.use_max_q else 1
    cand_eps = rng.standard_normal((n, h, m, a_dim))
    d_members = rng.integers(bundle.dynamics.k, size=(n, h))

    actions = np.zeros((n, h, a_dim), dtype=np.float32)
    returns = np.zeros(n, dtype=np.float64)
    uncertainty = np.zeros((n, h), dtype=np.float64)
    alive = np.ones(n, dtype=bool)

    current = np.array(start_states, dtype=np.float32)
    for t in range(h):
        a_hat = np.zeros((n, a_dim), dtype=np.float32)
        live = np.flatnonzero(alive)
        if live.size:
            a_hat[live] = _guided_actions(
                current[live], bundle.behavior.members, b_members[live, t], bundle.q, config,
                cand_eps[live, t],
            )
        prev = plan[t + 1] if t + 1 < h else plan[h - 1]
        a_mix = ((1.0 - config.beta) * a_hat + config.beta * prev).astype(np.float32)
        bad = ~np.isfinite(a_mix).all(axis=1)
        if bad.any():
            a_mix[bad] = 0.0
            alive &= ~bad
        actions[:, t] = a_mix
        uncertainty[~alive, t] = np.inf

        live = np.flatnonzero(alive)
        if live.size:
            preds_n = adm.dynamics_mode_all(bundle.dynamics, current[live], a_mix[live])
            disc_t = adm.disc_from_predictions(preds_n)
            preds = (
                preds_n * bundle.dynamics.stats.o_std + bundle.dynamics.stats.o_mean
            )
            reward = preds[:, :, 0].mean(axis=0)
            if constraints.reward_transform is not None:
                reward = np.asarray(
                    constraints.reward_transform(current[live], a_mix[live], reward),
                    dtype=np.float64,
                )
            next_states = preds[d_members[live, t], np.arange(live.size), 1:]
            u_row = disc_t
            if constraints.rollout_penalty is not None:
                u_row = u_row + np.asarray(
                    constraints.rollout_penalty(current[live], a_mix[live]), dtype=np.float64
                )
            ok = (
                np.isfinite(next_states).all(axis=1)
                & np.isfinite(reward)
                & np.isfinite(u_row)
            )
            uncertainty[live, t] = np.where(ok, u_row, np.inf)
            returns[live[ok]] += reward[ok]
            current[live[ok]] = next_states[ok].astype(np.float32)
            alive[live[~ok]] = False
    return actions, returns, uncertainty, current, alive


def _value_tail(states, behavior: AdmEnsemble, q: QNetwork, members, eps) -> np.ndarray:
    """MBOP's horizon value per row of ``states``: mean Q over K_Q behavior samples.

    Row r samples its K_Q actions from ``behavior.members[members[r]]`` under
    normals ``eps[r]`` (K_Q, |A|); the samples of one state share its
    embedding and head-0 pass, and one Q call scores all of them. A
    non-finite mean counts as 0.
    """
    n, k_q, a_dim = eps.shape
    sampled = np.empty((n, k_q, a_dim), dtype=np.float32)

    def member_samples(k):
        member, rows = behavior.members[k], np.flatnonzero(members == k)
        if rows.size:
            x_n = member.normalize_x(states[rows])
            sampled[rows] = member.denormalize_o(
                member.sample_normalized(x_n, eps[rows].reshape(rows.size * k_q, a_dim), repeats=k_q)
            ).reshape(rows.size, k_q, a_dim)

    nn._pool_map(member_samples, range(behavior.k), behavior.members[0].macs(n * k_q // behavior.k))
    v = q.values(np.repeat(states, k_q, axis=0), sampled.reshape(-1, a_dim)).reshape(n, k_q).mean(axis=1)
    return np.where(np.isfinite(v), v, 0.0)


def prune_indices(u: np.ndarray, threshold: float, n_min: int) -> np.ndarray:
    """Indices of trajectories kept by the pruning rule, in ascending order.

    Keeps every trajectory whose uncertainty stays below the threshold at all
    steps; if fewer than ``n_min`` qualify, backfills with the lowest
    cumulative-uncertainty rejects (ties toward the lower index).
    """
    u = np.asarray(u)
    n = u.shape[0]
    if n < 1:
        raise ConfigError("need at least one trajectory")
    if not 1 <= n_min <= n:
        raise ConfigError(f"minimum count {n_min} out of range for {n} trajectories")
    under = np.all(u < threshold, axis=1)
    kept = np.flatnonzero(under)
    if kept.size >= n_min:
        return kept
    rejected = np.flatnonzero(~under)
    totals = u[rejected].sum(axis=1)
    order = np.lexsort((rejected, totals))
    extra = rejected[order[: n_min - kept.size]]
    return np.sort(np.concatenate([kept, extra]))


def mppi_update(actions, returns, kappa: float) -> np.ndarray:
    """Per-step average of (n, H, |A|) action sequences weighted by exponentiated returns.

    The max return is subtracted inside the exponent for numerical
    stability, which leaves the weights unchanged.
    """
    acts = np.asarray(actions, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    if acts.shape[0] == 0:
        raise ValueError("empty trajectory set")
    if returns.shape[0] != acts.shape[0]:
        raise ValueError("returns and action sequences disagree in length")
    w = np.exp(kappa * (returns - returns.max()))
    w /= w.sum()
    return np.einsum("n,nha->ha", w, acts).astype(np.float32)


def _seed_key(seed) -> tuple:
    """An int or a tuple/list of ints as a tuple of ints, the key of a Generator."""
    return tuple(int(v) for v in (seed if isinstance(seed, (tuple, list)) else (seed,)))


def plan_step(
    state,
    bundle: ModelBundle,
    config: PlannerConfig,
    constraints: ConstraintConfig,
    plan: np.ndarray,
    seed,
):
    """One MPC step: roll out N rollouts, prune, add the value tail, re-weight with MPPI.

    The value tail (MBOP's horizon value) runs only on the rollouts kept by
    pruning that are still alive, the only returns MPPI reads.

    ``seed`` (an int or tuple of ints) determines every random draw: one
    Generator keyed by the seed draws each random quantity of all N
    rollouts as one array, so results do not depend on the order in which
    rollouts are evaluated. The rollout draws come first (see
    :func:`_rollout_batch`); with the value bonus on, value members (N,)
    and value normals (N, K_Q, |A|) follow. They are drawn for all N
    rollouts, the same layout as a tail over every rollout, so a kept
    rollout's bonus does not depend on which others were pruned.
    Diagnostics report the return mean/max over the kept rollouts.
    Returns (action, updated plan, diagnostics). Max-Q selection and the
    value tail need ``bundle.q``; a ConfigError names the toggle without it.
    """
    for toggle in ("use_max_q", "use_value"):
        if getattr(config, toggle) and bundle.q is None:
            raise ConfigError(f"{toggle} needs a Q network, but the model bundle has none")
    n = config.n_rollouts
    starts = np.broadcast_to(np.asarray(state, dtype=np.float32), (n, len(state)))
    rng = np.random.default_rng(_seed_key(seed))
    actions, returns, u, final, alive = _rollout_batch(starts, bundle, plan, config, constraints, rng)
    if config.use_pruning:
        keep = prune_indices(u, config.uncertainty_threshold, config.n_min)
    else:
        keep = np.arange(n)
    if config.use_value:
        v_members = rng.integers(bundle.behavior.k, size=n)
        v_eps = rng.standard_normal((n, config.value_samples, bundle.behavior.output_dim))
        rows = keep[alive[keep]]
        if rows.size:
            returns[rows] += _value_tail(final[rows], bundle.behavior, bundle.q, v_members[rows], v_eps[rows])
    kept_returns = returns[keep]
    new_plan = mppi_update(actions[keep], kept_returns, config.kappa)
    finite_u = u[np.isfinite(u)]
    diag = StepDiagnostics(
        return_mean=float(kept_returns.mean()),
        return_max=float(kept_returns.max()),
        surviving=int(keep.size),
        u_mean=float(finite_u.mean()) if finite_u.size else math.inf,
        u_max=float(u.max()),
    )
    return new_plan[0].copy(), new_plan, diag


def check_models(bundle: ModelBundle, config: PlannerConfig, spec, sources=None) -> None:
    """Raise a ConfigError naming the first model of ``bundle`` that cannot plan ``config`` in an env of ``spec``.

    Widths must fit the env's (a Q's if the config reads it), and pruning needs
    >= 2 dynamics members. ``sources[field]``, if given, starts a message on that ModelBundle field.
    """
    where = {field: f"{source}: " for field, source in (sources or {}).items()}
    s_dim, a_dim = spec.state_dim, spec.action_dim
    widths = [
        ("dynamics", "dynamics model", "input", bundle.dynamics.input_dim, "|S|+|A|", s_dim + a_dim),
        ("dynamics", "dynamics model", "output", bundle.dynamics.output_dim, "|S|+1", s_dim + 1),
        ("behavior", "behavior model", "input", bundle.behavior.input_dim, "|S|", s_dim),
        ("behavior", "behavior model", "output", bundle.behavior.output_dim, "|A|", a_dim),
    ]
    if (config.use_max_q or config.use_value) and bundle.q is not None:
        widths.append(("q", "Q network", "input", bundle.q.input_dim, "|S|+|A|", s_dim + a_dim))
    for field, model, side, width, name, want in widths:
        if width != want:
            message = f"the {model} has {side} width {width}, but the environment's {name} = {want}"
            raise ConfigError(where.get(field, "") + message)
    if config.use_pruning and bundle.dynamics.k < 2:
        message = f"use_pruning needs >= 2 dynamics members to measure disagreement, found {bundle.dynamics.k}"
        raise ConfigError(where.get("dynamics", "") + message)


def run_episode(
    env,
    bundle: ModelBundle,
    config: PlannerConfig,
    constraints: ConstraintConfig = NO_CONSTRAINTS,
    seed: int = 0,
) -> EpisodeResult:
    """Closed-loop control of ``env``, re-planning every step.

    Accumulates the true environment reward; violations are counted with the
    environment's ``violation`` predicate, evaluated at each (state, executed
    action) pair. The models are checked first (see :func:`check_models`).
    """
    check_models(bundle, config, env.spec)
    seed_key = _seed_key(seed)
    s = env.reset(seed=[*seed_key, 0])
    plan = initial_plan(config.horizon, env.spec.action_dim)
    total = 0.0
    diagnostics = []
    flags = []
    steps = 0
    done = False
    while not done:
        a, plan, diag = plan_step(s, bundle, config, constraints, plan, (*seed_key, steps))
        diagnostics.append(diag)
        flags.append(bool(env.violation(s, a)))
        s, r, done = env.step(a)
        total += r
        steps += 1
    return EpisodeResult(
        ret=total,
        steps=steps,
        violations=sum(flags),
        diagnostics=diagnostics,
        violation_flags=flags,
    )


# The `l = auto` rule: this percentile of the dynamics ensemble's discrepancy
# over at most this many dataset rows, floored because degenerate ensembles
# can agree exactly.
AUTO_PERCENTILE = 85.0
AUTO_MAX_SAMPLES = 4096
AUTO_FLOOR = 1e-12
# Chunks of rows, a multiple of the forward block so the GEMMs match one pass's.
AUTO_CHUNK_ROWS = 2 * nn.FORWARD_BLOCK_ROWS


def uncertainty_threshold_from_data(
    dynamics: AdmEnsemble, dataset: Dataset, percentile: float = AUTO_PERCENTILE
) -> float:
    """Percentile of the ensemble discrepancy over dataset state-action pairs, at least AUTO_FLOOR.

    This is the data-driven rule for picking the pruning threshold. Its
    inputs change only with the dataset and the dynamics checkpoint, so
    ``mopp evaluate`` and ``mopp ablate`` store the result in
    ``<out>/calibration.txt`` under a key over those files and the mopp
    package's code, and reuse it.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("cannot calibrate a threshold on an empty dataset")
    idx = np.arange(n) if n <= AUTO_MAX_SAMPLES else np.linspace(0, n - 1, AUTO_MAX_SAMPLES).astype(int)
    d = np.concatenate([
        adm.disc_from_predictions(adm.dynamics_mode_all(dynamics, dataset.states[rows], dataset.actions[rows]))
        for rows in np.split(idx, range(AUTO_CHUNK_ROWS, len(idx), AUTO_CHUNK_ROWS))
    ])
    return max(float(np.percentile(d, percentile)), AUTO_FLOOR)


def diagnostics_csv(result: EpisodeResult) -> str:
    """Per-step planning diagnostics as CSV text."""
    lines = ["step,return_mean,return_max,surviving,u_mean,u_max,violation_flag"]
    for t, (diag, flag) in enumerate(zip(result.diagnostics, result.violation_flags)):
        lines.append(
            f"{t},{diag.return_mean:.6f},{diag.return_max:.6f},{diag.surviving},"
            f"{diag.u_mean:.6f},{diag.u_max:.6f},{int(flag)}"
        )
    return "\n".join(lines) + "\n"
