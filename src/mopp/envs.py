"""Analytic toy environments and scripted data-generating policies.

The point-mass task is a 2-D double integrator driven toward a fixed goal;
every quantity has a closed form, so model-learning and planning claims can
be checked against exact oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

DT = 0.05
VEL_LIMIT = 3.0
GOAL = np.array([1.0, 1.0])
ACTION_COST = 0.01
START_NOISE = 0.01
MAX_STEPS = 200
DEFAULT_V_CAP = 1.5


@dataclass(frozen=True)
class EnvSpec:
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    max_steps: int


def _row_dot(u: np.ndarray) -> np.ndarray:
    """``u . u`` over the last axis through BLAS dot, as ``u @ u`` computes it.

    An elementwise ``(u * u).sum(-1)`` rounds differently from BLAS dot in
    the last bit, which would change the rewards of stored datasets.
    """
    return (u[..., None, :] @ u[..., :, None])[..., 0, 0]


class PointMassEnv:
    """Double integrator: state (x, y, vx, vy), action (ax, ay) in [-1, 1]^2.

    Position integrates the previous velocity, then velocity integrates the
    clipped action; reward is negative goal distance minus a small action
    cost, evaluated at the post-step position.
    """

    def __init__(self, v_cap: Optional[float] = None, max_steps: int = MAX_STEPS):
        self.v_cap = v_cap
        self.spec = EnvSpec(
            state_dim=4,
            action_dim=2,
            action_low=np.array([-1.0, -1.0], dtype=np.float32),
            action_high=np.array([1.0, 1.0], dtype=np.float32),
            max_steps=max_steps,
        )
        self._state = np.zeros(4)
        self._t = 0

    def reset(self, seed=0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self._state = np.zeros(4)
        self._state[:2] = rng.normal(0.0, START_NOISE, size=2)
        self._t = 0
        return self._state.copy()

    def transition(self, states, actions):
        """One step of the dynamics for ``(..., |S|)`` states and ``(..., |A|)`` actions.

        Stateless and shape-polymorphic: returns the ``(..., |S|)`` next states
        and the ``(...)`` rewards. :meth:`step` is its single-row case.
        """
        s = np.asarray(states, dtype=np.float64)
        a = np.clip(np.asarray(actions, dtype=np.float64), -1.0, 1.0)
        pos = s[..., :2] + DT * s[..., 2:]
        vel = np.clip(s[..., 2:] + DT * a, -VEL_LIMIT, VEL_LIMIT)
        reward = -np.sqrt(_row_dot(pos - GOAL)) - ACTION_COST * _row_dot(a)
        return np.concatenate([pos, vel], axis=-1), reward

    def step(self, action):
        self._state, reward = self.transition(self._state, action)
        self._t += 1
        done = self._t >= self.spec.max_steps
        return self._state.copy(), float(reward), done

    def violation(self, state, action) -> bool:
        """Constraint predicate: x-velocity above the cap (never for the base env)."""
        if self.v_cap is None:
            return False
        return float(state[2]) > self.v_cap


def pointmass_env(max_steps: int = MAX_STEPS) -> PointMassEnv:
    return PointMassEnv(v_cap=None, max_steps=max_steps)


def pointmass_constrained_env(
    v_cap: float = DEFAULT_V_CAP, max_steps: int = MAX_STEPS
) -> PointMassEnv:
    return PointMassEnv(v_cap=v_cap, max_steps=max_steps)


# env name -> its factory; an env built with a velocity cap counts violations above it
ENVS = {
    "pointmass": pointmass_env,
    "pointmass_constrained": pointmass_constrained_env,
}


def make_env(name: str, v_cap: Optional[float] = None) -> PointMassEnv:
    """The env ``name`` of ENVS; ``v_cap`` replaces the default cap of an env that has one."""
    if name not in ENVS:
        raise ValueError(f"unknown environment {name!r}; options: {sorted(ENVS)}")
    env = ENVS[name]()
    if v_cap is not None:
        _require_cap(env.v_cap, f"v_cap = {v_cap} is set, but env {name} has no velocity cap")
        _require_positive(v_cap, f"v_cap = {v_cap}: a velocity cap")
        env.v_cap = v_cap
    return env


def _require_cap(v_cap, problem: str) -> None:
    """Raise a ConfigError stating ``problem`` and naming the capped envs if ``v_cap`` is None."""
    if v_cap is None:
        capped = [name for name, make in ENVS.items() if make().v_cap is not None]
        raise ConfigError(f"{problem}; use env {' or '.join(capped)}")
    _require_positive(v_cap, "the velocity cap")


def _require_positive(value: float, what: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{what} must be finite and positive")


def _require_fraction(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("alpha must lie in [0, 1]")


# data policy quality -> (kp, kd, noise std) of its PD law toward the goal, or
# None for uniform actions; kp is the stated gain of the tier, kd damps velocity
POLICIES = {
    "random": None,
    "medium": (0.5, 2.4, 0.3),
    "expert": (1.5, 1.2, 0.05),
}


@dataclass(frozen=True)
class ScriptedPolicy:
    """A data-generating policy split into its random draw and its action law.

    ``draw(shape)`` takes ``(*shape, |A|)`` values from the policy's Generator,
    and ``act(states, draws)`` maps ``(..., |S|)`` states and matching draws to
    actions. Calling the policy on one state is ``act(state, draw(()))``. A
    numpy Generator's bulk draw is bit-identical to the same values drawn one
    call at a time, so ``draw((episodes, steps))`` consumes exactly the stream
    that per-state calls, made episode by episode, would.
    """

    draw: Callable
    act: Callable

    def __call__(self, state):
        return self.act(state, self.draw(()))


def scripted_policy(quality: str, env: PointMassEnv, seed: int) -> ScriptedPolicy:
    """Data-generating policy of graded quality; deterministic given the seed.

    ``random`` draws actions uniformly from the action box. ``medium`` and
    ``expert`` apply a PD law toward the goal plus Gaussian noise, clipped to
    the box. The returned policy is called on one state, or split into its
    draw and action law for batches (see :class:`ScriptedPolicy`).
    """
    rng = np.random.default_rng(seed)
    low = env.spec.action_low.astype(np.float64)
    high = env.spec.action_high.astype(np.float64)

    if quality not in POLICIES:
        raise ValueError(f"unknown policy quality {quality!r}; options: {sorted(POLICIES)}")
    if POLICIES[quality] is None:
        return ScriptedPolicy(
            draw=lambda shape: rng.uniform(low, high, size=(*shape, len(low))),
            act=lambda states, draws: draws,
        )
    kp, kd, noise = POLICIES[quality]

    def act(states, draws):
        s = np.asarray(states)
        return np.clip(kp * (GOAL - s[..., :2]) - kd * s[..., 2:] + draws, low, high)

    return ScriptedPolicy(draw=lambda shape: rng.normal(0.0, noise, size=(*shape, len(low))), act=act)


# --- planning-time constraint hooks (state layout: x, y, vx, vy) ---


def velocity_penalty_reward(v_cap: float, alpha: float = 0.5, weight: float = 100.0) -> Callable:
    """Reward transform r' = alpha*r + (1-alpha)*weight*min(v_cap - vx, 0)."""
    _require_cap(v_cap, "the velocity penalty needs a velocity cap")
    _require_fraction(alpha)
    _require_positive(weight, "the weight")

    def transform(states, actions, rewards):
        vx = np.asarray(states)[..., 2]
        hinge = np.minimum(v_cap - vx, 0.0)
        return alpha * np.asarray(rewards) + (1.0 - alpha) * weight * hinge

    return transform


def velocity_rollout_penalty(v_cap: float, weight: float = 100.0) -> Callable:
    """Uncertainty penalty weight*max(vx - v_cap, 0), added to the pruning signal."""
    _require_cap(v_cap, "the velocity rollout penalty needs a velocity cap")
    _require_positive(weight, "the weight")

    def penalty(states, actions):
        vx = np.asarray(states)[..., 2]
        return weight * np.maximum(vx - v_cap, 0.0)

    return penalty


def height_bonus_reward(alpha: float = 0.4, weight: float = 100.0) -> Callable:
    """Objective swap: r' = alpha*r + (1-alpha)*weight*y, rewarding high y-position."""
    _require_fraction(alpha)
    _require_positive(weight, "the weight")

    def transform(states, actions, rewards):
        y = np.asarray(states)[..., 1]
        return alpha * np.asarray(rewards) + (1.0 - alpha) * weight * y

    return transform
