"""Single-sample reference computations that the batch-first library paths are checked against.

Each one is the paper's definition for one input, written out directly:
the Gaussian conditional of one autoregressive head, its negative log
density, and the value estimate of one state as the mean Q over K_Q
behavior samples.
"""

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class GaussianParams:
    """Diagonal Gaussian: per-dimension mean and strictly positive std."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean))
        self.std = np.atleast_1d(np.asarray(self.std))
        if self.mean.shape != self.std.shape:
            raise ValueError(f"mean shape {self.mean.shape} != std shape {self.std.shape}")
        if not np.all(self.std > 0):
            raise ValueError("std entries must be strictly positive")


def gaussian_nll(params: GaussianParams, target) -> float:
    """Negative log density of ``target`` under the diagonal Gaussian.

    Computed as sum_d [log std_d + (target_d - mean_d)^2 / (2 std_d^2) + log(2 pi)/2].
    """
    target = np.atleast_1d(np.asarray(target))
    if target.shape != params.mean.shape:
        raise ValueError(f"target shape {target.shape} != mean shape {params.mean.shape}")
    mean = params.mean.astype(np.float64)
    std = params.std.astype(np.float64)
    resid = target.astype(np.float64) - mean
    return float(np.sum(np.log(std) + resid * resid / (2.0 * std * std) + 0.5 * LOG_2PI))


def adm_gaussian_head(model, x, realized_prefix) -> GaussianParams:
    """Conditional for the next dimension in the model's ordering, for one input ``x``.

    ``realized_prefix`` holds original-unit values of the already generated
    dimensions, in ordering order. The returned params are de-normalized.
    """
    x = np.asarray(x, dtype=np.float32)
    prefix = np.asarray(realized_prefix, dtype=np.float32).ravel()
    i = len(prefix)
    if i >= model.output_dim:
        raise ValueError(f"prefix length {i} must be below output dim {model.output_dim}")
    dims = model.ordering[:i]
    prefix_n = (prefix - model.stats.o_mean[dims]) / model.stats.o_std[dims]
    emb = model._embed(model.normalize_x(x)[None, :])
    mu_n, sigma_n = model._head(i, emb, prefix_n[None, :])
    dim = model.ordering[i]
    scale = model.stats.o_std[dim]
    return GaussianParams(mean=mu_n * scale + model.stats.o_mean[dim], std=sigma_n * scale)


def v_estimate(q, behavior, s, k_q: int, rng) -> float:
    """Mean Q at state ``s`` over ``k_q`` actions sampled from one uniformly drawn behavior member.

    Draws the member index, then (k_q, |A|) normals, from ``rng``.
    """
    member = behavior.members[int(rng.integers(behavior.k))]
    s = np.asarray(s, dtype=np.float32)
    x_n = member.normalize_x(s)[None, :].repeat(k_q, axis=0)
    eps = rng.standard_normal((k_q, member.output_dim))
    actions = member.denormalize_o(member.sample_normalized(x_n, eps))
    states = np.broadcast_to(s, (k_q, s.shape[0]))
    return float(q.values(states, actions).mean())
