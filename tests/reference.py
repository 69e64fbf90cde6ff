"""Single-sample reference computations that the batch-first library paths are checked against.

Each one is the paper's definition for one input, written out directly:
the Gaussian conditional of one autoregressive head, its negative log
density, and the value estimate of one state as the mean Q over K_Q
behavior samples. ``propagate_concat`` is the autoregressive pass with each
head's input built by concatenation, the layout the library's shared
prefix buffer replaces.
"""

import math
from dataclasses import dataclass

import numpy as np

from mopp import nn

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
    mu_n, sigma_n = head_conditional(model, i, emb, prefix_n[None, :])
    dim = model.ordering[i]
    scale = model.stats.o_std[dim]
    return GaussianParams(mean=mu_n * scale + model.stats.o_mean[dim], std=sigma_n * scale)


def head_conditional(model, i, emb, prefix_n):
    """Normalized mean/std of head ``i`` on ``[emb | prefix_n]``, its input concatenated."""
    out = nn.forward(model.heads[i], np.concatenate([emb, prefix_n], axis=1) if i else emb)
    return out[:, 0], nn.std_from_raw(out[:, 1])


def propagate_concat(model, x_n, eps=None, repeats=1):
    """(values, means, stds) in output-dimension order, one concatenated input per head.

    Mode propagation with ``eps`` None, sampling otherwise; each row of
    ``x_n`` stands for ``repeats`` output rows, and the embedding and head 0
    run once per input row.
    """
    emb = model._embed(x_n)
    head0 = head_conditional(model, 0, emb, None)
    if repeats > 1:
        emb = np.repeat(emb, repeats, axis=0)
        head0 = tuple(np.repeat(v, repeats) for v in head0)
    vals = np.zeros((emb.shape[0], model.output_dim), dtype=np.float32)
    mus = np.zeros_like(vals)
    sigmas = np.zeros_like(vals)
    for i in range(model.output_dim):
        mu, sigma = head_conditional(model, i, emb, vals[:, :i]) if i else head0
        mus[:, i] = mu
        sigmas[:, i] = sigma
        vals[:, i] = mu if eps is None else mu + sigma * eps[:, i]
    scatter = np.argsort(model.ordering)
    return vals[:, scatter], mus[:, scatter], sigmas[:, scatter]


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
