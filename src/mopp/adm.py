"""Autoregressive conditional Gaussian models for dynamics and behavior.

Each model factorizes a multivariate output into one-dimensional
conditionals under a fixed ordering: a shared embedding of the input feeds
one small head per output dimension, and head i also sees the already
realized values of the dimensions ordered before it. Ensembles hold several
such models with independently permuted orderings; the spread of their
predictions is the uncertainty signal used for trajectory pruning.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Dataset
from .errors import ConfigError, DataError, FormatError, TrainingDiverged
from .manifest import (
    format_floats,
    parse_floats,
    parse_ints,
    read_manifest,
    write_manifest,
)

EMBED_WIDTH = 500
HEAD_HIDDEN = (200, 100)
NORM_STD_FLOOR = 1e-6

ROLES = ("behavior", "dynamics")


@dataclass
class NormStats:
    """Per-dimension input/output normalization, frozen at training time."""

    x_mean: np.ndarray
    x_std: np.ndarray
    o_mean: np.ndarray
    o_std: np.ndarray

    @classmethod
    def from_data(cls, x: np.ndarray, o: np.ndarray) -> "NormStats":
        return cls(
            x_mean=x.mean(axis=0, dtype=np.float64).astype(np.float32),
            x_std=np.maximum(x.std(axis=0, dtype=np.float64), NORM_STD_FLOOR).astype(np.float32),
            o_mean=o.mean(axis=0, dtype=np.float64).astype(np.float32),
            o_std=np.maximum(o.std(axis=0, dtype=np.float64), NORM_STD_FLOOR).astype(np.float32),
        )


@dataclass
class AdmConfig:
    members: int = 3
    steps: int = 20000
    batch_size: int = 256
    learning_rate: float = 1e-3
    embed_width: int = EMBED_WIDTH
    head_hidden: tuple = HEAD_HIDDEN
    activation: str = "relu"
    sigma_min: float = nn.SIGMA_MIN
    sigma_max: float = nn.SIGMA_MAX

    def __post_init__(self):
        if self.members < 1:
            raise ConfigError("ensemble needs at least one member")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch size must be positive")


class AdmModel:
    """One autoregressive conditional Gaussian model."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        ordering,
        stats: NormStats,
        embed_width: int = EMBED_WIDTH,
        head_hidden=HEAD_HIDDEN,
        activation: str = "relu",
        sigma_min: float = nn.SIGMA_MIN,
        sigma_max: float = nn.SIGMA_MAX,
        rng=None,
    ):
        ordering = np.asarray(ordering, dtype=np.int64)
        if sorted(ordering.tolist()) != list(range(output_dim)):
            raise ValueError(f"ordering must be a permutation of 0..{output_dim - 1}")
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)
        self.ordering = ordering
        self.stats = stats
        self.embed_width = int(embed_width)
        self.head_hidden = tuple(int(h) for h in head_hidden)
        self.activation = activation
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)
        rng = np.random.default_rng(rng)
        self.embed_net = nn.DenseNet([input_dim, embed_width], activation, rng=rng)
        self.heads = [
            nn.DenseNet([embed_width + i, *self.head_hidden, 2], activation, rng=rng)
            for i in range(output_dim)
        ]

    def params(self):
        out = list(self.embed_net.params())
        for head in self.heads:
            out.extend(head.params())
        return out

    # --- normalization helpers ---

    def normalize_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.stats.x_mean) / self.stats.x_std

    def normalize_o(self, o: np.ndarray) -> np.ndarray:
        return (o - self.stats.o_mean) / self.stats.o_std

    def denormalize_o(self, o_n: np.ndarray) -> np.ndarray:
        return o_n * self.stats.o_std + self.stats.o_mean

    # --- normalized-space computation (batch-first) ---

    def _embed(self, x_n: np.ndarray) -> np.ndarray:
        return nn.activate(nn.forward(self.embed_net, x_n), self.activation)

    def _head(self, i: int, emb: np.ndarray, prefix_n: np.ndarray):
        """Mean/std (normalized units) of the conditional at ordering position i."""
        h_in = np.concatenate([emb, prefix_n], axis=1) if i else emb
        out = nn.forward(self.heads[i], h_in)
        mu = out[:, 0]
        sigma = nn.std_from_raw(out[:, 1], self.sigma_min, self.sigma_max)
        return mu, sigma

    def _propagate(self, x_n: np.ndarray, eps=None, repeats: int = 1):
        """Run the heads in ordering position order, feeding back realizations.

        With ``eps`` None each head is conditioned on the preceding means
        (mode propagation); otherwise realization i is mean + std * eps[:, i].
        Each input row stands for ``repeats`` output rows; the embedding and
        head 0, which see only the input, run once per input row.
        Returns (values, means, stds), all (batch, output_dim) in position order.
        """
        emb = self._embed(x_n)
        head0 = self._head(0, emb, None)
        if repeats > 1:
            emb = np.repeat(emb, repeats, axis=0)
            head0 = tuple(np.repeat(v, repeats) for v in head0)
        vals = np.zeros((emb.shape[0], self.output_dim), dtype=np.float32)
        mus = np.zeros_like(vals)
        sigmas = np.zeros_like(vals)
        for i in range(self.output_dim):
            mu, sigma = self._head(i, emb, vals[:, :i]) if i else head0
            mus[:, i] = mu
            sigmas[:, i] = sigma
            vals[:, i] = mu if eps is None else mu + sigma * eps[:, i]
        return vals, mus, sigmas

    def _scatter(self, positional: np.ndarray) -> np.ndarray:
        """Reorder position-indexed columns into output-dimension order."""
        out = np.empty_like(positional)
        out[:, self.ordering] = positional
        return out

    def mode_normalized(self, x_n: np.ndarray) -> np.ndarray:
        vals, _, _ = self._propagate(x_n)
        return self._scatter(vals)

    def sample_normalized(self, x_n: np.ndarray, eps: np.ndarray, repeats: int = 1) -> np.ndarray:
        """Samples under noise ``eps``, ``repeats`` consecutive ones per row of ``x_n``."""
        vals, _, _ = self._propagate(x_n, eps=eps, repeats=repeats)
        return self._scatter(vals)

    def mean_std_normalized(self, x_n: np.ndarray):
        """Per-dimension conditional means/stds under mode propagation."""
        _, mus, sigmas = self._propagate(x_n)
        return self._scatter(mus), self._scatter(sigmas)


# --- single-input operations (original units) ---


def adm_gaussian_head(model: AdmModel, x, realized_prefix) -> nn.GaussianParams:
    """Conditional for the next dimension in the model's ordering.

    ``realized_prefix`` holds original-unit values of the already generated
    dimensions, in ordering order. The returned params are de-normalized.
    """
    x = np.asarray(x, dtype=np.float32)
    prefix = np.asarray(realized_prefix, dtype=np.float32).ravel()
    i = len(prefix)
    if i >= model.output_dim:
        raise ValueError(
            f"prefix length {i} must be below output dim {model.output_dim}"
        )
    dims = model.ordering[:i]
    prefix_n = (prefix - model.stats.o_mean[dims]) / model.stats.o_std[dims]
    emb = model._embed(model.normalize_x(x)[None, :])
    mu_n, sigma_n = model._head(i, emb, prefix_n[None, :])
    dim = model.ordering[i]
    scale = model.stats.o_std[dim]
    return nn.GaussianParams(
        mean=mu_n * scale + model.stats.o_mean[dim], std=sigma_n * scale
    )


def adm_mode(model: AdmModel, x) -> np.ndarray:
    x_n = model.normalize_x(np.asarray(x, dtype=np.float32))[None, :]
    return model.denormalize_o(model.mode_normalized(x_n))[0]


def adm_sample(model: AdmModel, x, rng) -> np.ndarray:
    """Draw one output, dimension by dimension in the model's ordering."""
    x_n = model.normalize_x(np.asarray(x, dtype=np.float32))[None, :]
    eps = rng.standard_normal((1, model.output_dim))
    return model.denormalize_o(model.sample_normalized(x_n, eps))[0]


def behavior_action_distribution(model: AdmModel, s):
    """Per-dimension action means and stds via mode propagation."""
    mu, sigma = behavior_action_distribution_batch(model, np.asarray(s)[None, :])
    return mu[0], sigma[0]


def behavior_action_distribution_batch(model: AdmModel, states: np.ndarray):
    x_n = model.normalize_x(np.asarray(states, dtype=np.float32))
    mu_n, sigma_n = model.mean_std_normalized(x_n)
    return (
        mu_n * model.stats.o_std + model.stats.o_mean,
        sigma_n * model.stats.o_std,
    )


# --- ensembles ---


@dataclass
class AdmEnsemble:
    members: list
    role: str
    stats: NormStats

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble has no members")
        if self.role not in ROLES:
            raise ConfigError(f"unknown role {self.role!r}")
        dims = {(m.input_dim, m.output_dim) for m in self.members}
        if len(dims) != 1:
            raise ConfigError("ensemble members disagree on dimensions")

    @property
    def k(self) -> int:
        return len(self.members)

    @property
    def input_dim(self) -> int:
        return self.members[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.members[0].output_dim


def _role_arrays(dataset: Dataset, role: str):
    if role == "behavior":
        return dataset.states, dataset.actions
    if role == "dynamics":
        x = np.concatenate([dataset.states, dataset.actions], axis=1)
        o = np.concatenate([dataset.rewards[:, None], dataset.next_states], axis=1)
        return x, o
    raise ConfigError(f"unknown role {role!r}")


def _model_loss_and_grads(model: AdmModel, x_n: np.ndarray, o_n: np.ndarray):
    """Teacher-forced batch NLL (true prefixes fed to every head) and grads."""
    emb_lin, emb_cache = nn.forward_cached(model.embed_net, x_n)
    emb = nn.activate(emb_lin, model.activation)
    d_emb = np.zeros_like(emb)
    loss = 0.0
    head_grads = []
    for i, head in enumerate(model.heads):
        prefix = o_n[:, model.ordering[:i]]
        h_in = np.concatenate([emb, prefix], axis=1) if i else emb
        y, cache = nn.forward_cached(head, h_in)
        target = o_n[:, model.ordering[i]][:, None]
        li, dy = nn.gaussian_loss_and_grad(y, target, model.sigma_min, model.sigma_max)
        grads, dx = nn.backward(head, cache, dy)
        d_emb += dx[:, : model.embed_width]
        head_grads.extend(grads)
        loss += li
    d_emb_lin = d_emb * nn.activate_grad(emb_lin, model.activation)
    emb_grads, _ = nn.backward(model.embed_net, emb_cache, d_emb_lin)
    return loss, emb_grads + head_grads


def adm_train(dataset: Dataset, role: str, config: AdmConfig, seed: int = 0) -> AdmEnsemble:
    """Fit an ensemble by minimizing mean per-sample negative log-likelihood.

    Every member gets an independently permuted ordering and its own
    initialization and minibatch stream; normalization stats are computed
    once from the dataset and shared.
    """
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    x, o = _role_arrays(dataset, role)
    stats = NormStats.from_data(x, o)
    x_n = ((x - stats.x_mean) / stats.x_std).astype(np.float32)
    o_n = ((o - stats.o_mean) / stats.o_std).astype(np.float32)
    n = len(x_n)

    members = []
    for j in range(config.members):
        rng = np.random.default_rng([seed, j])
        ordering = rng.permutation(o.shape[1])
        model = AdmModel(
            x.shape[1],
            o.shape[1],
            ordering,
            stats,
            embed_width=config.embed_width,
            head_hidden=config.head_hidden,
            activation=config.activation,
            sigma_min=config.sigma_min,
            sigma_max=config.sigma_max,
            rng=rng,
        )
        params = model.params()
        opt = nn.AdamState(params, learning_rate=config.learning_rate)
        for step in range(config.steps):
            idx = rng.integers(0, n, size=min(config.batch_size, n))
            loss, grads = _model_loss_and_grads(model, x_n[idx], o_n[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(step, f"member {j}: non-finite loss at step {step}")
            nn.adam_update(params, grads, opt)
        members.append(model)
    return AdmEnsemble(members=members, role=role, stats=stats)


# --- dynamics ensemble queries ---


def dynamics_mode_all(ensemble: AdmEnsemble, states: np.ndarray, actions: np.ndarray):
    """Every member's mode prediction, in normalized units: (k, batch, 1 + |s|)."""
    x = np.concatenate(
        [np.asarray(states, dtype=np.float32), np.asarray(actions, dtype=np.float32)],
        axis=1,
    )
    x_n = (x - ensemble.stats.x_mean) / ensemble.stats.x_std
    return np.stack([m.mode_normalized(x_n) for m in ensemble.members])


def disc_from_predictions(preds: np.ndarray) -> np.ndarray:
    """Max over member pairs of squared Euclidean prediction distance, per row."""
    k = preds.shape[0]
    out = np.zeros(preds.shape[1])
    for i in range(k):
        for j in range(i + 1, k):
            d = preds[i] - preds[j]
            out = np.maximum(out, (d * d).sum(axis=1))
    return out


def disc(ensemble: AdmEnsemble, s, a) -> float:
    """Largest pairwise squared distance between member mode predictions."""
    if ensemble.k < 2:
        raise ConfigError("discrepancy needs at least two ensemble members")
    preds = dynamics_mode_all(ensemble, np.asarray(s)[None, :], np.asarray(a)[None, :])
    return float(disc_from_predictions(preds)[0])


def dynamics_step(ensemble: AdmEnsemble, member_index: int, s, a):
    """Mode prediction of one member, split into (reward, next state)."""
    if not 0 <= member_index < ensemble.k:
        raise IndexError(
            f"member index {member_index} out of range for k={ensemble.k}"
        )
    x = np.concatenate([np.asarray(s, dtype=np.float32), np.asarray(a, dtype=np.float32)])
    out = adm_mode(ensemble.members[member_index], x)
    return float(out[0]), out[1:]


def dynamics_reward_mean(ensemble: AdmEnsemble, s, a) -> float:
    """Mean over members of the mode-predicted reward."""
    x = np.concatenate([np.asarray(s, dtype=np.float32), np.asarray(a, dtype=np.float32)])
    return float(np.mean([adm_mode(m, x)[0] for m in ensemble.members]))


# --- checkpoints ---


def save_ensemble(ensemble: AdmEnsemble, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    first = ensemble.members[0]
    entries = {
        "format": 1,
        "role": ensemble.role,
        "k": ensemble.k,
        "input_dim": ensemble.input_dim,
        "output_dim": ensemble.output_dim,
        "activation": first.activation,
        "embed_width": first.embed_width,
        "head_hidden": ",".join(str(h) for h in first.head_hidden),
        "sigma_min": repr(first.sigma_min),
        "sigma_max": repr(first.sigma_max),
        "x_mean": format_floats(ensemble.stats.x_mean),
        "x_std": format_floats(ensemble.stats.x_std),
        "o_mean": format_floats(ensemble.stats.o_mean),
        "o_std": format_floats(ensemble.stats.o_std),
    }
    for j, member in enumerate(ensemble.members):
        entries[f"ordering_{j}"] = ",".join(str(d) for d in member.ordering)
    write_manifest(os.path.join(directory, "manifest.txt"), entries)
    for j, member in enumerate(ensemble.members):
        nn.save_net(member.embed_net, os.path.join(directory, f"member_{j:03d}_embed.nn"))
        for i, head in enumerate(member.heads):
            nn.save_net(head, os.path.join(directory, f"member_{j:03d}_head_{i:02d}.nn"))


def load_ensemble(directory) -> AdmEnsemble:
    path = os.path.join(directory, "manifest.txt")
    if not os.path.exists(path):
        raise FormatError(f"{directory}: missing manifest.txt")
    entries = read_manifest(path)
    stats = NormStats(
        x_mean=entries.parse("x_mean", parse_floats),
        x_std=entries.parse("x_std", parse_floats),
        o_mean=entries.parse("o_mean", parse_floats),
        o_std=entries.parse("o_std", parse_floats),
    )
    k = entries.parse("k", int)
    if k < 1:
        raise FormatError(f"{path}: key 'k' must be a positive member count, got {k}")
    members = []
    for j in range(k):
        try:
            model = AdmModel(
                entries.parse("input_dim", int),
                entries.parse("output_dim", int),
                entries.parse(f"ordering_{j}", parse_ints),
                stats,
                embed_width=entries.parse("embed_width", int),
                head_hidden=tuple(entries.parse("head_hidden", parse_ints)),
                activation=entries["activation"],
                sigma_min=entries.parse("sigma_min", float),
                sigma_max=entries.parse("sigma_max", float),
                rng=0,
            )
        except ValueError as err:  # sizes or activation the nets reject
            raise FormatError(f"{path}: {err}") from None
        model.embed_net = nn.load_net(os.path.join(directory, f"member_{j:03d}_embed.nn"))
        model.heads = [
            nn.load_net(os.path.join(directory, f"member_{j:03d}_head_{i:02d}.nn"))
            for i in range(model.output_dim)
        ]
        members.append(model)
    return AdmEnsemble(members=members, role=entries["role"], stats=stats)
