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
    parse_ints,
    read_manifest,
    write_manifest,
)

EMBED_WIDTH = 500
HEAD_HIDDEN = (200, 100)

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
        return cls(*nn.column_stats(x), *nn.column_stats(o))


@dataclass
class AdmConfig:
    members: int = 3
    steps: int = 20000
    batch_size: int = 256
    learning_rate: float = 1e-3
    embed_width: int = EMBED_WIDTH
    head_hidden: tuple = HEAD_HIDDEN
    activation: str = "relu"

    def __post_init__(self):
        if self.members < 1:
            raise ConfigError("ensemble needs at least one member")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch size must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if min(self.embed_width, *self.head_hidden) < 1:
            raise ConfigError(f"embedding and head widths must be positive, got {self.embed_width} and {self.head_hidden}")
        if self.activation not in nn.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}; options: {nn.ACTIVATIONS}")


def _net_layer_sizes(input_dim: int, output_dim: int, embed_width: int, head_hidden) -> list:
    """Layer sizes of a model's embedding net, then of its head at each ordering position."""
    heads = [[embed_width + i, *head_hidden, 2] for i in range(output_dim)]
    return [[input_dim, embed_width], *heads]


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
        rng=None,
        nets=None,
    ):
        """``nets`` (embedding net, then one head per position) are used as given,
        e.g. loaded from a checkpoint; otherwise fresh ones are initialized from ``rng``.
        """
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
        if nets is None:
            rng = np.random.default_rng(rng)
            sizes = _net_layer_sizes(input_dim, output_dim, embed_width, self.head_hidden)
            nets = [nn.DenseNet(s, activation, rng=rng) for s in sizes]
        self.embed_net, *self.heads = nets

    def macs(self, rows: int) -> int:
        """Multiply-adds of the embedding and every head over ``rows`` rows."""
        return nn._macs([self.embed_net, *self.heads], rows)

    def params(self):
        out = list(self.embed_net.params())
        for head in self.heads:
            out.extend(head.params())
        return out

    # --- normalization helpers ---

    def normalize_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.stats.x_mean) / self.stats.x_std

    def denormalize_o(self, o_n: np.ndarray) -> np.ndarray:
        return o_n * self.stats.o_std + self.stats.o_mean

    # --- normalized-space computation (batch-first) ---

    def _embed(self, x_n: np.ndarray) -> np.ndarray:
        return nn.activate(nn.forward(self.embed_net, x_n), self.activation)

    def _propagate(self, x_n: np.ndarray, eps=None, repeats: int = 1, with_std: bool = False):
        """Run the heads in ordering position order, feeding back realizations.

        With ``eps`` None each head is conditioned on the preceding means
        (mode propagation); otherwise realization i is mean + std * eps[:, i].
        Each input row stands for ``repeats`` output rows; the embedding and
        head 0, which see only the input, run once per input row.

        The embedding is written once into a (batch, E + output_dim) buffer
        whose column E + i receives realization i, so head i reads the
        strided prefix view ``buf[:, :E + i]`` (BLAS takes it without a copy).
        Returns (values, stds), both (batch, output_dim) in position order;
        stds is None unless ``with_std`` or ``eps`` asks for them. Under mode
        propagation the values are the conditional means.
        """
        emb = self._embed(x_n)
        e, d = self.embed_width, self.output_dim
        buf = np.empty((len(emb) * repeats, e + d), dtype=np.float32)
        buf.reshape(len(emb), repeats, e + d)[:, :, :e] = emb[:, None, :]
        vals = buf[:, e:]
        sigmas = np.empty_like(vals) if with_std or eps is not None else None
        for i in range(d):
            out = nn.forward(self.heads[i], buf[:, : e + i] if i else emb)
            if not i and repeats > 1:
                out = np.repeat(out, repeats, axis=0)
            mu = out[:, 0]
            if sigmas is not None:
                sigmas[:, i] = nn.std_from_raw(out[:, 1])
            vals[:, i] = mu if eps is None else mu + sigmas[:, i] * eps[:, i]
        return vals, sigmas

    def _scatter(self, positional: np.ndarray) -> np.ndarray:
        """Reorder position-indexed columns into output-dimension order."""
        out = np.empty_like(positional)
        out[:, self.ordering] = positional
        return out

    def mode_normalized(self, x_n: np.ndarray) -> np.ndarray:
        vals, _ = self._propagate(x_n)
        return self._scatter(vals)

    def sample_normalized(self, x_n: np.ndarray, eps: np.ndarray, repeats: int = 1) -> np.ndarray:
        """Samples under noise ``eps``, ``repeats`` consecutive ones per row of ``x_n``."""
        vals, _ = self._propagate(x_n, eps=eps, repeats=repeats)
        return self._scatter(vals)

    def mean_std_normalized(self, x_n: np.ndarray):
        """Per-dimension conditional means/stds under mode propagation."""
        mus, sigmas = self._propagate(x_n, with_std=True)
        return self._scatter(mus), self._scatter(sigmas)


# --- behavior queries (original units) ---


def behavior_action_distribution_batch(model: AdmModel, states: np.ndarray):
    """Per-dimension action means and stds for each row of ``states``, via mode propagation."""
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

    def head_pass(i):
        prefix = o_n[:, model.ordering[:i]]
        h_in = np.concatenate([emb, prefix], axis=1) if i else emb
        y, cache = nn.forward_cached(model.heads[i], h_in)
        target = o_n[:, model.ordering[i]][:, None]
        li, dy = nn.gaussian_loss_and_grad(y, target)
        grads, dx = nn.backward(model.heads[i], cache, dy)
        return li, grads, dx[:, : model.embed_width]

    d_emb, loss, head_grads = np.zeros_like(emb), 0.0, []
    macs = 3 * nn._macs(model.heads, len(x_n)) // len(model.heads)  # forward, then two backward products
    for li, grads, dx_emb in nn._pool_map(head_pass, range(len(model.heads)), macs):  # summed in head order
        d_emb += dx_emb
        head_grads.extend(grads)
        loss += li
    d_emb_lin = d_emb * nn.activate_grad(emb_lin, model.activation)
    emb_grads, _ = nn.backward(model.embed_net, emb_cache, d_emb_lin, input_grad=False)
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
    macs = ensemble.members[0].macs(len(x_n))
    return np.stack(nn._pool_map(lambda m: m.mode_normalized(x_n), ensemble.members, macs))


def disc_from_predictions(preds: np.ndarray) -> np.ndarray:
    """Max over member pairs of squared Euclidean prediction distance, per row."""
    k = preds.shape[0]
    out = np.zeros(preds.shape[1])
    for i in range(k):
        for j in range(i + 1, k):
            d = preds[i] - preds[j]
            out = np.maximum(out, (d * d).sum(axis=1))
    return out


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
        "sigma_min": repr(nn.SIGMA_MIN),
        "sigma_max": repr(nn.SIGMA_MAX),
        "x_mean": format_floats(ensemble.stats.x_mean),
        "x_std": format_floats(ensemble.stats.x_std),
        "o_mean": format_floats(ensemble.stats.o_mean),
        "o_std": format_floats(ensemble.stats.o_std),
    }
    for j, member in enumerate(ensemble.members):
        entries[f"ordering_{j}"] = ",".join(str(d) for d in member.ordering)
    manifest, *net_paths = ensemble_files(directory, ensemble.k, ensemble.output_dim)
    write_manifest(manifest, entries)
    nets = [net for member in ensemble.members for net in (member.embed_net, *member.heads)]
    for net, net_path in zip(nets, net_paths):
        nn.save_net(net, net_path)


def ensemble_files(directory, k: int, output_dim: int) -> list:
    """Paths of a saved ensemble's files: ``manifest.txt``, then per member its embedding and heads."""
    names = ["embed", *(f"head_{i:02d}" for i in range(output_dim))]
    nets = [f"member_{j:03d}_{name}.nn" for j in range(k) for name in names]
    return [os.path.join(directory, name) for name in ("manifest.txt", *nets)]


def load_ensemble(directory) -> AdmEnsemble:
    path = os.path.join(directory, "manifest.txt")
    if not os.path.exists(path):
        raise FormatError(f"{directory}: missing manifest.txt")
    entries = read_manifest(path)
    stats = NormStats(
        x_mean=entries.parse_vector("x_mean", "input_dim"),
        x_std=entries.parse_vector("x_std", "input_dim"),
        o_mean=entries.parse_vector("o_mean", "output_dim"),
        o_std=entries.parse_vector("o_std", "output_dim"),
    )
    k = entries.parse("k", int)
    if k < 1:
        raise FormatError(f"{path}: key 'k' must be a positive member count, got {k}")
    input_dim, output_dim = entries.parse("input_dim", int), entries.parse("output_dim", int)
    embed_width = entries.parse("embed_width", int)
    head_hidden = tuple(entries.parse("head_hidden", parse_ints))
    activation = entries["activation"]
    for key, bound in (("sigma_min", nn.SIGMA_MIN), ("sigma_max", nn.SIGMA_MAX)):
        if entries.parse(key, float) != bound:
            raise FormatError(
                f"{path}: key {key!r} = {entries[key]}, but the std heads are bounded by {bound!r}"
            )
    # the nets are built from their files, and must have the sizes the manifest describes
    sizes = _net_layer_sizes(input_dim, output_dim, embed_width, head_hidden)
    size_keys = ["input_dim, embed_width", *["embed_width, head_hidden"] * output_dim]
    _, *net_paths = ensemble_files(directory, k, output_dim)
    members = []
    for j in range(k):
        nets = []
        member_paths = net_paths[j * len(sizes) : (j + 1) * len(sizes)]
        for want, keys, net_path in zip(sizes, size_keys, member_paths):
            got = nn.load_net(net_path)
            if got.layer_sizes != want or got.activation != activation:
                raise FormatError(
                    f"{path}: keys {keys}, activation describe a {activation} net of "
                    f"layer sizes {want}, but {net_path} holds a {got.activation} "
                    f"net of {got.layer_sizes}"
                )
            nets.append(got)
        try:
            model = AdmModel(
                input_dim,
                output_dim,
                entries.parse(f"ordering_{j}", parse_ints),
                stats,
                embed_width=embed_width,
                head_hidden=head_hidden,
                activation=activation,
                nets=nets,
            )
        except ValueError as err:  # an ordering that is no permutation
            raise FormatError(f"{path}: {err}") from None
        members.append(model)
    return AdmEnsemble(members=members, role=entries["role"], stats=stats)
