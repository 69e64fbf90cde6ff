"""Behavioral Q-function via fitted Q evaluation."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import nn
from .data import Dataset
from .errors import ConfigError, DataError, FormatError, TrainingDiverged
from .manifest import format_floats, read_manifest, write_manifest

Q_HIDDEN = (500, 500)


@dataclass
class FqeConfig:
    gamma: float = 0.99
    iterations: int = 40
    steps_per_iteration: int = 500
    batch_size: int = 512
    learning_rate: float = 1e-3
    hidden: tuple = Q_HIDDEN
    reward_transform: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"discount must lie in [0, 1), got {self.gamma}")
        if self.iterations < 1 or self.steps_per_iteration < 1 or self.batch_size < 1:
            raise ConfigError("iteration counts and batch size must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.learning_rate}")


class QNetwork:
    """Scalar state-action value net with input normalization and output scaling."""

    def __init__(self, net: nn.DenseNet, x_mean, x_std, y_mean=0.0, y_std=1.0):
        self.net = net
        self.x_mean = np.asarray(x_mean, dtype=np.float32)
        self.x_std = np.asarray(x_std, dtype=np.float32)
        self.y_mean = float(y_mean)
        self.y_std = float(y_std)
        self.iteration_deltas: list[float] = []

    @property
    def input_dim(self) -> int:
        return self.net.input_dim

    def values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        x = np.concatenate(
            [np.asarray(states, dtype=np.float32), np.asarray(actions, dtype=np.float32)],
            axis=1,
        )
        return self.values_flat(x)

    def values_flat(self, x: np.ndarray) -> np.ndarray:
        x_n = (x - self.x_mean) / self.x_std
        out = nn.forward(self.net, x_n)[:, 0]
        return out * self.y_std + self.y_mean


def _next_action_pairs(dataset: Dataset):
    """Per transition: index of the logged next action, or -1 at episode ends."""
    n = len(dataset)
    nxt = np.full(n, -1, dtype=np.int64)
    same_episode = np.zeros(n, dtype=bool)
    same_episode[:-1] = dataset.episode_ids[:-1] == dataset.episode_ids[1:]
    usable = same_episode & ~dataset.dones
    nxt[usable] = np.flatnonzero(usable) + 1
    return nxt


def fqe_train(dataset: Dataset, config: FqeConfig, seed: int = 0) -> QNetwork:
    """Iteratively regress Q onto one-step bootstrapped targets.

    Targets are r + gamma * Q_prev(s', a') with the logged next action a',
    and plain r at terminal transitions. The previous iterate stays frozen
    while the current one takes its gradient steps.
    """
    if len(dataset) == 0:
        raise DataError("cannot run FQE on an empty dataset")
    nxt = _next_action_pairs(dataset)
    if not np.any(nxt >= 0):
        raise DataError("dataset has no consecutive within-episode action pairs")

    x = np.concatenate([dataset.states, dataset.actions], axis=1)
    x_mean, x_std = nn.column_stats(x)

    rewards = dataset.rewards.astype(np.float64)
    if config.reward_transform is not None:
        rewards = np.asarray(
            config.reward_transform(dataset.states, dataset.actions, rewards),
            dtype=np.float64,
        )
    nonterminal = nxt >= 0
    x_next = np.concatenate(
        [dataset.next_states[nonterminal], dataset.actions[nxt[nonterminal]]], axis=1
    )

    rng = np.random.default_rng(seed)
    net = nn.DenseNet([x.shape[1], *config.hidden, 1], rng=rng)
    q = QNetwork(net, x_mean, x_std)
    params = net.params()
    opt = nn.AdamState(params, learning_rate=config.learning_rate)
    x_n = ((x - x_mean) / x_std).astype(np.float32)
    n = len(x)
    prev_q_all = None

    for it in range(config.iterations):
        targets = rewards.copy()
        if it > 0:
            targets[nonterminal] += config.gamma * q.values_flat(x_next)
        y_mean = float(targets.mean())
        y_std = max(float(targets.std()), 1e-6)
        t_n = ((targets - y_mean) / y_std).astype(np.float32)[:, None]
        for step in range(config.steps_per_iteration):
            idx = rng.integers(0, n, size=min(config.batch_size, n))
            loss, grads = nn.loss_and_grads(net, x_n[idx], t_n[idx], loss="mse")
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    it * config.steps_per_iteration + step,
                    f"FQE loss became non-finite at iteration {it}, step {step}",
                )
            nn.adam_update(params, grads, opt)
        q.y_mean, q.y_std = y_mean, y_std
        if config.iterations > 1:  # a single iteration has no delta to report
            q_all = q.values_flat(x)
            if prev_q_all is not None:
                q.iteration_deltas.append(float(np.max(np.abs(q_all - prev_q_all))))
            prev_q_all = q_all
    return q


def save_q(q: QNetwork, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    write_manifest(
        os.path.join(directory, "manifest.txt"),
        {
            "format": 1,
            "role": "q",
            "input_dim": q.input_dim,
            "x_mean": format_floats(q.x_mean),
            "x_std": format_floats(q.x_std),
            "y_mean": repr(q.y_mean),
            "y_std": repr(q.y_std),
        },
    )
    nn.save_net(q.net, os.path.join(directory, "q.nn"))


def load_q(directory) -> QNetwork:
    path = os.path.join(directory, "manifest.txt")
    if not os.path.exists(path):
        raise FormatError(f"{directory}: missing manifest.txt")
    entries = read_manifest(path)
    if entries.get("role") != "q":
        raise FormatError(f"{path}: expected role 'q', got {entries.get('role')!r}")
    input_dim = entries.parse("input_dim", int)
    net_path = os.path.join(directory, "q.nn")
    net = nn.load_net(net_path)
    if net.input_dim != input_dim:
        raise FormatError(
            f"{path}: key 'input_dim' = {input_dim}, but {net_path} takes {net.input_dim} inputs"
        )
    return QNetwork(
        net,
        entries.parse_vector("x_mean", "input_dim"),
        entries.parse_vector("x_std", "input_dim"),
        entries.parse("y_mean", float),
        entries.parse("y_std", float),
    )
