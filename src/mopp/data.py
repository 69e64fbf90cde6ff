"""Offline datasets: episode-aware transition storage, generation, file I/O."""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .errors import DataError, FormatError

DATASET_MAGIC = b"MOPPDS1\x00"
DATASET_VERSION = 1
_HEADER = struct.Struct("<IIIII")  # version, state dim, action dim, count, episodes


class Dataset:
    """Column-typed transitions ordered by episode."""

    def __init__(self, states, actions, rewards, next_states, dones, episode_ids):
        self.states = np.asarray(states, dtype=np.float32)
        self.actions = np.asarray(actions, dtype=np.float32)
        self.rewards = np.asarray(rewards, dtype=np.float32).ravel()
        self.next_states = np.asarray(next_states, dtype=np.float32)
        self.dones = np.asarray(dones, dtype=bool).ravel()
        self.episode_ids = np.asarray(episode_ids, dtype=np.uint32).ravel()
        n = len(self.rewards)
        if self.states.ndim != 2 or self.next_states.shape != self.states.shape:
            raise DataError("state arrays must be 2-D and matching")
        if self.actions.ndim != 2 or len(self.actions) != n or len(self.states) != n:
            raise DataError("column lengths disagree")
        if len(self.dones) != n or len(self.episode_ids) != n:
            raise DataError("column lengths disagree")

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    @property
    def n_episodes(self) -> int:
        return len(np.unique(self.episode_ids)) if len(self) else 0

    def episode_slices(self):
        """Contiguous [start, stop) ranges of each episode, in storage order."""
        if len(self) == 0:
            return []
        ids = self.episode_ids
        breaks = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        starts = np.concatenate([[0], breaks])
        stops = np.concatenate([breaks, [len(ids)]])
        return list(zip(starts.tolist(), stops.tolist()))

    def episode_returns(self) -> np.ndarray:
        """Undiscounted return of each episode, in storage order, summed in float64."""
        return np.array(
            [float(self.rewards[a:b].sum(dtype=np.float64)) for a, b in self.episode_slices()]
        )


def generate_dataset(env, policy, episodes: int, seed: int = 0) -> Dataset:
    """Roll ``episodes`` whole episodes with ``policy`` and record every transition.

    Every episode lasts exactly ``env.spec.max_steps`` steps, the env's only
    ``done`` rule, so all episodes are stepped together: each step is one
    ``env.transition`` over every episode's state. Episode ``ep`` starts from
    ``env.reset(seed=[seed, ep])``. ``policy`` is a :class:`~mopp.envs.ScriptedPolicy`;
    its draws for all episodes are taken up front in episode-major order,
    which is the stream a one-episode-at-a-time loop of per-state calls would
    consume, so the dataset is bit-identical to that loop's. Transitions are
    stored episode by episode.
    """
    if episodes < 1:
        raise DataError("need at least one episode")
    spec = env.spec
    steps = spec.max_steps
    if steps < 1:
        raise DataError(f"episodes need at least one step, got max_steps = {steps}")
    draws = policy.draw((episodes, steps))
    traj = np.empty((episodes, steps + 1, spec.state_dim))
    traj[:, 0] = [env.reset(seed=[seed, ep]) for ep in range(episodes)]
    actions = np.empty((episodes, steps, spec.action_dim))
    rewards = np.empty((episodes, steps))
    for t in range(steps):
        a = np.clip(policy.act(traj[:, t], draws[:, t]), spec.action_low, spec.action_high)
        actions[:, t] = a
        traj[:, t + 1], rewards[:, t] = env.transition(traj[:, t], a)
    dones = np.zeros((episodes, steps), dtype=bool)
    dones[:, -1] = True
    n = episodes * steps
    return Dataset(
        traj[:, :-1].reshape(n, spec.state_dim),
        actions.reshape(n, spec.action_dim),
        rewards.reshape(n),
        traj[:, 1:].reshape(n, spec.state_dim),
        dones.reshape(n),
        np.repeat(np.arange(episodes), steps),
    )


def _record_dtype(state_dim: int, action_dim: int) -> np.dtype:
    return np.dtype(
        [
            ("s", "<f4", (state_dim,)),
            ("a", "<f4", (action_dim,)),
            ("r", "<f4"),
            ("sn", "<f4", (state_dim,)),
            ("done", "u1"),
            ("ep", "<u4"),
        ]
    )


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temp file next to ``path`` for writing; on a clean exit, move it over ``path``.

    The temp file is flushed and synced before ``os.replace``, so ``path``
    always holds a whole file: the old one or the new one. A failure at any
    point removes the temp file and re-raises. A directory at ``path`` is a
    FormatError, raised before the temp file is made.
    """
    if os.path.isdir(path):
        raise FormatError(f"{path}: is a directory, so no file can be written there")
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path`` crash-safe (see :func:`atomic_write`)."""
    rec = np.zeros(len(dataset), dtype=_record_dtype(dataset.state_dim, dataset.action_dim))
    rec["s"] = dataset.states
    rec["a"] = dataset.actions
    rec["r"] = dataset.rewards
    rec["sn"] = dataset.next_states
    rec["done"] = dataset.dones.astype(np.uint8)
    rec["ep"] = dataset.episode_ids
    with atomic_write(path) as f:
        f.write(DATASET_MAGIC)
        f.write(
            _HEADER.pack(
                DATASET_VERSION,
                dataset.state_dim,
                dataset.action_dim,
                len(dataset),
                dataset.n_episodes,
            )
        )
        f.write(rec.tobytes())


def load_dataset(path) -> Dataset:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as err:
        raise FormatError(f"{path}: cannot read dataset file ({err.strerror})") from None
    if data[:8] != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0")
    if len(data) < 8 + _HEADER.size:
        raise FormatError(f"{path}: truncated header at byte offset {len(data)}")
    version, state_dim, action_dim, count, episodes = _HEADER.unpack_from(data, 8)
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 8")
    body = 8 + _HEADER.size
    dtype = _record_dtype(state_dim, action_dim)
    expected = body + count * dtype.itemsize
    if len(data) != expected:
        bad = min(len(data), expected)
        raise FormatError(
            f"{path}: expected {expected} bytes for {count} records, "
            f"got {len(data)} (error at byte offset {bad})"
        )
    rec = np.frombuffer(data, dtype=dtype, count=count, offset=body)
    ds = Dataset(
        rec["s"].reshape(count, state_dim),
        rec["a"].reshape(count, action_dim),
        rec["r"],
        rec["sn"].reshape(count, state_dim),
        rec["done"].astype(bool),
        rec["ep"],
    )
    if ds.n_episodes != episodes:
        raise FormatError(
            f"{path}: header claims {episodes} episodes, records contain "
            f"{ds.n_episodes} (error at byte offset 20)"
        )
    return ds
