"""Offline datasets: episode-aware transition storage, generation, file I/O."""

from __future__ import annotations

import numpy as np

from .errors import DataError, FormatError
from .manifest import open_file, read_artefact, write_artefact


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
    """A packed record of one transition; its fields are in the order of :class:`Dataset`'s columns."""
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


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to the artefact file ``path`` (see :func:`manifest.write_artefact`): its sizes, then its records."""
    rec = np.zeros(len(dataset), dtype=_record_dtype(dataset.state_dim, dataset.action_dim))
    columns = (dataset.states, dataset.actions, dataset.rewards, dataset.next_states, dataset.dones, dataset.episode_ids)
    for name, column in zip(rec.dtype.names, columns):
        rec[name] = column
    entries = {"role": "dataset", "state_dim": dataset.state_dim, "action_dim": dataset.action_dim,
               "count": len(dataset), "episodes": dataset.n_episodes}
    write_artefact(path, entries, lambda write: write(rec.view(np.uint8)))


def load_dataset(path) -> Dataset:
    """The dataset in the artefact file ``path``, once its digest matches (see :func:`manifest.read_artefact`)."""
    with open_file(path) as f:
        if f.read(8) == b"MOPPDS1\0":  # how a dataset file of the earlier header format begins
            raise FormatError(f"{path}: a dataset file of an earlier format; run `mopp gen-data` to write it again")
    return read_artefact(path, _read_records)[1]


def _read_records(entries, f, end: int) -> Dataset:
    """The dataset whose records ``f`` holds up to byte offset ``end``, as the manifest ``entries`` describes them."""
    path = entries.path
    entries.expect("role", ("dataset",))
    state_dim, action_dim, count, episodes = (entries.parse(k, int) for k in ("state_dim", "action_dim", "count", "episodes"))
    # a record (float32 s, a, r and s', u8 done, u32 episode id) must fit numpy's C-int dtype size
    if min(state_dim, action_dim) < 0 or 4 * (2 * state_dim + action_dim + 1) + 5 > np.iinfo(np.intc).max:
        raise FormatError(f"{path}: keys 'state_dim' = {state_dim} and 'action_dim' = {action_dim} do not fit a record")
    dtype, size = _record_dtype(state_dim, action_dim), end - f.tell()
    if count * dtype.itemsize != size:
        raise FormatError(
            f"{path}: key 'count' = {count} describes {count * dtype.itemsize} bytes of records; the payload holds {size}"
        )
    rec = np.empty(count, dtype=dtype)
    f.readinto(rec.view(np.uint8))
    ds = Dataset(*(rec[name] for name in dtype.names))
    if ds.n_episodes != episodes:
        raise FormatError(f"{path}: key 'episodes' = {episodes}, but the records hold {ds.n_episodes} episodes")
    return ds
