import numpy as np
import pytest

from mopp import data, envs
from mopp.errors import ConfigError, DataError, FormatError


def generate_dataset_loop(env, policy, episodes, seed):
    """Oracle for lockstep generation: one episode at a time, one env.step and policy call per transition."""
    states, actions, rewards, next_states, dones, ep_ids = [], [], [], [], [], []
    for ep in range(episodes):
        s = env.reset(seed=[seed, ep])
        done = False
        while not done:
            a = np.clip(policy(s), env.spec.action_low, env.spec.action_high)
            s_next, r, done = env.step(a)
            states.append(s.astype(np.float32))
            actions.append(np.asarray(a, dtype=np.float32))
            rewards.append(r)
            next_states.append(s_next.astype(np.float32))
            dones.append(done)
            ep_ids.append(ep)
            s = s_next
    return data.Dataset(states, actions, rewards, next_states, dones, ep_ids)


def rollout_returns(env, policy, episodes, seed):
    out = []
    for ep in range(episodes):
        s = env.reset(seed=[seed, ep])
        done = False
        total = 0.0
        while not done:
            s, r, done = env.step(policy(s))
            total += r
        out.append(total)
    return np.array(out)


def test_zero_action_from_rest_is_fixed_point():
    env = envs.pointmass_env()
    s0 = env.reset(seed=3)
    dist = np.linalg.norm(s0[:2] - envs.GOAL)
    for _ in range(20):
        s, r, done = env.step(np.zeros(2))
    np.testing.assert_allclose(s[:2], s0[:2], atol=1e-12)
    np.testing.assert_allclose(s[2:], 0.0)
    assert r == pytest.approx(-dist, abs=1e-9)


def test_constant_action_matches_closed_form_integration():
    # independent oracle: iterate the linear recurrence directly
    env = envs.pointmass_env()
    s = env.reset(seed=5)
    pos, vel = s[:2].astype(np.float64), s[2:].astype(np.float64)
    a = np.array([1.0, 1.0])
    for _ in range(80):
        s, r, done = env.step(a)
        pos = pos + envs.DT * vel
        vel = np.clip(vel + envs.DT * a, -envs.VEL_LIMIT, envs.VEL_LIMIT)
        np.testing.assert_allclose(s, np.concatenate([pos, vel]), atol=1e-12)
        expected_r = -np.linalg.norm(pos - envs.GOAL) - envs.ACTION_COST * float(a @ a)
        assert r == pytest.approx(expected_r, abs=1e-12)


def test_reward_zero_at_goal_with_zero_action():
    env = envs.pointmass_env()
    env.reset(seed=0)
    env._state = np.array([1.0, 1.0, 0.0, 0.0])
    _, r, _ = env.step(np.zeros(2))
    assert r == pytest.approx(0.0, abs=1e-12)


def test_env_actions_clipped_to_bounds():
    env = envs.pointmass_env()
    env.reset(seed=0)
    s_big, r_big, _ = env.step(np.array([10.0, 10.0]))
    env.reset(seed=0)
    s_one, r_one, _ = env.step(np.array([1.0, 1.0]))
    np.testing.assert_allclose(s_big, s_one)
    assert r_big == pytest.approx(r_one)


def test_env_determinism_same_seed_same_actions():
    env_a, env_b = envs.pointmass_env(), envs.pointmass_env()
    sa, sb = env_a.reset(seed=9), env_b.reset(seed=9)
    np.testing.assert_array_equal(sa, sb)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.uniform(-1, 1, 2)
        out_a, out_b = env_a.step(a), env_b.step(a)
        np.testing.assert_array_equal(out_a[0], out_b[0])
        assert out_a[1] == out_b[1] and out_a[2] == out_b[2]


def test_episode_ends_at_step_cap():
    env = envs.pointmass_env(max_steps=7)
    env.reset(seed=0)
    flags = [env.step(np.zeros(2))[2] for _ in range(7)]
    assert flags == [False] * 6 + [True]


def test_batched_transition_equals_row_by_row_step():
    rng = np.random.default_rng(11)
    states = rng.normal(0.0, 2.0, size=(5, 7, 4))
    states[0, :, 2:] = rng.choice([-3.0, 3.0, 2.99], size=(7, 2))  # at the velocity limit
    actions = rng.normal(0.0, 1.5, size=(5, 7, 2))  # partly outside the action box
    env = envs.pointmass_constrained_env()
    next_states, rewards = env.transition(states, actions)
    assert next_states.shape == states.shape and rewards.shape == (5, 7)
    for i in np.ndindex(5, 7):
        env._state = states[i].copy()
        s_next, r, _ = env.step(actions[i])
        np.testing.assert_array_equal(next_states[i], s_next)
        assert rewards[i] == r
        a = np.clip(actions[i], -1.0, 1.0)  # the reward as a 1-D step writes it, to the bit
        assert r == -float(np.linalg.norm(s_next[:2] - envs.GOAL)) - envs.ACTION_COST * float(a @ a)


def test_constrained_env_violation_predicate():
    env = envs.pointmass_constrained_env(v_cap=1.5)
    assert not env.violation(np.array([0, 0, 1.4, 0.0]), np.zeros(2))
    assert env.violation(np.array([0, 0, 1.6, 0.0]), np.zeros(2))
    base = envs.pointmass_env()
    assert not base.violation(np.array([0, 0, 99.0, 0.0]), np.zeros(2))


def test_make_env_names():
    assert envs.make_env("pointmass").v_cap is None
    assert envs.make_env("pointmass_constrained").v_cap == envs.DEFAULT_V_CAP
    assert envs.make_env("pointmass_constrained", v_cap=0.4).v_cap == 0.4
    with pytest.raises(ValueError):
        envs.make_env("cartpole")
    with pytest.raises(ConfigError, match="v_cap"):
        envs.make_env("pointmass", v_cap=0.5)


def test_random_policy_within_bounds():
    env = envs.pointmass_env()
    policy = envs.scripted_policy("random", env, seed=0)
    draws = np.array([policy(np.zeros(4)) for _ in range(10_000)])
    assert np.all(draws >= -1.0) and np.all(draws <= 1.0)


def test_policy_determinism():
    env = envs.pointmass_env()
    for quality in ("random", "medium", "expert"):
        p1 = envs.scripted_policy(quality, env, seed=4)
        p2 = envs.scripted_policy(quality, env, seed=4)
        states = np.random.default_rng(0).normal(size=(20, 4))
        for s in states:
            np.testing.assert_array_equal(p1(s), p2(s))


def test_policy_quality_ordering_with_margin():
    # empirical return ordering oracle over 50 seeded episodes per tier
    env = envs.pointmass_env()
    means = {}
    for quality in ("random", "medium", "expert"):
        policy = envs.scripted_policy(quality, env, seed=13)
        means[quality] = rollout_returns(env, policy, episodes=50, seed=100).mean()
    gap = means["expert"] - means["random"]
    assert gap > 0
    assert means["expert"] - means["medium"] >= 0.2 * gap
    assert means["medium"] - means["random"] >= 0.2 * gap


@pytest.mark.parametrize("quality", ["random", "medium", "expert"])
def test_policy_calls_equal_draw_act_split(quality):
    env = envs.pointmass_env()
    states = np.random.default_rng(2).normal(0.0, 1.0, size=(3, 5, 4))
    per_state = envs.scripted_policy(quality, env, seed=8)
    calls = np.array([[per_state(s) for s in row] for row in states])
    split = envs.scripted_policy(quality, env, seed=8)
    np.testing.assert_array_equal(calls, split.act(states, split.draw((3, 5))))


def test_unknown_policy_quality():
    with pytest.raises(ValueError):
        envs.scripted_policy("grandmaster", envs.pointmass_env(), seed=0)


# --- dataset construction ---


def test_generate_dataset_counts_and_done_flags():
    env = envs.pointmass_env()
    ds = data.generate_dataset(env, envs.scripted_policy("random", env, 0), episodes=1, seed=0)
    assert len(ds) == env.spec.max_steps
    assert ds.dones.sum() == 1 and bool(ds.dones[-1])
    assert ds.n_episodes == 1


def test_generate_dataset_chaining_invariant():
    env = envs.pointmass_env(max_steps=30)
    ds = data.generate_dataset(env, envs.scripted_policy("medium", env, 1), episodes=4, seed=2)
    for start, stop in ds.episode_slices():
        np.testing.assert_array_equal(ds.next_states[start : stop - 1], ds.states[start + 1 : stop])


@pytest.mark.parametrize("quality", ["random", "medium", "expert"])
@pytest.mark.parametrize("episodes", [1, 3, 17])
@pytest.mark.parametrize("max_steps", [1, 7, 200])
def test_lockstep_generation_equals_episode_loop(quality, episodes, max_steps):
    for env_seed, policy_seed in ((0, 1), (7, 8), (2024, 3)):
        env = envs.pointmass_env(max_steps=max_steps)
        got = data.generate_dataset(env, envs.scripted_policy(quality, env, policy_seed), episodes, env_seed)
        want = generate_dataset_loop(env, envs.scripted_policy(quality, env, policy_seed), episodes, env_seed)
        for col in ("states", "actions", "rewards", "next_states", "dones", "episode_ids"):
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and a.shape == b.shape, col
            assert a.tobytes() == b.tobytes(), col


def test_generate_dataset_rejects_zero_episodes():
    env = envs.pointmass_env()
    with pytest.raises(DataError):
        data.generate_dataset(env, envs.scripted_policy("random", env, 0), episodes=0)


def test_stats_idempotent_after_reload(tmp_path):
    env = envs.pointmass_env(max_steps=25)
    ds = data.generate_dataset(env, envs.scripted_policy("medium", env, 3), episodes=6, seed=1)
    path = tmp_path / "d.ds"
    data.save_dataset(ds, path)
    loaded = data.load_dataset(path)
    returns = loaded.episode_returns()
    assert returns.shape == (6,)
    np.testing.assert_array_equal(returns, ds.episode_returns())


# --- file format ---


def test_save_load_byte_identical_resave(tmp_path):
    env = envs.pointmass_env(max_steps=12)
    ds = data.generate_dataset(env, envs.scripted_policy("random", env, 2), episodes=3, seed=5)
    p1, p2 = tmp_path / "a.ds", tmp_path / "b.ds"
    data.save_dataset(ds, p1)
    loaded = data.load_dataset(p1)
    data.save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(loaded.states, ds.states)
    np.testing.assert_array_equal(loaded.actions, ds.actions)
    np.testing.assert_array_equal(loaded.rewards, ds.rewards)
    np.testing.assert_array_equal(loaded.dones, ds.dones)
    np.testing.assert_array_equal(loaded.episode_ids, ds.episode_ids)


def test_failed_save_keeps_existing_dataset_and_leaves_no_temp_file(tmp_path, monkeypatch):
    env = envs.pointmass_env(max_steps=6)
    old = data.generate_dataset(env, envs.scripted_policy("medium", env, 0), episodes=2, seed=0)
    new = data.generate_dataset(env, envs.scripted_policy("random", env, 1), episodes=3, seed=1)
    path = tmp_path / "d.ds"
    data.save_dataset(old, path)
    before = path.read_bytes()

    class FailingHeader:
        size = data._HEADER.size

        def pack(self, *values):
            raise OSError("disk full")

    monkeypatch.setattr(data, "_HEADER", FailingHeader())  # fails after the magic is written
    with pytest.raises(OSError, match="disk full"):
        data.save_dataset(new, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.ds"]
    monkeypatch.undo()
    data.save_dataset(new, path)
    assert len(data.load_dataset(path)) == len(new)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.ds"]


def test_empty_dataset_round_trip(tmp_path):
    empty = data.Dataset(
        np.zeros((0, 4)), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 4)),
        np.zeros(0, bool), np.zeros(0),
    )
    path = tmp_path / "empty.ds"
    data.save_dataset(empty, path)
    loaded = data.load_dataset(path)
    assert len(loaded) == 0
    assert loaded.state_dim == 4 and loaded.action_dim == 2


def test_truncated_file_names_offset(tmp_path):
    env = envs.pointmass_env(max_steps=5)
    ds = data.generate_dataset(env, envs.scripted_policy("random", env, 0), episodes=1, seed=0)
    path = tmp_path / "ok.ds"
    data.save_dataset(ds, path)
    blob = path.read_bytes()
    bad = tmp_path / "cut.ds"
    bad.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="byte offset"):
        data.load_dataset(bad)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "junk.ds"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 20)
    with pytest.raises(FormatError, match="offset 0"):
        data.load_dataset(path)
    env = envs.pointmass_env(max_steps=5)
    ds = data.generate_dataset(env, envs.scripted_policy("random", env, 0), episodes=1, seed=0)
    good = tmp_path / "good.ds"
    data.save_dataset(ds, good)
    blob = bytearray(good.read_bytes())
    blob[8] = 99  # version field
    bad = tmp_path / "ver.ds"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        data.load_dataset(bad)
