import numpy as np
import pytest

from mopp import adm, data, nn, planner, value
from mopp.errors import ConfigError, DataError, FormatError
from reference import adm_gaussian_head, v_estimate


def chain_dataset(rewards=(1.0, 0.5, 2.0, 1.5), episodes=40, reward_scale=1.0):
    """Deterministic chain over one-hot states; one constant action."""
    n_states = len(rewards) + 1
    eye = np.eye(n_states, dtype=np.float32)
    s, a, r, sn, done, ep = [], [], [], [], [], []
    for e in range(episodes):
        for i, reward in enumerate(rewards):
            s.append(eye[i])
            a.append(np.zeros(1, np.float32))
            r.append(reward * reward_scale)
            sn.append(eye[i + 1])
            done.append(i == len(rewards) - 1)
            ep.append(e)
    return data.Dataset(s, a, r, sn, done, ep)


def chain_q_oracle(rewards, gamma):
    """Exact values by backward Bellman recursion along the chain."""
    q = np.zeros(len(rewards))
    nxt = 0.0
    for i in reversed(range(len(rewards))):
        q[i] = rewards[i] + gamma * nxt
        nxt = q[i]
    return q


FAST = dict(iterations=10, steps_per_iteration=120, batch_size=128, hidden=(64, 64))


class StubQ:
    """Duck-typed stand-in whose values are an arbitrary function of (s, a)."""

    def __init__(self, fn):
        self.fn = fn

    def values(self, states, actions):
        return np.asarray(self.fn(np.asarray(states), np.asarray(actions)), dtype=np.float64)


def behavior_singleton(in_dim=2, a_dim=1, seed=5):
    model = adm.AdmModel(
        in_dim, a_dim, np.arange(a_dim),
        adm.NormStats(
            x_mean=np.zeros(in_dim, np.float32), x_std=np.ones(in_dim, np.float32),
            o_mean=np.zeros(a_dim, np.float32), o_std=np.ones(a_dim, np.float32),
        ),
        embed_width=16, head_hidden=(16, 8), rng=seed,
    )
    return adm.AdmEnsemble(members=[model], role="behavior", stats=model.stats)


def test_fqe_config_validation():
    with pytest.raises(ConfigError):
        value.FqeConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        value.FqeConfig(gamma=-0.1)
    with pytest.raises(ConfigError):
        value.FqeConfig(iterations=0)


def test_fqe_zero_rewards_give_zero_q():
    ds = chain_dataset(rewards=(0.0, 0.0, 0.0, 0.0), episodes=30)
    q = value.fqe_train(ds, value.FqeConfig(gamma=0.9, **FAST), seed=0)
    vals = q.values(ds.states, ds.actions)
    assert np.abs(vals).max() < 0.05


def test_fqe_absorbing_state_geometric_series():
    # geometric-series oracle: reward 1 forever at gamma 0.9 -> Q near 10
    n = 400
    s = np.zeros((n, 1), np.float32)
    a = np.zeros((n, 1), np.float32)
    ds = data.Dataset(s, a, np.ones(n), s, [i == n - 1 for i in range(n)], np.zeros(n))
    q = value.fqe_train(
        ds, value.FqeConfig(gamma=0.9, iterations=60, steps_per_iteration=40, batch_size=128, hidden=(32, 32)),
        seed=1,
    )
    got = q.values(np.zeros((1, 1)), np.zeros((1, 1)))[0]
    assert got == pytest.approx(10.0, rel=0.05)


def test_fqe_chain_matches_dynamic_programming():
    rewards = (1.0, 0.5, 2.0, 1.5)
    gamma = 0.5
    ds = chain_dataset(rewards)
    oracle = chain_q_oracle(rewards, gamma)
    q = value.fqe_train(ds, value.FqeConfig(gamma=gamma, **FAST), seed=2)
    got = q.values(np.eye(5, dtype=np.float32)[:4], np.zeros((4, 1)))
    for i, target in enumerate(oracle):
        assert got[i] == pytest.approx(target, rel=0.05), f"state {i}"


def test_fqe_iteration_deltas_contract():
    ds = chain_dataset()
    q = value.fqe_train(ds, value.FqeConfig(gamma=0.5, **FAST), seed=3)
    assert min(q.iteration_deltas) < 0.01
    assert q.iteration_deltas[-1] < 0.01


def test_fqe_full_passes_only_feed_iteration_deltas(monkeypatch):
    ds = chain_dataset(episodes=10)
    outputs = []
    original = value.QNetwork.values_flat

    def recording(self, x):
        out = original(self, x)
        outputs.append(out)
        return out

    monkeypatch.setattr(value.QNetwork, "values_flat", recording)
    small = dict(steps_per_iteration=5, batch_size=16, hidden=(8, 8))
    q = value.fqe_train(ds, value.FqeConfig(gamma=0.5, iterations=1, **small), seed=0)
    assert outputs == [] and q.iteration_deltas == []

    q = value.fqe_train(ds, value.FqeConfig(gamma=0.5, iterations=3, **small), seed=0)
    full = [out for out in outputs if len(out) == len(ds)]
    assert len(full) == 3 and len(outputs) == 5  # 3 full passes, 2 bootstrap-target passes
    assert q.iteration_deltas == [float(np.max(np.abs(b - a))) for a, b in zip(full, full[1:])]


def test_fqe_reward_scaling_is_linear():
    rewards = (1.0, 0.5, 2.0, 1.5)
    scale = 3.0
    q1 = value.fqe_train(chain_dataset(rewards), value.FqeConfig(gamma=0.5, **FAST), seed=4)
    q3 = value.fqe_train(
        chain_dataset(rewards, reward_scale=scale), value.FqeConfig(gamma=0.5, **FAST), seed=4
    )
    s, a = np.eye(5, dtype=np.float32)[:4], np.zeros((4, 1))
    for v1, v3 in zip(q1.values(s, a), q3.values(s, a)):
        assert v3 == pytest.approx(scale * v1, rel=0.10)


def test_fqe_respects_reward_transform():
    rewards = (1.0, 0.5, 2.0, 1.5)
    gamma = 0.5
    cfg = value.FqeConfig(
        gamma=gamma, reward_transform=lambda s, a, r: 2.0 * np.asarray(r), **FAST
    )
    q = value.fqe_train(chain_dataset(rewards), cfg, seed=5)
    oracle = chain_q_oracle(tuple(2 * r for r in rewards), gamma)
    got = q.values(np.eye(5, dtype=np.float32)[:4], np.zeros((4, 1)))
    for i, target in enumerate(oracle):
        assert got[i] == pytest.approx(target, rel=0.05)


def test_fqe_rejects_empty_and_pairless_datasets():
    empty = data.Dataset(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 2)), np.zeros(0, bool), np.zeros(0))
    with pytest.raises(DataError):
        value.fqe_train(empty, value.FqeConfig(**FAST))
    # every transition terminal: no (s, a, s', a') pairs anywhere
    s = np.zeros((4, 2), np.float32)
    pairless = data.Dataset(s, np.zeros((4, 1)), np.ones(4), s, np.ones(4, bool), np.arange(4))
    with pytest.raises(DataError):
        value.fqe_train(pairless, value.FqeConfig(**FAST))


def test_q_value_zero_network():
    net = nn.DenseNet([3, 8, 1], rng=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    q = value.QNetwork(net, np.zeros(3, np.float32), np.ones(3, np.float32))
    assert q.values(np.zeros((1, 2)), np.zeros((1, 1)))[0] == 0.0


def test_q_value_deterministic():
    net = nn.DenseNet([3, 8, 1], rng=1)
    q = value.QNetwork(net, np.zeros(3, np.float32), np.ones(3, np.float32))
    s, a = np.array([[0.1, -0.2]]), np.array([[0.3]])
    assert q.values(s, a)[0] == q.values(s, a)[0]


def test_v_estimate_constant_q():
    behavior = behavior_singleton()
    stub = StubQ(lambda s, a: np.full(len(s), 7.25))
    got = v_estimate(stub, behavior, np.zeros(2), k_q=16, rng=np.random.default_rng(0))
    assert got == pytest.approx(7.25, abs=1e-12)


def test_v_estimate_single_sample_equals_q_value():
    behavior = behavior_singleton()
    stub = StubQ(lambda s, a: a[:, 0].astype(np.float64) * 2.0 + 1.0)
    rng = np.random.default_rng(42)
    got = v_estimate(stub, behavior, np.zeros(2), k_q=1, rng=rng)
    # replay the identical draw sequence
    rng2 = np.random.default_rng(42)
    member = behavior.members[int(rng2.integers(1))]
    eps = rng2.standard_normal((1, 1))
    action = member.denormalize_o(
        member.sample_normalized(member.normalize_x(np.zeros(2, np.float32))[None, :], eps)
    )[0]
    assert got == pytest.approx(float(action[0]) * 2.0 + 1.0, rel=1e-9)


def test_v_estimate_matches_closed_form_gaussian_expectation():
    # E[w a + b] under a ~ N(mu, sigma^2); sampled mean within 3 standard errors
    behavior = behavior_singleton(seed=9)
    member = behavior.members[0]
    w, b = 3.0, -1.0
    stub = StubQ(lambda s, a: w * a[:, 0].astype(np.float64) + b)
    s = np.array([0.7, -0.3], np.float32)
    params = adm_gaussian_head(member, s, [])
    k_q = 10_000
    got = v_estimate(stub, behavior, s, k_q=k_q, rng=np.random.default_rng(8))
    expected = w * float(params.mean[0]) + b
    se = abs(w) * float(params.std[0]) / np.sqrt(k_q)
    assert abs(got - expected) < 3 * se


def test_v_estimate_shift_equivariance():
    behavior = behavior_singleton()
    base = StubQ(lambda s, a: np.sin(a[:, 0].astype(np.float64)))
    shifted = StubQ(lambda s, a: np.sin(a[:, 0].astype(np.float64)) + 4.5)
    v1 = v_estimate(base, behavior, np.zeros(2), k_q=32, rng=np.random.default_rng(3))
    v2 = v_estimate(shifted, behavior, np.zeros(2), k_q=32, rng=np.random.default_rng(3))
    assert v2 - v1 == pytest.approx(4.5, abs=1e-9)


def test_v_estimate_requires_positive_sample_count():
    with pytest.raises(ConfigError):
        planner.PlannerConfig(value_samples=0)


def test_q_checkpoint_round_trip(tmp_path):
    ds = chain_dataset(episodes=10)
    q = value.fqe_train(ds, value.FqeConfig(gamma=0.5, iterations=3, steps_per_iteration=30, batch_size=64, hidden=(16, 16)), seed=7)
    d1, d2 = tmp_path / "q1", tmp_path / "q2"
    value.save_q(q, d1)
    loaded = value.load_q(d1)
    value.save_q(loaded, d2)
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    probe_s, probe_a = np.eye(5, dtype=np.float32)[:3], np.zeros((3, 1), np.float32)
    np.testing.assert_array_equal(q.values(probe_s, probe_a), loaded.values(probe_s, probe_a))


def test_load_q_rejects_a_net_of_more_than_one_output(tmp_path):
    value.save_q(value.QNetwork(nn.DenseNet([6, 4, 2], rng=0), np.zeros(6), np.ones(6)), tmp_path)
    with pytest.raises(FormatError, match=r"checkpoint\.bin: holds a net with 2 outputs"):
        value.load_q(tmp_path)


def test_load_q_rejects_a_tanh_net_naming_its_file(tmp_path):
    net = nn.DenseNet([6, 4, 1], activation="tanh", rng=0)
    value.save_q(value.QNetwork(net, np.zeros(6), np.ones(6)), tmp_path)
    with pytest.raises(FormatError, match=r"checkpoint\.bin: holds a tanh net"):
        value.load_q(tmp_path)
