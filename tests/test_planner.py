import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopp import adm, nn, planner, value
from mopp.errors import ConfigError
from mopp.planner import ConstraintConfig, ModelBundle, PlannerConfig, prune_indices
from reference import v_estimate

NO_C = planner.NO_CONSTRAINTS


def identity_stats(in_dim, out_dim):
    return adm.NormStats(
        x_mean=np.zeros(in_dim, np.float32), x_std=np.ones(in_dim, np.float32),
        o_mean=np.zeros(out_dim, np.float32), o_std=np.ones(out_dim, np.float32),
    )


def fixed_output_model(in_dim, values, sigma_raw=-60.0, rng=0):
    """Heads emit a constant mean per dimension with near-minimal std."""
    values = np.asarray(values, dtype=np.float32)
    model = adm.AdmModel(
        in_dim, len(values), np.arange(len(values)), identity_stats(in_dim, len(values)),
        embed_width=8, head_hidden=(8,), rng=rng,
    )
    for i, head in enumerate(model.heads):
        for w in head.weights:
            w[:] = 0.0
        for b in head.biases:
            b[:] = 0.0
        head.biases[-1][:] = np.array([values[i], sigma_raw], np.float32)
    return model


def random_model(in_dim, out_dim, rng, sigma_raw=0.0):
    model = adm.AdmModel(
        in_dim, out_dim, np.random.default_rng(rng).permutation(out_dim),
        identity_stats(in_dim, out_dim), embed_width=12, head_hidden=(12,), rng=rng,
    )
    return model


def toy_bundle(state_dim=3, action_dim=2, reward=0.5, drift=0.1, behavior=0.25, k1=2, q=None):
    """Dynamics push every state dimension by ``drift``; behavior means are constant."""
    dyn_out = [reward] + [drift] * state_dim
    members = [fixed_output_model(state_dim + action_dim, dyn_out, rng=j) for j in range(k1)]
    dynamics = adm.AdmEnsemble(members=members, role="dynamics", stats=members[0].stats)
    bmodel = fixed_output_model(state_dim, [behavior] * action_dim)
    behav = adm.AdmEnsemble(members=[bmodel, bmodel], role="behavior", stats=bmodel.stats)
    return ModelBundle(dynamics=dynamics, behavior=behav, q=q)


class StubQ:
    def __init__(self, fn):
        self.fn = fn

    def values(self, states, actions):
        return np.asarray(self.fn(np.asarray(states), np.asarray(actions)), dtype=np.float64)


def draw_layout(rng, cfg, n, action_dim, k1, k2):
    """Every random array of n rollouts, drawn in the planner's documented order."""
    m = cfg.candidates if cfg.use_max_q else 1
    arrays = [
        rng.integers(k2, size=(n, cfg.horizon)),  # behavior members
        rng.standard_normal((n, cfg.horizon, m, action_dim)),  # candidate eps
        rng.integers(k1, size=(n, cfg.horizon)),  # dynamics members
    ]
    if cfg.use_value:
        arrays.append(rng.integers(k2, size=n))  # value member
        arrays.append(rng.standard_normal((n, cfg.value_samples, action_dim)))  # value eps
    return arrays


class RowReplay:
    """Stands in for a Generator: hands out row ``i`` of pre-drawn arrays, in draw order."""

    def __init__(self, arrays, i):
        self._rows = iter([a[i : i + 1] for a in arrays])

    def integers(self, high, size=None):
        row = next(self._rows)
        return row.item() if size is None else row.reshape(size)

    def standard_normal(self, shape):
        return next(self._rows).reshape(shape)


# --- scale_std ---


def test_scale_std_max_already_at_target():
    np.testing.assert_allclose(planner.scale_std([0.2, 0.4], 0.4), [0.2, 0.4], rtol=1e-12)


def test_scale_std_forced_rescale():
    np.testing.assert_allclose(planner.scale_std([1.0, 2.0, 4.0], 0.5), [0.125, 0.25, 0.5], rtol=1e-12)


def test_scale_std_degenerate_rule():
    np.testing.assert_allclose(planner.scale_std([0.0, 0.0], 0.3), [0.3, 0.3])


def test_scale_std_rejects_nonpositive_target():
    with pytest.raises(ConfigError):
        planner.scale_std([0.1], 0.0)


def test_scale_std_preserves_ratios_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sigma = rng.uniform(0.01, 3.0, size=rng.integers(1, 6))
        target = rng.uniform(0.05, 2.0)
        out = planner.scale_std(sigma, target)
        assert out.max() == pytest.approx(target, rel=1e-9)
        np.testing.assert_allclose(out / out.max(), sigma / sigma.max(), rtol=1e-9)


# --- guided actions ---


def test_guided_action_single_candidate_is_plain_sample():
    member = random_model(3, 2, rng=1)
    cfg = PlannerConfig(horizon=1, candidates=7, use_max_q=False, sigma_scale=0.4, n_rollouts=1)
    s = np.array([[0.1, -0.2, 0.3]], np.float32)
    eps = np.random.default_rng(5).standard_normal((1, 1, 2))
    got = planner._guided_actions(s, [member], np.zeros(1, int), None, cfg, eps)
    mu, sigma = adm.behavior_action_distribution_batch(member, s)
    expected = mu + planner.scale_std(sigma, 0.4) * eps[0]
    np.testing.assert_allclose(got, expected, rtol=1e-6)


def test_guided_action_argmax_matches_brute_force():
    member = random_model(3, 2, rng=2)
    q = StubQ(lambda s, a: a[:, 0])  # prefer the largest first coordinate
    cfg = PlannerConfig(horizon=1, candidates=64, use_max_q=True, sigma_scale=0.6, n_rollouts=1)
    s = np.array([[0.5, 0.1, -0.4]], np.float32)
    eps = np.random.default_rng(9).standard_normal((1, 64, 2))
    got = planner._guided_actions(s, [member], np.zeros(1, int), q, cfg, eps)
    mu, sigma = adm.behavior_action_distribution_batch(member, s)
    cands = mu + planner.scale_std(sigma, 0.6) * eps[0]
    brute = cands[int(np.argmax(cands[:, 0]))]
    np.testing.assert_allclose(got[0], brute, rtol=1e-6)


def test_guided_action_invariant_under_monotone_q_transform():
    member = random_model(3, 2, rng=3)
    base = StubQ(lambda s, a: np.cos(a[:, 0]) + a[:, 1])
    mono = StubQ(lambda s, a: 2.0 * (np.cos(a[:, 0]) + a[:, 1]) + 7.0)
    cfg = PlannerConfig(horizon=1, candidates=16, sigma_scale=0.5, n_rollouts=1)
    s = np.zeros((1, 3), np.float32)
    eps = np.random.default_rng(4).standard_normal((1, 16, 2))
    a1 = planner._guided_actions(s, [member], np.zeros(1, int), base, cfg, eps)
    a2 = planner._guided_actions(s, [member], np.zeros(1, int), mono, cfg, eps)
    np.testing.assert_array_equal(a1, a2)


def guided_from_eps_per_member(states, member, q, cfg, eps):
    """Oracle: one member's candidates for every row, scored by a Q call of its own."""
    n, m, a_dim = eps.shape
    mu, sigma = adm.behavior_action_distribution_batch(member, states)
    sigma = sigma.astype(np.float64) * (cfg.sigma_scale / sigma.max(axis=1, keepdims=True))
    cands = mu[:, None, :] + sigma[:, None, :] * eps
    if not cfg.use_max_q or q is None or m == 1:
        return cands[:, 0, :].astype(np.float32)
    qv = q.values(np.repeat(states, m, axis=0), cands.reshape(n * m, a_dim)).reshape(n, m)
    return cands[np.arange(n), np.argmax(qv, axis=1)].astype(np.float32)


@pytest.mark.parametrize("use_max_q", [True, False])
def test_merged_q_guided_actions_match_per_member_oracle(use_max_q):
    members = [random_model(3, 2, rng=j, sigma_raw=0.0) for j in (11, 12, 13)]
    q = StubQ(lambda s, a: np.sin(3.0 * a[:, 0]) + a[:, 1] * s[:, 0])
    cfg = PlannerConfig(horizon=1, candidates=6, sigma_scale=0.7, n_rollouts=1, use_max_q=use_max_q)
    rng = np.random.default_rng(5)
    n = 40
    states = rng.normal(size=(n, 3)).astype(np.float32)
    member_idx = rng.integers(3, size=n)
    eps = rng.standard_normal((n, cfg.candidates if use_max_q else 1, 2))
    got = planner._guided_actions(states, members, member_idx, q, cfg, eps)
    want = np.zeros((n, 2), np.float32)
    for k, member in enumerate(members):
        rows = np.flatnonzero(member_idx == k)
        want[rows] = guided_from_eps_per_member(states[rows], member, q, cfg, eps[rows])
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)


# --- rollout ---


def test_rollout_beta_one_follows_shifted_plan_exactly():
    bundle = toy_bundle()
    cfg = PlannerConfig(horizon=3, beta=1.0, use_value=False, use_max_q=False, n_rollouts=1, sigma_scale=0.5)
    plan = np.arange(6, dtype=np.float32).reshape(3, 2)
    s0 = np.zeros((1, 3), np.float32)
    actions, *_ = planner._rollout_batch(s0, bundle, plan, cfg, NO_C, np.random.default_rng(0))
    expected = np.stack([plan[1], plan[2], plan[2]])  # A*_{t+1}, tail repeats last
    np.testing.assert_array_equal(actions[0], expected)


def test_rollout_beta_zero_ignores_plan():
    bundle = toy_bundle()
    cfg = PlannerConfig(horizon=3, beta=0.0, use_value=False, use_max_q=False, n_rollouts=1, sigma_scale=0.5)
    plan_a = np.zeros((3, 2), np.float32)
    plan_b = np.full((3, 2), 9.0, np.float32)
    s0 = np.zeros((1, 3), np.float32)
    a1, *_ = planner._rollout_batch(s0, bundle, plan_a, cfg, NO_C, np.random.default_rng(1))
    a2, *_ = planner._rollout_batch(s0, bundle, plan_b, cfg, NO_C, np.random.default_rng(1))
    np.testing.assert_array_equal(a1, a2)


def test_rollout_identical_members_zero_uncertainty():
    bundle = toy_bundle(k1=3)
    cfg = PlannerConfig(horizon=4, use_value=False, use_max_q=False, n_rollouts=1, sigma_scale=0.5)
    s0, plan = np.zeros((1, 3), np.float32), planner.initial_plan(4, 2)
    _, _, u, _, _ = planner._rollout_batch(s0, bundle, plan, cfg, NO_C, np.random.default_rng(2))
    np.testing.assert_array_equal(u, np.zeros((1, 4)))


def test_rollout_accumulates_mean_reward_and_steps_dynamics():
    bundle = toy_bundle(reward=0.5, drift=0.1)
    cfg = PlannerConfig(horizon=4, use_value=False, use_max_q=False, n_rollouts=1, sigma_scale=0.5)
    s0, plan = np.zeros((1, 3), np.float32), planner.initial_plan(4, 2)
    _, returns, _, final, alive = planner._rollout_batch(s0, bundle, plan, cfg, NO_C, np.random.default_rng(3))
    assert returns[0] == pytest.approx(4 * 0.5, abs=1e-5)
    np.testing.assert_allclose(final[0], s0[0] + 0.1, atol=1e-6)  # constant heads: s' fixed
    assert alive[0]


def test_rollout_applies_reward_transform_and_penalty():
    bundle = toy_bundle(reward=1.0)
    cfg = PlannerConfig(horizon=3, use_value=False, use_max_q=False, n_rollouts=1, sigma_scale=0.5)
    constraints = ConstraintConfig(
        reward_transform=lambda s, a, r: 0.5 * np.asarray(r),
        rollout_penalty=lambda s, a: np.full(len(s), 0.75),
    )
    _, returns, u, _, _ = planner._rollout_batch(
        np.zeros((1, 3), np.float32), bundle, planner.initial_plan(3, 2), cfg, constraints, np.random.default_rng(4)
    )
    assert returns[0] == pytest.approx(3 * 0.5, abs=1e-5)
    np.testing.assert_allclose(u, 0.75, atol=1e-6)  # identical members: disc 0 + penalty


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rollout_nonfinite_dynamics_flags_remaining_steps():
    bundle = toy_bundle()
    # poison one dynamics member so its predictions overflow to non-finite
    for w in bundle.dynamics.members[0].embed_net.weights:
        w[:] = np.float32(1e30)
    for head in bundle.dynamics.members[0].heads:
        head.weights[0][:] = np.float32(1e30)
    cfg = PlannerConfig(horizon=4, use_value=False, use_max_q=False, n_rollouts=1, sigma_scale=0.5)
    actions, returns, u, final, alive = planner._rollout_batch(
        np.ones((1, 3), np.float32), bundle, planner.initial_plan(4, 2), cfg, NO_C, np.random.default_rng(5)
    )
    assert np.isfinite(returns[0])
    assert np.all(np.isfinite(final)) and np.all(np.isfinite(actions))
    np.testing.assert_array_equal(final[0], 1.0)  # frozen at the start state
    assert not alive[0]
    assert np.all(np.isinf(u))  # poisoned from the first step on
    assert actions.shape == (1, 4, 2)


def test_rollout_value_bonus_matches_v_estimate_replay():
    q = StubQ(lambda s, a: s[:, 0].astype(np.float64) + a[:, 1].astype(np.float64))
    bundle = toy_bundle(q=q)
    cfg = PlannerConfig(horizon=2, use_max_q=False, use_value=True, value_samples=6, n_rollouts=1, sigma_scale=0.5)
    s0, plan = np.zeros((1, 3), np.float32), planner.initial_plan(2, 2)
    _, _, diag = planner.plan_step(s0[0], bundle, cfg, NO_C, plan, seed=(77,))

    replay = np.random.default_rng([77])
    _, base_ret, _, final, _ = planner._rollout_batch(s0, bundle, plan, cfg, NO_C, replay)
    # the rollout drew behavior members (1, H), eps (1, H, 1, |A|) and
    # dynamics members (1, H); the value draws follow from the same Generator
    np.testing.assert_allclose(final[0], 0.1, atol=1e-6)  # constant drift lands every state at 0.1
    bonus = v_estimate(q, bundle.behavior, final[0], 6, replay)
    assert diag.return_mean == pytest.approx(base_ret[0] + bonus, rel=1e-6)


# --- pruning ---


def brute_force_prune(u, threshold, n_min):
    n = u.shape[0]
    under = [i for i in range(n) if np.all(u[i] < threshold)]
    if len(under) >= n_min:
        return sorted(under)
    rest = [i for i in range(n) if i not in under]
    rest.sort(key=lambda i: (u[i].sum(), i))
    return sorted(under + rest[: n_min - len(under)])


def test_prune_full_survival_returns_everything():
    u = np.full((5, 3), 0.1)
    np.testing.assert_array_equal(prune_indices(u, 1.0, 2), np.arange(5))


def test_prune_backfills_lowest_cumulative():
    u = np.array([[10.0 - i] for i in range(10)])  # sums 10, 9, ..., 1
    keep = prune_indices(u, 0.5, 2)
    np.testing.assert_array_equal(keep, [8, 9])


def test_prune_no_backfill_when_enough_survive():
    u = np.array([[0.1], [0.2], [0.3], [5.0]])
    keep = prune_indices(u, 1.0, 2)
    np.testing.assert_array_equal(keep, [0, 1, 2])


def test_prune_rejects_bad_minimum():
    with pytest.raises(ConfigError):
        prune_indices(np.zeros((3, 2)), 1.0, 4)
    with pytest.raises(ConfigError):
        prune_indices(np.zeros((3, 2)), 1.0, 0)


@given(
    n=st.integers(1, 64),
    h=st.integers(1, 16),
    seed=st.integers(0, 99_999),
)
@settings(max_examples=120, deadline=None)
def test_prune_matches_brute_force(n, h, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, 1, size=(n, h))
    threshold = float(rng.uniform(0.05, 1.05))
    n_min = int(rng.integers(1, n + 1))
    got = prune_indices(u, threshold, n_min).tolist()
    assert got == brute_force_prune(u, threshold, n_min)


# --- MPPI ---


def test_mppi_single_trajectory_returned_exactly():
    actions = np.random.default_rng(0).normal(size=(1, 4, 2)).astype(np.float32)
    plan = planner.mppi_update(actions, np.array([3.0]), kappa=2.0)
    np.testing.assert_allclose(plan, actions[0], rtol=1e-6)


def test_mppi_zero_kappa_is_arithmetic_mean():
    actions = np.zeros((2, 1, 1), np.float32)
    actions[0, 0, 0], actions[1, 0, 0] = 0.0, 2.0
    plan = planner.mppi_update(actions, np.array([123.0, -55.0]), kappa=0.0)
    assert plan[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_mppi_matches_direct_softmax_evaluation():
    actions = np.zeros((2, 1, 1), np.float32)
    actions[0, 0, 0], actions[1, 0, 0] = 1.0, -1.0
    plan = planner.mppi_update(actions, np.array([10.0, 0.0]), kappa=5.0)
    w = np.exp(np.array([50.0, 0.0]) - 50.0)
    expected = (w[0] * 1.0 + w[1] * -1.0) / w.sum()
    assert plan[0, 0] == pytest.approx(expected, rel=1e-6)
    assert plan[0, 0] == pytest.approx(1.0 - 2e-22, rel=1e-6)


def test_mppi_shift_and_permutation_invariance():
    rng = np.random.default_rng(1)
    actions = rng.normal(size=(6, 3, 2))
    returns = rng.normal(size=6)
    base = planner.mppi_update(actions, returns, kappa=1.7)
    shifted = planner.mppi_update(actions, returns + 1234.5, kappa=1.7)
    np.testing.assert_allclose(shifted, base, atol=1e-9)
    perm = rng.permutation(6)
    permuted = planner.mppi_update(actions[perm], returns[perm], kappa=1.7)
    np.testing.assert_allclose(permuted, base, atol=1e-9)


def test_mppi_rejects_empty():
    with pytest.raises(ValueError):
        planner.mppi_update(np.zeros((0, 2, 1)), np.zeros(0), kappa=1.0)
    with pytest.raises(ValueError):
        planner.mppi_update([], [], kappa=1.0)


# --- plan_step ---


def test_plan_step_equals_manual_composition():
    bundle = toy_bundle(k1=2, q=StubQ(lambda s, a: a.sum(axis=1)))
    cfg = PlannerConfig(horizon=3, n_rollouts=8, candidates=4, value_samples=5, sigma_scale=0.5,
                        uncertainty_threshold=0.5, kappa=2.0)
    state = np.array([0.2, -0.1, 0.4], np.float32)
    plan0 = planner.initial_plan(3, 2)
    action, new_plan, diag = planner.plan_step(state, bundle, cfg, NO_C, plan0, seed=(17, 3))

    # one Generator keyed by the seed draws every rollout's randomness as
    # arrays; rollout n replays row n of them through the N = 1 path, then
    # the kept, alive rows take their value tail from the same rows
    draws = draw_layout(np.random.default_rng([17, 3]), cfg, cfg.n_rollouts, 2, 2, 2)
    replays = [RowReplay(draws, n) for n in range(cfg.n_rollouts)]
    rows = [
        planner._rollout_batch(state[None, :], bundle, plan0, cfg, NO_C, replays[n])
        for n in range(cfg.n_rollouts)
    ]
    actions, returns, us, finals, alive = (np.concatenate([r[i] for r in rows]) for i in range(5))
    keep = prune_indices(us, cfg.uncertainty_threshold, cfg.n_min)
    for n in keep[alive[keep]]:
        v_members = replays[n].integers(2, size=1)
        v_eps = replays[n].standard_normal((1, cfg.value_samples, 2))
        returns[n] += planner._value_tail(finals[n : n + 1], bundle.behavior, bundle.q, v_members, v_eps)[0]
    manual_plan = planner.mppi_update(actions[keep], returns[keep], cfg.kappa)
    np.testing.assert_allclose(new_plan, manual_plan, atol=1e-6)
    np.testing.assert_allclose(action, manual_plan[0], atol=1e-6)
    assert diag.surviving == len(keep)
    assert diag.return_mean == pytest.approx(returns[keep].mean(), rel=1e-6)
    assert diag.return_max == pytest.approx(returns[keep].max(), rel=1e-6)


def random_bundle():
    """3 disagreeing random dynamics members, 3 random behavior members and a random Q net (|S| 3, |A| 2)."""
    dyn = [random_model(5, 4, rng=20 + j) for j in range(3)]
    beh = [random_model(3, 2, rng=30 + j) for j in range(3)]
    return ModelBundle(
        dynamics=adm.AdmEnsemble(members=dyn, role="dynamics", stats=dyn[0].stats),
        behavior=adm.AdmEnsemble(members=beh, role="behavior", stats=beh[0].stats),
        q=value.QNetwork(nn.DenseNet([5, 16, 1], rng=5), np.zeros(5), np.ones(5)),
    )


def plan_step_tail_on_all_rows(state, bundle, config, constraints, plan, seed):
    """Oracle plan step: value tail on every live rollout, then prune, then MPPI.

    Each live row's tail is the single-state definition ``v_estimate``,
    replaying that row of the value draws. Returns (plan, returns, kept
    indices, alive mask).
    """
    n = config.n_rollouts
    rng = np.random.default_rng(list(seed))
    starts = np.broadcast_to(state, (n, len(state)))
    actions, returns, u, final, alive = planner._rollout_batch(starts, bundle, plan, config, constraints, rng)
    if config.use_value:
        v_draws = [
            rng.integers(bundle.behavior.k, size=n),
            rng.standard_normal((n, config.value_samples, bundle.behavior.output_dim)),
        ]
        for r in np.flatnonzero(alive):
            v = v_estimate(bundle.q, bundle.behavior, final[r], config.value_samples, RowReplay(v_draws, r))
            returns[r] += v if np.isfinite(v) else 0.0
    keep = prune_indices(u, config.uncertainty_threshold, config.n_min) if config.use_pruning else np.arange(n)
    return planner.mppi_update(actions[keep], returns[keep], config.kappa), returns, keep, alive


def kill_positive_first_action(s, a):
    """Rollout penalty that ends (infinite uncertainty) every rollout whose action has a[0] > 1."""
    return np.where(np.asarray(a)[:, 0] > 1.0, np.inf, 0.0)


# planner settings and hooks: (PlannerConfig overrides, constraints)
PRUNING_CASES = {
    "backfill": (dict(uncertainty_threshold=1e-30), NO_C),
    "threshold": (dict(uncertainty_threshold=1.5), NO_C),
    "dead_rows_kept": (dict(uncertainty_threshold=1e-30, n_min=80),
                       ConstraintConfig(rollout_penalty=kill_positive_first_action)),
    "no_pruning": (dict(use_pruning=False), NO_C),
}


@pytest.mark.parametrize("case", sorted(PRUNING_CASES))
@pytest.mark.parametrize("seed", [(0, 0), (3, 7)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_plan_step_matches_tail_on_all_rows_oracle(case, seed):
    bundle = random_bundle()
    overrides, constraints = PRUNING_CASES[case]
    cfg = PlannerConfig(sigma_scale=0.6, **overrides)
    state = np.array([0.3, -0.2, 0.1], np.float32)
    plan0 = np.random.default_rng(1).normal(size=(cfg.horizon, 2)).astype(np.float32)
    _, got, diag = planner.plan_step(state, bundle, cfg, constraints, plan0, seed=seed)
    want, returns, keep, alive = plan_step_tail_on_all_rows(state, bundle, cfg, constraints, plan0, seed)
    if case == "dead_rows_kept":
        assert 0 < alive[keep].sum() < keep.size
    elif cfg.use_pruning:
        assert 0 < keep.size < cfg.n_rollouts
    assert diag.surviving == keep.size
    # diagnostics describe the returns MPPI weighs: those of the kept rollouts
    assert diag.return_mean == pytest.approx(returns[keep].mean(), rel=1e-6)
    assert diag.return_max == pytest.approx(returns[keep].max(), rel=1e-6)
    # only GEMM row counts differ between the two, so the plans agree to rounding
    tol = 64 * np.finfo(np.float32).eps
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_plan_step_calls_q_once_per_horizon_step_and_once_for_the_tail(monkeypatch):
    # default planner shape with 3 behavior members: a per-member Q call
    # would make (H + 1) * k2 = 15 calls instead of H + 1 = 5; the tail
    # scores only the rollouts that survive pruning and are still alive
    bundle = random_bundle()
    calls, seen = [], {}
    real_values, real_rollout, real_prune = value.QNetwork.values, planner._rollout_batch, planner.prune_indices

    def counting(self, states, actions):
        calls.append(len(states))
        return real_values(self, states, actions)

    def rollout(*args):
        out = real_rollout(*args)
        seen["alive"] = out[4].copy()
        return out

    def prune(*args):
        seen["keep"] = real_prune(*args)
        return seen["keep"]

    monkeypatch.setattr(value.QNetwork, "values", counting)
    monkeypatch.setattr(planner, "_rollout_batch", rollout)
    monkeypatch.setattr(planner, "prune_indices", prune)
    state = np.array([0.3, -0.2, 0.1], np.float32)
    for case, (overrides, constraints) in PRUNING_CASES.items():
        cfg = PlannerConfig(sigma_scale=0.6, **overrides)
        n, m, k_q = cfg.n_rollouts, cfg.candidates, cfg.value_samples
        calls.clear()
        seen["keep"] = np.arange(n)
        planner.plan_step(state, bundle, cfg, constraints, planner.initial_plan(4, 2), seed=1)
        tail_rows = int(seen["alive"][seen["keep"]].sum())
        assert len(calls) == cfg.horizon + 1 and calls[0] == n * m, case
        if constraints is NO_C:  # no rollout ends early: every horizon step scores all N rows
            assert calls[: cfg.horizon] == [n * m] * cfg.horizon, case
        assert calls[-1] == k_q * tail_rows, case
        if cfg.use_pruning:
            assert tail_rows < n, case
        else:
            assert calls[-1] == n * k_q, case


def test_plan_step_deterministic():
    bundle = toy_bundle()
    cfg = PlannerConfig(horizon=2, n_rollouts=6, use_max_q=False, use_value=False, sigma_scale=0.5)
    s = np.zeros(3, np.float32)
    p = planner.initial_plan(2, 2)
    a1, plan1, _ = planner.plan_step(s, bundle, cfg, NO_C, p, seed=5)
    a2, plan2, _ = planner.plan_step(s, bundle, cfg, NO_C, p, seed=5)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(plan1, plan2)


def test_plan_step_vanishing_noise_imitates_behavior():
    bundle = toy_bundle(behavior=0.25)
    cfg = PlannerConfig(horizon=1, n_rollouts=4, use_max_q=False, use_value=False,
                        sigma_scale=nn.SIGMA_MIN, beta=0.0)
    action, _, _ = planner.plan_step(np.zeros(3, np.float32), bundle, cfg, NO_C,
                                     planner.initial_plan(1, 2), seed=3)
    assert np.all(np.abs(action - 0.25) < 4 * nn.SIGMA_MIN)


def test_plan_step_pruning_noop_when_everything_survives():
    bundle = toy_bundle(k1=2)
    common = dict(horizon=3, n_rollouts=6, use_max_q=False, use_value=False, sigma_scale=0.5,
                  uncertainty_threshold=1e9)
    with_prune = PlannerConfig(use_pruning=True, n_min=6, **common)
    without = PlannerConfig(use_pruning=False, **common)
    s = np.full(3, 0.1, np.float32)
    p = planner.initial_plan(3, 2)
    a1, plan1, d1 = planner.plan_step(s, bundle, with_prune, NO_C, p, seed=8)
    a2, plan2, d2 = planner.plan_step(s, bundle, without, NO_C, p, seed=8)
    np.testing.assert_array_equal(plan1, plan2)
    assert d1.surviving == d2.surviving == 6


def test_plan_step_backfill_to_full_count_equals_no_pruning():
    # members disagree, so a tiny threshold rejects everything; n_min = N
    # forces the backfill branch to keep the whole set
    members = [random_model(6, 5, rng=j) for j in range(2)]
    dynamics = adm.AdmEnsemble(members=members, role="dynamics", stats=members[0].stats)
    bmodel = fixed_output_model(4, [0.2, -0.1])
    behavior = adm.AdmEnsemble(members=[bmodel], role="behavior", stats=bmodel.stats)
    bundle = ModelBundle(dynamics=dynamics, behavior=behavior, q=None)
    common = dict(horizon=2, n_rollouts=5, use_max_q=False, use_value=False, sigma_scale=0.5,
                  uncertainty_threshold=1e-30)
    with_prune = PlannerConfig(use_pruning=True, n_min=5, **common)
    without = PlannerConfig(use_pruning=False, **common)
    s = np.full(4, 0.1, np.float32)
    p = planner.initial_plan(2, 2)
    _, plan1, d1 = planner.plan_step(s, bundle, with_prune, NO_C, p, seed=12)
    _, plan2, d2 = planner.plan_step(s, bundle, without, NO_C, p, seed=12)
    np.testing.assert_array_equal(plan1, plan2)
    assert d1.surviving == d2.surviving == 5


def test_planner_config_validation():
    with pytest.raises(ConfigError):
        PlannerConfig(horizon=0)
    with pytest.raises(ConfigError):
        PlannerConfig(kappa=0.0)
    with pytest.raises(ConfigError):
        PlannerConfig(beta=1.5)
    with pytest.raises(ConfigError):
        PlannerConfig(sigma_scale=-0.1)
    with pytest.raises(ConfigError):
        PlannerConfig(n_rollouts=10, n_min=11)
    assert PlannerConfig(n_rollouts=50).n_min == 10  # default 0.2 N
    assert PlannerConfig(n_rollouts=3).n_min == 1


def test_one_candidate_turns_max_q_selection_off_and_plans_without_q():
    one = PlannerConfig(horizon=2, n_rollouts=4, sigma_scale=0.3, candidates=1, use_value=False)
    off = PlannerConfig(horizon=2, n_rollouts=4, sigma_scale=0.3, use_max_q=False, use_value=False)
    assert one.use_max_q is False
    state, plan = np.zeros(3, np.float32), planner.initial_plan(2, 2)
    got = planner.plan_step(state, toy_bundle(), one, NO_C, plan, seed=3)
    want = planner.plan_step(state, toy_bundle(), off, NO_C, plan, seed=3)
    np.testing.assert_array_equal(got[1], want[1])


# --- run_episode ---


class QuadraticCostEnv:
    """Reward is -||a||^2; state drifts slightly. Done at the step cap."""

    def __init__(self, max_steps=10, violation=lambda s, a: False):
        from mopp.envs import EnvSpec

        self.spec = EnvSpec(
            state_dim=3, action_dim=2,
            action_low=np.array([-1.0, -1.0], np.float32),
            action_high=np.array([1.0, 1.0], np.float32),
            max_steps=max_steps,
        )
        self.violation = violation
        self._t = 0
        self._s = np.zeros(3)

    def reset(self, seed=0):
        self._t = 0
        self._s = np.zeros(3)
        return self._s.copy()

    def step(self, action):
        a = np.clip(action, -1, 1)
        self._t += 1
        self._s = self._s + 0.01
        return self._s.copy(), -float(a @ a), self._t >= self.spec.max_steps


def test_run_episode_zero_action_behavior_gives_near_zero_return():
    env = QuadraticCostEnv(max_steps=10)
    bundle = toy_bundle(behavior=0.0, reward=0.0, drift=0.01)
    cfg = PlannerConfig(horizon=2, n_rollouts=4, use_max_q=False, use_value=False,
                        sigma_scale=nn.SIGMA_MIN)
    result = planner.run_episode(env, bundle, cfg, seed=0)
    assert result.steps == 10
    assert abs(result.ret) < 1e-3


def test_run_episode_deterministic():
    env1, env2 = QuadraticCostEnv(), QuadraticCostEnv()
    bundle = toy_bundle()
    cfg = PlannerConfig(horizon=2, n_rollouts=4, use_max_q=False, use_value=False, sigma_scale=0.3)
    r1 = planner.run_episode(env1, bundle, cfg, seed=21)
    r2 = planner.run_episode(env2, bundle, cfg, seed=21)
    assert r1.ret == r2.ret
    assert r1.steps == r2.steps
    assert r1.violations == r2.violations


def test_run_episode_counts_violations():
    env = QuadraticCostEnv(max_steps=5, violation=lambda s, a: bool(a[0] > 0.1))
    bundle = toy_bundle(behavior=0.5)
    cfg = PlannerConfig(horizon=1, n_rollouts=3, use_max_q=False, use_value=False, sigma_scale=0.01)
    result = planner.run_episode(env, bundle, cfg, seed=2)
    assert result.violations == 5


def test_run_episode_dimension_mismatch():
    env = QuadraticCostEnv()
    bundle = toy_bundle(state_dim=4)
    cfg = PlannerConfig(horizon=1, n_rollouts=2, use_max_q=False, use_value=False)
    with pytest.raises(ConfigError):
        planner.run_episode(env, bundle, cfg, seed=0)


@pytest.mark.parametrize("model", ["dynamics", "behavior", "q"])
def test_run_episode_names_a_model_whose_input_width_does_not_fit_the_env(model):
    bundle = toy_bundle()  # fits QuadraticCostEnv: |S| = 3, |A| = 2
    if model == "dynamics":
        members = [fixed_output_model(6, [0.5, 0.1, 0.1, 0.1], rng=j) for j in range(2)]
        bundle.dynamics = adm.AdmEnsemble(members=members, role="dynamics", stats=members[0].stats)
        needles = ("dynamics model", "input width 6", "|S|+|A| = 5")
    elif model == "behavior":
        member = fixed_output_model(4, [0.25, 0.25])
        bundle.behavior = adm.AdmEnsemble(members=[member, member], role="behavior", stats=member.stats)
        needles = ("behavior model", "input width 4", "|S| = 3")
    else:
        bundle.q = value.QNetwork(nn.DenseNet([6, 4, 1], rng=0), np.zeros(6), np.ones(6))
        needles = ("Q network", "input width 6", "|S|+|A| = 5")
        unread = PlannerConfig(horizon=1, n_rollouts=2, use_max_q=False, use_value=False)
        assert planner.run_episode(QuadraticCostEnv(max_steps=2), bundle, unread, seed=0).steps == 2
    cfg = PlannerConfig(horizon=1, n_rollouts=2, candidates=3, use_max_q=model == "q", use_value=False)
    with pytest.raises(ConfigError) as info:
        planner.run_episode(QuadraticCostEnv(), bundle, cfg, seed=0)
    assert all(needle in str(info.value) for needle in needles)


@pytest.mark.parametrize("toggles, needs_q", [({}, "use_max_q"), ({"use_max_q": False}, "use_value")])
def test_planning_without_q_names_the_toggle_that_needs_it(toggles, needs_q):
    bundle = toy_bundle()
    cfg = PlannerConfig(horizon=2, n_rollouts=4, sigma_scale=0.3, **toggles)
    with pytest.raises(ConfigError, match=needs_q):
        planner.plan_step(np.zeros(3, np.float32), bundle, cfg, NO_C, planner.initial_plan(2, 2), seed=0)
    with pytest.raises(ConfigError, match=needs_q):
        planner.run_episode(QuadraticCostEnv(), bundle, cfg, seed=0)


def test_uncertainty_threshold_percentiles_ordered():
    rng = np.random.default_rng(0)
    from mopp import data as data_mod

    states = rng.normal(size=(300, 3)).astype(np.float32)
    actions = rng.normal(size=(300, 2)).astype(np.float32)
    ds = data_mod.Dataset(states, actions, np.zeros(300), states, np.zeros(300, bool), np.zeros(300))
    members = [random_model(5, 4, rng=j) for j in range(2)]
    dyn = adm.AdmEnsemble(members=members, role="dynamics", stats=members[0].stats)
    lo = planner.uncertainty_threshold_from_data(dyn, ds, 50.0)
    hi = planner.uncertainty_threshold_from_data(dyn, ds, 95.0)
    assert 0 <= lo <= hi


def test_uncertainty_threshold_is_floored_when_members_agree():
    rng = np.random.default_rng(0)
    from mopp import data as data_mod

    states = rng.normal(size=(50, 3)).astype(np.float32)
    actions = rng.normal(size=(50, 2)).astype(np.float32)
    ds = data_mod.Dataset(states, actions, np.zeros(50), states, np.zeros(50, bool), np.zeros(50))
    member = random_model(5, 4, rng=0)
    dyn = adm.AdmEnsemble(members=[member, member], role="dynamics", stats=member.stats)
    assert planner.uncertainty_threshold_from_data(dyn, ds) == planner.AUTO_FLOOR


def test_all_toggles_off_degrades_to_behavior_guided_mppi():
    # independent reference: sample one behavior action per step with scaled
    # std, roll the drawn dynamics member, average everything with MPPI
    members = [random_model(6, 5, rng=j + 3) for j in range(2)]
    dynamics = adm.AdmEnsemble(members=members, role="dynamics", stats=members[0].stats)
    bmodel = random_model(4, 2, rng=9)
    behavior = adm.AdmEnsemble(members=[bmodel, random_model(4, 2, rng=10)], role="behavior", stats=bmodel.stats)
    bundle = ModelBundle(dynamics=dynamics, behavior=behavior, q=None)
    cfg = PlannerConfig(
        horizon=3, n_rollouts=5, kappa=2.0, sigma_scale=0.3,
        use_max_q=False, use_pruning=False, use_value=False,
    )
    state = np.full(4, 0.2, np.float32)
    plan0 = planner.initial_plan(3, 2)
    _, got_plan, _ = planner.plan_step(state, bundle, cfg, NO_C, plan0, seed=31)

    b_members, cand_eps, d_members = draw_layout(np.random.default_rng(31), cfg, cfg.n_rollouts, 2, 2, 2)
    all_actions, all_returns = [], []
    for n in range(cfg.n_rollouts):
        s = state.copy()
        acts, ret = [], 0.0
        for t in range(cfg.horizon):
            member = behavior.members[b_members[n, t]]
            eps = cand_eps[n, t]
            mu, sigma = adm.behavior_action_distribution_batch(member, s[None, :])
            a = (mu[0] + planner.scale_std(sigma[0], cfg.sigma_scale) * eps[0]).astype(np.float32)
            l_prime = d_members[n, t]
            x = np.concatenate([s, a])[None, :]
            preds = [m.denormalize_o(m.mode_normalized(m.normalize_x(x)))[0] for m in dynamics.members]
            ret += float(np.mean([p[0] for p in preds]))
            acts.append(a)
            s = preds[l_prime][1:].astype(np.float32)
        all_actions.append(np.stack(acts))
        all_returns.append(ret)
    want_plan = planner.mppi_update(np.stack(all_actions), np.array(all_returns), cfg.kappa)
    np.testing.assert_allclose(got_plan, want_plan, atol=1e-5)


def test_rollout_rejects_mismatched_plan():
    bundle = toy_bundle()
    cfg = PlannerConfig(horizon=3, use_max_q=False, use_value=False, n_rollouts=1, sigma_scale=0.5)
    with pytest.raises(ValueError, match="plan shape"):
        planner._rollout_batch(
            np.zeros((1, 3), np.float32), bundle, planner.initial_plan(2, 2), cfg, NO_C, np.random.default_rng(0)
        )
