"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; each test also prints a `CRITERION nn PASS` summary line
(visible with `-s` or in captured output).
"""

import time

import numpy as np
import pytest

from mopp import adm, cli, data, envs, nn, planner, value

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _report(n: int, text: str) -> None:
    print(f"CRITERION {n:02d} PASS: {text}")


# ----------------------------------------------------------------------
# 1. Pruning oracle equivalence
# ----------------------------------------------------------------------


def brute_force_prune(u, threshold, n_min):
    n = u.shape[0]
    under = [i for i in range(n) if bool(np.all(u[i] < threshold))]
    if len(under) >= n_min:
        return sorted(under)
    rest = sorted(
        (i for i in range(n) if i not in under),
        key=lambda i: (float(u[i].sum()), i),
    )
    return sorted(under + rest[: n_min - len(under)])


def test_criterion_01_pruning_matches_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for case in range(1000):
        n = int(rng.integers(1, 65))
        h = int(rng.integers(1, 17))
        u = rng.uniform(0, 1, size=(n, h))
        if case % 3 == 0:  # force the backfill branch often
            threshold = float(rng.uniform(0.0, 0.3))
        else:
            threshold = float(rng.uniform(0.5, 1.1))
        n_min = int(rng.integers(1, n + 1))
        got = planner.prune_indices(u, threshold, n_min).tolist()
        expected = brute_force_prune(u, threshold, n_min)
        assert got == expected, f"instance {case}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"1000 random pruning instances match exactly in {elapsed:.2f}s")


# ----------------------------------------------------------------------
# 2. Discrepancy oracle
# ----------------------------------------------------------------------


def test_criterion_02_disc_matches_double_loop():
    rng = np.random.default_rng(202)
    for case in range(1000):
        k = int(rng.choice([2, 3, 5]))
        d = int(rng.integers(1, 8))
        preds = rng.normal(size=(k, 1, d))
        got = float(adm.disc_from_predictions(preds)[0])
        best = 0.0
        for i in range(k):
            for j in range(k):
                best = max(best, float(np.sum((preds[i, 0] - preds[j, 0]) ** 2)))
        assert got == best, f"instance {case}"
    _report(2, "1000 random ensembles match the explicit double loop exactly")


# ----------------------------------------------------------------------
# 3. MPPI limits
# ----------------------------------------------------------------------


def test_criterion_03_mppi_limits():
    rng = np.random.default_rng(303)
    for _ in range(50):
        n, h, a = int(rng.integers(1, 12)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        actions = rng.normal(size=(n, h, a))
        returns = rng.normal(size=n)
        mean_plan = planner.mppi_update(actions, returns, kappa=0.0)
        np.testing.assert_allclose(mean_plan, actions.mean(axis=0), atol=1e-9)
        shifted = planner.mppi_update(actions, returns + 777.25, kappa=1.3)
        base = planner.mppi_update(actions, returns, kappa=1.3)
        np.testing.assert_allclose(shifted, base, atol=1e-9)
        returns_gap = returns.copy()
        best = int(rng.integers(n))
        returns_gap[best] = returns_gap.max() + 1.0  # gap >= 1 to every other
        concentrated = planner.mppi_update(actions, returns_gap, kappa=100.0)
        np.testing.assert_allclose(concentrated, actions[best], atol=1e-3)
    _report(3, "kappa=0 mean, kappa=100 concentration, and shift invariance hold")


# ----------------------------------------------------------------------
# 4. Gradient correctness
# ----------------------------------------------------------------------


def test_criterion_04_gradients_match_finite_differences():
    rng = np.random.default_rng(404)
    step = 1e-5
    for case in range(50):
        loss = "mse" if case % 2 == 0 else "gaussian_nll"
        sizes = [int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 5))]
        if loss == "gaussian_nll" and sizes[-1] % 2 == 1:
            sizes[-1] += 1
        activation = "relu" if case % 4 < 2 else "tanh"
        net = nn.DenseNet(sizes, activation=activation, rng=int(rng.integers(1e6)), dtype=np.float64)
        assert net.param_count() <= 200
        x = rng.normal(size=(4, sizes[0]))
        t_dim = sizes[-1] if loss == "mse" else sizes[-1] // 2
        target = rng.normal(size=(4, t_dim))
        _, grads = nn.loss_and_grads(net, x, target, loss=loss)
        for p, g in zip(net.params(), grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + step
                lp, _ = nn.loss_and_grads(net, x, target, loss=loss)
                p[ix] = orig - step
                lm, _ = nn.loss_and_grads(net, x, target, loss=loss)
                p[ix] = orig
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(float(g[ix])), 1e-8)
                assert abs(fd - float(g[ix])) / denom < 1e-4, f"net {case}"
    _report(4, "50 random networks: analytic gradients match finite differences")


# ----------------------------------------------------------------------
# 5. FQE correctness on the deterministic chain
# ----------------------------------------------------------------------


def chain_dataset(rewards, episodes=40):
    n_states = len(rewards) + 1
    eye = np.eye(n_states, dtype=np.float32)
    s, a, r, sn, done, ep = [], [], [], [], [], []
    for e in range(episodes):
        for i, reward in enumerate(rewards):
            s.append(eye[i])
            a.append(np.zeros(1, np.float32))
            r.append(reward)
            sn.append(eye[i + 1])
            done.append(i == len(rewards) - 1)
            ep.append(e)
    return data.Dataset(s, a, r, sn, done, ep)


def test_criterion_05_fqe_matches_dynamic_programming():
    t0 = time.perf_counter()
    rewards = (1.0, 0.5, 2.0, 1.5)
    gamma = 0.5
    ds = chain_dataset(rewards)
    oracle = []
    nxt = 0.0
    for r in reversed(rewards):
        nxt = r + gamma * nxt
        oracle.append(nxt)
    oracle = oracle[::-1]
    q = value.fqe_train(
        ds,
        value.FqeConfig(gamma=gamma, iterations=10, steps_per_iteration=120, batch_size=128, hidden=(64, 64)),
        seed=5,
    )
    values = q.values(np.eye(5, dtype=np.float32)[:4], np.zeros((4, 1)))
    for i, (got, expected) in enumerate(zip(values, oracle)):
        assert got == pytest.approx(expected, rel=0.05), f"state {i}: {got} vs {expected}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, f"chain Q within 5% of exact backup values in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 6. ADM recovery on synthetic Gaussian data
# ----------------------------------------------------------------------


def test_criterion_06_adm_recovers_gaussian_moments():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for dim in (1, 2, 3, 4):
        mu_true = rng.uniform(-2.0, 2.0, size=dim)
        sd_true = rng.uniform(0.3, 1.5, size=dim)
        n = 40_000
        x = rng.normal(size=(n, 3)).astype(np.float32)
        o = (mu_true + sd_true * rng.standard_normal((n, dim))).astype(np.float32)
        ds = data.Dataset(x, o, np.zeros(n), x, np.zeros(n, bool), np.zeros(n))
        cfg = adm.AdmConfig(
            members=2, steps=3500, batch_size=1024, learning_rate=2e-3,
            embed_width=16, head_hidden=(16, 8), activation="tanh",
        )
        ensemble = adm.adm_train(ds, "behavior", cfg, seed=60 + dim)
        probe = x[:4000]
        for m_idx, member in enumerate(ensemble.members):
            mu, sd = adm.behavior_action_distribution_batch(member, probe)
            mu_err = np.abs(mu.mean(axis=0) - mu_true) / ensemble.stats.o_std
            sd_ratio = sd.mean(axis=0) / sd_true
            assert np.all(mu_err < 0.05), f"dim {dim} member {m_idx}: mean error {mu_err}"
            assert np.all(np.abs(sd_ratio - 1.0) < 0.2), f"dim {dim} member {m_idx}: std ratio {sd_ratio}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(6, f"1-4 dim Gaussian moments recovered by every member in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 7-9. Planning pipeline criteria (shared trained fixtures)
# ----------------------------------------------------------------------


def _train_pipeline(policy_quality, data_seed, policy_seed, model_seeds):
    env = envs.pointmass_env()
    ds = data.generate_dataset(
        env, envs.scripted_policy(policy_quality, env, seed=policy_seed), episodes=100, seed=data_seed
    )
    dyn = adm.adm_train(
        ds,
        "dynamics",
        adm.AdmConfig(members=2, steps=9000, batch_size=512, embed_width=128, head_hidden=(96, 64)),
        seed=model_seeds[0],
    )
    beh = adm.adm_train(
        ds,
        "behavior",
        adm.AdmConfig(members=2, steps=4000, batch_size=384, embed_width=96, head_hidden=(64, 48)),
        seed=model_seeds[1],
    )
    q = value.fqe_train(
        ds,
        value.FqeConfig(gamma=0.95, iterations=60, steps_per_iteration=80, batch_size=256, hidden=(128, 128)),
        seed=model_seeds[2],
    )
    bundle = planner.ModelBundle(dynamics=dyn, behavior=beh, q=q)
    threshold = planner.uncertainty_threshold_from_data(dyn, ds, percentile=99.0)
    return ds, bundle, threshold


@pytest.fixture(scope="module")
def medium_pipeline():
    t0 = time.perf_counter()
    ds, bundle, threshold = _train_pipeline("medium", data_seed=0, policy_seed=11, model_seeds=(1, 2, 3))
    return ds, bundle, threshold, time.perf_counter() - t0


def _run_batch(bundle, pcfg, env_fn, constraints=planner.NO_CONSTRAINTS, seeds=(0, 1, 2), episodes=10):
    returns, violations = [], []
    for seed in seeds:
        for ep in range(episodes):
            res = planner.run_episode(env_fn(), bundle, pcfg, constraints=constraints, seed=(seed, ep))
            returns.append(res.ret)
            violations.append(res.violations)
    return np.array(returns), np.array(violations)


def test_criterion_07_planning_beats_behavior_mean(medium_pipeline):
    ds, bundle, threshold, fixture_time = medium_pipeline
    t0 = time.perf_counter()
    pcfg = planner.PlannerConfig(
        horizon=4, kappa=3.0, beta=0.0, uncertainty_threshold=threshold,
        sigma_scale=0.4, n_rollouts=32, candidates=10, value_samples=10,
    )
    returns, _ = _run_batch(bundle, pcfg, envs.pointmass_env)
    baseline = float(ds.episode_returns().mean())
    required = baseline + 0.15 * abs(baseline)
    got = float(returns.mean())
    assert got >= required, f"planner {got:.2f} vs required {required:.2f} (baseline {baseline:.2f})"
    elapsed = fixture_time + time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        7,
        f"planner mean {got:.1f} beats behavior mean {baseline:.1f} by "
        f"{100 * (got - baseline) / abs(baseline):.0f}% (>=15%) in {elapsed:.0f}s",
    )


def test_criterion_08_pruning_controls_variance(medium_pipeline):
    _, bundle, threshold, fixture_time = medium_pipeline
    t0 = time.perf_counter()
    common = dict(
        horizon=4, kappa=10.0, beta=0.0, uncertainty_threshold=threshold,
        n_rollouts=32, candidates=10, value_samples=10,
    )
    full, _ = _run_batch(bundle, planner.PlannerConfig(sigma_scale=0.5, **common), envs.pointmass_env)
    no_prune, _ = _run_batch(
        bundle, planner.PlannerConfig(sigma_scale=0.5, use_pruning=False, **common), envs.pointmass_env
    )
    timid, _ = _run_batch(bundle, planner.PlannerConfig(sigma_scale=0.01, **common), envs.pointmass_env)
    assert full.std() <= no_prune.std(), f"std {full.std():.2f} vs noP {no_prune.std():.2f}"
    assert full.mean() >= timid.mean(), f"mean@0.5 {full.mean():.2f} vs mean@0.01 {timid.mean():.2f}"
    elapsed = fixture_time + time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        8,
        f"std {full.std():.2f} <= noP {no_prune.std():.2f}; mean@0.5 {full.mean():.1f} >= "
        f"mean@0.01 {timid.mean():.1f} ({elapsed:.0f}s)",
    )


def test_criterion_09_constraint_hooks_reduce_violations(medium_pipeline):
    _, bundle, threshold, fixture_time = medium_pipeline
    t0 = time.perf_counter()
    v_cap = 0.2  # binding for this task: unconstrained planning tops out near vx 0.28
    pcfg = planner.PlannerConfig(
        horizon=4, kappa=3.0, beta=0.0, uncertainty_threshold=threshold,
        sigma_scale=0.4, n_rollouts=32, candidates=10, value_samples=10,
    )
    env_fn = lambda: envs.pointmass_constrained_env(v_cap=v_cap)
    base_ret, base_viol = _run_batch(bundle, pcfg, env_fn)
    assert base_viol.mean() > 0, "unconstrained planner never violates; criterion is vacuous"

    reward_penalty = planner.ConstraintConfig(
        reward_transform=envs.velocity_penalty_reward(v_cap=v_cap)
    )
    rollout_constraint = planner.ConstraintConfig(
        rollout_penalty=envs.velocity_rollout_penalty(v_cap=v_cap)
    )
    newr_ret, newr_viol = _run_batch(bundle, pcfg, env_fn, constraints=reward_penalty)
    rc_ret, rc_viol = _run_batch(bundle, pcfg, env_fn, constraints=rollout_constraint)

    budget = base_ret.mean() - 0.30 * abs(base_ret.mean())
    for name, viol, ret in (
        ("reward-penalty", newr_viol, newr_ret),
        ("rollout-constraint", rc_viol, rc_ret),
    ):
        assert viol.mean() <= 0.20 * base_viol.mean(), (
            f"{name}: {viol.mean():.2f} violations vs baseline {base_viol.mean():.2f}"
        )
        assert ret.mean() >= budget, f"{name}: return {ret.mean():.2f} below budget {budget:.2f}"
    elapsed = fixture_time + time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        9,
        f"violations {base_viol.mean():.1f} -> newR {newr_viol.mean():.2f} / RC {rc_viol.mean():.2f} "
        f"(>=80% cut); returns {base_ret.mean():.1f} -> {newr_ret.mean():.1f} / {rc_ret.mean():.1f} "
        f"(<=30% loss) in {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# 10. Format round trips
# ----------------------------------------------------------------------


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(1010)
    for case in range(10):  # datasets
        n_eps = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 30))
        s_dim, a_dim = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        cols = ([], [], [], [], [], [])
        for e in range(n_eps):
            for t in range(steps):
                cols[0].append(rng.normal(size=s_dim).astype(np.float32))
                cols[1].append(rng.normal(size=a_dim).astype(np.float32))
                cols[2].append(float(rng.normal()))
                cols[3].append(rng.normal(size=s_dim).astype(np.float32))
                cols[4].append(t == steps - 1)
                cols[5].append(e)
        ds = data.Dataset(*cols)
        p1 = tmp_path / f"ds_{case}_a.bin"
        p2 = tmp_path / f"ds_{case}_b.bin"
        data.save_dataset(ds, p1)
        data.save_dataset(data.load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes(), f"dataset {case}"

    for case in range(5):  # ensembles
        in_dim, out_dim = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        n = 200
        x = rng.normal(size=(n, in_dim)).astype(np.float32)
        o = rng.normal(size=(n, out_dim)).astype(np.float32)
        ds = data.Dataset(x, o, np.zeros(n), x, np.zeros(n, bool), np.zeros(n))
        cfg = adm.AdmConfig(members=2, steps=20, batch_size=64, embed_width=8, head_hidden=(8,))
        ens = adm.adm_train(ds, "behavior", cfg, seed=case)
        d1, d2 = tmp_path / f"ens_{case}_a", tmp_path / f"ens_{case}_b"
        adm.save_ensemble(ens, d1)
        adm.save_ensemble(adm.load_ensemble(d1), d2)
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), f"ensemble {case}/{name}"

    for case in range(5):  # q checkpoints
        net = nn.DenseNet([3, int(rng.integers(4, 16)), 1], rng=int(rng.integers(1e6)))
        q = value.QNetwork(
            net,
            rng.normal(size=3).astype(np.float32),
            rng.uniform(0.5, 2.0, size=3).astype(np.float32),
            float(rng.normal()),
            float(rng.uniform(0.5, 2.0)),
        )
        d1, d2 = tmp_path / f"q_{case}_a", tmp_path / f"q_{case}_b"
        value.save_q(q, d1)
        value.save_q(value.load_q(d1), d2)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), f"q {case}/{name}"
    _report(10, "20 randomized dataset/checkpoint instances re-save byte-identically")


# ----------------------------------------------------------------------
# 11. End-to-end determinism of the evaluate command
# ----------------------------------------------------------------------


EVAL_CONFIG = """\
[run]
dataset = data.ds
seeds = 0,1
episodes = 1

[data]
policy = medium
episodes = 3
seed = 4

[adm]
k1 = 2
k2 = 2
steps = 120
batch = 64
embed = 16
head_hidden = 16,8

[fqe]
gamma = 0.9
iterations = 3
steps = 30
batch = 64
hidden = 16,16

[planner]
n = 8
m = 3
k_q = 3
h = 2
l = auto
"""


def test_criterion_11_evaluate_is_byte_deterministic(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EVAL_CONFIG)
    base = ["--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]
    for command in ("gen-data", "train-dynamics", "train-behavior", "train-q"):
        assert cli.main([command, *base]) == 0, command
    assert cli.main(["evaluate", *base]) == 0
    first = (tmp_path / "results.csv").read_bytes()
    assert cli.main(["evaluate", *base]) == 0
    second = (tmp_path / "results.csv").read_bytes()
    assert first == second
    _report(11, "two evaluate runs produced byte-identical results.csv")
