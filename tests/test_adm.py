import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopp import adm, data, envs, nn, planner
from mopp.errors import ConfigError, DataError, TrainingDiverged
from reference import adm_gaussian_head, gaussian_nll, propagate_concat


def toy_dataset(x, o, role="behavior"):
    """Wrap (input, output) arrays as a behavior-role dataset."""
    n = len(x)
    assert role == "behavior"
    return data.Dataset(x, o, np.zeros(n), x, np.zeros(n, bool), np.zeros(n))


def identity_stats(in_dim, out_dim):
    return adm.NormStats(
        x_mean=np.zeros(in_dim, np.float32),
        x_std=np.ones(in_dim, np.float32),
        o_mean=np.zeros(out_dim, np.float32),
        o_std=np.ones(out_dim, np.float32),
    )


def constant_model(in_dim, values, sigma_raw=-60.0, stats=None):
    """Model whose every head emits a fixed mean and near-minimal std."""
    values = np.asarray(values, dtype=np.float32)
    out_dim = len(values)
    model = adm.AdmModel(
        in_dim, out_dim, np.arange(out_dim), stats or identity_stats(in_dim, out_dim),
        embed_width=8, head_hidden=(8,), rng=0,
    )
    for i, head in enumerate(model.heads):
        for w in head.weights:
            w[:] = 0.0
        for b in head.biases:
            b[:] = 0.0
        head.biases[-1][:] = np.array([values[i], sigma_raw], np.float32)
    return model


SMALL = adm.AdmConfig(members=2, steps=500, batch_size=128, embed_width=24, head_hidden=(24, 12))


def test_ordering_must_be_permutation():
    stats = identity_stats(2, 3)
    with pytest.raises(ValueError):
        adm.AdmModel(2, 3, [0, 1, 1], stats, embed_width=8, head_hidden=(8,), rng=0)


def test_head_input_widths_follow_position():
    model = adm.AdmModel(3, 4, [2, 0, 3, 1], identity_stats(3, 4), embed_width=16, head_hidden=(8,), rng=0)
    for i, head in enumerate(model.heads):
        assert head.input_dim == 16 + i


def test_constant_dataset_recovery():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 3)).astype(np.float32)
    o = np.tile(np.array([2.0, -1.0], np.float32), (2000, 1))
    cfg = adm.AdmConfig(
        members=2, steps=2000, batch_size=512, learning_rate=5e-3,
        embed_width=24, head_hidden=(24, 12), activation="tanh",
    )
    ens = adm.adm_train(toy_dataset(x, o), "behavior", cfg, seed=0)
    for member in ens.members:
        x_n = member.normalize_x(x[:16])
        sample = member.sample_normalized(x_n, np.random.default_rng(1).standard_normal((16, 2)))
        assert np.abs(sample).max() < 0.05  # normalized units; constant maps to 0
        params = adm_gaussian_head(member, x[0], [])
        dim = member.ordering[0]
        assert abs(params.mean[0] - o[0, dim]) <= 0.05 * max(float(ens.stats.o_std[dim]), 1e-3)


def test_gaussian_moment_recovery_1d():
    # moment-matching oracle on 10k samples
    rng = np.random.default_rng(3)
    mu_true, sd_true = 0.8, 0.5
    x = rng.normal(size=(10_000, 2)).astype(np.float32)
    o = (mu_true + sd_true * rng.standard_normal((10_000, 1))).astype(np.float32)
    cfg = adm.AdmConfig(members=2, steps=1500, batch_size=256, embed_width=24, head_hidden=(24, 12))
    ens = adm.adm_train(toy_dataset(x, o), "behavior", cfg, seed=1)
    for member in ens.members:
        mu, sd = adm.behavior_action_distribution_batch(member, x[:512])
        assert abs(mu.mean() - mu_true) / ens.stats.o_std[0] < 0.05
        assert abs(sd.mean() / sd_true - 1.0) < 0.2


def test_single_output_orderings_are_unique():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 2)).astype(np.float32)
    o = rng.normal(size=(500, 1)).astype(np.float32)
    cfg = adm.AdmConfig(members=3, steps=50, batch_size=64, embed_width=16, head_hidden=(8,))
    ens = adm.adm_train(toy_dataset(x, o), "behavior", cfg, seed=2)
    for member in ens.members:
        assert member.ordering.tolist() == [0]
        assert len(member.heads) == 1


def test_adm_train_empty_dataset():
    empty = data.Dataset(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 2)), np.zeros(0, bool), np.zeros(0))
    with pytest.raises(DataError):
        adm.adm_train(empty, "behavior", SMALL)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_adm_train_divergence_reports_step():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 2)).astype(np.float32)
    o = rng.normal(size=(64, 1)).astype(np.float32)
    cfg = adm.AdmConfig(members=1, steps=50, batch_size=32, embed_width=8, head_hidden=(8,), learning_rate=1e12)
    with pytest.raises(TrainingDiverged) as err:
        adm.adm_train(toy_dataset(x, o), "behavior", cfg, seed=0)
    assert err.value.step >= 1


def test_gaussian_head_prefix_too_long():
    model = constant_model(2, [1.0, 2.0])
    with pytest.raises(ValueError):
        adm_gaussian_head(model, np.zeros(2), [0.0, 0.0])


def test_gaussian_head_std_within_clamp_bounds():
    model = adm.AdmModel(3, 2, [1, 0], identity_stats(3, 2), embed_width=16, head_hidden=(8,), rng=5)
    x = np.random.default_rng(0).normal(size=(20, 3)).astype(np.float32)
    _, sd = adm.behavior_action_distribution_batch(model, x)
    assert np.all((nn.SIGMA_MIN <= sd) & (sd <= nn.SIGMA_MAX))


def test_identity_normalization_matches_raw():
    model = adm.AdmModel(2, 2, [0, 1], identity_stats(2, 2), embed_width=16, head_hidden=(8,), rng=7)
    x = np.array([[0.3, -0.4]], np.float32)
    raw = model.denormalize_o(model.mode_normalized(model.normalize_x(x)))
    normalized = model.mode_normalized(x)
    np.testing.assert_allclose(raw, normalized, rtol=1e-6)


def test_sample_close_to_mode_at_minimal_std():
    model = constant_model(2, [0.5, -0.25], sigma_raw=-60.0)  # std pinned at sigma_min
    rng = np.random.default_rng(11)
    x_n = model.normalize_x(np.zeros((1, 2), np.float32))
    mode = model.denormalize_o(model.mode_normalized(x_n))
    for _ in range(50):
        s = model.denormalize_o(model.sample_normalized(x_n, rng.standard_normal((1, 2))))
        assert np.all(np.abs(s - mode) < 4 * nn.SIGMA_MIN)


def test_sample_deterministic_given_seed():
    model = adm.AdmModel(2, 3, [2, 0, 1], identity_stats(2, 3), embed_width=16, head_hidden=(8,), rng=3)
    x_n = model.normalize_x(np.array([[0.1, 0.9]], np.float32))
    a = model.sample_normalized(x_n, np.random.default_rng(42).standard_normal((1, 3)))
    b = model.sample_normalized(x_n, np.random.default_rng(42).standard_normal((1, 3)))
    np.testing.assert_array_equal(a, b)


def test_sample_mean_matches_head_mean_1d():
    # Monte-Carlo oracle: empirical mean within 3 standard errors
    model = adm.AdmModel(2, 1, [0], identity_stats(2, 1), embed_width=16, head_hidden=(16, 8), rng=9)
    x = np.array([0.4, -1.2], np.float32)
    params = adm_gaussian_head(model, x, [])
    n = 10_000
    x_n = model.normalize_x(x)[None, :].repeat(n, axis=0)
    eps = np.random.default_rng(0).standard_normal((n, 1))
    draws = model.denormalize_o(model.sample_normalized(x_n, eps))[:, 0]
    se = params.std[0] / np.sqrt(n)
    assert abs(draws.mean() - params.mean[0]) < 3 * se


@pytest.mark.parametrize("embed, hidden, unique", [(500, (200, 100), 34), (16, (16, 8), 7), (16, (16, 8), 1)])
def test_sample_with_repeats_matches_repeated_rows(embed, hidden, unique):
    # the value tail's shape: K_Q samples per state; the embedding and head 0
    # run once per state instead of once per sample
    k_q = 10
    model = adm.AdmModel(4, 3, [1, 2, 0], identity_stats(4, 3), embed_width=embed, head_hidden=hidden, rng=4)
    rng = np.random.default_rng(12)
    x_n = rng.normal(size=(unique, 4)).astype(np.float32)
    eps = rng.standard_normal((unique * k_q, 3))
    got = model.sample_normalized(x_n, eps, repeats=k_q)
    want = model.sample_normalized(np.repeat(x_n, k_q, axis=0), eps)
    assert got.shape == want.shape == (unique * k_q, 3)
    # same arithmetic per row; BLAS may round a GEMM of 34 rows differently
    # from one of 340, so compare within a few float32 ulps
    tol = 64 * np.finfo(np.float32).eps
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("rows", [1, 7, 100, 255, 383])
@pytest.mark.parametrize("embed, hidden, activation", [(500, (200, 100), "relu"), (16, (16, 8), "tanh")])
def test_prefix_buffer_propagation_equals_concat_replay(rows, embed, hidden, activation):
    # heads read strided prefix views of one buffer; the per-head concat
    # replay does the same arithmetic on contiguous inputs, so results match
    # exactly up to one forward block (383 rows)
    model = adm.AdmModel(4, 5, [3, 1, 4, 0, 2], identity_stats(4, 5), embed_width=embed,
                         head_hidden=hidden, activation=activation, rng=6)
    rng = np.random.default_rng(rows)
    x_n = rng.normal(size=(rows, 4)).astype(np.float32)
    vals, mus, sigmas = propagate_concat(model, x_n)
    np.testing.assert_array_equal(model.mode_normalized(x_n), vals)
    got_mu, got_sigma = model.mean_std_normalized(x_n)
    np.testing.assert_array_equal(got_mu, mus)
    np.testing.assert_array_equal(got_sigma, sigmas)
    for repeats in (1, 3):
        unique = max(1, rows // repeats)
        eps = rng.standard_normal((unique * repeats, 5))
        want, _, _ = propagate_concat(model, x_n[:unique], eps, repeats)
        np.testing.assert_array_equal(model.sample_normalized(x_n[:unique], eps, repeats=repeats), want)


def test_behavior_distribution_single_dim_equals_head():
    model = adm.AdmModel(3, 1, [0], identity_stats(3, 1), embed_width=16, head_hidden=(8,), rng=1)
    s = np.array([0.2, 0.4, -0.6], np.float32)
    mu, sd = adm.behavior_action_distribution_batch(model, s[None, :])
    params = adm_gaussian_head(model, s, [])
    assert mu[0, 0] == pytest.approx(params.mean[0], rel=1e-6)
    assert sd[0, 0] == pytest.approx(params.std[0], rel=1e-6)


def test_behavior_distribution_shapes():
    for a_dim in (1, 2, 4):
        model = adm.AdmModel(
            3, a_dim, np.random.default_rng(a_dim).permutation(a_dim),
            identity_stats(3, a_dim), embed_width=16, head_hidden=(8,), rng=a_dim,
        )
        mu, sd = adm.behavior_action_distribution_batch(model, np.zeros((1, 3), np.float32))
        assert mu.shape == (1, a_dim) and sd.shape == (1, a_dim)
        assert np.all(sd > 0)


def test_behavior_distribution_constant_model():
    model = constant_model(4, [0.7, -0.3])
    mu, sd = adm.behavior_action_distribution_batch(model, np.zeros((1, 4), np.float32))
    np.testing.assert_allclose(mu, [[0.7, -0.3]], atol=1e-6)
    assert np.all(sd <= 1.1 * nn.SIGMA_MIN)


# --- ensembles ---


def dynamics_ensemble_from_models(models):
    return adm.AdmEnsemble(members=models, role="dynamics", stats=models[0].stats)


def test_disc_identical_members_zero():
    m1 = constant_model(3, [0.1, 0.2])
    m2 = constant_model(3, [0.1, 0.2])
    ens = dynamics_ensemble_from_models([m1, m2])
    preds = adm.dynamics_mode_all(ens, np.zeros((1, 2)), np.zeros((1, 1)))
    assert adm.disc_from_predictions(preds)[0] == 0.0


def test_disc_forced_arithmetic():
    preds = np.stack([np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])])
    assert adm.disc_from_predictions(preds)[0] == pytest.approx(2.0)
    preds = np.stack([np.array([[0.0]]), np.array([[1.0]]), np.array([[3.0]])])
    assert adm.disc_from_predictions(preds)[0] == pytest.approx(9.0)


def test_disc_requires_two_members():
    # pruning ranks rollouts by member disagreement, which one member cannot show
    env = envs.pointmass_env(max_steps=2)
    dynamics = dynamics_ensemble_from_models([constant_model(6, [0.0] * 5)])
    behavior = adm.AdmEnsemble(members=[constant_model(4, [0.1, 0.1])], role="behavior", stats=identity_stats(4, 2))
    bundle = planner.ModelBundle(dynamics=dynamics, behavior=behavior)
    common = dict(horizon=2, n_rollouts=4, use_max_q=False, use_value=False)
    with pytest.raises(ConfigError, match="use_pruning"):
        planner.run_episode(env, bundle, planner.PlannerConfig(**common))
    assert planner.run_episode(env, bundle, planner.PlannerConfig(use_pruning=False, **common)).steps == 2


@given(
    k=st.integers(2, 5),
    b=st.integers(1, 4),
    d=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_disc_matches_brute_force_and_permutation_invariance(k, b, d, seed):
    rng = np.random.default_rng(seed)
    preds = rng.normal(size=(k, b, d))
    got = adm.disc_from_predictions(preds)
    brute = np.zeros(b)
    for i in range(k):
        for j in range(k):
            brute = np.maximum(brute, np.sum((preds[i] - preds[j]) ** 2, axis=1))
    np.testing.assert_allclose(got, brute, rtol=1e-12)
    perm = rng.permutation(k)
    np.testing.assert_allclose(adm.disc_from_predictions(preds[perm]), got, rtol=1e-12)


def test_dynamics_step_and_reward_mean():
    m1 = constant_model(3, [1.0, 0.5, -0.5])  # output = (r, s')
    m2 = constant_model(3, [3.0, 0.5, -0.5])
    s, a = np.zeros((1, 2)), np.zeros((1, 1))
    preds = adm.dynamics_mode_all(dynamics_ensemble_from_models([m1, m2]), s, a)  # identity stats
    assert preds.shape == (2, 1, 3)
    assert preds[0, 0, 0] == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(preds[0, 0, 1:], [0.5, -0.5], atol=1e-6)
    assert preds[:, 0, 0].mean() == pytest.approx(2.0, abs=1e-6)
    single = adm.dynamics_mode_all(dynamics_ensemble_from_models([m1]), s, a)
    assert single[:, 0, 0].mean() == pytest.approx(1.0, abs=1e-6)


def test_teacher_forcing_loss_decomposes_into_head_nlls():
    model = adm.AdmModel(2, 3, [1, 2, 0], identity_stats(2, 3), embed_width=12, head_hidden=(8,), rng=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2)).astype(np.float32)
    o = rng.normal(size=(6, 3)).astype(np.float32)
    loss, _ = adm._model_loss_and_grads(model, x, o)
    manual = 0.0
    for row in range(len(x)):
        for i in range(3):
            prefix = o[row, model.ordering[:i]]
            params = adm_gaussian_head(model, x[row], prefix)
            manual += gaussian_nll(params, o[row, model.ordering[i] : model.ordering[i] + 1])
    assert loss == pytest.approx(manual / len(x), rel=1e-5)


def test_training_improves_likelihood():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1000, 2)).astype(np.float32)
    o = (x @ np.array([[1.0], [-0.5]], np.float32) + 0.1 * rng.standard_normal((1000, 1))).astype(np.float32)
    ds = toy_dataset(x, o)
    stats = adm.NormStats.from_data(x, o)
    x_n = (x - stats.x_mean) / stats.x_std
    o_n = (o - stats.o_mean) / stats.o_std
    fresh = adm.AdmModel(2, 1, [0], stats, embed_width=24, head_hidden=(16,), rng=np.random.default_rng([3, 0]))
    before, _ = adm._model_loss_and_grads(fresh, x_n, o_n)
    cfg = adm.AdmConfig(members=1, steps=400, batch_size=128, embed_width=24, head_hidden=(16,))
    ens = adm.adm_train(ds, "behavior", cfg, seed=3)
    after, _ = adm._model_loss_and_grads(ens.members[0], x_n, o_n)
    assert after < before


def test_trained_members_agree_on_training_inputs():
    # weak ordering invariance: 1-dim outputs differ only by initialization
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3000, 2)).astype(np.float32)
    o = np.tanh(x @ np.array([[0.8], [-0.6]], np.float32)).astype(np.float32)
    cfg = adm.AdmConfig(members=2, steps=1200, batch_size=256, embed_width=24, head_hidden=(24, 12))
    ens = adm.adm_train(toy_dataset(x, o), "behavior", cfg, seed=5)
    mu0, _ = adm.behavior_action_distribution_batch(ens.members[0], x[:256])
    mu1, _ = adm.behavior_action_distribution_batch(ens.members[1], x[:256])
    gap = np.abs(mu0 - mu1) / ens.stats.o_std
    assert gap.max() < 0.05


def test_ensemble_checkpoint_round_trip(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, 3)).astype(np.float32)
    o = rng.normal(size=(400, 2)).astype(np.float32)
    cfg = adm.AdmConfig(members=2, steps=60, batch_size=64, embed_width=12, head_hidden=(8,))
    ens = adm.adm_train(toy_dataset(x, o), "behavior", cfg, seed=9)
    d1, d2 = tmp_path / "ens1", tmp_path / "ens2"
    adm.save_ensemble(ens, d1)
    with monkeypatch.context() as m:  # no randomly initialized net is built and thrown away
        m.setattr(nn.DenseNet, "__init__", None)
        loaded = adm.load_ensemble(d1)
    adm.save_ensemble(loaded, d2)
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    assert loaded.role == ens.role and loaded.k == ens.k
    probe = rng.normal(size=(5, 3)).astype(np.float32)
    for m_old, m_new in zip(ens.members, loaded.members):
        np.testing.assert_array_equal(m_old.ordering, m_new.ordering)
        np.testing.assert_array_equal(
            m_old.mode_normalized(probe), m_new.mode_normalized(probe)
        )


def test_ensemble_role_and_member_validation():
    with pytest.raises(ConfigError):
        adm.AdmEnsemble(members=[], role="behavior", stats=identity_stats(1, 1))
    with pytest.raises(ConfigError):
        adm.AdmEnsemble(members=[constant_model(2, [0.0])], role="oracle", stats=identity_stats(2, 1))
