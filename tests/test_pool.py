"""The worker pool: its worker-count and size rules, its map, and 1-vs-2-worker bit identity.

Every pooled path maps independent tasks and combines their results in a
fixed order, so a forced 2-worker pool must reproduce the 1-worker bytes.
The bit-identity oracles set the work threshold to 0, so that every map of
the small test networks runs on the pool.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from mopp import adm, data, envs, nn, planner, value
from mopp.planner import ConstraintConfig, ModelBundle, PlannerConfig


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(nn, "_workers", 2)


def with_workers(monkeypatch, fn):
    """``fn()`` run with a 1-worker and then a 2-worker pool, every map pooled: (result on 1, result on 2)."""
    monkeypatch.setattr(nn, "POOL_MIN_MACS", 0)
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(nn, "_workers", workers)
        out.append(fn())
    return out


def as_bytes(value) -> bytes:
    """Every array and number in a nest of lists, tuples and dataclass fields, as bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(as_bytes(v) for v in value) + b")"
    if hasattr(value, "__dict__"):
        return as_bytes([as_bytes(v) for _, v in sorted(vars(value).items())])
    return repr(value).encode()


# --- the worker-count rule ---


@pytest.mark.parametrize(
    "cpus, env, want",
    [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (4, {"OPENBLAS_NUM_THREADS": "3"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        # OPENBLAS before OMP before MKL
        (4, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 1),
        (4, {"OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}, 2),
        (4, {"MKL_NUM_THREADS": "1"}, 4),
        # a value that is no positive integer is passed over
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "-1", "OMP_NUM_THREADS": "", "MKL_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "0"}, 1),
        # one usable CPU: no pool
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        # unset: BLAS takes every CPU, so one worker
        (2, {}, 1),
        (8, {}, 1),
    ],
)
def test_worker_count_is_usable_cpus_over_blas_threads(monkeypatch, cpus, env, want):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, text in env.items():
        monkeypatch.setenv(var, text)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert nn._worker_count() == want


def test_pool_map_runs_inline_on_one_worker(monkeypatch):
    monkeypatch.setattr(nn, "_workers", 1)
    caller = threading.get_ident()
    assert nn._pool_map(lambda x: threading.get_ident(), range(4), nn.POOL_MIN_MACS) == [caller] * 4


def test_size_rule_runs_small_tasks_inline_and_large_ones_on_two_threads(two_workers):
    def task(i):
        time.sleep(0.01)  # long enough for the pool thread to take an item
        return threading.get_ident()

    small = nn._pool_map(task, range(6), nn.POOL_MIN_MACS - 1)
    assert small == [threading.get_ident()] * 6
    large = nn._pool_map(task, range(6), nn.POOL_MIN_MACS)
    assert threading.get_ident() in large and len(set(large)) == 2


def test_pool_map_keeps_item_order_and_shares_items_with_the_caller(two_workers):
    def task(i):
        time.sleep(0.01 * (6 - i))  # later items finish first
        return i * i, threading.get_ident()

    results = nn._pool_map(task, range(7), nn.POOL_MIN_MACS)
    assert [r for r, _ in results] == [i * i for i in range(7)]
    threads = {t for _, t in results}
    assert threading.get_ident() in threads and len(threads) == 2  # the caller is a worker too


def test_nested_pool_map_runs_inline_in_its_worker(two_workers):
    def outer(i):
        me = threading.get_ident()
        inner = nn._pool_map(lambda j: (i, j, threading.get_ident() == me), range(4), nn.POOL_MIN_MACS)
        return inner

    box = []
    runner = threading.Thread(target=lambda: box.append(nn._pool_map(outer, range(4), nn.POOL_MIN_MACS)), daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "nested map did not complete"
    assert box[0] == [[(i, j, True) for j in range(4)] for i in range(4)]


class TaskFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [1, 2])  # in a pool thread's share, in the caller's
def test_pool_map_reraises_the_task_exception_unchanged(two_workers, failing):
    raised = TaskFailed(f"item {failing}")

    def task(i):
        if i == failing:
            raise raised
        return i

    with pytest.raises(TaskFailed) as info:
        nn._pool_map(task, range(5), nn.POOL_MIN_MACS)
    assert info.value is raised


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_maps_on_a_fresh_pool(two_workers):
    nn._pool_map(time.sleep, [0.05] * 4, nn.POOL_MIN_MACS)  # the parent's pool starts both its threads,
    time.sleep(0.2)  # which go idle: a pool copied into the child would start no new ones
    pid = os.fork()
    if pid == 0:
        os._exit(0 if nn._pool_map(abs, [-3, -4], nn.POOL_MIN_MACS) == [3, 4] else 1)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the child's map did not complete"
    assert os.waitstatus_to_exitcode(done[1]) == 0


# --- 1 vs 2 workers, bit for bit ---


@pytest.mark.parametrize("rows", [1, 255, 256, 383, 384, 1500])
def test_forward_is_bit_identical_on_two_workers(monkeypatch, rows):
    net = nn.DenseNet([6, 64, 48, 3], rng=0)
    x = np.random.default_rng(rows).standard_normal((rows, 6)).astype(np.float32)
    one, two = with_workers(monkeypatch, lambda: nn.forward(net, x))
    assert as_bytes(one) == as_bytes(two)


@pytest.mark.parametrize("rows", [1, 255, 256, 383, 384, 512, 1500])
def test_forward_cached_is_bit_identical_on_two_workers_and_matches_forward(monkeypatch, rows):
    net = nn.DenseNet([6, 64, 48, 3], rng=0)
    x = np.random.default_rng(rows).standard_normal((rows, 6)).astype(np.float32)
    one, two = with_workers(monkeypatch, lambda: nn.forward_cached(net, x))
    assert as_bytes(one) == as_bytes(two)
    assert as_bytes(one[0]) == as_bytes(nn.forward(net, x))


@pytest.mark.parametrize("input_grad", [True, False])
def test_backward_is_bit_identical_on_two_workers(monkeypatch, input_grad):
    net = nn.DenseNet([6, 64, 48, 3], rng=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((512, 6)).astype(np.float32)
    d_out = rng.standard_normal((512, 3)).astype(np.float32)
    cache = nn.forward_cached(net, x)[1]
    one, two = with_workers(monkeypatch, lambda: nn.backward(net, cache, d_out, input_grad=input_grad))
    assert as_bytes(one) == as_bytes(two)
    full = nn.backward(net, cache, d_out)
    assert as_bytes(one[0]) == as_bytes(full[0])  # skipping the input gradient leaves the others as they are
    assert (one[1] is None) != input_grad


def test_adam_update_across_chunk_boundaries_matches_the_whole_array_update(monkeypatch):
    monkeypatch.setattr(nn, "ADAM_CHUNK", 1000)  # 6 chunks; W0 and W1 each straddle a boundary
    rng = np.random.default_rng(2)
    net = nn.DenseNet([30, 60, 40, 2], rng=3)
    grads = [[rng.standard_normal(p.shape).astype(np.float32) for p in net.params()] for _ in range(3)]

    def run():
        params = [p.copy() for p in net.params()]
        state = nn.AdamState(params, learning_rate=0.01)
        for g in grads:
            nn.adam_update(params, g, state)
        return params, state.m, state.v

    one, two = with_workers(monkeypatch, run)
    assert as_bytes(one) == as_bytes(two)
    params = [p.copy() for p in net.params()]
    m, v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    for step, g in enumerate(grads, 1):  # the unchunked update, one whole array at a time
        for p, gi, mi, vi in zip(params, g, m, v):
            mi *= 0.9
            mi += (1.0 - 0.9) * gi
            vi *= 0.999
            vi += (1.0 - 0.999) * (gi * gi)
            p -= 0.01 * (mi / (1.0 - 0.9**step)) / (np.sqrt(vi / (1.0 - 0.999**step)) + 1e-8)
    assert as_bytes(one) == as_bytes((params, m, v))


def test_adam_update_rejects_non_contiguous_parameters():
    w = np.zeros((4, 3), np.float32).T  # a transposed view: its flat view would be a copy
    state = nn.AdamState([w])
    with pytest.raises(ValueError, match="C-contiguous"):
        nn.adam_update([w], [np.ones_like(w)], state)


def small_dataset(episodes, max_steps=200, seed=0):
    env = envs.pointmass_env(max_steps=max_steps)
    return data.generate_dataset(env, envs.scripted_policy("medium", env, seed=1), episodes=episodes, seed=seed)


# 512-row batches: every forward_cached splits into two row blocks.
TINY_ADM = adm.AdmConfig(members=2, steps=4, batch_size=512, embed_width=32, head_hidden=(16, 8))


@pytest.mark.parametrize("role", adm.ROLES)
def test_adm_train_is_bit_identical_on_two_workers(monkeypatch, role):
    dataset = small_dataset(3)
    one, two = with_workers(monkeypatch, lambda: adm.adm_train(dataset, role, TINY_ADM, seed=5).members)
    assert as_bytes([m.params() for m in one]) == as_bytes([m.params() for m in two])


def test_fqe_train_is_bit_identical_on_two_workers(monkeypatch):
    dataset = small_dataset(3)
    cfg = value.FqeConfig(iterations=3, steps_per_iteration=4, batch_size=512, hidden=(32, 32))
    one, two = with_workers(monkeypatch, lambda: value.fqe_train(dataset, cfg, seed=3))
    assert as_bytes([one.net.params(), one.y_mean, one.y_std, one.iteration_deltas]) == as_bytes(
        [two.net.params(), two.y_mean, two.y_std, two.iteration_deltas]
    )
    assert len(one.iteration_deltas) == 2


@pytest.fixture(scope="module")
def trained_bundle():
    dataset = small_dataset(4)
    cfg = adm.AdmConfig(members=3, steps=30, batch_size=64, embed_width=32, head_hidden=(16, 8))
    bundle = ModelBundle(
        dynamics=adm.adm_train(dataset, "dynamics", cfg, seed=1),
        behavior=adm.adm_train(dataset, "behavior", cfg, seed=2),
        q=value.fqe_train(dataset, value.FqeConfig(iterations=2, steps_per_iteration=20, hidden=(32, 32)), seed=3),
    )
    return bundle, dataset


@pytest.mark.parametrize("case", ["backfill", "threshold", "no_pruning", "velocity_rollout"])
def test_plan_step_is_bit_identical_on_two_workers(monkeypatch, trained_bundle, case):
    bundle, dataset = trained_bundle
    threshold = {"backfill": 1e-12, "no_pruning": 1.0}.get(case)
    if threshold is None:
        threshold = planner.uncertainty_threshold_from_data(bundle.dynamics, dataset, percentile=50.0)
    config = PlannerConfig(uncertainty_threshold=threshold, use_pruning=case != "no_pruning")
    constraints = planner.NO_CONSTRAINTS
    if case == "velocity_rollout":
        constraints = ConstraintConfig(rollout_penalty=envs.velocity_rollout_penalty(v_cap=0.05))

    def steps():
        plan, out = planner.initial_plan(config.horizon, 2), []
        for t, state in enumerate(dataset.states[[0, 150, 400]]):
            action, plan, diag = planner.plan_step(state, bundle, config, constraints, plan, (9, t))
            out.append((action, plan, diag))
        return out

    one, two = with_workers(monkeypatch, steps)
    assert as_bytes(one) == as_bytes(two)
    surviving = {d.surviving for _, _, d in one}
    if case == "backfill":
        assert surviving == {config.n_min}
    elif case == "no_pruning":
        assert surviving == {config.n_rollouts}


@pytest.mark.parametrize("episodes, max_steps", [(25, 200), (2, 200), (1, 37)])
def test_chunked_threshold_equals_one_pass(monkeypatch, trained_bundle, episodes, max_steps):
    dynamics = trained_bundle[0].dynamics
    dataset = small_dataset(episodes, max_steps)
    n = len(dataset)
    idx = np.arange(n) if n <= planner.AUTO_MAX_SAMPLES else np.linspace(0, n - 1, planner.AUTO_MAX_SAMPLES).astype(int)
    monkeypatch.setattr(nn, "_workers", 1)
    d = adm.disc_from_predictions(adm.dynamics_mode_all(dynamics, dataset.states[idx], dataset.actions[idx]))
    reference = max(float(np.percentile(d, planner.AUTO_PERCENTILE)), planner.AUTO_FLOOR)
    one, two = with_workers(monkeypatch, lambda: planner.uncertainty_threshold_from_data(dynamics, dataset))
    assert as_bytes([reference, reference]) == as_bytes([one, two])


def test_concurrent_callers_on_many_workers_get_one_pool_and_the_same_bytes(monkeypatch, trained_bundle):
    """Four threads map through one 8-worker pool with a short switch interval."""
    bundle, dataset = trained_bundle
    x = np.random.default_rng(0).standard_normal((1500, bundle.q.input_dim)).astype(np.float32)
    s, a = dataset.states[:300], dataset.actions[:300]

    def work():
        return as_bytes([nn.forward(bundle.q.net, x), adm.dynamics_mode_all(bundle.dynamics, s, a)])

    monkeypatch.setattr(nn, "_workers", 1)
    want = work()
    monkeypatch.setattr(nn, "POOL_MIN_MACS", 0)
    monkeypatch.setattr(nn, "_workers", 8)
    monkeypatch.setattr(nn, "_pools", {})
    results = []
    callers = [threading.Thread(target=lambda: results.append(work()), daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers), "a caller did not complete"
    assert results == [want] * 4
    assert list(nn._pools) == [8]
    nn._pools[8].shutdown()
