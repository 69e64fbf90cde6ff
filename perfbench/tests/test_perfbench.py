"""Tests of the benchmark's own accounting: FLOP counts, self times, net roles, host-speed correction.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
sys.path.insert(0, os.path.join(HERE, os.pardir))

import hostclock  # noqa: E402
import tracing  # noqa: E402
from mopp import adm, nn, planner, value  # noqa: E402


def test_dense_flops_matches_hand_count():
    # [3, 4, 2] on 5 rows: 5*3*4 + 5*4*2 = 100 multiply-adds = 200 FLOPs.
    assert tracing.dense_flops([3, 4, 2], 5) == 200
    assert tracing.dense_flops([7, 1], 1) == 14


def test_traced_forward_and_backward_count_flops_and_rows():
    net = nn.DenseNet([3, 4, 2], rng=0)
    tracer = tracing.Tracer()
    tracer.wrap(nn, "forward", "nn.forward",
                size=lambda a, r: (len(a[1]), tracing.dense_flops(a[0].layer_sizes, len(a[1]))))
    tracer.enabled = True
    try:
        nn.forward(net, np.zeros((5, 3), dtype=np.float32))
    finally:
        tracer.restore()
    assert nn.forward.__name__ == "forward" and not hasattr(nn.forward, "__wrapped__")
    assert tracer.names == ["nn.forward"]
    assert tracer.rows == [5] and tracer.flops == [200]


def test_self_time_of_nested_spans():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping, union 4) and
    # [8, 12] (clipped to 2); the grandchild [1.5, 2.5] counts only for [1, 3].
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    got = tracing.self_times(starts, ends, parents)
    np.testing.assert_allclose(got, [4.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_nesting_steps_and_tag_inheritance():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + Layer.inner(x)

        @staticmethod
        def inner(x):
            return x

    tracer.wrap(Layer, "outer", tracing.PLAN_STEP, tag=lambda a: "role")
    tracer.wrap(Layer, "inner", "inner")
    tracer.enabled = True
    assert Layer.outer(1) == 2
    assert Layer.inner(1) == 1  # outside any step
    tracer.restore()
    assert tracer.names == [tracing.PLAN_STEP, "inner", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0, -1]
    assert tracer.steps == [0, 0, 0, -1]
    assert tracer.tags == ["role", "role", "role", None]
    sp = tracer.spans()
    # outer spans ticks 0..5, each inner one tick: self time 5 - 2.
    assert sp.self_time[0] == 3.0
    assert sp.n_steps == 1


def test_step_median_sums_within_each_step():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        @staticmethod
        def step(n):
            for _ in range(n):
                Layer.inner()

        @staticmethod
        def inner():
            return None

    tracer.wrap(Layer, "step", tracing.PLAN_STEP)
    tracer.wrap(Layer, "inner", "inner")
    tracer.enabled = True
    for n in (1, 3, 2):
        Layer.step(n)
    tracer.restore()
    sp = tracer.spans()
    # Each inner span lasts one tick: per-step sums 1, 3, 2 ticks -> median 2 s.
    assert tracing.step_median_ms(sp, sp.dur, sp.mask("inner")) == 2000.0
    # A step with n children spans 2n + 1 ticks, so its self time is n + 1:
    # 2, 4, 3 ticks -> median 3 s.
    assert tracing.step_median_ms(sp, sp.self_time, sp.mask(tracing.PLAN_STEP)) == 3000.0


def test_missing_attribute_is_reported_not_fatal():
    tracer = tracing.Tracer()
    tracer.wrap(planner, "no_such_function", "planner.no_such_function")
    assert tracer.missing == ["planner.no_such_function"]


def _tiny_bundle():
    stats = adm.NormStats(
        x_mean=np.zeros(4, np.float32), x_std=np.ones(4, np.float32),
        o_mean=np.zeros(2, np.float32), o_std=np.ones(2, np.float32),
    )
    dyn_stats = adm.NormStats(
        x_mean=np.zeros(6, np.float32), x_std=np.ones(6, np.float32),
        o_mean=np.zeros(5, np.float32), o_std=np.ones(5, np.float32),
    )
    behavior = adm.AdmEnsemble(
        [adm.AdmModel(4, 2, [1, 0], stats, embed_width=8, head_hidden=(4,), rng=j) for j in range(2)],
        "behavior", stats,
    )
    dynamics = adm.AdmEnsemble(
        [adm.AdmModel(6, 5, range(5), dyn_stats, embed_width=8, head_hidden=(4,), rng=j) for j in range(2)],
        "dynamics", dyn_stats,
    )
    q = value.QNetwork(nn.DenseNet([6, 8, 1], rng=0), np.zeros(6), np.ones(6))
    return planner.ModelBundle(dynamics=dynamics, behavior=behavior, q=q)


def test_net_roles_classify_by_identity():
    bundle = _tiny_bundle()
    roles = tracing.NetRoles()
    roles.register(bundle)
    for ensemble in (bundle.dynamics, bundle.behavior):
        for member in ensemble.members:
            assert roles.role(member.embed_net) == "adm_embed"
            assert {roles.role(h) for h in member.heads} == {"adm_head"}
    assert roles.role(bundle.q.net) == "q_trunk"
    # A copy has the same shapes but is not part of the bundle.
    assert roles.role(bundle.q.net.copy()) is None
    assert roles.role(nn.DenseNet([8, 4, 2], rng=0)) is None


def test_spans_only_keeps_one_phase():
    tracer = tracing.Tracer()
    tracer.wrap(nn, "adam_update", "nn.adam_update")
    tracer.enabled = True
    net = nn.DenseNet([2, 1], rng=0)
    opt = nn.AdamState(net.params())
    grads = [np.zeros_like(p) for p in net.params()]
    try:
        for phase in ("train", "control", "train"):
            tracer.phase = phase
            nn.adam_update(net.params(), grads, opt)
    finally:
        tracer.restore()
    assert len(tracer.spans().only("train").names) == 2
    assert len(tracer.spans().only("control").names) == 1


def test_host_clock_scales_by_the_probes_around_an_operation():
    clock = hostclock.HostClock()
    ref = hostclock.REF_S
    # Quiet probes before t=10, probes twice as slow after it.
    for t in np.arange(0.0, 20.0, 0.25):
        clock.record(t, ref if t < 10.0 else 2 * ref)
    quiet = hostclock.Interval(start=4.1, end=4.4, seconds=0.3)
    slow = hostclock.Interval(start=14.1, end=14.4, seconds=0.6)
    assert clock.corrected(quiet) == pytest.approx(0.3)
    assert clock.corrected(slow) == pytest.approx(0.3)
    # Far from every probe, the three nearest (t=19.25 to 19.75, all slow) decide.
    late = hostclock.Interval(start=30.0, end=31.0, seconds=2.0)
    assert clock.factor(late) == pytest.approx(0.5)


def test_host_clock_leaves_probes_out_of_an_operation():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    clock = hostclock.HostClock(clock=lambda: next(ticks))
    clock.probe = lambda: clock.record(clock.clock(), 1.0)
    mark = clock.start()  # probe at t=0, start at t=1
    clock.probe()  # a probe inside the operation, at t=2
    iv = clock.stop(mark)  # stop at t=3
    assert (iv.start, iv.end, iv.seconds) == (1.0, 3.0, 1.0)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
