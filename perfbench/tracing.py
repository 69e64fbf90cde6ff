"""Span tracing, FLOP counting and net-role classification for the traced run.

The traced run replaces public functions of ``mopp`` at their module (or
class) attributes with wrappers that record one span per call: name, start,
end, parent span, the control step it belongs to, rows and FLOPs. Nothing
inside the package changes; :meth:`Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import time
import weakref
from dataclasses import dataclass, fields

import numpy as np

PLAN_STEP = "planner.plan_step"
PLAN_ROLES = ("adm_embed", "adm_head", "q_trunk")


def dense_flops(layer_sizes, rows: int) -> int:
    """FLOPs of one dense forward pass: 2 * rows * sum(n_in * n_out) over layers.

    Counts the multiply-adds of the GEMMs only; bias adds and activations
    are elementwise and left out. A backward pass (weight gradients plus
    input gradients) costs twice this.
    """
    return 2 * int(rows) * sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


class NetRoles:
    """Classifies networks by identity into the roles of a loaded model bundle."""

    def __init__(self):
        self._roles = {}

    def register(self, bundle) -> None:
        for ensemble in (bundle.dynamics, bundle.behavior):
            for member in ensemble.members:
                self._add(member.embed_net, "adm_embed")
                for head in member.heads:
                    self._add(head, "adm_head")
        if bundle.q is not None:
            self._add(bundle.q.net, "q_trunk")

    def _add(self, net, role: str) -> None:
        self._roles[id(net)] = (weakref.ref(net), role)

    def role(self, net):
        """Role of ``net`` in a registered bundle, or None for any other network."""
        entry = self._roles.get(id(net))
        if entry is None or entry[0]() is not net:
            return None
        return entry[1]


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    out = ends - starts
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


class Tracer:
    """In-memory span recorder; spans are kept in parallel lists until analysis.

    Spans opened inside a ``planner.plan_step`` span carry that step's id;
    a span's tag (net role or training role) is inherited from its parent
    unless its own ``tag`` hook returns one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.phase = ""
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.steps, self.tags, self.rows, self.flops = [], [], [], []
        self.phases = []
        self.missing = []
        self._stack = []
        self._patches = []
        self._n_steps = 0

    def wrap(self, owner, attr: str, name: str, tag=None, size=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``tag(args)`` runs at entry; ``size(args, result)`` runs at exit and
        returns (rows, flops) after a successful call; both run outside the
        span's interval. A missing attribute is noted in ``missing``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            idx = tracer._open(name, tag(args) if tag else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.ends[idx] = tracer.clock()
                tracer._stack.pop()
            if size is not None:
                tracer.rows[idx], tracer.flops[idx] = size(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _open(self, name: str, tag) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name == PLAN_STEP:
            step = self._n_steps
            self._n_steps += 1
        else:
            step = self.steps[parent] if parent >= 0 else -1
        if tag is None and parent >= 0:
            tag = self.tags[parent]
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.steps.append(step)
        self.tags.append(tag)
        self.phases.append(self.phase)
        self.rows.append(0)
        self.flops.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def spans(self) -> "Spans":
        starts = np.array(self.starts, dtype=np.float64)
        ends = np.array(self.ends, dtype=np.float64)
        return Spans(
            names=np.array(self.names, dtype=str),
            steps=np.array(self.steps, dtype=np.int64),
            tags=np.array([t or "" for t in self.tags], dtype=str),
            phases=np.array(self.phases, dtype=str),
            rows=np.array(self.rows, dtype=np.float64),
            flops=np.array(self.flops, dtype=np.float64),
            dur=ends - starts,
            self_time=self_times(starts, ends, self.parents),
        )


@dataclass
class Spans:
    """Column arrays of recorded spans, with self times already computed."""

    names: np.ndarray
    steps: np.ndarray
    tags: np.ndarray
    phases: np.ndarray
    rows: np.ndarray
    flops: np.ndarray
    dur: np.ndarray
    self_time: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(np.sum(self.names == PLAN_STEP))

    def only(self, phase: str) -> "Spans":
        keep = self.phases == phase
        return Spans(**{f.name: getattr(self, f.name)[keep] for f in fields(self)})

    def mask(self, name=None, tag=None, in_step: bool = False) -> np.ndarray:
        """Spans with one of the names and tags given, inside a control step if ``in_step``."""
        m = np.ones(len(self.names), dtype=bool)
        if name is not None:
            m &= np.isin(self.names, [name] if isinstance(name, str) else list(name))
        if tag is not None:
            m &= np.isin(self.tags, [tag] if isinstance(tag, str) else list(tag))
        if in_step:
            m &= self.steps >= 0
        return m


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def step_median_ms(sp: Spans, values: np.ndarray, m: np.ndarray) -> float:
    """Median over control steps of the per-step sum of ``values[m]``, in ms."""
    step_ids = np.unique(sp.steps[sp.mask(PLAN_STEP)])
    if not len(step_ids):
        return 0.0
    totals = np.zeros(len(step_ids))
    inside = m & (sp.steps >= 0)
    np.add.at(totals, np.searchsorted(step_ids, sp.steps[inside]), values[inside])
    return float(np.median(totals)) * 1e3


def plan_layer_metrics(sp: Spans, peak_gflops: float) -> dict:
    """Per-control-step metrics of the GEMM roles and layer functions in plan_step.

    Times per step are medians over steps, so the roles' self times (which
    partition a step) add up to about the median step time.
    """
    steps = sp.n_steps
    out = {}
    accounted = 0.0
    for role in PLAN_ROLES:
        m = sp.mask("nn.forward", role, in_step=True)
        calls, flops, busy = int(m.sum()), sp.flops[m].sum(), sp.self_time[m].sum()
        gflops_per_s = _ratio(flops, busy) / 1e9
        out[f"nn.{role}.calls_per_step"] = (_ratio(calls, steps), "count")
        out[f"nn.{role}.rows_per_call"] = (_ratio(sp.rows[m].sum(), calls), "count")
        out[f"nn.{role}.self_ms_per_step"] = (step_median_ms(sp, sp.self_time, m), "ms")
        out[f"nn.{role}.gflop_per_step"] = (_ratio(flops / 1e9, steps), "GFLOP")
        out[f"nn.{role}.gflops_per_s"] = (gflops_per_s, "GFLOP/s")
        out[f"nn.{role}.peak_frac"] = (_ratio(gflops_per_s, peak_gflops), "ratio")
        accounted += out[f"nn.{role}.self_ms_per_step"][0]
    for name, key in (
        ("adm.dynamics_mode_all", "adm.dynamics_mode_all"),
        ("adm.behavior_action_distribution_batch", "adm.behavior_action_distribution_batch"),
        ("adm.AdmModel.sample_normalized", "adm.sample_normalized"),
        ("value.QNetwork.values", "value.values"),
    ):
        m = sp.mask(name, in_step=True)
        calls = int(m.sum())
        out[f"{key}.calls_per_step"] = (_ratio(calls, steps), "count")
        out[f"{key}.rows_per_call"] = (_ratio(sp.rows[m].sum(), calls), "count")
        out[f"{key}.ms_per_step"] = (step_median_ms(sp, sp.dur, m), "ms")
    self_parts = {
        "adm.self_ms_per_step": np.char.startswith(sp.names, "adm."),
        "value.self_ms_per_step": np.char.startswith(sp.names, "value."),
        "planner.self_ms_per_step": sp.mask(PLAN_STEP),
        "planner.prune_ms": sp.mask("planner.prune_indices"),
        "planner.mppi_ms": sp.mask("planner.mppi_update"),
    }
    for key, m in self_parts.items():
        out[key] = (step_median_ms(sp, sp.self_time, m), "ms")
        accounted += out[key][0]
    out["trace.accounted_ms_per_step"] = (accounted, "ms")
    return out


TRAIN_ROLES = ("adm_dynamics", "adm_behavior", "fqe")


def train_layer_metrics(sp: Spans) -> dict:
    """Per-optimizer-step time of the training primitives and GFLOP/s per training role."""
    out = {}
    updates = int(sp.mask("nn.adam_update", TRAIN_ROLES).sum())
    for fn in ("forward_cached", "backward", "adam_update"):
        m = sp.mask(f"nn.{fn}", TRAIN_ROLES)
        out[f"nn.train.{fn}.ms_per_step"] = (_ratio(sp.self_time[m].sum() * 1e3, updates), "ms")
    for role in TRAIN_ROLES:
        m = sp.mask(("nn.forward_cached", "nn.backward"), role)
        out[f"nn.train.{role}.gflops_per_s"] = (_ratio(sp.flops[m].sum(), sp.self_time[m].sum()) / 1e9, "GFLOP/s")
    m = sp.mask("value.QNetwork.values_flat", "fqe")
    out["value.fqe_full_pass_ms"] = (_ratio(sp.dur[m].sum() * 1e3, m.sum()), "ms")
    return out


def io_layer_metrics(sp: Spans) -> dict:
    """Environment stepping, dataset and checkpoint I/O, config parsing."""
    out = {}
    m = sp.mask("envs.PointMassEnv.step")
    out["envs.step_us"] = (_ratio(sp.self_time[m].sum() * 1e6, m.sum()), "us")
    m = sp.mask("data.generate_dataset")
    out["data.generate_transitions_per_s"] = (_ratio(sp.rows[m].sum(), sp.dur[m].sum()), "1/s")
    for name, key in (("data.save_dataset", "data.save_ms"), ("data.load_dataset", "data.load_ms")):
        m = sp.mask(name)
        out[key] = (_ratio(sp.dur[m].sum() * 1e3, m.sum()), "ms")
    m = sp.mask("data.save_dataset")
    out["data.bytes"] = (_ratio(sp.rows[m].sum(), m.sum()), "B")
    saves = sp.mask(("adm.save_ensemble", "value.save_q"))
    loads = sp.mask(("adm.load_ensemble", "value.load_q"))
    out["ckpt.save_ms"] = (_ratio(sp.dur[saves].sum() * 1e3, saves.sum()), "ms")
    out["ckpt.load_ms"] = (_ratio(sp.dur[loads].sum() * 1e3, loads.sum()), "ms")
    out["ckpt.bytes"] = (_ratio(sp.rows[saves].sum(), saves.sum()), "B")
    m = sp.mask(("cli.load_config", "config.load_config"))
    out["config.load_ms"] = (_ratio(sp.dur[m].sum() * 1e3, m.sum()), "ms")
    return out
