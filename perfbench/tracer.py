"""Per-layer timing of optcons, measured from outside the program.

``Tracer.installed()`` wraps public functions of the package at the place
where their callers look them up, for the duration of a ``with`` block:

* ``coordinator`` imports ``regularize``, ``ocp_direction``,
  ``global_cost`` and the graph checks by name, so those are patched on the
  ``coordinator`` module;
* ``dynamics`` and ``adjoint`` functions are looked up as module attributes
  at call time (``dyn.linearize``, ``adjoint.hessian``), so they are
  patched on their own modules -- which also catches ``rollout``'s
  internal calls to ``step``;
* ``Session`` methods are patched on the class.

Every wrapper is a span.  It counts calls and inclusive seconds per
function, and adds its self time (duration minus the time its child spans
cover) to its layer, which is the module the function belongs to.  The
benchmark wraps each whole episode in a ``harness`` span, so the layers'
self times add up to the traced wall time exactly; ``trace`` collects the
time spent in the counters below, and ``harness`` the benchmark's own loop.

Counters are taken at the same boundaries, from the arguments and return
values only: messages broadcast per exchange, deliveries that re-deliver
the pair's previous payload object (a stale trajectory after a drop),
Hessians that ``regularize`` had to shift, the inner recursion depth
``min(r, L_max) + 1`` of each direction, and the bytes of the artifacts.
Spans are aggregated as they close; nothing per call is kept.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from optcons import adjoint, coordinator, cost, dynamics, scenarios

LAYERS = ("scenarios", "graph", "coordinator", "dynamics", "adjoint", "solver",
          "cost")

# Spans whose call counts and inclusive seconds are published.
PUBLISHED_SPANS = (
    "scenarios.load_scenario", "scenarios.emit_results",
    "graph.require",
    "coordinator.step", "coordinator.exchange",
    "dynamics.rollout", "dynamics.step", "dynamics.linearize",
    "dynamics.second_order_action",
    "adjoint.costate_sweep", "adjoint.gradient", "adjoint.hessian",
    "solver.regularize", "solver.ocp_direction",
    "cost.global_cost",
)

# Derived per-layer metrics: name -> unit.
DERIVED = {
    "scenarios.artifact_bytes": "bytes",
    "coordinator.messages": "count",
    "coordinator.stale_delivery_frac": "ratio",
    "dynamics.linearize_per_update": "ratio",
    "dynamics.rollouts_per_update": "ratio",
    "solver.regularize.shift_frac": "ratio",
    "solver.inner_depth_mean": "count",
    "harness.self_s": "s",
    "trace.self_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in PUBLISHED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    """Aggregated spans and counters for the functions it wraps."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])   # span -> [calls, seconds]
        self.self_s = defaultdict(float)              # layer -> self seconds
        self.counts = defaultdict(int)
        self._stack = []
        self._last_payload = {}
        self._direction_sig = inspect.signature(coordinator.ocp_direction)

    # -- spans ----------------------------------------------------------------

    def wrap(self, fn, span: str, layer: str, after=None):
        """Return fn timed as `span` of `layer`; `after(out, *args, **kw)`
        runs once the span has closed, and its time is charged to ``trace``."""
        stat = self.stats[span]
        self_s = self.self_s
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                t1 = perf_counter()
                after(out, *args, **kwargs)
                h = perf_counter() - t1
                self_s["trace"] += h
                if stack:
                    stack[-1][0] += h
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        S = coordinator.Session
        return [
            (scenarios, "load_scenario", "scenarios.load_scenario", "scenarios", None),
            (scenarios, "emit_results", "scenarios.emit_results", "scenarios",
             self._on_emit),
            (coordinator, "require_strongly_connected", "graph.require", "graph", None),
            (coordinator, "require_spanning_tree", "graph.require", "graph", None),
            (coordinator, "neighbors", "graph.neighbors", "graph", None),
            (S, "__init__", "coordinator.init", "coordinator", self._on_session),
            (S, "step", "coordinator.step", "coordinator", None),
            (S, "_exchange", "coordinator.exchange", "coordinator", self._on_exchange),
            (S, "result", "coordinator.result", "coordinator", None),
            (dynamics, "rollout", "dynamics.rollout", "dynamics", None),
            (dynamics, "step", "dynamics.step", "dynamics", None),
            (dynamics, "linearize", "dynamics.linearize", "dynamics", None),
            (dynamics, "second_order_action", "dynamics.second_order_action",
             "dynamics", None),
            (adjoint, "costate_sweep", "adjoint.costate_sweep", "adjoint", None),
            (adjoint, "gradient", "adjoint.gradient", "adjoint", None),
            (adjoint, "hessian", "adjoint.hessian", "adjoint", None),
            (coordinator, "regularize", "solver.regularize", "solver",
             self._on_regularize),
            (coordinator, "ocp_direction", "solver.ocp_direction", "solver",
             self._on_direction),
            (coordinator, "global_cost", "cost.global_cost", "cost", None),
            (cost.CostSpec, "validate", "cost.validate", "cost", None),
        ]

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, span, layer, after in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, span, layer, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- counters -----------------------------------------------------------------

    def _on_emit(self, artifacts, *args, **kwargs):
        self.counts["artifact_bytes"] += sum(
            os.path.getsize(p) for p in (artifacts.trajectories_csv,
                                         artifacts.errors_csv,
                                         artifacts.metrics_json,
                                         artifacts.config_json))

    def _on_session(self, _none, session, *args, **kwargs):
        self._last_payload = {}

    def _on_exchange(self, bundles, session, trajs, leader_traj, r):
        self.counts["messages"] += len(trajs) + (leader_traj is not None)
        self.counts["agent_updates"] += len(bundles)
        self.counts["update_stages"] += len(bundles) * session.mpc.N_p
        last = self._last_payload
        for i, bundle in bundles.items():
            received = list(bundle.trajectories.items())
            if bundle.leader is not None:
                received.append(("leader", bundle.leader))
            for j, payload in received:
                self.counts["delivered"] += 1
                # A dropped message re-delivers the last payload this pair got.
                if last.get((i, j)) is payload:
                    self.counts["stale"] += 1
                last[(i, j)] = payload

    def _on_regularize(self, out, Hmat, *args, **kwargs):
        self.counts["shifted"] += out is not Hmat

    def _on_direction(self, _d, *args, **kwargs):
        bound = self._direction_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        r, L_max = bound.arguments["r"], bound.arguments["L_max"]
        self.counts["inner_depth"] += min(r, L_max) + 1

    # -- report ---------------------------------------------------------------------

    def metrics(self, traced_wall_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics as {name: value}; keys match metric_units().

        `traced_wall_s` is the measured wall time of the traced episodes and
        `overhead_frac` their time over the same episodes untraced, minus one.
        """
        out = {}
        for name in PUBLISHED_SPANS:
            calls, seconds = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        c = self.counts
        updates = c["agent_updates"]
        directions = self.stats["solver.ocp_direction"][0]
        regularized = self.stats["solver.regularize"][0]
        out["scenarios.artifact_bytes"] = c["artifact_bytes"]
        out["coordinator.messages"] = c["messages"]
        out["coordinator.stale_delivery_frac"] = _ratio(c["stale"], c["delivered"])
        out["dynamics.linearize_per_update"] = _ratio(
            self.stats["dynamics.linearize"][0], c["update_stages"])
        out["dynamics.rollouts_per_update"] = _ratio(
            self.stats["dynamics.rollout"][0], updates)
        out["solver.regularize.shift_frac"] = _ratio(c["shifted"], regularized)
        out["solver.inner_depth_mean"] = _ratio(c["inner_depth"], directions)
        out["harness.self_s"] = self.self_s["harness"]
        out["trace.self_s"] = self.self_s["trace"]
        out["traced_wall_s"] = traced_wall_s
        out["trace_overhead_frac"] = overhead_frac
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
