"""Recorder for the traced benchmark run.

The recorder replaces module attributes of the package with timing wrappers,
so it sees calls made through names bound by ``from ... import`` as well as
through module attributes. Two kinds of wrapper:

* a *span* wrapper records one span per call (name, start, end, parent) and
  is used for operation- and driver-level functions;
* a *counter* wrapper adds the call to a per-name count and total time and is
  used for per-step kernels and per-replica helpers, so memory stays bounded
  however many steps run.

A counter call charges its time to the innermost open span, which is how a
span's self time (duration minus the part its children cover) is formed.
Counter-wrapped functions never call each other, so counter calls do not nest.
Spans stay in memory until :meth:`Recorder.dump` writes them out.

This module is imported only by the traced run; the untraced run never loads
it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "index", "start", "end", "parent", "child_s", "attrs")

    def __init__(self, name: str, index: int, parent: int, attrs: dict | None):
        self.name = name
        self.index = index
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        # name -> [calls, seconds, weight]; weight is a caller-defined unit count
        self.counters: dict[str, list] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                name,
                len(spans),
                stack[-1].index if stack else -1,
                attrs(*args, **kwargs) if attrs is not None else None,
            )
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start

        return wrapper

    def counter(self, name: str, fn, weight=None):
        stats = self.counters.setdefault(name, [0, 0.0, 0])
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += weight(*args, **kwargs) if weight is not None else 1
            if stack:
                stack[-1].child_s += elapsed
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, destination: Path) -> None:
        destination.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "self_s": s.self_s,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
            "counters": {
                name: {"calls": c, "s": t, "weight": w}
                for name, (c, t, w) in self.counters.items()
            },
        }
        destination.write_text(json.dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# jumpfilter layers

SCHEMES_TIMED = (
    "zakai-ito",
    "zakai-langevin",
    "wonham-ito",
    "wonham-langevin",
    "log",
    "gamma",
    "telegraph-ito",
    "bayes-oracle",
)

KERNEL_COUNTERS = (
    "zakai.zakai_ito_step",
    "zakai.zakai_langevin_step",
    "zakai.log_step",
    "zakai.gamma_langevin_step",
    "wonham.wonham_update_raw",
    "wonham.finish_simplex_step",
    "wonham.wonham_langevin_step",
    "wonham.telegraph_ito_step",
    "oracle.bayes_forward_step",
)

EMIT_SPANS = ("harness.write_trajectory_csv", "harness.write_unnormalized_csv")


def _replica_rows(probs, *args, **kwargs) -> int:
    return probs.shape[0] if getattr(probs, "ndim", 1) > 1 else 1


def _trajectory_attrs(signature: inspect.Signature):
    """Span attributes of a run_trajectory call: scheme, steps, argument key.

    Two calls with equal keys compute the same trajectory, which is how
    repeated work is counted.
    """

    def attrs(*args, **kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        grid, model = a["grid"], a["model"]
        digest = hashlib.blake2b(digest_size=16)
        for array in (grid.dy, model.levels, model.rates, model.initial_dist):
            digest.update(array.tobytes())
        digest.update(
            repr(
                (grid.dt, grid.beta, a["scheme"], a["correction_sign"],
                 a["sign_variant"], a["initial"] is None)
            ).encode()
        )
        return {"scheme": a["scheme"], "n_steps": grid.n_steps, "key": digest.hexdigest()}

    return attrs


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer of the package."""
    # chain and seeding functions are reached through the names that harness,
    # oracle and signalpath imported from them, so those bindings are wrapped.
    from jumpfilter import cli, harness, oracle, signalpath, wonham, zakai

    def span(name, attrs=None):
        return lambda fn: recorder.span(name, fn, attrs)

    def counter(name, weight=None):
        return lambda fn: recorder.counter(name, fn, weight)

    recorder.patch(cli, "main", span("cli.main"))
    for driver in ("run_filter", "run_convergence", "run_adjudicate"):
        recorder.patch(cli, driver, span(f"harness.{driver}"))
    recorder.patch(
        harness,
        "run_trajectory",
        span("harness.run_trajectory",
             _trajectory_attrs(inspect.signature(harness.run_trajectory))),
    )
    recorder.patch(harness, "simulate_pair", span("harness.simulate_pair"))
    for writer in ("write_trajectory_csv", "write_unnormalized_csv"):
        recorder.patch(harness, writer, span(f"harness.{writer}"))
    recorder.patch(harness, "synthesize_observations", span("signalpath.synthesize_observations"))
    recorder.patch(harness, "coarsen", span("signalpath.coarsen"))
    recorder.patch(oracle, "tower_property_check", span("oracle.tower_property_check"))

    for step in ("zakai_ito_step", "zakai_langevin_step", "log_step", "gamma_langevin_step"):
        recorder.patch(zakai, step, counter(f"zakai.{step}"))
    for step in ("wonham_langevin_step", "telegraph_ito_step"):
        recorder.patch(wonham, step, counter(f"wonham.{step}"))
    for owner in (harness, oracle):
        recorder.patch(owner, "wonham_update_raw",
                       counter("wonham.wonham_update_raw", _replica_rows))
        recorder.patch(owner, "finish_simplex_step", counter("wonham.finish_simplex_step"))
        recorder.patch(owner, "transition_matrix", counter("chain.transition_matrix"))
        recorder.patch(owner, "simulate_jump_path", counter("chain.simulate_jump_path"))
        recorder.patch(owner, "derive_rng", counter("seeding.derive_rng"))
    recorder.patch(harness, "bayes_forward_step", counter("oracle.bayes_forward_step"))
    for owner in (oracle, signalpath):
        recorder.patch(owner, "step_level_integrals", counter("chain.step_level_integrals"))


def layer_metrics(
    recorder: Recorder,
    pass_bounds: list[tuple[int, int]],
    emit_bytes: int,
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict:
    """Per-layer metrics, per workload pass, from the recorded spans and counters.

    ``pass_bounds`` holds the span index range of each traced pass. Means over
    zero calls read 0.
    """
    n_pass = len(pass_bounds)
    spans = recorder.spans
    metrics: dict[str, tuple[float, str]] = {}

    def named(name):
        return [s for s in spans if s.name == name]

    runs = named("harness.run_trajectory")
    distinct = sum(
        len({s.attrs["key"] for s in spans[lo:hi] if s.name == "harness.run_trajectory"})
        for lo, hi in pass_bounds
    )
    metrics["harness.run_trajectory.calls"] = (len(runs) / n_pass, "count")
    metrics["harness.run_trajectory.distinct"] = (distinct / n_pass, "count")
    metrics["harness.trajectory_reuse"] = (distinct / len(runs) if runs else 1.0, "ratio")
    for scheme in SCHEMES_TIMED:
        mine = [s for s in runs if s.attrs["scheme"] == scheme]
        steps = sum(s.attrs["n_steps"] for s in mine)
        metrics[f"harness.run_trajectory.{scheme}.us_per_step"] = (
            1e6 * sum(s.duration for s in mine) / steps if steps else 0.0, "us")
    steps = sum(s.attrs["n_steps"] for s in runs)
    metrics["harness.driver_self_us_per_step"] = (
        1e6 * sum(s.self_s for s in runs) / steps if steps else 0.0, "us")
    metrics["harness.emit_s"] = (
        sum(s.duration for name in EMIT_SPANS for s in named(name)) / n_pass, "s")
    metrics["harness.emit_bytes"] = (emit_bytes / n_pass, "bytes")

    counters = recorder.counters
    for name in KERNEL_COUNTERS:
        calls, seconds, _ = counters.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls / n_pass, "count")
        metrics[f"{name}.us"] = (1e6 * seconds / calls if calls else 0.0, "us")
    _, seconds, rows = counters.get("wonham.wonham_update_raw", (0, 0.0, 0))
    metrics["wonham.wonham_update_raw.ns_per_replica_step"] = (
        1e9 * seconds / rows if rows else 0.0, "ns")

    def counted(name):
        calls, seconds, _ = counters.get(name, (0, 0.0, 0))
        return calls / n_pass, seconds / n_pass

    calls, seconds = counted("chain.simulate_jump_path")
    metrics["chain.simulate_jump_path.calls"] = (calls, "count")
    metrics["chain.simulate_jump_path.s"] = (seconds, "s")
    metrics["chain.step_level_integrals.s"] = (counted("chain.step_level_integrals")[1], "s")
    calls, seconds = counted("chain.transition_matrix")
    metrics["chain.transition_matrix.calls"] = (calls, "count")
    metrics["chain.transition_matrix.s"] = (seconds, "s")
    calls, seconds = counted("seeding.derive_rng")
    metrics["seeding.derive_rng.calls"] = (calls, "count")
    metrics["seeding.derive_rng.s"] = (seconds, "s")

    for name in ("signalpath.synthesize_observations", "signalpath.coarsen"):
        metrics[f"{name}.s"] = (sum(s.duration for s in named(name)) / n_pass, "s")
    for name in ("oracle.tower_property_check", "cli.main"):
        metrics[f"{name}.self_s"] = (sum(s.self_s for s in named(name)) / n_pass, "s")

    metrics["trace_overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "ratio")
    return metrics
