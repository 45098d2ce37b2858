"""Layer instrumentation installed from outside the package.

Every layer is a public function of ``ecoplatoon``. It is wrapped at the
place its caller looks it up, so ``src/`` stays untouched:

* the solver calls ``backward_pass``, ``forward_pass`` and ``solve`` through
  its own module globals, and ``costs.*`` / ``cons.*`` through module
  attributes, so those wrappers go on the defining modules;
* ``experiments`` imports ``resimulate_time_domain``, ``simulate_baseline``
  and ``platoon_fuel`` by name and ``cli`` imports ``load_scenario`` by name,
  so those wrappers go on ``experiments`` and ``cli``.

A :class:`Tracer` runs in one of two modes. Counting mode (the untraced
runs that give the end-to-end metrics) wraps only the four functions whose
call counts identify the solver's path, reads no clock except around
``solver.solve`` (the per-solve latency metrics need it) and keeps no spans.
Tracing mode wraps every layer and keeps one span per call -- layer, start,
end, parent span, outcome -- in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass

# (module the caller looks the function up in, attribute, layer name,
#  wrapped in counting mode too)
SITES = (
    ("ecoplatoon.solver", "solve", "solver.solve", True),
    ("ecoplatoon.solver", "backward_pass", "solver.backward_pass", True),
    ("ecoplatoon.solver", "forward_pass", "solver.forward_pass", True),
    ("ecoplatoon.constraints", "update_multipliers", "constraints.update_multipliers", True),
    ("ecoplatoon.solver", "receding_horizon_run", "solver.receding_horizon_run", False),
    ("ecoplatoon.costs", "stage_derivatives_batch", "costs.stage_derivatives_batch", False),
    ("ecoplatoon.constraints", "al_derivative_batch", "constraints.al_derivative_batch", False),
    ("ecoplatoon.costs", "trajectory_cost", "costs.trajectory_cost", False),
    ("ecoplatoon.constraints", "evaluate", "constraints.evaluate", False),
    ("ecoplatoon.experiments", "resimulate_time_domain", "platoon.resimulate_time_domain", False),
    ("ecoplatoon.experiments", "simulate_baseline", "baseline.simulate_baseline", False),
    ("ecoplatoon.experiments", "platoon_fuel", "fuel.platoon_fuel", False),
    ("ecoplatoon.cli", "write_csv", "cli.write_csv", False),
    ("ecoplatoon.stability", "run_perturbation", "stability.run_perturbation", False),
    ("ecoplatoon.cli", "load_scenario", "scenario.load_scenario", False),
    ("ecoplatoon.scenario", "load_scenario", "scenario.load_scenario", False),
)

# Layers whose work is a number of spatial steps: both take (states, controls, ...).
_STEPPED = ("solver.backward_pass", "solver.forward_pass")


@dataclass
class SolveRecord:
    """One ``solver.solve`` call that returned, as seen from outside."""

    start_s: float  # on the tracer's clock
    wall_s: float
    converged: bool
    iterations: int
    max_violation: float


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for none
    status: str  # ok | raised | rejected


class Tracer:
    """Counters, per-solve records and (in tracing mode) spans for one run."""

    def __init__(self, spans: bool, clock=time.perf_counter):
        self.tracing = spans
        self.clock = clock
        self.counts = defaultdict(int)  # "<layer>.<counter>" -> int
        self.solves: list[SolveRecord] = []
        self.spans: list[Span | None] = []  # None while the span is open
        self._stack: list[int] = []

    # -- instrumentation -------------------------------------------------

    def install(self):
        """Wrap the sites for this mode; returns the list needed to undo it."""
        saved = []
        for module_name, attr, layer, counted in SITES:
            if not (counted or self.tracing):
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return saved

    @staticmethod
    def uninstall(saved) -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    def _wrap(self, layer, fn):
        def wrapper(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)

        return wrapper

    def _open(self) -> int:
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, layer: str, start: float, status: str) -> None:
        end = self.clock()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[span_id] = Span(layer, start, end, parent, status)

    def _call(self, layer, fn, args, kwargs):
        counts = self.counts
        counts[layer + ".calls"] += 1
        timed = self.tracing or layer == "solver.solve"
        span_id = self._open() if self.tracing else -1
        start = self.clock() if timed else 0.0
        status = "ok"
        try:
            result = fn(*args, **kwargs)
        except Exception:
            status = "raised"
            counts[layer + ".raised"] += 1
            raise
        finally:
            if self.tracing:
                self._close(span_id, layer, start, status)
        if layer in _STEPPED:
            # a raising backward pass stops part-way, so only completed calls
            # count towards the per-step cost
            counts[layer + ".steps"] += args[1].accels.shape[1]
        if layer == "solver.forward_pass" and result is None:
            counts[layer + ".rejected"] += 1
            if self.tracing:
                self.spans[span_id].status = "rejected"
        elif layer == "solver.solve":
            wall = self.clock() - start
            self.solves.append(
                SolveRecord(
                    start,
                    wall,
                    bool(result.converged),
                    len(result.iterations),
                    float(result.max_violation),
                )
            )
            counts["solver.iterations"] += len(result.iterations)
            counts["solver.solve.unconverged"] += 0 if result.converged else 1
        elif layer == "cli.write_csv":
            counts[layer + ".bytes"] += os.path.getsize(args[0])
        return result

    # -- spans the benchmark opens itself --------------------------------

    @contextlib.contextmanager
    def region(self, name: str):
        """One span around a benchmark phase (tracing mode only)."""
        if not self.tracing:
            yield
            return
        span_id = self._open()
        start = self.clock()
        status = "raised"
        try:
            yield
            status = "ok"
        finally:
            self._close(span_id, name, start, status)


def layer_times(spans, roots):
    """Inclusive and self seconds per layer under the given root spans.

    ``roots`` are span indices (the benchmark's pass regions). Returns
    ``(inclusive, self_time, completed, covered)``: ``completed`` is
    the inclusive time of calls that returned without raising, and
    ``covered`` the time the roots' direct children cover, i.e. the part of
    the passes spent inside a named layer.
    """
    children_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children_time[span.parent] += span.end - span.start
    root_set = set(roots)
    inside = set(roots)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    completed = defaultdict(float)
    covered = 0.0
    # spans are stored in opening order, so a parent precedes its children
    for idx, span in enumerate(spans):
        if span.parent not in inside:
            continue
        inside.add(idx)
        duration = span.end - span.start
        inclusive[span.layer] += duration
        self_time[span.layer] += duration - children_time[idx]
        if span.status != "raised":
            completed[span.layer] += duration
        if span.parent in root_set:
            covered += duration
    return inclusive, self_time, completed, covered
