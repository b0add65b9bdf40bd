"""Layer spans and counters for a traced pressurelab run.

``install`` wraps the public functions of every pressurelab module and
rebinds each name they are reached through (module globals, ``from``
imports, registry dicts, class attributes), so nothing under ``src/``
changes.  Spans live in per-thread state: each thread keeps its own
parent stack, so spans of two pool workers never nest into each other.
A span nested in a span of the same name is folded into the outer one,
which keeps inclusive times of recursive or chained calls counted once.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter


class _ThreadState:
    __slots__ = ("stack", "calls", "inclusive", "self_time", "counts",
                 "roots")

    def __init__(self):
        self.stack = []          # [name, child_seconds] frames, innermost last
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.roots = []          # (start, end) of spans with no parent


class Tracer:
    """Aggregated spans: per name calls, inclusive time and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._seen_chains = set()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` on this thread."""
        state = self._state()
        stack = state.stack
        for frame in stack:
            if frame[0] == name:
                return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            state.calls[name] += 1
            state.inclusive[name] += duration
            state.self_time[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            else:
                state.roots.append((start, end))

    def count(self, name, amount=1):
        self._state().counts[name] += amount

    def first_time(self, key):
        """True the first time ``key`` is seen in this run, on any thread."""
        with self._lock:
            if key in self._seen_chains:
                return False
            self._seen_chains.add(key)
            return True

    def totals(self):
        """Merge the per-thread tables; call after all workers finished."""
        merged = {"calls": Counter(), "inclusive": Counter(),
                  "self": Counter(), "counts": Counter(), "roots": []}
        with self._lock:
            states = list(self._states)
        for state in states:
            merged["calls"].update(state.calls)
            merged["inclusive"].update(state.inclusive)
            merged["self"].update(state.self_time)
            merged["counts"].update(state.counts)
            merged["roots"].extend(state.roots)
        return merged


def covered_seconds(intervals, start, end):
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- installation ------------------------------------------------------------

def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "pressurelab"
                                    or name.startswith("pressurelab."))]


def rebind(original, replacement):
    """Point every module global and registry entry at the replacement."""
    hits = 0
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                hits += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        hits += 1
    return hits


def _traced(tracer, name, fn, before=None):
    """Wrapper running ``fn`` in a span; ``before`` may count or rewrap."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args = before(args)
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _points(value, per_point):
    size = getattr(value, "size", None)
    if size is None:
        size = len(value) if isinstance(value, (list, tuple)) else per_point
    return max(1, size // per_point)


def install(tracer):
    """Wrap the layer boundaries of the imported pressurelab package.

    Returns the number of names rebound.  The package must be imported
    first; nothing is imported or edited under ``src/`` by this call.
    """
    # cli is imported for its from-imports, which rebind() must reach too
    from pressurelab import (bowen, cli, config, cylinders, dynamics,  # noqa: F401
                             lyapunov, pressure, random_bundle)

    rebound = 0

    def wrap_function(module, attr, name, before=None):
        nonlocal rebound
        original = getattr(module, attr)
        rebound += rebind(original, _traced(tracer, name, original, before))

    def wrap_method(cls, attr, name, before=None):
        nonlocal rebound
        setattr(cls, attr, _traced(tracer, name, getattr(cls, attr), before))
        rebound += 1

    def counting(counter, points=False):
        def before(args):
            tracer.count(counter, _points(args[0], 1) if points else 1)
            return args
        return before

    # dynamics: map construction and inverse branches
    for attr in ("doubling_map", "cookie_cutter", "circle_map", "toral_map",
                 "toral_conformal_map", "linear_markov", "golden_mean_map",
                 "build_markov_map"):
        wrap_function(dynamics, attr, "dynamics.build")

    def traced_inv(inv, per_point):
        def wrapper(*args):
            tracer.count("dynamics.inv_points", _points(args[-1], per_point))
            return tracer.call("dynamics.inv", inv, *args)
        return wrapper

    branch_init = dynamics.Branch1D.__init__

    def branch1d_init(self, *args, **kwargs):
        branch_init(self, *args, **kwargs)
        self.inv = traced_inv(self.inv, 1)

    dynamics.Branch1D.__init__ = branch1d_init
    dynamics.Branch2D.inv = traced_inv(dynamics.Branch2D.inv, 2)
    rebound += 2

    # cylinders: the chain walker (base and fiber) and Birkhoff folds
    walk = cylinders.build_levels

    def walk_and_count(maps, *args, **kwargs):
        levels = walk(maps, *args, **kwargs)
        words = sum(len(lvl.first) for lvl in levels)
        tracer.count("cylinders.words", words)
        tracer.count("cylinders.bytes", sum(
            lvl.points.nbytes + lvl.first.nbytes + lvl.last.nbytes
            + lvl.parent.nbytes for lvl in levels))
        described = {}
        chain = tuple(described.setdefault(id(mp), mp.describe())
                      for mp in maps)
        if not tracer.first_time(chain):
            tracer.count("cylinders.dup_words", words)
        return levels

    rebound += rebind(walk, _traced(tracer, "cylinders.walk", walk_and_count))
    wrap_method(cylinders.CylinderSet, "birkhoff", "cylinders.fold")
    wrap_method(random_bundle.FiberCylinders, "birkhoff", "cylinders.fold")

    # pressure: logsumexp kernel and the estimators around it
    wrap_function(pressure, "logsumexp", "pressure.logsumexp",
                  counting("pressure.logsumexp_elems", points=True))
    for attr in ("pressure_additive", "pressure_limit",
                 "pressure_subadditive", "transfer_pressure",
                 "variational_gap", "conjugate_pressure_check",
                 "separated_set", "iterated_singular_pressure"):
        wrap_function(pressure, attr, "pressure.estimator")

    # bowen: root solves, counting pressure evaluations
    def counted_pressure(args):
        pressure_fn = args[0]

        def evaluate(t):
            tracer.count("bowen.evals")
            return pressure_fn(t)

        return (evaluate,) + tuple(args[1:])

    wrap_function(bowen, "bowen_root", "bowen.solve", counted_pressure)
    wrap_function(bowen, "dimension_report", "bowen.report")

    # lyapunov
    wrap_function(lyapunov, "periodic_point", "lyapunov.periodic_point")
    for attr in ("lyapunov_exponents", "average_conformal_check"):
        wrap_function(lyapunov, attr, "lyapunov.exponents")

    # random_bundle: roots, certificates, transport
    wrap_function(random_bundle, "random_bowen_roots", "random_bundle.roots")
    wrap_method(random_bundle.RandomFamily, "__init__",
                "random_bundle.certify",
                counting("random_bundle.family_builds"))
    for attr in ("conjugacy_displacement", "measure_equivariance",
                 "expansivity_min_growth", "distortion_constants"):
        wrap_function(random_bundle, attr, "random_bundle.certify")
    wrap_function(random_bundle, "random_conjugacy_pressure_check",
                  "random_bundle.transport")
    wrap_function(random_bundle, "stability_experiment",
                  "random_bundle.experiment")
    fiber_init = random_bundle.FiberCylinders.__init__
    map_word = random_bundle.FiberConjugacy.map_word

    def fiber_chain_init(self, *args, **kwargs):
        tracer.count("random_bundle.fiber_chains")
        fiber_init(self, *args, **kwargs)

    def counted_map_word(self, word):
        tracer.count("random_bundle.map_word_calls")
        return map_word(self, word)

    random_bundle.FiberCylinders.__init__ = fiber_chain_init
    random_bundle.FiberConjugacy.map_word = counted_map_word
    rebound += 2

    # config
    wrap_function(config, "parse_args", "config.parse")
    wrap_method(config.ExperimentConfig, "resolved", "config.parse")
    return rebound


UNITS = {
    "dynamics.build_s": "s", "dynamics.maps_built": "count",
    "dynamics.inv_s": "s", "dynamics.inv_calls": "count",
    "dynamics.inv_points": "count", "dynamics.points_per_inv": "points/call",
    "cylinders.walk_s": "s", "cylinders.walks": "count",
    "cylinders.words": "count", "cylinders.bytes": "bytes_computed",
    "cylinders.dup_word_frac": "fraction", "cylinders.fold_s": "s",
    "cylinders.folds": "count",
    "pressure.logsumexp_s": "s", "pressure.logsumexp_calls": "count",
    "pressure.logsumexp_elems": "count", "pressure.estimator_s": "s",
    "bowen.solve_s": "s", "bowen.solves": "count", "bowen.evals": "count",
    "bowen.evals_per_solve": "evals/solve",
    "lyapunov.periodic_point_s": "s", "lyapunov.periodic_points": "count",
    "lyapunov.exponents_s": "s",
    "random_bundle.roots_s": "s", "random_bundle.certify_s": "s",
    "random_bundle.transport_s": "s", "random_bundle.fiber_chains": "count",
    "random_bundle.family_builds": "count",
    "random_bundle.map_word_calls": "count",
    "config.parse_s": "s", "cli.other_s": "s",
}


def layer_metrics(totals, main_start, main_end):
    """Per-layer metric values, keyed as in UNITS, from merged totals.

    Times are inclusive span times except ``cylinders.walk_s`` (self time,
    without the inverse branches it calls) and ``cli.other_s`` (time of
    the CLI call covered by no span on any thread).
    """
    calls, incl, own, counts = (totals["calls"], totals["inclusive"],
                                totals["self"], totals["counts"])

    def ratio(num, den):
        return num / den if den else 0.0

    words = counts["cylinders.words"]
    return {
        "dynamics.build_s": incl["dynamics.build"],
        "dynamics.maps_built": calls["dynamics.build"],
        "dynamics.inv_s": incl["dynamics.inv"],
        "dynamics.inv_calls": calls["dynamics.inv"],
        "dynamics.inv_points": counts["dynamics.inv_points"],
        "dynamics.points_per_inv": ratio(counts["dynamics.inv_points"],
                                         calls["dynamics.inv"]),
        "cylinders.walk_s": own["cylinders.walk"],
        "cylinders.walks": calls["cylinders.walk"],
        "cylinders.words": words,
        "cylinders.bytes": counts["cylinders.bytes"],
        "cylinders.dup_word_frac": ratio(counts["cylinders.dup_words"], words),
        "cylinders.fold_s": incl["cylinders.fold"],
        "cylinders.folds": calls["cylinders.fold"],
        "pressure.logsumexp_s": incl["pressure.logsumexp"],
        "pressure.logsumexp_calls": calls["pressure.logsumexp"],
        "pressure.logsumexp_elems": counts["pressure.logsumexp_elems"],
        "pressure.estimator_s": incl["pressure.estimator"],
        "bowen.solve_s": incl["bowen.solve"],
        "bowen.solves": calls["bowen.solve"],
        "bowen.evals": counts["bowen.evals"],
        "bowen.evals_per_solve": ratio(counts["bowen.evals"],
                                       calls["bowen.solve"]),
        "lyapunov.periodic_point_s": incl["lyapunov.periodic_point"],
        "lyapunov.periodic_points": calls["lyapunov.periodic_point"],
        "lyapunov.exponents_s": incl["lyapunov.exponents"],
        "random_bundle.roots_s": incl["random_bundle.roots"],
        "random_bundle.certify_s": incl["random_bundle.certify"],
        "random_bundle.transport_s": incl["random_bundle.transport"],
        "random_bundle.fiber_chains": counts["random_bundle.fiber_chains"],
        "random_bundle.family_builds": counts["random_bundle.family_builds"],
        "random_bundle.map_word_calls":
            counts["random_bundle.map_word_calls"],
        "config.parse_s": incl["config.parse"],
        "cli.other_s": (main_end - main_start)
        - covered_seconds(totals["roots"], main_start, main_end),
    }
