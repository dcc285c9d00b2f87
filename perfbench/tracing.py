"""Span tracing of hybrid runs from outside the package.

`Tracer.installed()` rebinds the module attributes that `hybrid.run` and
the two phases look up at call time (`harmony_run`, `de_run`,
`harmony_update`, `select_indices`, `mutate_crossover`, `Population.offer`)
and `TimedObjective` wraps the instance handed to `run`. Spans are kept in
flat arrays and only summarised or written out after the runs end.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

import lsgo_hybrid.de as de_mod
import lsgo_hybrid.harmony as harmony_mod
import lsgo_hybrid.hybrid as hybrid_mod
from lsgo_hybrid.population import Population

# span name -> the hybrid.self_share.* category its self time counts towards
CATEGORY = {
    "evaluate": "evaluate",
    "harmony_update": "harmony_construct",
    "select_indices": "de_construct",
    "mutate_crossover": "de_construct",
    "offer": "offer",
    "run": "other",
    "harmony_run": "other",
    "de_run": "other",
}
CATEGORIES = ("evaluate", "harmony_construct", "de_construct", "offer", "other")
# bookkeeping spans: their time belongs to no category and no parent
_BOOKKEEPING = ("oob_count",)
NAMES = (*CATEGORY, *_BOOKKEEPING)
_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Spans (name, parent, start, end) plus the counts taken at the same calls."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # offers by enclosing phase span id: accepted, attempted
        self.accepted = [0] * len(NAMES)
        self.attempted = [0] * len(NAMES)
        self.oob_coords = 0
        self.trials = 0

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span named `name`."""
        nid = _ID[name]
        clock = time.perf_counter
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count_oob(self, pop, a, b, c, params, bounds):
        # the same mutant de.mutate_crossover builds before crossover
        lo, hi = bounds
        base = pop.x[pop.best_index] if params.strategy == "best1bin" else pop.x[a]
        mutant = base + params.f * (pop.x[b] - pop.x[c])
        self.oob_coords += int(np.count_nonzero((mutant < lo) | (mutant > hi)))
        self.trials += 1

    @contextlib.contextmanager
    def installed(self):
        """Route the hybrid's layer calls through this tracer while open."""
        saved = [
            (hybrid_mod, "harmony_run", hybrid_mod.harmony_run),
            (hybrid_mod, "de_run", hybrid_mod.de_run),
            (harmony_mod, "harmony_update", harmony_mod.harmony_update),
            (de_mod, "select_indices", de_mod.select_indices),
            (de_mod, "mutate_crossover", de_mod.mutate_crossover),
            (Population, "offer", Population.offer),
        ]
        traced_offer = self.wrap("offer", Population.offer)
        traced_mc = self.wrap("mutate_crossover", de_mod.mutate_crossover)
        count_oob = self.wrap("oob_count", self._count_oob)
        stack, name_id = self._stack, self.name_id
        accepted, attempted = self.accepted, self.attempted

        def offer(pop, x, fitness):
            phase = name_id[stack[-1]]
            ok = traced_offer(pop, x, fitness)
            attempted[phase] += 1
            accepted[phase] += ok
            return ok

        def mutate_crossover(pop, x, a, b, c, params, bounds, rng):
            count_oob(pop, a, b, c, params, bounds)
            return traced_mc(pop, x, a, b, c, params, bounds, rng)

        hybrid_mod.harmony_run = self.wrap("harmony_run", hybrid_mod.harmony_run)
        hybrid_mod.de_run = self.wrap("de_run", hybrid_mod.de_run)
        harmony_mod.harmony_update = self.wrap("harmony_update",
                                               harmony_mod.harmony_update)
        de_mod.select_indices = self.wrap("select_indices", de_mod.select_indices)
        de_mod.mutate_crossover = mutate_crossover
        Population.offer = offer
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def run(self, instance, config, run_index=0):
        """`hybrid.run` on `instance` with the run and its evaluations traced."""
        return self.wrap("run", hybrid_mod.run)(
            TimedObjective(instance, self), config, run_index)

    # summaries

    def export(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "accepted": np.array(self.accepted, dtype=np.int64),
            "attempted": np.array(self.attempted, dtype=np.int64),
            "oob_coords": np.int64(self.oob_coords),
            "trials": np.int64(self.trials),
        }


def merge(exports: list[dict]) -> dict:
    """One export from several tracers' (e.g. one per batch member)."""
    out = {k: [] for k in ("name_id", "parent", "start", "end")}
    offset = 0
    for ex in exports:
        parent = ex["parent"].copy()
        parent[parent >= 0] += offset
        out["parent"].append(parent)
        for k in ("name_id", "start", "end"):
            out[k].append(ex[k])
        offset += ex["start"].size
    merged = {k: np.concatenate(v) if v else np.zeros(0) for k, v in out.items()}
    for k in ("accepted", "attempted", "oob_coords", "trials"):
        merged[k] = sum(ex[k] for ex in exports)
    merged["names"] = np.array(NAMES)
    return merged


def self_shares(ex: dict) -> dict[str, float]:
    """Share of traced time spent in each category's own code.

    A span's self time is its duration minus the durations of its children;
    bookkeeping spans are dropped together with their time, so the five
    shares sum to one.
    """
    dur = ex["end"] - ex["start"]
    parent = ex["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    own = np.bincount(ex["name_id"], weights=dur - child, minlength=len(NAMES))
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for name, category in CATEGORY.items():
        totals[category] += float(own[_ID[name]])
    whole = sum(totals.values())
    return {c: t / whole for c, t in totals.items()}


def accept_ratio(ex: dict, phase: str) -> float:
    i = _ID[phase]
    return float(ex["accepted"][i]) / max(1, int(ex["attempted"][i]))


class TimedObjective:
    """The instance as `run` sees it, with every evaluation traced."""

    def __init__(self, instance, tracer: Tracer):
        self.evaluate = tracer.wrap("evaluate", instance.evaluate)
        self.dimension = instance.dimension
        self.bounds = instance.bounds
        self.function_id = instance.function_id

    def __call__(self, x):
        return self.evaluate(x)


def traced_member(task):
    """Batch worker: `hybrid._batch_worker` with the run traced."""
    instance, config, run_index = task
    tracer = Tracer()
    with tracer.installed():
        result = tracer.run(instance.fresh_copy(), config, run_index)
    return result, tracer.export()
