"""Spans and counters at the layer boundaries of `sutwist`, patched in from outside.

Each traced function is replaced, in every `sutwist` module namespace that
holds it, by a wrapper that records a span (job id, span id, parent span id,
name, start, end).  Counted functions and methods only bump a counter.  Spans
stay in memory until the run ends; a layer's self time is its spans' duration
minus the time their direct child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from sutwist import scalars

# layer -> functions that get a span; the layer name is the module name
SPANS = {
    "cohomology": ("cohomologous", "is_cocycle", "coboundary", "cyclic_class_invariant"),
    "smith": ("smith_normal_form", "mat_vec"),
    "lattice": ("descend_c_tau",),
    "presentation": ("generate_relations", "quantum_det_relation", "serialize"),
    "classification": ("is_isomorphic", "canonical_form"),
    "spin": ("check_V_intertwiner", "pairing_gh", "theorem_a1_check", "invariant_f"),
    "cli": ("main",),
}
# functions and methods that only count calls, by metric name
COUNTED_FUNCTIONS = {
    "lattice.c_tau_eval.calls": ("lattice", "c_tau_eval"),
    "spin.coproduct_action.calls": ("spin", "coproduct_action"),
}
COUNTED_METHODS = {
    "scalars.UnitAngle.created": (scalars.UnitAngle, "__init__"),
    "scalars.HalfLaurent.mul.calls": (scalars.HalfLaurent, "__mul__"),
    "scalars.CycloLaurent.mul.calls": (scalars.CycloLaurent, "__mul__"),
}
SETUP_JOB = -1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [job, span id, parent span id, name, start, end]
        self.counts: Counter = Counter()
        self.job = SETUP_JOB
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [self.job, sid, stack[-1] if stack else -1, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if name == "presentation.generate_relations":
                self.counts["presentation.terms"] += sum(len(rel.terms) for rel in result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, module_name: str, attr: str, make) -> None:
        """Swap the function in its home module and in every sutwist module that imported it."""
        original = getattr(sys.modules[f"sutwist.{module_name}"], attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sutwist" or mod_name.startswith("sutwist."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def install(self) -> None:
        for layer, names in SPANS.items():
            for name in names:
                self._replace_everywhere(layer, name, lambda fn, key=f"{layer}.{name}": self._span(key, fn))
        for key, (module_name, attr) in COUNTED_FUNCTIONS.items():
            self._replace_everywhere(module_name, attr, lambda fn, key=key: self._counter(key, fn))
        for key, (cls, attr) in COUNTED_METHODS.items():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._counter(key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def layer_metrics(spans: list[list], counts: Counter, job_time_s: float) -> dict:
    """Per-layer metrics of the traced jobs; `counts` holds the jobs' counts only.

    Spans of set-up (job -1) count only for smith_normal_form: its result is
    cached per (group, degree), so set-up's warm-up is where it runs.
    """
    child_time: dict[int, float] = {}
    for job, sid, parent, name, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls: Counter = Counter()
    self_s: dict[str, float] = {}
    for job, sid, parent, name, start, end in spans:
        if job == SETUP_JOB and name != "smith.smith_normal_form":
            continue
        calls[name] += 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for layer, names in SPANS.items():
        share = 0.0
        for name in names:
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = (calls[key], "count")
            out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
            if key != "smith.smith_normal_form":
                share += self_s.get(key, 0.0)
        out[f"{layer}.share"] = (share / job_time_s, "ratio")
    by_id = {sid: name for _, sid, _, name, _, _ in spans}
    solves = calls["cohomology.cohomologous"]
    inner = sum(
        1
        for job, _, parent, name, _, _ in spans
        if job != SETUP_JOB
        and name == "cohomology.is_cocycle"
        and by_id.get(parent) == "cohomology.cohomologous"
    )
    out["cohomology.is_cocycle_per_solve"] = (inner / solves if solves else 0.0, "ratio")
    for key in (*COUNTED_FUNCTIONS, *COUNTED_METHODS, "presentation.terms"):
        out[key] = (counts[key], "count")
    return out
