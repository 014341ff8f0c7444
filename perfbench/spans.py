"""Outside-in span tracing of vermalab's public functions.

``install()`` wraps the functions named in ``TARGETS`` from the outside:
the library is not edited.  Each wrapper opens a span on entry and
closes it on exit; a span's self time is its duration minus the time
covered by the spans it opened.  Spans are folded into per-function
totals in memory as they close, one table per thread, and ``report()``
merges the tables once, when the call is over.

Stacks are per thread because ``cli report`` runs its per-n work in a
``ThreadPoolExecutor`` worker: a span opened in that worker has no
parent on the worker's stack and counts as top level.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

# module-relative names; a dotted tail names a method patched on its class
TARGETS = (
    "exactla.nullspace",
    "exactla.solve",
    "exactla.generalized_kernel",
    "exactla.SparseMat.__matmul__",
    "exactla.RatFunc.__init__",
    "sl2mod.build_tensor",
    "sl2mod.build_Tr",
    "sl2mod.apply_op",
    "sl2mod.casimir_on_vector",
    "enright.highest_weight_vector",
    "enright.projective_generator",
    "enright.casimir_blocks",
    "enright.casimir_weight_matrix",
    "enright.pseudoadjoint_check",
    "hecke.HeckeElement.__mul__",
    "hecke.verify_nondegenerate",
    "hecke.verify_degenerate",
    "hecke.degeneration_check",
    "heisenberg.normal_form",
    "heisenberg.confluence_fuzz",
    "adelman.homotopic",
    "adelman.factors_through_kernel",
    "adelman.factors_through_cokernel",
    "adelman.random_morphism",
    "adelman.random_null_homotopic",
    "adelman.resolve_interpretation",
)

# counts taken at the same boundaries, from a span's arguments and result
EXTRA_COUNTS = (
    "exactla.solve.inconsistent",
    "exactla.solve.cells",
    "exactla.nullspace.cells",
    "adelman.resolve_interpretation.trials",
    "adelman.factors.attempted",
    "adelman.factors.found",
)


def _count_solve(counts, args, result):
    m = args[0]
    counts["exactla.solve.cells"] += m.rows * m.cols
    counts["exactla.solve.inconsistent"] += result is None


def _count_nullspace(counts, args, result):
    m = args[0]
    counts["exactla.nullspace.cells"] += m.rows * m.cols


def _count_resolution(counts, args, result):
    counts["adelman.resolve_interpretation.trials"] += result.trials


def _count_factorization(counts, args, result):
    counts["adelman.factors.attempted"] += 1
    counts["adelman.factors.found"] += result is not None


COUNTERS = {
    "exactla.solve": _count_solve,
    "exactla.nullspace": _count_nullspace,
    "adelman.resolve_interpretation": _count_resolution,
    "adelman.factors_through_kernel": _count_factorization,
    "adelman.factors_through_cokernel": _count_factorization,
}


class _ThreadState:
    __slots__ = ("stack", "stats", "counts", "top_s")

    def __init__(self):
        self.stack = []          # per open span: time covered by its children
        self.stats = {}          # name -> [calls, self seconds]
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self.top_s = 0.0         # time covered by spans with no parent


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    state.top_s += duration
                rec = state.stats.get(name)
                if rec is None:
                    rec = state.stats[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += duration - covered
            if counter is not None:
                counter(state.counts, args, result)
            return result

        return span

    def report(self, call_s):
        """Merged per-function calls and self seconds, the extra counts,
        and the part of ``call_s`` outside every span."""
        functions = {name: {"calls": 0, "self_s": 0.0} for name in TARGETS}
        counts = dict.fromkeys(EXTRA_COUNTS, 0)
        top_s = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_s) in state.stats.items():
                functions[name]["calls"] += calls
                functions[name]["self_s"] += self_s
            for key, value in state.counts.items():
                counts[key] += value
            top_s += state.top_s
        return {"functions": functions, "counts": counts,
                "outside_s": max(call_s - top_s, 0.0)}


def install():
    """Wrap every target and rebind each wrapper in every vermalab module
    that imported the name, so ``from .exactla import solve`` call sites
    are traced too.  Returns the tracer."""
    tracer = Tracer()
    for module_name in sorted({t.split(".")[0] for t in TARGETS}):
        importlib.import_module(f"vermalab.{module_name}")
    loaded = [mod for key, mod in sys.modules.items()
              if key == "vermalab" or key.startswith("vermalab.")]
    for target in TARGETS:
        module_name, *path = target.split(".")
        owner = sys.modules[f"vermalab.{module_name}"]
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        wrapper = tracer.wrap(target, original)
        if len(path) > 1:
            setattr(owner, path[-1], wrapper)
            continue
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return tracer
