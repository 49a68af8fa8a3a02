"""Span tracer that wraps pendinv's public names from outside the package.

Each wrapped callable records a span (name, start, end, parent, operation
id) in memory.  A name is replaced in every ``pendinv`` module namespace
that holds the same object, so ``actions.ellint_K`` is traced as well as
``elliptic.ellint_K``.  Methods of the series types are replaced on the
class; ``mpmath.qr_solve`` and ``dynamics.DOP853`` are wrapped at the
boundary where pendinv calls them.  Nothing is installed unless a
:class:`Tracer` is entered, and leaving it restores every original.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable

# metric group -> (module, attribute) pairs of the functions it covers
FUNCTIONS = {
    "elliptic.cubic_roots": [("elliptic", "cubic_roots")],
    "elliptic.carlson": [("elliptic", n) for n in
                         ("carlson_rf", "carlson_rc", "carlson_rd", "carlson_rj")],
    "elliptic.ellint": [("elliptic", n) for n in
                        ("ellint_K", "ellint_E", "ellint_Pi", "ellint_Pi_from_p",
                         "heuman_lambda0")],
    "quadrature.tanh_sinh": [("quadrature", "tanh_sinh")],
    "normalform.lie_normalize": [("normalform", "lie_normalize")],
    "normalform.poisson_bracket": [("normalform", "poisson_bracket")],
    "actions.action_I1": [("actions", "action_I1")],
    "actions.rotation_W_numeric": [("actions", "rotation_W_numeric")],
    "actions.period_T_numeric": [("actions", "period_T_numeric")],
    "actions.j1_of_energy": [("actions", "j1_of_energy")],
    "actions.rotation_W_model": [("actions", "rotation_W_model")],
    "actions.twist": [("actions", "twist")],
    "actions.two_pi_I1_quadrature": [("actions", "two_pi_I1_quadrature")],
    "pendulum.pendulum_quadruple": [("pendulum", "pendulum_quadruple")],
    "pendulum.series": [("pendulum", n) for n in
                        ("action_log_series", "pendulum_normal_form",
                         "invariant_series_exact", "nome_from_invariant",
                         "J_of_q_theta", "_k_prime_log_series",
                         "_e_prime_log_series")],
    "dynamics.integrate": [("dynamics", "integrate")],
    "cli.main": [("cli", "main")],
}

# metric group -> (class, method) pairs on the series types
METHODS = {
    "series.evaluate": [("TruncatedSeries2", "evaluate"),
                        ("TruncatedSeries1", "evaluate")],
    "series.partial": [("TruncatedSeries2", "partial")],
    "series.algebra": [(cls, m) for cls in ("TruncatedSeries2", "TruncatedSeries1")
                       for m in ("__mul__", "reciprocal")]
                      + [("TruncatedSeries2", "compose_first"),
                         ("TruncatedSeries2", "invert_first"),
                         ("TruncatedSeries1", "compose"),
                         ("TruncatedSeries1", "invert")],
}

GROUPS = tuple(FUNCTIONS) + tuple(METHODS) + ("actions.qr_solve",)
COUNTERS = ("quadrature.integrand_evals", "actions.series_model_results",
            "dynamics.steps", "dynamics.rhs_evals")


class Tracer:
    """Records spans while entered; restores every patched name on exit.

    A span is the list [group, start, end, parent index, operation id];
    the parent is the innermost span open when it started (-1 at top
    level).  Counters hold the boundary counts that are not spans:
    integrand evaluations, series-model results, DOP853 steps and RHS
    evaluations.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def wrap(self, group: str, fn: Callable, on_return=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [group, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "pendinv" or mod_name.startswith("pendinv."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        import mpmath
        from pendinv import (actions, cli, dynamics, elliptic, normalform,
                             pendulum, quadrature, series)

        modules = {"actions": actions, "cli": cli, "dynamics": dynamics,
                   "elliptic": elliptic, "normalform": normalform,
                   "pendulum": pendulum, "quadrature": quadrature}
        hooks = {"actions.action_I1": self._count_method,
                 "dynamics.integrate": self._count_steps}
        for group, names in FUNCTIONS.items():
            for mod, attr in names:
                original = getattr(modules[mod], attr)
                wrapped = self.wrap(group, original, hooks.get(group))
                if group == "quadrature.tanh_sinh":
                    wrapped = self._count_integrand(wrapped)
                self._replace_everywhere(original, wrapped)
        classes = {"TruncatedSeries1": series.TruncatedSeries1,
                   "TruncatedSeries2": series.TruncatedSeries2}
        for group, names in METHODS.items():
            for cls, meth in names:
                owner = classes[cls]
                self._set(owner, meth, self.wrap(group, owner.__dict__[meth]))
        self._set(mpmath, "qr_solve", self.wrap("actions.qr_solve", mpmath.qr_solve))
        self._set(dynamics, "DOP853", self._solver_factory(dynamics.DOP853))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    # -- boundary counters ---------------------------------------------------

    def _count_integrand(self, tanh_sinh: Callable) -> Callable:
        counters = self.counters

        def counted(f, *args, **kwargs):
            def integrand(x):
                counters["quadrature.integrand_evals"] += 1
                return f(x)
            return tanh_sinh(integrand, *args, **kwargs)
        return counted

    def _count_method(self, args, kwargs, result) -> None:
        if getattr(result, "method", None) == "series_model":
            self.counters["actions.series_model_results"] += 1

    def _count_steps(self, args, kwargs, record) -> None:
        self.counters["dynamics.steps"] += len(record.times) - 1

    def _solver_factory(self, solver_cls):
        counters = self.counters

        class CountedSolver(solver_cls):
            """The program's DOP853, counting right-hand-side evaluations."""

            def __init__(self, fun, *args, **kwargs):
                def rhs(t, y):
                    counters["dynamics.rhs_evals"] += 1
                    return fun(t, y)
                super().__init__(rhs, *args, **kwargs)
        return CountedSolver

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["group", "start", "end", "parent", "op"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Children of one span run one after another on a single thread, but the
    covered length is computed as a union of intervals clipped to the
    parent, so overlapping or out-of-range children are never counted
    twice or outside the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-group call counts and self times, plus the boundary counters."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    out: dict[str, float] = {}
    for group in GROUPS:
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.self_s"] = self_s[group]
        out[f"{group}.self_us"] = (1e6 * self_s[group] / calls[group]
                                   if calls[group] else 0.0)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    return out
