"""Spans around public liesym functions, installed only for a traced pass.

The tracer rebinds each target function in every loaded liesym module that
holds it (modules import names with `from .x import y`, so one function
can have several bindings) and wraps methods at class level, including
the `__radd__`/`__rmul__` aliases of the Expr operators.  restore() puts
every original object back and checks that it is back.

Layer functions record one span each: name, start, end, parent span and
job id, kept in memory and written out when the run ends; their self
time is derived from the spans afterwards.  Leaf functions that run
hundreds of thousands of times per job (Expr operators, compiled kernels,
structure-constant lookups, RK4 right-hand sides) are aggregated in
place, calls and self time, and their time is charged to the enclosing
span so that its self time stays exact.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, metric prefix); functions get a span per call
SPAN_FUNCTIONS = [
    ("liesym.liealg", "match_in_span", "liealg.match_in_span"),
    ("liesym.liealg", "extract_structure_constants",
     "liealg.extract_structure_constants"),
    ("liesym.liealg", "field_rank", "liealg.field_rank"),
    ("liesym.rlinalg", "rref", "rlinalg.rref"),
    ("liesym.rlinalg", "solve", "rlinalg.solve"),
    ("liesym.rlinalg", "rank", "rlinalg.rank"),
    ("liesym.rlinalg", "nullspace", "rlinalg.nullspace"),
    ("liesym.vectorfield", "lie_bracket", "vectorfield.lie_bracket"),
    ("liesym.expr", "parse", "expr.parse"),
    ("liesym.expr", "compile_numeric", "expr.compile_numeric"),
    ("liesym.integrate", "rk4_solve", "integrate.rk4_solve"),
    ("liesym.integrate", "cumulative_simpson", "integrate.cumulative_simpson"),
    ("liesym.liesys", "build_symmetry_system", "liesys.build_symmetry_system"),
    ("liesym.liesys", "symmetry_residual", "liesys.symmetry_residual"),
    ("liesym.liesys", "flow_transport_check", "liesys.flow_transport_check"),
    ("liesym.liesys", "symmetry_algebra_f0_zero",
     "liesys.symmetry_algebra_f0_zero"),
    ("liesym.liesys", "candidate_from_trajectory",
     "liesys.candidate_from_trajectory"),
    ("liesym.liesys", "integrate", "liesys.integrate"),
    ("liesym.liesys", "aff_closed_form", "liesys.aff_closed_form"),
    ("liesym.pdesys", "build_pde_symmetry_system",
     "pdesys.build_pde_symmetry_system"),
    ("liesym.pdesys", "curvature_residual", "pdesys.curvature_residual"),
    ("liesym.pdesys", "integrate_along_path", "pdesys.integrate_along_path"),
    ("liesym.pdesys", "pde_symmetry_residual", "pdesys.pde_symmetry_residual"),
    ("liesym.pdesys", "pde_candidate_from_path", "pdesys.pde_candidate_from_path"),
    ("liesym.catalog", "make", "catalog.make"),
    ("liesym.cli", "main", "cli.main"),
]

# (module, class, attributes, metric prefix, span or hot)
METHODS = [
    ("liesym.liesys", "SymmetryCandidate", ("channels_at",),
     "liesys.SymmetryCandidate.channels_at", "span"),
    ("liesym.expr", "Expr", ("__add__", "__radd__", "__sub__", "__rsub__",
                             "__mul__", "__rmul__", "__truediv__",
                             "__rtruediv__", "__pow__", "__neg__"),
     "expr.Expr.arith", "hot"),
    ("liesym.expr", "Expr", ("diff",), "expr.Expr.diff", "hot"),
    ("liesym.expr", "Expr", ("subs",), "expr.Expr.subs", "hot"),
    ("liesym.expr", "Expr", ("is_zero",), "expr.Expr.is_zero", "hot"),
    ("liesym.liealg", "StructureTensor", ("c",), "liealg.StructureTensor.c",
     "hot"),
]

# closures handed out by compile_numeric; RK4 right-hand sides are named
# after the module that defined the closure
KERNEL = "expr.kernel"
RHS = ("liesys.rhs", "pdesys.rhs")


def _rhs_name(fn: Callable) -> str:
    module = getattr(fn, "__module__", "") or ""
    return module.rpartition(".")[2] + ".rhs"


# counters read off return values that are reported as they are
COUNTS = ("integrate.rk4_solve.steps", "liesys.symmetry_residual.points",
          "pdesys.pde_symmetry_residual.points")
# ratio metric -> (counter of useful outcomes, span whose calls are the base)
RATIOS = {
    "liealg.match_in_span.hit_ratio": ("liealg.match_in_span.hits",
                                       "liealg.match_in_span"),
    "liealg.extract_structure_constants.numerical_ratio": (
        "liealg.extract_structure_constants.numerical",
        "liealg.extract_structure_constants"),
    "liesys.symmetry_residual.exact_ratio": ("liesys.symmetry_residual.exact",
                                             "liesys.symmetry_residual"),
    "pdesys.curvature_residual.exact_ratio": ("pdesys.curvature_residual.exact",
                                              "pdesys.curvature_residual"),
}


def _count_after(tracer: "Tracer", name: str, result) -> None:
    """Counters read off a layer's return value."""
    counts = tracer.counts
    if name == "liealg.match_in_span":
        counts[name + ".hits"] += result is not None
    elif name == "liealg.extract_structure_constants":
        counts[name + ".numerical"] += result[1] == "numerical"
    elif name == "integrate.rk4_solve":
        counts[name + ".steps"] += len(result.ts) - 1
    elif name == "liesys.symmetry_residual":
        counts[name + ".points"] += result.npoints
        counts[name + ".exact"] += bool(result.exact)
    elif name == "pdesys.pde_symmetry_residual":
        counts[name + ".points"] += result.npoints
    elif name == "pdesys.curvature_residual":
        counts[name + ".exact"] += bool(result.exact)


class Tracer:
    """Span recorder and patcher for one traced pass over a job list."""

    def __init__(self):
        # open frames: [span id or -1 for hot calls, child seconds,
        # seconds of direct hot children]
        self.stack: List[list] = []
        # span id -> (name, start, end, parent id, job, hot child seconds);
        # parent -1 is a job root, -2 a span opened inside a hot call
        self.spans: List[Optional[tuple]] = []
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        # seconds of hot calls made outside every span
        self.loose = [0.0]
        self.job = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        tracer, stack, spans, clock = self, self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if name == "integrate.rk4_solve":
                args, kwargs = tracer._wrap_rhs(args, kwargs)
            if not stack:
                parent = -1
            elif stack[-1][0] < 0:
                parent = -2
            else:
                parent = stack[-1][0]
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.job, frame[2])
                if stack:
                    stack[-1][1] += end - start
            _count_after(tracer, name, result)
            if name == "expr.compile_numeric":
                result = tracer._hot(result, KERNEL)
            return result

        return wrapper

    def _hot(self, fn: Callable, name: str) -> Callable:
        stack, clock, loose = self.stack, time.perf_counter, self.loose
        stat = self.hot[name]

        def wrapper(*args, **kwargs):
            frame = [-1, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[0] >= 0:
                        parent[2] += dur
                else:
                    loose[0] += dur

        return wrapper

    def _wrap_rhs(self, args, kwargs):
        if args:
            rhs = args[0]
            return (self._hot(rhs, _rhs_name(rhs)),) + tuple(args[1:]), kwargs
        kwargs = dict(kwargs)
        kwargs["rhs"] = self._hot(kwargs["rhs"], _rhs_name(kwargs["rhs"]))
        return args, kwargs

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname in {m for m, *_ in SPAN_FUNCTIONS + METHODS}:
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "liesym" or n.startswith("liesym."))]
        for modname, attr, name in SPAN_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._span(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for modname, clsname, attrs, name, how in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for attr in attrs:
                original = cls.__dict__[attr]
                wrapper = (self._span(original, name) if how == "span"
                           else self._hot(original, name))
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def restore(self) -> None:
        """Put back every original object and check that it is back."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            now = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            if now is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, List[float]]:
        """name -> [calls, self seconds] for spans and hot leaves.

        A span's self time is its duration minus the spans whose parent it
        is and minus the hot calls made directly inside it.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, hot in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for sid, (name, start, end, parent, job, hot) in enumerate(self.spans):
            stat = out[name]
            stat[0] += 1
            stat[1] += (end - start) - child[sid] - hot
        for name, (calls, self_s) in self.hot.items():
            out[name] = [calls, self_s]
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, job, hot) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, job, hot]) + "\n")


# -- per-layer metrics -------------------------------------------------------

# layer groups for self-time shares
LAYERS = ("liealg", "rlinalg", "vectorfield", "expr.Expr.arith", KERNEL,
          "expr.other", "integrate") + RHS + ("liesys", "pdesys", "catalog", "cli")


def _layer_of(name: str) -> str:
    if name in LAYERS:
        return name
    if name.startswith("expr."):
        return "expr.other"
    return name.split(".")[0]


def _names() -> List[str]:
    names = [name for _, _, name in SPAN_FUNCTIONS]
    return names + [m[3] for m in METHODS] + [KERNEL] + list(RHS)


def layer_metrics(selfs: Dict[str, List[float]], counts: Dict[str, int],
                  job_s: float, overhead: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced pass, in a fixed order.

    job_s is the traced wall time of all jobs; the share of it outside
    every span is the benchmark's own glue ("bench").
    """
    out: Dict[str, Tuple[float, str]] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in _names():
        calls, self_s = selfs.get(name, (0, 0.0))
        if name not in RHS:  # their calls add up to integrate.rk4_solve.rhs_evals
            out[f"{name}.{'evals' if name == KERNEL else 'calls'}"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for name in COUNTS:
        out[name] = (counts[name], "count")
    out["integrate.rk4_solve.rhs_evals"] = (
        sum(calls for name, (calls, _) in selfs.items() if name.endswith(".rhs")),
        "count")
    for name, (counter, base) in RATIOS.items():
        out[name] = (ratio(counts[counter], selfs.get(base, (0,))[0]), "1")
    shares = defaultdict(float)
    for name, (calls, self_s) in selfs.items():
        shares[_layer_of(name)] += self_s
    for layer in LAYERS:
        out[f"share.{layer}"] = (ratio(shares[layer], job_s), "1")
    out["share.bench"] = (ratio(job_s - sum(shares.values()), job_s), "1")
    out["trace.overhead_ratio"] = (overhead, "1")
    return out
