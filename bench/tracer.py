"""Spans around the program's public functions, recorded from outside.

The program's modules import each other's functions by name, so a call such
as ``check_jacobi(...)`` inside ``harness`` resolves through
``harness.check_jacobi`` at call time.  ``Tracer.install`` therefore replaces
every module-global binding of a traced function in every loaded
``bisymplectic`` module, and ``Tracer.remove`` puts the originals back.

A span is (name, start, end, parent, thread).  The parent is the innermost
traced call open on the same thread; ``verify_all`` runs entries on pool
threads, so their spans are roots of their own threads.  Self time is a
span's duration minus the durations of its children.  Under the GIL two
threads' spans overlap in wall time, so self times on a threaded workload
add up to more than the wall time of the pass.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from types import ModuleType

# (layer, function): the layer is the module that defines the function
TRACED = (
    ("harness", "load_entry"),
    ("harness", "verify_entry"),
    ("harness", "verify_all"),
    ("harness", "emit_report"),
    ("liealg", "check_antisymmetry"),
    ("liealg", "check_jacobi"),
    ("liealg", "verify_manin_triple"),
    ("liealg", "check_representation"),
    ("liealg", "apply_isomorphism"),
    ("rmatrix", "cybe_residual"),
    ("symplectic", "closure_residual"),
    ("symplectic", "check_nondegenerate"),
    ("symplectic", "poisson_bracket"),
    ("symplectic", "check_field_skew"),
    ("symplectic", "jacobi_residual_field"),
    ("expr", "compile_exprs"),
    ("expr", "equiv_zero"),
    ("dynsys", "check_darboux"),
    ("dynsys", "symmetry_residual"),
    ("dynsys", "find_involutive_pairs"),
    ("dynsys", "build_Q"),
    ("dynsys", "sts_residual"),
    ("dynsys", "independence_rank"),
    ("exchange", "transport_rep"),
    ("exchange", "verify_exchange"),
    ("exchange", "classify_transformation"),
    ("flow", "integrate"),
    ("flow", "conservation_drift"),
    ("flow", "export_csv"),
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index or None, thread id)
        self.counters: dict[str, int] = {}
        self._compiled: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[ModuleType, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions; import the layers first."""
        modules = {layer: importlib.import_module(f"bisymplectic.{layer}") for layer, _ in TRACED}
        targets = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bisymplectic" or name.startswith("bisymplectic."))]
        for layer, fname in TRACED:
            original = getattr(modules[layer], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mod in targets:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording --------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, threading.get_ident())
            tracer._observe(name, args, kwargs, result)
            return result

        return traced

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counters read from the arguments and results at the boundary."""
        self._count(f"{name}.calls")
        if name == "expr.compile_exprs":
            exprs = args[0] if args else kwargs["exprs"]
            arg_names = args[1] if len(args) > 1 else kwargs["arg_names"]
            key = (tuple(exprs), tuple(arg_names), args[2:], tuple(sorted(kwargs.items())))
            with self._lock:
                if key in self._compiled:
                    self.counters["expr.compile_exprs.repeat_calls"] = (
                        self.counters.get("expr.compile_exprs.repeat_calls", 0) + 1)
                self._compiled.add(key)
        elif name == "expr.equiv_zero":
            self._count("expr.equiv_zero.trials", result.trials)
            self._count("expr.equiv_zero.singular_trials", result.singular_trials)
        elif name == "flow.integrate":
            self._count("flow.integrate.steps", len(result.times) - 1)
        elif name == "flow.export_csv":
            out = args[0] if args else kwargs["out"]
            if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
                self._count("flow.export_csv.bytes", os.path.getsize(out))
            else:  # a fresh in-memory text buffer: its position is the size written
                self._count("flow.export_csv.bytes", out.tell())
        elif name.startswith("liealg."):
            samples = getattr(result, "samples", None)
            if samples is None and hasattr(result, "ad_invariance"):
                # the double's Jacobi part was counted by the nested check_jacobi
                samples = result.ad_invariance.samples
            if samples is not None:
                self._count("liealg.exact_samples", samples)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per traced name."""
        durations = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s[0]] = out.get(s[0], 0.0) + durations[i] - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


def _spec(source: str, key: str, unit: str = "s"):
    return source, key, unit


# per-layer metric name -> (source, key, unit); "total" is inclusive span time,
# "self" is self time, "counter" a count recorded at the boundary
LAYER_METRICS = {
    "harness.load_entry.s": _spec("total", "harness.load_entry"),
    "harness.verify_entry.s": _spec("total", "harness.verify_entry"),
    "harness.verify_all.s": _spec("total", "harness.verify_all"),
    "harness.emit_report.s": _spec("total", "harness.emit_report"),
    "liealg.check_jacobi.self_s": _spec("self", "liealg.check_jacobi"),
    "liealg.check_jacobi.calls": _spec("counter", "liealg.check_jacobi.calls", "count"),
    "liealg.verify_manin_triple.self_s": _spec("self", "liealg.verify_manin_triple"),
    "liealg.check_representation.self_s": _spec("self", "liealg.check_representation"),
    "liealg.check_antisymmetry.self_s": _spec("self", "liealg.check_antisymmetry"),
    "liealg.apply_isomorphism.self_s": _spec("self", "liealg.apply_isomorphism"),
    "liealg.exact_samples": _spec("counter", "liealg.exact_samples", "count"),
    "rmatrix.cybe_residual.self_s": _spec("self", "rmatrix.cybe_residual"),
    "symplectic.closure_residual.self_s": _spec("self", "symplectic.closure_residual"),
    "symplectic.check_nondegenerate.self_s": _spec("self", "symplectic.check_nondegenerate"),
    "symplectic.poisson_bracket.self_s": _spec("self", "symplectic.poisson_bracket"),
    "symplectic.check_field_skew.self_s": _spec("self", "symplectic.check_field_skew"),
    "symplectic.jacobi_residual_field.self_s": _spec("self", "symplectic.jacobi_residual_field"),
    "expr.compile_exprs.self_s": _spec("self", "expr.compile_exprs"),
    "expr.compile_exprs.calls": _spec("counter", "expr.compile_exprs.calls", "count"),
    "expr.compile_exprs.repeat_calls": _spec("counter", "expr.compile_exprs.repeat_calls", "count"),
    "expr.equiv_zero.self_s": _spec("self", "expr.equiv_zero"),
    "expr.equiv_zero.calls": _spec("counter", "expr.equiv_zero.calls", "count"),
    "expr.equiv_zero.trials": _spec("counter", "expr.equiv_zero.trials", "count"),
    "expr.equiv_zero.singular_trials": _spec("counter", "expr.equiv_zero.singular_trials", "count"),
    "dynsys.check_darboux.self_s": _spec("self", "dynsys.check_darboux"),
    "dynsys.symmetry_residual.self_s": _spec("self", "dynsys.symmetry_residual"),
    "dynsys.find_involutive_pairs.self_s": _spec("self", "dynsys.find_involutive_pairs"),
    "dynsys.sts_residual.self_s": _spec("self", "dynsys.sts_residual"),
    "dynsys.build_Q.calls": _spec("counter", "dynsys.build_Q.calls", "count"),
    "dynsys.independence_rank.self_s": _spec("self", "dynsys.independence_rank"),
    "exchange.verify_exchange.self_s": _spec("self", "exchange.verify_exchange"),
    "exchange.classify_transformation.self_s": _spec("self", "exchange.classify_transformation"),
    "exchange.transport_rep.calls": _spec("counter", "exchange.transport_rep.calls", "count"),
    "flow.integrate.self_s": _spec("self", "flow.integrate"),
    "flow.integrate.steps": _spec("counter", "flow.integrate.steps", "count"),
    "flow.conservation_drift.self_s": _spec("self", "flow.conservation_drift"),
    "flow.export_csv.self_s": _spec("self", "flow.export_csv"),
    "flow.export_csv.bytes": _spec("counter", "flow.export_csv.bytes", "bytes"),
}

OVERHEAD_METRIC = "trace.overhead_s"


def layer_metrics(trace: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced pass, as printed by the benchmark."""
    out = {}
    for name, (source, key, unit) in LAYER_METRICS.items():
        table = {"total": trace["total_s"], "self": trace["self_s"], "counter": trace["counters"]}[source]
        out[name] = {"value": table.get(key, 0), "unit": unit}
    out[OVERHEAD_METRIC] = {"value": overhead_s, "unit": "s"}
    return out
