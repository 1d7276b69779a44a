"""Span recording around the public functions of each vigrating module.

The benchmark never edits the package: while a traced cycle runs it replaces
module attributes with timing wrappers, and restores them afterwards.  Each
wrapped call records one span (name, start, end, parent index and counts).
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time


def _gmres_counts(args, result):
    restart, n = args["restart"], args["b"].size
    iterations = int(result[3])
    return {
        "iterations": iterations,
        "restarts": max(1, -(-iterations // restart)) - 1,
        # computed, not measured: the (m + 1) x n complex128 basis of a cycle
        "basis_bytes": (min(restart, args["max_iterations"]) + 1) * n * 16,
    }


def _rayleigh_counts(args, result):
    return {"orders": len(result.coefficients) - len(result.truncated)}


# (module, function, count hook).  A hook reads counts from the bound call
# arguments and the return value only.
TARGETS = (
    ("cli", "main", None),
    ("config", "load_config", None),
    ("problem", "build_problem", None),
    ("kernel", "kernel_table", None),
    ("operators", "apply_forward", None),
    ("operators", "to_spectral", None),
    ("operators", "to_physical", None),
    ("solver", "solve", None),
    ("solver", "gmres", _gmres_counts),
    ("solver", "assemble_rhs", None),
    ("solver", "residual", None),
    ("postprocess", "rayleigh_coefficients", _rayleigh_counts),
    ("analysis", "garding_check", None),
    ("analysis", "decompose_reQ", None),
)

LAYERS = ("cli", "config", "problem", "kernel", "operators", "solver",
          "postprocess", "analysis")

FFT = ("operators.to_spectral", "operators.to_physical")

# name -> (unit, how, spans, key).  ``how`` is "duration" (summed wall time),
# "self" (summed self time), "calls", "sum" or "max" of a count recorded by a
# hook, or "error" (calls that raised the exception named by ``key``).
SPAN_METRICS = {
    "config.load_config_s": ("s", "duration", ("config.load_config",), None),
    "problem.build_problem_s": ("s", "duration", ("problem.build_problem",), None),
    "problem.build_problem_calls": ("count", "calls", ("problem.build_problem",), None),
    "kernel.kernel_table_s": ("s", "duration", ("kernel.kernel_table",), None),
    "kernel.kernel_table_calls": ("count", "calls", ("kernel.kernel_table",), None),
    "operators.apply_forward_s": ("s", "duration", ("operators.apply_forward",), None),
    "operators.matvecs": ("count", "calls", ("operators.apply_forward",), None),
    "operators.fft_calls": ("count", "calls", FFT, None),
    "operators.fft_s": ("s", "duration", FFT, None),
    "solver.gmres_self_s": ("s", "self", ("solver.gmres",), None),
    "solver.iterations": ("count", "sum", ("solver.gmres",), "iterations"),
    "solver.restarts": ("count", "sum", ("solver.gmres",), "restarts"),
    "solver.krylov_basis_bytes": ("bytes", "max", ("solver.gmres",), "basis_bytes"),
    "solver.not_converged": ("count", "error", ("solver.solve",), "NotConverged"),
    "solver.assemble_rhs_s": ("s", "duration", ("solver.assemble_rhs",), None),
    "solver.residual_s": ("s", "duration", ("solver.residual",), None),
    "postprocess.rayleigh_coefficients_s": (
        "s", "duration", ("postprocess.rayleigh_coefficients",), None),
    "postprocess.rayleigh_coefficients_calls": (
        "count", "calls", ("postprocess.rayleigh_coefficients",), None),
    "postprocess.orders_evaluated": (
        "count", "sum", ("postprocess.rayleigh_coefficients",), "orders"),
    "analysis.garding_check_s": ("s", "duration", ("analysis.garding_check",), None),
    "analysis.decompose_reQ_s": ("s", "duration", ("analysis.decompose_reQ",), None),
}
SPAN_METRICS.update({
    f"{layer}.self_s": ("s", "self",
                        tuple(f"{m}.{f}" for m, f, _ in TARGETS if m == layer),
                        None)
    for layer in LAYERS
})


class Tracer:
    """Collects spans from wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so that every call records a span."""
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "start": time.perf_counter()}
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(hook(bound.arguments, result))
                except (AttributeError, KeyError, TypeError, IndexError):
                    span["hook_failed"] = True
            return result

        return traced

    def install(self, package: str = "vigrating", targets=TARGETS):
        """Wrap every target in every loaded module of ``package``.

        Modules bind imported names at import time (``from .solver import
        solve``), so every module attribute that *is* the original function
        is replaced.  A target that no longer exists goes to ``missing``.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for module_name, attr, hook in targets:
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(f"{module_name}.{attr}", original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def take(self) -> list[dict]:
        """Hand over the recorded spans and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            children.setdefault(span["parent"], []).append(
                (max(span["start"], parent["start"]),
                 min(span["end"], parent["end"])))
    return [s["end"] - s["start"] - _covered(children.get(i, ()))
            for i, s in enumerate(spans)]


def span_metrics(span_lists, missing=()) -> dict[str, float]:
    """Per-layer metrics over span lists recorded by independent tracers.

    A metric is left out when a function it needs is missing from the
    package (for a layer's self time: when all of the layer's are), or when
    its count hook failed on some call.
    """
    rows = []
    for spans in span_lists:
        rows.extend(zip(spans, self_times(spans)))
    out = {}
    for metric, (_, how, names, key) in SPAN_METRICS.items():
        absent = [n for n in names if n in missing]
        if absent and (how != "self" or len(absent) == len(names)):
            continue
        picked = [(s, t) for s, t in rows if s["name"] in names]
        if how in ("sum", "max") and any(s.get("hook_failed") for s, _ in picked):
            continue
        if how == "duration":
            value = sum(s["end"] - s["start"] for s, _ in picked)
        elif how == "self":
            value = sum(t for _, t in picked)
        elif how == "calls":
            value = len(picked)
        elif how == "sum":
            value = sum(s.get(key, 0) for s, _ in picked)
        elif how == "max":
            value = max((s.get(key, 0) for s, _ in picked), default=0)
        else:
            value = sum(1 for s, _ in picked if s.get("error") == key)
        out[metric] = value
    return out
