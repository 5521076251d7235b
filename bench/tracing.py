"""Spans around phcbands' public functions for the traced benchmark run.

Each wrapper replaces a function at the module attribute its caller looks
up, so the program runs unmodified: ``phcbands.sim.factorize`` and
``phcbands.sim.solve`` are what the indicator and the refinement call,
``phcbands.assembly.build_T`` is what ``OperatorFamily.t_matrix`` calls, and
``phcbands.sweep.*`` are the names ``solve_at_k`` and ``sweep`` use.  Spans
are kept in memory; the layer of a span is the part of its name before the
first dot.
"""

from __future__ import annotations

import importlib
import os
import statistics
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("config", "mesh", "assembly", "sparse", "sim", "sweep", "io")

# Indicator calls on regions below this side only shrink an already kept
# region towards beta0; they are the calls an eigenvalue-extraction step
# could skip.
FINE_SIDE = 1.25e-2


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    attrs: dict | None


class Tracer:
    """Single-threaded span recorder; the open spans form a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, None))
        self._stack.append(index)
        self.spans[index].start = perf_counter()
        return index

    def close(self, index: int, attrs: dict | None) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.attrs = attrs
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")


def _indicator_attrs(args, kwargs, value):
    region, cfg = args[0], args[3]
    return {"side": region.side, "kept": value > cfg.delta0}


def _search_attrs(args, kwargs, result):
    return {"candidates": len(result.candidates), "failures": len(result.failures)}


def _refine_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute the caller looks up, span name, attributes from the call)
TARGETS = (
    ("phcbands.config", "load_config", "config.load", None),
    ("phcbands.mesh", "build_unit_cell_mesh", "mesh.build", None),
    ("phcbands.mesh", "build_periodic_dof_map", "mesh.dof_map", None),
    ("phcbands.sweep", "build_unit_cell_mesh", "mesh.build", None),
    ("phcbands.sweep", "build_periodic_dof_map", "mesh.dof_map", None),
    ("phcbands.cli", "sweep", "sweep.path", None),
    ("phcbands.sweep", "solve_at_k", "sweep.kpoint", None),
    ("phcbands.sweep", "assemble_family", "assembly.assemble", None),
    ("phcbands.assembly", "build_T", "assembly.build_T", None),
    ("phcbands.sweep", "sim_h", "sim.search", _search_attrs),
    ("phcbands.sim", "indicator", "sim.indicator", _indicator_attrs),
    ("phcbands.sweep", "refine_eigenpair", "sim.refine", _refine_attrs),
    ("phcbands.sim", "factorize", "sparse.factorize", None),
    ("phcbands.sim", "solve", "sparse.solve", None),
    ("phcbands.io", "write_bands_csv", "io.write", _write_attrs),
    ("phcbands.io", "emit_svg", "io.write", _write_attrs),
    ("phcbands.io", "write_metadata", "io.write", _write_attrs),
)


def _wrap(fn, name: str, tracer: Tracer, attrs_of):
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index, {"error": type(exc).__name__})
            raise
        tracer.close(index, attrs_of(args, kwargs, result) if attrs_of else None)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    saved = []
    for module_name, attr, name, attrs_of in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(original, name, tracer, attrs_of))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


class TraceCheckError(RuntimeError):
    """The recorded spans contradict what the workload must do."""


def _phase(spans: list[Span]) -> list[str | None]:
    """Per span, 'search' or 'refine' after its nearest indicator or
    refinement ancestor, None when it has neither."""
    phase: list[str | None] = []
    for span in spans:
        if span.parent < 0:
            phase.append(None)
            continue
        parent_name = spans[span.parent].name
        if parent_name == "sim.indicator":
            phase.append("search")
        elif parent_name == "sim.refine":
            phase.append("refine")
        else:
            phase.append(phase[span.parent])
    return phase


def check(spans: list[Span], busy_layers) -> None:
    """Raise TraceCheckError when an operator build or LU span runs outside
    the search and the refinement, or a layer that must be busy has no span."""
    phase = _phase(spans)
    for span, ph in zip(spans, phase):
        if span.name in ("sparse.factorize", "sparse.solve", "assembly.build_T") and ph is None:
            raise TraceCheckError(f"{span.name} span has no indicator or refine ancestor")
    seen = {span.name.split(".", 1)[0] for span in spans}
    idle = [layer for layer in busy_layers if layer not in seen]
    if idle:
        raise TraceCheckError(
            f"layers {idle} recorded no spans; calls may have moved where the wrappers cannot see them"
        )


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer times (seconds) and counts from one traced repetition.

    Returns (metrics, counts): counts are the deterministic subset that two
    traced runs of the same code and seed must reproduce exactly.
    """
    phase = _phase(spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start

    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name.get(name, [])]

    def total(*names):
        return sum(sum(durations(name)) for name in names)

    def calls(name, where=None):
        return sum(1 for i in by_name.get(name, []) if where is None or where(i))

    def self_time(layer):
        prefix = layer + "."
        return sum(
            span.end - span.start - child_time[i] for i, span in enumerate(spans) if span.name.startswith(prefix)
        )

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in by_name.get(name, []) if spans[i].attrs and key in spans[i].attrs)

    def errored(name, error):
        return calls(name, lambda i: (spans[i].attrs or {}).get("error") == error)

    factorize_ms = [1e3 * d for d in durations("sparse.factorize")]
    kpoint_s = durations("sweep.kpoint")
    indicators = calls("sim.indicator")
    kept = calls("sim.indicator", lambda i: bool((spans[i].attrs or {}).get("kept")))

    counts = {
        "trace.spans": len(spans),
        "sparse.factorize_calls": calls("sparse.factorize"),
        "sparse.factorize_calls.search": calls("sparse.factorize", lambda i: phase[i] == "search"),
        "sparse.factorize_calls.refine": calls("sparse.factorize", lambda i: phase[i] == "refine"),
        "sparse.singular": errored("sparse.factorize", "SingularMatrixError"),
        "sparse.solve_calls": calls("sparse.solve"),
        "assembly.build_T_calls": calls("assembly.build_T"),
        "assembly.build_T_calls.refine": calls("assembly.build_T", lambda i: phase[i] == "refine"),
        "sim.indicator_calls": indicators,
        "sim.indicator_calls.fine": calls(
            "sim.indicator", lambda i: spans[i].attrs is not None and spans[i].attrs.get("side", 1.0) < FINE_SIDE
        ),
        "sim.indicator_kept": kept,
        "sim.region_failures": attr_sum("sim.search", "failures"),
        "sim.candidates": attr_sum("sim.search", "candidates"),
        "sim.refine_calls": calls("sim.refine"),
        "sim.refine_iterations": attr_sum("sim.refine", "iterations"),
        "sim.refine_stalled": calls("sim.refine", lambda i: (spans[i].attrs or {}).get("converged") is False),
        "sweep.kpoints": len(kpoint_s),
        "io.bytes": attr_sum("io.write", "bytes"),
    }
    metrics = {
        "sparse.factorize_s": total("sparse.factorize"),
        "sparse.factorize_ms_p50": statistics.median(factorize_ms) if factorize_ms else 0.0,
        "sparse.solve_s": total("sparse.solve"),
        "assembly.build_T_s": total("assembly.build_T"),
        "assembly.assemble_s": total("assembly.assemble"),
        "sim.kept_ratio": kept / indicators if indicators else 0.0,
        "sim.self_s": self_time("sim"),
        "sim.refine_s": total("sim.refine"),
        "sweep.kpoint_s_p50": statistics.median(kpoint_s) if kpoint_s else 0.0,
        "sweep.kpoint_s_max": max(kpoint_s, default=0.0),
        "sweep.self_s": self_time("sweep"),
        "mesh.build_s": total("mesh.build", "mesh.dof_map"),
        "config.load_s": total("config.load"),
        "io.write_s": total("io.write"),
    }
    metrics.update((key, value) for key, value in counts.items() if key != "sim.indicator_kept")
    return metrics, counts
