"""Spans around the calls into each qvar layer, installed from outside the
package by rebinding module attributes.

``qvar.pipeline`` imports with ``from .x import y``, so one function can be
reachable through several module bindings (``qvar.qpca.reduced_rho`` and
``qvar.pipeline.reduced_rho``).  ``Tracer.install`` wraps the function once
and rebinds every attribute of every ``qvar`` module that holds it, so the
span is recorded whichever binding the caller resolves.  SciPy's ``linprog``
and ``least_squares`` are wrapped only at their ``qvar.qsvt`` binding, which
counts the fit's LP attempts and the phase solver's fallback.

Spans live in memory as (id, name, start, end, parent, request) tuples and
are written out by the caller when the run ends.  Nothing is installed
unless ``install`` is called, so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass

# (module, attribute) of every wrapped callable; the span name is
# "<module>.<attribute>" without the package prefix
TARGETS = [
    ("pde", "price_european"),
    ("mc", "simulate_paths"),
    ("qpca", "reduced_rho"),
    ("qpca", "assemble_portfolio_state"),
    ("blockenc", "assemble_block_encoding"),
    ("qsvt", "approximate_target"),
    ("qsvt", "linprog"),
    ("qsvt", "solve_phase_factors"),
    ("qsvt", "least_squares"),
    ("qsvt", "apply_qsvt"),
    ("qsvt", "prepare_value_state"),
    ("qcore", "xor_write"),
    ("qcore", "StateVector.copy"),
    ("risk", "bisection_var"),
    ("risk", "comparator_ucc"),
    ("risk", "tail_probability"),
    ("risk", "estimate_amplitude"),
    ("risk", "cvar"),
    ("risk", "swap_test_overlap"),
    ("risk", "make_reference_state"),
    ("pipeline", "run_pipeline"),
]


# metric name and reader for the objects a wrapped call returns; the
# pipeline's ResourceTally is read from the PipelineResult
OBSERVED = {
    "qsvt.approximate_target": [("qsvt.degree", lambda r: r.degree),
                                ("qsvt.fit_sup_error", lambda r: r.sup_error)],
    "qsvt.solve_phase_factors": [("qsvt.phase_residual", lambda r: r.residual)],
    "qsvt.apply_qsvt": [("qsvt.unitary_bytes", lambda r: r.matrix.nbytes)],
    "qsvt.prepare_value_state": [("qsvt.success_probability",
                                  lambda r: r.success_probability)],
    "pipeline.run_pipeline": [
        (f"pipeline.{key}", lambda r, key=key: getattr(r.tally, key))
        for key in ("block_encoding_queries", "state_preparation_repetitions",
                    "bisection_iterations", "amplitude_estimation_queries")],
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the wrappers, the span list and the per-request observations."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.values: dict[int, dict[str, float]] = {}
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_request(self, request: int) -> None:
        self.request = request
        self.values[request] = {"qcore.state_bytes_max": 0}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qvar" or name.startswith("qvar.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"qvar.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, self._wrap(f"{mod_name}.{attr}",
                                                   getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", original)
            if not getattr(original, "__module__", "").startswith("qvar"):
                self._rebind(owner, attr, wrapped)  # third-party: one binding
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def _rebind(self, obj, key: str, wrapped) -> None:
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, wrapped)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent,
                                         tracer.request))
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args, result) -> None:
        """Record the largest state crossing the boundary and the
        certificates and counts the layer returned."""
        values = self.values[self.request]
        state_cls = sys.modules["qvar.qcore"].StateVector
        states = [a for a in args if isinstance(a, state_cls)]
        states += [o for o in (result, getattr(result, "state", None))
                   if isinstance(o, state_cls)]
        for st in states:
            values["qcore.state_bytes_max"] = max(values["qcore.state_bytes_max"],
                                                  st.amplitudes.nbytes)
        for metric, read in OBSERVED.get(name, ()):
            values[metric] = read(result)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent,
                                     "request": s.request}) + "\n")


def request_stats(spans: list[Span]) -> dict[str, float]:
    """Per-name totals for one request: ``<name>.s`` (inclusive seconds),
    ``<name>.self_s`` (minus direct wrapped children) and ``<name>.calls``,
    plus ``layer.<module>.s`` summed over spans with no same-module
    ancestor."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + s.duration
        out[f"{s.name}.self_s"] = (out.get(f"{s.name}.self_s", 0.0)
                                   + s.duration - child_time.get(s.id, 0.0))
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        module = s.name.split(".")[0]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name.split(".")[0] != module:
            parent = by_id.get(parent.parent)
        if parent is None:
            out[f"layer.{module}.s"] = out.get(f"layer.{module}.s", 0.0) + s.duration
    return out
