"""Span tracing of compsearch from outside the package.

``install`` replaces each traced function with a wrapper under every
name it is looked up by: module globals of every compsearch module (so
``circuit`` calling ``gates.apply_gate1`` and ``cli`` calling the
``sweep_all_f`` it imported by name both hit the wrapper), the package
namespace, and ``StateVector`` methods on the class.  The program's own
code is not changed.

A span records name, start, end, parent span, run id, and for gate
kernels the state's backend and width.  Spans stay in flat arrays in
memory and are written once, when the traced run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

ROOT = "workload"

BACKEND_CODES = {"exact": 1, "float": 2}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.backend = array("b")
        self.width = array("b")
        self.error = array("b")
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, split_backend: bool = False, tag_state: bool = False):
        """``fn`` recording one span per call.

        ``tag_state`` tags the span with the backend and width of the
        StateVector passed first; ``split_backend`` also appends the
        backend to the span name.
        """
        ids = {None: self.name_id(name)}
        if split_backend:
            ids = {b: self.name_id(f"{name}.{b}") for b in BACKEND_CODES}
        names, starts, ends = self.name, self.start, self.end
        parents, backends, widths, errors = self.parent, self.backend, self.width, self.error
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            if tag_state:
                state = args[0]
                names.append(ids[state.backend if split_backend else None])
                backends.append(BACKEND_CODES[state.backend])
                widths.append(state.num_qubits)
            else:
                names.append(ids[None])
                backends.append(0)
                widths.append(0)
            parents.append(open_spans[-1] if open_spans else -1)
            errors.append(0)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "backend": np.frombuffer(self.backend, dtype=np.int8),
            "width": np.frombuffer(self.width, dtype=np.int8),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write every span: name, start, end, parent index (-1 for the
        root), run id, and the backend/width tags of gate spans."""
        cols = self.arrays()
        t0 = cols["start"][0] if len(cols["start"]) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            run_id=np.full(len(cols["start"]), self.run_id, dtype=np.int32),
            **{**cols, "start": cols["start"] - t0, "end": cols["end"] - t0},
        )

    def summary(self) -> dict:
        """Per-name calls, self seconds and escaped exceptions, amplitudes
        touched per gate backend, and the root span's duration."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        selfs = np.bincount(cols["name"], weights=self_s, minlength=k)
        errors = np.bincount(cols["name"], weights=cols["error"], minlength=k)
        spans = {
            name: [int(calls[i]), float(selfs[i]), int(errors[i])]
            for i, name in enumerate(self.names)
        }
        gate_ids = [i for i, name in enumerate(self.names) if name.startswith("gates.")]
        is_gate = np.isin(cols["name"], gate_ids)
        amps = np.ldexp(1.0, cols["width"].astype(np.int64))
        gates = {}
        for backend, code in BACKEND_CODES.items():
            sel = is_gate & (cols["backend"] == code)
            gates[backend] = [float(amps[sel].sum()), float(self_s[sel].sum())]
        root = self._ids[ROOT]
        return {
            "spans": spans,
            "gates": gates,
            "wall_s": float(dur[cols["name"] == root].sum()),
            "span_count": len(dur),
        }


def install(tracer: Tracer) -> None:
    """Wrap compsearch's layer entry points wherever they are looked up."""
    import compsearch
    from compsearch import analytic, circuit, cli, gates, refutation, state

    table = [
        (gates.apply_gate1, "gates.apply_gate1", True, True),
        (gates.apply_gate2, "gates.apply_gate2", True, True),
        (gates.apply_phase_oracle, "gates.apply_phase_oracle", False, True),
        (circuit.build_comparison_search, "circuit.build", False, False),
        (circuit.build_grover, "circuit.build", False, False),
        (circuit.run, "circuit.run", False, False),
        (circuit.run_with_trace, "circuit.run", False, False),
        (circuit.simulate, "circuit.run", False, False),
        (analytic.psi1, "analytic.psi1_psi2", False, False),
        (analytic.psi2, "analytic.psi1_psi2", False, False),
        (analytic.psi2a, "analytic.psi2a", False, False),
        (analytic.psi3, "analytic.psi3", False, False),
        (analytic.target_output, "analytic.target_output", False, False),
        (refutation.distribution, "refutation.distribution", False, False),
        (refutation.marginal, "refutation.marginal", False, False),
        (refutation.tv_distance, "refutation.tv_distance", False, False),
        (refutation.sweep_all_f, "refutation.sweep_all_f", False, False),
        (refutation.compare_grover, "refutation.compare_grover", False, False),
        (refutation.sample_distribution, "refutation.sample_distribution", False, False),
        (refutation.check_oracle, "refutation.check_oracle", False, False),
        (cli._dump_json, "cli.report", False, False),
        (cli._sweep_csv, "cli.report", False, False),
        (cli._write_atomic, "cli.report", False, False),
    ]
    wrapped = {id(fn): tracer.wrap(fn, *rest) for fn, *rest in table}
    modules = [compsearch] + [
        mod for name, mod in sys.modules.items() if name.startswith("compsearch.")
    ]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    vector = state.StateVector
    for method, name in (
        ("copy", "state.copy"),
        ("is_normalized", "state.is_normalized"),
        ("__eq__", "state.eq"),
        ("max_abs_diff", "state.max_abs_diff"),
        ("to_float_array", "state.to_float_array"),
    ):
        setattr(vector, method, tracer.wrap(getattr(vector, method), name))
