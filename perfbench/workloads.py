"""The benchmark's workloads: inputs from a seed, the program call, the
verdict check and the work count.

Each workload is built in a fresh child process (that is set-up), then
``run`` makes the timed call into compsearch and ``check`` inspects what
came back.  ``check`` returns the failures it found (empty means the
verdict is correct) and the bytes whose sha256 identifies the report.
The program sees only the argv or oracles generated here.

``run`` takes an optional ``mark`` callable, called at the boundaries of
the call's units of work; ``units`` turns the clock readings at those
marks into ``(class, seconds)`` pairs that cover the whole call.  Units
of one class do the same work, so run.py can time each by its fastest
sample (see ``run.fast_wall``).

Work counts are computed from n, not read from the program: an
amplitude update is one op (gate or phase oracle) applied to one
amplitude, so a circuit of k ops on m qubits updates k * 2^m.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import compsearch
from compsearch import cli, refutation

# Oracle windows per sweep: its units of work.
SWEEP_WINDOWS = 2048


def comparison_amps(n: int) -> int:
    """2n Hadamards, one phase oracle and n comparison gates on 2n qubits."""
    return (3 * n + 1) << (2 * n)


def grover_iterations(n: int) -> int:
    return math.floor(math.pi / 4 * math.sqrt(1 << n))


def grover_amps(n: int) -> int:
    """An H layer, then per iteration: oracle, H layer, flip, H layer."""
    return (n + grover_iterations(n) * (2 * n + 2)) << n


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class Grover:
    """``grover-compare``: the exact comparison circuit on 2^(2n)
    amplitudes plus a float Grover run on 2^n, one marked element.

    Its ops each do different work, so the whole call is one unit.
    """

    def __init__(self, n: int, samples: int, seed: int, out: Path) -> None:
        rng = _rng(seed)
        self.n = n
        self.samples = samples
        self.marked = int(rng.integers(1 << n))
        self.seed = int(rng.integers(1 << 31))
        self.out = out
        self.argv = [
            "grover-compare", "--n", str(n), "--marked", str(self.marked),
            "--samples", str(samples), "--seed", str(self.seed), "--out", str(out),
        ]
        self.amps = comparison_amps(n) + grover_amps(n)
        self.oracles = 1

    def run(self, mark=None) -> int:
        return cli.main(self.argv)

    def units(self, t0: float, marks, t1: float) -> list[tuple[str, float]]:
        return [("call", t1 - t0)]

    def check(self, code: int) -> tuple[list[str], bytes]:
        if code != 0:
            return [f"exit code {code}"], b""
        raw = self.out.read_bytes()
        res = json.loads(raw)["results"]
        comp, grover = res["comparison_circuit"], res["grover"]
        p = grover["probability"]
        want = {
            "comparison.equals_two_to_minus_n": (comp["equals_two_to_minus_n"], True),
            "comparison.probability": (comp["probability"], 2.0 ** -self.n),
            "marked": (res["marked"], self.marked),
            "seed": (res["seed"], self.seed),
            "samples": (res["samples"], self.samples),
            "grover.iterations": (grover["iterations"], grover_iterations(self.n)),
            "grover.probability>=1-2^-n": (p >= 1 - 2.0 ** -self.n, True),
        }
        fails = [f"{k}: got {got!r}, want {exp!r}" for k, (got, exp) in want.items() if got != exp]
        # Sampled frequencies: within 6 standard deviations plus one count.
        for key, prob, freq in (
            ("comparison", 2.0 ** -self.n, comp["empirical_frequency"]),
            ("grover", p, grover["empirical_frequency"]),
        ):
            tol = 6 * math.sqrt(prob * (1 - prob) / self.samples) + 1 / self.samples
            if abs(freq - prob) > tol:
                fails.append(f"{key}.empirical_frequency {freq} is not within {tol:.3g} of {prob}")
        return fails, raw


class Sweep:
    """``sweep`` on the float backend over every oracle on n bits.

    The oracle set is exhaustive, so the report, and its digest, do not
    depend on the seed.  ``mark`` is called as each oracle's circuit is
    simulated (by wrapping ``refutation.simulate``, the name the sweep
    loop looks up); the units are the set-up before the first oracle,
    ``SWEEP_WINDOWS`` windows of equally many oracles, each the same
    work, and the last window with everything after the loop.
    """

    def __init__(self, n: int, seed: int, out: Path) -> None:
        self.n = n
        self.out = out
        self.argv = [
            "sweep", "--n", str(n), "--backend", "float", "--format", "json",
            "--out", str(out),
        ]
        self.oracles = 1 << (1 << n)
        self.amps = self.oracles * comparison_amps(n)

    def run(self, mark=None) -> int:
        if mark is None:
            return cli.main(self.argv)
        simulate = refutation.simulate

        def marked(*args, **kwargs):
            mark()
            return simulate(*args, **kwargs)

        refutation.simulate = marked
        try:
            return cli.main(self.argv)
        finally:
            refutation.simulate = simulate

    def units(self, t0: float, marks, t1: float) -> list[tuple[str, float]]:
        if len(marks) != self.oracles:
            return [("call", t1 - t0)]
        step = max(1, self.oracles // SWEEP_WINDOWS)
        starts = list(marks[::step])
        units = [("before", starts[0] - t0)]
        units += [("window", b - a) for a, b in zip(starts, starts[1:])]
        return units + [("last", t1 - starts[-1])]

    def check(self, code: int) -> tuple[list[str], bytes]:
        if code != 0:
            return [f"exit code {code}"], b""
        raw = self.out.read_bytes()
        res = json.loads(raw)["results"]
        fails = []
        if not res["all_match"]:
            fails.append("all_match is false")
        if res["oracle_count"] != self.oracles:
            fails.append(f"oracle_count {res['oracle_count']} != {self.oracles}")
        if res["max_pairwise_tv"] != 0.0:
            fails.append(f"max_pairwise_tv {res['max_pairwise_tv']} != 0")
        bad = [v["oracle_id"] for v in res["verdicts"] if not v["exact_match"]]
        if bad:
            fails.append(f"{len(bad)} oracles do not match, first {bad[0]}")
        return fails, raw


class Chain:
    """The README library flow on the exact backend for K seeded oracles.

    Per oracle: every ``run_with_trace`` checkpoint equals its closed form
    and the final state equals ``target_output``, all with ``==``; the
    second-register marginal is exactly 2^-n everywhere.  Then the TV
    distance between every pair of output distributions is exactly 0.
    Names are looked up on the package at call time, as a library user
    writes them.  ``mark`` is called after each stage of each oracle
    (``STAGES``) and after each TV pair.  Each stage is a class across
    the oracles, because every oracle runs the same circuit and closed
    forms on a different table (their fastest times agreed within 3%),
    and the TV pairs are another, each comparing two distributions of
    the same size.
    """

    CHECKPOINTS = ("psi1", "psi2", "psi2a", "psi3", "target")
    # Per-oracle units of work, in order.
    STAGES = ("circuit", "closed_forms", "distribution")

    def __init__(self, n: int, k: int, seed: int) -> None:
        rng = _rng(seed)
        nbytes = ((1 << n) + 7) // 8
        mask = (1 << (1 << n)) - 1
        tables = [int.from_bytes(rng.bytes(nbytes), "little") & mask for _ in range(k)]
        self.n = n
        self.oracle_list = [compsearch.BooleanOracle(n, t) for t in tables]
        self.oracles = k
        self.amps = k * comparison_amps(n)

    def run(self, mark=None) -> dict:
        mark = mark or _no_mark
        cs, n = compsearch, self.n
        uniform = cs.DyadicReal(1, 0, n)
        verdicts, dists = [], []
        for f in self.oracle_list:
            trace = cs.run_with_trace(cs.build_comparison_search(n, f), cs.StateVector(2 * n))
            mark()
            equal = [
                trace["psi1"] == cs.psi1(n),
                trace["psi2"] == cs.psi2(n, f),
                trace["psi2a"] == cs.psi2a(n, f),
                trace["psi3"] == cs.psi3(n, f),
                trace.final == cs.target_output(n, f),
            ]
            mark()
            dist = cs.distribution(trace.final)
            marg = cs.marginal(dist, n + 1, 2 * n)
            dists.append(dist)
            verdicts.append({
                "table": format(f.table, "#x"),
                **dict(zip(self.CHECKPOINTS, equal)),
                "marginal_is_two_to_minus_n": all(p == uniform for p in marg.probs),
            })
            mark()
        nonzero_tv = []
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                if cs.tv_distance(dists[i], dists[j]) != 0:
                    nonzero_tv.append([i, j])
                mark()
        return {"n": n, "oracles": verdicts, "nonzero_tv_pairs": nonzero_tv}

    def units(self, t0: float, marks, t1: float) -> list[tuple[str, float]]:
        stages = len(self.STAGES) * self.oracles
        if len(marks) != stages + self.oracles * (self.oracles - 1) // 2:
            return [("call", t1 - t0)]
        edges = [t0, *marks, t1]
        classes = [*self.STAGES * self.oracles, *["tv_pair"] * (len(marks) - stages), "end"]
        return [(c, b - a) for c, a, b in zip(classes, edges, edges[1:])]

    def check(self, doc: dict) -> tuple[list[str], bytes]:
        fails = [
            f"oracle {v['table']}: {key} is false"
            for v in doc["oracles"]
            for key, ok in v.items()
            if ok is False
        ]
        fails += [f"tv_distance of oracles {i} and {j} is not 0" for i, j in doc["nonzero_tv_pairs"]]
        return fails, json.dumps(doc, sort_keys=True).encode()


def _no_mark() -> None:
    pass


def make(kind: str, params: dict, seed: int, out: Path):
    if kind == "grover":
        return Grover(params["n"], params["samples"], seed, out)
    if kind == "sweep":
        return Sweep(params["n"], seed, out)
    if kind == "chain":
        return Chain(params["n"], params["k"], seed)
    raise ValueError(f"unknown workload kind {kind!r}")
