"""compsearch benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Iterations run in fresh child interpreters (``child.py``), one child at
a time, with ``src/`` on their path.  A run starts a few children that
only set up, before and after the timed ones.  A plain child runs
iterations of the workload until the next one would end after
``--seconds`` (at least one); ``grover12`` and ``sweep4`` take longer
than that, so their runs hold one iteration.  Each iteration's verdict
and report bytes are checked; an iteration that fails its check is
counted in ``failed`` and left out of every timed metric.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced one-iteration children and prints the per-layer
metrics from the traced ones (per-iteration means), plus
``trace.overhead_s``, the traced minus the plain fastest wall time.  The
last stdout line is the result object; the environment and every
iteration's record go to stderr and to ``.perfbench_out/<workload>/``.
See README.md here for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# name -> (kind, parameters); see workloads.py for the kinds.
WORKLOADS = {
    "grover12": ("grover", {"n": 12, "samples": 100000}),
    "sweep4": ("sweep", {"n": 4}),
    "chain6": ("chain", {"n": 6, "k": 16}),
}

# Set-up-only children per run, so setup_s is a median even when a run
# has a single iteration; the first SETUP_PROBES_BEFORE start before the
# timed children, the rest after them.
SETUP_PROBES = 9
SETUP_PROBES_BEFORE = 5
# A run must exit within 180 s; no child may outlive this.
RUN_LIMIT_S = 170.0

# Span names reported per layer; tracer.py names the spans.
LAYERS = (
    "gates.apply_gate1.exact",
    "gates.apply_gate1.float",
    "gates.apply_gate2.exact",
    "gates.apply_gate2.float",
    "gates.apply_phase_oracle",
    "circuit.build",
    "circuit.run",
    "state.copy",
    "state.is_normalized",
    "state.eq",
    "state.max_abs_diff",
    "state.to_float_array",
    "analytic.psi3",
    "analytic.psi2a",
    "analytic.psi1_psi2",
    "analytic.target_output",
    "refutation.distribution",
    "refutation.marginal",
    "refutation.tv_distance",
    "refutation.sweep_all_f",
    "refutation.compare_grover",
    "refutation.sample_distribution",
    "cli.report",
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def end_to_end_units() -> dict[str, str]:
    return {
        "wall_s": "s",
        "amps_per_s": "1/s",
        "oracles_per_s": "1/s",
        "peak_rss_mb": "MB",
        "setup_s": "s",
    }


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update({
        "gates.exact.amps_per_s": "1/s",
        "gates.float.amps_per_s": "1/s",
        "cli.report_bytes": "bytes",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "thread_vars": {k: v for k, v in os.environ.items() if k in THREAD_VARS or k.startswith("OMP_")},
    }


def spawn(spec: dict, deadline: float) -> tuple[dict | None, str | None]:
    """Run one child to completion; its record, or why there is none."""
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, "child timed out"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"child printed no result: {proc.stdout.strip()[-2000:]!r}"
    doc["setup_s"] = doc["setup_done"] - started
    doc["mode"] = spec["mode"]
    return doc, None


def _median(values):
    return statistics.median(values) if values else 0.0


def run_benchmark(name: str, kind: str, params: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = OUT / name
    spans_dir = out_dir / "spans"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = {"kind": kind, "params": params, "seed": seed}

    children = []  # one record per child
    records = []  # one per set-up-only child and per iteration

    def attempt(mode: str, budget: float = 0.0) -> None:
        run_id = len(children)
        spec = {
            **base,
            "mode": mode,
            "run_id": run_id,
            "budget": budget,
            "report": str(out_dir / f"report-{run_id}.json"),
            "spans": str(spans_dir / f"seed{seed}-run{run_id}.npz"),
        }
        doc, err = spawn(spec, deadline)
        if doc is None:
            doc = {"mode": mode, "failures": [err]}
        doc["run_id"] = run_id
        children.append(doc)
        its = doc.pop("iterations", None)
        if not its:
            records.append({"mode": mode, "run_id": run_id, "failures": doc.get("failures", [])})
        for i, it in enumerate(its or ()):
            if i == 0 and "trace" in doc:
                it["trace"] = doc["trace"]
            records.append({**it, "mode": mode, "run_id": run_id, "iteration": i})

    for _ in range(SETUP_PROBES_BEFORE):
        attempt("setup")
    probe_s = max((c["setup_s"] for c in children if "setup_s" in c), default=1.0)
    start = time.monotonic()
    stop = start + seconds - 2 * probe_s * (SETUP_PROBES - SETUP_PROBES_BEFORE)
    rounds = 0
    while True:
        if trace:
            attempt("plain")
            attempt("traced")
        else:
            attempt("plain", budget=max(stop - time.monotonic(), 0.0))
        rounds += 1
        now = time.monotonic()
        per_round = (now - start) / rounds
        if now + per_round > stop or now + per_round > deadline:
            break
    for _ in range(SETUP_PROBES - SETUP_PROBES_BEFORE):
        attempt("setup")

    # Every iteration of a run must write the same report bytes, traced
    # or not, and match the digest recorded at the seed commit if any.
    runs = [r for r in records if r["mode"] != "setup" and "digest" in r]
    want = _expected_digest(kind, params) or (runs[0]["digest"] if runs else None)
    for r in runs:
        if r["digest"] != want:
            r["failures"].append(f"report digest {r['digest']} != {want}")
    good = [r for r in runs if not r["failures"]]
    errors = [f"child {r['run_id']} ({r['mode']}): {f}" for r in records for f in r["failures"]]
    failed = sum(1 for r in records if r["failures"])

    plain = [r for r in good if r["mode"] == "plain"] or [r for r in runs if r["mode"] == "plain"]
    if trace:
        traced = [r for r in good if r["mode"] == "traced"] or [r for r in runs if r["mode"] == "traced"]
        metrics = _per_layer(plain, traced)
        units = per_layer_units()
    else:
        plain_children = [c for c in children if c["mode"] == "plain" and "maxrss_kb" in c]
        metrics = _end_to_end(plain, plain_children, [c["setup_s"] for c in children if "setup_s" in c])
        units = end_to_end_units()

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(), "errors": errors,
        "children": [{k: v for k, v in c.items() if k != "trace"} for c in children],
        "iterations": [{k: v for k, v in r.items() if k != "trace"} for r in records if r["mode"] != "setup"],
    }
    (out_dir / f"run-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"env": record["env"]}), file=sys.stderr)
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    return {
        "correct": failed == 0 and bool(good),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _expected_digest(kind: str, params: dict) -> str | None:
    """Report digest recorded at the seed commit, where one exists."""
    expected = json.loads((HERE / "expected.json").read_text())
    return expected.get(f"{kind}{params['n']}") if kind == "sweep" else None


def _best_wall(runs: list[dict]) -> float:
    return min(r["wall_s"] for r in runs) if runs else 0.0


def fast_wall(runs: list[dict]) -> float:
    """Wall time of one iteration with each unit of work at its fastest.

    Every unit (see workloads.py) is timed by the fastest sample of its
    class over the run's iterations, and the units of one iteration are
    summed.  On a shared 2-core VM (Xeon, 2.1 GHz) the CPU slowed by up
    to 70% for stretches of a fraction of a second to tens of seconds
    with nothing else running, in user time as much as in wall time.
    Units of 5 to 50 ms, each sampled many times across the run, mostly
    land in a fast stretch; whole iterations of 2 s or more seldom do.
    """
    if not runs:
        return 0.0
    best: dict[str, float] = {}
    for r in runs:
        for cls, sec in r["units"]:
            best[cls] = min(sec, best.get(cls, sec))
    return sum(best[cls] for cls, _ in runs[0]["units"])


def _end_to_end(plain: list[dict], children: list[dict], setups: list[float]) -> dict:
    wall = fast_wall(plain)
    amps = children[0]["amps"] if children else 0
    oracles = children[0]["oracles"] if children else 0
    return {
        "wall_s": wall,
        "amps_per_s": amps / wall if wall else 0.0,
        "oracles_per_s": oracles / wall if wall else 0.0,
        "peak_rss_mb": _median([c["maxrss_kb"] for c in children]) / 1024,
        "setup_s": _median(setups),
    }


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    count = max(len(traced), 1)
    summaries = [r["trace"] for r in traced]
    metrics = {}
    attributed = 0.0
    for layer in LAYERS:
        calls, self_s, errs = (
            sum(s["spans"].get(layer, (0, 0.0, 0))[i] for s in summaries) / count for i in range(3)
        )
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.errors"] = errs
        attributed += self_s
    for backend in ("exact", "float"):
        amps = sum(s["gates"][backend][0] for s in summaries)
        busy = sum(s["gates"][backend][1] for s in summaries)
        metrics[f"gates.{backend}.amps_per_s"] = amps / busy if busy else 0.0
    traced_wall = sum(s["wall_s"] for s in summaries) / count
    metrics["cli.report_bytes"] = _median([r["report_bytes"] for r in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = traced_wall - attributed
    metrics["trace.overhead_s"] = _best_wall(traced) - _best_wall(plain)
    metrics["trace.spans"] = sum(s["span_count"] for s in summaries) / count
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compsearch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "compsearch" / "__init__.py").is_file():
        print(f"error: no compsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kind, params = WORKLOADS[args.workload]
    result = run_benchmark(args.workload, kind, params, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
