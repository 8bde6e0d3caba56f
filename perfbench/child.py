"""Benchmark iterations in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload kind, its parameters, the seed, the mode
(``setup`` to stop after set-up, ``plain`` or ``traced``), the report
path, when traced where to write the spans, and ``budget``: seconds
after set-up in which a plain child may start further iterations (it
runs at least one; a traced child runs exactly one).  The child prints
one JSON line: the monotonic time at which set-up finished, ru_maxrss
and, per iteration, the wall time of the workload call, its units of
work (see workloads.py), the check's failures, the report digest and
size, and when traced the span summary.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def iteration(workload, call, out: Path, marks) -> dict:
    out.unlink(missing_ok=True)
    if marks is not None:
        del marks[:]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        result = call()
        t1 = time.perf_counter()
    report_bytes = out.stat().st_size if out.exists() else 0
    failures, report = workload.check(result)
    out.unlink(missing_ok=True)
    return {
        "wall_s": t1 - t0,
        "units": workload.units(t0, marks or (), t1),
        "failures": failures,
        "digest": hashlib.sha256(report).hexdigest(),
        "report_bytes": report_bytes,
    }


def main(spec: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = Path(spec["report"])
    workload = workloads.make(spec["kind"], spec["params"], spec["seed"], out)
    setup_done = time.monotonic()
    if spec["mode"] == "setup":
        return {"setup_done": setup_done}

    tracer = marks = None
    if spec["mode"] == "traced":
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
        call = tracer.wrap(workload.run, tracing.ROOT)
    else:
        marks = array("d")
        clock = time.perf_counter

        def mark() -> None:
            marks.append(clock())

        def call():
            return workload.run(mark)

    end = setup_done + spec.get("budget", 0.0)
    iterations = []
    while True:
        started = time.monotonic()
        iterations.append(iteration(workload, call, out, marks))
        now = time.monotonic()
        if tracer is not None or now + (now - started) > end:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc = {
        "setup_done": setup_done,
        "iterations": iterations,
        "amps": workload.amps,
        "oracles": workload.oracles,
        "maxrss_kb": usage.ru_maxrss,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
    }
    if tracer is not None:
        doc["trace"] = tracer.summary()
        tracer.save(spec["spans"])
    return doc


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
