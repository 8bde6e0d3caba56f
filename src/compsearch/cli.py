"""Command-line front end.

Commands
--------
verify          run the comparison circuit and check its output against
                the diagonal target state, for one oracle or all of them
trace           print every checkpoint state next to its closed form
sweep           write a per-oracle verdict report (JSON or CSV)
grover-compare  marked-element probability: comparison circuit vs Grover

Oracle specification: ``--marked k1,k2,...`` or ``--truth-table 0x<hex>``
(bitmask, least significant bit is f(0)).

Exit codes: 0 success; 1 verification failure; 2 invalid arguments;
3 I/O error.  Report files are deterministic: stable key order, no
timestamps, so identical invocations produce byte-identical bytes.
Each command returns its exit code and its report as text pieces, and
``main`` alone writes them.  Reports are written as they are encoded, a
sweep's verdict rows a block at a time, formatted from the report's
columns, so no report is held whole as one string; they go to a
temporary file that replaces ``--out`` only once it is complete.
``main`` caps every command, on either backend, at n <= 12 (2^24
amplitudes) to bound memory, before the command runs.
``trace`` is also capped at n <= 4, as it prints whole states, and
``verify --all-f`` at n <= EXHAUSTIVE_SWEEP_MAX_N, as it runs all
2^(2^n) oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__, analytic
from .circuit import (
    CHECKPOINT_LABELS,
    PSI3,
    build_comparison_search,
    run_with_trace,
)
from .dyadic import DyadicReal
from .state import EXACT, FLOAT, FLOAT_ATOL, BooleanOracle, StateVector, _tables
from .refutation import (
    EXHAUSTIVE_SWEEP_MAX_N,
    SweepReport,
    _check_oracles,
    _match_rows,
    _oracle_tables,
    compare_grover,
    sweep_all_f,
)

# Both backends, every command: 2^(2n) amplitudes, 2^24 at n = 12.
N_CAP = 12
DEFAULT_SAMPLES = 100000


class CLIError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _resolve_backend(args) -> str:
    if args.backend is not None:
        return args.backend
    return EXACT if args.n <= 3 else FLOAT


def _check_caps(n: int) -> None:
    if not 1 <= n <= N_CAP:
        raise CLIError(2, f"--n must be in 1..{N_CAP}, got {n}")


def _parse_oracle(args, n: int) -> BooleanOracle | None:
    marked = getattr(args, "marked", None)
    table = getattr(args, "truth_table", None)
    if marked is not None and table is not None:
        raise CLIError(2, "give either --marked or --truth-table, not both")
    if marked is not None:
        try:
            elems = [int(tok, 0) for tok in marked.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise CLIError(2, f"--marked {marked!r} is not a comma-separated int list") from exc
        return BooleanOracle.from_marked(n, elems)
    if table is not None:
        if not table.lower().startswith("0x"):
            raise CLIError(2, "--truth-table must be hex like 0x1a")
        try:
            value = int(table, 16)
        except ValueError as exc:
            raise CLIError(2, f"--truth-table {table!r} is not valid hex") from exc
        return BooleanOracle(n, value)
    return None


def _oracle_params(f: BooleanOracle | None) -> dict | None:
    if f is None:
        return None
    return {"truth_table": format(f.table, "#x"), "marked": list(f.marked())}


def _amplitude_json(amp) -> list:
    if isinstance(amp, DyadicReal):
        return [amp.a, amp.b, amp.h]
    return [amp, 0.0]  # [re, im]; float amplitudes are real


def _document(command: str, parameters: dict, results: dict) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "version": __version__,
    }


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


# json writes a float as float.__repr__ does, except for these three.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


_BOOL_TEXTS = np.array(["false", "true"], dtype=object)

# Sweep verdict rows per report piece: 512 rows of an n = 4 JSON report
# are about 90 kB.
_PIECE_ROWS = 512


def _float_texts(column: np.ndarray, render) -> list[str]:
    """``render`` of each float of the float64 ``column``, called once per
    distinct bit pattern: keyed by value, -0.0 would take the text of
    0.0, and a NaN would find no key."""
    bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    texts = np.array([render(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse.reshape(-1)].tolist()


def _verdict_rows(report: SweepReport, render) -> Iterator[Iterable[tuple]]:
    """``report``'s columns _PIECE_ROWS rows at a time, as the fields of
    each row: per oracle its id, match text, deviation and TV to the first
    table, as written by ``render``, and its table."""
    for start in range(0, report.oracle_count, _PIECE_ROWS):
        tables, match, dev, tv = (c[start : start + _PIECE_ROWS] for c in report.columns)
        yield zip(
            range(start, start + len(tables)),
            _BOOL_TEXTS[match.view(np.uint8)].tolist(),
            _float_texts(dev, render),
            _float_texts(tv, render),
            tables.tolist(),
        )


def _sweep_json(doc: dict, report: SweepReport) -> Iterator[str]:
    """The bytes of ``_dump_json`` for the sweep document ``doc`` with
    ``report``'s verdicts in place of its empty ``results.verdicts``,
    _PIECE_ROWS verdicts a piece, so the whole report is never held as one
    string."""
    # Only results has a "verdicts" key, and it sorts last there.
    head, empty, tail = _dump_json(doc).partition('"verdicts": []')
    if not report.oracle_count:
        yield head + empty + tail
        return
    sep = head + '"verdicts": [\n'
    for rows in _verdict_rows(report, _json_float):
        # One verdict as _dump_json writes it: keys sorted, at depth 3.
        yield sep + ",\n".join([
            "      {\n"
            f'        "exact_match": {match},\n'
            f'        "max_dev": {dev},\n'
            f'        "oracle_id": {i},\n'
            f'        "table": "{table:#x}",\n'
            f'        "tv_to_first": {tv}\n'
            "      }"
            for i, match, dev, tv, table in rows
        ])
        sep = ",\n"
    yield "\n    ]" + tail


def _sweep_csv(report: SweepReport) -> Iterator[str]:
    yield "oracle_id,exact_match,max_dev,tv_to_first\n"
    for rows in _verdict_rows(report, repr):
        yield "".join([f"{i},{match},{dev},{tv}\n" for i, match, dev, tv, _ in rows])


def _write_atomic(path: str, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` to ``path``, each as it comes, through a
    unique temporary file in its directory, so no reader sees a partial
    report and concurrent writers do not share a file; the temporary
    file is removed on any failure, a failing piece included."""
    if isinstance(pieces, str):
        # writelines would take it one character at a time.
        raise TypeError("_write_atomic takes an iterable of text pieces, not a str")
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
        )
        try:
            # mkstemp creates the file 0600; give the report the mode a
            # plain open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CLIError(3, f"cannot write {path}: {exc}") from exc


def cmd_verify(args) -> tuple[int, list[str]]:
    backend = _resolve_backend(args)
    f = _parse_oracle(args, args.n)
    if args.all_f and f is not None:
        raise CLIError(2, "--all-f excludes an explicit oracle")
    if not args.all_f and f is None:
        raise CLIError(2, "need --all-f, --marked or --truth-table")
    if args.all_f and args.n > EXHAUSTIVE_SWEEP_MAX_N:
        raise CLIError(2, f"--all-f capped at n <= {EXHAUSTIVE_SWEEP_MAX_N} (2^(2^n) oracles)")

    tables = _oracle_tables(args.n) if args.all_f else _tables(args.n, [f.table])
    checked, all_match, max_dev = _check_oracles(args.n, tables, backend)

    doc = _document(
        "verify",
        {
            "n": args.n,
            "backend": backend,
            "all_f": bool(args.all_f),
            "oracle": _oracle_params(f),
            "tolerance": 0.0 if backend == EXACT else FLOAT_ATOL,
        },
        {
            "oracles_checked": checked,
            "all_match": all_match,
            "max_deviation": max_dev,
        },
    )
    status = "ok" if all_match else "FAILED"
    print(
        f"verify n={args.n} backend={backend}: {checked} oracle(s), "
        f"max deviation {max_dev:.3g} -> {status}"
    )
    return (0 if all_match else 1), [_dump_json(doc)]


def cmd_trace(args) -> tuple[int, list[str]]:
    backend = _resolve_backend(args)
    if args.n > 4:
        raise CLIError(2, f"trace prints full states; capped at n <= 4 (got n={args.n})")
    f = _parse_oracle(args, args.n)
    if f is None:
        raise CLIError(2, "trace needs --marked or --truth-table")

    trace = run_with_trace(
        build_comparison_search(args.n, f), StateVector(2 * args.n, backend)
    )
    reference = {
        "psi0": analytic.psi0(args.n, backend),
        "psi1": analytic.psi1(args.n, backend),
        "psi2": analytic.psi2(args.n, f, backend),
        "psi2a": analytic.psi2a(args.n, f, backend),
        "psi3": analytic.psi3(args.n, f, backend),
    }
    target = analytic.target_output(args.n, f, backend)

    checkpoints = []
    all_match = True
    for label in CHECKPOINT_LABELS:
        state = trace[label]
        ok = bool(_match_rows(state, reference[label], 1)[0][0])
        all_match = all_match and ok
        checkpoints.append(
            {
                "label": label,
                "amplitudes": [_amplitude_json(a) for a in state.amplitudes()],
                "analytic_amplitudes": [
                    _amplitude_json(a) for a in reference[label].amplitudes()
                ],
                "analytic_match": ok,
            }
        )
        print(f"{label:>5}: {state.terms()}   analytic match: {'yes' if ok else 'NO'}")
    target_ok = bool(_match_rows(trace[PSI3], target, 1)[0][0])
    all_match = all_match and target_ok
    print(f"final state equals diagonal target: {'yes' if target_ok else 'NO'}")

    doc = _document(
        "trace",
        {"n": args.n, "backend": backend, "oracle": _oracle_params(f)},
        {"checkpoints": checkpoints, "target_match": target_ok, "all_match": all_match},
    )
    return (0 if all_match else 1), [_dump_json(doc)]


def cmd_sweep(args) -> tuple[int, Iterator[str]]:
    backend = _resolve_backend(args)
    if not args.out:
        raise CLIError(2, "sweep needs --out")
    report = sweep_all_f(args.n, backend, seed=args.seed)
    doc = _document(
        "sweep",
        {
            "n": args.n,
            "backend": backend,
            "seed": args.seed,
            "format": args.format,
        },
        # The rows are left out here and written straight from the report.
        {**report.summary(), "verdicts": []},
    )
    status = "ok" if report.all_match else "FAILED"
    print(
        f"sweep n={args.n} backend={backend}: {report.oracle_count} oracles, "
        f"max pairwise TV {report.max_pairwise_tv:.3g} -> {status} ({args.out})"
    )
    pieces = _sweep_json(doc, report) if args.format == "json" else _sweep_csv(report)
    return (0 if report.all_match else 1), pieces


def cmd_grover_compare(args) -> tuple[int, list[str]]:
    if args.marked is None:
        raise CLIError(2, "grover-compare needs --marked <element>")
    try:
        marked = int(args.marked, 0)
    except ValueError as exc:
        raise CLIError(2, f"--marked {args.marked!r} is not an integer") from exc

    rec = compare_grover(args.n, marked, samples=args.samples, seed=args.seed)
    doc = _document(
        "grover-compare",
        {"n": args.n, "marked": marked, "samples": args.samples, "seed": args.seed},
        rec.to_dict(),
    )
    print(
        f"n={args.n}, marked element {marked}:\n"
        f"  comparison circuit: p = {rec.comparison_probability:.6g}"
        f" (= 2^-{args.n} exactly: {'yes' if rec.comparison_probability_is_exact else 'NO'}),"
        f" empirical {rec.comparison_empirical_frequency:.6g}\n"
        f"  grover ({rec.grover_iterations} iterations): p = {rec.grover_probability:.6g},"
        f" empirical {rec.grover_empirical_frequency:.6g}"
    )
    return 0, [_dump_json(doc)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compsearch",
        description="simulate the comparison-search circuit and verify that "
        "its output carries no information about the marked elements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, backend=True, oracle=True, seed=False):
        """A subcommand with exactly the options its function reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--n", type=int, required=True, help="register size in qubits")
        if backend:
            p.add_argument("--backend", choices=[EXACT, FLOAT], default=None,
                           help="amplitude backend (default: exact for n<=3, else float)")
        if oracle:
            p.add_argument("--marked", type=str, default=None,
                           help="comma-separated marked elements")
            p.add_argument("--truth-table", type=str, default=None,
                           help="oracle truth table as 0x<hex>, LSB = f(0)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", type=str, default=None, help="report file path")
        p.set_defaults(func=func)
        return p

    p_verify = command("verify", cmd_verify, "check circuit output against the diagonal target")
    p_verify.add_argument("--all-f", action="store_true",
                          help="check every oracle on n bits")

    command("trace", cmd_trace, "print checkpoint states and their closed forms")

    p_sweep = command("sweep", cmd_sweep, "write per-oracle verdicts to a report file",
                      oracle=False, seed=True)
    p_sweep.add_argument("--format", choices=["json", "csv"], default="json")

    p_gc = command("grover-compare", cmd_grover_compare,
                   "marked-element probability, comparison circuit vs Grover",
                   backend=False, oracle=False, seed=True)
    p_gc.add_argument("--marked", type=str, default=None, help="the marked element")
    p_gc.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                      help=f"measurement draws (default {DEFAULT_SAMPLES})")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        _check_caps(args.n)
        code, pieces = args.func(args)
        if args.out:
            _write_atomic(args.out, pieces)
        # Timing goes to stderr only; report files stay byte-deterministic.
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
        return code
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OverflowError, MemoryError) as exc:
        # A run that ran out of memory stopped; it is no verification failure.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
