import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compsearch import __version__, cli
from compsearch.cli import main
from compsearch.refutation import SweepReport, sweep_all_f
from conftest import report_dict, sweep_report


def run_cli(*argv):
    return main(list(argv))


class TestVerify:
    def test_all_f_exact(self, capsys):
        assert run_cli("verify", "--n", "2", "--backend", "exact", "--all-f") == 0
        out = capsys.readouterr().out
        assert "16 oracle(s)" in out and "ok" in out

    def test_single_oracle_float(self, tmp_path):
        path = tmp_path / "v8.json"
        assert run_cli("verify", "--n", "8", "--backend", "float", "--marked", "37",
                       "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        assert doc["results"]["max_deviation"] < 1e-12

    def test_report_document(self, tmp_path):
        path = tmp_path / "verify.json"
        assert run_cli("verify", "--n", "2", "--all-f", "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "verify"
        assert doc["version"] == __version__
        assert doc["results"]["oracles_checked"] == 16
        assert doc["results"]["all_match"] is True
        assert doc["parameters"]["backend"] == "exact"
        assert doc["parameters"]["tolerance"] == 0.0

    def test_invalid_arguments_exit_2(self):
        assert run_cli("verify", "--n", "0", "--all-f") == 2
        assert run_cli("verify", "--n", "2") == 2  # no oracle and no --all-f
        assert run_cli("verify", "--n", "13", "--backend", "exact", "--marked", "1") == 2
        assert run_cli("verify", "--n", "5", "--all-f") == 2
        assert (
            run_cli("verify", "--n", "2", "--marked", "1", "--truth-table", "0x2") == 2
        )
        assert run_cli("verify", "--n", "2", "--marked", "9") == 2
        assert run_cli("verify", "--n", "2", "--truth-table", "beef") == 2
        assert run_cli("verify", "--n", "13", "--backend", "float", "--marked", "1") == 2
        assert run_cli("nonsense") == 2

    @pytest.mark.parametrize("late", [False, True])
    @pytest.mark.parametrize("message, want", [
        ("Unable to allocate 128. MiB", "error: Unable to allocate 128. MiB"),
        ("", "error: out of memory"),
    ])
    def test_out_of_memory_exits_2(self, monkeypatch, capsys, tmp_path, late, message, want):
        # Running out of memory, in the command or while its report is
        # written, stops the run: exit 2, not 1, which means a failed
        # verification.  The error is raised, never provoked.
        def pieces():
            yield "{"
            raise MemoryError(message)

        def exhausted(args):
            if late:
                return 0, pieces()
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_verify", exhausted)
        out = tmp_path / "verify.json"
        assert run_cli("verify", "--n", "2", "--all-f", "--out", str(out)) == 2
        assert capsys.readouterr().err == want + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_oracle_grammars_agree(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("verify", "--n", "2", "--marked", "1,2", "--out", str(a)) == 0
        assert run_cli("verify", "--n", "2", "--truth-table", "0x6", "--out", str(b)) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["parameters"]["oracle"] == db["parameters"]["oracle"]
        assert da["parameters"]["oracle"]["marked"] == [1, 2]

    def test_exact_backend_past_n4(self):
        assert run_cli("verify", "--n", "5", "--backend", "exact", "--marked", "3") == 0

    def test_one_n_cap_for_both_backends(self, monkeypatch):
        # The cap is lowered so that the refused runs would be small.
        monkeypatch.setattr(cli, "N_CAP", 3)
        for backend in ("exact", "float"):
            assert run_cli("verify", "--n", "4", "--backend", backend, "--marked", "1") == 2
            assert run_cli("verify", "--n", "3", "--backend", backend, "--marked", "1") == 0
        assert run_cli("grover-compare", "--n", "4", "--marked", "1") == 2
        assert run_cli("grover-compare", "--n", "3", "--marked", "1") == 0


class TestTrace:
    def test_match_flags(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert run_cli("trace", "--n", "1", "--truth-table", "0x0", "--out", str(path)) == 0
        out = capsys.readouterr().out
        assert "analytic match: yes" in out
        doc = json.loads(path.read_text())
        assert doc["results"]["all_match"] is True
        assert doc["results"]["target_match"] is True
        labels = [c["label"] for c in doc["results"]["checkpoints"]]
        assert labels == ["psi0", "psi1", "psi2", "psi2a", "psi3"]
        psi3 = doc["results"]["checkpoints"][-1]["amplitudes"]
        assert psi3[0] == [0, 1, 1]  # (0 + 1*sqrt2)/2 on |00>
        assert psi3[1] == [0, 0, 0]
        assert psi3[3] == [0, 1, 1]
        psi1 = doc["results"]["checkpoints"][1]["amplitudes"]
        assert psi1 == [[1, 0, 1]] * 4  # four amplitudes of 1/2

    def test_needs_oracle_and_small_n(self):
        assert run_cli("trace", "--n", "1") == 2
        assert run_cli("trace", "--n", "5", "--backend", "float", "--marked", "1") == 2

    def test_float_backend_trace(self, tmp_path):
        path = tmp_path / "t.json"
        assert (
            run_cli("trace", "--n", "2", "--backend", "float", "--marked", "3",
                    "--out", str(path)) == 0
        )
        doc = json.loads(path.read_text())
        assert doc["results"]["all_match"] is True
        amp = doc["results"]["checkpoints"][1]["amplitudes"][0]
        assert amp[0] == pytest.approx(0.25) and amp[1] == 0.0


class TestSweep:
    def test_json_report(self, tmp_path):
        path = tmp_path / "sweep.json"
        assert run_cli("sweep", "--n", "2", "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "sweep"
        assert len(doc["results"]["verdicts"]) == 16
        assert doc["results"]["all_match"] is True
        assert doc["results"]["max_pairwise_tv"] == 0.0

    def test_csv_header_contract(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--n", "2", "--format", "csv", "--out", str(path)) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "oracle_id,exact_match,max_dev,tv_to_first"
        assert len(lines) == 17
        assert lines[1].startswith("0,true,")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("sweep", "--n", "2", "--seed", "3", "--out", str(a)) == 0
        assert run_cli("sweep", "--n", "2", "--seed", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exact_cap_exceeded(self, tmp_path):
        assert run_cli("sweep", "--n", "13", "--backend", "exact",
                       "--out", str(tmp_path / "x.json")) == 2

    def test_missing_out(self):
        assert run_cli("sweep", "--n", "2") == 2

    def test_unwritable_path_exit_3(self):
        assert run_cli("sweep", "--n", "1", "--out", "/nonexistent-dir/x.json") == 3

    def test_existing_tmp_file_untouched(self, tmp_path):
        path = tmp_path / "sweep.json"
        stray = tmp_path / "sweep.json.tmp"
        stray.write_text("not ours")
        assert run_cli("sweep", "--n", "1", "--out", str(path)) == 0
        assert stray.read_text() == "not ours"
        assert json.loads(path.read_text())["command"] == "sweep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json", "sweep.json.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # The target is a directory, so the final rename fails after the
        # temporary file has been written.
        (tmp_path / "out").mkdir()
        assert run_cli("sweep", "--n", "1", "--out", str(tmp_path / "out")) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []


def _report(rows=(), *, seed=None, **summary):
    """A report of ``(table, match, deviation, TV)`` rows."""
    fields = dict(n=3, backend="float", exhaustive=seed is None, seed=seed,
                  rng_algorithm=None if seed is None else "numpy-pcg64")
    return sweep_report(list(rows), **fields, **summary)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1]

CRAFTED_REPORTS = {
    "special floats": _report(
        [(i, i % 2 == 0, x, y)
         for i, (x, y) in enumerate(zip(SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]))],
        max_deviation=math.nan, marginal_uniformity_deviation=math.inf,
        max_pairwise_tv=-0.0, max_pairwise_tv_is_exact=False,
    ),
    "4096-bit tables": _report(
        [((1 << 4096) - 1, True, 0.0, 0.0),
         (1 << 4095, False, 2.5, 1e-17)],
        all_match=False,
    ),
    "no verdicts": _report(),
    # Each float column holds 0.0 beside -0.0 and two NaNs of different
    # bits, and the object tables run from 0 past 2^64 in one piece.
    "signed zeros, NaNs and wide tables": _report(
        [(0, True, 0.0, -0.0), ((1 << 64) - 1, False, -0.0, 0.0), (5, True, 0.0, 0.0),
         (1 << 64, True, math.nan, 0.0), ((1 << 64) + 1, False, -math.nan, -0.0),
         ((1 << 65) + 3, True, -0.0, math.nan), (1 << 64, True, 0.0, -math.nan)],
        all_match=False, max_deviation=math.nan,
    ),
    "uint64 tables": _report(
        [((1 << 64) - 1, True, 0.0, -0.0), (1 << 63, False, -0.0, 0.0), (0, True, 1.0, 0.5)],
        all_match=False,
    ),
    "sampled header": _report([(0x5A, True, 1e-16, 0.0)], seed=7),
}


def test_float_texts_are_keyed_by_bit_pattern():
    column = np.array([0.0, -0.0, math.nan, -math.nan, 0.0, -0.0, math.nan])
    assert len(set(column.view(np.uint64).tolist())) == 4
    calls = []
    texts = cli._float_texts(column, lambda x: calls.append(x) or cli._json_float(x))
    assert texts == ["0.0", "-0.0", "NaN", "NaN", "0.0", "-0.0", "NaN"]
    assert len(calls) == 4


def _old_sweep_csv(report):
    """The CSV report as it was built before rows were streamed: joined."""
    lines = ["oracle_id,exact_match,max_dev,tv_to_first"]
    for v in report.verdicts:
        lines.append(
            f"{v.oracle_id},{'true' if v.exact_match else 'false'},"
            f"{v.max_deviation!r},{v.tv_to_first!r}"
        )
    return "\n".join(lines) + "\n"


def _sweep_texts(mp, report):
    """The JSON and CSV text that ``sweep`` writes for ``report``, joined
    from the pieces handed to the writer, next to the texts expected from
    ``report_dict`` and from the old joined CSV."""
    written = {}

    def capture(path, pieces):
        assert not isinstance(pieces, str)
        written[path] = "".join(pieces)

    mp.setattr(cli, "sweep_all_f", lambda n, backend, *, seed: report)
    mp.setattr(cli, "_write_atomic", capture)
    for fmt in ("json", "csv"):
        assert run_cli("sweep", "--n", "3", "--backend", "float", "--seed", "7",
                       "--format", fmt, "--out", fmt) == (0 if report.all_match else 1)
    doc = {
        "command": "sweep",
        "parameters": {"n": 3, "backend": "float", "seed": 7, "format": "json"},
        "results": report_dict(report),
        "version": __version__,
    }
    expected = {
        "json": json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        "csv": _old_sweep_csv(report),
    }
    return written, expected


def fail_at_row_9(mp, error):
    """Make the report writers take 4 rows a piece, and raise ``error`` at
    the third piece, which holds oracle 9, after two have been written."""
    mp.setattr(cli, "_PIECE_ROWS", 4)
    rows = cli._verdict_rows

    def failing(report, render):
        start = 0
        for batch in rows(report, render):
            batch = list(batch)
            if start <= 9 < start + len(batch):
                raise error("row failed")
            start += len(batch)
            yield batch

    mp.setattr(cli, "_verdict_rows", failing)


class TestStreamedReport:
    @pytest.mark.parametrize("name", sorted(CRAFTED_REPORTS))
    def test_pieces_join_to_the_whole_document(self, monkeypatch, name):
        written, expected = _sweep_texts(monkeypatch, CRAFTED_REPORTS[name])
        assert written == expected

    @pytest.mark.parametrize("name", sorted(CRAFTED_REPORTS))
    def test_pieces_of_two_rows_join_to_the_whole_document(self, monkeypatch, name):
        monkeypatch.setattr(cli, "_PIECE_ROWS", 2)
        written, expected = _sweep_texts(monkeypatch, CRAFTED_REPORTS[name])
        assert written == expected

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_real_sweep_joins_to_the_whole_document(self, monkeypatch, backend):
        written, expected = _sweep_texts(monkeypatch, sweep_all_f(2, backend))
        assert written == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, (1 << 4096) - 1),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    ), max_size=6))
    def test_finite_floats_join_to_the_whole_document(self, rows):
        with pytest.MonkeyPatch.context() as mp:
            written, expected = _sweep_texts(mp, _report(rows))
        assert written == expected

    def test_no_verdict_dicts_are_built(self, tmp_path, monkeypatch):
        # The one document the sweep dumps holds no rows: each is rendered
        # from the report's columns as it is written.
        dumped = []
        dump = cli._dump_json
        monkeypatch.setattr(cli, "_dump_json", lambda doc: dumped.append(doc) or dump(doc))
        path = tmp_path / "s.json"
        assert run_cli("sweep", "--n", "2", "--out", str(path)) == 0
        assert [doc["results"]["verdicts"] for doc in dumped] == [[]]
        assert not hasattr(SweepReport, "to_dict")
        assert len(json.loads(path.read_text())["results"]["verdicts"]) == 16

    @pytest.mark.parametrize("error, code", [(RuntimeError, None), (OSError, 3)])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_mid_stream_keeps_the_old_report(
        self, tmp_path, monkeypatch, error, code, existing
    ):
        path = tmp_path / "sweep.json"
        if existing:
            path.write_bytes(b'{"old": "report"}\n')
        fail_at_row_9(monkeypatch, error)
        argv = ("sweep", "--n", "2", "--out", str(path))
        if code is None:
            with pytest.raises(error, match="row failed"):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == code
        assert not list(tmp_path.glob("*.tmp"))
        if existing:
            assert path.read_bytes() == b'{"old": "report"}\n'
        else:
            assert list(tmp_path.iterdir()) == []

    def test_failure_mid_csv_keeps_the_old_report(self, tmp_path, monkeypatch):
        fail_at_row_9(monkeypatch, RuntimeError)
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"old,report\n")
        with pytest.raises(RuntimeError, match="row failed"):
            run_cli("sweep", "--n", "2", "--format", "csv", "--out", str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
        assert path.read_bytes() == b"old,report\n"

    def test_bare_str_is_refused(self, tmp_path):
        with pytest.raises(TypeError):
            cli._write_atomic(str(tmp_path / "r.json"), "{}\n")
        assert list(tmp_path.iterdir()) == []


class TestGroverCompare:
    def test_values_and_defaults(self, tmp_path, capsys):
        path = tmp_path / "gc.json"
        assert run_cli("grover-compare", "--n", "3", "--marked", "5",
                       "--out", str(path)) == 0
        out = capsys.readouterr().out
        assert "0.125" in out and "0.945" in out
        doc = json.loads(path.read_text())
        res = doc["results"]
        assert res["comparison_circuit"]["probability"] == 0.125
        assert res["comparison_circuit"]["equals_two_to_minus_n"] is True
        assert res["grover"]["probability"] == pytest.approx(0.9453125, abs=1e-12)
        assert res["seed"] == 0  # default seed recorded
        assert res["samples"] == 100000
        assert res["rng_algorithm"] == "numpy-pcg64"

    def test_n2_exact_case(self, tmp_path):
        path = tmp_path / "gc2.json"
        assert run_cli("grover-compare", "--n", "2", "--marked", "1",
                       "--samples", "5000", "--out", str(path)) == 0
        res = json.loads(path.read_text())["results"]
        assert res["comparison_circuit"]["probability"] == 0.25
        assert res["grover"]["probability"] == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        assert run_cli("grover-compare", "--n", "1", "--marked", "0") == 2
        assert run_cli("grover-compare", "--n", "3", "--marked", "8") == 2
        assert run_cli("grover-compare", "--n", "3") == 2
        assert run_cli("grover-compare", "--n", "3", "--marked", "1",
                       "--samples", "0") == 2


class TestMisc:
    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["grover-compare", "--n", "3", "--marked", "5", "--backend", "float"],
            ["grover-compare", "--n", "3", "--marked", "5", "--truth-table", "0xff"],
            ["sweep", "--n", "1", "--marked", "1"],
            ["sweep", "--n", "1", "--truth-table", "0x1"],
            ["verify", "--n", "2", "--all-f", "--seed", "1"],
            ["trace", "--n", "1", "--marked", "1", "--seed", "1"],
        ],
    )
    def test_option_the_command_does_not_read_exits_2(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "r.json")) == 2
        assert not (tmp_path / "r.json").exists()

    def test_seeded_reports_identical_across_commands(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli("grover-compare", "--n", "2", "--marked", "3",
                           "--samples", "2000", "--seed", "11", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()


# The stderr line of each refused command line; each exits 2 and writes
# no report.
REJECTIONS = {
    "verify --n 2 --marked 9": "marked element 9 out of range for n=2",
    "verify --n 2 --truth-table 0x1ffff": "truth table 0x1ffff out of range for n=2",
    **{
        f"{name} --n {n}{rest}": f"--n must be in 1..12, got {n}"
        for name, rest in (
            ("verify", " --marked 1"),
            ("trace", " --marked 1"),
            ("sweep", " --out"),
            ("grover-compare", " --marked 1"),
        )
        for n in (13, 0)
    },
    "trace --n 5 --marked 1": "trace prints full states; capped at n <= 4 (got n=5)",
    "sweep --n 2": "sweep needs --out",
    "grover-compare --n 1 --marked 0": "comparison needs n >= 2, got 1",
    "grover-compare --n 2 --marked 9": "marked element 9 out of range for n=2",
    "grover-compare --n 2 --marked 1 --samples 0": "samples must be >= 1, got 0",
    "verify --n 2 --marked x": "--marked 'x' is not a comma-separated int list",
    "grover-compare --n 2 --marked x": "--marked 'x' is not an integer",
    "verify --n 2 --truth-table 12": "--truth-table must be hex like 0x1a",
    "verify --n 2 --truth-table 0xZZ": "--truth-table '0xZZ' is not valid hex",
    "verify --n 2 --all-f --marked 1": "--all-f excludes an explicit oracle",
}


@pytest.mark.parametrize("command", sorted(REJECTIONS))
def test_rejection_names_its_cause(tmp_path, capsys, command):
    argv = command.split()
    path = tmp_path / "r.json"
    if argv[-1] == "--out":
        argv.append(str(path))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {REJECTIONS[command]}\n"
    assert not path.exists()


# sha256 of the report file of each command line; a change of amplitude
# storage or of the probability code must leave every byte in place.
REPORT_DIGESTS = {
    "trace --n 2 --backend float --truth-table 0x6":
        "cd05978e56b5949f77401e1db87604ebad8989be1446d9db3531e4e78216dbf7",
    "sweep --n 3 --backend float":
        "e222eb2fcc877a5b98e95ebc51b4631700f3bf38c0e34fda245e5c65616df007",
    "sweep --n 3 --backend float --format csv":
        "7b7fb0afc50cc01e6fb67e8f3cce2fbc261e63e4fd5797b6a2e197f0f95860d7",
    "verify --n 4 --backend float --marked 3":
        "59e0860104838936c516c34d3832a617da5ff07355c20f1fffd6715f44485469",
    "grover-compare --n 6 --marked 5":
        "1c6ed041136d55f9400e4d1f60062d1b3d9933f8f5c91252fbdd2ba0064828f0",
    "trace --n 3 --backend exact --truth-table 0x5a":
        "01db131d68894c6aa4c1f5678b9799cf68d6dcab3fc495b400bbfc4311153cbb",
    "verify --n 3 --all-f":
        "d10b2b5c45144165536b51a2ca6597705041c56c8f0a0dc7af0d7fd37d8e873b",
    "sweep --n 3 --backend exact":
        "a2f97a71e2a40d0472c655f98065bb8a09826d22361aef90ed0eb9024e222196",
    "sweep --n 5 --backend float --seed 7":
        "35db01ab5df622eaddd382a57a5701b8678a6073d4a5f1280e112dbce68e2253",
    "sweep --n 5 --backend exact --seed 7":
        "d2ff4577d89f2d5dc657c3a89eb099b95d41c53889a58f7305dac1dcedc1bb71",
    "verify --n 3 --all-f --backend float":
        "df5f0edc0e65f526d1f72c08d1d2fa49adc4054afff758d6e4245cad81db7e68",
    "sweep --n 2 --backend exact --format csv":
        "73b6c22363460d47760d83c1ddd956fca8906d7468237b425e5c2dca04f887fd",
    "sweep --n 5 --backend float --seed 7 --format csv":
        "f3409e0df8eab3224cf1dd6e5c29a575efd3a194f987657c7eff2a6e952ce7fa",
    "sweep --n 1 --backend exact":
        "75aa7abcef60d9c78c9230ea0e625a5cfc17c11d67c77829bbb42062b714286c",
    "sweep --n 6 --backend exact --seed 3":
        "b62a4ab392019250160e5864c2538693377a92502323d77789267e3edae9b257",
    "trace --n 4 --backend exact --marked 3":
        "9050a958fa93a6f25dd46346a66cd28fea490af448f1645737116e2f81d3fdb3",
    "trace --n 4 --backend float --truth-table 0x6a5c":
        "e9cf2ffe2c76e9fa81f5ae81d4194c341735588e2bc55745d356ca9eb8746ee0",
}


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_digest_pinned(tmp_path, command):
    path = tmp_path / "report"
    assert run_cli(*command.split(), "--out", str(path)) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[command]
