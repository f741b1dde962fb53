"""CLI tests (driven through main() with captured stdout)."""

import pytest

from repro.cli import main
from repro.cpds import format_cpds
from repro.models import fig1_cpds
from repro.models.figure2 import fig2_cpds

FIG1 = format_cpds(fig1_cpds())

BAD_BP = """
decl flag;
void setter() { flag := 1; }
void checker() { assert (!flag); }
void main() { thread_create(&setter); thread_create(&checker); }
"""


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.cpds"
    path.write_text(FIG1)
    return str(path)


@pytest.fixture
def bad_bp_file(tmp_path):
    path = tmp_path / "bad.bp"
    path.write_text(BAD_BP)
    return str(path)


class TestVerify:
    def test_safe_cpds_exit_zero(self, fig1_file, capsys):
        code = main(["verify", fig1_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "FCR: holds" in out
        assert "safe" in out

    def test_unsafe_property_exit_one(self, fig1_file, capsys):
        code = main(["verify", fig1_file, "--property", "shared:3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unsafe" in out
        assert "witness trace" in out

    def test_explicit_engine_diverges_exit_two(self, fig1_file, capsys):
        code = main(["verify", fig1_file, "--engine", "explicit", "--max-rounds", "5"])
        assert code == 2

    def test_symbolic_engine(self, fig1_file, capsys):
        code = main(["verify", fig1_file, "--engine", "symbolic"])
        assert code == 0

    def test_boolean_program(self, bad_bp_file, capsys):
        code = main(["verify", bad_bp_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "ERR" in out

    def test_boolean_init_flag(self, tmp_path, capsys):
        path = tmp_path / "p.bp"
        path.write_text(
            "decl x; void w() { assert (x); } void main() { thread_create(&w); }"
        )
        assert main(["verify", str(path), "--init", "x=1"]) == 0
        assert main(["verify", str(path), "--init", "x=*"]) == 1

    @pytest.mark.parametrize("spec", ["x=abc", "x=2", "x=", "=1"])
    def test_bad_boolean_init_is_a_usage_error(self, tmp_path, spec, capsys):
        path = tmp_path / "p.bp"
        path.write_text(
            "decl x; void w() { assert (x); } void main() { thread_create(&w); }"
        )
        # Exit 3 (usage error), never 1, which would read as "refuted".
        assert main(["verify", str(path), "--init", spec]) == 3
        assert "error: cannot parse init" in capsys.readouterr().err

    def test_bad_property_spec(self, fig1_file, capsys):
        assert main(["verify", fig1_file, "--property", "nonsense"]) == 3
        assert "error: cannot parse property" in capsys.readouterr().err

    def test_missing_file_exit_three(self, capsys):
        assert main(["verify", "/nonexistent.cpds"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, fig1_file, capsys):
        # argparse's own errors exit 3 too, never 2 ("inconclusive").
        with pytest.raises(SystemExit) as stopped:
            main(["verify", fig1_file, "--bogus"])
        assert stopped.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: cuba")
        assert "unrecognized arguments: --bogus" in err

    def test_missing_file_argument_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as stopped:
            main(["verify"])
        assert stopped.value.code == 3
        assert "the following arguments are required: file" in capsys.readouterr().err


class TestWitness:
    def test_witness_prints_validated_trace(self, fig1_file, capsys):
        code = main(["verify", fig1_file, "--property", "shared:3", "--witness"])
        out = capsys.readouterr().out
        assert code == 1
        assert "validated against the CPDS step semantics" in out
        assert "start  ⟨0|1,4⟩" in out
        # One line per step, thread-tagged.
        assert "T1 f1" in out and "T2 b3" in out

    def test_witness_on_safe_run_reports_nothing_to_show(self, fig1_file, capsys):
        code = main(["verify", fig1_file, "--witness"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no witness: the property was not refuted" in out

    def test_witness_on_symbolic_engine_explains_absence(self, fig1_file, capsys):
        code = main(
            ["verify", fig1_file, "--property", "shared:3",
             "--engine", "symbolic", "--witness"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no witness trace recorded" in out

    def test_witness_with_report(self, fig1_file, capsys):
        code = main(
            ["verify", fig1_file, "--property", "shared:3",
             "--report", "--witness"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "validated against the CPDS step semantics" in out


class TestServiceCommands:
    def test_serve_and_submit_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "9999", "--store", "x.sqlite", "--workers", "3"]
        )
        assert args.handler.__name__ == "cmd_serve"
        assert args.port == 9999 and args.workers == 3
        args = parser.parse_args(
            ["submit", "file.cpds", "--engine", "explicit", "--no-wait"]
        )
        assert args.handler.__name__ == "cmd_submit"
        # --engine is the pre-lane spelling, kept as an alias of --lane.
        assert args.lane == "explicit" and args.no_wait
        args = parser.parse_args(["submit", "file.cpds", "--lane", "wuba"])
        assert args.lane == "wuba"

    def test_submit_without_server_reports_cleanly(self, fig1_file, capsys):
        # Port 9 (discard) is never a cuba service; the CubaError path
        # must exit 3 with a clean message, not a traceback.
        code = main(["submit", fig1_file, "--port", "9"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_submit_no_wait_prints_the_poll_urls(self, fig1_file, capsys, monkeypatch):
        class StubClient:
            def __init__(self, host, port):
                self.address = (host, port)

            def submit(self, **kwargs):
                assert kwargs["wait"] is False
                return {"id": "abc123", "status": "queued"}

        monkeypatch.setattr("repro.service.ServiceClient", StubClient)
        code = main(["submit", fig1_file, "--port", "8765", "--no-wait"])
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted: id=abc123 status=queued" in out
        assert "GET http://127.0.0.1:8765/status?id=abc123" in out
        assert "GET http://127.0.0.1:8765/result?id=abc123" in out
        assert "cuba-status" not in out

    def test_submit_bad_init_is_a_usage_error(self, bad_bp_file, capsys):
        # The spec is parsed before any connection: port 9 is never used.
        code = main(["submit", bad_bp_file, "--port", "9", "--init", "x=abc"])
        assert code == 3
        assert "error: cannot parse init" in capsys.readouterr().err


class TestFcr:
    def test_fcr_holds(self, fig1_file, capsys):
        assert main(["fcr", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "FCR holds" in out
        assert "loop-free" in out

    def test_fcr_fails(self, tmp_path, capsys):
        path = tmp_path / "pump.cpds"
        path.write_text(
            "init: 0\nthread T\n  stack: a\n  rule (0, a) -> (0, a a)\n"
        )
        assert main(["fcr", str(path)]) == 1
        assert "infinite" in capsys.readouterr().out


class TestTable:
    def test_fig1_table(self, fig1_file, capsys):
        assert main(["table", fig1_file, "--levels", "4"]) == 0
        out = capsys.readouterr().out
        assert "⟨0|1,4⟩" in out
        assert "⟨3|2,46⟩" in out  # new at k = 2
        # Plateau row at k = 3 in the visible column: marker for "empty".
        assert "·" in out

    def test_non_fcr_model_is_refused_before_enumeration(self, tmp_path, capsys):
        """Fig. 2 violates FCR, so enumerating ``(Rk)`` would diverge:
        the table checks the explicit lane's precondition first and
        exits 3 at once, naming the lanes that do apply."""
        path = tmp_path / "fig2.cpds"
        path.write_text(format_cpds(fig2_cpds()))
        assert main(["table", str(path), "--levels", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lane 'explicit' is not applicable" in captured.err
        assert "applicable lanes: symbolic" in captured.err


class TestBench:
    def test_single_row(self, capsys):
        assert main(["bench", "--rows", "9"]) == 0
        out = capsys.readouterr().out
        assert "9/Dekker" in out
        assert "safe" in out


class TestOutDirectory:
    """``--out`` is made (or refused) before any run starts: a missing
    directory used to fail only after the whole suite had run."""

    def test_bench_json_makes_out_before_the_suite(self, tmp_path, monkeypatch, capsys):
        import repro.bench.runner as runner

        out = tmp_path / "new" / "dir"
        runs = []

        def stub_suite(**_kwargs):
            runs.append(out.is_dir())
            return {"stamp": "STUB", "workloads": [], "totals": {}}

        monkeypatch.setattr(runner, "run_suite", stub_suite)
        assert main(["bench", "--json", "--out", str(out)]) == 0
        assert runs == [True]
        assert (out / "BENCH_STUB.json").is_file()
        blocked = tmp_path / "file"
        blocked.write_text("")
        assert main(["bench", "--json", "--out", str(blocked)]) == 3
        assert runs == [True]  # refused before a second run
        assert "error:" in capsys.readouterr().err

    def test_loadtest_makes_out_before_the_run(self, tmp_path, monkeypatch, capsys):
        from collections import defaultdict

        import repro.service.loadtest as loadtest

        out = tmp_path / "new" / "dir"
        runs = []

        def stub_loadtest(**_kwargs):
            runs.append(out.is_dir())
            return {"stamp": "STUB", "elapsed": 0.0, "replicas": 1,
                    "totals": defaultdict(int)}

        monkeypatch.setattr(loadtest, "run_loadtest", stub_loadtest)
        assert main(["loadtest", "--out", str(out)]) == 0
        assert runs == [True]
        assert (out / "LOADTEST_STUB.json").is_file()
        blocked = tmp_path / "file"
        blocked.write_text("")
        assert main(["loadtest", "--out", str(blocked)]) == 3
        assert runs == [True]  # refused before a second run
        assert "error:" in capsys.readouterr().err
