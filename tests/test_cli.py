from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import longedge.cli as cli
import longedge.qcalc as qcalc
from longedge.cli import main
from conftest import graph_texts

GEX_TEXT = "3 5 1\n4 5 2\n4 6 1\n"
THREE_EDGE_TEXT = "# weight-2 stub under two parallel edges\n0 1 2\n0 2 1\n0 2 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """Exit code and stderr of a command that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


class TestSeveri:
    def test_one_node_value(self, capsys):
        code, out, _ = run_cli(capsys, "severi", "--d", "5", "--delta", "1")
        assert code == 0
        assert out.strip() == "48"

    def test_three_node_value(self, capsys):
        code, out, _ = run_cli(capsys, "severi", "--d", "4", "--delta", "3")
        assert code == 0
        assert out.strip() == "675"

    def test_cogenus_zero(self, capsys):
        code, out, _ = run_cli(capsys, "severi", "--d", "7", "--delta", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_floor_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "severi", "--d", "4", "--delta", "2", "--method", "floor"
        )
        assert code == 0
        assert out.strip() == "225"

    def test_floor_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "severi", "--d", "6", "--delta", "1", "--method", "floor"
        )
        assert code == 2
        assert "guard" in err

    def test_delta_guard(self, capsys):
        code, _, err = run_cli(capsys, "severi", "--d", "4", "--delta", "99")
        assert code == 2
        assert "--delta" in err

    def test_json_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "severi", "--d", "5", "--delta", "1", "--json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "severi"
        assert record["params"] == {"d": 5, "delta": 1}
        assert record["value"] == "48"
        assert record["method"] == "templates"
        assert isinstance(record["ms"], int)

    def test_jobs_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "severi", "--d", "6", "--delta", "2", "--jobs", "1")
        _, out4, _ = run_cli(capsys, "severi", "--d", "6", "--delta", "2", "--jobs", "4")
        assert out1 == out4

    def test_jobs_start_no_process(self, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        code, out, _ = run_cli(capsys, "severi", "--d", "6", "--delta", "2", "--jobs", "4")
        assert code == 0
        assert out.strip() == "2370"

    def test_jobs_below_one_exit_2(self, capsys):
        code, err = usage_error(capsys, "severi", "--d", "4", "--delta", "1", "--jobs", "0")
        assert code == 2
        assert "--jobs" in err

    def test_repeat_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "severi", "--d", "7", "--delta", "2")
        _, out2, _ = run_cli(capsys, "severi", "--d", "7", "--delta", "2")
        assert out1 == out2


class TestTemplatesCommand:
    def test_cogenus_one(self, capsys):
        code, out, _ = run_cli(capsys, "templates", "--delta", "1")
        assert code == 0
        assert out.count("# template") == 2

    def test_cogenus_zero(self, capsys):
        code, out, _ = run_cli(capsys, "templates", "--delta", "0")
        assert code == 0
        assert "no templates" in out

    def test_json_count(self, capsys):
        code, out, _ = run_cli(capsys, "templates", "--delta", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 7
        for entry in payload:
            assert set(entry) == {"edges", "delta", "mu", "alpha", "k_min"}
            assert entry["delta"] == "2"

    @pytest.mark.parametrize("delta", [0, 1, 3])
    def test_json_is_one_canonical_list(self, capsys, delta):
        # written record by record, the bytes are those of one json.dumps
        code, out, _ = run_cli(capsys, "templates", "--delta", str(delta), "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_guard(self, capsys):
        code, _, err = run_cli(capsys, "templates", "--delta", "99")
        assert code == 2
        assert "--delta" in err


class TestNodePoly:
    def test_two_nodes_json(self, capsys):
        code, out, _ = run_cli(capsys, "node-poly", "--delta", "2", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["coefficients"] == ["-33", "81/2", "6", "-18", "9/2"]

    def test_factored_form_shown(self, capsys):
        code, out, _ = run_cli(capsys, "node-poly", "--delta", "1")
        assert code == 0
        assert "3*(d - 1)^2" in out
        code, out, _ = run_cli(capsys, "node-poly", "--delta", "2")
        assert code == 0
        assert "factored: (3/2)*(d - 1)*(d - 2)*(3*d^2 - 3*d - 11)\n" in out


class TestGraphCommands:
    def test_n_graph(self, capsys, tmp_path):
        path = tmp_path / "gex.txt"
        path.write_text(GEX_TEXT)
        code, out, _ = run_cli(capsys, "n-graph", "--graph", str(path), "--d", "5")
        assert code == 0
        assert out.strip() == "148"

    def test_n_graph_not_allowable_is_zero(self, capsys, tmp_path):
        path = tmp_path / "gex.txt"
        path.write_text(GEX_TEXT)
        code, out, _ = run_cli(capsys, "n-graph", "--graph", str(path), "--d", "4")
        assert code == 0
        assert out.strip() == "0"

    def test_q_graph_with_offset(self, capsys, tmp_path):
        path = tmp_path / "three_edge.txt"
        path.write_text(THREE_EDGE_TEXT)
        code, out, _ = run_cli(
            capsys, "q-graph", "--graph", str(path), "--k", "4", "--d", "6"
        )
        assert code == 0
        assert out.strip() == "144"

    def test_q_graph_rational_output(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("1 3 1\n1 3 1\n")
        code, out, _ = run_cli(capsys, "q-graph", "--graph", str(path), "--d", "2")
        assert code == 0
        assert out.strip() == "-9/2"

    @pytest.mark.parametrize("command", ["n-graph", "q-graph"])
    def test_empty_file_is_the_empty_graph(self, capsys, tmp_path, command):
        # N of the empty graph is 1; its log coefficient Q is 0
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, err = run_cli(capsys, command, "--graph", str(path), "--d", "3")
        assert (code, err) == (0, "")
        assert out.strip() == {"n-graph": "1", "q-graph": "0"}[command]

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 5 1\n4 oops 2\n")
        code, _, err = run_cli(capsys, "n-graph", "--graph", str(path), "--d", "5")
        assert code == 2
        assert "line 2" in err

    def test_q_graph_over_partition_guard_exit_2(self, capsys, tmp_path, monkeypatch):
        def forbidden(g, d):
            raise AssertionError("a block was counted")

        monkeypatch.setattr(qcalc, "labeled_count", forbidden)
        # 20 weight-2 stubs, each fitting d = 25 on its own
        path = tmp_path / "stubs.txt"
        path.write_text("".join(f"{k} {k + 1} 2\n" for k in range(2, 22)))
        code, out, err = run_cli(capsys, "q-graph", "--graph", str(path), "--d", "25")
        assert code == 2
        assert out == ""
        assert "set partition enumeration guarded" in err

    @pytest.mark.parametrize("command", ["n-graph", "q-graph"])
    def test_work_guard_exit_2(self, capsys, tmp_path, command):
        # one edge of length 10^7: work 10^7 + 1, just over the guard
        path = tmp_path / "long.txt"
        path.write_text("1 10000001 1\n")
        code, out, err = run_cli(capsys, command, "--graph", str(path), "--d", "5")
        assert code == 2
        assert out == ""
        assert f"guarded at work <= {cli.GRAPH_MAX_WORK}" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "n-graph", "--graph", str(tmp_path / "nope.txt"), "--d", "5"
        )
        assert code == 2


class TestQCommand:
    def test_routes_agree(self, capsys):
        _, out_t, _ = run_cli(capsys, "q", "--d", "6", "--delta", "2", "--route", "templates")
        _, out_l, _ = run_cli(capsys, "q", "--d", "6", "--delta", "2", "--route", "log")
        assert out_t == out_l

    def test_rational_value(self, capsys):
        code, out, _ = run_cli(capsys, "q", "--d", "4", "--delta", "2")
        assert code == 0
        assert out.strip() == "-279/2"


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_json_outcomes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["passed"] for entry in payload)

    def test_tampered_count_fails_oracle_criterion(self, capsys, monkeypatch):
        import longedge.acceptance as acceptance

        real_count = acceptance.labeled_count
        monkeypatch.setattr(
            acceptance, "labeled_count", lambda g, d: real_count(g, d) + 1
        )
        code, out, err = run_cli(capsys, "verify", "--level", "quick")
        assert code == 1
        assert "ordering-formula-vs-oracle" in out
        assert "FAILED" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("severi", "--delta", "1"),
        ("q", "--delta", "1"),
        ("n-graph", "--graph", "unused.txt"),
        ("q-graph", "--graph", "unused.txt"),
    ],
    ids=lambda argv: argv[0],
)
def test_degree_below_one_exit_2(capsys, argv):
    code, err = usage_error(capsys, *argv, "--d", "-5")
    assert code == 2
    assert "--d" in err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(["n-graph", "q-graph"]),
    graph_texts(),
    st.integers(1, 12),
    st.one_of(st.integers(-3, 5), st.integers(0, 10**12)),
)
def test_graph_file_exits_0_or_2(tmp_path_factory, command, text, d, k):
    path = tmp_path_factory.getbasetemp() / "graph.txt"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--graph", str(path), "--d", str(d), "--k", str(k)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)


def test_internal_error_exit_3(capsys, monkeypatch, tmp_path):
    def broken(g, d):
        raise RuntimeError("internal invariant violation: test")

    monkeypatch.setattr(cli, "n_graph", broken)
    path = tmp_path / "gex.txt"
    path.write_text(GEX_TEXT)
    code, out, err = run_cli(capsys, "n-graph", "--graph", str(path), "--d", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: internal invariant violation")


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from longedge.cli import main; sys.exit(main(sys.argv[1:]))",
             "severi", "--d", "4", "--delta", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "225"

    def test_commands_load_only_the_modules_they_run(self):
        """severi and templates never load the Q, polynomial, floor-diagram
        or acceptance modules, nor dataclasses or fractions."""
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from longedge.cli import main\n"
            "for argv in (['severi', '--d', '1', '--delta', '0'],\n"
            "             ['severi', '--d', '12', '--delta', '5'],\n"
            "             ['templates', '--delta', '3']):\n"
            "    assert main(argv) == 0\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["1", "36161763120"]
        loaded = set(json.loads(lines[-1]))
        assert "longedge.counting" in loaded
        unused = {
            "longedge.qcalc", "longedge.polynomials", "longedge.floor_diagrams",
            "longedge.acceptance", "dataclasses", "fractions",
        }
        assert not unused & loaded

    def test_no_float_representations(self, capsys):
        for argv in (
            ["severi", "--d", "5", "--delta", "2"],
            ["q", "--d", "5", "--delta", "2"],
            ["node-poly", "--delta", "1", "--json"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert "." not in out
