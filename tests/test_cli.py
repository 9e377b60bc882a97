"""Command-line interface: exit codes, reports, graphs, cumulant traces."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from homotopy_cumulants import cli
from homotopy_cumulants.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_chain_map_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "chain-map", "--degree", "8")
        assert code == 0
        report = json.loads(out)
        assert report["convention"] == "A"
        assert all(e["status"] == "pass" for e in report["entries"])

    def test_flag_form_of_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dga", "--degree", "4")
        assert code == 0
        assert json.loads(out)["entries"]

    def test_reports_are_deterministic_modulo_durations(self, capsys):
        def strip(text):
            report = json.loads(text)
            return [
                {k: v for k, v in entry.items() if k != "duration_ms"}
                for entry in report["entries"]
            ]
        _, first, _ = run(capsys, "verify", "all", "--n-max", "2", "--degree", "2")
        _, second, _ = run(capsys, "verify", "all", "--n-max", "2", "--degree", "2")
        assert strip(first) == strip(second)

    def test_entry_schema(self, capsys):
        _, out, _ = run(capsys, "verify", "cumulants", "--n-max", "2",
                        "--degree", "2")
        entry = json.loads(out)["entries"][0]
        assert set(entry) == {"check", "parameters", "status", "witness",
                              "duration_ms"}

    def test_convention_b_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "ainfty", "--n-max", "2",
                           "--degree", "2", "--sign-convention", "B")
        assert code == 1
        report = json.loads(out)
        assert report["convention"] == "B"
        assert any(e["status"] == "fail" for e in report["entries"])

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["ainfty", "cube", "formal"]), st.integers(2, 4),
           st.integers(1, 3))
    def test_convention_b_fails_every_family(self, family, n_max, degree):
        # A passes and B fails, each failure with its witness
        for convention, expected_code in (("A", 0), ("B", 1)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", family, "--n-max", str(n_max),
                             "--degree", str(degree),
                             "--sign-convention", convention])
            assert code == expected_code
            failed = [e for e in json.loads(out.getvalue())["entries"]
                      if e["status"] == "fail"]
            assert bool(failed) == (convention == "B")
            assert all(e["witness"] for e in failed)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "dga", "--degree", "2",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["entries"]

    def test_unwritable_out_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "dga", "--degree", "1",
                             "--out", "/nonexistent/x.json")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write /nonexistent/x.json")

    def test_unwritable_out_is_refused_before_running(self, capsys, monkeypatch):
        def run_suite(*args, **kwargs):
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setattr(cli, "run_suite", run_suite)
        code, out, err = run(capsys, "verify", "cube", "--n-max", "4",
                             "--degree", "3", "--out", "/nonexistent/x.json")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write /nonexistent/x.json")

    def test_usage_errors(self, capsys):
        assert run(capsys, "verify", "nonsense")[0] == 2
        assert run(capsys, "verify", "ainfty", "--n-max", "5")[0] == 2
        assert run(capsys, "verify", "cube", "--n-max", "7")[0] == 2
        assert run(capsys, "verify", "cumulants", "--n-max", "9")[0] == 2
        assert run(capsys, "verify", "all", "--n-max", "7")[0] == 2
        assert run(capsys, "verify", "dga", "--degree", "13")[0] == 2
        assert run(capsys, "verify", "dga", "--n-max", "0")[0] == 2


class TestGraph:
    def test_cube_three(self, capsys):
        code, out, _ = run(capsys, "graph", "cube", "3")
        assert code == 0
        assert out.count("--") == 4
        assert out.count(";") >= 8
        assert 'label="p2(a,bc)"' in out

    def test_cube_two(self, capsys):
        code, out, _ = run(capsys, "graph", "cube", "2")
        assert code == 0
        assert out.count("--") == 1

    def test_polytope_three(self, capsys):
        code, out, _ = run(capsys, "graph", "polytope", "3")
        assert code == 0
        assert out.count("--") == 6

    def test_unwritable_out_is_refused_before_rendering(self, capsys, monkeypatch):
        def graph_to_dot(n):
            raise AssertionError("the graph was rendered before --out was checked")

        monkeypatch.setattr(cli, "graph_to_dot", graph_to_dot)
        code, out, err = run(capsys, "graph", "cube", "3",
                             "--out", "/nonexistent/x")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write /nonexistent/x")

    def test_range_errors(self, capsys):
        assert run(capsys, "graph", "cube", "9")[0] == 2
        assert run(capsys, "graph", "polytope", "5")[0] == 2
        assert run(capsys, "graph", "cube", "3", "--format", "svg")[0] == 2


class TestCumulant:
    def test_symbolic_formula(self, capsys):
        code, out, _ = run(capsys, "cumulant", "3")
        assert code == 0
        assert out.strip() == (
            "K3(a,b,c) = p(abc) - p(a)p(bc) - p(ab)p(c) + p(a)p(b)p(c)")

    def test_evaluation_trace(self, capsys):
        code, out, _ = run(capsys, "cumulant", "2", "--inputs", "t ; dt")
        assert code == 0
        assert out.strip().endswith("total: (0, 0; 1/2 dt)")
        assert "+ p(ab)" in out and "- p(a)p(b)" in out

    def test_constant_input(self, capsys):
        code, out, _ = run(capsys, "cumulant", "1", "--inputs", "1")
        assert code == 0
        assert "total: (1, 1; 0 dt)" in out

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "cumulant", "2", "--inputs", "t ; @dt")
        assert code == 2
        assert "position 4" in err

    def test_zero_denominator_is_refused(self, capsys):
        code, _, err = run(capsys, "cumulant", "1", "--inputs", "1/0")
        assert code == 2
        assert "zero denominator (at position 2)" in err

    def test_huge_exponent_is_refused(self, capsys):
        code, _, err = run(capsys, "cumulant", "1", "--inputs", "t^300000")
        assert code == 2
        assert "exponent exceeds 64 (at position 2)" in err

    def test_nested_powers_are_refused(self, capsys):
        code, _, err = run(capsys, "cumulant", "1", "--inputs", "((2^64)^64)^64")
        assert code == 2
        assert "coefficient longer than 100 digits" in err

    def test_arity_mismatch(self, capsys):
        assert run(capsys, "cumulant", "3", "--inputs", "t ; dt")[0] == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "k2.txt"
        code, out, _ = run(capsys, "cumulant", "2", "--inputs", "t ; dt",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().endswith("total: (0, 0; 1/2 dt)\n")

    def test_unwritable_out_is_refused_before_evaluation(self, capsys, monkeypatch):
        def cumulant_terms(ctx, forms):
            raise AssertionError("the cumulant ran before --out was checked")

        monkeypatch.setattr(cli, "cumulant_terms", cumulant_terms)
        code, out, err = run(capsys, "cumulant", "2", "--inputs", "t ; dt",
                             "--out", "/nonexistent/x")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write /nonexistent/x")
        # the inputs are still checked first
        code, _, err = run(capsys, "cumulant", "3", "--inputs", "t ; dt",
                           "--out", "/nonexistent/x")
        assert code == 2 and err.startswith("error: expected 3 forms")

    def test_range(self, capsys):
        assert run(capsys, "cumulant", "7")[0] == 2
        assert run(capsys, "cumulant", "0")[0] == 2
