"""Command-line interface: exit codes, reports, graphs, cumulant traces."""

import contextlib
import errno
import io
import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopy_cumulants import (
    cli,
    cube_complex,
    hom_complex,
    interval_model,
    suites,
)
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

    def test_repeated_runs_in_one_process_agree(self, tmp_path):
        """No state leaks from one run into the next: the second `verify
        all` in a process writes the first one's report, bar durations."""
        def report(path):
            code = main(["verify", "all", "--n-max", "4", "--degree", "2",
                         "--out", str(path)])
            entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
            for entry in entries:
                assert type(entry.pop("duration_ms")) is int
            return code, entries

        first = report(tmp_path / "first.json")
        second = report(tmp_path / "second.json")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_entry_schema(self, capsys):
        _, out, _ = run(capsys, "verify", "cumulants", "--n-max", "2",
                        "--degree", "2")
        entry = json.loads(out)["entries"][0]
        assert set(entry) == {"check", "parameters", "status", "witness",
                              "duration_ms"}

    def test_duration_covers_the_check_body(self, monkeypatch):
        euler_characteristic = cube_complex.euler_characteristic

        def slow(n):
            time.sleep(0.05)
            return euler_characteristic(n)

        monkeypatch.setattr(cube_complex, "euler_characteristic", slow)
        entries = suites.run_suite("cube", 2, 1)
        slowed = [e for e in entries if e.check == "euler characteristic g2 = 1"]
        assert len(slowed) == 1 and slowed[0].status
        assert slowed[0].duration_ms >= 50
        for entry in entries:
            assert type(entry.duration_ms) is int and entry.duration_ms >= 0
            assert all(type(v) is str for v in entry.parameters.values())

    def test_entry_accepts_three_kinds_of_outcome(self):
        assert suites._entry("bool", {}, lambda: True).status is True
        assert suites._entry("pair", {}, lambda: (False, "x")).witness == "x"
        assert suites._entry("pair", {}, lambda: (True, None)).status is True
        verdict = hom_complex.maps_equal_on_truncation(
            hom_complex.iterated_integral_map(1),
            hom_complex.iterated_integral_map(1), suites.TruncationGrid(1))
        assert suites._entry("verdict", {}, lambda: verdict).status is True
        for outcome in (1, "pass", [True], (True,), (1, None), (True, 3),
                        (True, None, None), suites.Cochain(1, 2, 3)):
            with pytest.raises(TypeError, match="'odd check'"):
                suites._entry("odd check", {}, lambda: outcome)

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

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [("verify", "dga", "--degree", "1"),
                                      ("cumulant", "3"),
                                      ("cumulant", "2", "--inputs", "t ; dt"),
                                      ("graph", "cube", "3")])
    def test_a_full_out_file_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}"]

    @pytest.mark.parametrize("argv", [("verify", "dga", "--degree", "1"),
                                      ("cumulant", "3"),
                                      ("graph", "cube", "3")])
    def test_a_full_standard_output_is_a_usage_error(self, capsys,
                                                     monkeypatch, argv):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("sys.stdout", Full())
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "error: cannot write standard output: "
            f"{os.strerror(errno.ENOSPC)}"]

    def test_a_closed_standard_output_is_a_usage_error(self, capsys,
                                                       monkeypatch):
        monkeypatch.setattr("sys.stdout", None)
        assert main(["cumulant", "3"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot write standard output: it is closed"]

    def test_usage_errors(self, capsys):
        assert run(capsys, "verify", "nonsense")[0] == 2
        assert run(capsys, "verify", "ainfty", "--n-max", "5")[0] == 2
        assert run(capsys, "verify", "cube", "--n-max", "7")[0] == 2
        assert run(capsys, "verify", "cumulants", "--n-max", "9")[0] == 2
        assert run(capsys, "verify", "all", "--n-max", "7")[0] == 2
        assert run(capsys, "verify", "dga", "--degree", "13")[0] == 2
        assert run(capsys, "verify", "dga", "--n-max", "0")[0] == 2

    def test_cumulant_exponent_fits_the_grid_budget(self, monkeypatch):
        """The K_n check's grid exponent is the largest e <= min(degree, 4)
        with (2e + 2)^n <= 2^21 tuples: the old caps {7: 3, 8: 2} at every
        n <= 8, and a bound past the CLI's n_max, where the library
        still runs the suite.  No grid is swept."""
        exponent = suites._cumulant_exponent
        assert [exponent(n, 12) for n in range(1, 12)] == [
            4, 4, 4, 4, 4, 4, 3, 2, 1, 1, 0]
        assert all(exponent(n, degree) == min(degree, {7: 3, 8: 2}.get(n, 4))
                   for n in range(1, 9) for degree in range(13))
        assert [exponent(n, 0) for n in (9, 10, 11)] == [0, 0, 0]
        # no grid fits past n = 21: refused before any check runs
        monkeypatch.setattr(suites, "_entry", None)
        with pytest.raises(ValueError, match="at n=22 fits 2097152 tuples"):
            suites.run_cumulants_suite(22, 4)


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

    def test_deeply_nested_parentheses_are_refused(self, capsys):
        code, out, err = run(capsys, "cumulant", "1", "--inputs",
                             "(" * 300 + "t" + ")" * 300)
        assert code == 2 and out == ""
        assert err == ("error: malformed form: parentheses nested deeper "
                       "than 64 (at position 64)\n")
        assert "Traceback" not in err

    def test_arity_mismatch(self, capsys):
        assert run(capsys, "cumulant", "3", "--inputs", "t ; dt")[0] == 2

    def test_miscounted_inputs_are_refused_before_parsing(self, capsys,
                                                          monkeypatch):
        parsed = []
        monkeypatch.setattr(interval_model, "parse_polyform",
                            lambda text, offset=0: parsed.append(text))
        code, out, err = run(capsys, "cumulant", "2", "--inputs",
                             ";".join(["t"] * 100_001))
        assert (code, out) == (2, "")
        assert err == "error: expected 2 forms, got 100001\n"
        # a tuple both miscounted and malformed reports its count
        code, _, err = run(capsys, "cumulant", "3", "--inputs", "t ; @dt")
        assert code == 2 and err == "error: expected 3 forms, got 2\n"
        assert parsed == []

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
