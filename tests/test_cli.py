import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import boostcav
from boostcav import cavity, cli
from boostcav.cli import ROW_BUDGET, main
from boostcav.regsum import FitError

M0 = -math.pi / 24.0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStatic:
    def test_three_regularizers_agree(self, capsys):
        code, out, _ = run(capsys, "static", "--L", "1")
        assert code == 0
        assert out.count("-0.13089969") >= 3
        assert "hbar = c = 1" in out

    def test_plates(self, capsys):
        code, out, _ = run(capsys, "static", "--plates", "--a", "1")
        assert code == 0
        assert f"{-math.pi**2 / 720.0:.12g}" in out
        assert f"{math.pi**2 / 240.0:.12g}" in out

    def test_negative_length_usage_error(self, capsys):
        code, _, err = run(capsys, "static", "--L", "-1")
        assert code == 2
        assert "usage" in err.lower() or "positive" in err.lower()

    def test_missing_everything(self, capsys):
        code, _, _ = run(capsys, "static")
        assert code == 2

    # the separation is --a alone: --L is the 1D cavity's length, not a plate separation
    def test_plates_ignore_L(self, capsys):
        code, out, err = run(capsys, "static", "--plates", "--L", "2")
        assert code == 2 and not out
        assert err.startswith("usage error: --plates requires a positive --a (plate separation)")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "static", "--L", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["units"] == "hbar = c = 1"
        assert len(payload["rows"]) == 3

    # energy or slope not finite and nonzero in float64: nan and inf fail the
    # length check, a**4 overflows at 1e100, 720 a**4 underflows to 0 at 1e-100
    # and the slope overflows to inf at 1e-80
    @pytest.mark.parametrize("a", ["nan", "inf", "1e100", "1e-100", "1e-80"])
    def test_plates_unrepresentable_separation_exits_2(self, capsys, a):
        code, out, err = run(capsys, "static", "--plates", "--a", a)
        assert code == 2 and not out
        assert err.startswith("usage error: plate separation a")
        assert repr(float(a)) in err

    @pytest.mark.parametrize("a", ["1e-70", "1e70"])
    def test_plates_extreme_separation_still_prints(self, capsys, a):
        code, out, _ = run(capsys, "static", "--plates", "--a", a)
        assert code == 0
        assert f"d(E/A)/da = {3.0 * math.pi**2 / (720.0 * float(a)**4):.12g}" in out


class TestBoost:
    def test_contracted_values(self, capsys):
        code, out, _ = run(capsys, "boost", "--scheme", "lorentz", "--L", "1", "--v", "0.6")
        assert code == 0
        assert "-0.278161849537" in out
        assert "-0.245436926062" in out

    def test_static_velocity(self, capsys):
        code, out, _ = run(capsys, "boost", "--scheme", "lorentz", "--L", "1", "--v", "0",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        by_route = {row["route"]: row for row in payload["rows"]}
        assert by_route["closed-form"]["P"] == 0.0
        for row in payload["rows"]:
            assert row["E"] == pytest.approx(M0, abs=1e-12)
            assert row["P"] == pytest.approx(0.0, abs=1e-15)

    def test_comoving_prior_values(self, capsys):
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-comoving", "--L", "1",
                           "--v", "0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["E"] == pytest.approx(1.02 * M0, rel=1e-9)
        assert payload["rows"][0]["P"] == pytest.approx(0.2 * M0, rel=1e-9)

    def test_galilean_validity_flag(self, capsys):
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-comoving", "--L", "1",
                           "--v", "0.45")
        assert code == 0
        assert "O(v^2)" in out

    def test_lab_prior_prints_discrepancy_report(self, capsys):
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-lab", "--L", "1", "--v", "0.2")
        assert code == 0
        assert "discrepancy report" in out

    def test_superluminal_rejected(self, capsys):
        code, _, _ = run(capsys, "boost", "--scheme", "lorentz", "--L", "1", "--v", "1.0")
        assert code == 2


class TestSweep:
    def test_csv_shape_and_header(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1",
                           "--v", "0:0.9:0.1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# units: hbar = c = 1"
        assert lines[1] == "v,E,P,shell_residual,E_point_particle,P_point_particle,route"
        assert len(lines) == 12  # comment + header + 10 rows
        energies = [float(line.split(",")[1]) for line in lines[2:]]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1", "--v", "0:0.9:0.1")
        _, second, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1", "--v", "0:0.9:0.1")
        assert first == second

    def test_lab_prior_closed_form_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "galileo-lab", "--L", "1",
                           "--v", "0:0.3:0.05")
        assert code == 0
        for line in out.strip().split("\n")[2:]:
            fields = line.split(",")
            v, energy = float(fields[0]), float(fields[1])
            assert energy == pytest.approx((1 + 2 * v**2 + v**4) * M0, rel=1e-10)

    def test_json_round_trip_identity(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1",
                           "--v", "0:0.4:0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_format_validation(self, capsys):
        code, _, err = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1",
                           "--v", "0:0.2:0.1", "--format", "text")
        assert code == 2
        assert "format" in err

    def test_empty_grid_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1", "--v", "0.5:0.1:0.1")
        assert code == 2

    def test_malformed_grid(self, capsys):
        code, _, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1", "--v", "a:b:c")
        assert code == 2

    def test_unknown_scheme_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--scheme", "newton", "--L", "1", "--v", "0:0.2:0.1")
        assert code == 2

    def test_csv_warnings_go_to_stderr(self, capsys):
        # the 0.6 row is dropped and the grid flagged non-relativistic; CSV
        # says so on stderr, as JSON does in meta.warnings, and its stdout
        # keeps the bytes it had before the warnings were written
        argv = ("sweep", "--scheme", "galileo-lab", "--v", "0:0.6:0.1")
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7110b54c4b29c6dc398ecb9f0912a276ce549cd49fccb9c962f4056b472ed149")
        _, json_out, json_err = run(capsys, *argv, "--format", "json")
        warnings = json.loads(json_out)["meta"]["warnings"]
        assert len(warnings) == 2 and not json_err
        assert err == "".join(f"warning: {w}\n" for w in warnings)


class TestRect2D:
    def test_rest_rectangle(self, capsys):
        code, out, _ = run(capsys, "rect2d", "--a", "1", "--b", "1", "--v", "0",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["method"] == "zeta"
        per_mode = next(r for r in payload["rows"] if r.get("route") == "per-mode")
        assert per_mode["P_s"] == 0.0
        e_m = payload["meta"]["E_m"]
        budget = 2 * (per_mode["E_s_error"] + payload["meta"]["E_m_error"])
        assert abs(per_mode["E_s"] - e_m) <= max(budget, 1e-12)

    def test_solver_branches(self, capsys):
        code, out, _ = run(capsys, "rect2d", "--a", "1", "--b", "1", "--v", "0.6",
                           "--solve-subtraction", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        branches = [r for r in payload["rows"] if "branch" in r]
        assert len(branches) == 2
        assert all(b["max_rel_residual"] <= 1e-10 for b in branches)

    def test_text_report_mentions_static_limit(self, capsys):
        code, out, _ = run(capsys, "rect2d", "--a", "1", "--b", "1", "--v", "0.3")
        assert code == 0
        assert "static limit" in out
        assert "finite parts by: zeta (Chowla-Selberg)\nfinite parts:\n" in out

    def test_missing_sides(self, capsys):
        code, _, _ = run(capsys, "rect2d", "--a", "1")
        assert code == 2

    @pytest.mark.parametrize("a", ["1e-200", "1e200"])
    def test_extreme_side_fails_fast(self, capsys, a):
        code, out, err = run(capsys, "rect2d", "--a", a, "--b", "1")
        assert code == 2
        assert not out
        assert f"usage error: rectangle a = {float(a):g}, b = 1:" in err

    def test_large_aspect_ratio(self, capsys):
        code, out, _ = run(capsys, "rect2d", "--a", "1", "--b", "1000", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["E_m"] < 0.0


class TestTinyLength:
    """A length whose (pi/L)^2 is not finite in float64 is a usage error naming L."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--scheme", "lorentz", "--L", "1e-320", "--v", "0:0.5:0.25"),
        ("sweep", "--scheme", "lorentz", "--L", "1e-160", "--v", "0:0.5:0.25"),
        ("sweep", "--scheme", "lorentz", "--L", "1e-320", "--v", "0:0.5:0.25",
         "--route", "per-mode"),
        ("sweep", "--scheme", "lorentz", "--L", "1e-320", "--v", "0:0.5:0.25",
         "--method", "cutoff"),
        ("boost", "--scheme", "lorentz", "--L", "1e-320", "--v", "0.3"),
        ("boost", "--scheme", "galileo-lab", "--L", "1e-160", "--v", "0.3", "--method", "cutoff"),
        ("modes", "--scheme", "lorentz", "--L", "1e-320"),
        ("static", "--L", "1e-320"),
    ], ids=["sweep", "sweep-1e-160", "sweep-per-mode", "sweep-cutoff", "boost",
            "boost-cutoff-1e-160", "modes", "static"])
    def test_exits_2_naming_L(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out
        length = float(argv[argv.index("--L") + 1])
        assert f"usage error: proper_length L = {length!r} is too small" in err

    def test_representable_length_still_runs(self, capsys):
        code, out, _ = run(capsys, "static", "--L", "1e-150", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["m0"] == pytest.approx(M0 / 1e-150)


class TestExtremeLength:
    """Far from L = 1 the per-mode route still gives the closed form: only m0 carries L."""

    @pytest.mark.parametrize("argv", [
        ("boost", "--scheme", "lorentz", "--L", "1e-10", "--v", "0.3"),
        ("boost", "--scheme", "lorentz", "--L", "1e-150", "--v", "0.3"),
        ("sweep", "--scheme", "lorentz", "--L", "1e150", "--v", "0:0.5:0.25", "--route", "per-mode"),
    ], ids=["boost-1e-10", "boost-1e-150", "sweep-per-mode-1e150"])
    def test_per_mode_route_is_the_closed_form(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and not err
        payload = json.loads(out)
        m0 = M0 / float(argv[argv.index("--L") + 1])
        rows = [row for row in payload["rows"] if row["route"] == "per-mode"]
        assert rows
        for row in rows:
            v = row.get("v", payload["meta"].get("v"))
            assert row["E"] == pytest.approx(m0 * (1 + v * v) / (1 - v * v), rel=1e-8)
            assert row["P"] == pytest.approx(m0 * 2 * v / (1 - v * v), rel=1e-8, abs=1e-8 * abs(m0))


class TestShellResidualUnderflow:
    """Past L ~ 1e154, m0^2 underflows float64 and E^2-P^2-m0^2 checks nothing: say so."""

    @staticmethod
    def _relative(warning):
        assert warning.startswith("m0^2 underflows float64 (to ")
        assert "so E^2-P^2-m0^2 is not representable" in warning
        return float(warning.split("(E/m0)^2-(P/m0)^2-1 = ")[1].split()[0])

    @pytest.mark.parametrize("length", ["1e155", "1e300"])
    def test_sweep_json_and_csv(self, capsys, length):
        argv = ("sweep", "--scheme", "lorentz", "--L", length, "--v", "0:0.9:0.3",
                "--route", "per-mode")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and not err
        [warning] = json.loads(out)["meta"]["warnings"]
        assert abs(self._relative(warning)) <= 1e-13
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == f"warning: {warning}\n"

    def test_boost_text_and_json(self, capsys):
        code, out, err = run(capsys, "boost", "--scheme", "lorentz", "--L", "1e300", "--v", "0.3")
        assert code == 0 and not err
        notes = [line[len("note: "):] for line in out.splitlines() if line.startswith("note: ")]
        assert len(notes) == 2
        assert notes[0].endswith("(closed-form, v = 0.3)")
        assert notes[1].endswith("(per-mode, v = 0.3)")
        assert all(abs(self._relative(note)) <= 1e-14 for note in notes)
        code, out, _ = run(capsys, "boost", "--scheme", "lorentz", "--L", "1e300", "--v", "0.3",
                           "--format", "json")
        assert code == 0 and json.loads(out)["meta"]["warnings"] == notes

    def test_galilean_relative_residual_is_the_law(self, capsys):
        # galileo-lab's closed forms leave the shell: (1+2v^2+v^4)^2 - (v+v^3)^2 - 1
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-lab", "--L", "1e300", "--v", "0.3")
        assert code == 0
        closed = next(line for line in out.splitlines() if line.endswith("(closed-form, v = 0.3)"))
        v = 0.3
        law = (1 + 2 * v**2 + v**4) ** 2 - (v + v**3) ** 2 - 1
        assert self._relative(closed[len("note: "):]) == pytest.approx(law, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("boost", "--scheme", "lorentz", "--L", "1e150", "--v", "0.3"),
        ("sweep", "--scheme", "lorentz", "--L", "1e150", "--v", "0:0.5:0.25"),
    ])
    def test_representable_residual_is_silent(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and not err and "note:" not in out


class TestPrintRule:
    """Every printed value has 12 significant digits, and negative zero prints as 0."""

    def test_fmt_normalizes_negative_zero(self):
        assert cavity._fmt(-0.0) == "0"

    def test_no_negative_zero_in_the_lab_report(self, capsys):
        # the title's v and the report's P/m0 coefficients are -0.0 here
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-lab", "--L", "1", "--v=-0")
        assert code == 0
        assert re.search(r"-0(?![.\d])", out) is None

    def test_lab_report_title(self, capsys):
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-lab", "--L", "1",
                           "--v", "0.123456789")
        assert code == 0
        assert "discrepancy report: galileo-lab routes at v = 0.123456789\n" in out

    def test_validity_note(self, capsys):
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-comoving", "--L", "1",
                           "--v", "0.312345678")
        assert code == 0
        assert "(|v| = 0.312345678 > 0.3)\n" in out

    @pytest.mark.parametrize("argv, title", [
        (("--a", "1.23456789", "--b", "2", "--v", "0.5", "--solve-subtraction"),
         "a=1.23456789, b=2"),
        # a rect2d-aspect geometry whose sides have 7 significant digits
        (("--a", "0.877571", "--b", "4.387855", "--v", "0.486169"), "a=0.877571, b=4.387855"),
    ])
    def test_static_limit_title(self, capsys, argv, title):
        code, out, _ = run(capsys, "rect2d", *argv)
        assert code == 0
        assert f"discrepancy report: static limit of the grouped 2D route, {title}\n" in out

    def test_shell_warning_velocity(self, capsys):
        code, _, err = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1e160", "--v=-0")
        assert code == 0
        assert err.startswith("warning: m0^2 underflows float64") and err.endswith("v = 0)\n")


class TestVerify:
    def test_single_module_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "modes")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_unknown_module(self, capsys):
        code, _, _ = run(capsys, "verify", "--only", "nonsense")
        assert code == 2

    def test_momentum_sign_injection_fails_named_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "stress", "--inject-t01-sign-flip")
        assert code == 1
        assert "[FAIL] stress: momentum law" in out
        assert "failures:" in out
        failure_line = next(line for line in out.split("\n") if line.startswith("failures:"))
        failures = json.loads(failure_line.split("failures:", 1)[1])
        assert any("momentum law" in f["name"] for f in failures)

    def test_prefactor_injection_fails_static_limit(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "stress", "--inject-prefactor", "doubled")
        assert code == 1
        assert "[FAIL] stress: static limit" in out

    def test_injection_reaches_the_whole_suite(self, capsys):
        # without --only the fault wraps every group, observables' per-mode route included
        code, out, _ = run(capsys, "verify", "--inject-prefactor", "doubled")
        assert code == 1
        failure_line = next(line for line in out.split("\n") if line.startswith("failures:"))
        failures = json.loads(failure_line.split("failures:", 1)[1])
        assert "observables: route agreement" in {f["name"] for f in failures}


class TestModesDump:
    def test_table_contents(self, capsys):
        code, out, _ = run(capsys, "modes", "--scheme", "lorentz", "--L", "1", "--v", "0.6",
                           "--n-max", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].startswith("n,omega_comoving")
        assert len(lines) == 6
        first = lines[2].split(",")
        assert float(first[1]) == pytest.approx(math.pi)          # proper frequency
        assert float(first[2]) == pytest.approx(1.25 * math.pi)   # lab phase frequency
        assert float(first[3]) == pytest.approx(math.sqrt(2.5))   # normalization

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "modes", "--scheme", "galileo-lab", "--L", "2", "--v", "0.2")
        _, b, _ = run(capsys, "modes", "--scheme", "galileo-lab", "--L", "2", "--v", "0.2")
        assert a == b

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "modes", "--scheme", "lorentz", "--L", "1", "--v", "0.3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_exits_2(self, capsys, t):
        code, out, err = run(capsys, "modes", "--scheme", "lorentz", "--v", "0.5", f"--t={t}")
        assert code == 2 and not out
        assert f"usage error: --t must be finite, got {float(t)!r}" in err

    @pytest.mark.parametrize("argv", [
        ("--t", "1e300", "--n-max", "2"),
        ("--t", "1e15", "--n-max", "5"),    # |phase| of mode 5 = 5 pi 1e15 > 2^52 pi
        ("--v", "0.9", "--t", "1e308"),     # the phase's two terms overflow to inf - inf
        ("--L", "1e-150", "--t", "1"),
    ])
    def test_time_past_the_phase_precision_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "modes", "--scheme", "lorentz", *argv)
        assert code == 2 and not out
        t = float(argv[argv.index("--t") + 1])
        assert f"usage error: --t {t!r} leaves no correct digit in the phase of mode n = " in err
        assert "nan" not in err

    def test_time_within_the_phase_precision_runs(self, capsys):
        code, out, _ = run(capsys, "modes", "--scheme", "lorentz", "--t", "1e15", "--n-max", "4")
        assert code == 0 and out.count("\n") == 6


class TestModesRowBudget:
    """--n-max is bounded by a stated row budget: past it, exit 2 before any work."""

    def test_oversized_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "modes", "--scheme", "lorentz", "--n-max", "100000000")
        assert time.perf_counter() - start < 5.0  # a 1e8-row table would need gigabytes
        assert code == 2 and not out
        assert (f"usage error: --n-max 100000000 is over the row budget of {ROW_BUDGET}"
                in err)

    def test_one_past_the_budget_fails(self, capsys):
        code, _, err = run(capsys, "modes", "--scheme", "lorentz",
                           "--n-max", str(ROW_BUDGET + 1))
        assert code == 2 and "row budget" in err

    def test_at_the_budget_runs(self, capsys):
        code, out, _ = run(capsys, "modes", "--scheme", "lorentz", "--n-max", str(ROW_BUDGET))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 + ROW_BUDGET
        assert lines[-1].startswith(f"{ROW_BUDGET},")


class TestGridSpec:
    """A velocity grid is finite and within the row budget, or exit 2 before any work."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--scheme", "lorentz", "--v=0:0.9:1e-7"),
        ("sweep", "--scheme", "lorentz", "--route", "per-mode", "--v=0:0.9:1e-7"),
        ("rect2d", "--a", "1", "--b", "1", "--shell-grid", "0:0.99:1e-7"),
        ("rect2d", "--a", "1", "--b", "1", "--solve-subtraction", "--shell-grid", "0:0.99:1e-7"),
        ("sweep", "--scheme", "lorentz", "--v=-0.5:0.5:5e-324"),  # the point count overflows
        ("sweep", "--scheme", "lorentz", "--v=-1e308:1e308:1"),   # so does stop - start
    ], ids=lambda a: " ".join(a))
    def test_over_the_budget_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0  # a 9e6-row sweep ran past 20 s
        assert code == 2 and not out
        assert f"usage error: grid spec {argv[-1].split('=')[-1]!r} has " in err
        assert f"points, over the row budget of {ROW_BUDGET}\n" in err

    @pytest.mark.parametrize("spec", ["0:inf:0.1", "0:nan:0.1", "0:0.5:inf", "-inf:0.5:0.1",
                                      "0:0.5:nan"])
    @pytest.mark.parametrize("flag", ["--v", "--shell-grid"])
    def test_non_finite_spec_names_itself(self, capsys, flag, spec):
        command = (("sweep", "--scheme", "lorentz") if flag == "--v"
                   else ("rect2d", "--a", "1", "--b", "2"))
        code, out, err = run(capsys, *command, f"{flag}={spec}")
        assert code == 2 and not out
        assert (f"usage error: grid spec {spec!r}: start, stop and step must be finite\n"
                in err)

    @pytest.mark.parametrize("flag", ["--v", "--shell-grid"])
    def test_downward_overflowing_span_produces_no_points(self, capsys, flag):
        # stop - start overflows to -inf, so the point count would be -inf
        command = (("sweep", "--scheme", "lorentz") if flag == "--v"
                   else ("rect2d", "--a", "1", "--b", "2"))
        code, out, err = run(capsys, *command, f"{flag}=1e308:-1e308:1")
        assert code == 2 and not out
        assert "usage error: grid spec '1e308:-1e308:1' produces no points\n" in err

    @pytest.mark.parametrize("command, flag", [
        (("sweep", "--scheme", "lorentz"), "--v"),
        (("rect2d", "--a", "1", "--b", "1"), "--shell-grid"),
    ])
    @pytest.mark.parametrize("spec", ["0.9999999999999:0.9999999999999:0.1",
                                      "-0.9999999999999:-0.9999999999999:1"])
    def test_point_rounded_to_light_speed_names_the_spec(self, capsys, command, flag, spec):
        # grid points keep 12 significant digits, so 0.9999999999999 becomes 1.0, a
        # velocity the spec never reaches
        code, out, err = run(capsys, *command, f"{flag}={spec}")
        assert code == 2 and not out
        assert (f"usage error: grid spec {spec!r} rounds a point to |v| = 1 at 12 "
                f"significant digits\n") in err

    def test_grid_reaching_light_speed_keeps_its_message(self, capsys):
        code, out, err = run(capsys, "sweep", "--scheme", "lorentz", "--v=0.5:1.5:0.5")
        assert code == 2 and not out
        assert "velocity must satisfy |v| < 1, got 1.0" in err

    def test_at_the_budget_runs(self, capsys):
        spec = "-0.4999:0.5:0.0001"
        code, out, _ = run(capsys, "sweep", "--scheme", "lorentz", f"--v={spec}")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + ROW_BUDGET
        code, _, err = run(capsys, "sweep", "--scheme", "lorentz", "--v=-0.5:0.5:0.0001")
        assert code == 2 and f"has {ROW_BUDGET + 1} points" in err


class TestConfigFile:
    def test_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = lorentz\nL = 1\nv = 0:0.2:0.1\n# comment line\n")
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 3

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = lorentz\nL = 1\nv = 0.2\n")
        code, out, _ = run(capsys, "boost", "--config", str(cfg), "--v", "0.6",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["v"] == 0.6

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = lorentz\nwheels = 4\n")
        code, out, err = run(capsys, "boost", "--config", str(cfg), "--v", "0.1")
        assert code == 2 and not out
        assert f"usage error: {cfg}:2: unknown key 'wheels' for boostcav boost" in err
        assert "run `boostcav boost --help`" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "boost", "--config", "/nonexistent.cfg", "--v", "0.1")
        assert code == 2

    # every key of each command; output "-" is stdout
    EVERY_KEY = {
        "static": {"L": "1.3", "a": "2", "plates": "false", "format": "json", "output": "-"},
        "boost": {"scheme": "galileo-lab", "L": "0.8", "v": "-0.25", "method": "abel-plana",
                  "format": "text", "output": "-"},
        "sweep": {"scheme": "lorentz", "L": "1.7", "v": "0:0.4:0.2", "route": "per-mode",
                  "method": "cutoff", "format": "json", "output": "-"},
        "rect2d": {"a": "1", "b": "2", "v": "0.4", "shell-grid": "0.2:0.6:0.2",
                   "solve-subtraction": "true", "format": "text", "output": "-"},
        "verify": {"only": "stress", "inject-t01-sign-flip": "true",
                   "inject-prefactor": "lab-phase", "output": "-"},
        "modes": {"scheme": "galileo-comoving", "L": "2", "v": "0.3", "n-max": "5", "t": "0.7",
                  "format": "json", "output": "-"},
    }

    @pytest.mark.parametrize("command", list(EVERY_KEY))
    def test_file_reads_as_its_flags(self, capsys, tmp_path, command):
        keys = self.EVERY_KEY[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        flags = [token for key, value in keys.items() for token in (f"--{key}", value)]
        from_flags = run(capsys, command, *flags)
        assert from_flags[1]
        assert run(capsys, command, "--config", str(cfg)) == from_flags

    def test_switches_take_a_boolean(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("plates = true\na = 1\n")
        code, out, _ = run(capsys, "static", "--config", str(cfg))
        assert code == 0 and "plate separation a = 1" in out
        cfg.write_text("a = 1\nb = 1\nv = 0.6\nsolve-subtraction = false\nformat = json\n")
        code, out, _ = run(capsys, "rect2d", "--config", str(cfg))
        assert code == 0 and "branch" not in out
        code, out, _ = run(capsys, "rect2d", "--config", str(cfg), "--solve-subtraction")
        assert code == 0 and len([r for r in json.loads(out)["rows"] if "branch" in r]) == 2

    @pytest.mark.parametrize("command,line,key", [
        ("boost", "L = abc", "--L"),
        ("static", "plates = maybe", "--plates"),
        ("modes", "n-max = 2.5", "--n-max"),
        ("boost", "wheels = 4", "--wheels"),
        ("boost", "sch = galileo-lab", "--sch"),
        ("sweep", "format = text", "--format"),
        ("verify", "format = json", "--format"),
    ])
    def test_bad_line_exits_2_naming_the_key(self, capsys, tmp_path, command, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scheme = lorentz\n{line}\n" if command != "verify" else f"{line}\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2 and not out
        assert key in err

    def test_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme lorentz\n")
        code, _, err = run(capsys, "boost", "--config", str(cfg), "--v", "0.1")
        assert code == 2
        assert f"usage error: {cfg}:1: expected 'key = value'" in err
        assert "run `boostcav boost --help`" in err

    @pytest.mark.parametrize("line,key", [("config = other.cfg", "config"), ("help = 1", "help")])
    def test_no_key_outside_the_command_flags(self, capsys, tmp_path, line, key):
        # config files do not nest, and --help is no key: each is refused with its line
        (tmp_path / "other.cfg").write_text("L = 2\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        code, out, err = run(capsys, "static", "--L", "1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"usage error: {cfg}:1: unknown key {key!r} for boostcav static "
                       f"(no flag --{key})\nrun `boostcav static --help` for accepted flags\n")

    def test_flag_before_config_also_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = lorentz\nv = 0.2\nformat = json\n")
        code, out, _ = run(capsys, "boost", "--v", "0.6", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["meta"]["v"] == 0.6


class TestFormat:
    """Each command accepts only its own formats; verify has no --format."""

    def test_verify_rejects_format(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "modes", "--format", "json")
        assert code == 2 and not out
        assert "--format" in err

    @pytest.mark.parametrize("argv,default", [
        (("static", "--L", "1"), "text"),
        (("boost", "--scheme", "lorentz", "--v", "0.3"), "text"),
        (("sweep", "--scheme", "lorentz", "--v", "0.3"), "csv"),
        (("modes", "--scheme", "lorentz"), "csv"),
        (("rect2d", "--a", "1", "--b", "2"), "text"),
    ])
    def test_first_choice_is_the_default(self, capsys, argv, default):
        assert run(capsys, *argv) == run(capsys, *argv, "--format", default)

    # a request renders only its own format: JSON never builds the text-only reports
    def test_json_builds_no_text(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a text report was built")

        monkeypatch.setattr(cli, "static_limit_report", refuse)
        monkeypatch.setattr(cli, "lab_prior_discrepancy_report", refuse)
        rect2d = ("rect2d", "--a", "1", "--b", "2")
        assert run(capsys, *rect2d, "--format", "json")[0] == 0
        assert run(capsys, "boost", "--scheme", "galileo-lab", "--v", "0.3", "--format", "json")[0] == 0
        assert run(capsys, *rect2d)[0] == 1  # the text request does reach the report


class TestStrictJson:
    """--format json is RFC 8259 JSON: a non-finite number is written as a string."""

    @staticmethod
    def _reject(token):
        raise ValueError(f"{token} is not a JSON number")

    def test_overflowed_residual_is_the_string_inf(self, capsys):
        code, out, _ = run(capsys, "rect2d", "--a", "1e-150", "--b", "1e-150",
                           "--shell-grid", "0.999999999999", "--format", "json")
        assert code == 0
        [probe] = [row for row in json.loads(out, parse_constant=self._reject)["rows"]
                   if "predicted" in row]
        assert probe["residual"] == probe["predicted"] == "inf"


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1",
                           "--v", "0:0.2:0.1", "--output", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("# units")

    # every command in each of its formats, --plates included; the galileo-lab
    # sweep drops a point past |v| = 0.5 and warns on stderr with CSV
    ONE_PATH = [
        (*argv, "--format", fmt) if fmt else argv
        for argv, formats in (
            (("static", "--L", "1"), ("text", "json")),
            (("static", "--plates", "--a", "1"), ("text", "json")),
            (("boost", "--scheme", "galileo-lab", "--v", "0.3"), ("text", "json")),
            (("sweep", "--scheme", "galileo-lab", "--v", "0:0.6:0.3"), ("csv", "json")),
            (("rect2d", "--a", "1", "--b", "2", "--v", "0.3", "--solve-subtraction"),
             ("text", "json")),
            (("modes", "--scheme", "lorentz", "--n-max", "3"), ("csv", "json")),
            (("verify", "--only", "modes"), (None,)),
        )
        for fmt in formats
    ]

    @pytest.mark.parametrize("argv", ONE_PATH, ids="-".join)
    def test_file_gets_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv)
        target = tmp_path / "out"
        assert run(capsys, *argv, "--output", str(target)) == (code, "", err)
        assert target.read_bytes() == out.encode()
        if "json" in argv:
            assert json.loads(out)["meta"]["units"] == "hbar = c = 1"
        else:
            assert out.startswith("# units: hbar = c = 1\n")

    # exit 1 is kept for a failed check; an output path that cannot be opened
    # is a usage error, as an unreadable --config is
    def test_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "verify", "--only", "modes", "--output", str(target))
        assert code == 2 and not out
        assert f"usage error: cannot write output file {target}: [Errno 2]" in err

    def test_directory_as_output_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "rect2d", "--a", "1", "--b", "1", "--output", str(tmp_path))
        assert code == 2 and not out
        assert f"usage error: cannot write output file {tmp_path}: [Errno 21]" in err


# sha256 of stdout: per-mode sweeps shaped like the benchmark's (375, 106 and
# 27 rows) and cutoff boosts. Recorded once m0 was computed on the unit cavity,
# the per-mode coefficients were read off the real T00 and T01 densities of the
# first mode of the unit cavity at t = 0 by the scalar rule, and the cutoff fit
# became a float least squares refined twice against math.fsum residuals;
# solving through a Jacobi SVD instead of a QR kept every hash. The three cutoff
# entries were re-recorded when the 1D damped sums took their closed form: m0
# moved from 8.71e-11 to 8.67e-11 relative of -pi/(24 L), 0.11 of its stated
# error, and each moved value by the 12th digit. The five cutoff entries again when
# those sums took the rectangle's q/(1 - q)^2 kernel: m0 moved from 8.67e-11 to
# 8.17e-11 relative, 0.096 of its stated error, and only digits derived from it
# moved. The three sweeps again when the first mode's quadrature took one panel,
# the count its truncation bound needs: only shell_residual digits moved (79, 9 and
# 11 rows), and every coefficient stays within 5.1e-16 of the closed form. The
# lorentz and galileo-lab sweeps and the lorentz boost again when 1 - v^2 came to be
# formed as (1 - v)(1 + v): only shell_residual digits moved (55, 6 and 1 rows), each
# within 7 eps (E^2 + P^2) before and after. Any other change is a defect.
STDOUT_SHA256 = {
    ("sweep", "--scheme", "lorentz", "--L", "1.37", "--v=-0.93:0.94:0.005", "--route", "per-mode",
     "--method", "zeta", "--format", "csv"):
        "7a6a33aca2bd46030d87bf47d1f006a6863f6cb8d77cc57f272aceb3c1c6afb1",
    ("sweep", "--scheme", "galileo-comoving", "--L", "0.83", "--v=-0.48:0.5:0.0093", "--route",
     "per-mode", "--method", "cutoff", "--format", "json"):
        "d0bc39e868147d39e59e7b4951941f681095c0c064d252de9adb9fa8f1fc0a53",
    ("sweep", "--scheme", "galileo-lab", "--L", "2.2", "--v=-0.47:0.5:0.036", "--route", "per-mode",
     "--method", "abel-plana", "--format", "csv"):
        "44b58f5c94a2525fb55dd558545c0a4bc3b9924ef359d5a64ae93de99c0cdf50",
    # static's three regulators side by side, the cutoff m0 among them, text and json
    ("static", "--L", "1.3"):
        "c91998af9836abf73bfc2fc3a9ea61487906adf9b7bf2786334813507c5a45f6",
    ("static", "--L", "0.7", "--format", "json"):
        "84253cc527568274cf5aef71af36faa16dcb822d4659e0e3c05fd71c63724053",
    ("boost", "--scheme", "galileo-lab", "--L", "1.3", "--v=-0.27", "--method", "cutoff"):
        "a24e19fdd89e91f63da4fa098ee1d1465bca0390723c44021e47ae27061472e8",
    ("boost", "--scheme", "lorentz", "--L", "0.7", "--v=0.81", "--method", "cutoff",
     "--format", "json"):
        "ea5cc93a67f985b269ea21bc03a13bc71ddf499b59e03ff1533da4549ed56d59",
    # near light speed, where 1 - v^2 decides the digits: E = P = -1308996.87423, the
    # 40-digit law's (-1308996.874234901... and -1308996.874234895...)
    ("boost", "--scheme", "lorentz", "--L", "1", "--v", "0.9999999"):
        "c99cdb13d80749505572e357f9b5c9d74d98d9d8196c8b724240d1a2f4f18b6b",
    # rect2d text and json, each with a shell grid and the solver: the Chowla-Selberg
    # closed form in floats (libm and math.fsum). Re-recorded when the subtraction
    # branches' residual took its light-cone form; only the zero-transverse residual moved.
    # Again when the closed form became the cutoff rows' eps^0 term: every printed value
    # kept its 12 digits; the error columns, the static-limit gap below one ulp and one
    # subtraction residual (1.64e-16 -> 0) moved. Again when E_s_error and P_s_error came
    # to add the boost's own rounding: only those columns and the shell rows' errors moved.
    ("rect2d", "--a", "1.3", "--b", "4.1", "--v", "0.55", "--shell-grid", "0.05:0.8:0.15",
     "--solve-subtraction"):
        "a9bed9142205655dce0e2e8ba06e94ecd88dccddf8e01ca9ae865ca4b1954dd9",
    ("rect2d", "--a", "2.7", "--b", "0.9", "--v=-0.35", "--shell-grid", "0.1:0.7:0.3",
     "--solve-subtraction", "--format", "json"):
        "ae6a3ce96d6928c76d52bd8184de66a513cc0b1da489ff796cf09a4e3c0efe87",
    # the modes table of each scheme, csv and json, and the modes group of verify
    ("modes", "--scheme", "galileo-lab", "--L", "0.7", "--v", "0.3", "--n-max", "40", "--t", "1.3",
     "--format", "csv"):
        "2ebae8b79b6e9864596c24c9cfa7a20e819c4ff7da4a91e5cd08e006701131b8",
    ("modes", "--scheme", "galileo-lab", "--L", "0.7", "--v", "0.3", "--n-max", "40", "--t", "1.3",
     "--format", "json"):
        "9fc7102e398a23a95fb116aa16ff1d1da3b1eac7ef32b528a6c1e47930c75968",
    ("modes", "--scheme", "galileo-comoving", "--L", "0.7", "--v", "0.3", "--n-max", "40", "--t",
     "1.3", "--format", "csv"):
        "fd6901ca00afc1c7fedb4fedbb9d0835420bc9e8bf3ea507c3376cfd94740783",
    ("modes", "--scheme", "galileo-comoving", "--L", "0.7", "--v", "0.3", "--n-max", "40", "--t",
     "1.3", "--format", "json"):
        "5abf2b4cf999200378663315b6e748476bbcb4f59e9c85cbd247fae7ba1b8d13",
    ("modes", "--scheme", "lorentz", "--L", "0.7", "--v", "0.3", "--n-max", "40", "--t", "1.3",
     "--format", "csv"):
        "91969f3477d1637cc41f95c0f622ff5ff5fcfad8d80a303b401dc39936f21734",
    ("modes", "--scheme", "lorentz", "--L", "0.7", "--v", "0.3", "--n-max", "40", "--t", "1.3",
     "--format", "json"):
        "b7641c6754d9d242313f8908060a97a93cbd9ad4c71fd5add4c028a3e3d14b08",
    ("verify", "--only", "modes"):
        "373ad3c1eeb534283b298963936142521ffe522a73bcf007721ece0fd717a18b",
    # the boost law's edges: m0^2 underflowing, galileo-lab's two laws in json, E^2
    # overflowing on the per-mode route, and the rectangle at v = 1 - 2^-53
    ("boost", "--scheme", "lorentz", "--L", "1e300", "--v", "0.5"):
        "0250bb86dc0c633a5fa379b214970d47f1af46a8aa3afe6f129090be13f53abb",
    ("boost", "--scheme", "galileo-lab", "--L", "1", "--v", "0.2", "--format", "json"):
        "fadc47a27b5cd632a08395a987ce793c3b75984d09518592a9649d0f8726069d",
    ("sweep", "--scheme", "lorentz", "--L", "1e-150", "--v=-0.9999999999:-0.9:0.5", "--route",
     "per-mode"):
        "372b69c0b8d25d26dcb323fa80afa9503cff422944f0296d27a64739c7bc7b88",
    ("rect2d", "--a", "1e-150", "--b", "1e-150", "--v", "0.9999999999999999"):
        "4b4a11565607f1128459ad8f28fa7970de377e91478ad0d98dfb6006c02baf28",
    ("rect2d", "--a", "1e-150", "--b", "1e-150", "--v", "0.9999999999999999", "--format", "json"):
        "5412152309e712f148d11acadd4a723d614e95e8f80cc05d2beb960b29d50648",
    # m0 as each regulator's FinitePart: the three regulators near the top of the
    # length range, Abel-Plana's m0 through galileo-lab's report, and a cutoff m0 of
    # 1.3e-309, below the normal range
    ("static", "--L", "1e306"):
        "a7f775f6cf64428c0912f18dcb2e0f3e557acb61a33ac8a08416a954a27d447b",
    ("boost", "--scheme", "galileo-lab", "--L", "2", "--v", "0.2", "--method", "abel-plana"):
        "f230608041cb36333d34c3e82a9395c48b60228f0cbebbb4a8b9e74db4d74aaa",
    ("boost", "--scheme", "lorentz", "--L", "1e308", "--v", "0.99", "--method", "cutoff",
     "--format", "json"):
        "c05d6814f873f00e7208f6975d9f7f2e6c9088a441567efff2e2aeecfd0e86d8",
    # the rectangle's parts as one record each: aspect 50 in both orientations, S_omega
    # near its sign change (b/a = 2.74), and the cutoff route's fitted readings in verify
    # (the E^2 overflow at sides of 1e-150 is pinned above)
    ("rect2d", "--a", "1", "--b", "50", "--v", "0.6"):
        "27a411f0381140eb2686d4b490cad8686e9e6712716ee8e0b2a671bd6c435e5c",
    ("rect2d", "--a", "50", "--b", "1", "--v", "0.6"):
        "4c5dd159c161f9e679994d3b279a9ffbe08728e08496c795be3f98f2001ab0db",
    ("rect2d", "--a", "1", "--b", "2.74", "--v", "0.3", "--format", "json"):
        "79816862976a2ae942a6d21e345c6d1f66cb697bb5991bbec860dc13f81bac9d",
    ("verify", "--only", "regsum"):
        "8192d0026134cbf0c9fa49b8f185c228d9af0252aeede18a232521e257a1fd4e",
    ("verify", "--only", "rect2d"):
        "775826f8556f4ea4749cf30d963719dc48e32a07daf10febbc635ec508700224",
}


class TestStdoutGoldens:
    @pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=lambda a: "-".join(a[:3] + a[-3:]))
    def test_bytes_unchanged(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


# `boostcav --help` and each `boostcav <command> --help` at 80 columns, byte for
# byte: building only the chosen subparser must keep every one of them.
HELP_TEXT = {
    (): (
        "usage: boostcav [-h] {static,boost,sweep,rect2d,verify,modes} ...\n"
        "\n"
        "Vacuum energy and momentum of uniformly moving Dirichlet cavities (units: hbar\n"
        "= c = 1).\n"
        "\n"
        "positional arguments:\n"
        "  {static,boost,sweep,rect2d,verify,modes}\n"
        "    static              regularized static energy, all regularizers side by\n"
        "                        side\n"
        "    boost               boosted energy/momentum, both routes\n"
        "    sweep               velocity sweep table with point-particle reference\n"
        "                        columns\n"
        "    rect2d              moving rectangle: finite parts, routes, shell probe\n"
        "    verify              run the invariant suite\n"
        "    modes               dump a mode table: n, frequencies, norm, sample value\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    ("static",): (
        "usage: boostcav static [-h] [--L L] [--a A] [--plates [BOOL]]\n"
        "                       [--config CONFIG] [--format {text,json}]\n"
        "                       [--output OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --L L                 proper cavity length\n"
        "  --a A                 plate separation (with --plates)\n"
        "  --plates [BOOL]       parallel-plate energy per unit area instead of the 1D\n"
        "                        cavity\n"
        "  --config CONFIG       file of 'key = value' lines, read as the flags\n"
        "                        --key=value; flags on the command line win\n"
        "  --format {text,json}\n"
        "  --output OUTPUT       output path (default: stdout)\n"
    ),
    ("boost",): (
        "usage: boostcav boost [-h] [--scheme {galileo-lab,galileo-comoving,lorentz}]\n"
        "                      [--L L] [--v V] [--method {zeta,cutoff,abel-plana}]\n"
        "                      [--config CONFIG] [--format {text,json}]\n"
        "                      [--output OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --scheme {galileo-lab,galileo-comoving,lorentz}\n"
        "  --L L\n"
        "  --v V\n"
        "  --method {zeta,cutoff,abel-plana}\n"
        "  --config CONFIG       file of 'key = value' lines, read as the flags\n"
        "                        --key=value; flags on the command line win\n"
        "  --format {text,json}\n"
        "  --output OUTPUT       output path (default: stdout)\n"
    ),
    ("sweep",): (
        "usage: boostcav sweep [-h] [--scheme {galileo-lab,galileo-comoving,lorentz}]\n"
        "                      [--L L] [--v V] [--route {closed-form,per-mode}]\n"
        "                      [--method {zeta,cutoff,abel-plana}] [--config CONFIG]\n"
        "                      [--format {csv,json}] [--output OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --scheme {galileo-lab,galileo-comoving,lorentz}\n"
        "  --L L\n"
        "  --v V                 grid spec start:stop:step (inclusive)\n"
        "  --route {closed-form,per-mode}\n"
        "  --method {zeta,cutoff,abel-plana}\n"
        "  --config CONFIG       file of 'key = value' lines, read as the flags\n"
        "                        --key=value; flags on the command line win\n"
        "  --format {csv,json}\n"
        "  --output OUTPUT       output path (default: stdout)\n"
    ),
    ("rect2d",): (
        "usage: boostcav rect2d [-h] [--a A] [--b B] [--v V] [--shell-grid SHELL_GRID]\n"
        "                       [--solve-subtraction [BOOL]] [--config CONFIG]\n"
        "                       [--format {text,json}] [--output OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --v V\n"
        "  --shell-grid SHELL_GRID\n"
        "                        velocity grid for the shell probe\n"
        "  --solve-subtraction [BOOL]\n"
        "  --config CONFIG       file of 'key = value' lines, read as the flags\n"
        "                        --key=value; flags on the command line win\n"
        "  --format {text,json}\n"
        "  --output OUTPUT       output path (default: stdout)\n"
    ),
    ("verify",): (
        "usage: boostcav verify [-h] [--only ONLY] [--config CONFIG] [--output OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --only ONLY      restrict to one module group\n"
        "  --config CONFIG  file of 'key = value' lines, read as the flags --key=value;\n"
        "                   flags on the command line win\n"
        "  --output OUTPUT  output path (default: stdout)\n"
    ),
    ("modes",): (
        "usage: boostcav modes [-h] [--scheme {galileo-lab,galileo-comoving,lorentz}]\n"
        "                      [--L L] [--v V] [--n-max N_MAX] [--t T]\n"
        "                      [--config CONFIG] [--format {csv,json}]\n"
        "                      [--output OUTPUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --scheme {galileo-lab,galileo-comoving,lorentz}\n"
        "  --L L\n"
        "  --v V\n"
        "  --n-max N_MAX\n"
        "  --t T\n"
        "  --config CONFIG       file of 'key = value' lines, read as the flags\n"
        "                        --key=value; flags on the command line win\n"
        "  --format {csv,json}\n"
        "  --output OUTPUT       output path (default: stdout)\n"
    ),
}


class TestHelpGoldens:
    @pytest.mark.parametrize("command", list(HELP_TEXT), ids=lambda c: "-".join(c) or "top")
    def test_bytes_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *command, "--help")
        assert code == 0 and not err
        assert out == HELP_TEXT[command]


# argparse's own refusals at 80 columns, byte for byte: a partly built parser must
# keep every one of them
TOP_USAGE = "usage: boostcav [-h] {static,boost,sweep,rect2d,verify,modes} ...\n"
ERROR_TEXT = {
    (): TOP_USAGE + "boostcav: error: the following arguments are required: command\n",
    ("nosuch",): TOP_USAGE + "boostcav: error: argument command: invalid choice: 'nosuch' "
                             "(choose from 'static', 'boost', 'sweep', 'rect2d', 'verify', "
                             "'modes')\n",
    ("static", "--bogus"): TOP_USAGE + "boostcav: error: unrecognized arguments: --bogus\n",
    ("verify", "--format", "json"): TOP_USAGE + "boostcav: error: unrecognized arguments: "
                                                "--format json\n",
}


class TestErrorGoldens:
    @pytest.mark.parametrize("argv", list(ERROR_TEXT), ids=lambda a: "-".join(a) or "bare")
    def test_bytes_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == (2, "", ERROR_TEXT[argv])


class TestStaticM0FittedOnce:
    @pytest.fixture
    def fits(self, monkeypatch):
        from boostcav import observables

        calls = []
        fit = observables.cutoff_finite_part
        monkeypatch.setattr(observables, "cutoff_finite_part",
                            lambda *a, **kw: calls.append(a) or fit(*a, **kw))
        return calls

    @pytest.mark.parametrize("route", ["closed-form", "per-mode"])
    def test_five_row_sweep(self, capsys, fits, route):
        code, out, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1.3",
                           "--v=0.1:0.5:0.1", "--route", route, "--method", "cutoff")
        assert code == 0 and out.count(f",{route}\n") == 5
        assert len(fits) == 1

    def test_boost(self, capsys, fits):
        # the printed m0 and route_comparison's own fit, which both routes share
        # (the report section reuses the printed one); a single fit would need
        # route_comparison to take m0 from the CLI
        code, out, _ = run(capsys, "boost", "--scheme", "galileo-lab", "--L", "1.3", "--v=-0.27",
                           "--method", "cutoff")
        assert code == 0 and "galileo-lab routes" in out
        assert len(fits) == 2


class TestColdStart:
    """What a CLI request imports and builds; structural, so no timing is asserted."""

    @staticmethod
    def _fresh(script: str) -> str:
        src = str(Path(boostcav.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True).stdout

    def test_no_dataclasses_and_no_numpy_polynomial(self):
        script = (
            "import io, sys, contextlib\n"
            "from boostcav.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['boost', '--scheme', 'lorentz', '--v', '0.5',"
            " '--method', 'abel-plana']),\n"
            "             main(['rect2d', '--a', '1', '--b', '3', '--v', '0.4'])]\n"
            "print(codes, sorted(m for m in ('dataclasses', 'numpy.polynomial')"
            " if m in sys.modules))\n"
        )
        assert self._fresh(script) == "[0, 0] []\n"

    # Every request shape of the benchmark's 1D workload and the rectangle's, and
    # the verify groups (with the stress fault injections), in the order run, each
    # with its exit code; the full `verify` last, whose regsum group runs the
    # rectangle's cutoff cross-check.
    REQUESTS = (
        (["rect2d", "--a", "1", "--b", "3", "--v", "0.4", "--shell-grid", "0.1:0.7:0.2",
          "--solve-subtraction"], 0),
        (["rect2d", "--a", "2.5", "--b", "0.5", "--v", "0.6", "--shell-grid", "0.05:0.8:0.25",
          "--solve-subtraction", "--format", "json"], 0),
        (["static", "--plates", "--a", "1.5"], 0),
        (["static", "--L", "1.3"], 0),
        (["static", "--L", "0.7", "--format", "json"], 0),
        *((["boost", "--scheme", scheme, "--L", "1.3", f"--v={v}", "--method", method,
            "--format", fmt], 0)
          for scheme, v in (("lorentz", 0.7), ("galileo-comoving", -0.2), ("galileo-lab", 0.35))
          for method, fmt in (("zeta", "text"), ("cutoff", "json"), ("abel-plana", "text"))),
        *((["sweep", "--scheme", "lorentz", "--L", "1.3", "--v=-0.9:0.9:0.1", "--route", route,
            "--method", method, "--format", fmt], 0)
          for route in ("closed-form", "per-mode")
          for method, fmt in (("zeta", "csv"), ("cutoff", "json"), ("abel-plana", "csv"))),
        (["modes", "--scheme", "lorentz", "--L", "0.9", "--v", "0.6", "--n-max", "12",
          "--t", "1.1"], 0),
        (["modes", "--scheme", "galileo-lab", "--L", "1.4", "--v", "0.3", "--n-max", "20",
          "--format", "json"], 0),
        (["boost", "--scheme", "lorentz", "--L", "1", "--v=1.2"], 2),
        (["static", "--L=-0.5"], 2),
        (["verify", "--only", "modes"], 0),
        (["verify", "--only", "stress"], 0),
        (["verify", "--only", "observables"], 0),
        (["verify", "--only", "rect2d"], 0),
        (["verify", "--only", "stress", "--inject-t01-sign-flip"], 1),
        (["verify", "--only", "stress", "--inject-prefactor", "doubled"], 1),
        (["verify", "--only", "stress", "--inject-prefactor", "lab-phase"], 1),
        (["verify", "--only", "stress", "--inject-t01-sign-flip", "--inject-prefactor",
          "lab-phase"], 1),
    )

    def test_requests_never_import_numpy(self):
        script = (
            "import io, sys, contextlib\n"
            "import boostcav\n"
            "print('import', 'numpy' in sys.modules)\n"
            "from boostcav.cli import main\n"
            f"for argv in {[argv for argv, _ in self.REQUESTS]!r} + "
            "[['verify']]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(argv[0], code, 'numpy' in sys.modules)\n"
        )
        expected = ["import False"]
        expected += [f"{argv[0]} {code} False" for argv, code in self.REQUESTS]
        expected.append("verify 0 False")
        assert self._fresh(script).splitlines() == expected

    # each command's own flags; every request also adds the 7 parsers' -h, and
    # --config, --output and (all but verify) --format
    OWN_FLAGS = (
        (["static", "--L", "1.3"], 3),
        (["boost", "--scheme", "lorentz", "--v", "0.5"], 4),
        (["sweep", "--scheme", "lorentz", "--v", "0:0.4:0.2"], 5),
        (["rect2d", "--a", "1", "--b", "3", "--v", "0.4"], 5),
        (["verify", "--only", "stress"], 3),
        (["modes", "--scheme", "lorentz", "--n-max", "3"], 5),
    )

    @pytest.mark.parametrize("argv,own", OWN_FLAGS, ids=[argv[0] for argv, _ in OWN_FLAGS])
    def test_a_request_adds_only_its_own_flags(self, capsys, monkeypatch, argv, own):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(parser, *names, **keywords):
            added.append(names)
            return add_argument(parser, *names, **keywords)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert run(capsys, *argv)[0] == 0
        common = 2 if argv[0] == "verify" else 3
        assert len(added) == 7 + own + common
        assert added.count(("-h", "--help")) == 7

    def test_text_requests_never_import_json(self):
        script = (
            "import io, sys, contextlib\n"
            "from boostcav.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['static', '--L', '1.3']),\n"
            "             main(['rect2d', '--a', '1', '--b', '3', '--v', '0.4'])]\n"
            "print(codes, 'json' in sys.modules)\n"
        )
        assert self._fresh(script) == "[0, 0] False\n"


class TestEdgeExitCodes:
    """Inputs at the float64 edges and missing or malformed flags keep their exit codes.

    Math never overflows into exit 1.
    """

    UNDERFLOW = "warning: m0^2 underflows float64"
    OVERFLOW = "E^2 overflows float64"

    @pytest.mark.parametrize("argv, code, note", [
        (("static", "--L", "1e-300"), 2, None),
        (("static", "--L", "5e-324"), 2, None),
        (("modes", "--scheme", "lorentz", "--L", "1e-300", "--v", "0.9", "--n-max", "10000"),
         2, None),
        (("boost", "--scheme", "galileo-lab", "--L", "1e-308", "--v=0.1", "--method",
          "abel-plana"), 2, None),
        (("sweep", "--scheme", "lorentz", "--L", "1e300", "--v", "0:0.9:0.3", "--route",
          "per-mode", "--method", "cutoff"), 0, UNDERFLOW),
        (("boost", "--scheme", "lorentz", "--v=0.9999999999", "--method", "cutoff"), 0, None),
        # |E| past 1.3e154: E^2 overflows, and the residual is formed as (E-P)(E+P)-m0^2
        (("boost", "--scheme", "lorentz", "--L", "1e-150", "--v=0.9999999999999999"), 0,
         "note: " + OVERFLOW),
        (("sweep", "--scheme", "lorentz", "--L", "1e-150", "--v=-0.9999999999:-0.9:0.5",
          "--route", "per-mode"), 0, ("warning: " + OVERFLOW, "(per-mode, v = -0.9999999999)\n")),
        # the rectangle's residual E_s^2 - P_s^2 - E_m^2, on the route rows and the probe rows
        (("rect2d", "--a", "1e-150", "--b", "1e-150", "--v", "0.9999999999999999"), 0,
         "note: " + OVERFLOW),
        (("rect2d", "--a", "1e-150", "--b", "1e-150", "--shell-grid", "0.999999999999",
          "--format", "json"), 0, (OVERFLOW, "(per-mode, v = 0.999999999999)\"")),
        (("rect2d", "--a", "1e200", "--b", "1e200"), 0, "note: E_m^2 underflows float64"),
        # sides whose (pi/b)^2 leaves float64: per_mode_em_2d refuses every mode of them,
        # Cavity2D and rect2d still take them
        (("rect2d", "--a", "1e-155", "--b", "1e-155"), 0, None),
        # b/a underflows to 0: the refusal names the range, not the rounded ratio
        (("rect2d", "--a", "1e300", "--b", "1e-300"), 2,
         "usage error: rectangle a = 1e+300, b = 1e-300: aspect ratio b/a is outside "
         "(1e-300, 1e300)\n"),
        (("sweep", "--scheme", "lorentz", "--v=0:0.5:0"), 2,
         "usage error: grid step must be positive\n"),
        (("sweep", "--scheme", "lorentz", "--v=fast"), 2, "usage error: bad velocity 'fast'\n"),
        (("boost", "--v", "0.5"), 2, "usage error: boost requires --scheme and --v\n"),
        (("boost", "--scheme", "lorentz"), 2, "usage error: boost requires --scheme and --v\n"),
        (("sweep", "--scheme", "lorentz"), 2, "usage error: sweep requires --scheme and --v"),
        (("sweep", "--v", "0:0.5:0.1"), 2, "usage error: sweep requires --scheme and --v"),
        (("modes",), 2, "usage error: modes requires --scheme\n"),
        (("modes", "--scheme", "lorentz", "--n-max", "0"), 2,
         "usage error: --n-max must be >= 1\n"),
        (("rect2d", "--a", "1", "--b", "1", "--solve-subtraction", "--shell-grid", "0:0.2:0.1"),
         2, "got 2\nrun `boostcav rect2d --help` for accepted flags\n"),
    ], ids=["static-1e-300", "static-5e-324", "modes-1e-300", "boost-abel-plana-1e-308",
            "sweep-per-mode-cutoff-1e300", "boost-cutoff-near-light-speed",
            "boost-E-squared-overflows", "sweep-E-squared-overflows",
            "rect2d-E-squared-overflows", "rect2d-probe-E-squared-overflows",
            "rect2d-E_m-squared-underflows", "rect2d-tiny-sides", "rect2d-aspect-underflows",
            "sweep-zero-step", "sweep-bad-velocity", "boost-no-scheme", "boost-no-v",
            "sweep-no-v", "sweep-no-scheme", "modes-no-scheme", "modes-n-max-0",
            "rect2d-subtraction-underdetermined"])
    def test_exit_code(self, capsys, argv, code, note):
        # note is None, one expected substring, or a tuple of them (a warning and its tail)
        notes = (note,) if isinstance(note, str) else note or ()
        got, out, err = run(capsys, *argv)
        assert got == code
        # a math OverflowError would reach the catch-all as "error: math range error" or
        # "error: (34, 'Numerical result out of range')"
        assert not err.startswith("error: ") and "range" not in err
        if code == 2:
            assert not out and err.startswith("usage error: ")
        for marker in (self.UNDERFLOW, self.OVERFLOW):
            assert (marker in out + err) == any(marker in n for n in notes)
        for n in notes:
            assert n in out + err

    def test_fit_error_is_a_consistency_failure(self, capsys, monkeypatch):
        # no flag reaches a FitError through the shipped routes; a route that raises one exits 1
        def refuse(*args):
            raise FitError("fit refused")

        monkeypatch.setattr(cli, "route_comparison", refuse)
        assert run(capsys, "boost", "--scheme", "lorentz", "--v", "0.5") == (
            1, "", "consistency failure: fit refused\n")
