import hashlib
import json
import math
import time

import pytest

from boostcav.cli import MODES_ROW_BUDGET, main

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

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "static", "--L", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["units"] == "hbar = c = 1"
        assert len(payload["rows"]) == 3


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


class TestModesRowBudget:
    """--n-max is bounded by a stated row budget: past it, exit 2 before any work."""

    def test_oversized_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "modes", "--scheme", "lorentz", "--n-max", "100000000")
        assert time.perf_counter() - start < 5.0  # a 1e8-row table would need gigabytes
        assert code == 2 and not out
        assert (f"usage error: --n-max 100000000 is over the row budget of {MODES_ROW_BUDGET}"
                in err)

    def test_one_past_the_budget_fails(self, capsys):
        code, _, err = run(capsys, "modes", "--scheme", "lorentz",
                           "--n-max", str(MODES_ROW_BUDGET + 1))
        assert code == 2 and "row budget" in err

    def test_at_the_budget_runs(self, capsys):
        code, out, _ = run(capsys, "modes", "--scheme", "lorentz", "--n-max", str(MODES_ROW_BUDGET))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 + MODES_ROW_BUDGET
        assert lines[-1].startswith(f"{MODES_ROW_BUDGET},")


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
    ])
    def test_first_choice_is_the_default(self, capsys, argv, default):
        assert run(capsys, *argv) == run(capsys, *argv, "--format", default)


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "sweep", "--scheme", "lorentz", "--L", "1",
                           "--v", "0:0.2:0.1", "--output", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("# units")


# sha256 of stdout: per-mode sweeps shaped like the benchmark's (375, 106 and
# 27 rows) and cutoff boosts. Recorded once m0 and the per-mode coefficients
# were computed on the unit cavity and the cutoff fit became a float64 QR
# least squares; any later change is a defect.
STDOUT_SHA256 = {
    ("sweep", "--scheme", "lorentz", "--L", "1.37", "--v=-0.93:0.94:0.005", "--route", "per-mode",
     "--method", "zeta", "--format", "csv"):
        "ae36b0a19bc9fc64053bbcfdf0d090ce6f0d85243452fa5cd0357bb97a43c3a0",
    ("sweep", "--scheme", "galileo-comoving", "--L", "0.83", "--v=-0.48:0.5:0.0093", "--route",
     "per-mode", "--method", "cutoff", "--format", "json"):
        "f7c65e9a0a031672829655ea1c11bbded86420da71fe6316987800e702397a48",
    ("sweep", "--scheme", "galileo-lab", "--L", "2.2", "--v=-0.47:0.5:0.036", "--route", "per-mode",
     "--method", "abel-plana", "--format", "csv"):
        "0c66fd50032dbbd60c3763c6886ae7a1ce999ddf16360cb5017252796b5f9a9a",
    ("boost", "--scheme", "galileo-lab", "--L", "1.3", "--v=-0.27", "--method", "cutoff"):
        "a21d995741c1296eb8dc29fcdaafdf62317b6188d76ff0e787c4b5a5e0c327ea",
    ("boost", "--scheme", "lorentz", "--L", "0.7", "--v=0.81", "--method", "cutoff",
     "--format", "json"):
        "403bc715ad99e02d250e55c021dde0b64762c348f3b67c9b0ac7e7ac880cd669",
}


class TestStdoutGoldens:
    @pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=lambda a: "-".join(a[:3] + a[-3:]))
    def test_bytes_unchanged(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


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
