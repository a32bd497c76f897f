"""Tests of the benchmark's own oracles, checks, workloads and tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import collections
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import checks
import oracles
import run
import workloads

LATTICE_CONSTANT = 0.0410405973441  # FP (1/2) sum sqrt(n^2 + m^2) pi on the unit square


class TestOracles:
    def test_lattice_constant(self):
        assert abs(oracles.rect_parts(1.0, 1.0)["S_omega"] - LATTICE_CONSTANT) < 1e-12

    def test_static_energy(self):
        assert oracles.m0(1.0) == -math.pi / 24.0
        assert oracles.m0(2.0) == pytest.approx(-math.pi / 48.0, rel=1e-15)

    def test_square_splits_evenly(self):
        parts = oracles.rect_parts(1.3, 1.3)
        assert parts["S_k"] == pytest.approx(parts["S_omega"] / 2.0, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 1.0), (0.7, 35.0), (35.0, 0.7)])
    def test_s_k_is_minus_a_d_da(self, a, b):
        h = 1e-4 * a
        slope = (oracles.rect_parts(a + h, b)["S_omega"] - oracles.rect_parts(a - h, b)["S_omega"]) / (2 * h)
        parts = oracles.rect_parts(a, b)
        assert parts["S_k"] == pytest.approx(-a * slope, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (4.0, 0.5)])
    def test_symmetry_and_scaling(self, a, b):
        parts = oracles.rect_parts(a, b)
        assert oracles.rect_parts(b, a)["S_omega"] == pytest.approx(parts["S_omega"], rel=1e-13)
        for name, value in oracles.rect_parts(3.0 * a, 3.0 * b).items():
            assert value == pytest.approx(parts[name] / 3.0, rel=1e-12, abs=1e-15)

    def test_wide_transverse_part(self):
        a, b = 1.0, 40.0
        w = oracles.rect_parts(a, b)["W"]
        assert w == pytest.approx(oracles.ZETA3 * b / (32.0 * math.pi * a * a), rel=1e-12)

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.95])
    def test_lorentz_law_on_shell(self, v):
        ce, cp = oracles.closed_form_coefficients("lorentz", v)
        assert ce * ce - cp * cp == pytest.approx(1.0, rel=1e-12)
        e, p = oracles.rect_routes(oracles.rect_parts(1.0, 2.0), v)["per-mode"]
        parts = oracles.rect_parts(1.0, 2.0)
        predicted = 2.0 * (ce - 1.0) * parts["U"] * parts["W"]
        assert e * e - p * p - parts["S_omega"] ** 2 == pytest.approx(predicted, rel=1e-9, abs=1e-16)

    @pytest.mark.parametrize("scheme", oracles.SCHEMES)
    def test_modes_reduce_to_standing_wave_at_rest(self, scheme):
        omega_c, omega_l, norm, u, x_mid = oracles.mode_row(scheme, 2.0, 0.0, 3, 0.25)
        k = 3 * math.pi / 2.0
        assert (omega_c, omega_l, x_mid) == (k, k, 1.0)
        expected = math.sqrt(2.0 / 2.0) * complex(math.cos(k * 0.25), -math.sin(k * 0.25)) * math.sin(k)
        assert abs(u - expected) < 1e-14


def _static_text(length, zeta, cutoff, abel):
    return (f"# units: hbar = c = 1\nstatic cavity energy m0(L={length:.12g})\n"
            f"        zeta: {zeta}\n      cutoff: {cutoff}\n  abel-plana: {abel}\n"
            "  relative spread: 1e-11\n")


class TestChecks:
    REQ = workloads.Request(("static", "--L", "1.5"), 0, "static", {"L": 1.5, "format": "text"})

    def test_exact_print_passes_at_the_floor(self):
        m0 = f"{oracles.m0(1.5):.12g}"
        verdict = checks.check(self.REQ, 0, _static_text(1.5, m0, m0, m0), "")
        assert verdict.ok and verdict.max_rel_err == 0.0

    def test_lost_digits_fail(self):
        m0 = f"{oracles.m0(1.5):.12g}"
        wrong = f"{oracles.m0(1.5) * (1 + 1e-8):.12g}"
        verdict = checks.check(self.REQ, 0, _static_text(1.5, wrong, m0, m0), "")
        assert not verdict.ok
        assert verdict.max_rel_err == pytest.approx(1e-8, rel=1e-2)

    def test_regularizer_tolerance(self):
        m0 = f"{oracles.m0(1.5):.12g}"
        near = f"{oracles.m0(1.5) * (1 + 1e-7):.12g}"
        assert checks.check(self.REQ, 0, _static_text(1.5, m0, near, m0), "").ok

    def test_exit_code_and_usage_message(self):
        bad = workloads.Request(("static", "--L=-1"), 2, "invalid")
        assert checks.check(bad, 2, "", "usage error: static requires a positive --L\n").ok
        assert not checks.check(bad, 0, "", "").ok
        assert not checks.check(bad, 2, "", "").ok

    def test_undetected_fault_fails(self):
        req = workloads.Request(("verify", "--only", "stress", "--inject-t01-sign-flip"), 1, "inject",
                                {"only": "stress"})
        passing = "# units: hbar = c = 1\n" + "[PASS] stress: x: y\n" * 6 + "6/6 checks passed\n"
        assert not checks.check(req, 0, passing, "").ok
        assert not checks.check(req, 1, passing, "").ok

    def test_grid_is_inclusive(self):
        assert checks.grid_values({"start": -0.2, "stop": 0.2, "step": 0.1}) == [-0.2, -0.1, 0.0, 0.1, 0.2]


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_seeded_and_stratified(self, name):
        make = workloads.WORKLOADS[name]
        assert make(3) == make(3)
        strata = [collections.Counter((r.argv[0], r.kind, r.expect) for r in make(s)) for s in (1, 2)]
        assert strata[0] == strata[1]

    def test_rect_geometries_are_distinct(self):
        requests = workloads.rect2d_aspect(5)
        geometries = {(r.params["a"], r.params["b"]) for r in requests}
        assert len(geometries) == len(requests)
        ratios = sorted(max(a / b, b / a) for a, b in geometries)
        assert {round(r) for r in ratios} == {1, 2, 5, 20, 50}
        assert sum(r.params["grid"] is not None for r in requests) == len(requests) // 3


class TestHarness:
    def test_tail_has_ten_beyond(self):
        value, pct = run.tail([float(i) for i in range(30)])
        assert value == 19.0 and pct == pytest.approx(100.0 * 20 / 30)

    def test_outermost_import_rows(self):
        rows = [(2, "scipy._lib", 1.0), (1, "scipy", 3.0), (1, "numpy", 2.0), (0, "boostcav", 9.0),
                (1, "scipy.special", 4.0), (0, "boostcav.cli", 5.0)]
        assert [r[1] for r in run._outermost(rows, "scipy")] == ["scipy.special", "scipy"]

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestTracer:
    def test_wraps_and_restores(self):
        sys.path.insert(0, str(run.SRC))
        import boostcav
        import boostcav.cli
        import boostcav.stress
        from tracer import Tracer

        before = {name: vars(mod).copy() for name, mod in sys.modules.items()
                  if name.startswith("boostcav")}
        groups = dict(boostcav.verify.MODULE_GROUPS)
        tracer = Tracer()
        tracer.install()
        try:
            assert boostcav.stress.gauss_legendre is not before["boostcav.quadrature"]["gauss_legendre"]
            tracer.start_request(0)
            with contextlib.redirect_stdout(io.StringIO()):
                code = boostcav.cli.main(["boost", "--scheme", "lorentz", "--v", "0.5",
                                          "--method", "cutoff"])
        finally:
            tracer.uninstall()
        assert code == 0
        for name, namespace in before.items():
            for attr, value in namespace.items():
                assert vars(sys.modules[name])[attr] is value, f"{name}.{attr} not restored"
        assert boostcav.verify.MODULE_GROUPS == groups

        m = tracer.layer_metrics()
        assert m["cli.calls"] == 1 and m["quadrature.calls"] > 0
        assert m["quadrature.points"] >= 16 * m["quadrature.integrand_calls"]
        wall = m["cli.total_s"]
        accounted = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["quadrature.integrand_s"]
        assert accounted == pytest.approx(wall, rel=1e-9)
        # nested same-layer calls (boosted_em -> static_m0) count once in total_s
        assert m["observables.total_s"] <= wall
        assert 0.0 < m["regsum.repeat_frac"] < 1.0
