"""Release acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers (run with `pytest tests/test_acceptance.py -v -s` to see
them inline). Tolerances are pinned here, not configurable.

Criterion 10 (the wide-rectangle quasi-1D limit of the regularized sums)
is asserted as written and is expected to fail: the transverse finite part
W = FP[sum p^2/4w] does not vanish as b/a grows but approaches -E_m/2
(strip closed form, cross-checked numerically in tests/test_rect2d.py), so
E_s/E_m tends to (3 gamma^2 (1+v^2) - 1)/2, not gamma^2 (1+v^2). See
tests/test_rect2d.py::TestWideCavityAsymptotics for the true asymptotics.
"""

import math

import numpy as np
import pytest

from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav import modes, rect2d, stress
from boostcav.observables import (
    Route,
    boosted_em,
    closed_form_coefficients,
    mass_shell_residual,
    nonrel_fit,
    static_m0,
)
from boostcav.regsum import (
    Linear1DSummand,
    RegConfig,
    RegMethod,
    cutoff_finite_part,
)

M0 = -math.pi / 24.0


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {detail}")


@pytest.fixture(scope="module")
def square_parts():
    return rect2d.finite_parts(Cavity2D(1.0, 1.0, 0.0))


@pytest.fixture(scope="module")
def aspect_parts():
    return {b: rect2d.finite_parts(Cavity2D(1.0, b, 0.0)) for b in (5.0, 20.0, 50.0)}


def test_criterion_01_static_energy_three_regularizers():
    zeta = static_m0(1.0).value
    cut = static_m0(1.0, RegConfig.cutoff()).value
    ap = static_m0(1.0, RegConfig(RegMethod.ABEL_PLANA)).value
    err_zeta = abs(zeta - M0)
    err_cut = abs(cut - M0) / abs(M0)
    err_ap = abs(ap - M0)
    ok = err_zeta == 0.0 and err_cut <= 1e-6 and err_ap <= 1e-10
    _report(1, ok, f"m0(1): zeta exact, cutoff rel {err_cut:.2e} (<=1e-6), "
                   f"abel-plana abs {err_ap:.2e} (<=1e-10)")
    assert ok


def test_criterion_02_boost_laws_by_quadrature():
    worst = 0.0
    for v in np.arange(0.1, 0.91, 0.1):
        cav = Cavity1D(1.0, float(v))
        numeric = boosted_em(Scheme.LORENTZ_EXACT, cav, Route.PER_MODE, m0=static_m0(1.0))
        ce, cp = closed_form_coefficients(Scheme.LORENTZ_EXACT, float(v))
        worst = max(worst, abs(numeric.energy - ce * M0) / abs(ce * M0),
                    abs(numeric.momentum - cp * M0) / abs(cp * M0))
    ok = worst <= 1e-8
    _report(2, ok, f"E,P vs m0(1+v^2)/(1-v^2), 2m0v/(1-v^2): max rel {worst:.2e} (<=1e-8)")
    assert ok


def test_criterion_03_mass_shell_identity():
    worst = 0.0
    for v in np.arange(0.1, 0.91, 0.1):
        cav = Cavity1D(1.0, float(v))
        for route in (Route.CLOSED_FORM, Route.PER_MODE):
            em = boosted_em(Scheme.LORENTZ_EXACT, cav, route, m0=static_m0(1.0))
            worst = max(worst, abs(mass_shell_residual(em, M0)) / M0**2)
    ok = worst <= 1e-10
    _report(3, ok, f"|E^2-P^2-m0^2|/m0^2 max {worst:.2e} over both routes (<=1e-10)")
    assert ok


def test_criterion_04_comoving_prior_coefficients():
    worst = 0.0
    vs = (0.05, 0.1, 0.2)
    for v, (c_e, c_p) in zip(vs, stress.coefficient_fits(Scheme.GALILEO_COMOVING_PRIOR, vs)):
        worst = max(worst, abs(c_e - (1.0 + v * v / 2.0)), abs(c_p - v))
    ok = worst <= 1e-9
    _report(4, ok, f"(1+v^2/2, v) by quadrature: max abs dev {worst:.2e} (<=1e-9)")
    assert ok


def test_criterion_05_galilean_mismatch():
    v = 0.05
    lab_e = closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, v)[0]
    com_e = closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, v)[0]
    ratio = (lab_e - 1.0) / (com_e - 1.0)
    p_ratio_01 = (closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, 0.01)[1]
                  / closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, 0.01)[1])
    p_ratio_001 = (closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, 0.001)[1]
                   / closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, 0.001)[1])
    ok = 3.9 <= ratio <= 4.1 and abs(p_ratio_01 - 1) <= 2e-4 and abs(p_ratio_001 - 1) <= 2e-6
    _report(5, ok, f"energy-excess ratio {ratio:.4f} in [3.9,4.1]; "
                   f"momentum ratio -> 1 ({p_ratio_01:.6f}, {p_ratio_001:.8f})")
    assert ok


def test_criterion_06_nonrelativistic_fit():
    fit = nonrel_fit(Scheme.LORENTZ_EXACT, 0.2, degree=6)
    d0 = abs(fit.energy_coeffs[0] - 1.0)
    d2 = abs(fit.energy_coeffs[1] - 2.0)
    d1 = abs(fit.momentum_coeffs[0] - 2.0)
    ok = max(d0, d2, d1) <= 1e-3
    _report(6, ok, f"E/m0 ~ 1 + 2v^2 (devs {d0:.1e}, {d2:.1e}), "
                   f"P/m0 ~ 2v (dev {d1:.1e}) (<=1e-3)")
    assert ok


def test_criterion_07_time_independence():
    worst = 0.0
    for scheme in Scheme:
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        for n in (1, 4):
            # quadrature between the walls of each slice: per_mode_em's closed form has no t
            samples = [stress._density_quadrature(scheme, cav, n, t) for t in (0.0, 0.37, 0.7, 5.0)]
            es, ps = zip(*samples)
            worst = max(worst, (max(es) - min(es)) / abs(es[0]),
                        (max(ps) - min(ps)) / max(abs(ps[0]), 1e-300))
    ok = worst < 1e-9
    _report(7, ok, f"per-mode E,P spread over t in {{0,0.37,0.7,5}}: {worst:.2e} (<1e-9)")
    assert ok


def test_criterion_08_orthonormality():
    # each entry within the rounding bound modes._gram_bound gives it, as verify gates it
    worst = ratio = 0.0
    ok = True
    for scheme in Scheme:
        v = 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        dev = np.abs(modes.gram_matrix(scheme, cav, 10, 0.4) - np.eye(10))
        bound = modes._gram_bound(scheme, cav, 10, 0.4)
        ok = ok and bool(np.all(dev <= bound))
        worst = max(worst, float(np.max(dev)))
        ratio = max(ratio, float(np.max(dev / bound)))
    _report(8, ok, f"Gram(N=10) identity, all schemes: max |G-I| {worst:.2e}, "
                   f"at most {ratio:.2f} of its rounding bound (<=1)")
    assert ok


def test_criterion_09_2d_per_mode_law(square_parts):
    worst = 0.0
    for v in (0.0, 0.3, 0.6):
        cav = Cavity2D(1.0, 1.0, v)
        for n in range(1, 6):
            for m in range(1, 6):
                pm = stress.per_mode_em_2d(cav, n, m)
                e_law, p_law = stress.per_mode_em_2d_law(cav, n, m)
                worst = max(worst, abs(pm.energy - e_law) / e_law,
                            abs(pm.momentum - p_law) / max(abs(p_law), 1.0))
    report = rect2d.static_limit_report(Cavity2D(1.0, 1.0, 0.0))
    gap = report.entries[0].abs_diff
    gap_significant = gap > 10.0 * square_parts.S_k.error_estimate
    ok = worst <= 1e-9 and gap_significant
    _report(9, ok, f"per-mode law n,m<=5: max rel dev {worst:.2e} (<=1e-9); grouped route "
                   f"misses v=0 limit by {gap:.4g} (report generated)")
    assert ok


def test_criterion_10_quasi_1d_limit(aspect_parts):
    """Asserted as specified; expected to fail (see module docstring)."""
    v = 0.6
    gamma_fac = (1.0 + v * v) / (1.0 - v * v)  # 2.125
    parts50 = aspect_parts[50.0]
    res = rect2d.boosted_em_2d(Cavity2D(1.0, 50.0, v))
    e_ratio = res.energy / parts50.S_omega.value
    p_ratio = res.momentum / parts50.S_omega.value
    rel_residuals = []
    for b in (5.0, 20.0, 50.0):
        parts = aspect_parts[b]
        rows = rect2d.mass_shell_probe_2d(Cavity2D(1.0, b, 0.0), [v])
        rel_residuals.append(abs(rows[0].residual) / parts.S_omega.value**2)
    decreasing = rel_residuals[0] > rel_residuals[1] > rel_residuals[2]
    e_ok = abs(e_ratio - gamma_fac) <= 0.02 * gamma_fac
    p_ok = abs(p_ratio - 1.875) <= 0.02 * 1.875
    ok = e_ok and p_ok and decreasing
    _report(10, ok,
            f"b/a=50, v=0.6: E_s/E_m {e_ratio:.4f} (target 2.125 +-2%), "
            f"P_s/E_m {p_ratio:.4f} (target 1.875 +-2%); "
            f"|residual|/E_m^2 over b/a 5,20,50: "
            f"{rel_residuals[0]:.3f} > {rel_residuals[1]:.3f} > {rel_residuals[2]:.3f} "
            f"({'decreasing' if decreasing else 'not decreasing'})")
    assert ok, (
        f"quasi-1D clauses: E_s/E_m = {e_ratio:.4f} and P_s/E_m = {p_ratio:.4f} "
        "do not approach the 1D boosted laws because the transverse finite part "
        "W -> -E_m/2 (not 0) as b/a grows; measured shares "
        f"U/E_m = {parts50.U.value / parts50.S_omega.value:.4f}, "
        f"W/E_m = {parts50.W.value / parts50.S_omega.value:.4f} match the strip "
        "closed form (3/2, -1/2). The criterion is kept as stated and fails "
        "honestly rather than being weakened; the measured asymptotics are "
        "pinned in tests/test_rect2d.py::TestWideCavityAsymptotics (see also "
        "the README note)."
    )


def test_criterion_11_subtraction_solver():
    sol = rect2d.subtraction_solver_2d(Cavity2D(1.0, 1.0, 0.0), [0.2, 0.4, 0.6])
    worst = max(br.max_rel_residual for br in sol.branches)
    ok = len(sol.branches) == 2 and worst <= 1e-10
    _report(11, ok, f"both finite-part branches zero the shell residual: "
                    f"max post-shift rel residual {worst:.2e} (<=1e-10)")
    assert ok


def test_criterion_12_regulator_robustness():
    config = RegConfig.cutoff()
    summand = Linear1DSummand(1.0, weight=0.5)
    [full] = cutoff_finite_part(summand, config)
    [half] = cutoff_finite_part(summand, config.halved())
    shift_1d = abs(half.value - full.value)
    ok_1d = shift_1d < 5.0 * full.error_estimate

    square = Cavity2D(1.0, 1.0, 0.0)
    cfg2 = rect2d.default_config()
    cutoff_parts = rect2d.finite_parts(square, cfg2)
    halved_parts = rect2d.finite_parts(square, cfg2.halved())
    ok_2d = True
    worst_2d = 0.0
    for name in ("U", "W", "S_omega", "S_k"):
        fp = getattr(cutoff_parts, name)
        fph = getattr(halved_parts, name)
        shift = abs(fph.value - fp.value)
        worst_2d = max(worst_2d, shift / max(5.0 * fp.error_estimate, 1e-300))
        ok_2d = ok_2d and shift < 5.0 * fp.error_estimate

    class Convergent:  # sum n e^{-eps n} less its eps^-2 divergence: finite part -1/12
        omega_min = 1.0
        divergent_powers = (2,)

        def damped_sums(self, eps):
            [sums] = Linear1DSummand(math.pi, weight=1.0).damped_sums(eps)
            return [[s - 1.0 / e / e for s, e in zip(sums, eps)]]

    [fp_fin] = cutoff_finite_part(Convergent(), config)
    ok_pass = abs(fp_fin.value + 1.0 / 12.0) <= 1e-10 and all(
        abs(c) <= 1e-8 for c in fp_fin.fitted_divergent_coeffs
    )
    ok = ok_1d and ok_2d and ok_pass
    _report(12, ok, f"halved schedules: 1D shift {shift_1d:.2e} < 5x err "
                    f"{5 * full.error_estimate:.2e}; 2D worst shift/(5x err) {worst_2d:.2f}; "
                    f"convergent pass-through dev {abs(fp_fin.value + 1.0 / 12.0):.1e}")
    assert ok
