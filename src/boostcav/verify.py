"""Runtime verification suite backing the `verify` CLI subcommand.

Each check re-derives one of the package's quantitative invariants from
scratch and reports pass/fail with a numeric detail string. The stress
checks accept a StressConvention so deliberately broken conventions can be
injected as negative controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import modes, observables, rect2d, regsum, stress
from .cavity import Cavity1D, Cavity2D, Scheme
from .observables import Route
from .regsum import RegConfig, SequenceSummand, cutoff_finite_part
from .stress import DEFAULT_CONVENTION, StressConvention

__all__ = ["CheckResult", "run_checks", "MODULE_GROUPS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _checks_modes(convention: StressConvention) -> list[CheckResult]:
    out = []
    worst = 0.0
    for scheme in Scheme:
        v = 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        for n in (1, 7, 23, 50):
            for t in (0.0, 0.37, 5.0):
                left, right = modes.boundary_residual(scheme, cav, n, t)
                scale = modes.mode(scheme, cav, n).normalization
                worst = max(worst, abs(left) / scale, abs(right) / scale)
    out.append(_result("modes: dirichlet walls", worst <= 1e-12, f"max |u(wall)|/N = {worst:.2e}"))

    rng = np.random.default_rng(20240517)
    worst = 0.0
    for scheme in Scheme:
        for v in (0.0, 0.3 if scheme.is_galilean else 0.9):
            cav = Cavity1D(1.0, v)
            for n in (1, 3, 10):
                u = modes.mode(scheme, cav, n)
                left, right = cav.walls(scheme, 0.21)
                xs = left + (right - left) * rng.uniform(0.01, 0.99, size=25)
                for x in xs:
                    r = modes.kg_residual(scheme, cav, n, 0.21, float(x))
                    scale = abs(u.d2_dt2(0.21, float(x))) + abs(u.d2_dx2(0.21, float(x)))
                    worst = max(worst, r / max(scale, 1e-300))
    out.append(_result("modes: field equation", worst <= 1e-9, f"max relative residual = {worst:.2e}"))

    worst_off = 0.0
    worst_shift = 0.0
    for scheme in Scheme:
        v = 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        g1 = modes.gram_matrix(scheme, cav, 10, 0.0)
        g2 = modes.gram_matrix(scheme, cav, 10, 0.37)
        worst_off = max(
            worst_off,
            float(np.max(np.abs(g1 - np.eye(10)))),
            float(np.max(np.abs(g2 - np.eye(10)))),
        )
        worst_shift = max(worst_shift, float(np.max(np.abs(g1 - g2))))
    out.append(_result("modes: orthonormality (conserved pairing)", worst_off <= 1e-8,
                       f"max |G - I| = {worst_off:.2e}"))
    out.append(_result("modes: gram time-translation", worst_shift <= 2e-8,
                       f"max |G(t1) - G(t2)| = {worst_shift:.2e}"))

    cav0 = Cavity1D(1.0, 0.0)
    worst = 0.0
    xs = np.linspace(0.05, 0.95, 7)
    for n in (1, 2, 5):
        vals = [modes.mode(s, cav0, n).value(0.13, xs) for s in Scheme]
        for a in vals[1:]:
            worst = max(worst, float(np.max(np.abs(a - vals[0]))))
    out.append(_result("modes: static reduction", worst <= 1e-12,
                       f"max pointwise scheme spread at v=0: {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------
# stress
# ---------------------------------------------------------------------------

def _checks_stress(convention: StressConvention) -> list[CheckResult]:
    out = []
    worst = 0.0
    for scheme in Scheme:
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        samples = [stress.per_mode_em(scheme, cav, 3, t, convention=convention)
                   for t in (0.0, 0.37, 0.7, 5.0)]
        es = np.array([s.energy for s in samples])
        ps = np.array([s.momentum for s in samples])
        worst = max(worst, float(np.ptp(es) / np.max(np.abs(es))))
        if np.max(np.abs(ps)) > 0:
            worst = max(worst, float(np.ptp(ps) / np.max(np.abs(ps))))
    out.append(_result("stress: time independence", worst < 1e-9, f"max relative spread = {worst:.2e}"))

    worst = 0.0
    for scheme in Scheme:
        cav = Cavity1D(1.0, 0.0)
        for n in (1, 5):
            pm = stress.per_mode_em(scheme, cav, n, 0.0, convention=convention)
            w = n * math.pi
            worst = max(worst, abs(pm.energy - w / 2) / (w / 2), abs(pm.momentum) / (w / 2))
    pm2 = stress.per_mode_em_2d(Cavity2D(1.0, 1.0, 0.0), 1, 1, 0.0, convention=convention)
    w11 = math.pi * math.sqrt(2.0)
    worst = max(worst, abs(pm2.energy - w11 / 2) / (w11 / 2), abs(pm2.momentum) / (w11 / 2))
    out.append(_result("stress: static limit e=w/2, p=0", worst <= 1e-10, f"max deviation = {worst:.2e}"))

    worst = 0.0
    for scheme in Scheme:
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        [fit] = stress.coefficient_fits(scheme, (v,), 6, (0.0, 0.37), convention=convention)
        worst = max(worst, fit.n_dispersion, fit.t_dispersion)
    out.append(_result("stress: per-mode proportionality to w_n", worst <= 1e-8,
                       f"max dispersion = {worst:.2e}"))

    worst_e = 0.0
    worst_p = 0.0
    cases = [(Scheme.LORENTZ_EXACT, (0.3, 0.6, 0.9)), (Scheme.GALILEO_COMOVING_PRIOR, (0.05, 0.1, 0.2))]
    for scheme, vs in cases:
        fits = stress.coefficient_fits(scheme, vs, 5, (0.0, 0.5), convention=convention)
        for v, fit in zip(vs, fits):
            ce, cp = stress.per_mode_coefficients(scheme, v)
            worst_e = max(worst_e, abs(fit.c_energy - ce) / ce)
            worst_p = max(worst_p, abs(fit.c_momentum - cp) / abs(cp))
    out.append(_result("stress: energy law (exact contraction and comoving-prior)",
                       worst_e <= 1e-9, f"max relative error = {worst_e:.2e}"))
    out.append(_result("stress: momentum law (exact contraction and comoving-prior)",
                       worst_p <= 1e-9, f"max relative error = {worst_p:.2e}"))

    worst = 0.0
    for scheme in Scheme:
        for v in (0.15, 0.45 if scheme is Scheme.LORENTZ_EXACT else 0.25):
            plus, minus = stress.coefficient_fits(scheme, (v, -v), 4, (0.0, 0.3),
                                                  convention=convention)
            worst = max(worst, abs(plus.c_energy - minus.c_energy),
                        abs(plus.c_momentum + minus.c_momentum))
    out.append(_result("stress: parity (E even, P odd in v)", worst <= 1e-9,
                       f"max parity violation = {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------
# regsum
# ---------------------------------------------------------------------------

def _checks_regsum(convention: StressConvention) -> list[CheckResult]:
    out = []
    worst = 0.0
    for length in (0.5, 1.0, 2.0):
        exact = observables.static_m0(length)
        cut = observables.static_m0(length, RegConfig.cutoff())
        ap = observables.static_m0(length, RegConfig.abel_plana())
        worst = max(worst, abs(cut - exact) / abs(exact), abs(ap - exact) / abs(exact))
    out.append(_result("regsum: regulator universality on m0(L)", worst <= 1e-6,
                       f"max relative spread = {worst:.2e}"))

    config = RegConfig.cutoff()
    c = regsum.Linear1DSummand(math.pi, weight=1.0)        # c_n = n on w_n = n
    d = regsum.Linear1DSummand(math.pi / 2.0, weight=1.0)  # d_n = 2n on w_n = 2n

    class _Combined:
        omega_min = c.omega_min
        divergent_powers = c.divergent_powers

        def blocks(self, omega_cap):
            for coeff, w in c.blocks(omega_cap):
                yield 2.0 * coeff, w
            for coeff, w in d.blocks(omega_cap):
                yield 3.0 * coeff, w

    fc = cutoff_finite_part(c, config)
    fd = cutoff_finite_part(d, config)
    fm = cutoff_finite_part(_Combined(), config)
    lin_err = abs(fm.value - (2.0 * fc.value + 3.0 * fd.value))
    budget = fm.error_estimate + 2.0 * fc.error_estimate + 3.0 * fd.error_estimate
    out.append(_result("regsum: linearity of the finite part", lin_err <= max(budget, 1e-12),
                       f"|FP(2c+3d) - 2FP(c) - 3FP(d)| = {lin_err:.2e} (budget {budget:.2e})"))

    finite = SequenceSummand(np.ones(10), np.arange(1.0, 11.0))
    fp = cutoff_finite_part(finite, config)
    div = max((abs(x) for x in fp.fitted_divergent_coeffs), default=0.0)
    ok = abs(fp.value - 10.0) <= 1e-10 and div <= 1e-8
    out.append(_result("regsum: convergent pass-through", ok,
                       f"value error {abs(fp.value - 10.0):.2e}, max divergent coeff {div:.2e}"))

    summand = regsum.Linear1DSummand(1.0, weight=0.5)
    full = cutoff_finite_part(summand, config)
    halved = cutoff_finite_part(summand, config.halved())
    shift = abs(halved.value - full.value)
    ok = shift < 5.0 * max(full.error_estimate, 1e-15)
    detail_1d = f"1D shift {shift:.2e} vs 5x error {5.0 * full.error_estimate:.2e}"

    square = Cavity2D(1.0, 1.0, 0.0)
    cfg2 = rect2d.default_config()
    p_full = rect2d.finite_parts(square, cfg2)
    p_half = rect2d.finite_parts(square, cfg2.halved())
    shift2 = abs(p_half.S_omega.value - p_full.S_omega.value)
    ok2 = shift2 < 5.0 * max(p_full.S_omega.error_estimate, 1e-15)
    out.append(_result("regsum: schedule robustness", ok and ok2,
                       f"{detail_1d}; 2D shift {shift2:.2e} vs 5x error "
                       f"{5.0 * p_full.S_omega.error_estimate:.2e}"))

    # Weyl area and perimeter terms, the (eps^-3, eps^-2) coefficients of each damped sum
    a, b = square.proper_length_x, square.proper_length_y
    weyl = {
        "U": (3.0 * a * b / (8.0 * math.pi), -(2.0 * a + b) / (8.0 * math.pi)),
        "W": (a * b / (8.0 * math.pi), -b / (8.0 * math.pi)),
        "S_omega": (a * b / (2.0 * math.pi), -(a + b) / (4.0 * math.pi)),
        "S_k": (a * b / (4.0 * math.pi), -a / (4.0 * math.pi)),
    }
    worst = max(abs(fitted - exact) / abs(exact) for name, terms in weyl.items()
                for fitted, exact in zip(getattr(p_full, name).fitted_divergent_coeffs, terms))
    out.append(_result("regsum: fitted divergences are the Weyl area and perimeter terms",
                       worst <= 1e-8, f"square: max relative deviation = {worst:.2e}"))

    wide = Cavity2D(1.0, 20.0, 0.0)
    p_wide = rect2d.finite_parts(wide, cfg2)
    for suffix, label, cavity, cutoff in (("", "square", square, p_full),
                                          (" at b/a = 20", "a = 1, b = 20", wide, p_wide)):
        exact = rect2d.finite_parts(cavity)
        worst = 0.0
        for name in ("U", "W", "S_omega", "S_k"):
            cut, ref = getattr(cutoff, name), getattr(exact, name)
            worst = max(worst, abs(cut.value - ref.value) / (cut.error_estimate + ref.error_estimate))
        out.append(_result("regsum: cutoff fit agrees with the Chowla-Selberg closed form" + suffix,
                           worst <= 1.0, f"{label}: max |cutoff - exact| / error = {worst:.2f}"))
    return out


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _checks_observables(convention: StressConvention) -> list[CheckResult]:
    out = []
    m0 = observables.static_m0(1.0)
    worst = 0.0
    for v in np.arange(0.0, 0.951, 0.05):
        cav = Cavity1D(1.0, float(v))
        for route in (Route.CLOSED_FORM, Route.PER_MODE_NUMERIC):
            em = observables.boosted_em(Scheme.LORENTZ_EXACT, cav, route)
            worst = max(worst, abs(observables.mass_shell_residual(em, m0)) / m0**2)
    out.append(_result("observables: mass-shell identity (exact contraction)",
                       worst <= 1e-10, f"max |E^2-P^2-m0^2|/m0^2 = {worst:.2e}"))

    worst = 0.0
    for scheme, vs in [(Scheme.LORENTZ_EXACT, (0.2, 0.6, 0.9)),
                       (Scheme.GALILEO_COMOVING_PRIOR, (0.05, 0.2))]:
        for v in vs:
            cmp_ = observables.route_comparison(scheme, Cavity1D(1.0, v))
            worst = max(worst, cmp_.rel_diff_energy, cmp_.rel_diff_momentum)
    out.append(_result("observables: route agreement", worst <= 1e-8,
                       f"max relative route spread = {worst:.2e}"))

    v = 0.05
    e_lab = observables.closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, v)[0]
    e_com = observables.closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, v)[0]
    ratio = (e_lab - 1.0) / (e_com - 1.0)
    out.append(_result("observables: galilean energy-excess mismatch ratio ~ 4",
                       3.9 <= ratio <= 4.1, f"ratio at v=0.05: {ratio:.6f}"))

    small = 0.01
    p_ratio = (observables.closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, small)[1]
               / observables.closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, small)[1])
    out.append(_result("observables: galilean momentum ratio -> 1",
                       abs(p_ratio - 1.0) <= 2e-4, f"ratio at v=0.01: {p_ratio:.8f}"))

    em = observables.boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.99), Route.CLOSED_FORM)
    out.append(_result("observables: divergence as v -> 1",
                       abs(em.energy) > 50.0 * abs(m0), f"|E(0.99)/m0| = {abs(em.energy / m0):.1f}"))

    worst = 0.0
    for scheme in Scheme:
        for route in (Route.CLOSED_FORM, Route.PER_MODE_NUMERIC):
            plus = observables.boosted_em(scheme, Cavity1D(1.0, 0.3), route)
            minus = observables.boosted_em(scheme, Cavity1D(1.0, -0.3), route)
            worst = max(worst, abs(plus.energy - minus.energy) / abs(plus.energy),
                        abs(plus.momentum + minus.momentum) / max(abs(plus.momentum), 1e-300))
    out.append(_result("observables: parity of E and P", worst <= 1e-9,
                       f"max parity violation = {worst:.2e}"))

    energy, slope = observables.em_plate_energy_per_area(1.0)
    out.append(_result("observables: plate energy signs", energy < 0.0 < slope,
                       f"E/A = {energy:.6g}, dE/da = {slope:.6g}"))
    return out


# ---------------------------------------------------------------------------
# rect2d
# ---------------------------------------------------------------------------

def _checks_rect2d(convention: StressConvention) -> list[CheckResult]:
    out = []
    worst = 0.0
    for v in (0.0, 0.3, 0.6):
        cav = Cavity2D(1.0, 1.5, v)
        for n in (1, 3):
            for m in (1, 2):
                pm = stress.per_mode_em_2d(cav, n, m, 0.2, convention=convention)
                e_law, p_law = stress.per_mode_em_2d_law(cav, n, m)
                worst = max(worst, abs(pm.energy - e_law) / e_law,
                            abs(pm.momentum - p_law) / max(abs(p_law), 1.0))
    out.append(_result("rect2d: per-mode coefficient law", worst <= 1e-9,
                       f"max relative deviation = {worst:.2e}"))

    square = Cavity2D(1.0, 1.0, 0.0)
    parts = rect2d.finite_parts(square)
    res0 = rect2d.boosted_em_2d(square, rect2d.Route2D.PER_MODE, parts=parts)
    static_gap = abs(res0.energy - res0.static_energy)
    budget = 2.0 * (res0.energy_error + parts.S_omega.error_estimate)
    ok = static_gap <= max(budget, 1e-12) and res0.momentum == 0.0
    out.append(_result("rect2d: static limit of the per-mode route", ok,
                       f"|E_s(0) - E_m| = {static_gap:.2e} (budget {budget:.2e}), P_s(0) = {res0.momentum:g}"))

    rows = rect2d.mass_shell_probe_2d(square, (0.3, 0.6), rect2d.Route2D.PER_MODE, parts=parts)
    worst = max(abs(r.residual - r.predicted_residual) for r in rows)
    # measured and predicted differ only through the correlated fit noise of
    # the finite parts; budget by the propagated part errors
    e_m = parts.S_omega.value
    prop = 4.0 * abs(e_m) * (
        parts.U.error_estimate + parts.W.error_estimate + parts.S_omega.error_estimate
    )
    out.append(_result("rect2d: shell residual matches 2(g^2(1+v^2)-1)UW",
                       worst <= max(prop, 1e-14),
                       f"max |measured - predicted| = {worst:.2e} (budget {prop:.2e})"))

    tall = Cavity2D(1.0, 2.0, 0.0)
    wide = Cavity2D(2.0, 1.0, 0.0)
    em_tall = rect2d.static_energy_2d(tall)
    em_wide = rect2d.static_energy_2d(wide)
    sym_gap = abs(em_tall.value - em_wide.value)
    sym_budget = em_tall.error_estimate + em_wide.error_estimate
    moving_tall = rect2d.boosted_em_2d(Cavity2D(1.0, 2.0, 0.5))
    moving_wide = rect2d.boosted_em_2d(Cavity2D(2.0, 1.0, 0.5))
    boost_gap = abs(moving_tall.energy - moving_wide.energy)
    ok = sym_gap <= max(5.0 * sym_budget, 1e-10) and boost_gap > 10.0 * (
        moving_tall.energy_error + moving_wide.energy_error
    )
    out.append(_result("rect2d: a<->b symmetry at rest, broken under boost", ok,
                       f"rest gap {sym_gap:.2e}, boosted gap {boost_gap:.4f}"))

    report = rect2d.static_limit_report(square)
    gap = report.entries[0].abs_diff
    ok = gap > 10.0 * parts.S_k.error_estimate
    out.append(_result("rect2d: grouped route fails its static limit (reported)", ok,
                       f"deviation = FP[sum k^2/2w] = {parts.S_k.value:.6g} (error {parts.S_k.error_estimate:.1e})"))
    return out


MODULE_GROUPS: dict[str, Callable[[StressConvention], list[CheckResult]]] = {
    "modes": _checks_modes,
    "stress": _checks_stress,
    "regsum": _checks_regsum,
    "observables": _checks_observables,
    "rect2d": _checks_rect2d,
}


def run_checks(
    only: str | None = None,
    convention: StressConvention = DEFAULT_CONVENTION,
) -> list[CheckResult]:
    """Run the invariant suite, optionally restricted to one module group."""
    if only is not None and only not in MODULE_GROUPS:
        raise ValueError(f"unknown module {only!r}; options: {sorted(MODULE_GROUPS)}")
    groups = [only] if only else list(MODULE_GROUPS)
    results: list[CheckResult] = []
    for name in groups:
        results.extend(MODULE_GROUPS[name](convention))
    return results
