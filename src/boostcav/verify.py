"""Runtime verification suite backing the `verify` CLI subcommand.

Each check re-derives one of the package's quantitative invariants from
scratch and reports pass/fail with a numeric detail string. Run inside
stress._injected_fault, as `verify --inject-*` runs it, the suite is its own
negative control: every group sees the wrong stress tensor, and the checks
that depend on it must fail.
"""

import math
import random
from typing import Callable, NamedTuple

from . import modes, observables, rect2d, regsum, stress
from .cavity import Cavity1D, Cavity2D, Scheme
from .observables import Route
from .regsum import RegConfig, RegMethod, cutoff_finite_part

__all__ = ["CheckResult", "run_checks", "MODULE_GROUPS"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _checks_modes() -> list[CheckResult]:
    out = []
    worst = 0.0
    for scheme in Scheme:
        v = 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        for n in (1, 7, 23, 50):
            for t in (0.0, 0.37, 5.0):
                left, right = modes.boundary_residual(scheme, cav, n, t)
                scale = modes.SpacetimeMode(scheme, cav, n).normalization
                worst = max(worst, abs(left) / scale, abs(right) / scale)
    out.append(CheckResult("modes: dirichlet walls", worst <= 1e-12,
                           f"max |u(wall)|/N = {worst:.2e}"))

    rng = random.Random(20240517)
    worst = 0.0
    for scheme in Scheme:
        for v in (0.0, 0.3 if scheme.is_galilean else 0.9):
            cav = Cavity1D(1.0, v)
            for n in (1, 3, 10):
                # N (th_t^2 + th_x^2 + s_t^2 + s_x^2) bounds |u_tt| + |u_xx|
                u = modes.SpacetimeMode(scheme, cav, n)
                scale = u.normalization * sum(c * c for c in u._coeffs)
                left, right = cav.walls(scheme, 0.21)
                for _ in range(25):
                    x = left + (right - left) * rng.uniform(0.01, 0.99)
                    worst = max(worst, modes.kg_residual(scheme, cav, n, 0.21, x) / scale)
    out.append(CheckResult("modes: field equation", worst <= 1e-9,
                           f"max relative residual = {worst:.2e}"))

    # each entry within the rounding bound of modes._gram_bound
    worst_off = worst_shift = 0.0
    off_ok = shift_ok = True
    for scheme in Scheme:
        v = 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        g1, g2 = (modes.gram_matrix(scheme, cav, 10, t) for t in (0.0, 0.37))
        b1, b2 = (modes._gram_bound(scheme, cav, 10, t) for t in (0.0, 0.37))
        for i in range(10):
            for k in range(10):
                off1, off2 = abs(g1[i][k] - (i == k)), abs(g2[i][k] - (i == k))
                shift = abs(g1[i][k] - g2[i][k])
                off_ok &= off1 <= b1[i][k] and off2 <= b2[i][k]
                shift_ok &= shift <= b1[i][k] + b2[i][k]
                worst_off = max(worst_off, off1, off2)
                worst_shift = max(worst_shift, shift)
    out.append(CheckResult("modes: orthonormality (conserved pairing)", off_ok,
                           f"max |G - I| = {worst_off:.2e}"))
    out.append(CheckResult("modes: gram time-translation", shift_ok,
                           f"max |G(t1) - G(t2)| = {worst_shift:.2e}"))

    cav0 = Cavity1D(1.0, 0.0)
    worst = 0.0
    xs = [0.05 + 0.15 * i for i in range(7)]
    for n in (1, 2, 5):
        for x in xs:
            vals = [modes.SpacetimeMode(s, cav0, n).value(0.13, x) for s in Scheme]
            worst = max(worst, *(abs(a - vals[0]) for a in vals[1:]))
    out.append(CheckResult("modes: static reduction", worst <= 1e-12,
                           f"max pointwise scheme spread at v=0: {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------
# stress
# ---------------------------------------------------------------------------

def _checks_stress() -> list[CheckResult]:
    out = []
    worst = 0.0
    for scheme in Scheme:
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        # quadrature between the walls of each slice: the closed form has no t to vary
        samples = [stress._density_quadrature(scheme, cav, 3, t) for t in (0.0, 0.37, 0.7, 5.0)]
        for values in zip(*samples):
            largest = max(map(abs, values))
            if largest > 0:
                worst = max(worst, (max(values) - min(values)) / largest)
    out.append(CheckResult("stress: time independence", worst < 1e-9,
                           f"max relative spread = {worst:.2e}"))

    worst = 0.0
    for scheme in Scheme:
        cav = Cavity1D(1.0, 0.0)
        for n in (1, 5):
            pm = stress.per_mode_em(scheme, cav, n)
            w = n * math.pi
            worst = max(worst, abs(pm.energy - w / 2) / (w / 2), abs(pm.momentum) / (w / 2))
    pm2 = stress.per_mode_em_2d(Cavity2D(1.0, 1.0, 0.0), 1, 1)
    w11 = math.pi * math.sqrt(2.0)
    worst = max(worst, abs(pm2.energy - w11 / 2) / (w11 / 2), abs(pm2.momentum) / (w11 / 2))
    out.append(CheckResult("stress: static limit e=w/2, p=0", worst <= 1e-10,
                           f"max deviation = {worst:.2e}"))

    worst = 0.0
    for scheme in Scheme:
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        pms = {n: stress.per_mode_em(scheme, Cavity1D(1.0, v), n) for n in range(1, 7)}
        e_ratios = [pm.energy / (n * math.pi / 2) for n, pm in pms.items()]  # e_n/(w_n/2)
        p_ratios = [pm.momentum / (n * math.pi / 2) for n, pm in pms.items()]
        scale = max(map(abs, e_ratios + p_ratios))
        worst = max(worst, (max(e_ratios) - min(e_ratios)) / scale,
                    (max(p_ratios) - min(p_ratios)) / scale)
    out.append(CheckResult("stress: per-mode proportionality to w_n", worst <= 1e-8,
                           f"max dispersion = {worst:.2e}"))

    worst_e = 0.0
    worst_p = 0.0
    cases = [(Scheme.LORENTZ_EXACT, (0.3, 0.6, 0.9)), (Scheme.GALILEO_COMOVING_PRIOR, (0.05, 0.1, 0.2))]
    for scheme, vs in cases:
        fits = stress.coefficient_fits(scheme, vs)
        for v, (fit_e, fit_p) in zip(vs, fits):
            ce, cp = stress.per_mode_coefficients(scheme, v)
            worst_e = max(worst_e, abs(fit_e - ce) / ce)
            worst_p = max(worst_p, abs(fit_p - cp) / abs(cp))
    out.append(CheckResult("stress: energy law (exact contraction and comoving-prior)",
                           worst_e <= 1e-9, f"max relative error = {worst_e:.2e}"))
    out.append(CheckResult("stress: momentum law (exact contraction and comoving-prior)",
                           worst_p <= 1e-9, f"max relative error = {worst_p:.2e}"))

    worst = 0.0
    for scheme in Scheme:
        for v in (0.15, 0.45 if scheme is Scheme.LORENTZ_EXACT else 0.25):
            (e_plus, p_plus), (e_minus, p_minus) = stress.coefficient_fits(scheme, (v, -v))
            worst = max(worst, abs(e_plus - e_minus), abs(p_plus + p_minus))
    out.append(CheckResult("stress: parity (E even, P odd in v)", worst <= 1e-9,
                           f"max parity violation = {worst:.2e}"))

    # the route's quadrature against the closed form, at the velocities above;
    # momentum is measured on the energy scale, as it vanishes at v = 0
    worst = 0.0
    for scheme in Scheme:
        vs = ((0.0, 0.15, -0.15, 0.3, 0.45, -0.45, 0.6, 0.9) if scheme is Scheme.LORENTZ_EXACT
              else (0.0, 0.05, 0.1, 0.15, -0.15, 0.2, 0.25, -0.25))
        for v, (fit_e, fit_p) in zip(vs, stress.coefficient_fits(scheme, vs)):
            pm = stress.per_mode_em(scheme, Cavity1D(1.0, v), 1)
            c_e, c_p = pm.energy / (math.pi / 2.0), pm.momentum / (math.pi / 2.0)
            worst = max(worst, abs(fit_e - c_e) / abs(c_e),
                        abs(fit_p - c_p) / max(abs(c_p), abs(c_e)))
    out.append(CheckResult("stress: per-mode route's first-mode quadrature matches the closed form",
                           worst <= 1e-13, f"max relative difference = {worst:.2e}"))

    # quadrature as the closed form's oracle beyond the first mode and the t = 0 slice;
    # e >= |p|, so e scales both differences
    worst = 0.0
    for scheme in Scheme:
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        for n in (2, 5):
            cavity = Cavity1D(1.0, v)
            e, p = stress._density_quadrature(scheme, cavity, n, 0.37)
            pm = stress.per_mode_em(scheme, cavity, n)
            worst = max(worst, abs(pm.energy - e) / abs(e), abs(pm.momentum - p) / abs(e))
    out.append(CheckResult(
        "stress: closed form matches Gauss-Legendre of the densities at t = 0.37",
        worst <= 1e-12, f"max relative difference = {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------
# regsum
# ---------------------------------------------------------------------------

def _checks_regsum() -> list[CheckResult]:
    out = []
    worst = 0.0
    for length in (0.5, 1.0, 2.0):
        exact = observables.static_m0(length)
        cut = observables.static_m0(length, RegConfig.cutoff())
        ap = observables.static_m0(length, RegConfig(RegMethod.ABEL_PLANA))
        worst = max(worst, abs(cut - exact) / abs(exact), abs(ap - exact) / abs(exact))
    out.append(CheckResult("regsum: regulator universality on m0(L)", worst <= 1e-6,
                           f"max relative spread = {worst:.2e}"))

    config = RegConfig.cutoff()
    c = regsum.Linear1DSummand(math.pi, weight=1.0)        # c_n = n on w_n = n
    d = regsum.Linear1DSummand(math.pi / 2.0, weight=1.0)  # d_n = 2n on w_n = 2n

    class _Combined:
        omega_min = c.omega_min
        divergent_powers = c.divergent_powers

        def damped_sums(self, eps):
            [sums_c], [sums_d] = c.damped_sums(eps), d.damped_sums(eps)
            return [[2.0 * sc + 3.0 * sd for sc, sd in zip(sums_c, sums_d)]]

    [fc] = cutoff_finite_part(c, config)
    [fd] = cutoff_finite_part(d, config)
    [fm] = cutoff_finite_part(_Combined(), config)
    lin_err = abs(fm.value - (2.0 * fc.value + 3.0 * fd.value))
    budget = fm.error_estimate + 2.0 * fc.error_estimate + 3.0 * fd.error_estimate
    out.append(CheckResult("regsum: linearity of the finite part", lin_err <= max(budget, 1e-12),
                           f"|FP(2c+3d) - 2FP(c) - 3FP(d)| = {lin_err:.2e} (budget {budget:.2e})"))

    class _Convergent:  # c minus its eps^-2 divergence: G_1(x) - 1/x^2 -> -1/12
        omega_min = c.omega_min
        divergent_powers = c.divergent_powers

        def damped_sums(self, eps):
            return [[s - 1.0 / e / e for s, e in zip(c.damped_sums(eps)[0], eps)]]

    [fp] = cutoff_finite_part(_Convergent(), config)
    div = max(map(abs, fp.fitted_divergent_coeffs))
    err = abs(fp.value + 1.0 / 12.0)
    ok = err <= fp.error_estimate and div <= 1e-8
    out.append(CheckResult("regsum: convergent pass-through", ok,
                           f"value error {err:.2e}, max divergent coeff {div:.2e}"))

    summand = regsum.Linear1DSummand(1.0, weight=0.5)
    [full] = cutoff_finite_part(summand, config)
    [halved] = cutoff_finite_part(summand, config.halved())
    shift = abs(halved.value - full.value)
    ok = shift < 5.0 * max(full.error_estimate, 1e-15)
    detail_1d = f"1D shift {shift:.2e} vs 5x error {5.0 * full.error_estimate:.2e}"

    square = Cavity2D(1.0, 1.0, 0.0)
    cfg2 = rect2d.default_config()
    p_full = rect2d.finite_parts(square, cfg2)
    p_half = rect2d.finite_parts(square, cfg2.halved())
    shift2 = abs(p_half.S_omega.value - p_full.S_omega.value)
    ok2 = shift2 < 5.0 * max(p_full.S_omega.error_estimate, 1e-15)
    out.append(CheckResult("regsum: schedule robustness", ok and ok2,
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
    out.append(CheckResult("regsum: fitted divergences are the Weyl area and perimeter terms",
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
        out.append(CheckResult(
            "regsum: cutoff fit agrees with the Chowla-Selberg closed form" + suffix,
            worst <= 1.0, f"{label}: max |cutoff - exact| / error = {worst:.2f}"))
    return out


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _checks_observables() -> list[CheckResult]:
    out = []
    m0 = observables.static_m0(1.0)
    worst = 0.0
    for v in [i * 0.05 for i in range(20)]:  # 0, 0.05, ..., 0.95
        cav = Cavity1D(1.0, v)
        for route in (Route.CLOSED_FORM, Route.PER_MODE_NUMERIC):
            em = observables.boosted_em(Scheme.LORENTZ_EXACT, cav, route, m0=m0)
            worst = max(worst, abs(observables.mass_shell_residual(em, m0)) / m0**2)
    out.append(CheckResult("observables: mass-shell identity (exact contraction)",
                           worst <= 1e-10, f"max |E^2-P^2-m0^2|/m0^2 = {worst:.2e}"))

    worst = 0.0
    for scheme, vs in [(Scheme.LORENTZ_EXACT, (0.2, 0.6, 0.9)),
                       (Scheme.GALILEO_COMOVING_PRIOR, (0.05, 0.2))]:
        for v in vs:
            cmp_ = observables.route_comparison(scheme, Cavity1D(1.0, v))
            worst = max(worst, cmp_.rel_diff_energy, cmp_.rel_diff_momentum)
    out.append(CheckResult("observables: route agreement", worst <= 1e-8,
                           f"max relative route spread = {worst:.2e}"))

    v = 0.05
    e_lab = observables.closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, v)[0]
    e_com = observables.closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, v)[0]
    ratio = (e_lab - 1.0) / (e_com - 1.0)
    out.append(CheckResult("observables: galilean energy-excess mismatch ratio ~ 4",
                           3.9 <= ratio <= 4.1, f"ratio at v=0.05: {ratio:.6f}"))

    small = 0.01
    p_ratio = (observables.closed_form_coefficients(Scheme.GALILEO_LAB_PRIOR, small)[1]
               / observables.closed_form_coefficients(Scheme.GALILEO_COMOVING_PRIOR, small)[1])
    out.append(CheckResult("observables: galilean momentum ratio -> 1",
                           abs(p_ratio - 1.0) <= 2e-4, f"ratio at v=0.01: {p_ratio:.8f}"))

    em = observables.boosted_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.99), Route.CLOSED_FORM,
                                 m0=m0)
    out.append(CheckResult("observables: divergence as v -> 1", abs(em.energy) > 50.0 * abs(m0),
                           f"|E(0.99)/m0| = {abs(em.energy / m0):.1f}"))

    worst = 0.0
    for scheme in Scheme:
        for route in (Route.CLOSED_FORM, Route.PER_MODE_NUMERIC):
            plus = observables.boosted_em(scheme, Cavity1D(1.0, 0.3), route, m0=m0)
            minus = observables.boosted_em(scheme, Cavity1D(1.0, -0.3), route, m0=m0)
            worst = max(worst, abs(plus.energy - minus.energy) / abs(plus.energy),
                        abs(plus.momentum + minus.momentum) / max(abs(plus.momentum), 1e-300))
    out.append(CheckResult("observables: parity of E and P", worst <= 1e-9,
                           f"max parity violation = {worst:.2e}"))

    energy, slope = observables.em_plate_energy_per_area(1.0)
    out.append(CheckResult("observables: plate energy signs", energy < 0.0 < slope,
                           f"E/A = {energy:.6g}, dE/da = {slope:.6g}"))
    return out


# ---------------------------------------------------------------------------
# rect2d
# ---------------------------------------------------------------------------

def _checks_rect2d() -> list[CheckResult]:
    out = []
    worst = 0.0
    for v in (0.0, 0.3, 0.6):
        cav = Cavity2D(1.0, 1.5, v)
        for n in (1, 3):
            for m in (1, 2):
                pm = stress.per_mode_em_2d(cav, n, m)
                e_law, p_law = stress.per_mode_em_2d_law(cav, n, m)
                worst = max(worst, abs(pm.energy - e_law) / e_law,
                            abs(pm.momentum - p_law) / max(abs(p_law), 1.0))
    out.append(CheckResult("rect2d: per-mode coefficient law", worst <= 1e-9,
                           f"max relative deviation = {worst:.2e}"))

    square = Cavity2D(1.0, 1.0, 0.0)
    parts = rect2d.finite_parts(square)
    res0 = rect2d.boosted_em_2d(square, rect2d.Route2D.PER_MODE)
    static_gap = abs(res0.energy - parts.S_omega.value)
    budget = 2.0 * (res0.energy_error + parts.S_omega.error_estimate)
    ok = static_gap <= max(budget, 1e-12) and res0.momentum == 0.0
    out.append(CheckResult("rect2d: static limit of the per-mode route", ok,
                           f"|E_s(0) - E_m| = {static_gap:.2e} (budget {budget:.2e}), "
                           f"P_s(0) = {res0.momentum:g}"))

    rows = rect2d.mass_shell_probe_2d(square, (0.3, 0.6))
    worst = max(abs(r.residual - r.predicted_residual) for r in rows)
    # measured and predicted differ only through the correlated fit noise of
    # the finite parts; budget by the propagated part errors
    e_m = parts.S_omega.value
    prop = 4.0 * abs(e_m) * (
        parts.U.error_estimate + parts.W.error_estimate + parts.S_omega.error_estimate
    )
    out.append(CheckResult("rect2d: shell residual matches 2(g^2(1+v^2)-1)UW",
                           worst <= max(prop, 1e-14),
                           f"max |measured - predicted| = {worst:.2e} (budget {prop:.2e})"))

    tall = Cavity2D(1.0, 2.0, 0.0)
    wide = Cavity2D(2.0, 1.0, 0.0)
    em_tall = rect2d.finite_parts(tall).S_omega
    em_wide = rect2d.finite_parts(wide).S_omega
    sym_gap = abs(em_tall.value - em_wide.value)
    sym_budget = em_tall.error_estimate + em_wide.error_estimate
    moving_tall = rect2d.boosted_em_2d(Cavity2D(1.0, 2.0, 0.5))
    moving_wide = rect2d.boosted_em_2d(Cavity2D(2.0, 1.0, 0.5))
    boost_gap = abs(moving_tall.energy - moving_wide.energy)
    ok = sym_gap <= max(5.0 * sym_budget, 1e-10) and boost_gap > 10.0 * (
        moving_tall.energy_error + moving_wide.energy_error
    )
    out.append(CheckResult("rect2d: a<->b symmetry at rest, broken under boost", ok,
                           f"rest gap {sym_gap:.2e}, boosted gap {boost_gap:.4f}"))

    report = rect2d.static_limit_report(square)
    gap = report.entries[0].abs_diff
    ok = gap > 10.0 * parts.S_k.error_estimate
    out.append(CheckResult("rect2d: grouped route fails its static limit (reported)", ok,
                           f"deviation = FP[sum k^2/2w] = {parts.S_k.value:.6g} "
                           f"(error {parts.S_k.error_estimate:.1e})"))
    return out


MODULE_GROUPS: dict[str, Callable[[], list[CheckResult]]] = {
    "modes": _checks_modes,
    "stress": _checks_stress,
    "regsum": _checks_regsum,
    "observables": _checks_observables,
    "rect2d": _checks_rect2d,
}


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the invariant suite, optionally restricted to one module group."""
    if only is not None and only not in MODULE_GROUPS:
        raise ValueError(f"unknown module {only!r}; options: {sorted(MODULE_GROUPS)}")
    groups = [only] if only else list(MODULE_GROUPS)
    results: list[CheckResult] = []
    for name in groups:
        results.extend(MODULE_GROUPS[name]())
    return results
