import importlib

import pytest

from boostcav import stress
from boostcav.reports import DiscrepancyEntry, DiscrepancyReport
from boostcav.verify import MODULE_GROUPS, run_checks


def test_module_groups_cover_every_package_module():
    assert set(MODULE_GROUPS) == {"modes", "stress", "regsum", "observables", "rect2d"}


@pytest.mark.parametrize("group", sorted(MODULE_GROUPS))
def test_groups_pass_without_a_fault(group):
    results = run_checks(group)
    assert results
    assert all(type(r.passed) is bool for r in results)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        run_checks("plasma")


STATIC_LIMIT = "stress: static limit e=w/2, p=0"
ENERGY_LAW = "stress: energy law (exact contraction and comoving-prior)"
MOMENTUM_LAW = "stress: momentum law (exact contraction and comoving-prior)"
RECT2D_LAW = "rect2d: per-mode coefficient law"
MASS_SHELL = "observables: mass-shell identity (exact contraction)"
ROUTE_AGREEMENT = "observables: route agreement"

# the four faults `verify --inject-*` can spell, as stress._injected_fault's arguments:
# (the checks the full suite fails, the checks among them that call per_mode_em,
# per_mode_em_2d or coefficient_fits themselves)
FAULT_REACH = {
    (1.0, "doubled"): ({STATIC_LIMIT, ENERGY_LAW, MOMENTUM_LAW, RECT2D_LAW, MASS_SHELL,
                        ROUTE_AGREEMENT},
                       {STATIC_LIMIT, ENERGY_LAW, MOMENTUM_LAW, RECT2D_LAW}),
    (1.0, "lab-phase"): ({ENERGY_LAW, MOMENTUM_LAW, RECT2D_LAW, MASS_SHELL, ROUTE_AGREEMENT},
                         {ENERGY_LAW, MOMENTUM_LAW, RECT2D_LAW}),
    # E^2 - P^2 is even in P, so the mass shell cannot see the sign
    (-1.0, None): ({MOMENTUM_LAW, RECT2D_LAW, ROUTE_AGREEMENT}, {MOMENTUM_LAW, RECT2D_LAW}),
    (-1.0, "lab-phase"): ({ENERGY_LAW, MOMENTUM_LAW, RECT2D_LAW, MASS_SHELL, ROUTE_AGREEMENT},
                          {ENERGY_LAW, MOMENTUM_LAW, RECT2D_LAW}),
}


@pytest.mark.parametrize("fault", list(FAULT_REACH), ids=str)
def test_fault_reaches_every_group(fault):
    failing, stress_only = FAULT_REACH[fault]
    with stress._injected_fault(*fault):
        results = run_checks()
    assert all(type(r.passed) is bool for r in results)
    assert {r.name for r in results if not r.passed} == failing
    assert stress_only <= failing


FIRST_MODE = "stress: per-mode route's first-mode quadrature matches the closed form"
DENSITIES = "stress: closed form matches Gauss-Legendre of the densities at t = 0.37"
RECT2D_STATIC = "rect2d: static limit of the per-mode route"
RECT2D_SHELL = "rect2d: shell residual matches 2(g^2(1+v^2)-1)UW"
MODES_STATIC = "modes: static reduction"

UNIVERSALITY = "regsum: regulator universality on m0(L)"

# a kernel scaled by 1 + 1e-9 at every module binding of its name: the checks the full suite fails
KERNEL_DEFECTS = {
    ("_light_cone", ("cavity", "modes", "stress")): {
        MODES_STATIC, STATIC_LIMIT, RECT2D_STATIC, RECT2D_SHELL, MASS_SHELL},
    ("_closed_form", ("stress",)): {STATIC_LIMIT, FIRST_MODE, DENSITIES, RECT2D_LAW},
    ("per_mode_coefficients", ("stress", "rect2d", "observables")): {
        ENERGY_LAW, MOMENTUM_LAW, RECT2D_LAW, RECT2D_STATIC, RECT2D_SHELL, MASS_SHELL},
    ("closed_form_coefficients", ("observables",)): {MASS_SHELL},
    ("gauss_legendre", ("quadrature", "stress", "regsum")): {FIRST_MODE, DENSITIES, ENERGY_LAW,
                                                             MOMENTUM_LAW, MASS_SHELL,
                                                             UNIVERSALITY},
    ("_geometric", ("regsum", "rect2d")): {"regsum: convergent pass-through", UNIVERSALITY},
    ("zeta_linear_sum", ("regsum", "observables")): {UNIVERSALITY},
    ("abel_plana_m0", ("regsum", "observables")): {UNIVERSALITY},
}


def _scaled(result):
    """A kernel's result times 1 + 1e-9: a float, a tuple of floats, or a PerModeEM's e and p."""
    if isinstance(result, stress.PerModeEM):
        return result._replace(energy=result.energy * (1.0 + 1e-9),
                               momentum=result.momentum * (1.0 + 1e-9))
    if isinstance(result, tuple):
        return tuple(x * (1.0 + 1e-9) for x in result)
    return result * (1.0 + 1e-9)


@pytest.mark.parametrize("kernel", list(KERNEL_DEFECTS), ids=lambda kernel: kernel[0])
def test_kernel_defect_fails_its_checks(kernel, monkeypatch):
    name, modules = kernel
    for module in modules:
        module = importlib.import_module(f"boostcav.{module}")
        kernel_fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, f=kernel_fn, **kw: _scaled(f(*args, **kw)))
    assert {r.name for r in run_checks() if not r.passed} == KERNEL_DEFECTS[kernel]


def test_fault_is_gone_after_an_exception():
    with pytest.raises(ZeroDivisionError):
        with stress._injected_fault(-1.0, "doubled"):
            1 / 0
    assert all(r.passed for r in run_checks("stress"))


def test_unknown_prefactor_rule_rejected():
    with pytest.raises(ValueError):
        with stress._injected_fault(prefactor="halved"):
            pass


def test_time_independence_sees_a_drifting_slice(monkeypatch):
    # a per-slice quadrature that drifts by 1e-6 t must fail the check
    quadrature = stress._density_quadrature

    def drifting(scheme, cavity, n, t):
        e, p = quadrature(scheme, cavity, n, t)
        return e * (1.0 + 1e-6 * t), p * (1.0 + 1e-6 * t)

    monkeypatch.setattr(stress, "_density_quadrature", drifting)
    [check] = [r for r in run_checks("stress") if r.name == "stress: time independence"]
    assert not check.passed


def test_discrepancy_report_arithmetic():
    report = DiscrepancyReport(
        title="t", label_a="a", label_b="b",
        entries=(DiscrepancyEntry("x", 2.0, 1.0), DiscrepancyEntry("y", 1.0, 1.0)),
        note="n",
    )
    assert report.entries[0].abs_diff == 1.0
    assert report.entries[0].rel_diff == 0.5
    text = "\n".join(report.lines())
    assert "x: A=2" in text and "note: n" in text
