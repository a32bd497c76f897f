import pytest

from boostcav import stress
from boostcav.reports import DiscrepancyEntry, DiscrepancyReport
from boostcav.stress import PrefactorRule, StressConvention
from boostcav.verify import MODULE_GROUPS, run_checks


def test_module_groups_cover_every_package_module():
    assert set(MODULE_GROUPS) == {"modes", "stress", "regsum", "observables", "rect2d"}


@pytest.mark.parametrize("group", ["modes", "regsum", "observables"])
def test_groups_pass_under_default_convention(group):
    results = run_checks(group)
    assert results
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        run_checks("plasma")


def test_sign_flip_fails_only_momentum_checks():
    results = run_checks("stress", StressConvention(momentum_sign=-1.0))
    failed = {r.name for r in results if not r.passed}
    assert any("momentum law" in name for name in failed)
    assert all("energy law" not in name for name in failed)


def test_doubled_prefactor_fails_static_limit():
    results = run_checks("stress", StressConvention(prefactor_rule=PrefactorRule.DOUBLED))
    failed = {r.name for r in results if not r.passed}
    assert any("static limit" in name for name in failed)


def test_time_independence_sees_a_drifting_slice(monkeypatch):
    # a per-slice quadrature that drifts by 1e-6 t must fail the check
    quadrature = stress._density_quadrature

    def drifting(scheme, cavity, n, t, convention):
        e, p = quadrature(scheme, cavity, n, t, convention)
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
    assert report.max_rel_diff == 0.5
    text = "\n".join(report.lines())
    assert "x: A=2" in text and "note: n" in text
