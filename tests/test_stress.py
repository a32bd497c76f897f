import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav import stress
from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav.quadrature import QuadratureError, gauss_legendre
from boostcav.stress import (
    NotProportionalError,
    PrefactorRule,
    StressConvention,
    coefficient_extract,
    coefficient_fits,
    per_mode_coefficients,
    per_mode_em,
    per_mode_em_2d,
    per_mode_em_2d_law,
)

ALL_SCHEMES = list(Scheme)


class TestPerMode1D:
    def test_contracted_first_mode_at_v06(self):
        pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 1, 0.3)
        gamma2 = 1.0 / 0.64
        assert abs(pm.energy - 0.5 * math.pi * gamma2 * 1.36) < 1e-12
        assert abs(pm.momentum - math.pi * gamma2 * 0.6) < 1e-12
        assert pm.quad_error <= 1e-10 * max(abs(pm.energy), math.pi)

    def test_comoving_prior_second_mode(self):
        pm = per_mode_em(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(1.0, 0.2), 2, 0.0)
        assert abs(pm.energy - 1.02 * math.pi) < 1e-12
        assert abs(pm.momentum - 0.2 * math.pi) < 1e-12

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_static_cavity(self, scheme):
        pm = per_mode_em(scheme, Cavity1D(1.0, 0.0), 5, 0.9)
        assert abs(pm.energy - 2.5 * math.pi) < 1e-11
        assert abs(pm.momentum) < 1e-12

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_time_independence(self, scheme):
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        values = [per_mode_em(scheme, cav, 4, t) for t in (0.0, 0.37, 0.7, 5.0)]
        es = [pm.energy for pm in values]
        ps = [pm.momentum for pm in values]
        assert (max(es) - min(es)) / abs(es[0]) < 1e-9
        assert (max(ps) - min(ps)) / abs(ps[0]) < 1e-9


class TestCoefficients:
    def test_contracted_closed_form_at_half_light_speed(self):
        fit = coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.5), 5)
        assert abs(fit.c_energy - 5.0 / 3.0) < 1e-9
        assert abs(fit.c_momentum - 4.0 / 3.0) < 1e-9

    def test_comoving_prior_small_velocity(self):
        fit = coefficient_extract(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(1.0, 0.1), 5)
        assert abs(fit.c_energy - 1.005) < 1e-9
        assert abs(fit.c_momentum - 0.1) < 1e-9

    def test_lab_prior_quadrature_law(self):
        # analytic trig integrals give ((1+v^2)/(1-v^2), 2v/(1-v^2)); at
        # v = 0.2 that is (1.08333..., 0.41666...)
        fit = coefficient_extract(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.0, 0.2), 5)
        assert abs(fit.c_energy - 1.04 / 0.96) < 1e-9
        assert abs(fit.c_momentum - 0.4 / 0.96) < 1e-9

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("v", [0.05, 0.3])
    def test_quadrature_matches_per_mode_law(self, scheme, v):
        fit = coefficient_extract(scheme, Cavity1D(1.0, v), 4)
        ce, cp = per_mode_coefficients(scheme, v)
        assert abs(fit.c_energy - ce) < 1e-10 * max(1.0, ce)
        assert abs(fit.c_momentum - cp) < 1e-10

    def test_dispersion_reported_small(self):
        fit = coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.8), 6, (0.0, 1.7))
        assert fit.n_dispersion <= 1e-8
        assert fit.t_dispersion <= 1e-8

    def test_parity(self):
        for scheme in ALL_SCHEMES:
            plus = coefficient_extract(scheme, Cavity1D(1.0, 0.25), 4)
            minus = coefficient_extract(scheme, Cavity1D(1.0, -0.25), 4)
            assert abs(plus.c_energy - minus.c_energy) < 1e-10
            assert abs(plus.c_momentum + minus.c_momentum) < 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.1), 1)
        with pytest.raises(ValueError):
            coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.1), 4, (0.0,))

    def test_dispersion_gate_raises_with_data(self):
        # an unreachable dispersion limit must trip the proportionality gate
        # and hand back the ratio table for inspection
        with pytest.raises(NotProportionalError) as exc:
            coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.3), 4,
                                dispersion_limit=1e-18)
        assert exc.value.ratios.shape == (2, 2, 4)


class TestNegativeControls:
    def test_doubled_prefactor_breaks_static_limit(self):
        convention = StressConvention(prefactor_rule=PrefactorRule.DOUBLED)
        pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.0), 1, convention=convention)
        assert abs(pm.energy - math.pi / 2) > 0.1 * math.pi

    def test_lab_phase_prefactor_breaks_boosted_law(self):
        # at v = 0 every candidate frequency coincides, so this fault is only
        # visible on a moving cavity
        convention = StressConvention(prefactor_rule=PrefactorRule.LAB_PHASE)
        ok = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.0), 1, convention=convention)
        assert abs(ok.energy - math.pi / 2) < 1e-12
        bad = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 1, convention=convention)
        ce, _ = per_mode_coefficients(Scheme.LORENTZ_EXACT, 0.6)
        assert abs(bad.energy - ce * math.pi / 2) > 0.1 * abs(ce * math.pi / 2)

    def test_flipped_momentum_sign_detected(self):
        convention = StressConvention(momentum_sign=-1.0)
        pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 1, convention=convention)
        _, cp = per_mode_coefficients(Scheme.LORENTZ_EXACT, 0.6)
        assert abs(pm.momentum - cp * math.pi / 2) > abs(cp * math.pi / 2)

    def test_wrong_frequency_fails_proportionality_quietly_not(self):
        # the proportionality statement itself still holds per mode; the
        # failure shows up against the closed-form coefficients instead
        convention = StressConvention(prefactor_rule=PrefactorRule.LAB_PHASE)
        fit = coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 4,
                                  convention=convention)
        ce, _ = per_mode_coefficients(Scheme.LORENTZ_EXACT, 0.6)
        assert abs(fit.c_energy - ce) > 1e-3


class TestPerMode2D:
    def test_static_square(self):
        pm = per_mode_em_2d(Cavity2D(1.0, 1.0, 0.0), 1, 1, 0.0)
        assert abs(pm.energy - math.pi * math.sqrt(2.0) / 2.0) < 1e-12
        assert abs(pm.momentum) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.1])
    def test_law_at_three_times(self, t):
        # oracle: the quadrature at distinct slices against the closed law
        cav = Cavity2D(1.0, 1.0, 0.6)
        e_law, p_law = per_mode_em_2d_law(cav, 1, 1)
        w = math.pi * math.sqrt(2.0)
        k2 = math.pi**2
        p2 = math.pi**2
        gamma2 = 1.0 / 0.64
        assert abs(e_law - (gamma2 * 1.36 * (w * w + k2) + p2) / (4 * w)) < 1e-13
        assert abs(p_law - gamma2 * 0.6 * (w * w + k2) / (2 * w)) < 1e-13
        pm = per_mode_em_2d(cav, 1, 1, t)
        assert abs(pm.energy - e_law) < 1e-11
        assert abs(pm.momentum - p_law) < 1e-11

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (5, 2)])
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.6])
    def test_law_across_modes_and_velocities(self, n, m, v):
        cav = Cavity2D(1.0, 1.5, v)
        pm = per_mode_em_2d(cav, n, m, 0.1)
        e_law, p_law = per_mode_em_2d_law(cav, n, m)
        assert abs(pm.energy - e_law) <= 1e-9 * e_law
        assert abs(pm.momentum - p_law) <= 1e-9 * max(abs(p_law), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(0.3, 3.0),
        log_aspect=st.floats(-2.0, 2.0),
        v=st.floats(-0.95, 0.95),
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        t=st.floats(-5.0, 5.0),
    )
    def test_matches_law(self, a, log_aspect, v, n, m, t):
        # e_nm >= |p_nm| always, so e_nm scales both errors (p_nm = 0 at v = 0)
        cav = Cavity2D(a, a * 10.0**log_aspect, v)
        pm = per_mode_em_2d(cav, n, m, t)
        e_law, p_law = per_mode_em_2d_law(cav, n, m)
        assert abs(pm.energy - e_law) <= 1e-12 * e_law
        assert abs(pm.momentum - p_law) <= 1e-12 * e_law

    def test_wide_cavity_recovers_1d_ratios(self):
        # p_1 -> 0 proxy: per-mode ratios approach the 1D boosted laws
        cav = Cavity2D(1.0, 50.0, 0.6)
        pm = per_mode_em_2d(cav, 1, 1, 0.0)
        w = math.hypot(math.pi, math.pi / 50.0)
        gamma2 = 1.0 / 0.64
        assert abs(pm.energy / (w / 2) - gamma2 * 1.36) < 2e-3
        assert abs(pm.momentum / w - gamma2 * 0.6) < 2e-3


# float.hex of per_mode_em(scheme, Cavity1D(1.3, v), n, t) (energy, momentum),
# recorded before the per-mode quadrature was batched; any change is a defect
PER_MODE_HEX = {
    ("galileo-lab", -0.3, 1, 0.0): ("0x1.7282ec43a7d11p+0", "-0x1.97e708ce018f4p-1"),
    ("galileo-lab", -0.3, 1, 0.37): ("0x1.7282ec43a7d10p+0", "-0x1.97e708ce018f4p-1"),
    ("galileo-lab", -0.3, 6, 0.0): ("0x1.15e23132bddcep+3", "-0x1.31ed469a812b8p+2"),
    ("galileo-lab", -0.3, 6, 0.37): ("0x1.15e23132bddcep+3", "-0x1.31ed469a812b8p+2"),
    ("galileo-lab", 0.3, 1, 0.0): ("0x1.7282ec43a7d11p+0", "0x1.97e708ce018f4p-1"),
    ("galileo-lab", 0.3, 1, 0.37): ("0x1.7282ec43a7d11p+0", "0x1.97e708ce018f4p-1"),
    ("galileo-lab", 0.3, 6, 0.0): ("0x1.15e23132bddcep+3", "0x1.31ed469a812b8p+2"),
    ("galileo-lab", 0.3, 6, 0.37): ("0x1.15e23132bddcep+3", "0x1.31ed469a812b8p+2"),
    ("galileo-comoving", -0.3, 1, 0.0): ("0x1.433ee75f3d968p+0", "-0x1.7330f617a023bp-2"),
    ("galileo-comoving", -0.3, 1, 0.37): ("0x1.433ee75f3d968p+0", "-0x1.7330f617a0238p-2"),
    ("galileo-comoving", -0.3, 6, 0.0): ("0x1.e4de5b0edc61ep+2", "-0x1.1664b891b81acp+1"),
    ("galileo-comoving", -0.3, 6, 0.37): ("0x1.e4de5b0edc61fp+2", "-0x1.1664b891b81aep+1"),
    ("galileo-comoving", 0.3, 1, 0.0): ("0x1.433ee75f3d968p+0", "0x1.7330f617a023bp-2"),
    ("galileo-comoving", 0.3, 1, 0.37): ("0x1.433ee75f3d968p+0", "0x1.7330f617a023ap-2"),
    ("galileo-comoving", 0.3, 6, 0.0): ("0x1.e4de5b0edc61ep+2", "0x1.1664b891b81acp+1"),
    ("galileo-comoving", 0.3, 6, 0.37): ("0x1.e4de5b0edc61ep+2", "0x1.1664b891b81aep+1"),
    ("lorentz", -0.7, 1, 0.0): ("0x1.c3dbcf8c071fep+1", "-0x1.a890ae64a4c30p+1"),
    ("lorentz", -0.7, 1, 0.37): ("0x1.c3dbcf8c071fep+1", "-0x1.a890ae64a4c2ep+1"),
    ("lorentz", -0.7, 6, 0.0): ("0x1.52e4dba90557ep+4", "-0x1.3e6c82cb7b922p+4"),
    ("lorentz", -0.7, 6, 0.37): ("0x1.52e4dba90557ep+4", "-0x1.3e6c82cb7b922p+4"),
    ("lorentz", 0.3, 1, 0.0): ("0x1.7282ec43a7d12p+0", "0x1.97e708ce018f5p-1"),
    ("lorentz", 0.3, 1, 0.37): ("0x1.7282ec43a7d12p+0", "0x1.97e708ce018f6p-1"),
    ("lorentz", 0.3, 6, 0.0): ("0x1.15e23132bddcep+3", "0x1.31ed469a812b8p+2"),
    ("lorentz", 0.3, 6, 0.37): ("0x1.15e23132bddcep+3", "0x1.31ed469a812b8p+2"),
    # here Python's v ** 2 (C pow) and numpy's array square v * v differ, and
    # so would these bits
    ("lorentz", 0.6352, 3, 0.37): ("0x1.10ea551b8ed10p+3", "0x1.ee13192f90325p+2"),
    ("lorentz", -0.8329, 6, 0.37): ("0x1.40bbdc7f4bdd2p+5", "-0x1.3b723edc0c6eep+5"),
}


class TestBitIdentity:
    @pytest.mark.parametrize("key", sorted(PER_MODE_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_per_mode_energy_and_momentum(self, key):
        label, v, n, t = key
        pm = per_mode_em(Scheme.from_label(label), Cavity1D(1.3, v), n, t)
        assert (pm.energy.hex(), pm.momentum.hex()) == PER_MODE_HEX[key]



CONVENTIONS = (
    StressConvention(),
    StressConvention(prefactor_rule=PrefactorRule.LAB_PHASE),
    StressConvention(prefactor_rule=PrefactorRule.DOUBLED),
    StressConvention(momentum_sign=-1.0),
)


def _outcome(call):
    try:
        return call()
    except (NotProportionalError, QuadratureError) as exc:
        return type(exc), str(exc)


def _extract_loop(scheme, length, velocities, n_max, t_samples, **kw):
    """coefficient_extract one velocity at a time; the first failure ends the loop."""
    return _outcome(lambda: tuple(
        coefficient_extract(scheme, Cavity1D(length, v), n_max, t_samples, **kw)
        for v in velocities
    ))


@st.composite
def _grids(draw):
    scheme = draw(st.sampled_from(ALL_SCHEMES))
    cap = 0.99 if scheme is Scheme.LORENTZ_EXACT else 0.5
    velocities = draw(st.lists(st.floats(-cap, cap), min_size=1, max_size=40))
    t_samples = tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=3)))
    return (scheme, draw(st.floats(0.3, 5.0)), velocities, draw(st.integers(2, 8)), t_samples,
            draw(st.sampled_from(CONVENTIONS)))


class TestBatchedFits:
    """coefficient_fits batches the per-mode quadrature over (velocity, time) rows."""

    @settings(max_examples=60, deadline=None)
    @given(_grids())
    def test_equals_the_per_velocity_loop(self, grid):
        scheme, length, velocities, n_max, t_samples, convention = grid
        batched = _outcome(lambda: coefficient_fits(
            scheme, length, velocities, n_max, t_samples, convention=convention))
        assert batched == _extract_loop(scheme, length, velocities, n_max, t_samples,
                                        convention=convention)

    def test_chunks_are_invisible(self):
        velocities = np.linspace(-0.9, 0.9, 2 * stress._CHUNK_ROWS + 5)
        fits = coefficient_fits(Scheme.LORENTZ_EXACT, 1.7, velocities, 3)
        assert len(fits) == len(velocities)
        assert fits == _extract_loop(Scheme.LORENTZ_EXACT, 1.7, velocities, 3, (0.0, 0.37))

    def test_first_dispersion_failure_is_the_loops(self):
        velocities = (0.4, -0.2, 0.7)
        with pytest.raises(NotProportionalError) as exc:
            coefficient_fits(Scheme.LORENTZ_EXACT, 1.0, velocities, 4, dispersion_limit=0.0)
        with pytest.raises(NotProportionalError) as first:
            coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.4), 4, dispersion_limit=0.0)
        assert str(exc.value) == str(first.value)
        assert np.array_equal(exc.value.ratios, first.value.ratios)

    @staticmethod
    def _stepped(f, a, b, *, oscillations, **kw):
        # A step never converges under panel doubling. It sits at x = -0.1 for
        # mode 2 and at x = -0.15 for mode 1, so at t = 0.37 the v = -0.3 cavity
        # (left wall -0.111) fails at n = 2 only and v = -0.5 (-0.185) at n = 1.
        edge = -0.1 if oscillations == 2 else -0.15
        return gauss_legendre(lambda x: f(x) + (x < edge), a, b, oscillations=oscillations, **kw)

    def test_first_quadrature_failure_is_the_loops(self, monkeypatch):
        monkeypatch.setattr(stress, "gauss_legendre", self._stepped)
        velocities = (0.2, -0.3, -0.5)
        batched = _outcome(lambda: coefficient_fits(Scheme.LORENTZ_EXACT, 1.0, velocities, 3))
        assert batched[0] is QuadratureError
        assert batched == _extract_loop(Scheme.LORENTZ_EXACT, 1.0, velocities, 3, (0.0, 0.37))
        later = _outcome(lambda: coefficient_extract(Scheme.LORENTZ_EXACT, Cavity1D(1.0, -0.5), 3))
        assert later[0] is QuadratureError and later != batched

    def test_dispersion_failure_before_a_later_quadrature_failure(self, monkeypatch):
        monkeypatch.setattr(stress, "gauss_legendre", self._stepped)
        velocities = (0.2, -0.5)
        batched = _outcome(lambda: coefficient_fits(
            Scheme.LORENTZ_EXACT, 1.0, velocities, 3, dispersion_limit=0.0))
        assert batched[0] is NotProportionalError
        assert batched == _extract_loop(Scheme.LORENTZ_EXACT, 1.0, velocities, 3, (0.0, 0.37),
                                        dispersion_limit=0.0)

    def test_validates_every_velocity(self):
        with pytest.raises(ValueError):
            coefficient_fits(Scheme.LORENTZ_EXACT, 1.0, (0.2, 1.0), 4)
        assert coefficient_fits(Scheme.LORENTZ_EXACT, 1.0, (), 4) == ()
