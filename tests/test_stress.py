import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav import stress
from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav.stress import (
    NotProportionalError,
    PrefactorRule,
    StressConvention,
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
        fit = coefficient_fits(Scheme.LORENTZ_EXACT, (0.5,), 5)[0]
        assert abs(fit.c_energy - 5.0 / 3.0) < 1e-9
        assert abs(fit.c_momentum - 4.0 / 3.0) < 1e-9

    def test_comoving_prior_small_velocity(self):
        fit = coefficient_fits(Scheme.GALILEO_COMOVING_PRIOR, (0.1,), 5)[0]
        assert abs(fit.c_energy - 1.005) < 1e-9
        assert abs(fit.c_momentum - 0.1) < 1e-9

    def test_lab_prior_quadrature_law(self):
        # analytic trig integrals give ((1+v^2)/(1-v^2), 2v/(1-v^2)); at
        # v = 0.2 that is (1.08333..., 0.41666...)
        fit = coefficient_fits(Scheme.GALILEO_LAB_PRIOR, (0.2,), 5)[0]
        assert abs(fit.c_energy - 1.04 / 0.96) < 1e-9
        assert abs(fit.c_momentum - 0.4 / 0.96) < 1e-9

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("v", [0.05, 0.3])
    def test_quadrature_matches_per_mode_law(self, scheme, v):
        fit = coefficient_fits(scheme, (v,), 4)[0]
        ce, cp = per_mode_coefficients(scheme, v)
        assert abs(fit.c_energy - ce) < 1e-10 * max(1.0, ce)
        assert abs(fit.c_momentum - cp) < 1e-10

    def test_dispersion_reported_small(self):
        fit = coefficient_fits(Scheme.LORENTZ_EXACT, (0.8,), 6, (0.0, 1.7))[0]
        assert fit.n_dispersion <= 1e-8
        assert fit.t_dispersion <= 1e-8

    def test_parity(self):
        for scheme in ALL_SCHEMES:
            plus, minus = coefficient_fits(scheme, (0.25, -0.25), 4)
            assert abs(plus.c_energy - minus.c_energy) < 1e-10
            assert abs(plus.c_momentum + minus.c_momentum) < 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coefficient_fits(Scheme.LORENTZ_EXACT, (0.1,), 1)
        with pytest.raises(ValueError):
            coefficient_fits(Scheme.LORENTZ_EXACT, (0.1,), 4, (0.0,))

    def test_dispersion_gate_raises_with_data(self):
        # an unreachable dispersion limit must trip the proportionality gate
        # and hand back the ratio table for inspection
        with pytest.raises(NotProportionalError) as exc:
            coefficient_fits(Scheme.LORENTZ_EXACT, (0.3,), 4, dispersion_limit=1e-18)
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
        [fit] = coefficient_fits(Scheme.LORENTZ_EXACT, (0.6,), 4, convention=convention)
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


CONVENTIONS = {
    "scheme": StressConvention(),
    "lab-phase": StressConvention(prefactor_rule=PrefactorRule.LAB_PHASE),
    "doubled": StressConvention(prefactor_rule=PrefactorRule.DOUBLED),
    "t01-flip": StressConvention(momentum_sign=-1.0),
}

# float.hex of per_mode_em_2d(Cavity2D(a, b, v), n, m, t) (energy, momentum)
# under each convention, recorded before the 1D and 2D per-mode integrals
# shared one quadrature call; any change is a defect
PER_MODE_2D_HEX = {
    ((1.0, 1.5, 0.3, 1, 2, 0.2), "scheme"): ("0x1.7c2d2b2f9000cp+1", "0x1.2c7cf7fabe96cp+0"),
    ((1.0, 1.5, 0.3, 1, 2, 0.2), "lab-phase"): ("0x1.6aaa4b3011347p+1", "0x1.1ea5be412b415p+0"),
    ((1.0, 1.5, 0.3, 1, 2, 0.2), "doubled"): ("0x1.7c2d2b2f9000cp+0", "0x1.2c7cf7fabe96cp-1"),
    ((1.0, 1.5, 0.3, 1, 2, 0.2), "t01-flip"): ("0x1.7c2d2b2f9000cp+1", "-0x1.2c7cf7fabe96cp+0"),
    ((0.7, 35.0, -0.6, 3, 1, 0.37), "scheme"): ("0x1.c9c79b83ce42dp+3", "-0x1.93eb4739aae07p+3"),
    ((0.7, 35.0, -0.6, 3, 1, 0.37), "lab-phase"): ("0x1.6e3949363e9bcp+3", "-0x1.43229f6155805p+3"),
    ((0.7, 35.0, -0.6, 3, 1, 0.37), "doubled"): ("0x1.c9c79b83ce42dp+2", "-0x1.93eb4739aae07p+2"),
    ((0.7, 35.0, -0.6, 3, 1, 0.37), "t01-flip"): ("0x1.c9c79b83ce42dp+3", "0x1.93eb4739aae07p+3"),
    ((1.0, 50.0, 0.6, 1, 1, 0.0), "scheme"): ("0x1.ab4bfbfcd42ecp+1", "0x1.78fdba6e70fc0p+1"),
    ((1.0, 50.0, 0.6, 1, 1, 0.0), "lab-phase"): ("0x1.55d66330a9bf0p+1", "0x1.2d97c8585a634p+1"),
    ((1.0, 50.0, 0.6, 1, 1, 0.0), "doubled"): ("0x1.ab4bfbfcd42ecp+0", "0x1.78fdba6e70fc0p+0"),
    ((1.0, 50.0, 0.6, 1, 1, 0.0), "t01-flip"): ("0x1.ab4bfbfcd42ecp+1", "-0x1.78fdba6e70fc0p+1"),
    ((2.3, 0.4, -0.93, 5, 4, -1.1), "scheme"): ("0x1.ee83ddf789cf2p+6", "-0x1.ce98f7fb84900p+6"),
    ((2.3, 0.4, -0.93, 5, 4, -1.1), "lab-phase"): ("0x1.6b8708316c842p+5", "-0x1.541072f4f0902p+5"),
    ((2.3, 0.4, -0.93, 5, 4, -1.1), "doubled"): ("0x1.ee83ddf789cf2p+5", "-0x1.ce98f7fb84900p+5"),
    ((2.3, 0.4, -0.93, 5, 4, -1.1), "t01-flip"): ("0x1.ee83ddf789cf2p+6", "0x1.ce98f7fb84900p+6"),
}


class TestBitIdentity:
    @pytest.mark.parametrize("key", sorted(PER_MODE_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_per_mode_energy_and_momentum(self, key):
        label, v, n, t = key
        pm = per_mode_em(Scheme(label), Cavity1D(1.3, v), n, t)
        assert (pm.energy.hex(), pm.momentum.hex()) == PER_MODE_HEX[key]

    @pytest.mark.parametrize("key", sorted(PER_MODE_2D_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_per_mode_2d(self, key):
        (a, b, v, n, m, t), rule = key
        pm = per_mode_em_2d(Cavity2D(a, b, v), n, m, t, convention=CONVENTIONS[rule])
        assert (pm.energy.hex(), pm.momentum.hex()) == PER_MODE_2D_HEX[key]


def _outcome(call):
    try:
        return call()
    except NotProportionalError as exc:
        return type(exc), str(exc)


def _extract_loop(scheme, velocities, n_max, t_samples, **kw):
    """One single-velocity fit at a time; the first failure ends the loop."""
    return _outcome(lambda: tuple(
        coefficient_fits(scheme, (v,), n_max, t_samples, **kw)[0]
        for v in velocities
    ))


@st.composite
def _grids(draw):
    scheme = draw(st.sampled_from(ALL_SCHEMES))
    cap = 0.99 if scheme is Scheme.LORENTZ_EXACT else 0.5
    velocities = draw(st.lists(st.floats(-cap, cap), min_size=1, max_size=40))
    t_samples = tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=3)))
    return (scheme, velocities, draw(st.integers(2, 8)), t_samples,
            draw(st.sampled_from(list(CONVENTIONS.values()))))


class TestBatchedFits:
    """coefficient_fits batches the per-mode quadrature over (velocity, time) rows."""

    @settings(max_examples=60, deadline=None)
    @given(_grids())
    def test_equals_the_per_velocity_loop(self, grid):
        scheme, velocities, n_max, t_samples, convention = grid
        batched = _outcome(lambda: coefficient_fits(
            scheme, velocities, n_max, t_samples, convention=convention))
        assert batched == _extract_loop(scheme, velocities, n_max, t_samples,
                                        convention=convention)

    def test_chunks_are_invisible(self):
        velocities = np.linspace(-0.9, 0.9, 2 * stress._CHUNK_ROWS + 5)
        fits = coefficient_fits(Scheme.LORENTZ_EXACT, velocities, 3)
        assert len(fits) == len(velocities)
        assert fits == _extract_loop(Scheme.LORENTZ_EXACT, velocities, 3, (0.0, 0.37))

    def test_first_dispersion_failure_is_the_loops(self):
        velocities = (0.4, -0.2, 0.7)
        with pytest.raises(NotProportionalError) as exc:
            coefficient_fits(Scheme.LORENTZ_EXACT, velocities, 4, dispersion_limit=0.0)
        with pytest.raises(NotProportionalError) as first:
            coefficient_fits(Scheme.LORENTZ_EXACT, (0.4,), 4, dispersion_limit=0.0)
        assert str(exc.value) == str(first.value)
        assert np.array_equal(exc.value.ratios, first.value.ratios)

    def test_validates_every_velocity(self):
        with pytest.raises(ValueError):
            coefficient_fits(Scheme.LORENTZ_EXACT, (0.2, 1.0), 4)
        assert coefficient_fits(Scheme.LORENTZ_EXACT, (), 4) == ()
