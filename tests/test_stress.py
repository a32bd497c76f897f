import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav import stress
from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav.modes import mode
from boostcav.stress import (
    coefficient_fits,
    per_mode_coefficients,
    per_mode_em,
    per_mode_em_2d,
    per_mode_em_2d_law,
)

ALL_SCHEMES = list(Scheme)


class TestPerMode1D:
    def test_contracted_first_mode_at_v06(self):
        pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 1)
        gamma2 = 1.0 / 0.64
        assert abs(pm.energy - 0.5 * math.pi * gamma2 * 1.36) < 1e-12
        assert abs(pm.momentum - math.pi * gamma2 * 0.6) < 1e-12
        assert pm.quad_error <= 1e-10 * max(abs(pm.energy), math.pi)

    def test_comoving_prior_second_mode(self):
        pm = per_mode_em(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(1.0, 0.2), 2)
        assert abs(pm.energy - 1.02 * math.pi) < 1e-12
        assert abs(pm.momentum - 0.2 * math.pi) < 1e-12

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_static_cavity(self, scheme):
        pm = per_mode_em(scheme, Cavity1D(1.0, 0.0), 5)
        assert abs(pm.energy - 2.5 * math.pi) < 1e-11
        assert abs(pm.momentum) < 1e-12

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_time_independence(self, scheme):
        v = 0.6 if scheme is Scheme.LORENTZ_EXACT else 0.2
        cav = Cavity1D(1.0, v)
        # quadrature between the walls of each slice: per_mode_em's closed form has no t
        values = [stress._density_quadrature(scheme, cav, 4, t)
                  for t in (0.0, 0.37, 0.7, 5.0)]
        es, ps = zip(*values)
        assert (max(es) - min(es)) / abs(es[0]) < 1e-9
        assert (max(ps) - min(ps)) / abs(ps[0]) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        log_length=st.floats(-3.0, 3.0),
        v_fraction=st.floats(-1.0, 1.0),
        n=st.integers(1, 12),
    )
    def test_factorizes_into_the_coefficients(self, scheme, log_length, v_fraction, n):
        # e_n = c_E w_n/2 and p_n = c_P w_n/2 at every L and n: what lets
        # coefficient_fits read (c_E, c_P) off the first mode of the unit cavity
        length = 10.0**log_length
        v = v_fraction * (0.99 if scheme is Scheme.LORENTZ_EXACT else 0.5)
        pm = per_mode_em(scheme, Cavity1D(length, v), n)
        half_w = n * math.pi / (2.0 * length)
        ce, cp = per_mode_coefficients(scheme, v)
        assert abs(pm.energy / half_w - ce) <= 1e-12 * ce
        assert abs(pm.momentum / half_w - cp) <= 1e-12 * ce


class TestCoefficients:
    def test_contracted_closed_form_at_half_light_speed(self):
        fit = coefficient_fits(Scheme.LORENTZ_EXACT, (0.5,))[0]
        assert abs(fit.c_energy - 5.0 / 3.0) < 1e-9
        assert abs(fit.c_momentum - 4.0 / 3.0) < 1e-9

    def test_comoving_prior_small_velocity(self):
        fit = coefficient_fits(Scheme.GALILEO_COMOVING_PRIOR, (0.1,))[0]
        assert abs(fit.c_energy - 1.005) < 1e-9
        assert abs(fit.c_momentum - 0.1) < 1e-9

    def test_lab_prior_quadrature_law(self):
        # analytic trig integrals give ((1+v^2)/(1-v^2), 2v/(1-v^2)); at
        # v = 0.2 that is (1.08333..., 0.41666...)
        fit = coefficient_fits(Scheme.GALILEO_LAB_PRIOR, (0.2,))[0]
        assert abs(fit.c_energy - 1.04 / 0.96) < 1e-9
        assert abs(fit.c_momentum - 0.4 / 0.96) < 1e-9

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("v", [0.05, 0.3])
    def test_quadrature_matches_per_mode_law(self, scheme, v):
        fit = coefficient_fits(scheme, (v,))[0]
        ce, cp = per_mode_coefficients(scheme, v)
        assert abs(fit.c_energy - ce) < 1e-10 * max(1.0, ce)
        assert abs(fit.c_momentum - cp) < 1e-10

    def test_first_mode_ratios_hold_for_every_mode(self):
        [fit] = coefficient_fits(Scheme.LORENTZ_EXACT, (0.8,))
        cav = Cavity1D(1.0, 0.8)
        for n in range(1, 7):
            pm = per_mode_em(Scheme.LORENTZ_EXACT, cav, n)
            half_w = n * math.pi / 2
            assert abs(pm.energy / half_w - fit.c_energy) <= 1e-8 * fit.c_energy
            assert abs(pm.momentum / half_w - fit.c_momentum) <= 1e-8 * fit.c_energy

    def test_parity(self):
        for scheme in ALL_SCHEMES:
            plus, minus = coefficient_fits(scheme, (0.25, -0.25))
            assert abs(plus.c_energy - minus.c_energy) < 1e-10
            assert abs(plus.c_momentum + minus.c_momentum) < 1e-10


class TestNegativeControls:
    def test_doubled_prefactor_breaks_static_limit(self):
        with stress._injected_fault(prefactor="doubled"):
            pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.0), 1)
        assert abs(pm.energy - math.pi / 2) > 0.1 * math.pi

    def test_lab_phase_prefactor_breaks_boosted_law(self):
        # at v = 0 every candidate frequency coincides, so this fault is only
        # visible on a moving cavity
        with stress._injected_fault(prefactor="lab-phase"):
            ok = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.0), 1)
            bad = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 1)
        assert abs(ok.energy - math.pi / 2) < 1e-12
        ce, _ = per_mode_coefficients(Scheme.LORENTZ_EXACT, 0.6)
        assert abs(bad.energy - ce * math.pi / 2) > 0.1 * abs(ce * math.pi / 2)

    def test_flipped_momentum_sign_detected(self):
        with stress._injected_fault(t01_sign=-1.0):
            pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 1)
        _, cp = per_mode_coefficients(Scheme.LORENTZ_EXACT, 0.6)
        assert abs(pm.momentum - cp * math.pi / 2) > abs(cp * math.pi / 2)

    def test_wrong_frequency_fails_proportionality_quietly_not(self):
        # the proportionality statement itself still holds per mode; the
        # failure shows up against the closed-form coefficients instead
        with stress._injected_fault(prefactor="lab-phase"):
            [fit] = coefficient_fits(Scheme.LORENTZ_EXACT, (0.6,))
        ce, _ = per_mode_coefficients(Scheme.LORENTZ_EXACT, 0.6)
        assert abs(fit.c_energy - ce) > 1e-3


class TestPerMode2D:
    def test_static_square(self):
        pm = per_mode_em_2d(Cavity2D(1.0, 1.0, 0.0), 1, 1)
        assert abs(pm.energy - math.pi * math.sqrt(2.0) / 2.0) < 1e-12
        assert abs(pm.momentum) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.1])
    def test_law_at_three_times(self, t):
        # the closed form, and the densities integrated between the walls of the
        # slice t, against the closed law
        cav = Cavity2D(1.0, 1.0, 0.6)
        e_law, p_law = per_mode_em_2d_law(cav, 1, 1)
        w = math.pi * math.sqrt(2.0)
        k2 = math.pi**2
        p2 = math.pi**2
        gamma2 = 1.0 / 0.64
        assert abs(e_law - (gamma2 * 1.36 * (w * w + k2) + p2) / (4 * w)) < 1e-13
        assert abs(p_law - gamma2 * 0.6 * (w * w + k2) / (2 * w)) < 1e-13
        pm = per_mode_em_2d(cav, 1, 1)
        assert abs(pm.energy - e_law) < 1e-11
        assert abs(pm.momentum - p_law) < 1e-11
        norm, coeffs, wp, p2 = stress._profile_terms(cav, 1, 1)
        e, p = stress._jet_quadrature(norm, coeffs, wp, p2, cav.walls_x(t), t, 1)
        assert abs(e - e_law) < 1e-11
        assert abs(p - p_law) < 1e-11

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (5, 2)])
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.6])
    def test_law_across_modes_and_velocities(self, n, m, v):
        cav = Cavity2D(1.0, 1.5, v)
        pm = per_mode_em_2d(cav, n, m)
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
    )
    def test_matches_law(self, a, log_aspect, v, n, m):
        # e_nm >= |p_nm| always, so e_nm scales both errors (p_nm = 0 at v = 0)
        cav = Cavity2D(a, a * 10.0**log_aspect, v)
        pm = per_mode_em_2d(cav, n, m)
        e_law, p_law = per_mode_em_2d_law(cav, n, m)
        assert abs(pm.energy - e_law) <= 1e-12 * e_law
        assert abs(pm.momentum - p_law) <= 1e-12 * e_law

    @pytest.mark.parametrize("b, m", [(1e-160, 2), (1e-154, 5), (5e-324, 1)])
    def test_side_whose_wavenumber_squares_past_float64_is_named(self, b, m):
        with pytest.raises(ValueError, match=f"side b = {b!r} is too small for mode m = {m}: "):
            per_mode_em_2d(Cavity2D(1.0, b, 0.3), 1, m)

    def test_wide_cavity_recovers_1d_ratios(self):
        # p_1 -> 0 proxy: per-mode ratios approach the 1D boosted laws
        cav = Cavity2D(1.0, 50.0, 0.6)
        pm = per_mode_em_2d(cav, 1, 1)
        w = math.hypot(math.pi, math.pi / 50.0)
        gamma2 = 1.0 / 0.64
        assert abs(pm.energy / (w / 2) - gamma2 * 1.36) < 2e-3
        assert abs(pm.momentum / w - gamma2 * 0.6) < 2e-3


# float.hex of per_mode_em(scheme, Cavity1D(1.3, v), n) (energy, momentum),
# recorded once the per-mode integrals were evaluated in closed form; any change
# is a defect
PER_MODE_HEX = {
    ("galileo-lab", -0.3, 1): ("0x1.7282ec43a7d11p+0", "-0x1.97e708ce018f4p-1"),
    ("galileo-lab", -0.3, 6): ("0x1.15e23132bddcep+3", "-0x1.31ed469a812b8p+2"),
    ("galileo-lab", 0.3, 1): ("0x1.7282ec43a7d11p+0", "0x1.97e708ce018f4p-1"),
    ("galileo-lab", 0.3, 6): ("0x1.15e23132bddcep+3", "0x1.31ed469a812b8p+2"),
    ("galileo-comoving", -0.3, 1): ("0x1.433ee75f3d969p+0", "-0x1.7330f617a023bp-2"),
    ("galileo-comoving", -0.3, 6): ("0x1.e4de5b0edc61ep+2", "-0x1.1664b891b81adp+1"),
    ("galileo-comoving", 0.3, 1): ("0x1.433ee75f3d969p+0", "0x1.7330f617a023bp-2"),
    ("galileo-comoving", 0.3, 6): ("0x1.e4de5b0edc61ep+2", "0x1.1664b891b81adp+1"),
    ("lorentz", -0.7, 1): ("0x1.c3dbcf8c071fdp+1", "-0x1.a890ae64a4c2ep+1"),
    ("lorentz", -0.7, 6): ("0x1.52e4dba90557ep+4", "-0x1.3e6c82cb7b922p+4"),
    ("lorentz", 0.3, 1): ("0x1.7282ec43a7d14p+0", "0x1.97e708ce018f7p-1"),
    ("lorentz", 0.3, 6): ("0x1.15e23132bddd0p+3", "0x1.31ed469a812b9p+2"),
    # here Python's v ** 2 (C pow) and numpy's array square v * v differ, and
    # so would these bits
    ("lorentz", 0.6352, 3): ("0x1.10ea551b8ed10p+3", "0x1.ee13192f90326p+2"),
    ("lorentz", -0.8329, 6): ("0x1.40bbdc7f4bdd3p+5", "-0x1.3b723edc0c6eep+5"),
}


# stress._injected_fault's arguments (T01 sign, prefactor rule) by label; "scheme" is no fault
FAULTS = {
    "scheme": (1.0, None),
    "lab-phase": (1.0, "lab-phase"),
    "doubled": (1.0, "doubled"),
    "t01-flip": (-1.0, None),
}

# float.hex of per_mode_em_2d(Cavity2D(a, b, v), n, m) (energy, momentum)
# under each fault, recorded once the per-mode integrals were evaluated in
# closed form; any change is a defect
PER_MODE_2D_HEX = {
    ((1.0, 1.5, 0.3, 1, 2), "scheme"): ("0x1.7c2d2b2f9000cp+1", "0x1.2c7cf7fabe96bp+0"),
    ((1.0, 1.5, 0.3, 1, 2), "lab-phase"): ("0x1.6aaa4b3011347p+1", "0x1.1ea5be412b415p+0"),
    ((1.0, 1.5, 0.3, 1, 2), "doubled"): ("0x1.7c2d2b2f9000cp+0", "0x1.2c7cf7fabe96bp-1"),
    ((1.0, 1.5, 0.3, 1, 2), "t01-flip"): ("0x1.7c2d2b2f9000cp+1", "-0x1.2c7cf7fabe96bp+0"),
    ((0.7, 35.0, -0.6, 3, 1), "scheme"): ("0x1.c9c79b83ce42bp+3", "-0x1.93eb4739aae07p+3"),
    ((0.7, 35.0, -0.6, 3, 1), "lab-phase"): ("0x1.6e3949363e9bcp+3", "-0x1.43229f6155805p+3"),
    ((0.7, 35.0, -0.6, 3, 1), "doubled"): ("0x1.c9c79b83ce42bp+2", "-0x1.93eb4739aae07p+2"),
    ((0.7, 35.0, -0.6, 3, 1), "t01-flip"): ("0x1.c9c79b83ce42bp+3", "0x1.93eb4739aae07p+3"),
    ((1.0, 50.0, 0.6, 1, 1), "scheme"): ("0x1.ab4bfbfcd42eep+1", "0x1.78fdba6e70fc0p+1"),
    ((1.0, 50.0, 0.6, 1, 1), "lab-phase"): ("0x1.55d66330a9bf2p+1", "0x1.2d97c8585a633p+1"),
    ((1.0, 50.0, 0.6, 1, 1), "doubled"): ("0x1.ab4bfbfcd42eep+0", "0x1.78fdba6e70fc0p+0"),
    ((1.0, 50.0, 0.6, 1, 1), "t01-flip"): ("0x1.ab4bfbfcd42eep+1", "-0x1.78fdba6e70fc0p+1"),
    ((2.3, 0.4, -0.93, 5, 4), "scheme"): ("0x1.ee83ddf789cf3p+6", "-0x1.ce98f7fb84901p+6"),
    ((2.3, 0.4, -0.93, 5, 4), "lab-phase"): ("0x1.6b8708316c842p+5", "-0x1.541072f4f0904p+5"),
    ((2.3, 0.4, -0.93, 5, 4), "doubled"): ("0x1.ee83ddf789cf3p+5", "-0x1.ce98f7fb84901p+5"),
    ((2.3, 0.4, -0.93, 5, 4), "t01-flip"): ("0x1.ee83ddf789cf3p+6", "0x1.ce98f7fb84901p+6"),
}


class TestBitIdentity:
    @pytest.mark.parametrize("key", sorted(PER_MODE_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_per_mode_energy_and_momentum(self, key):
        label, v, n = key
        pm = per_mode_em(Scheme(label), Cavity1D(1.3, v), n)
        assert (pm.energy.hex(), pm.momentum.hex()) == PER_MODE_HEX[key]

    # the pinned closed form is the integral on every slice: the real densities
    # integrated between the walls at t = 0 and t = 0.37 agree with it to rounding
    @pytest.mark.parametrize("t", [0.0, 0.37])
    @pytest.mark.parametrize("key", sorted(PER_MODE_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_per_mode_slices(self, key, t):
        label, v, n = key
        e, p = stress._density_quadrature(Scheme(label), Cavity1D(1.3, v), n, t)
        energy, momentum = map(float.fromhex, PER_MODE_HEX[key])
        # energy >= |momentum|, so energy scales both differences
        assert abs(e - energy) <= 1e-13 * energy
        assert abs(p - momentum) <= 1e-13 * energy

    @pytest.mark.parametrize("key", sorted(PER_MODE_2D_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_per_mode_2d(self, key):
        (a, b, v, n, m), rule = key
        with stress._injected_fault(*FAULTS[rule]):
            pm = per_mode_em_2d(Cavity2D(a, b, v), n, m)
        assert (pm.energy.hex(), pm.momentum.hex()) == PER_MODE_2D_HEX[key]


# float.hex of the Gauss-Legendre route: coefficient_fits(scheme, (v,)) as (c_E, c_P), the
# route every per-mode sweep takes, and _density_quadrature(scheme, Cavity1D(1.0, v), n,
# 0.37) as (e, p) at verify's velocities (0.6 lorentz, 0.2 galileo); recorded under the
# panel-doubling rule, which stopped at 4 panels on every one of these
FIT_HEX = {
    ("lorentz", 0.0): ("0x1.0000000000001p+0", "0x0.0p+0"),
    ("lorentz", 0.6): ("0x1.1000000000001p+1", "0x1.e000000000003p+0"),
    ("lorentz", -0.95): ("0x1.3834834834831p+4", "-0x1.37cb7cb7cb7c7p+4"),
    ("lorentz", 1 - 1e-9): ("0x1.dcd650da4165cp+29", "0x1.dcd650da4165cp+29"),
    ("lorentz", -(1 - 1e-9)): ("0x1.dcd650da4165cp+29", "-0x1.dcd650da4165cp+29"),
    ("galileo-comoving", 0.2): ("0x1.051eb851eb853p+0", "0x1.999999999999bp-3"),
    ("galileo-comoving", -0.45): ("0x1.19eb851eb851fp+0", "-0x1.ccccccccccccdp-2"),
    ("galileo-lab", 0.2): ("0x1.1555555555556p+0", "0x1.aaaaaaaaaaaabp-2"),
    ("galileo-lab", -0.45): ("0x1.82019ae24ea56p+0", "-0x1.20e71f4c3cfdbp+0"),
}
DENSITY_QUADRATURE_HEX = {
    ("galileo-lab", 2): ("0x1.b3a259b49db86p+1", "0x1.4f1a6c638d040p+0"),
    ("galileo-lab", 3): ("0x1.46b9c347764a4p+2", "0x1.f6a7a29553860p+0"),
    ("galileo-lab", 5): ("0x1.10457810e2934p+3", "0x1.a2e1077c70450p+1"),
    ("galileo-comoving", 2): ("0x1.9a2a950d4e652p+1", "0x1.41b2f769cf0e1p-1"),
    ("galileo-comoving", 3): ("0x1.339fefc9facbdp+2", "0x1.e28c731eb6954p-1"),
    ("galileo-comoving", 5): ("0x1.005a9d2850ff3p+3", "0x1.921fb54442d1bp+0"),
    ("lorentz", 2): ("0x1.ab41b09886febp+2", "0x1.78fdb9effea49p+2"),
    ("lorentz", 3): ("0x1.40714472653efp+3", "0x1.1abe4b73fefb5p+3"),
    ("lorentz", 5): ("0x1.0b090e5f545f3p+4", "0x1.d73d286bfe4dap+3"),
}


class TestQuadratureBits:
    @pytest.mark.parametrize("key", list(FIT_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_coefficient_fits(self, key):
        scheme, v = key
        (fit,) = coefficient_fits(Scheme(scheme), (v,))
        assert (fit.c_energy.hex(), fit.c_momentum.hex()) == FIT_HEX[key]

    @pytest.mark.parametrize("key", list(DENSITY_QUADRATURE_HEX),
                             ids=lambda k: "-".join(map(str, k)))
    def test_density_quadrature(self, key):
        scheme, n = key
        cav = Cavity1D(1.0, 0.6 if scheme == "lorentz" else 0.2)
        e, p = stress._density_quadrature(Scheme(scheme), cav, n, 0.37)
        assert (e.hex(), p.hex()) == DENSITY_QUADRATURE_HEX[key]


class TestDensityQuadratureSizing:
    """_panels(n) leaves only rounding: the rule against 30 digits of the same densities."""

    @settings(max_examples=300, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        rule=st.sampled_from(sorted(FAULTS)),
        log_length=st.floats(-3.0, 3.0),
        v=st.one_of(st.floats(-0.99, 0.99),
                    st.builds(lambda gap, sign: sign * (1.0 - 10.0**-gap),
                              st.floats(2.0, 9.0), st.sampled_from((-1.0, 1.0)))),
        n=st.integers(1, 60),
        t_fraction=st.floats(-3.0, 3.0),
    )
    def test_within_rounding_of_the_exact_integral(self, scheme, rule, log_length, v, n,
                                                   t_fraction):
        (sigma, prefactor), length = FAULTS[rule], 10.0**log_length
        t = t_fraction * length
        u = mode(scheme, Cavity1D(length, v), n)
        with stress._injected_fault(sigma, prefactor):
            got = stress._density_quadrature(scheme, Cavity1D(length, v), n, t)
            # the densities' sin^2 s and cos^2 s weights, as _density_quadrature forms them
            norm, (th_t, th_x, s_t, s_x), wp = stress._mode_terms(u)
        n2 = norm * norm
        weights = ((n2 * (th_t * th_t + th_x * th_x) / (4.0 * wp),
                    n2 * (s_t * s_t + s_x * s_x) / (4.0 * wp)),
                   (-sigma * n2 * th_t * th_x / (2.0 * wp), -sigma * n2 * s_t * s_x / (2.0 * wp)))
        a, b = u.walls(t)
        panels = stress._panels(n)
        phase = abs(s_t * t) + abs(s_x) * max(abs(a), abs(b))  # the terms summed into s
        eps = 2.0**-53  # unit roundoff
        for value, (c_sin, c_cos) in zip(got, weights):
            with mpmath.workdps(30):
                sa, sb = (mpmath.mpf(s_t) * t + mpmath.mpf(s_x) * x for x in (a, b))
                # int (c_sin sin^2 s + c_cos cos^2 s) dx, sin^2 s = (1 - cos 2s)/2
                exact = ((mpmath.mpf(c_sin) + c_cos) * (mpmath.mpf(b) - a) / 2
                         + (mpmath.mpf(c_cos) - c_sin) * (mpmath.sin(2 * sb) - mpmath.sin(2 * sa))
                         / (4 * mpmath.mpf(s_x)))
            # The gate is rounding alone (the truncation is below 1e-20 of (b - a)/2 |B|),
            # each term doubled from its count of roundings of relative eps:
            # - about 8 in each weighted value (sin or cos, square, weight, sum, the
            #   weight w = half * W) and the fsum: 16 eps max|density| (b - a);
            # - s = s_t t + s_x x carries 2 of its own and 2 from x: 8 eps * phase, which
            #   moves a density by |c_cos - c_sin| per unit of s;
            # - each panel's mid and half are rounded, so each of its two ends is off by
            #   up to 2 eps max(|a|, |b|): 8 eps panels max(|a|, |b|) max|density|;
            # - a subnormal result (|v| ~ 1e-313 makes p so) errs by 2^-1074 absolute
            #   instead: 16 (b - a) of them in the values, 32 per panel in the products.
            size = abs(c_sin) + abs(c_cos)
            gate = (eps * ((b - a) * (16.0 * size + 8.0 * abs(c_cos - c_sin) * phase)
                           + 8.0 * panels * max(abs(a), abs(b)) * size)
                    + 2.0**-1074 * (16.0 * (b - a) + 32.0 * panels))
            assert abs(value - exact) <= gate


# velocities uniform in the range every scheme runs, and within 1e-15 of light speed,
# where the 1 - v^2 in gamma (and in galileo-lab's w') amplifies rounding most
VELOCITIES = st.one_of(st.floats(-0.99, 0.99),
                       st.builds(lambda gap, sign: sign * (1.0 - 10.0**-gap),
                                 st.floats(2.0, 15.0), st.sampled_from((-1.0, 1.0))))


def _exact(coeffs, wp, p2, sigma):
    """(e, p) of the module docstring's closed form with N^2 l = 2, the unit L2 norm."""
    th_t, th_x, s_t, s_x = coeffs
    e = (th_t**2 + th_x**2 + s_t**2 + s_x**2 + p2) / (4 * wp)
    return e, -sigma * (th_t * th_x + s_t * s_x) / (2 * wp)


def _exact_1d(scheme, length, v, n, fault):
    """per_mode_em in 40-digit arithmetic from the float inputs (length, v)."""
    with mpmath.workdps(40):
        k = n * mpmath.pi / mpmath.mpf(length)
        v = mpmath.mpf(v)
        g = 1 / mpmath.sqrt(1 - v * v)
        if scheme is Scheme.GALILEO_LAB_PRIOR:
            coeffs, expansion, phase = (-k, v * k, -v * k, k), (1 - v * v) * k, k
        elif scheme is Scheme.GALILEO_COMOVING_PRIOR:
            coeffs, expansion, phase = (-k, 0, -v * k, k), k, k
        else:
            coeffs, expansion, phase = (-k * g, k * g * v, -k * g * v, k * g), k, g * k
        sigma, prefactor = fault
        wp = {None: expansion, "lab-phase": phase, "doubled": 2 * expansion}[prefactor]
        return _exact(coeffs, wp, 0, sigma)


def _exact_2d(a, b, v, n, m, fault):
    """per_mode_em_2d in 40-digit arithmetic from the float inputs (a, b, v)."""
    with mpmath.workdps(40):
        k, p = n * mpmath.pi / mpmath.mpf(a), m * mpmath.pi / mpmath.mpf(b)
        w = mpmath.sqrt(k * k + p * p)
        v = mpmath.mpf(v)
        g = 1 / mpmath.sqrt(1 - v * v)
        sigma, prefactor = fault
        wp = {None: w, "lab-phase": g * w, "doubled": 2 * w}[prefactor]
        return _exact((-w * g, w * g * v, -k * g * v, k * g), wp, p * p, sigma)


class TestClosedForm:
    """per_mode_em and per_mode_em_2d in closed form: against the jet quadrature, and the
    stated rounding bound (quad_error) against exact arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        rule=st.sampled_from(sorted(FAULTS)),
        log_length=st.floats(-3.0, 3.0),
        v_fraction=st.floats(-1.0, 1.0),
        n=st.integers(1, 12),
        t_fraction=st.floats(-3.0, 3.0),
    )
    def test_1d_matches_the_jet_quadrature(self, scheme, rule, log_length, v_fraction, n,
                                           t_fraction):
        length = 10.0**log_length
        cav = Cavity1D(length, v_fraction * (0.99 if scheme is Scheme.LORENTZ_EXACT else 0.5))
        t = t_fraction * length
        with stress._injected_fault(*FAULTS[rule]):
            pm = per_mode_em(scheme, cav, n)
            norm, coeffs, wp = stress._mode_terms(mode(scheme, cav, n))
            e, p = stress._jet_quadrature(norm, coeffs, wp, 0.0, cav.walls(scheme, t), t, n)
        # e >= |p|, so e scales both differences
        assert abs(pm.energy - e) <= 1e-13 * pm.energy
        assert abs(pm.momentum - p) <= 1e-13 * pm.energy

    @settings(max_examples=150, deadline=None)
    @given(
        rule=st.sampled_from(sorted(FAULTS)),
        log_a=st.floats(-3.0, 3.0),
        log_aspect=st.floats(-2.0, 2.0),
        v=st.floats(-0.99, 0.99),
        n=st.integers(1, 12),
        m=st.integers(1, 12),
        t_fraction=st.floats(-3.0, 3.0),
    )
    def test_2d_matches_the_jet_quadrature(self, rule, log_a, log_aspect, v, n, m, t_fraction):
        a = 10.0**log_a
        cav = Cavity2D(a, a * 10.0**log_aspect, v)
        t = t_fraction * a
        with stress._injected_fault(*FAULTS[rule]):
            pm = per_mode_em_2d(cav, n, m)
            norm, coeffs, wp, p2 = stress._profile_terms(cav, n, m)
            e, p = stress._jet_quadrature(norm, coeffs, wp, p2, cav.walls_x(t), t, n)
        assert abs(pm.energy - e) <= 1e-13 * pm.energy
        assert abs(pm.momentum - p) <= 1e-13 * pm.energy

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        rule=st.sampled_from(sorted(FAULTS)),
        log_length=st.floats(-3.0, 3.0),
        v=VELOCITIES,
        n=st.integers(1, 12),
    )
    def test_1d_rounding_bound_holds(self, scheme, rule, log_length, v, n):
        length = 10.0**log_length
        with stress._injected_fault(*FAULTS[rule]):
            pm = per_mode_em(scheme, Cavity1D(length, v), n)
        e, p = _exact_1d(scheme, length, v, n, FAULTS[rule])
        assert abs(pm.energy - e) <= pm.quad_error
        assert abs(pm.momentum - p) <= pm.quad_error

    @settings(max_examples=200, deadline=None)
    @given(
        rule=st.sampled_from(sorted(FAULTS)),
        log_a=st.floats(-3.0, 3.0),
        log_aspect=st.floats(-3.0, 3.0),
        v=VELOCITIES,
        n=st.integers(1, 12),
        m=st.integers(1, 12),
    )
    def test_2d_rounding_bound_holds(self, rule, log_a, log_aspect, v, n, m):
        a, b = 10.0**log_a, 10.0**(log_a + log_aspect)
        with stress._injected_fault(*FAULTS[rule]):
            pm = per_mode_em_2d(Cavity2D(a, b, v), n, m)
        e, p = _exact_2d(a, b, v, n, m, FAULTS[rule])
        assert abs(pm.energy - e) <= pm.quad_error
        assert abs(pm.momentum - p) <= pm.quad_error


def _extract_loop(scheme, velocities):
    """One single-velocity fit at a time."""
    return tuple(coefficient_fits(scheme, (v,))[0] for v in velocities)


@st.composite
def _grids(draw):
    scheme = draw(st.sampled_from(ALL_SCHEMES))
    cap = 0.99 if scheme is Scheme.LORENTZ_EXACT else 0.5
    velocities = draw(st.lists(st.floats(-cap, cap), min_size=1, max_size=40))
    return scheme, velocities, draw(st.sampled_from(list(FAULTS.values())))


class TestBatchedFits:
    """coefficient_fits integrates the first mode's real densities, one velocity at a time."""

    @settings(max_examples=60, deadline=None)
    @given(_grids())
    def test_equals_the_per_velocity_loop(self, grid):
        scheme, velocities, fault = grid
        with stress._injected_fault(*fault):
            batched = coefficient_fits(scheme, velocities)
            assert batched == _extract_loop(scheme, velocities)

    @settings(max_examples=60, deadline=None)
    @given(_grids())
    def test_matches_the_closed_form(self, grid):
        # the oracle: per_mode_em's closed form of the same mode
        scheme, velocities, fault = grid
        with stress._injected_fault(*fault):
            fits = coefficient_fits(scheme, velocities)
            pms = [per_mode_em(scheme, Cavity1D(1.0, v), 1) for v in velocities]
        for fit, pm in zip(fits, pms):
            c_e, c_p = pm.energy / (math.pi / 2), pm.momentum / (math.pi / 2)
            assert abs(fit.c_energy - c_e) <= 1e-13 * abs(c_e)
            assert abs(fit.c_momentum - c_p) <= 1e-13 * max(abs(c_p), abs(c_e))

    @pytest.mark.parametrize("count", [1, 32, 69])
    def test_one_scalar_quadrature_per_velocity(self, monkeypatch, count):
        seen = []
        quad = stress.gauss_legendre
        monkeypatch.setattr(stress, "gauss_legendre",
                            lambda f, a, b, **kw: seen.append((a, b)) or quad(f, a, b, **kw))
        coefficient_fits(Scheme.LORENTZ_EXACT, np.linspace(-0.9, 0.9, count))
        assert len(seen) == count
        assert all(isinstance(a, float) and isinstance(b, float) for a, b in seen)

    def test_validates_every_velocity(self):
        with pytest.raises(ValueError):
            coefficient_fits(Scheme.LORENTZ_EXACT, (0.2, 1.0))
        assert coefficient_fits(Scheme.LORENTZ_EXACT, ()) == ()
