import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav import modes, stress
from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav.modes import SpacetimeMode
from boostcav.stress import (
    coefficient_fits,
    per_mode_coefficients,
    per_mode_em,
    per_mode_em_2d,
    per_mode_em_2d_law,
)

from _oracles import jet_quadrature

ALL_SCHEMES = list(Scheme)
EPS = 2.0**-52


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

    def test_largest_finite_energies_still_answer(self):
        # 1.49 and 2.65 units of 2^-53 e from the 40-digit law (126.6 and 128.3 while
        # 1 - v^2 was formed as 1 - v * v)
        pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1e-150, 0.999), 3)
        assert (pm.energy, pm.momentum) == (4.710033964581081e+153, 4.7100316072079035e+153)

    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES), log_length=st.floats(-3.0, 3.0),
           n=st.integers(1, 60))
    def test_static_limit_is_exact(self, scheme, log_length, n):
        # at v = 0 every scheme's coefficients are (-k, 0, 0, k) and w' = k, so the
        # unit norm leaves e = k/2 with no rounding
        cav = Cavity1D(10.0**log_length, 0.0)
        pm = per_mode_em(scheme, cav, n)
        assert (pm.energy, pm.momentum) == (SpacetimeMode(scheme, cav, n).base_frequency / 2, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(log_length=st.floats(math.log10(2.4e-154), 3.0), log_gap=st.floats(-16.0, 0.0),
           sign=st.sampled_from((-1.0, 1.0)),
           n=st.one_of(st.integers(1, 1000), st.integers(1, 10**152)))
    def test_refuses_only_what_float64_cannot_hold(self, log_length, log_gap, sign, n):
        # 1 - |v| from 1e-16 to 1: gamma^2 up to 4.5e15 and k = n pi/L up to 1e306 overflow
        # no intermediate sum; only an energy past float64 is refused
        length, v = 10.0**log_length, sign * (1.0 - 10.0**log_gap)
        e, p = _exact_1d(Scheme.LORENTZ_EXACT, length, v, n, FAULTS["scheme"])
        if e <= 1e308:
            pm = per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(length, v), n)
            assert math.isfinite(pm.quad_error)
            assert abs(pm.energy - e) <= pm.quad_error
            assert abs(pm.momentum - p) <= pm.quad_error
        elif e >= 1.8e308:
            with pytest.raises(ValueError, match="energy .* or momentum .* is not finite"):
                per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(length, v), n)


class TestCoefficients:
    def test_contracted_closed_form_at_half_light_speed(self):
        [(c_e, c_p)] = coefficient_fits(Scheme.LORENTZ_EXACT, (0.5,))
        assert abs(c_e - 5.0 / 3.0) < 1e-9
        assert abs(c_p - 4.0 / 3.0) < 1e-9

    def test_comoving_prior_small_velocity(self):
        [(c_e, c_p)] = coefficient_fits(Scheme.GALILEO_COMOVING_PRIOR, (0.1,))
        assert abs(c_e - 1.005) < 1e-9
        assert abs(c_p - 0.1) < 1e-9

    def test_lab_prior_quadrature_law(self):
        # analytic trig integrals give ((1+v^2)/(1-v^2), 2v/(1-v^2)); at
        # v = 0.2 that is (1.08333..., 0.41666...)
        [(c_e, c_p)] = coefficient_fits(Scheme.GALILEO_LAB_PRIOR, (0.2,))
        assert abs(c_e - 1.04 / 0.96) < 1e-9
        assert abs(c_p - 0.4 / 0.96) < 1e-9

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("v", [0.05, 0.3])
    def test_quadrature_matches_per_mode_law(self, scheme, v):
        [(c_e, c_p)] = coefficient_fits(scheme, (v,))
        ce, cp = per_mode_coefficients(scheme, v)
        assert abs(c_e - ce) < 1e-10 * max(1.0, ce)
        assert abs(c_p - cp) < 1e-10

    def test_first_mode_ratios_hold_for_every_mode(self):
        [(c_e, c_p)] = coefficient_fits(Scheme.LORENTZ_EXACT, (0.8,))
        cav = Cavity1D(1.0, 0.8)
        for n in range(1, 7):
            pm = per_mode_em(Scheme.LORENTZ_EXACT, cav, n)
            half_w = n * math.pi / 2
            assert abs(pm.energy / half_w - c_e) <= 1e-8 * c_e
            assert abs(pm.momentum / half_w - c_p) <= 1e-8 * c_e

    @settings(max_examples=300, deadline=None)
    @given(scheme=st.sampled_from((Scheme.LORENTZ_EXACT, Scheme.GALILEO_LAB_PRIOR)),
           v=st.one_of(st.floats(-0.99, 0.99),
                       st.builds(lambda gap, sign: sign * (1.0 - 10.0**-gap),
                                 st.floats(2.0, 16.0), st.sampled_from((-1.0, 1.0)))))
    def test_law_within_a_few_ulps_of_the_40_digit_law(self, scheme, v):
        # 1 - v^2 as (1 - v)(1 + v) leaves no cancellation: c_E and c_P each pass
        # at most six roundings, within 4 eps of the law at any |v| < 1
        ce, cp = per_mode_coefficients(scheme, v)
        with mpmath.workdps(40):
            w = mpmath.mpf(v)
            exact_e, exact_p = (1 + w * w) / (1 - w * w), 2 * w / (1 - w * w)
            assert abs(ce - exact_e) <= 4.0 * EPS * abs(exact_e)
            assert abs(cp - exact_p) <= 4.0 * EPS * abs(exact_p)

    def test_parity(self):
        for scheme in ALL_SCHEMES:
            (e_plus, p_plus), (e_minus, p_minus) = coefficient_fits(scheme, (0.25, -0.25))
            assert abs(e_plus - e_minus) < 1e-10
            assert abs(p_plus + p_minus) < 1e-10


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
            [(c_e, _)] = coefficient_fits(Scheme.LORENTZ_EXACT, (0.6,))
        ce, _ = per_mode_coefficients(Scheme.LORENTZ_EXACT, 0.6)
        assert abs(c_e - ce) > 1e-3

    @pytest.mark.parametrize("v", [0.3, 0.6, -0.95])
    def test_lab_phase_is_the_klein_gordon_weight(self, v):
        # the paper's weight 1/(2 w') over 1/(2 x lab phase frequency), the weight of a mode
        # normalized to the conserved pairing: gamma for lorentz and the rectangle,
        # gamma^2 for galileo-lab, 1 for galileo-comoving
        g = 1.0 / math.sqrt(1.0 - v * v)
        ratios = {Scheme.LORENTZ_EXACT: g, Scheme.GALILEO_LAB_PRIOR: g * g,
                  Scheme.GALILEO_COMOVING_PRIOR: 1.0}
        cav, rect = Cavity1D(1.3, v), Cavity2D(1.3, 0.7, v)
        with stress._injected_fault(prefactor="lab-phase"):
            kg = {scheme: per_mode_em(scheme, cav, 3) for scheme in ratios}
            kg_2d = per_mode_em_2d(rect, 2, 3)
        for scheme, ratio in ratios.items():
            pm = per_mode_em(scheme, cav, 3)
            assert pm.energy == pytest.approx(ratio * kg[scheme].energy, rel=1e-14)
            assert pm.momentum == pytest.approx(ratio * kg[scheme].momentum, rel=1e-14)
            wp = stress._mode_terms(SpacetimeMode(scheme, cav, 3))[1]
            assert ratio * 2.0 * wp == pytest.approx(modes.canonical_norm(scheme, cav, 3),
                                                     rel=1e-14)
        assert per_mode_em_2d(rect, 2, 3).energy == pytest.approx(g * kg_2d.energy, rel=1e-14)
        # (e^2 - p^2)/(w/2)^2 per lorentz mode: 1 under the paper's weight, 1 - v^2 under this
        e, p = kg[Scheme.LORENTZ_EXACT].energy, kg[Scheme.LORENTZ_EXACT].momentum
        assert (e * e - p * p) / (1.5 * math.pi / 1.3) ** 2 == pytest.approx(1.0 - v * v, rel=1e-12)


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
        norm = SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.6), 1).normalization
        coeffs, wp, p2 = stress._profile_terms(cav, 1, 1)
        e, p = jet_quadrature(norm, coeffs, wp, p2, cav.walls_x(t), t, 1)
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

    @pytest.mark.parametrize("f", [per_mode_em_2d, per_mode_em_2d_law])
    @pytest.mark.parametrize("a, b, side, index", [(1e-200, 1.0, "a", "n"), (1e-154, 1.0, "a", "n"),
                                                   (1.0, 1e-200, "b", "m")])
    def test_either_side_too_small_for_its_mode_is_named(self, f, a, b, side, index):
        # side a gave inf from per_mode_em_2d and an OverflowError from the law
        length = a if side == "a" else b
        message = (f"side {side} = {length!r} is too small for mode {index} = 1: "
                   f"({index} pi/{side})^2 is not finite in float64")
        with pytest.raises(ValueError) as info:
            f(Cavity2D(a, b, 0.5), 1, 1)
        assert str(info.value) == message

    def test_smallest_side_a_left_keeps_the_law(self):
        cav = Cavity2D(1e-153, 1.0, 0.5)
        pm = per_mode_em_2d(cav, 1, 1)
        e_law, p_law = per_mode_em_2d_law(cav, 1, 1)
        assert (e_law, p_law) == (2.6179938779914943e+153, 2.0943951023931952e+153)
        assert abs(pm.energy - e_law) <= pm.quad_error
        assert abs(pm.momentum - p_law) <= pm.quad_error

    def test_wide_cavity_recovers_1d_ratios(self):
        # p_1 -> 0 proxy: per-mode ratios approach the 1D boosted laws
        cav = Cavity2D(1.0, 50.0, 0.6)
        pm = per_mode_em_2d(cav, 1, 1)
        w = math.hypot(math.pi, math.pi / 50.0)
        gamma2 = 1.0 / 0.64
        assert abs(pm.energy / (w / 2) - gamma2 * 1.36) < 2e-3
        assert abs(pm.momentum / w - gamma2 * 0.6) < 2e-3


@pytest.mark.parametrize("call", [
    lambda: per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1e-150, 0.9999999), 10**152),
    lambda: per_mode_em_2d_law(Cavity2D(2.87e-154, 1.0, 0.0), 1, 1),
    lambda: per_mode_em_2d_law(Cavity2D(1e-150, 1.0, 0.9999999), 1, 1),
], ids=["1d-n", "law-k2", "law-gamma2"])
def test_per_mode_energy_or_momentum_past_float64_is_refused(call):
    # the 1D energy is past float64 (about 1.6e309); the law's sums overflow on
    # gamma^2 or k^2, which would read inf or nan
    with pytest.raises(ValueError, match="energy .* or momentum .* is not finite in float64"):
        call()


@pytest.mark.parametrize("call, law", [
    (lambda: per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1e-150, 0.9999999), 3),
     lambda: _exact_1d(Scheme.LORENTZ_EXACT, 1e-150, 0.9999999, 3, FAULTS["scheme"])),
    (lambda: per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1e-150, 0.9999999), 10**151),
     lambda: _exact_1d(Scheme.LORENTZ_EXACT, 1e-150, 0.9999999, 10**151, FAULTS["scheme"])),
    (lambda: per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1e-146, 1 - 2**-53), 1),
     lambda: _exact_1d(Scheme.LORENTZ_EXACT, 1e-146, 1 - 2**-53, 1, FAULTS["scheme"])),
    (lambda: per_mode_em_2d(Cavity2D(2.87e-154, 1.0, 0.0), 1, 1),
     lambda: _exact_2d(2.87e-154, 1.0, 0.0, 1, 1, FAULTS["scheme"])),
    (lambda: per_mode_em(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 1 - 2**-53), 10**292),
     lambda: _exact_1d(Scheme.LORENTZ_EXACT, 1.0, 1 - 2**-53, 10**292, FAULTS["scheme"])),
], ids=["1d-gamma2", "1d-n", "1d-light-speed", "2d-k2", "1d-top-of-float64"])
def test_per_mode_energy_within_float64_answers(call, law):
    # gamma^2 or k^2 alone past float64, with e and p representable: the closed form
    # divides each coefficient by w' before squaring, so it answers, and its bound
    # 8 eps e is finite (e = 1.41e308 at the top of float64)
    pm = call()
    e, p = law()
    assert math.isfinite(pm.quad_error)
    assert abs(pm.energy - e) <= pm.quad_error
    assert abs(pm.momentum - p) <= pm.quad_error


# float.hex of per_mode_em(scheme, Cavity1D(1.3, v), n) (energy, momentum),
# re-recorded when the closed form came to read the mode's coefficients alone
# (N^2 l = 2), and the galileo-lab and two lorentz entries again when 1 - v^2 came
# to be formed as (1 - v)(1 + v); any change is a defect. Each comment gives the
# energy's and the momentum's distance from the 40-digit law (_exact_1d) in units
# of 2^-53 e.
PER_MODE_HEX = {
    ("galileo-lab", -0.3, 1): ("0x1.7282ec43a7d14p+0", "-0x1.97e708ce018f8p-1"),  # 0.15, 0.42
    ("galileo-lab", -0.3, 6): ("0x1.15e23132bddcfp+3", "-0x1.31ed469a812bap+2"),  # 0.15, 0.42
    ("galileo-lab", 0.3, 1): ("0x1.7282ec43a7d14p+0", "0x1.97e708ce018f8p-1"),  # 0.15, 0.42
    ("galileo-lab", 0.3, 6): ("0x1.15e23132bddcfp+3", "0x1.31ed469a812bap+2"),  # 0.15, 0.42
    ("galileo-comoving", -0.3, 1): ("0x1.433ee75f3d96ap+0", "-0x1.7330f617a023dp-2"),  # 1.48, 0.13
    ("galileo-comoving", -0.3, 6): ("0x1.e4de5b0edc620p+2", "-0x1.1664b891b81aep+1"),  # 0.42, 0.00
    ("galileo-comoving", 0.3, 1): ("0x1.433ee75f3d96ap+0", "0x1.7330f617a023dp-2"),  # 1.48, 0.13
    ("galileo-comoving", 0.3, 6): ("0x1.e4de5b0edc620p+2", "0x1.1664b891b81aep+1"),  # 0.42, 0.00
    ("lorentz", -0.7, 1): ("0x1.c3dbcf8c071ffp+1", "-0x1.a890ae64a4c2fp+1"),  # 1.68, 1.57
    ("lorentz", -0.7, 6): ("0x1.52e4dba90557fp+4", "-0x1.3e6c82cb7b922p+4"),  # 1.30, 0.32
    ("lorentz", 0.3, 1): ("0x1.7282ec43a7d12p+0", "0x1.97e708ce018f4p-1"),  # 2.92, 2.34
    ("lorentz", 0.3, 6): ("0x1.15e23132bddcep+3", "0x1.31ed469a812b8p+2"),  # 1.99, 1.42
    ("lorentz", 0.6352, 3): ("0x1.10ea551b8ed13p+3", "0x1.ee13192f9032bp+2"),  # 2.86, 3.18
    ("lorentz", -0.8329, 6): ("0x1.40bbdc7f4bdd4p+5", "-0x1.3b723edc0c6f1p+5"),  # 1.07, 2.31
}


# stress._injected_fault's arguments (T01 sign, prefactor rule) by label; "scheme" is no fault
FAULTS = {
    "scheme": (1.0, None),
    "lab-phase": (1.0, "lab-phase"),
    "doubled": (1.0, "doubled"),
    "t01-flip": (-1.0, None),
}

# float.hex of per_mode_em_2d(Cavity2D(a, b, v), n, m) (energy, momentum)
# under each fault, re-recorded when the closed form came to read the mode's
# coefficients alone, and the v = -0.93 entries again when 1 - v^2 came to be
# formed as (1 - v)(1 + v); any change is a defect. Each comment gives the distances
# from the 40-digit law (_exact_2d) in units of 2^-53 e, as PER_MODE_HEX's do.
PER_MODE_2D_HEX = {
    ((1.0, 1.5, 0.3, 1, 2), "scheme"): ("0x1.7c2d2b2f9000ep+1", "0x1.2c7cf7fabe96cp+0"),  # 1.99, 1.85
    ((1.0, 1.5, 0.3, 1, 2), "lab-phase"): ("0x1.6aaa4b3011349p+1", "0x1.1ea5be412b416p+0"),  # 0.36, 0.85
    ((1.0, 1.5, 0.3, 1, 2), "doubled"): ("0x1.7c2d2b2f9000ep+0", "0x1.2c7cf7fabe96cp-1"),  # 1.99, 1.85
    ((1.0, 1.5, 0.3, 1, 2), "t01-flip"): ("0x1.7c2d2b2f9000ep+1", "-0x1.2c7cf7fabe96cp+0"),  # 1.99, 1.85
    ((0.7, 35.0, -0.6, 3, 1), "scheme"): ("0x1.c9c79b83ce42dp+3", "-0x1.93eb4739aae07p+3"),  # 0.13, 0.34
    ((0.7, 35.0, -0.6, 3, 1), "lab-phase"): ("0x1.6e3949363e9bdp+3", "-0x1.43229f6155805p+3"),  # 0.90, 0.66
    ((0.7, 35.0, -0.6, 3, 1), "doubled"): ("0x1.c9c79b83ce42dp+2", "-0x1.93eb4739aae07p+2"),  # 0.13, 0.34
    ((0.7, 35.0, -0.6, 3, 1), "t01-flip"): ("0x1.c9c79b83ce42dp+3", "0x1.93eb4739aae07p+3"),  # 0.13, 0.34
    ((1.0, 50.0, 0.6, 1, 1), "scheme"): ("0x1.ab4bfbfcd42ecp+1", "0x1.78fdba6e70fbep+1"),  # 0.20, 1.43
    ((1.0, 50.0, 0.6, 1, 1), "lab-phase"): ("0x1.55d66330a9befp+1", "0x1.2d97c8585a634p+1"),  # 1.89, 2.00
    ((1.0, 50.0, 0.6, 1, 1), "doubled"): ("0x1.ab4bfbfcd42ecp+0", "0x1.78fdba6e70fbep+0"),  # 0.20, 1.43
    ((1.0, 50.0, 0.6, 1, 1), "t01-flip"): ("0x1.ab4bfbfcd42ecp+1", "-0x1.78fdba6e70fbep+1"),  # 0.20, 1.43
    ((2.3, 0.4, -0.93, 5, 4), "scheme"): ("0x1.ee83ddf789cf0p+6", "-0x1.ce98f7fb848fep+6"),  # 2.54, 2.48
    ((2.3, 0.4, -0.93, 5, 4), "lab-phase"): ("0x1.6b8708316c841p+5", "-0x1.541072f4f0903p+5"),  # 1.68, 0.90
    ((2.3, 0.4, -0.93, 5, 4), "doubled"): ("0x1.ee83ddf789cf0p+5", "-0x1.ce98f7fb848fep+5"),  # 2.54, 2.48
    ((2.3, 0.4, -0.93, 5, 4), "t01-flip"): ("0x1.ee83ddf789cf0p+6", "0x1.ce98f7fb848fep+6"),  # 2.54, 2.48
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
# 0.37) as (e, p) at verify's velocities (0.6 lorentz, 0.2 galileo); recorded on the
# _panels(n) = ceil(n/2) panels of the truncation bound: 1 for coefficient_fits, 1, 2, 3
# for n = 2, 3, 5. The lorentz fits at -0.95 and +-(1 - 1e-9) were re-recorded when
# 1 - v^2 came to be formed as (1 - v)(1 + v): their distances from the 40-digit law,
# in units of 2^-53 c_E, went from (2.43, 0.85) to (0.79, 0.85) and from 4.5e6 to 1.89
FIT_HEX = {
    ("lorentz", 0.0): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("lorentz", 0.6): ("0x1.1000000000001p+1", "0x1.e000000000002p+0"),
    ("lorentz", -0.95): ("0x1.3834834834830p+4", "-0x1.37cb7cb7cb7c7p+4"),
    ("lorentz", 1 - 1e-9): ("0x1.dcd650de4165dp+29", "0x1.dcd650de4165dp+29"),
    ("lorentz", -(1 - 1e-9)): ("0x1.dcd650de4165dp+29", "-0x1.dcd650de4165dp+29"),
    ("galileo-comoving", 0.2): ("0x1.051eb851eb852p+0", "0x1.9999999999996p-3"),
    ("galileo-comoving", -0.45): ("0x1.19eb851eb851fp+0", "-0x1.cccccccccccc9p-2"),
    ("galileo-lab", 0.2): ("0x1.1555555555556p+0", "0x1.aaaaaaaaaaaabp-2"),
    ("galileo-lab", -0.45): ("0x1.82019ae24ea54p+0", "-0x1.20e71f4c3cfdbp+0"),
}
DENSITY_QUADRATURE_HEX = {
    ("galileo-lab", 2): ("0x1.b3a259b49db86p+1", "0x1.4f1a6c638d040p+0"),
    ("galileo-lab", 3): ("0x1.46b9c347764a4p+2", "0x1.f6a7a29553860p+0"),
    ("galileo-lab", 5): ("0x1.10457810e2934p+3", "0x1.a2e1077c70450p+1"),
    ("galileo-comoving", 2): ("0x1.9a2a950d4e652p+1", "0x1.41b2f769cf0ddp-1"),
    ("galileo-comoving", 3): ("0x1.339fefc9facbdp+2", "0x1.e28c731eb6955p-1"),
    ("galileo-comoving", 5): ("0x1.005a9d2850ff4p+3", "0x1.921fb54442d1ap+0"),
    ("lorentz", 2): ("0x1.ab41b09886febp+2", "0x1.78fdb9effea49p+2"),
    ("lorentz", 3): ("0x1.40714472653efp+3", "0x1.1abe4b73fefb5p+3"),
    ("lorentz", 5): ("0x1.0b090e5f545f3p+4", "0x1.d73d286bfe4dap+3"),
}


class TestQuadratureBits:
    @pytest.mark.parametrize("key", list(FIT_HEX), ids=lambda k: "-".join(map(str, k)))
    def test_coefficient_fits(self, key):
        scheme, v = key
        [(c_e, c_p)] = coefficient_fits(Scheme(scheme), (v,))
        assert (c_e.hex(), c_p.hex()) == FIT_HEX[key]

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
        u = SpacetimeMode(scheme, Cavity1D(length, v), n)
        with stress._injected_fault(sigma, prefactor):
            got = stress._density_quadrature(scheme, Cavity1D(length, v), n, t)
            # the densities' sin^2 s and cos^2 s weights, as _density_quadrature forms them
            (th_t, th_x, s_t, s_x), wp = stress._mode_terms(u)
        n2 = u.normalization * u.normalization
        weights = ((n2 * (th_t * th_t + th_x * th_x) / (4.0 * wp),
                    n2 * (s_t * s_t + s_x * s_x) / (4.0 * wp)),
                   (-sigma * n2 * th_t * th_x / (2.0 * wp), -sigma * n2 * s_t * s_x / (2.0 * wp)))
        a, b = u.cavity.walls(scheme, t)
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
# where 1 - v^2 (in gamma and in galileo-lab's w') is smallest
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
            u = SpacetimeMode(scheme, cav, n)
            coeffs, wp = stress._mode_terms(u)
            e, p = jet_quadrature(u.normalization, coeffs, wp, 0.0, cav.walls(scheme, t),
                                  t, n)
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
            norm = SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(a, v), n).normalization
            coeffs, wp, p2 = stress._profile_terms(cav, n, m)
            e, p = jet_quadrature(norm, coeffs, wp, p2, cav.walls_x(t), t, n)
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
        for (fit_e, fit_p), pm in zip(fits, pms):
            c_e, c_p = pm.energy / (math.pi / 2), pm.momentum / (math.pi / 2)
            assert abs(fit_e - c_e) <= 1e-13 * abs(c_e)
            assert abs(fit_p - c_p) <= 1e-13 * max(abs(c_p), abs(c_e))

    @pytest.mark.parametrize("count", [1, 32, 69])
    def test_one_scalar_quadrature_per_velocity(self, monkeypatch, count):
        seen = []
        quad = stress.gauss_legendre
        monkeypatch.setattr(stress, "gauss_legendre",
                            lambda f, a, b, **kw: seen.append((a, b)) or quad(f, a, b, **kw))
        coefficient_fits(Scheme.LORENTZ_EXACT, np.linspace(-0.9, 0.9, count))
        assert len(seen) == count
        assert all(isinstance(a, float) and isinstance(b, float) for a, b in seen)

    def test_work_count_is_one_panel_per_velocity(self, monkeypatch):
        # the first mode's densities span one period of 2s: the bound's one panel, 16 abscissae
        seen = []
        quad = stress.gauss_legendre

        def counted(f, a, b, *, panels):
            def sized(xs):
                seen.append((panels, len(xs)))
                return f(xs)
            return quad(sized, a, b, panels=panels)

        monkeypatch.setattr(stress, "gauss_legendre", counted)
        coefficient_fits(Scheme.LORENTZ_EXACT, np.linspace(-0.9, 0.9, 7))
        assert seen == [(1, 16)] * 7
        assert [stress._panels(n) for n in range(1, 61)] == [math.ceil(n / 2) for n in range(1, 61)]

    def test_validates_every_velocity(self):
        with pytest.raises(ValueError):
            coefficient_fits(Scheme.LORENTZ_EXACT, (0.2, 1.0))
        assert coefficient_fits(Scheme.LORENTZ_EXACT, ()) == ()
