import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav import modes
from boostcav.modes import OutsideCavityError
from boostcav.quadrature import gauss_legendre
from mpmath.calculus.quadrature import GaussLegendre

ALL_SCHEMES = list(Scheme)


def scheme_velocity(scheme):
    return 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2


EPS = np.finfo(float).eps


def field_scale(scheme, cav, n):
    """N (th_t^2 + th_x^2 + s_t^2 + s_x^2), a bound on |u_tt| + |u_xx|."""
    u = modes.mode(scheme, cav, n)
    return u.normalization * sum(c * c for c in u._coeffs)


class TestCavityTypes:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Cavity1D(-1.0, 0.1)
        with pytest.raises(ValueError):
            Cavity1D(1.0, 1.0)
        with pytest.raises(ValueError):
            Cavity1D(1.0, -1.2)
        with pytest.raises(ValueError):
            Cavity2D(1.0, 0.0, 0.1)

    def test_gamma_and_contraction(self):
        cav = Cavity1D(2.0, 0.6)
        assert abs(cav.gamma() - 1.25) < 1e-15
        assert abs(cav.lab_length(Scheme.LORENTZ_EXACT) - 1.6) < 1e-15
        assert abs(cav.lab_length(Scheme.GALILEO_LAB_PRIOR) - 2.0) < 1e-15

    def test_scheme_labels_roundtrip(self):
        for scheme in ALL_SCHEMES:
            assert Scheme(scheme.label) is scheme
        with pytest.raises(ValueError):
            Scheme("einstein")


class TestFrequencies:
    def test_lab_prior_frequency_shift(self):
        # comoving frequency (1 - v^2) n pi / L
        got = modes.mode(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.0, 0.2), 3).comoving_frequency
        assert abs(got - 0.96 * 3 * math.pi) < 1e-14

    def test_contraction_frequency_velocity_independent(self):
        got = modes.mode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.9), 1).comoving_frequency
        assert abs(got - math.pi) < 1e-15

    def test_comoving_prior_frequency(self):
        got = modes.mode(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(2.0, 0.1), 2).comoving_frequency
        assert abs(got - math.pi) < 1e-15

    def test_lab_phase_accessor(self):
        cav = Cavity1D(1.0, 0.6)
        assert abs(modes.mode(Scheme.LORENTZ_EXACT, cav, 2).lab_phase_frequency
                   - 1.25 * 2 * math.pi) < 1e-14
        assert abs(modes.mode(Scheme.GALILEO_COMOVING_PRIOR, cav, 2).lab_phase_frequency
                   - 2 * math.pi) < 1e-14

    def test_rejects_bad_index(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                modes.mode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.1), bad)
        with pytest.raises(ValueError):
            modes.SpacetimeMode2D(Cavity2D(1.0, 1.0), 1, 0)


class TestEvalMode:
    def test_static_midpoint_antinode(self):
        got = modes.mode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.0), 1).value(0.0, 0.5)
        assert abs(got - math.sqrt(2.0)) < 1e-14

    def test_wall_zero_every_scheme(self):
        for scheme in ALL_SCHEMES:
            cav = Cavity1D(1.0, scheme_velocity(scheme))
            t = 0.8
            left = cav.velocity * t
            assert abs(modes.mode(scheme, cav, 4).value(t, left)) < 1e-12

    def test_contracted_mode_value_and_norm(self):
        # v = 0.6, n = 1, t = 0, x = 0.4: N e^{i pi gamma 0.24} sin(0.4 pi gamma)
        cav = Cavity1D(1.0, 0.6)
        gamma = 1.25
        expected = (
            math.sqrt(2.0 * gamma)
            * np.exp(1j * math.pi * gamma * 0.6 * 0.4)
            * math.sin(0.4 * math.pi * gamma)
        )
        got = modes.mode(Scheme.LORENTZ_EXACT, cav, 1).value(0.0, 0.4)
        assert abs(got - expected) < 1e-14

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_unit_spatial_norm(self, scheme, n):
        # oracle: numerical norm integral fixes the normalization constant
        cav = Cavity1D(1.3, scheme_velocity(scheme))
        t = 0.4
        u = modes.mode(scheme, cav, n)
        left, right = u.walls(t)
        norm = gauss_legendre(
            lambda xs: [abs(u.value(t, x, check=False)) ** 2 for x in xs],
            left, right, panels=n,
        )
        assert abs(norm - 1.0) < 1e-12

    def test_outside_cavity_rejected(self):
        cav = Cavity1D(1.0, 0.6)
        with pytest.raises(OutsideCavityError):
            modes.mode(Scheme.LORENTZ_EXACT, cav, 1).value(0.0, 0.9)  # beyond L/gamma
        with pytest.raises(OutsideCavityError):
            modes.mode(Scheme.GALILEO_COMOVING_PRIOR, cav, 1).value(2.0, 0.3)


class TestBoundaryAndFieldEquation:
    @pytest.mark.parametrize("scheme,n,t,v", [
        (Scheme.LORENTZ_EXACT, 4, 1.3, 0.5),
        (Scheme.GALILEO_COMOVING_PRIOR, 1, 0.0, 0.1),
        (Scheme.GALILEO_LAB_PRIOR, 2, 7.0, 0.05),
    ])
    def test_boundary_residual(self, scheme, n, t, v):
        length = 2.0 if scheme is Scheme.GALILEO_LAB_PRIOR else 1.0
        left, right = modes.boundary_residual(scheme, Cavity1D(length, v), n, t)
        assert abs(left) < 1e-12
        assert abs(right) < 1e-12

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_kg_residual_small(self, scheme, n):
        rng = np.random.default_rng(7 + n)
        for v in (0.0, 0.3, 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2):
            cav = Cavity1D(1.0, v)
            bound = 4.0 * EPS * field_scale(scheme, cav, n)
            left, right = cav.walls(scheme, 0.2)
            for x in left + (right - left) * rng.uniform(0.02, 0.98, 100):
                assert modes.kg_residual(scheme, cav, n, 0.2, float(x)) <= bound

    # |v| up to 1 - 1e-9 for lorentz, the Galilean schemes' 0.5 cap otherwise
    @settings(max_examples=300, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES), log10_length=st.floats(-6.0, 6.0),
           speed=st.floats(-1.0, 1.0), n=st.integers(1, 10_000), tau=st.floats(-2.0, 2.0),
           xi=st.floats(1e-3, 1.0 - 1e-3))
    def test_kg_residual_at_the_edges(self, scheme, log10_length, speed, n, tau, xi):
        length = 10.0 ** log10_length
        cav = Cavity1D(length, speed * (1.0 - 1e-9 if scheme is Scheme.LORENTZ_EXACT else 0.5))
        t = tau * length
        left, right = cav.walls(scheme, t)
        r = modes.kg_residual(scheme, cav, n, t, left + xi * (right - left))
        assert r <= 4.0 * EPS * field_scale(scheme, cav, n)

    def test_static_standing_wave_solves_wave_equation(self):
        r = modes.kg_residual(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.0, 0.0), 2, 0.0, 0.25)
        assert r < 1e-12

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_closed_form_derivatives_match_finite_differences(self, scheme):
        cav = Cavity1D(1.0, scheme_velocity(scheme))
        u = modes.mode(scheme, cav, 2)
        t, x = 0.3, cav.velocity * 0.3 + 0.3
        h = 1e-5 * cav.proper_length
        fd_t = (u.value(t + h, x, check=False) - u.value(t - h, x, check=False)) / (2 * h)
        fd_x = (u.value(t, x + h, check=False) - u.value(t, x - h, check=False)) / (2 * h)
        # central differences carry O(h^2 |u'''|) truncation error
        assert abs(fd_t - complex(u.d_dt(t, x))) < 1e-6 * abs(u.d_dt(t, x))
        assert abs(fd_x - complex(u.d_dx(t, x))) < 1e-6 * abs(u.d_dx(t, x))


# float.hex (real, imag) of SpacetimeMode2D(Cavity2D(a, b, v), n, m).value, d_dt, d_dx
# and d_dy at (t, x, y), recorded while the 2D mode still wrote its own derivatives.
MODE_2D_HEX = {
    (1.0, 1.0, 0.0, 1, 1, 0.0, 0.3, 0.4): (
        ("0x1.89f188bdcd7afp+0", "0x0.0p+0"),
        ("0x0.0p+0", "-0x1.b58fab2c4e2fdp+2"),
        ("0x1.c196908691da6p+1", "0x0.0p+0"),
        ("0x1.921fb54442d18p+0", "0x0.0p+0"),
    ),
    (1.0, 2.0, 0.6, 2, 3, 0.37, 0.7899999999999999, 1.3): (
        ("0x1.005cc98f4a05cp-3", "0x1.a25872857caf2p-3"),
        ("0x1.da9d4950199c5p+0", "-0x1.79e01e30474f4p+0"),
        ("-0x1.e6d271c50d58ap-1", "0x1.2636fb4150f7ap+0"),
        ("-0x1.dcb83aa9ed018p+1", "-0x1.84f7c6e462989p+2"),
    ),
    (1.5, 0.7, -0.8329, 5, 2, 1.1, -0.8082724140385359, 0.52): (
        ("0x1.a43c4b3694915p-1", "-0x1.17da6b29c540fp+1"),
        ("-0x1.e8a24f69d927fp+5", "-0x1.72fadeb7b1b65p+1"),
        ("-0x1.aa5f696aa0f43p+5", "0x1.02b2a69bf01eep+2"),
        ("0x1.52cdbf145b972p-2", "-0x1.c33f95613a08fp-1"),
    ),
    (0.3, 5.0, 0.95, 7, 8, -0.4, -0.2956925270216216, 4.1): (
        ("-0x1.1ff9f2628c909p+1", "0x1.26dedd6050d2cp-1"),
        ("0x1.f411bcabb5566p+8", "0x1.b4168fa52f1a0p+8"),
        ("-0x1.003d727693f2bp+9", "-0x1.94b4cc061ab65p+8"),
        ("0x1.14216bca9faa3p+1", "-0x1.1abdbd5f03269p-1"),
    ),
}


class TestModes2D:
    def test_frequency_examples(self):
        assert abs(modes.SpacetimeMode2D(Cavity2D(1.0, 2.0), 1, 1).frequency
                   - math.pi * math.sqrt(1.25)) < 1e-14
        assert abs(modes.SpacetimeMode2D(Cavity2D(1.0, 1.0), 3, 4).frequency - 5 * math.pi) < 1e-13
        assert abs(modes.SpacetimeMode2D(Cavity2D(2.0, 2.0), 2, 2).frequency
                   - math.pi * math.sqrt(2.0)) < 1e-14
        assert abs(modes.SpacetimeMode2D(Cavity2D(1.0, 2.0), 1, 1).wavenumber_x - math.pi) < 1e-15
        assert abs(modes.SpacetimeMode2D(Cavity2D(1.0, 2.0), 1, 1).wavenumber_y - math.pi / 2) < 1e-15

    def test_static_antinode_value(self):
        got = modes.SpacetimeMode2D(Cavity2D(1.0, 1.0, 0.0), 1, 1).value(0.0, 0.5, 0.5)
        assert abs(got - 2.0) < 1e-14

    def test_boundary_zeros(self):
        cav = Cavity2D(1.0, 1.0, 0.6)
        t = 0.7
        left = cav.velocity * t
        u = modes.mode_2d(cav, 2, 3)
        assert abs(u.value(t, left, 0.4, check=False)) < 1e-12
        assert abs(u.value(t, left + 0.3, 0.0, check=False)) < 1e-12
        assert abs(u.value(t, left + cav.lab_length_x(), 0.4, check=False)) < 1e-12

    def test_unit_norm_2d(self):
        # oracle: nested quadrature of |u|^2 over the instantaneous rectangle;
        # the outer x integrand integrates y at all of its abscissae at once, one
        # component per abscissa
        cav = Cavity2D(1.0, 2.0, 0.6)
        u = modes.mode_2d(cav, 2, 3)
        t = 0.15
        left, right = cav.walls_x(t)

        def over_y(xs):
            return list(gauss_legendre(
                lambda ys: tuple([abs(u.value(t, x, y, check=False)) ** 2 for y in ys] for x in xs),
                0.0, cav.proper_length_y, panels=3,
            ))

        norm = gauss_legendre(over_y, left, right, panels=2)
        assert abs(norm - 1.0) < 1e-10

    @pytest.mark.parametrize("point", list(MODE_2D_HEX), ids=str)
    def test_bits_unchanged(self, point):
        a, b, v, n, m, t, x, y = point
        u = modes.SpacetimeMode2D(Cavity2D(a, b, v), n, m)
        got = [complex(f(t, x, y)) for f in (u.value, u.d_dt, u.d_dx, u.d_dy)]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == list(MODE_2D_HEX[point])

    @pytest.mark.parametrize("a,b,v,n,m", [
        (1.0, 1.0, 0.0, 1, 1), (1.0, 2.0, 0.6, 2, 3), (1.5, 0.7, -0.83, 5, 2), (0.3, 5.0, 0.95, 3, 8),
    ])
    def test_first_derivatives_match_finite_differences(self, a, b, v, n, m):
        cav = Cavity2D(a, b, v)
        u = modes.SpacetimeMode2D(cav, n, m)
        t = 0.3
        left, right = cav.walls_x(t)
        x, y = left + 0.37 * (right - left), 0.61 * b
        h = 1e-5 * min(cav.lab_length_x(), b)
        fd = (
            (u.value(t + h, x, y, check=False) - u.value(t - h, x, y, check=False)) / (2 * h),
            (u.value(t, x + h, y) - u.value(t, x - h, y)) / (2 * h),
            (u.value(t, x, y + h) - u.value(t, x, y - h)) / (2 * h),
        )
        # central differences carry O(h^2 |u'''|) truncation error
        for approx, exact in zip(fd, (u.d_dt(t, x, y), u.d_dx(t, x, y), u.d_dy(t, x, y))):
            assert abs(approx - complex(exact)) < 1e-6 * abs(exact)

    @staticmethod
    def check_wave_vectors(a, b, v, n, m):
        # the x profile's plane waves exp(i k+-.X) times sin(p y) solve the 2+1
        # wave equation when k_t^2 - k_x^2 = p^2; 1 - v^2 rounds to eps g^2
        u = modes.SpacetimeMode2D(Cavity2D(a, b, v), n, m)
        th_t, th_x, s_t, s_x = u._coeffs
        p, g = u.wavenumber_y, u.cavity.gamma()
        for k_t, k_x in ((th_t + s_t, th_x + s_x), (th_t - s_t, th_x - s_x)):
            assert (abs(k_t * k_t - k_x * k_x - p * p)
                    <= 8.0 * EPS * g * g * (k_t * k_t + k_x * k_x + p * p))

    @pytest.mark.parametrize("point", list(MODE_2D_HEX), ids=str)
    def test_wave_vectors_solve_the_wave_equation(self, point):
        self.check_wave_vectors(*point[:5])

    @settings(max_examples=200, deadline=None)
    @given(log10_a=st.floats(-3.0, 3.0), log10_b=st.floats(-3.0, 3.0),
           v=st.floats(-0.999999, 0.999999), n=st.integers(1, 1000), m=st.integers(1, 1000))
    def test_wave_vectors_solve_the_wave_equation_random(self, log10_a, log10_b, v, n, m):
        self.check_wave_vectors(10.0 ** log10_a, 10.0 ** log10_b, v, n, m)


class TestOrthogonality:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("t", [0.0, 3.0])
    def test_gram_identity(self, scheme, t):
        cav = Cavity1D(1.0, scheme_velocity(scheme))
        g = np.array(modes.gram_matrix(scheme, cav, 10, t))
        assert np.all(np.abs(g - np.eye(10)) <= np.array(modes._gram_bound(scheme, cav, 10, t)))

    def test_gram_time_translation(self):
        cav = Cavity1D(1.0, 0.6)
        g1 = np.array(modes.gram_matrix(Scheme.LORENTZ_EXACT, cav, 6, 0.0))
        g2 = np.array(modes.gram_matrix(Scheme.LORENTZ_EXACT, cav, 6, 2.7))
        bound = (np.array(modes._gram_bound(Scheme.LORENTZ_EXACT, cav, 6, 0.0))
                 + np.array(modes._gram_bound(Scheme.LORENTZ_EXACT, cav, 6, 2.7)))
        assert np.all(np.abs(g1 - g2) <= bound)

    @settings(max_examples=150, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES), log_length=st.floats(-2.0, 2.0),
           v=st.one_of(st.floats(-0.99, 0.99),
                       st.builds(lambda gap, sign: sign * (1.0 - 10.0**-gap),
                                 st.floats(2.0, 6.0), st.sampled_from((-1.0, 1.0)))),
           n_modes=st.integers(1, 12), t_fraction=st.floats(-10.0, 10.0))
    def test_gram_bound_holds_with_margin(self, scheme, log_length, v, n_modes, t_fraction):
        # the bound's share for the waves' own rounding is argued, not derived: demand a margin of 2
        length = 10.0**log_length
        cav, t = Cavity1D(length, v), t_fraction * length
        g = np.array(modes.gram_matrix(scheme, cav, n_modes, t))
        bound = np.array(modes._gram_bound(scheme, cav, n_modes, t))
        assert np.all(2.0 * np.abs(g - np.eye(n_modes)) <= bound)

    # a product of two norms 2 w_n is subnormal at L = 1e155 and 0 at 1e200 and 1e300 (the
    # pairing's sums underflow too), so these lengths take the unit cavity at t/L, bit for bit
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("length", [1e155, 1e200, 1e300])
    def test_gram_identity_at_lengths_past_the_normal_range(self, scheme, length):
        cav, t = Cavity1D(length, 0.3), 0.37 * length
        g = modes.gram_matrix(scheme, cav, 3, t)
        assert g == modes.gram_matrix(scheme, Cavity1D(1.0, 0.3), 3, 0.37)
        bound = np.array(modes._gram_bound(scheme, cav, 3, t))
        assert np.all(np.abs(np.array(g) - np.eye(3)) <= bound)

    def test_static_gram_exact_sine_orthogonality(self):
        for scheme in ALL_SCHEMES:
            g = np.array(modes.gram_matrix(scheme, Cavity1D(1.0, 0.0), 4, 0.0))
            assert np.max(np.abs(g - np.eye(4))) < 1e-12

    def test_spatial_overlap_unit_diagonal(self):
        for scheme in ALL_SCHEMES:
            cav = Cavity1D(1.0, scheme_velocity(scheme))
            s = np.array(modes.spatial_overlap_matrix(scheme, cav, 4, 0.5))
            assert np.max(np.abs(np.diag(s) - 1.0)) < 1e-12

    def test_spatial_overlap_offdiagonal_closed_form(self):
        # For the contracted family at v = 0.5 the (2,1) equal-time overlap is
        # 2 * (32 / (105 pi)) * (1 - i): the fixed-t slice mixes the phases, so
        # the naive overlap is O(v^2) rather than zero. Value derived by
        # elementary integration of e^{i v pi xi} sin(2 pi xi) sin(pi xi).
        cav = Cavity1D(1.0, 0.5)
        s = modes.spatial_overlap_matrix(Scheme.LORENTZ_EXACT, cav, 2, 0.0)
        expected = 2.0 * (32.0 / (105.0 * math.pi)) * (1.0 - 1.0j)
        assert abs(s[1][0] - expected) < 1e-12
        assert abs(s[1][0]) > 0.1

    def test_comoving_prior_overlap_is_diagonal(self):
        # the comoving-prior family keeps x-independent phases, so even the
        # naive overlap is exactly diagonal
        s = np.array(modes.spatial_overlap_matrix(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(1.0, 0.2),
                                                  5, 1.1))
        assert np.max(np.abs(s - np.eye(5))) < 1e-12

    def test_overlap_offdiagonal_velocity_scaling(self):
        # naive-overlap defect: O(v) between opposite-parity modes, O(v^2)
        # between equal-parity modes
        odd_gap, even_gap = [], []
        for v in (0.05, 0.1):
            s = modes.spatial_overlap_matrix(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.0, v), 3, 0.0)
            odd_gap.append(abs(s[1][0]))
            even_gap.append(abs(s[2][0]))
        assert odd_gap[1] / odd_gap[0] == pytest.approx(2.0, rel=0.02)
        assert even_gap[1] / even_gap[0] == pytest.approx(4.0, rel=0.02)


def _wave_sum_mp(scheme, cav, n, m, t, gram):
    """Entry (n, m) as the four-wave sum in 30-digit mpmath on the modes' float waves.

    Also returns the stated float error 4 eps sum |w| (R - L)(1 + |a t| + |b| max(|L|, |R|)):
    a few eps per term for the rounded phase, exp, sinc and products, and the sum.
    """
    left, right = cav.walls(scheme, t)
    bound = 0.0
    with mpmath.workdps(30):
        mid, width = (mpmath.mpf(left) + right) / 2, mpmath.mpf(right) - left
        total = mpmath.mpc(0)
        for c_j, a_j, b_j, d_j in modes._plane_waves(modes.mode(scheme, cav, n)):
            for c_l, a_l, b_l, d_l in modes._plane_waves(modes.mode(scheme, cav, m)):
                if gram:
                    w = -mpmath.conj(c_j) * c_l * (mpmath.mpf(d_j) + d_l)
                    a, b = mpmath.mpf(a_l) - a_j, mpmath.mpf(b_l) - b_j
                else:
                    w = mpmath.mpc(c_j) * mpmath.conj(c_l)
                    a, b = mpmath.mpf(a_j) - a_l, mpmath.mpf(b_j) - b_l
                total += w * mpmath.expj(a * t + b * mid) * width * mpmath.sinc(b * width / 2)
                bound += float(abs(w) * width) * (1.0 + abs(float(a) * t)
                                                  + abs(float(b)) * max(abs(left), abs(right)))
        if gram:
            scale = mpmath.sqrt(mpmath.mpf(modes.canonical_norm(scheme, cav, n))
                                * modes.canonical_norm(scheme, cav, m))
            total, bound = total / scale, bound / float(scale)
    return complex(total), 4.0 * EPS * bound


def _pairing_mp(scheme, cav, n_modes, t, gram, degree=5):
    """Each matrix by one fixed 48-node Gauss-Legendre rule in 30-digit mpmath.

    Integrates the pairing itself, i (conj(u_n) D u_m - u_m conj(D u_n)) or
    u_n conj(u_m), from the affine form, independently of the plane waves.
    """
    shift = cav.velocity if scheme is Scheme.GALILEO_COMOVING_PRIOR else 0.0
    left, right = cav.walls(scheme, t)
    out = np.empty((n_modes, n_modes), dtype=complex)
    with mpmath.workdps(30):
        nodes = GaussLegendre(mpmath.mp).calc_nodes(degree, mpmath.mp.prec)
        mid, half = (mpmath.mpf(left) + right) / 2, (mpmath.mpf(right) - left) / 2
        xs = [(mid + half * x, half * w) for x, w in nodes]
        jets = []
        for n in range(1, n_modes + 1):
            u = modes.mode(scheme, cav, n)
            norm, (th_t, th_x, s_t, s_x) = u.normalization, u._coeffs
            jet = []
            for x, _ in xs:
                phase = norm * mpmath.expj(th_t * t + th_x * x)
                s = s_t * t + s_x * x
                jet.append((phase * mpmath.sin(s), phase * (1j * (mpmath.mpf(th_t) + shift * th_x)
                                                            * mpmath.sin(s)
                                                            + (mpmath.mpf(s_t) + shift * s_x)
                                                            * mpmath.cos(s))))
            jets.append(jet)
        for i, jet_n in enumerate(jets):
            for k, jet_m in enumerate(jets):
                if gram:
                    terms = (1j * (mpmath.conj(u) * dv - v * mpmath.conj(du))
                             for (u, du), (v, dv) in zip(jet_n, jet_m))
                else:
                    terms = (u * mpmath.conj(v) for (u, _), (v, _) in zip(jet_n, jet_m))
                total = mpmath.fsum(w * term for (_, w), term in zip(xs, terms))
                if gram:
                    total /= mpmath.sqrt(mpmath.mpf(modes.canonical_norm(scheme, cav, i + 1))
                                         * modes.canonical_norm(scheme, cav, k + 1))
                out[i, k] = complex(total)
    return out


class TestPairwiseClosedForm:
    """Gram and overlap entries are the four-wave sum of the modes' plane waves."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("n_modes", [1, 4, 10])
    @pytest.mark.parametrize("t", [0.0, 0.37, 3.0])
    def test_matches_mpmath_wave_sum(self, scheme, n_modes, t):
        cav = Cavity1D(1.0, scheme_velocity(scheme))
        for matrix, gram in ((modes.gram_matrix, True), (modes.spatial_overlap_matrix, False)):
            got = matrix(scheme, cav, n_modes, t)
            assert len(got) == n_modes and all(len(row) == n_modes for row in got)
            assert all(type(z) is complex for row in got for z in row)
            want = [[_wave_sum_mp(scheme, cav, n, m, t, gram)[0] for m in range(1, n_modes + 1)]
                    for n in range(1, n_modes + 1)]
            assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-14

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_weights_match_gauss_legendre_of_the_pairing(self, scheme):
        # checks the weights -conj(c_j) c_l (d_j + d_l) and c_j conj(c_l) against the
        # pairings they come from; 48 nodes integrate these entire integrands to 30 digits
        cav = Cavity1D(1.0, scheme_velocity(scheme))
        for matrix, gram in ((modes.gram_matrix, True), (modes.spatial_overlap_matrix, False)):
            want = _pairing_mp(scheme, cav, 3, 0.37, gram)
            assert np.max(np.abs(np.array(matrix(scheme, cav, 3, 0.37)) - want)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES), v=st.floats(-0.9999, 0.9999),
           t=st.floats(0.0, 10.0), n=st.integers(1, 30),
           m_of=st.sampled_from([lambda n: n, lambda n: n + 1, lambda n: n - 1,
                                 lambda n: 31 - n]),
           gram=st.booleans())
    def test_within_stated_rounding(self, scheme, v, t, n, m_of, gram):
        # near |v| = 1 the minus waves' b = (m - n) pi D / L with D the Doppler
        # factor, so sinc arguments near 0 are covered
        m = min(max(m_of(n), 1), 30)
        cav = Cavity1D(1.0, v)
        matrix = modes.gram_matrix if gram else modes.spatial_overlap_matrix
        want, bound = _wave_sum_mp(scheme, cav, n, m, t, gram)
        assert abs(matrix(scheme, cav, max(n, m), t)[n - 1][m - 1] - want) <= bound

    @pytest.mark.parametrize("matrix", [modes.gram_matrix, modes.spatial_overlap_matrix])
    def test_rejects_empty(self, matrix):
        with pytest.raises(ValueError, match="n_modes"):
            matrix(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.9), 0, 0.0)


class TestStaticReduction:
    def test_schemes_coincide_at_rest(self):
        cav = Cavity1D(1.0, 0.0)
        xs = np.linspace(0.01, 0.99, 17).tolist()
        for n in (1, 3, 6):
            for x in xs:
                values = [modes.mode(s, cav, n).value(0.42, x) for s in ALL_SCHEMES]
                for other in values[1:]:
                    assert abs(other - values[0]) < 1e-12
