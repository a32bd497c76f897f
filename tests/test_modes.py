import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostcav.cavity import Cavity1D, Cavity2D, Scheme, lorentz_factor
from boostcav import modes
from boostcav.modes import OutsideCavityError
from boostcav.quadrature import gauss_legendre
from mpmath.calculus.quadrature import GaussLegendre

from _oracles import affine_jet

ALL_SCHEMES = list(Scheme)


def scheme_velocity(scheme):
    return 0.9 if scheme is Scheme.LORENTZ_EXACT else 0.2


EPS = np.finfo(float).eps


def field_scale(scheme, cav, n):
    """N (th_t^2 + th_x^2 + s_t^2 + s_x^2), a bound on |u_tt| + |u_xx|."""
    u = modes.SpacetimeMode(scheme, cav, n)
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
        assert abs(lorentz_factor(cav.velocity) - 1.25) < 1e-15
        assert abs(cav.lab_length(Scheme.LORENTZ_EXACT) - 1.6) < 1e-15
        assert abs(cav.lab_length(Scheme.GALILEO_LAB_PRIOR) - 2.0) < 1e-15

    def test_scheme_labels_roundtrip(self):
        for scheme in ALL_SCHEMES:
            assert Scheme(scheme.value) is scheme
        with pytest.raises(ValueError):
            Scheme("einstein")


class TestFrequencies:
    def test_lab_prior_frequency_shift(self):
        # comoving frequency (1 - v^2) n pi / L
        u = modes.SpacetimeMode(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.0, 0.2), 3)
        got = u.comoving_frequency
        assert abs(got - 0.96 * 3 * math.pi) < 1e-14

    def test_contraction_frequency_velocity_independent(self):
        got = modes.SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.9), 1).comoving_frequency
        assert abs(got - math.pi) < 1e-15

    def test_comoving_prior_frequency(self):
        u = modes.SpacetimeMode(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(2.0, 0.1), 2)
        got = u.comoving_frequency
        assert abs(got - math.pi) < 1e-15

    def test_lab_phase_accessor(self):
        cav = Cavity1D(1.0, 0.6)
        assert abs(modes.SpacetimeMode(Scheme.LORENTZ_EXACT, cav, 2).lab_phase_frequency
                   - 1.25 * 2 * math.pi) < 1e-14
        assert abs(modes.SpacetimeMode(Scheme.GALILEO_COMOVING_PRIOR, cav, 2).lab_phase_frequency
                   - 2 * math.pi) < 1e-14

    def test_rejects_bad_index(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                modes.SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.1), bad)
        with pytest.raises(ValueError):
            modes.SpacetimeMode2D(Cavity2D(1.0, 1.0), 1, 0)


class TestEvalMode:
    def test_static_midpoint_antinode(self):
        got = modes.SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.0), 1).value(0.0, 0.5)
        assert abs(got - math.sqrt(2.0)) < 1e-14

    def test_wall_zero_every_scheme(self):
        for scheme in ALL_SCHEMES:
            cav = Cavity1D(1.0, scheme_velocity(scheme))
            t = 0.8
            left = cav.velocity * t
            assert abs(modes.SpacetimeMode(scheme, cav, 4).value(t, left)) < 1e-12

    def test_contracted_mode_value_and_norm(self):
        # v = 0.6, n = 1, t = 0, x = 0.4: N e^{i pi gamma 0.24} sin(0.4 pi gamma)
        cav = Cavity1D(1.0, 0.6)
        gamma = 1.25
        expected = (
            math.sqrt(2.0 * gamma)
            * np.exp(1j * math.pi * gamma * 0.6 * 0.4)
            * math.sin(0.4 * math.pi * gamma)
        )
        got = modes.SpacetimeMode(Scheme.LORENTZ_EXACT, cav, 1).value(0.0, 0.4)
        assert abs(got - expected) < 1e-14

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_unit_spatial_norm(self, scheme, n):
        # oracle: numerical norm integral fixes the normalization constant
        cav = Cavity1D(1.3, scheme_velocity(scheme))
        t = 0.4
        u = modes.SpacetimeMode(scheme, cav, n)
        left, right = cav.walls(scheme, t)
        norm = gauss_legendre(
            lambda xs: [abs(u.value(t, x)) ** 2 for x in xs],
            left, right, panels=n,
        )
        assert abs(norm - 1.0) < 1e-12

    def test_outside_cavity_rejected(self):
        cav = Cavity1D(1.0, 0.6)
        with pytest.raises(OutsideCavityError):
            modes.SpacetimeMode(Scheme.LORENTZ_EXACT, cav, 1).value(0.0, 0.9)  # beyond L/gamma
        with pytest.raises(OutsideCavityError):
            modes.SpacetimeMode(Scheme.GALILEO_COMOVING_PRIOR, cav, 1).value(2.0, 0.3)
        u = modes.SpacetimeMode2D(Cavity2D(1.0, 2.0, 0.6), 1, 1)
        for x, y in ((0.9, 1.0), (0.4, 2.1), (0.4, -0.1)):  # beyond a/gamma, past b, below 0
            with pytest.raises(OutsideCavityError):
                u.value(0.0, x, y)


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
        u = modes.SpacetimeMode(scheme, cav, 2)
        norm, coeffs = u.normalization, u._coeffs
        t, x = 0.3, cav.velocity * 0.3 + 0.3
        h = 1e-5 * cav.proper_length

        def f(t, x):
            return modes.affine_value(norm, coeffs, t, x)

        fd_t = (f(t + h, x) - f(t - h, x)) / (2 * h)
        fd_x = (f(t, x + h) - f(t, x - h)) / (2 * h)
        _, u_t, u_x = affine_jet(norm, coeffs, t, x)
        # central differences carry O(h^2 |u'''|) truncation error
        assert abs(fd_t - u_t) < 1e-6 * abs(u_t)
        assert abs(fd_x - u_x) < 1e-6 * abs(u_x)


# float.hex (real, imag) of SpacetimeMode2D(Cavity2D(a, b, v), n, m).value and its d/dt,
# d/dx and d/dy at (t, x, y), recorded while the 2D mode still wrote its own derivatives;
# _jet_2d forms the derivatives from affine_jet and affine_value, bit for bit. The two
# moving points were re-recorded when 1 - v^2 came to be formed as (1 - v)(1 + v); each
# comment gives the entry's distance |z - exact| from the 40-digit jet in units of
# 2^-53 |exact|, before and after: the rounding of the phase and the sine's argument,
# sums of terms up to 160 in magnitude at the last point, carries most of it.
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
        ("0x1.a43c4b369490dp-1", "-0x1.17da6b29c540ap+1"),  # 17.0 -> 15.9
        ("-0x1.e8a24f69d927fp+5", "-0x1.72fadeb7b1ab5p+1"),  # 7.1 -> 18.6
        ("-0x1.aa5f696aa0f43p+5", "0x1.02b2a69bf0256p+2"),  # 4.9 -> 20.0
        ("0x1.52cdbf145b96cp-2", "-0x1.c33f95613a086p-1"),  # 134.0 -> 124.0
    ),
    (0.3, 5.0, 0.95, 7, 8, -0.4, -0.2956925270216216, 4.1): (
        ("-0x1.1ff9f2628c8d3p+1", "0x1.26dedd6050cf5p-1"),  # 68.0 -> 59.0
        ("0x1.f411bcabb55c8p+8", "0x1.b4168fa52f11bp+8"),  # 27.0 -> 102.1
        ("-0x1.003d727693f60p+9", "-0x1.94b4cc061aae6p+8"),  # 26.5 -> 103.5
        ("0x1.14216bca9fa6fp+1", "-0x1.1abdbd5f03234p-1"),  # 55.6 -> 139.7
    ),
}


def _jet_2d(u, t, x, y):
    """(value, d/dt, d/dx, d/dy) of the rectangle mode u: its x profile's jet times sin(p y)."""
    norm, coeffs, p = u.normalization, u._coeffs, u.wavenumber_y
    _, u_t, u_x = affine_jet(norm, coeffs, t, x)
    sin_py = math.sin(p * y)
    return (u.value(t, x, y), u_t * sin_py, u_x * sin_py,
            modes.affine_value(norm, coeffs, t, x) * p * math.cos(p * y))


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
        u = modes.SpacetimeMode2D(cav, 2, 3)
        assert abs(u.value(t, left, 0.4)) < 1e-12
        assert abs(u.value(t, left + 0.3, 0.0)) < 1e-12
        assert abs(u.value(t, left + cav.lab_length_x(), 0.4)) < 1e-12

    def test_unit_norm_2d(self):
        # oracle: nested quadrature of |u|^2 over the instantaneous rectangle;
        # the outer x integrand integrates y at all of its abscissae at once, one
        # component per abscissa
        cav = Cavity2D(1.0, 2.0, 0.6)
        u = modes.SpacetimeMode2D(cav, 2, 3)
        t = 0.15
        left, right = cav.walls_x(t)

        def over_y(xs):
            return list(gauss_legendre(
                lambda ys: tuple([abs(u.value(t, x, y)) ** 2 for y in ys] for x in xs),
                0.0, cav.proper_length_y, panels=3,
            ))

        norm = gauss_legendre(over_y, left, right, panels=2)
        assert abs(norm - 1.0) < 1e-10

    @pytest.mark.parametrize("a,b,v,n,m,t", [
        (1.0, 2.0, 0.6, 2, 3, 0.15), (1.5, 0.7, -0.3, 1, 2, -0.4), (0.3, 5.0, 0.95, 4, 1, 1.1),
        (2.0, 1.0, -0.95, 3, 5, 2.5),
    ])
    def test_klein_gordon_norm_2d(self, a, b, v, n, m, t):
        # i int (conj(u) u_t - u conj(u_t)) dA on the lab slice t, by nested quadrature
        # as above, is 2 gamma w: twice the lab phase frequency, as canonical_norm is in 1D
        cav = Cavity2D(a, b, v)
        u = modes.SpacetimeMode2D(cav, n, m)
        left, right = cav.walls_x(t)

        def density(x, y):
            value, u_t, _, _ = _jet_2d(u, t, x, y)
            return (1j * (value.conjugate() * u_t - value * u_t.conjugate())).real

        def over_y(xs):
            return list(gauss_legendre(lambda ys: tuple([density(x, y) for y in ys] for x in xs),
                                       0.0, b, panels=m))

        norm = gauss_legendre(over_y, left, right, panels=n)
        want = 2.0 * lorentz_factor(v) * u.frequency
        assert abs(norm - want) <= 1e-12 * want

    @pytest.mark.parametrize("point", list(MODE_2D_HEX), ids=str)
    def test_bits_unchanged(self, point):
        a, b, v, n, m, t, x, y = point
        u = modes.SpacetimeMode2D(Cavity2D(a, b, v), n, m)
        got = [complex(z) for z in _jet_2d(u, t, x, y)]
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
        p = u.wavenumber_y

        def f(t, x, y):
            return modes.affine_value(u.normalization, u._coeffs, t, x) * math.sin(p * y)

        fd = (
            (f(t + h, x, y) - f(t - h, x, y)) / (2 * h),
            (f(t, x + h, y) - f(t, x - h, y)) / (2 * h),
            (f(t, x, y + h) - f(t, x, y - h)) / (2 * h),
        )
        # central differences carry O(h^2 |u'''|) truncation error
        for approx, exact in zip(fd, _jet_2d(u, t, x, y)[1:]):
            assert abs(approx - complex(exact)) < 1e-6 * abs(exact)

    @staticmethod
    def check_wave_vectors(a, b, v, n, m):
        # the x profile's plane waves exp(i k+-.X) times sin(p y) solve the 2+1
        # wave equation when k_t^2 - k_x^2 = p^2; 1 - v^2 rounds to eps g^2
        u = modes.SpacetimeMode2D(Cavity2D(a, b, v), n, m)
        th_t, th_x, s_t, s_x = u._coeffs
        p, g = u.wavenumber_y, lorentz_factor(u.cavity.velocity)
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

    # the matrix is dimensionless, G(L, t) = G(1, t/L): every length is the unit cavity, bit for bit
    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES), log_length=st.floats(-150.0, 300.0),
           v=st.one_of(st.floats(-0.99, 0.99),
                       st.builds(lambda gap, sign: sign * (1.0 - 10.0**-gap),
                                 st.floats(2.0, 6.0), st.sampled_from((-1.0, 1.0)))),
           n_modes=st.integers(1, 12), t_fraction=st.floats(-10.0, 10.0))
    def test_gram_scale_invariance_at_every_length(self, scheme, log_length, v, n_modes,
                                                    t_fraction):
        length = 10.0**log_length
        cav, unit, t = Cavity1D(length, v), Cavity1D(1.0, v), t_fraction * length
        assert (modes.gram_matrix(scheme, cav, n_modes, t)
                == modes.gram_matrix(scheme, unit, n_modes, t / length))
        assert (modes._gram_bound(scheme, cav, n_modes, t)
                == modes._gram_bound(scheme, unit, n_modes, t / length))

    def test_static_gram_exact_sine_orthogonality(self):
        for scheme in ALL_SCHEMES:
            g = np.array(modes.gram_matrix(scheme, Cavity1D(1.0, 0.0), 4, 0.0))
            assert np.max(np.abs(g - np.eye(4))) < 1e-12


def _wave_sum_mp(scheme, cav, n, m, t):
    """Entry (n, m) as the four-wave sum in 30-digit mpmath on the modes' float waves.

    Also returns the stated float error 4 eps sum |w| (R - L)(1 + |a t| + |b| max(|L|, |R|)):
    a few eps per term for the rounded phase, exp, sinc and products, and the sum.
    """
    left, right = cav.walls(scheme, t)
    bound = 0.0
    with mpmath.workdps(30):
        mid, width = (mpmath.mpf(left) + right) / 2, mpmath.mpf(right) - left
        total = mpmath.mpc(0)
        for c_j, a_j, b_j, d_j in modes._plane_waves(modes.SpacetimeMode(scheme, cav, n)):
            for c_l, a_l, b_l, d_l in modes._plane_waves(modes.SpacetimeMode(scheme, cav, m)):
                w = -mpmath.conj(c_j) * c_l * (mpmath.mpf(d_j) + d_l)
                a, b = mpmath.mpf(a_l) - a_j, mpmath.mpf(b_l) - b_j
                total += w * mpmath.expj(a * t + b * mid) * width * mpmath.sinc(b * width / 2)
                bound += float(abs(w) * width) * (1.0 + abs(float(a) * t)
                                                  + abs(float(b)) * max(abs(left), abs(right)))
        scale = mpmath.sqrt(mpmath.mpf(modes.canonical_norm(scheme, cav, n))
                            * modes.canonical_norm(scheme, cav, m))
        total, bound = total / scale, bound / float(scale)
    return complex(total), 4.0 * EPS * bound


def _pairing_mp(scheme, cav, n_modes, t, degree=5):
    """The Gram matrix by one fixed 48-node Gauss-Legendre rule in 30-digit mpmath.

    Integrates the pairing itself, i (conj(u_n) D u_m - u_m conj(D u_n)),
    from the affine form, independently of the plane waves.
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
            u = modes.SpacetimeMode(scheme, cav, n)
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
                terms = (1j * (mpmath.conj(u) * dv - v * mpmath.conj(du))
                         for (u, du), (v, dv) in zip(jet_n, jet_m))
                total = mpmath.fsum(w * term for (_, w), term in zip(xs, terms))
                total /= mpmath.sqrt(mpmath.mpf(modes.canonical_norm(scheme, cav, i + 1))
                                     * modes.canonical_norm(scheme, cav, k + 1))
                out[i, k] = complex(total)
    return out


class TestPairwiseClosedForm:
    """Gram entries are the four-wave sum of the modes' plane waves."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("n_modes", [1, 4, 10])
    @pytest.mark.parametrize("t", [0.0, 0.37, 3.0])
    def test_matches_mpmath_wave_sum(self, scheme, n_modes, t):
        cav = Cavity1D(1.0, scheme_velocity(scheme))
        got = modes.gram_matrix(scheme, cav, n_modes, t)
        assert len(got) == n_modes and all(len(row) == n_modes for row in got)
        assert all(type(z) is complex for row in got for z in row)
        want = [[_wave_sum_mp(scheme, cav, n, m, t)[0] for m in range(1, n_modes + 1)]
                for n in range(1, n_modes + 1)]
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-14

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_weights_match_gauss_legendre_of_the_pairing(self, scheme):
        # checks the weights -conj(c_j) c_l (d_j + d_l) against the pairing they come
        # from; 48 nodes integrate this entire integrand to 30 digits
        cav = Cavity1D(1.0, scheme_velocity(scheme))
        want = _pairing_mp(scheme, cav, 3, 0.37)
        assert np.max(np.abs(np.array(modes.gram_matrix(scheme, cav, 3, 0.37)) - want)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES), v=st.floats(-0.9999, 0.9999),
           t=st.floats(0.0, 10.0), n=st.integers(1, 30),
           m_of=st.sampled_from([lambda n: n, lambda n: n + 1, lambda n: n - 1,
                                 lambda n: 31 - n]))
    def test_within_stated_rounding(self, scheme, v, t, n, m_of):
        # near |v| = 1 the minus waves' b = (m - n) pi D / L with D the Doppler
        # factor, so sinc arguments near 0 are covered
        m = min(max(m_of(n), 1), 30)
        cav = Cavity1D(1.0, v)
        want, bound = _wave_sum_mp(scheme, cav, n, m, t)
        assert abs(modes.gram_matrix(scheme, cav, max(n, m), t)[n - 1][m - 1] - want) <= bound

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="n_modes"):
            modes.gram_matrix(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.9), 0, 0.0)


class TestStaticReduction:
    def test_schemes_coincide_at_rest(self):
        cav = Cavity1D(1.0, 0.0)
        xs = np.linspace(0.01, 0.99, 17).tolist()
        for n in (1, 3, 6):
            for x in xs:
                values = [modes.SpacetimeMode(s, cav, n).value(0.42, x) for s in ALL_SCHEMES]
                for other in values[1:]:
                    assert abs(other - values[0]) < 1e-12
