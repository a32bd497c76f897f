import cmath
import math

import mpmath
import numpy as np
import pytest

from boostcav import quadrature
from boostcav.quadrature import gauss_legendre


class TestRule:
    """The 16-point rule is a constant table; numpy's leggauss only checks it."""

    def test_table_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        for table, ref in ((quadrature._NODE_LIST, nodes), (quadrature._WEIGHT_LIST, weights)):
            assert len(table) == 16 and all(isinstance(x, float) for x in table)
            assert [x.hex() for x in table] == [float(x).hex() for x in ref]

    @pytest.mark.parametrize("k", range(33))
    def test_integrates_monomials_to_rounding_through_degree_31(self, k):
        x, w = np.array(quadrature._NODE_LIST), np.array(quadrature._WEIGHT_LIST)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        error = abs(float(np.sum(w * x**k)) - exact)
        rounding = 16.0 * np.finfo(float).eps * float(np.sum(np.abs(w * x**k)))
        # 16 nodes are exact through degree 2*16 - 1 and no further (x^32 misses by ~1e-9)
        assert (error <= rounding) == (k <= 31)


class TestAbscissae:
    """The float builder matches the array construction bit for bit; math.fsum sums the panels."""

    @staticmethod
    def _array_abscissae(a, b, panels):
        # the array construction of the rule on panels: np.linspace's edges, element by element
        edges = np.arange(panels + 1) * ((b - a) / panels) + a
        edges[-1] = b
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes, weights = np.array(quadrature._NODE_LIST), np.array(quadrature._WEIGHT_LIST)
        return ((mid[:, None] + half[:, None] * nodes).ravel(),
                (half[:, None] * weights).ravel())

    @pytest.mark.parametrize("a, b, panels", [(0.0, 1.0, 2), (-3.0, 20.0, 7), (0.3, 0.31, 64),
                                              (1e-300, 2.5e-300, 5), (2.0, -1.0, 3)])
    def test_sums_bit_for_bit(self, a, b, panels):
        xs, ws = quadrature._abscissae(a, b, panels)
        ref_xs, ref_ws = self._array_abscissae(a, b, panels)
        assert [x.hex() for x in xs] == [float(x).hex() for x in ref_xs]
        assert [w.hex() for w in ws] == [float(w).hex() for w in ref_ws]
        g = lambda xs: [math.cos(x) ** 2 for x in xs]
        assert gauss_legendre(g, a, b, panels=panels) == math.fsum(
            [w * y for w, y in zip(ws, g(xs))])


class TestGaussLegendre:
    """gauss_legendre: the rule on the caller's panels, one integrand call on lists of floats."""

    @pytest.mark.parametrize("k", range(33))
    def test_one_panel_integrates_monomials_to_rounding_through_degree_31(self, k):
        value = gauss_legendre(lambda xs: [x**k for x in xs], -1.0, 1.0, panels=1)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        rounding = 16.0 * 2.0**-52 * math.fsum(
            abs(w * x**k) for x, w in zip(quadrature._NODE_LIST, quadrature._WEIGHT_LIST))
        assert (abs(value - exact) <= rounding) == (k <= 31)

    @pytest.mark.parametrize("nu", [0, 1])
    @pytest.mark.parametrize("z", [2.0 * math.pi, 9.7, 23.0, 41.3, 60.0])
    def test_agrees_with_mpmath_on_the_bessel_integrand(self, nu, z):
        # the integrand of e^z K_nu(z) = int_0^inf e^{-2 z sinh^2(t/2)} cosh(nu t) dt, cut
        # where it falls below e^-50; libm's exp, sinh and cosh each round at the nodes
        t_max = 2.0 * math.asinh(5.0 / math.sqrt(z))

        def floats(ts):
            return [math.exp(-2.0 * z * math.sinh(0.5 * t) ** 2) * math.cosh(nu * t) for t in ts]

        calls = []
        value = gauss_legendre(lambda ts: calls.append(len(ts)) or floats(ts), 0.0, t_max,
                               panels=4)
        with mpmath.workdps(30):
            ref = mpmath.quad(
                lambda t: mpmath.exp(-2 * z * mpmath.sinh(t / 2) ** 2) * mpmath.cosh(nu * t),
                [0, t_max])
        assert isinstance(value, float)
        assert float(abs(value - ref)) <= 4.0 * math.ulp(value)
        # one integrand call of 16 * panels abscissae
        assert calls == [16 * 4]


def test_polynomial_exact():
    value = gauss_legendre(lambda xs: [x**2 for x in xs], 0.0, 2.0, panels=1)
    assert abs(value - 8.0 / 3.0) < 1e-14


def test_oscillatory_sine_squared():
    # int_0^1 sin^2(20 pi x) dx = 1/2
    value = gauss_legendre(lambda xs: [math.sin(20 * math.pi * x) ** 2 for x in xs],
                           0.0, 1.0, panels=20)
    assert abs(value - 0.5) < 1e-13


def _phase(a):
    """e^{i a x} as its (real, imaginary) components."""
    return lambda xs: ([math.cos(a * x) for x in xs], [math.sin(a * x) for x in xs])


def test_complex_phase_integral():
    # int_0^1 e^{i a x} dx = (e^{ia} - 1)/(ia)
    a = 7.3
    re, im = gauss_legendre(_phase(a), 0.0, 1.0, panels=3)
    expected = (cmath.exp(1j * a) - 1.0) / (1j * a)
    assert abs(complex(re, im) - expected) < 1e-13


def _nested(f, x_range, y_range):
    """int int f(x, y) dy dx: the outer x integrand integrates y at all of its abscissae at once,
    one component per abscissa."""
    (ax, bx), (ay, by) = x_range, y_range

    def over_y(xs):
        return list(gauss_legendre(lambda ys: tuple([f(x, y) for y in ys] for x in xs), ay, by,
                                   panels=2))

    return gauss_legendre(over_y, ax, bx, panels=2)


def test_2d_separable_product():
    # int over [0,1]^2 of sin(pi x) sin(pi y) = (2/pi)^2
    value = _nested(lambda x, y: math.sin(math.pi * x) * math.sin(math.pi * y),
                    (0.0, 1.0), (0.0, 1.0))
    assert abs(value - (2.0 / math.pi) ** 2) < 1e-13


def test_2d_mixed_nonseparable():
    # int_0^1 int_0^1 x y^2 cos(x y) dxdy has no separable shortcut; compare
    # against a dense trapezoid reference.
    xs = np.linspace(0.0, 1.0, 2001)
    ys = np.linspace(0.0, 1.0, 2001)
    grid = xs[:, None] * ys[None, :] ** 2 * np.cos(xs[:, None] * ys[None, :])
    ref = np.trapezoid(np.trapezoid(grid, ys, axis=1), xs)
    value = _nested(lambda x, y: x * y**2 * math.cos(x * y), (0.0, 1.0), (0.0, 1.0))
    assert abs(value - ref) < 5e-7


class TestComponents:
    """A tuple of lists: each component is the sum its own one-component call returns."""

    def test_stacked_components_match_their_own_calls(self):
        densities = (lambda x: math.sin(5.0 * x) ** 2, lambda x: x * math.exp(-x * x))
        for a, b in [(0.0, 2.0), (-1.0, 30.0), (0.3, 0.31)]:
            calls = []
            values = gauss_legendre(
                lambda xs: calls.append(len(xs)) or tuple([d(x) for x in xs] for d in densities),
                a, b, panels=3)
            assert len(values) == 2 and calls == [16 * 3]
            for c, d in enumerate(densities):
                assert values[c] == gauss_legendre(lambda xs: [d(x) for x in xs], a, b, panels=3)
