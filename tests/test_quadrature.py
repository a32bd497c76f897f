import cmath
import math

import mpmath
import numpy as np
import pytest

from boostcav import quadrature
from boostcav.quadrature import QuadratureError, gauss_legendre


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
        assert quadrature._panel_sum(g, a, b, panels) == math.fsum(
            [w * y for w, y in zip(ws, g(xs))])


class TestGaussLegendre:
    """gauss_legendre: the rule on panels of lists of floats, doubled until converged."""

    @pytest.mark.parametrize("k", range(33))
    def test_one_panel_integrates_monomials_to_rounding_through_degree_31(self, k):
        value = quadrature._panel_sum(lambda xs: [x**k for x in xs], -1.0, 1.0, 1)
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
        value, err = gauss_legendre(lambda ts: calls.append(len(ts)) or floats(ts), 0.0, t_max)
        with mpmath.workdps(30):
            ref = mpmath.quad(
                lambda t: mpmath.exp(-2 * z * mpmath.sinh(t / 2) ** 2) * mpmath.cosh(nu * t),
                [0, t_max])
        assert isinstance(value, float) and isinstance(err, float)
        assert float(abs(value - ref)) <= 4.0 * math.ulp(value)
        assert err <= 1e-13 * value
        # one call per doubling level, 16 points per panel, from 2 panels
        assert calls == [32 * 2**i for i in range(len(calls))] and len(calls) >= 2

    @pytest.mark.parametrize("oscillations", [0.5, 1.0, 2.0, 2.5, 7.0, 20.0])
    def test_oscillations_set_the_starting_panels(self, oscillations):
        calls = []
        gauss_legendre(lambda xs: calls.append(len(xs)) or [math.sin(3.0 * x) ** 2 for x in xs],
                       0.0, 4.0, oscillations=oscillations)
        panels = max(2, math.ceil(oscillations))
        assert calls == [16 * panels * 2**i for i in range(len(calls))] and len(calls) >= 2

    def test_unconverged_raises_its_estimate(self):
        # from 2 panels, two doublings end on the difference of the 8- and 4-panel sums
        kink = lambda xs: [abs(x - math.sqrt(2) / 2) for x in xs]
        with pytest.raises(QuadratureError) as exc:
            gauss_legendre(kink, 0.0, 1.0, rtol=1e-15, max_doublings=2)
        last = abs(quadrature._panel_sum(kink, 0.0, 1.0, 8)
                   - quadrature._panel_sum(kink, 0.0, 1.0, 4))
        assert exc.value.estimate == last > 0.0


def test_polynomial_exact():
    value, err = gauss_legendre(lambda xs: [x**2 for x in xs], 0.0, 2.0)
    assert abs(value - 8.0 / 3.0) < 1e-14
    assert err < 1e-13


def test_oscillatory_sine_squared():
    # int_0^1 sin^2(20 pi x) dx = 1/2
    value, _ = gauss_legendre(lambda xs: [math.sin(20 * math.pi * x) ** 2 for x in xs],
                              0.0, 1.0, oscillations=20)
    assert abs(value - 0.5) < 1e-13


def _phase(a):
    """e^{i a x} as its (real, imaginary) components."""
    return lambda xs: ([math.cos(a * x) for x in xs], [math.sin(a * x) for x in xs])


def test_complex_phase_integral():
    # int_0^1 e^{i a x} dx = (e^{ia} - 1)/(ia)
    a = 7.3
    (re, im), _ = gauss_legendre(_phase(a), 0.0, 1.0, oscillations=3)
    expected = (cmath.exp(1j * a) - 1.0) / (1j * a)
    assert abs(complex(re, im) - expected) < 1e-13


def test_error_estimate_reported_on_failure():
    # A kink converges too slowly for the doubling budget at tight rtol.
    with pytest.raises(QuadratureError) as exc:
        gauss_legendre(lambda xs: [abs(x - math.sqrt(2) / 2) for x in xs], 0.0, 1.0,
                       rtol=1e-15, max_doublings=2)
    assert exc.value.estimate > 0.0


def _nested(f, x_range, y_range):
    """int int f(x, y) dy dx: the outer x integrand integrates y at all of its abscissae at once,
    one component per abscissa."""
    (ax, bx), (ay, by) = x_range, y_range

    def over_y(xs):
        values, _ = gauss_legendre(lambda ys: tuple([f(x, y) for y in ys] for x in xs), ay, by)
        return list(values)

    return gauss_legendre(over_y, ax, bx)


def test_2d_separable_product():
    # int over [0,1]^2 of sin(pi x) sin(pi y) = (2/pi)^2
    value, _ = _nested(lambda x, y: math.sin(math.pi * x) * math.sin(math.pi * y),
                       (0.0, 1.0), (0.0, 1.0))
    assert abs(value - (2.0 / math.pi) ** 2) < 1e-13


def test_2d_mixed_nonseparable():
    # int_0^1 int_0^1 x y^2 cos(x y) dxdy has no separable shortcut; compare
    # against a dense trapezoid reference.
    xs = np.linspace(0.0, 1.0, 2001)
    ys = np.linspace(0.0, 1.0, 2001)
    grid = xs[:, None] * ys[None, :] ** 2 * np.cos(xs[:, None] * ys[None, :])
    ref = np.trapezoid(np.trapezoid(grid, ys, axis=1), xs)
    value, _ = _nested(lambda x, y: x * y**2 * math.cos(x * y), (0.0, 1.0), (0.0, 1.0))
    assert abs(value - ref) < 5e-7


class TestComponents:
    """A tuple of lists: each component converges, and fails, on its own."""

    def test_intervals_converge_at_their_own_doubling(self):
        # short intervals converge at the first doubling, long ones need more
        f = lambda xs: tuple([c * math.cos(x) ** 2 for c, x in zip(part, xs)]
                             for part in _phase(3.1)(xs))
        # e^{3.1ix} cos^2 x = e^{3.1ix}/2 + e^{5.1ix}/4 + e^{1.1ix}/4
        antiderivative = lambda x: (cmath.exp(3.1j * x) / 6.2j + cmath.exp(5.1j * x) / 20.4j
                                    + cmath.exp(1.1j * x) / 4.4j)
        levels = {}
        for a, b in [(0.0, 0.1), (1.0, 1.01), (0.5, 9.0), (-3.0, 20.0), (0.0, 40.0)]:
            calls = []
            value, err = gauss_legendre(lambda xs: calls.append(len(xs)) or f(xs), a, b,
                                        oscillations=2, rtol=1e-14)
            assert abs(complex(*value) - (antiderivative(b) - antiderivative(a))) <= 1e-14 * (b - a)
            assert all(e <= 1e-14 * abs(v) for v, e in zip(value, err))
            levels[a, b] = len(calls)
        # on [1, 1.01] the imaginary part is 3% of the real one, and the rounding of
        # sin(3.1 x) near pi moves it by about 1e-14 of itself, so that component alone
        # takes one doubling more; the complex modulus stopped at 2
        assert levels[0.0, 0.1] == 2 and levels[1.0, 1.01] == 3
        assert levels[-3.0, 20.0] > 2 and levels[0.0, 40.0] > levels[0.5, 9.0]

    def test_stacked_components_converge_separately(self):
        densities = (lambda x: math.sin(5.0 * x) ** 2, lambda x: x * math.exp(-x * x))
        for a, b in [(0.0, 2.0), (-1.0, 30.0), (0.3, 0.31)]:
            values, errors = gauss_legendre(
                lambda xs: tuple([d(x) for x in xs] for d in densities), a, b,
                oscillations=3, rtol=1e-14,
            )
            assert len(values) == len(errors) == 2
            for c, d in enumerate(densities):
                ref = gauss_legendre(lambda xs: [d(x) for x in xs], a, b, oscillations=3,
                                     rtol=1e-14)
                assert (values[c], errors[c]) == ref

    def test_unconverged_component_raises_its_own_estimate(self):
        smooth = lambda xs: [math.cos(x) for x in xs]
        # only this component fails to converge
        kink = lambda xs: [abs(x - math.sqrt(2) / 2) for x in xs]
        with pytest.raises(QuadratureError) as exc:
            gauss_legendre(lambda xs: (smooth(xs), kink(xs)), 0.0, 1.0,
                           rtol=1e-15, max_doublings=2)
        with pytest.raises(QuadratureError) as ref:
            gauss_legendre(kink, 0.0, 1.0, rtol=1e-15, max_doublings=2)
        assert exc.value.estimate == ref.value.estimate > 0.0
