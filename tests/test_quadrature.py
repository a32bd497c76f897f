import math

import numpy as np
import pytest

from boostcav import quadrature
from boostcav.quadrature import QuadratureError, gauss_legendre, gauss_legendre_scalar


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
    """One float builder serves both sums; the vector sum is numpy's, the scalar one math.fsum."""

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
        f = lambda x: np.exp(1j * 3.1 * x) * np.cos(x) ** 2
        assert quadrature._panel_eval(f, a, b, panels) == np.sum(ref_ws * f(ref_xs))
        g = lambda xs: [math.cos(x) ** 2 for x in xs]
        assert quadrature._panel_sum(g, a, b, panels) == math.fsum(
            [w * y for w, y in zip(ws, g(xs))])


class TestScalarRule:
    """gauss_legendre_scalar: the same rule, panels and doubling on lists of floats."""

    @pytest.mark.parametrize("k", range(33))
    def test_one_panel_integrates_monomials_to_rounding_through_degree_31(self, k):
        value = quadrature._panel_sum(lambda xs: [x**k for x in xs], -1.0, 1.0, 1)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        rounding = 16.0 * 2.0**-52 * math.fsum(
            abs(w * x**k) for x, w in zip(quadrature._NODE_LIST, quadrature._WEIGHT_LIST))
        assert (abs(value - exact) <= rounding) == (k <= 31)

    @pytest.mark.parametrize("nu", [0, 1])
    @pytest.mark.parametrize("z", [2.0 * math.pi, 9.7, 23.0, 41.3, 60.0])
    def test_agrees_with_the_vector_rule_on_the_bessel_integrand(self, nu, z):
        # the integrand of rect2d's e^z K_nu(z); numpy's exp, sinh and cosh and its
        # pairwise sum may each differ from libm and math.fsum in the last bit
        t_max = 2.0 * math.asinh(5.0 / math.sqrt(z))

        def floats(ts):
            return [math.exp(-2.0 * z * math.sinh(0.5 * t) ** 2) * math.cosh(nu * t) for t in ts]

        calls = []
        value, err = gauss_legendre_scalar(lambda ts: calls.append(len(ts)) or floats(ts),
                                           0.0, t_max)
        ref, ref_err = gauss_legendre(
            lambda t: np.exp(-2.0 * z * np.sinh(0.5 * t) ** 2) * np.cosh(nu * t), 0.0, t_max)
        assert isinstance(value, float) and isinstance(err, float)
        assert abs(value - ref) <= 4.0 * math.ulp(ref)
        assert err <= 1e-13 * value and ref_err <= 1e-13 * ref
        # one call per doubling level, 16 points per panel, from 2 panels
        assert calls == [32 * 2**i for i in range(len(calls))] and len(calls) >= 2

    def test_unconverged_raises_its_estimate(self):
        with pytest.raises(QuadratureError) as exc:
            gauss_legendre_scalar(lambda xs: [abs(x - math.sqrt(2) / 2) for x in xs], 0.0, 1.0,
                                  rtol=1e-15, max_doublings=2)
        with pytest.raises(QuadratureError) as ref:
            gauss_legendre(lambda x: np.abs(x - np.sqrt(2) / 2), 0.0, 1.0,
                           rtol=1e-15, max_doublings=2)
        assert exc.value.estimate == pytest.approx(ref.value.estimate, rel=1e-6)


def test_polynomial_exact():
    value, err = gauss_legendre(lambda x: x**2, 0.0, 2.0)
    assert abs(value - 8.0 / 3.0) < 1e-14
    assert err < 1e-13


def test_oscillatory_sine_squared():
    # int_0^1 sin^2(20 pi x) dx = 1/2
    value, _ = gauss_legendre(lambda x: np.sin(20 * np.pi * x) ** 2, 0.0, 1.0, oscillations=20)
    assert abs(value - 0.5) < 1e-13


def test_complex_phase_integral():
    # int_0^1 e^{i a x} dx = (e^{ia} - 1)/(ia)
    a = 7.3
    value, _ = gauss_legendre(lambda x: np.exp(1j * a * x), 0.0, 1.0, oscillations=3)
    expected = (np.exp(1j * a) - 1.0) / (1j * a)
    assert abs(value - expected) < 1e-13


def test_error_estimate_reported_on_failure():
    # A kink converges too slowly for the doubling budget at tight rtol.
    with pytest.raises(QuadratureError) as exc:
        gauss_legendre(lambda x: np.abs(x - np.sqrt(2) / 2), 0.0, 1.0,
                       rtol=1e-15, max_doublings=2)
    assert exc.value.estimate > 0.0


def _nested(f, x_range, y_range):
    """int int f(x, y) dy dx: the outer x integrand integrates y at all of its abscissae at once,
    one component per abscissa."""
    (ax, bx), (ay, by) = x_range, y_range

    def over_y(x):
        return gauss_legendre(lambda y: f(x[:, None], y), ay, by)[0]

    return gauss_legendre(over_y, ax, bx)


def test_2d_separable_product():
    # int over [0,1]^2 of sin(pi x) sin(pi y) = (2/pi)^2
    value, _ = _nested(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), (0.0, 1.0), (0.0, 1.0))
    assert abs(value - (2.0 / np.pi) ** 2) < 1e-13


def test_2d_mixed_nonseparable():
    # int_0^1 int_0^1 x y^2 cos(x y) dxdy has no separable shortcut; compare
    # against a dense trapezoid reference.
    xs = np.linspace(0.0, 1.0, 2001)
    ys = np.linspace(0.0, 1.0, 2001)
    grid = xs[:, None] * ys[None, :] ** 2 * np.cos(xs[:, None] * ys[None, :])
    ref = np.trapezoid(np.trapezoid(grid, ys, axis=1), xs)
    value, _ = _nested(lambda x, y: x * y**2 * np.cos(x * y), (0.0, 1.0), (0.0, 1.0))
    assert abs(value - ref) < 5e-7


class TestComponents:
    """Leading component axes: each component converges, and fails, on its own."""

    def test_intervals_converge_at_their_own_doubling(self):
        # short intervals converge at the first doubling, long ones need more
        f = lambda x: np.exp(1j * 3.1 * x) * np.cos(x) ** 2
        # e^{3.1ix} cos^2 x = e^{3.1ix}/2 + e^{5.1ix}/4 + e^{1.1ix}/4
        antiderivative = lambda x: (np.exp(3.1j * x) / 6.2j + np.exp(5.1j * x) / 20.4j
                                    + np.exp(1.1j * x) / 4.4j)
        levels = {}
        for a, b in [(0.0, 0.1), (1.0, 1.01), (0.5, 9.0), (-3.0, 20.0), (0.0, 40.0)]:
            calls = []
            value, err = gauss_legendre(lambda x: calls.append(x.size) or f(x), a, b,
                                        oscillations=2, rtol=1e-14)
            assert abs(value - (antiderivative(b) - antiderivative(a))) <= 1e-14 * (b - a)
            assert err <= 1e-14 * abs(value)
            levels[a, b] = len(calls)
        assert levels[0.0, 0.1] == levels[1.0, 1.01] == 2
        assert levels[-3.0, 20.0] > 2 and levels[0.0, 40.0] > levels[0.5, 9.0]

    def test_stacked_components_converge_separately(self):
        densities = (lambda x: np.sin(5.0 * x) ** 2, lambda x: x * np.exp(-x * x))
        for a, b in [(0.0, 2.0), (-1.0, 30.0), (0.3, 0.31)]:
            values, errors = gauss_legendre(
                lambda x: np.stack([d(x) for d in densities]), a, b, oscillations=3, rtol=1e-14
            )
            assert values.shape == errors.shape == (2,)
            for c, d in enumerate(densities):
                ref = gauss_legendre(d, a, b, oscillations=3, rtol=1e-14)
                assert (values[c], errors[c]) == ref

    def test_unconverged_component_raises_its_own_estimate(self):
        smooth = lambda x: np.cos(x)
        kink = lambda x: np.abs(x - np.sqrt(2) / 2)  # only this component fails to converge
        with pytest.raises(QuadratureError) as exc:
            gauss_legendre(lambda x: np.stack([smooth(x), kink(x)]), 0.0, 1.0,
                           rtol=1e-15, max_doublings=2)
        with pytest.raises(QuadratureError) as ref:
            gauss_legendre(kink, 0.0, 1.0, rtol=1e-15, max_doublings=2)
        assert exc.value.estimate == ref.value.estimate > 0.0

    def test_per_component_atol(self):
        # atol of shape (components,) gives each component its own target; each
        # component equals the call on it alone with that atol, bit for bit
        densities = (lambda x: np.cos(3.1 * x) * np.cos(x) ** 2, lambda x: np.sin(5.0 * x) ** 2)
        atol = np.array([1e-4, 1e-13])
        stacked = lambda x: np.stack([d(x) for d in densities])
        for a, b in [(0.0, 2.0), (-1.0, 30.0), (0.3, 0.31)]:
            values, errors = gauss_legendre(stacked, a, b, oscillations=2, rtol=0.0, atol=atol)
            for c, d in enumerate(densities):
                ref = gauss_legendre(d, a, b, oscillations=2, rtol=0.0, atol=atol[c])
                assert (values[c], errors[c]) == ref
        # the loose target stops at an earlier doubling, so the targets are really per component
        values, _ = gauss_legendre(stacked, -1.0, 30.0, oscillations=2, rtol=0.0, atol=atol)
        tight = gauss_legendre(densities[0], -1.0, 30.0, oscillations=2, rtol=0.0, atol=1e-13)
        assert values[0] != tight[0]
