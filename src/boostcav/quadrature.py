"""Panelled Gauss-Legendre quadrature with a doubling convergence check.

The integrands in this package are smooth products of trigonometric
functions and complex phases, so fixed-order Gauss-Legendre on panels
sized to the oscillation count converges extremely fast; the doubling
check turns that into a verified error estimate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "gauss_legendre", "gauss_legendre_2d"]

_ORDER = 16  # nodes per panel; one panel per oscillation gives 16 >= 8 nodes/cycle


class QuadratureError(RuntimeError):
    """Raised when panel doubling fails to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


@lru_cache(maxsize=None)
def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_eval(f: Callable[[np.ndarray], np.ndarray], a, b, panels: int):
    x0, w0 = _nodes(_ORDER)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    # np.linspace(a, b, panels + 1, axis=-1) element by element: linspace
    # itself switches every element to another formula when one has a == b.
    # Each element's nodes form one contiguous ascending row, so the sum over
    # the last axis is the pairwise sum the scalar call does.
    edges = np.arange(panels + 1) * ((b - a) / panels) + a
    edges[..., -1:] = b
    half = 0.5 * np.diff(edges, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    xs = (mid[..., None] + half[..., None] * x0).reshape(edges.shape[:-1] + (-1,))
    ws = (half[..., None] * w0).reshape(xs.shape)
    return np.sum(ws * f(xs), axis=-1)


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    *,
    oscillations: float = 1.0,
    rtol: float = 1e-13,
    atol: float = 0.0,
    max_doublings: int = 8,
):
    """Integrate a vectorized (possibly complex) integrand over [a, b].

    a and b are floats or equal-shape arrays; with arrays there is one
    integral per element, and each element returns the value and error of
    its own first converged doubling, exactly as the scalar call on its own
    endpoints would.

    Parameters
    ----------
    f : callable
        Accepts abscissae of shape a.shape + (points,) and returns integrand
        values of that shape, optionally behind leading component axes (e.g.
        two densities stacked); each component converges on its own.
    oscillations : float
        Expected number of half-waves/oscillations across the interval;
        sets the initial panel count.
    rtol, atol : float
        Convergence targets for the doubling check.
    max_doublings : int
        Refinement budget before QuadratureError is raised for the first
        element (in C order) that has not converged.

    Returns
    -------
    (value, error_estimate), scalars for scalar endpoints, else arrays of
    shape components + a.shape.
    """
    panels = max(2, math.ceil(oscillations))
    prev = _panel_eval(f, a, b, panels)
    value = np.zeros_like(prev)
    err = np.full(np.shape(prev), math.inf)
    done = np.zeros(np.shape(prev), dtype=bool)
    diff = err
    for _ in range(max_doublings):
        panels *= 2
        cur = _panel_eval(f, a, b, panels)
        diff = np.abs(cur - prev)
        new = ~done & (diff <= np.maximum(atol, rtol * np.abs(cur)))
        value = np.where(new, cur, value)
        err = np.where(new, diff, err)
        done |= new
        if done.all():
            return value[()], err[()]
        prev = cur
    raise QuadratureError(
        "integral did not converge under panel doubling", float(diff[~done].flat[0])
    )


def _panel_eval_2d(f, ax, bx, ay, by, px, py):
    x0, w0 = _nodes(_ORDER)
    ex = np.linspace(ax, bx, px + 1)
    ey = np.linspace(ay, by, py + 1)
    hx = 0.5 * np.diff(ex)
    hy = 0.5 * np.diff(ey)
    xs = ((0.5 * (ex[:-1] + ex[1:]))[:, None] + hx[:, None] * x0[None, :]).ravel()
    ys = ((0.5 * (ey[:-1] + ey[1:]))[:, None] + hy[:, None] * x0[None, :]).ravel()
    wx = (hx[:, None] * w0[None, :]).ravel()
    wy = (hy[:, None] * w0[None, :]).ravel()
    vals = f(xs[:, None], ys[None, :])
    return np.einsum("i,j,ij->", wx, wy, vals)


def gauss_legendre_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    *,
    oscillations_x: float = 1.0,
    oscillations_y: float = 1.0,
    rtol: float = 1e-13,
    atol: float = 0.0,
    max_doublings: int = 6,
) -> tuple[complex, float]:
    """Tensor-product Gauss-Legendre over a rectangle, with doubling check.

    The integrand is called with broadcastable column/row abscissa arrays
    and must return the full value grid.
    """
    ax, bx = x_range
    ay, by = y_range
    px = max(2, math.ceil(oscillations_x))
    py = max(2, math.ceil(oscillations_y))
    prev = _panel_eval_2d(f, ax, bx, ay, by, px, py)
    err = math.inf
    for _ in range(max_doublings):
        px *= 2
        py *= 2
        cur = _panel_eval_2d(f, ax, bx, ay, by, px, py)
        err = abs(cur - prev)
        if err <= max(atol, rtol * abs(cur)):
            return cur, err
        prev = cur
    raise QuadratureError("2D integral did not converge under panel doubling", err)
