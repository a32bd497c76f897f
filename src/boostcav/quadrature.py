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

__all__ = ["QuadratureError", "gauss_legendre"]

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
    rtol : float
        Relative convergence target for the doubling check.
    atol : float or array
        Absolute convergence target; an array broadcasts against the result
        (components + a.shape), giving each component its own target.
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
