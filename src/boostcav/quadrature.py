"""Panelled 16-point Gauss-Legendre quadrature, one level per integral, in pure `math`.

Every integrand in this package is analytic near its interval, in a
region its caller knows before the call, so the caller names the panel
count and states the truncation bound in its docstring. On a panel of
half-width h, an integrand analytic and bounded by M inside the Bernstein
ellipse E_rho of the panel misses its integral by at most
h (64/15) M rho^-32 / (rho^2 - 1) (Trefethen, Approximation Theory and
Approximation Practice, 2013, Thm 19.3). The rule runs on lists of
floats with `math.fsum`, and every integrand in the package (the
per-mode route's densities, the Abel-Plana integral) evaluates its
abscissae one at a time in `math`.
"""

import math
from typing import Callable

__all__ = ["gauss_legendre"]

# The 16-point Gauss-Legendre rule on [-1, 1], bit for bit the
# np.polynomial.legendre.leggauss(16) table. The rule is symmetric; these are
# the eight positive nodes, ascending, and their weights.
_HALF_NODES = [float.fromhex(h) for h in (
    "0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2", "0x1.3c5a466d5e8b8p-1",
    "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1", "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1",
)]
_HALF_WEIGHTS = [float.fromhex(h) for h in (
    "0x1.83feae80e4e01p-3", "0x1.75f8c77e0c011p-3", "0x1.5a6ebbb5a7600p-3", "0x1.325f61bca3cbep-3",
    "0x1.fe7af2bad3878p-4", "0x1.85c4ee79cc24bp-4", "0x1.fdfb1a2c1261ep-5", "0x1.bcddab4b7c228p-6",
)]
# All sixteen, ascending.
_NODE_LIST = [-x for x in reversed(_HALF_NODES)] + _HALF_NODES
_WEIGHT_LIST = _HALF_WEIGHTS[::-1] + _HALF_WEIGHTS


def _abscissae(a: float, b: float, panels: int) -> tuple[list[float], list[float]]:
    """The rule's abscissae on `panels` equal panels of [a, b], ascending, and their weights."""
    step = (b - a) / panels
    edges = [i * step + a for i in range(panels)] + [b]
    xs: list[float] = []
    ws: list[float] = []
    for left, right in zip(edges, edges[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (left + right)
        xs += [mid + half * x for x in _NODE_LIST]
        ws += [half * w for w in _WEIGHT_LIST]
    return xs, ws


def gauss_legendre(f: Callable[[list[float]], list[float]], a: float, b: float, *, panels: int):
    """The 16-point rule on `panels` equal panels of the float endpoints [a, b].

    f is called once, on all 16 * panels abscissae, and maps them to a list
    of values, or to a tuple of such lists for several components. Returns
    the weighted values summed by math.fsum, rounded once: a float, or a
    tuple of floats, one per component.
    """
    xs, ws = _abscissae(a, b, panels)
    values = f(xs)
    if isinstance(values, tuple):
        return tuple(math.fsum([w * y for w, y in zip(ws, part)]) for part in values)
    return math.fsum([w * y for w, y in zip(ws, values)])
