"""Panelled Gauss-Legendre quadrature with a doubling convergence check, in pure `math`.

The integrands in this package are smooth products of trigonometric
functions, so fixed-order Gauss-Legendre on panels sized to the
oscillation count converges extremely fast; the doubling check turns that
into a verified error estimate. The rule runs on lists of floats with
`math.fsum`, and every integrand in the package (the per-mode route's
densities, the Abel-Plana integral, the jet oracle) evaluates its abscissae
one at a time in `math` and `cmath`, so no quadrature imports numpy.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["QuadratureError", "gauss_legendre"]

# The 16-point Gauss-Legendre rule on [-1, 1], bit for bit the
# np.polynomial.legendre.leggauss(16) table: 16 nodes per panel, so one panel
# per oscillation gives 16 >= 8 nodes/cycle. The rule is symmetric; these are
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


class QuadratureError(RuntimeError):
    """Raised when panel doubling fails to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


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


def _panel_sum(f: Callable[[list[float]], list[float]], a: float, b: float, panels: int):
    """The weighted values summed by math.fsum, rounded once.

    One float, or a tuple of floats when f returns a tuple of lists (components).
    """
    xs, ws = _abscissae(a, b, panels)
    values = f(xs)
    if isinstance(values, tuple):
        return tuple(math.fsum([w * y for w, y in zip(ws, part)]) for part in values)
    return math.fsum([w * y for w, y in zip(ws, values)])


def gauss_legendre(
    f: Callable[[list[float]], list[float]],
    a: float,
    b: float,
    *,
    oscillations: float = 1.0,
    rtol: float = 1e-13,
    atol: float = 0.0,
    max_doublings: int = 8,
):
    """Integrate a real integrand over the float endpoints [a, b].

    f maps a list of abscissae to a list of values, or to a tuple of such
    lists for several components, each converging on its own; it is called
    once per doubling level. The rule starts from max(2, ceil(oscillations))
    panels, oscillations being the expected number of half-waves across the
    interval, and doubles them until |doubling difference| <= max(atol,
    rtol |value|); each component keeps the value and error of its own first
    converged doubling. Returns (value, error_estimate) as floats, or as
    tuples of floats, one per component, when f returns a tuple. After
    max_doublings without convergence, QuadratureError carries the estimate
    of the first component that has not converged.
    """
    panels = max(2, math.ceil(oscillations))
    prev = _panel_sum(f, a, b, panels)
    several = isinstance(prev, tuple)
    prev = prev if several else (prev,)
    value = [0.0] * len(prev)
    err = [math.inf] * len(prev)
    diff = list(err)
    for _ in range(max_doublings):
        panels *= 2
        cur = _panel_sum(f, a, b, panels)
        cur = cur if several else (cur,)
        for i, (c, p) in enumerate(zip(cur, prev)):
            diff[i] = abs(c - p)
            if err[i] == math.inf and diff[i] <= max(atol, rtol * abs(c)):
                value[i], err[i] = c, diff[i]
        if math.inf not in err:
            return (tuple(value), tuple(err)) if several else (value[0], err[0])
        prev = cur
    estimate = next(d for d, e in zip(diff, err) if e == math.inf)
    raise QuadratureError("integral did not converge under panel doubling", estimate)
