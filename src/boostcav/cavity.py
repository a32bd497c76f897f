"""Cavity geometry, kinematics, and the transformation-scheme selector.

Natural units throughout: hbar = c = 1, so lengths are inverse energies and
the velocity is the dimensionless fraction of the speed of light. 1 - v^2 is
formed only here (_light_cone), and gamma only by lorentz_factor.
"""

import enum
import functools
import math
from typing import NamedTuple

__all__ = [
    "Scheme",
    "Cavity1D",
    "Cavity2D",
    "NONREL_VELOCITY_LIMIT",
    "nonrelativistic_flag",
    "lorentz_factor",
]

# Galilean treatments are leading-order-in-v approximations; beyond this
# speed their outputs carry an explicit validity flag.
NONREL_VELOCITY_LIMIT = 0.3


class Scheme(enum.Enum):
    """Which transformation treatment governs mode functions and walls.

    GALILEO_LAB_PRIOR      start from the wave equation in the lab frame,
                           Galileo-shift to the cavity frame and back.
    GALILEO_COMOVING_PRIOR start from the wave equation in the cavity frame,
                           Galileo-shift into the lab frame.
    LORENTZ_EXACT          exact special-relativistic treatment; the moving
                           cavity is contracted to L/gamma in the lab frame.

    The two Galilean variants are non-relativistic approximations and are
    flagged as such in all outputs.
    """

    GALILEO_LAB_PRIOR = "galileo-lab"
    GALILEO_COMOVING_PRIOR = "galileo-comoving"
    LORENTZ_EXACT = "lorentz"

    @property
    def is_galilean(self) -> bool:
        return self is not Scheme.LORENTZ_EXACT


def _check_velocity(v: float) -> None:
    if not math.isfinite(v) or abs(v) >= 1.0:
        raise ValueError(f"velocity must satisfy |v| < 1, got {v!r}")


def _velocity_grid(v_grid) -> list[float]:
    """The distinct velocities of a grid as floats, ascending, each with |v| < 1."""
    grid = {float(v) for v in v_grid}
    for v in grid:
        _check_velocity(v)
    return sorted(grid)


def _check_length(value: float, name: str) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _validated(record: type) -> type:
    """The NamedTuple record class itself, with a __new__ that runs its _validate.

    Records are NamedTuples, immutable and equal and hashed by value, not
    dataclasses, whose generated methods cost about 1 ms per class at every
    import.
    """
    new = record.__new__

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._validate()
        return self

    record.__new__ = __new__
    return record


def _light_cone(v: float) -> float:
    """1 - v^2 as (1 - v)(1 + v), within a few ulps at any |v| < 1.

    One factor is exact where 1 - v^2 is small (Sterbenz: 1 - v for v >= 1/2).
    """
    return (1.0 - v) * (1.0 + v)


def lorentz_factor(velocity: float) -> float:
    """gamma = 1/sqrt(1 - v^2), with 1 - v^2 from _light_cone."""
    return 1.0 / math.sqrt(_light_cone(velocity))


@_validated
class Cavity1D(NamedTuple):
    """A 1D Dirichlet cavity of proper length L moving at constant velocity v."""

    proper_length: float
    velocity: float = 0.0

    def _validate(self) -> None:
        _check_length(self.proper_length, "proper_length")
        k = math.pi / self.proper_length
        if not math.isfinite(k * k):  # every mode sum and stress density carries (pi/L)^2
            raise ValueError(
                f"proper_length L = {self.proper_length!r} is too small: "
                "(pi/L)^2 is not finite in float64"
            )
        _check_velocity(self.velocity)

    def lab_length(self, scheme: Scheme) -> float:
        """Instantaneous cavity extent on a lab-time slice."""
        if scheme is Scheme.LORENTZ_EXACT:
            return self.proper_length / lorentz_factor(self.velocity)
        return self.proper_length

    def walls(self, scheme: Scheme, t: float) -> tuple[float, float]:
        """Positions of the left and right walls at lab time t."""
        left = self.velocity * t
        return left, left + self.lab_length(scheme)


@_validated
class Cavity2D(NamedTuple):
    """A rectangular Dirichlet cavity (proper sides a, b) moving along x."""

    proper_length_x: float
    proper_length_y: float
    velocity: float = 0.0

    def _validate(self) -> None:
        _check_length(self.proper_length_x, "proper_length_x")
        _check_length(self.proper_length_y, "proper_length_y")
        _check_velocity(self.velocity)

    # Only the boost axis is contracted: x is the 1D lorentz cavity.
    def lab_length_x(self) -> float:
        return self.proper_length_x / lorentz_factor(self.velocity)

    def walls_x(self, t: float) -> tuple[float, float]:
        left = self.velocity * t
        return left, left + self.lab_length_x()


def nonrelativistic_flag(scheme: Scheme, velocity: float) -> str | None:
    """Validity note attached to Galilean-scheme outputs at large velocity."""
    if scheme.is_galilean and abs(velocity) > NONREL_VELOCITY_LIMIT:
        return (
            f"{scheme.value}: non-relativistic approximation, "
            f"valid to O(v^2) only (|v| = {abs(velocity):g} > {NONREL_VELOCITY_LIMIT})"
        )
    return None
