"""Vacuum energy and momentum of uniformly moving Dirichlet cavities.

The package builds the normalized spacetime modes of 1D and 2D cavities
under three transformation treatments (two Galilean approximations and the
exact contracted treatment), integrates the per-mode vacuum stress tensor
in closed form and by quadrature, extracts finite parts of the divergent mode sums with
cross-validated regularizers, and assembles the frame-dependent energy,
momentum, and mass-shell diagnostics. Units: hbar = c = 1.
"""

from .cavity import Cavity1D, Cavity2D, Scheme, nonrelativistic_flag
from .modes import (
    OutsideCavityError,
    SpacetimeMode,
    SpacetimeMode2D,
    boundary_residual,
    gram_matrix,
    kg_residual,
)
from .observables import (
    EnergyMomentum,
    Route,
    SweepTable,
    boosted_em,
    em_plate_energy_per_area,
    mass_shell_residual,
    nonrel_fit,
    route_comparison,
    static_m0,
    sweep,
)
from .quadrature import gauss_legendre
from .rect2d import (
    boosted_em_2d,
    mass_shell_probe_2d,
    subtraction_solver_2d,
)
from .regsum import (
    FinitePart,
    FitError,
    RegConfig,
    RegMethod,
    abel_plana_m0,
    cutoff_finite_part,
    zeta_linear_sum,
)
from .stress import (
    PerModeEM,
    coefficient_fits,
    per_mode_em,
    per_mode_em_2d,
)

__version__ = "0.1.0"

__all__ = [
    "Cavity1D",
    "Cavity2D",
    "Scheme",
    "nonrelativistic_flag",
    "OutsideCavityError",
    "SpacetimeMode",
    "SpacetimeMode2D",
    "boundary_residual",
    "kg_residual",
    "gram_matrix",
    "gauss_legendre",
    "PerModeEM",
    "per_mode_em",
    "per_mode_em_2d",
    "coefficient_fits",
    "FinitePart",
    "FitError",
    "RegConfig",
    "RegMethod",
    "zeta_linear_sum",
    "cutoff_finite_part",
    "abel_plana_m0",
    "Route",
    "EnergyMomentum",
    "SweepTable",
    "static_m0",
    "boosted_em",
    "route_comparison",
    "mass_shell_residual",
    "nonrel_fit",
    "sweep",
    "em_plate_energy_per_area",
    "boosted_em_2d",
    "mass_shell_probe_2d",
    "subtraction_solver_2d",
    "__version__",
]
