"""src never imports numpy: every path, the rectangle's lattice sums included, runs on `math`."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import boostcav
from boostcav import modes
from boostcav.cavity import Cavity1D, Cavity2D, Scheme
from boostcav.modes import (SpacetimeMode, SpacetimeMode2D, boundary_residual, gram_matrix,
                            kg_residual)
from boostcav.observables import nonrel_fit
from boostcav.quadrature import gauss_legendre
from boostcav.regsum import (Linear1DSummand, RegConfig, RegMethod, abel_plana_m0,
                             cutoff_finite_part, geometric_schedule)
from boostcav.stress import coefficient_fits, per_mode_em, per_mode_em_2d

SRC = Path(boostcav.__file__).resolve().parent

# none: the rectangle's cutoff sums are closed forms, modes evaluate one point on
# cmath, and the Gauss-Legendre rule runs on lists of floats
NUMPY_MODULES = set()


# the modules that integrate: the package's exports, regsum's Abel-Plana integral and
# stress's quadrature route. modes' matrices are closed forms.
QUADRATURE_MODULES = {"__init__", "regsum", "stress"}


def _imported_modules(tree: ast.AST) -> set[str]:
    """Dotted names of the modules a source imports, a relative one as boostcav.<name>."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["boostcav" if node.level else "", node.module]))
            names.add(base)
            if node.module is None:  # from . import name
                names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _modules_importing(predicate) -> set[str]:
    return {path.stem for path in SRC.glob("*.py")
            if any(map(predicate, _imported_modules(ast.parse(path.read_text()))))}


def test_modules_importing_numpy():
    assert _modules_importing(lambda name: name.split(".")[0] == "numpy") == NUMPY_MODULES


def test_modules_importing_quadrature():
    assert _modules_importing(lambda name: name == "boostcav.quadrature") == QUADRATURE_MODULES


MODE_1D = "SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.3, 0.6), 3)"
MODE_2D = "SpacetimeMode2D(Cavity2D(1.1, 2.3, -0.5), 2, 3)"

# each line prints the repr of one scalar call's result
SCALAR_CALLS = (
    "nonrel_fit(Scheme.LORENTZ_EXACT, 0.2, degree=6)",
    "cutoff_finite_part(Linear1DSummand(1.0),"
    " RegConfig(RegMethod.EXPONENTIAL_CUTOFF, geometric_schedule(lo=1e-5)))",
    "Cavity1D(1, 0.6).walls(Scheme.LORENTZ_EXACT, 0.3)",
    "per_mode_em(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.3, 0.2), 3)",
    "per_mode_em_2d(Cavity2D(1.1, 2.3, -0.5), 2, 3)",
    "coefficient_fits(Scheme.LORENTZ_EXACT, (0.0, 0.6))",
    "abel_plana_m0(1.3)",
    "gauss_legendre(lambda xs: ([math.sin(x) ** 2 for x in xs], [x * math.exp(-x) for x in xs]),"
    " 0.0, 9.0, panels=5)",
    *(f"SpacetimeMode(Scheme.{scheme}, Cavity1D(1.3, 0.6), 3).{name}"
      for scheme in ("GALILEO_LAB_PRIOR", "LORENTZ_EXACT")
      for name in ("base_frequency", "comoving_frequency", "lab_phase_frequency",
                   "normalization")),
    f"{MODE_1D}.value(0.4, 0.5)",
    f"{MODE_2D}.value(0.4, -0.1, 0.7)",
    "kg_residual(Scheme.GALILEO_COMOVING_PRIOR, Cavity1D(1.3, 0.2), 3, 0.4, 0.6)",
    "boundary_residual(Scheme.GALILEO_LAB_PRIOR, Cavity1D(1.3, 0.2), 3, 0.4)",
    *(f"{call}(Scheme.LORENTZ_EXACT, Cavity1D(1.3, 0.6), 4, 0.37)"
      for call in ("gram_matrix", "modes._gram_bound")),
)


def _run(*lines: str) -> str:
    """stdout of a fresh interpreter running these lines against this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_scalar_calls_run_without_numpy():
    out = _run(
        "import math, sys",
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError",
        "from boostcav import modes",
        "from boostcav.cavity import Cavity1D, Cavity2D, Scheme",
        "from boostcav.modes import (SpacetimeMode, SpacetimeMode2D, boundary_residual,",
        "                            gram_matrix, kg_residual)",
        "from boostcav.observables import nonrel_fit",
        "from boostcav.quadrature import gauss_legendre",
        "from boostcav.regsum import (Linear1DSummand, RegConfig, RegMethod, abel_plana_m0,",
        "                             cutoff_finite_part, geometric_schedule)",
        "from boostcav.stress import coefficient_fits, per_mode_em, per_mode_em_2d",
        *(f"print(repr({call}))" for call in SCALAR_CALLS),
    )
    assert out.splitlines() == [repr(eval(call)) for call in SCALAR_CALLS]


def test_verify_modes_imports_no_numpy():
    # the closed forms run on cmath; the field-equation check draws its points with
    # random.Random, not numpy.random
    out = _run(
        "import contextlib, io, sys",
        "from boostcav.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = main(['verify', '--only', 'modes'])",
        "print(code, 'numpy' in sys.modules, 'numpy.random' in sys.modules)",
    )
    assert out == "0 False False\n"
