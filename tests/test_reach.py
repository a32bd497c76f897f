"""Every def in src runs for some CLI request below, or is named in UNREACHED with its reason.

The requests run in process through cli.main under sys.setprofile, which
records the code object of every Python call. A def is matched to its code
object by file and first line (a decorator's line, if it has one). A new def
that no request reaches fails here until a request reaches it or UNREACHED
says why it stays; an entry of UNREACHED that no longer exists, or that a
request now reaches, fails too.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

import boostcav
from boostcav.cli import main

SRC = Path(boostcav.__file__).resolve().parent

CONFIG = "config.cfg"  # stands for a file of 'key = value' lines written under tmp_path

ARGVS = (
    # the README's examples
    "static --L 1",
    "static --plates --a 1",
    "boost --scheme lorentz --L 1 --v 0.6",
    "sweep --scheme lorentz --L 1 --v 0:0.9:0.1 --format csv",
    "sweep --scheme galileo-lab --L 1 --v 0:0.3:0.05",
    "rect2d --a 1 --b 1 --v 0.6 --solve-subtraction",
    "rect2d --a 1 --b 50 --v 0.6",
    "verify",
    "verify --only modes",
    "modes --scheme lorentz --L 1 --v 0.6",
    # each command in each format, route and method
    "static --L 2 --format json",
    "static --plates --a 0.5 --format json",
    "boost --scheme galileo-lab --L 1 --v 0.2 --method cutoff",
    "boost --scheme galileo-comoving --L 1.5 --v 0.5 --method abel-plana --format json",
    "sweep --scheme lorentz --L 1 --v 0:0.6:0.3 --route per-mode --method cutoff",
    "sweep --scheme galileo-comoving --L 2 --v 0.1:0.5:0.2 --route per-mode --method abel-plana"
    " --format json",
    "sweep --scheme galileo-lab --L 1 --v=-0.2:0.2:0.2 --method abel-plana --format json",
    "rect2d --a 2 --b 1 --v 0.3 --shell-grid 0.1:0.5:0.2 --format json",
    "rect2d --a 1 --b 2 --v 0.4 --solve-subtraction --format json",
    "modes --scheme galileo-lab --L 2 --v 0.3 --n-max 3 --t 0.5 --format json",
    "modes --scheme galileo-comoving --v -0.4 --n-max 2",
    # the edges: a config file, a switch set false, both faults, an overflowing grid
    f"boost --config {CONFIG} --v 0.3",
    "static --plates=false --L 1",
    "verify --inject-prefactor doubled",
    "verify --inject-t01-sign-flip",
    "sweep --scheme lorentz --L 1e-150 --v=-0.9999999999:-0.9:0.5 --route per-mode",
)

# src defs that no request above runs, each with the reason it stays
UNREACHED = {
    "cavity._validated": "runs at import, once per record class, before any request",
    "cavity.Cavity2D.walls_x": "the rectangle's lab walls, read by SpacetimeMode2D.value",
    "cavity.Cavity2D.lab_length_x": "the rectangle's contracted side, read by walls_x",
    "modes.SpacetimeMode2D.value": "the rectangle's mode function: library physics; the 2D "
                                   "closed form reads only its coefficients, and the tests "
                                   "take its norms by quadrature",
    "modes.SpacetimeMode2D.normalization": "N of the rectangle's mode function, read by value",
    "modes.SpacetimeMode.comoving_frequency": "the w' of the paper's weight 1/(2 w'); the modes "
                                              "table prints the same number from _row()",
    "observables.nonrel_fit": "acceptance criterion 6's library API; no command prints it",
    "observables.nonrel_fit.fit": "nonrel_fit's least squares",
}


def _defs() -> dict[tuple[str, int], str]:
    """{(file, first line): dotted name} of every def in src, nested ones included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = name
                visit(child, path, name)
            else:
                visit(child, path, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The dotted names of the src defs no request calls, and the requests' exit codes."""
    config = tmp_path_factory.mktemp("reach") / CONFIG
    config.write_text("# a boost request\nscheme = lorentz\nL = 2  # proper length\n")
    codes, exits = set(), []

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in ARGVS:
                exits.append(main(argv.replace(CONFIG, str(config)).split()))
    finally:
        sys.setprofile(previous)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}
    return {name for key, name in _defs().items() if key not in reached}, exits


def test_requests_exit_as_expected(traced):
    # the two faults fail verify; every other request succeeds
    assert traced[1] == [1 if "--inject" in argv else 0 for argv in ARGVS]


def test_every_src_def_is_reached_or_named(traced):
    stray = sorted(traced[0] - set(UNREACHED))
    assert not stray, f"no request reaches {stray}: add one that does, or a reason to UNREACHED"


def test_every_named_def_exists_and_is_unreached(traced):
    stale = sorted(set(UNREACHED) - traced[0])
    assert not stale, f"UNREACHED names {stale}, which no longer exist or a request now reaches"
