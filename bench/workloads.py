"""Seeded, stratified request lists for the three benchmark workloads.

A workload is a list of CLI requests ("one round"). Every seed yields the
same number of requests per subcommand and per aspect bucket; the seed only
draws lengths, velocities and grids inside fixed bands, so the work in a
round hardly varies between seeds. The timed pass repeats the round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from oracles import SCHEMES

USAGE, OK, CHECK_FAILED = 2, 0, 1


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect: int                      # exit code the request must return
    kind: str                        # stratum label, for reports
    params: dict = field(default_factory=dict, compare=False)


def _num(x: float, digits: int = 6) -> tuple[str, float]:
    """A value as the CLI receives it, and the float the CLI parses from it."""
    text = f"{x:.{digits}g}"
    return text, float(text)


def _flag(name: str, text: str) -> str:
    # argparse reads "--v -0.5:0.5:0.1" as two options; the = form is unambiguous
    return f"--{name}={text}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _v_band(scheme: str) -> tuple[float, float]:
    return (0.1, 0.9) if scheme == "lorentz" else (0.05, 0.45)


def _grid(rng: random.Random, lo: float, hi: float, rows: int) -> tuple[str, dict]:
    """An inclusive start:stop:step grid of `rows` points inside [lo, hi]."""
    start_t, start = _num(rng.uniform(lo, lo + 0.1 * (hi - lo)), 4)
    step_t, step = _num((hi - start) / (rows - 1), 4)
    stop_t, stop = _num(start + (rows - 1) * step, 8)
    return f"{start_t}:{stop_t}:{step_t}", {"start": start, "stop": stop, "step": step}


def cli_1d(seed: int) -> list[Request]:
    """Everyday 1D use: short calls, per-mode sweeps, a few invalid inputs."""
    rng = random.Random(f"cli-1d:{seed}")
    out: list[Request] = []

    def length() -> tuple[str, float]:
        return _num(_log_uniform(rng, 0.5, 3.0))

    for fmt in ("text", "json"):
        lt, lv = length()
        out.append(Request(("static", "--L", lt, "--format", fmt), OK, "static",
                           {"L": lv, "format": fmt}))
    at, av = length()
    out.append(Request(("static", "--plates", "--a", at), OK, "static-plates", {"a": av, "format": "text"}))

    for i, scheme in enumerate(SCHEMES):
        for j, method in enumerate(("zeta", "cutoff", "abel-plana")):
            lt, lv = length()
            vt, vv = _num(rng.uniform(*_v_band(scheme)) * (-1) ** j)
            fmt = ("text", "json")[(i + j) % 2]
            out.append(Request(
                ("boost", "--scheme", scheme, "--L", lt, _flag("v", vt), "--method", method,
                 "--format", fmt),
                OK, "boost", {"scheme": scheme, "L": lv, "v": vv, "method": method, "format": fmt}))

    for i, scheme in enumerate(SCHEMES):
        lt, lv = length()
        vt, vv = _num(rng.uniform(*_v_band(scheme)))
        tt, tv = _num(rng.uniform(0.0, 2.0))
        n_max = rng.randint(6, 24)
        fmt = ("csv", "json")[i % 2]
        out.append(Request(
            ("modes", "--scheme", scheme, "--L", lt, "--v", vt, "--n-max", str(n_max), "--t", tt,
             "--format", fmt),
            OK, "modes", {"scheme": scheme, "L": lv, "v": vv, "n_max": n_max, "t": tv, "format": fmt}))

    # closed-form sweeps; the galileo-lab grid runs past the |v| <= 0.5 cap
    for i, scheme in enumerate(SCHEMES):
        lt, lv = length()
        hi = {"lorentz": 0.95, "galileo-comoving": 0.5, "galileo-lab": 0.6}[scheme]
        spec, grid = _grid(rng, -hi, hi, rng.randint(10, 20))
        fmt = ("json", "csv")[i % 2]
        out.append(Request(
            ("sweep", "--scheme", scheme, "--L", lt, _flag("v", spec), "--format", fmt),
            OK, "sweep-closed", {"scheme": scheme, "L": lv, "grid": grid, "route": "closed-form",
                                 "method": "zeta", "format": fmt}))

    # per-mode sweeps of about 20-400 rows: the quadrature-heavy requests
    for scheme, rows, method, fmt in (("lorentz", (340, 400), "zeta", "csv"),
                                      ("galileo-comoving", (90, 120), "cutoff", "json"),
                                      ("galileo-lab", (20, 30), "abel-plana", "csv")):
        lt, lv = length()
        hi = 0.95 if scheme == "lorentz" else 0.5
        spec, grid = _grid(rng, -hi, hi, rng.randint(*rows))
        out.append(Request(
            ("sweep", "--scheme", scheme, "--L", lt, _flag("v", spec), "--route", "per-mode",
             "--method", method, "--format", fmt),
            OK, "sweep-per-mode", {"scheme": scheme, "L": lv, "grid": grid, "route": "per-mode",
                                   "method": method, "format": fmt}))

    # invalid inputs: |v| >= 1 and L <= 0 must exit 2 with a message
    vt, _ = _num(rng.uniform(1.0, 1.5) * (-1) ** rng.randint(0, 1))
    out.append(Request(("boost", "--scheme", "lorentz", "--L", "1", _flag("v", vt)), USAGE, "invalid"))
    lt, _ = _num(-rng.uniform(0.0, 2.0))
    out.append(Request(("static", _flag("L", lt)), USAGE, "invalid"))
    return _shuffled(rng, out)


# (ratio, orientation, shell flags, velocity); "tall" is b = r a (boost along
# the short side), "wide" is a = r b (boost along the long side). A third
# carry the shell probe and subtraction solver. Cost depends on the aspect
# alone; the three a/b = 5 requests sit between five cheaper and four dearer
# strata, so the median and the tail of a two-round pass fall inside one cost
# band. Each stratum keeps its velocity within +-0.02, so the worst relative
# error, which depends on v, does not move with the seed.
RECT_STRATA = (
    (1, "tall", True, 0.6), (1, "wide", False, 0.3), (2, "tall", False, 0.8),
    (2, "wide", True, 0.2), (5, "tall", False, 0.5), (5, "wide", False, 0.7),
    (5, "wide", True, 0.4), (5, "wide", False, 0.15), (20, "tall", True, 0.55),
    (20, "wide", False, 0.85), (50, "tall", False, 0.35), (50, "wide", False, 0.65),
)


def rect2d_aspect(seed: int) -> list[Request]:
    """rect2d --format json over distinct geometries, every aspect bucket."""
    rng = random.Random(f"rect2d-aspect:{seed}")
    out = []
    for ratio, orient, shell, v_mid in RECT_STRATA:
        st, sv = _num(_log_uniform(rng, 0.5, 2.0))
        lt, lv = _num(sv * ratio, 8)
        a, b = ((st, sv), (lt, lv)) if orient == "tall" else ((lt, lv), (st, sv))
        vt, vv = _num(rng.uniform(v_mid - 0.02, v_mid + 0.02))
        argv = ["rect2d", "--a", a[0], "--b", b[0], "--v", vt, "--format", "json"]
        params = {"a": a[1], "b": b[1], "v": vv, "grid": None}
        if shell:
            spec, grid = _grid(rng, 0.05, 0.8, rng.randint(3, 6))
            argv += ["--shell-grid", spec, "--solve-subtraction"]
            params["grid"] = grid
        out.append(Request(tuple(argv), OK, f"b/a={ratio}" if orient == "tall" else f"a/b={ratio}",
                           params))
    return _shuffled(rng, out)


# the full suite, each module group, fault injections that must be detected
# (exit 1 with at least one [FAIL]) and an unknown group (exit 2). As in
# rect2d-aspect, the median and the tail of a two-round pass fall inside one
# cost band: the seven requests as cheap as --only stress, below four dearer.
VERIFY_ROUND = (
    (("verify",), OK, "full"),
    *((("verify", "--only", g), OK, g) for g in ("modes", "stress", "regsum", "observables", "rect2d")),
    (("verify", "--only", "stress", "--inject-t01-sign-flip"), CHECK_FAILED, "inject"),
    (("verify", "--only", "stress", "--inject-prefactor", "doubled"), CHECK_FAILED, "inject"),
    (("verify", "--only", "stress", "--inject-prefactor", "lab-phase"), CHECK_FAILED, "inject"),
    (("verify", "--only", "stress", "--inject-t01-sign-flip", "--inject-prefactor", "lab-phase"),
     CHECK_FAILED, "inject"),
    (("verify", "--only", "nosuch"), USAGE, "invalid"),
)


def verify_suite(seed: int) -> list[Request]:
    """verify has no inputs to draw, so the seed only orders the round."""
    rng = random.Random(f"verify-suite:{seed}")
    out = [Request(argv, expect, kind, {"only": argv[2] if len(argv) > 2 else None})
           for argv, expect, kind in VERIFY_ROUND]
    return _shuffled(rng, out)


def _shuffled(rng: random.Random, requests: list[Request]) -> list[Request]:
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "cli-1d": cli_1d,
    "rect2d-aspect": rect2d_aspect,
    "verify-suite": verify_suite,
}
