"""Parse each request's output and hold every printed number to its oracle.

A request fails on a wrong exit code, a missing or malformed field, or a
number outside its tolerance. Tolerances are the package's own stated ones:
closed forms to float64 rounding, the per-mode quadrature route to the
route agreement 1e-8, regularized m0 to the regulator agreement 1e-5, and
rectangle finite parts to 4x their printed error (the seed's worst is
about 1.4x; the ratio itself is reported, never counted as a failure).

Every comparison first removes the printing resolution (12 significant
digits unless the line prints fewer), so rounding noise never counts.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import oracles

UNITS = "hbar = c = 1"
EXACT = 1e-10
ROUTE = 1e-8
REGULATOR = 1e-5
STATED_ERROR_FACTOR = 4.0
REL_FLOOR = 1e-12  # the 12-digit printing resolution

METHOD_TOL = {"zeta": EXACT, "cutoff": REGULATOR, "abel-plana": REGULATOR}
ROUTE_TOL = {"closed-form": EXACT, "per-mode": ROUTE}

# checks per verify group when the benchmark was written; more may be added, none lost
VERIFY_CHECKS = {"modes": 5, "stress": 6, "regsum": 4, "observables": 7, "rect2d": 5}


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    max_rel_err: float = 0.0
    err_bound_ratio: float = 0.0   # max |printed - oracle| / printed error
    parts_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)

    def value(self, label: str, printed, oracle: float, scale: float, rtol: float,
              *, resolution: float | None = None, atol: float = 0.0) -> None:
        """printed must match oracle within rtol*scale + atol beyond its print resolution."""
        try:
            x = float(printed)
        except (TypeError, ValueError):
            self.problems.append(f"{label}: not a number: {printed!r}")
            return
        if resolution is None:
            resolution = _half_ulp(x, 12)
        excess = max(0.0, abs(x - oracle) - resolution)
        if not math.isfinite(x):
            excess = math.inf
        self.max_rel_err = max(self.max_rel_err, excess / scale)
        if excess > rtol * scale + atol:
            self.problems.append(f"{label}: printed {printed}, oracle {oracle:.15g}")

    def stated(self, label: str, printed, error, oracle: float, scale: float) -> None:
        """A value printed with its own error estimate."""
        self.value(label, printed, oracle, scale, 0.0, atol=STATED_ERROR_FACTOR * float(error))


def _half_ulp(x: float, digits: int) -> float:
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - digits + 1)


def grid_values(grid: dict) -> list[float]:
    """The inclusive start:stop:step grid as the CLI documents it."""
    start, stop, step = grid["start"], grid["stop"], grid["step"]
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return sorted({float(f"{start + i * step:.12g}") for i in range(count)})


# ---------------------------------------------------------------------------
# 1D
# ---------------------------------------------------------------------------

def _check_m0(v: Verdict, label: str, printed, length: float, method: str) -> None:
    exact = oracles.m0(length)
    v.value(label, printed, exact, abs(exact), METHOD_TOL[method])


def _check_em(v: Verdict, label: str, row: dict, scheme: str, length: float, vel: float,
              route: str, method: str) -> None:
    """E, P and the shell residual of one route at one velocity."""
    m0 = oracles.m0(length)
    law = oracles.closed_form_coefficients if route == "closed-form" else oracles.per_mode_coefficients
    ce, cp = law(scheme, vel)
    e, p = ce * m0, cp * m0
    scale = max(abs(e), abs(p))
    tol = METHOD_TOL[method] + ROUTE_TOL[route]
    v.value(f"{label} E", row["E"], e, scale, tol)
    v.value(f"{label} P", row["P"], p, scale, tol)
    v.value(f"{label} shell residual", row["shell_residual"], e * e - p * p - m0 * m0,
            e * e + p * p + m0 * m0, 2.0 * tol)


def check_static(req, out: str, v: Verdict) -> None:
    prm = req.params
    if "a" in prm:
        energy, slope = oracles.plate_energy(prm["a"])
        m = re.search(r"^vacuum energy per area = (\S+)$", out, re.M)
        s = re.search(r"^d\(E/A\)/da = (\S+) \(> 0: attraction\)$", out, re.M)
        v.require(m is not None and s is not None, "static --plates: missing lines")
        if m and s:
            v.value("plate energy", m.group(1), energy, abs(energy), EXACT)
            v.value("plate slope", s.group(1), slope, abs(slope), EXACT)
        return
    if prm["format"] == "json":
        rows = {r["method"]: r["m0"] for r in _json(out, v, "static")}
    else:
        rows = dict(re.findall(r"^\s+(zeta|cutoff|abel-plana): (\S+)$", out, re.M))
    v.require(sorted(rows) == ["abel-plana", "cutoff", "zeta"], f"static: methods {sorted(rows)}")
    for method, printed in rows.items():
        _check_m0(v, f"m0 {method}", printed, prm["L"], method)


def check_boost(req, out: str, v: Verdict) -> None:
    prm = req.params
    scheme, length, vel = prm["scheme"], prm["L"], prm["v"]
    flagged = scheme != "lorentz" and abs(vel) > 0.3
    if prm["format"] == "json":
        payload = _payload(out, v)
        if payload is None:
            return
        meta = payload["meta"]
        m0_printed = meta.get("m0")
        v.require(("validity" in meta) == flagged, "boost: validity flag mismatch")
        rows = {r["route"]: r for r in payload["rows"]}
    else:
        head = re.search(r"^scheme \S+, L = \S+, v = \S+, m0 = (\S+)$", out, re.M)
        m0_printed = head.group(1) if head else None
        v.require(("\nnote: " in out) == flagged, "boost: validity note mismatch")
        rows = {
            route: {"E": e, "P": p, "shell_residual": r}
            for route, e, p, r in re.findall(
                r"^\s+(closed-form|per-mode): E = (\S+)  P = (\S+)  E\^2-P\^2-m0\^2 = (\S+)$",
                out, re.M)
        }
        if scheme == "galileo-lab":
            _check_lab_report(v, out, length, vel)
    _check_m0(v, "boost m0", m0_printed, length, prm["method"])
    v.require(sorted(rows) == ["closed-form", "per-mode"], f"boost: routes {sorted(rows)}")
    for route, row in rows.items():
        _check_em(v, f"boost {route}", row, scheme, length, vel, route, prm["method"])


def _check_lab_report(v: Verdict, out: str, length: float, vel: float) -> None:
    """galileo-lab prints its closed forms (A) next to the per-mode law (B)."""
    m0 = oracles.m0(length)
    a = oracles.closed_form_coefficients("galileo-lab", vel)
    b = oracles.per_mode_coefficients("galileo-lab", vel)
    expected = {
        "E/m0 coefficient": (a[0], b[0]), "P/m0 coefficient": (a[1], b[1]),
        "E": (a[0] * m0, b[0] * m0), "P": (a[1] * m0, b[1] * m0),
    }
    found = dict(
        (q, (x, y)) for q, x, y in re.findall(r"^\s+(.+?): A=(\S+) B=(\S+) abs=", out, re.M)
    )
    v.require(sorted(found) == sorted(expected), f"galileo-lab report: entries {sorted(found)}")
    for quantity, (xa, xb) in found.items():
        if quantity in expected:
            ea, eb = expected[quantity]
            scale = max(abs(ea), abs(eb), abs(m0) if quantity in ("E", "P") else 1.0)
            v.value(f"lab report {quantity} A", xa, ea, scale, EXACT)
            v.value(f"lab report {quantity} B", xb, eb, scale, ROUTE)


def check_sweep(req, out: str, v: Verdict) -> None:
    prm = req.params
    scheme, length = prm["scheme"], prm["L"]
    header = ["v", "E", "P", "shell_residual", "E_point_particle", "P_point_particle", "route"]
    if prm["format"] == "json":
        rows = _json(out, v, "sweep")
    else:
        rows = _csv(out, v, header)
    grid = grid_values(prm["grid"])
    if scheme != "lorentz":
        grid = [x for x in grid if abs(x) <= 0.5]
    printed_v = [float(r["v"]) for r in rows]
    v.require(len(printed_v) == len(grid) and all(
        abs(x - y) <= 1e-12 for x, y in zip(printed_v, grid)), "sweep: velocity column differs from grid")
    m0 = oracles.m0(length)
    tol = METHOD_TOL[prm["method"]]
    for r in rows:
        vel = float(r["v"])
        v.require(r["route"] == prm["route"], f"sweep: route {r['route']}")
        _check_em(v, f"sweep v={vel:g}", r, scheme, length, vel, prm["route"], prm["method"])
        g = oracles.gamma(vel)
        v.value(f"sweep v={vel:g} E_pp", r["E_point_particle"], m0 * g, abs(m0) * g, tol + EXACT)
        v.value(f"sweep v={vel:g} P_pp", r["P_point_particle"], m0 * g * vel, abs(m0) * g,
                tol + EXACT)


def check_modes(req, out: str, v: Verdict) -> None:
    prm = req.params
    header = ["n", "omega_comoving", "omega_lab_phase", "normalization", "re_u_mid", "im_u_mid"]
    rows = _json(out, v, "modes") if prm["format"] == "json" else _csv(out, v, header)
    v.require([int(float(r["n"])) for r in rows] == list(range(1, prm["n_max"] + 1)),
              "modes: mode indices")
    for r in rows:
        n = int(float(r["n"]))
        wc, wl, norm, u, x_mid = oracles.mode_row(prm["scheme"], prm["L"], prm["v"], n, prm["t"])
        if prm["format"] == "json" and n == 1:
            v.value("mode sample point", json.loads(out)["meta"]["x_sample"], x_mid, prm["L"], EXACT)
        v.value(f"mode {n} omega_comoving", r["omega_comoving"], wc, wc, EXACT)
        v.value(f"mode {n} omega_lab_phase", r["omega_lab_phase"], wl, wl, EXACT)
        v.value(f"mode {n} normalization", r["normalization"], norm, norm, EXACT)
        v.value(f"mode {n} Re u", r["re_u_mid"], u.real, norm, EXACT)
        v.value(f"mode {n} Im u", r["im_u_mid"], u.imag, norm, EXACT)


# ---------------------------------------------------------------------------
# rectangle
# ---------------------------------------------------------------------------

def check_rect2d(req, out: str, v: Verdict) -> None:
    prm = req.params
    payload = _payload(out, v)
    if payload is None:
        return
    meta, rows = payload["meta"], payload["rows"]
    exact = oracles.rect_parts(prm["a"], prm["b"])
    size = max(abs(x) for x in exact.values())
    routes = {r["route"]: r for r in rows if "route" in r}
    parts = {r["part"]: r for r in rows if "part" in r}
    probes = [r for r in rows if "residual" in r]
    branches = {r["branch"]: r for r in rows if "branch" in r}
    v.require(sorted(parts) == sorted(exact), f"rect2d: parts {sorted(parts)}")
    v.require(sorted(routes) == ["grouped", "per-mode"], f"rect2d: routes {sorted(routes)}")
    if v.problems:
        return

    # Relative errors are taken against the magnitude of the terms that make
    # up each quantity (|ce| size for ce U, ...), so a cancellation at some v
    # cannot inflate them: every one is then bounded by the parts' own error.
    for name, row in parts.items():
        v.stated(f"part {name}", row["value"], row["error"], exact[name], size)
        v.err_bound_ratio = max(v.err_bound_ratio,
                                abs(float(row["value"]) - exact[name]) / float(row["error"]))
        v.parts_checked += 1
    s_omega = exact["S_omega"]
    v.stated("E_m", meta["E_m"], meta["E_m_error"], s_omega, size)

    def magnitudes(vel: float, e: float, p: float) -> tuple[float, float, float]:
        ce, cp = oracles.boost_factors(vel)
        mag_e, mag_p = (abs(ce) + 1.0) * size, max(abs(cp), 1.0) * size
        return mag_e, mag_p, 2.0 * (abs(e) * mag_e + abs(p) * mag_p + abs(s_omega) * size)

    err = {name: float(row["error"]) for name, row in parts.items()}
    e_m_err = float(meta["E_m_error"])
    for route, (e, p) in oracles.rect_routes(exact, prm["v"]).items():
        row = routes[route]
        mag_e, mag_p, mag_r = magnitudes(prm["v"], e, p)
        v.stated(f"{route} E_s", row["E_s"], row["E_s_error"], e, mag_e)
        v.stated(f"{route} P_s", row["P_s"], row["P_s_error"], p, mag_p)
        budget = 2.0 * (abs(e) * float(row["E_s_error"]) + abs(p) * float(row["P_s_error"])
                        + abs(s_omega) * e_m_err)
        v.value(f"{route} shell residual", row["shell_residual"], e * e - p * p - s_omega**2,
                mag_r, 0.0, atol=STATED_ERROR_FACTOR * budget)

    if prm["grid"] is None:
        v.require(not probes and not branches, "rect2d: unrequested probe rows")
        return
    v.require([float(r["v"]) for r in probes] == grid_values(prm["grid"]),
              "rect2d: probe velocities differ from grid")
    u, w = exact["U"], exact["W"]
    for r in probes:
        vel = float(r["v"])
        ce, _ = oracles.boost_factors(vel)
        predicted = 2.0 * (ce - 1.0) * u * w
        mag_r = magnitudes(vel, *oracles.rect_routes(exact, vel)["per-mode"])[2]
        v.stated(f"probe v={vel:g} residual", r["residual"], r["error"], predicted, mag_r)
        pred_err = 2.0 * abs(ce - 1.0) * (abs(u) * err["W"] + abs(w) * err["U"])
        v.value(f"probe v={vel:g} predicted", r["predicted"], predicted,
                2.0 * abs(ce - 1.0) * (abs(u) + abs(w)) * size, 0.0,
                atol=STATED_ERROR_FACTOR * pred_err)
    v.require(sorted(branches) == ["zero-longitudinal-part", "zero-transverse-part"],
              f"rect2d: branches {sorted(branches)}")
    expected = {"zero-transverse-part": (0.0, -w), "zero-longitudinal-part": (-u, 0.0)}
    for name, row in branches.items():
        du, dw = expected.get(name, (math.nan, math.nan))
        v.stated(f"{name} dU", row["delta_U"], err["U"], du, size)
        v.stated(f"{name} dW", row["delta_W"], err["W"], dw, size)
        v.value(f"{name} residual", row["max_rel_residual"], 0.0, 1.0, EXACT)
    note = re.search(r"\(U0 = (\S+), W0 = (\S+)\)$", meta.get("subtraction_note", ""))
    v.require(note is not None, "rect2d: subtraction note lacks U0, W0")
    if note:
        v.stated("note U0", note.group(1), err["U"], u, size)
        v.stated("note W0", note.group(2), err["W"], w, size)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_NUMBERS = (
    # (line pattern, oracle, resolution of the printed format)
    (r"energy-excess mismatch ratio ~ 4: ratio at v=0\.05: (\S+)$", 4.0 + 2.0 * 0.05**2, 5e-7),
    (r"momentum ratio -> 1: ratio at v=0\.01: (\S+)$", 1.0 + 0.01**2, 5e-9),
    (r"divergence as v -> 1: \|E\(0\.99\)/m0\| = (\S+)$",
     oracles.closed_form_coefficients("lorentz", 0.99)[0], 0.05),
    (r"plate energy signs: E/A = (\S+),", oracles.plate_energy(1.0)[0], None),
    (r"plate energy signs: E/A = \S+, dE/da = (\S+)$", oracles.plate_energy(1.0)[1], None),
    (r"static limit of the per-mode route: .*, P_s\(0\) = (\S+)$", 0.0, 0.0),
)


def check_verify(req, out: str, v: Verdict) -> None:
    lines = re.findall(r"^\[(PASS|FAIL)\] (.+)$", out, re.M)
    summary = re.search(r"^(\d+)/(\d+) checks passed$", out, re.M)
    v.require(summary is not None, "verify: no summary line")
    if summary is None:
        return
    passed, total = int(summary.group(1)), int(summary.group(2))
    v.require(total == len(lines) and passed == sum(s == "PASS" for s, _ in lines),
              "verify: summary disagrees with the check lines")
    group = req.params["only"]
    floor = VERIFY_CHECKS[group] if group else sum(VERIFY_CHECKS.values())
    v.require(total >= floor, f"verify: {total} checks, expected at least {floor}")
    if req.expect != 0:
        v.require(passed < total and "\nfailures: " in out, "verify: injected fault not reported")
        return
    v.require(passed == total, "verify: a check failed")
    for pattern, oracle, resolution in _VERIFY_NUMBERS:
        m = re.search(pattern, out, re.M)
        if m:
            res = _half_ulp(float(m.group(1)), 6) if resolution is None else resolution
            v.value(pattern.split(":")[0], m.group(1), oracle, max(abs(oracle), 1.0), EXACT,
                    resolution=res)
    m = re.search(r"deviation = FP\[sum k\^2/2w\] = (\S+) \(error (\S+)\)$", out, re.M)
    if m:
        s_k = oracles.rect_parts(1.0, 1.0)["S_k"]
        v.value("verify S_k(1,1)", m.group(1), s_k, abs(s_k), 0.0,
                resolution=_half_ulp(float(m.group(1)), 6), atol=STATED_ERROR_FACTOR * float(m.group(2)))


# ---------------------------------------------------------------------------

CHECKERS = {
    "static": check_static,
    "boost": check_boost,
    "sweep": check_sweep,
    "modes": check_modes,
    "rect2d": check_rect2d,
    "verify": check_verify,
}


def check(req, code: int, out: str, err: str) -> Verdict:
    """Judge one request's exit code and output."""
    v = Verdict()
    v.require(code == req.expect, f"exit code {code}, expected {req.expect}")
    if req.expect == 2:
        v.require("usage error" in err and not out, "invalid input: no usage message")
        return v
    if not v.ok:
        return v
    is_json = out.startswith("{")
    v.require(f'"units": "{UNITS}"' in out if is_json else out.startswith(f"# units: {UNITS}\n"),
              "units note missing")
    try:
        CHECKERS[req.argv[0]](req, out, v)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        v.problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return v


def _payload(out: str, v: Verdict):
    try:
        return json.loads(out)
    except ValueError as exc:
        v.problems.append(f"bad JSON: {exc}")
        return None


def _json(out: str, v: Verdict, command: str) -> list[dict]:
    payload = _payload(out, v)
    if payload is None:
        return []
    v.require(payload["meta"].get("command") == command, f"meta.command is not {command}")
    return payload["rows"]


def _csv(out: str, v: Verdict, header: list[str]) -> list[dict]:
    lines = out.splitlines()
    v.require(len(lines) >= 2 and lines[1] == ",".join(header), "csv header differs")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]
