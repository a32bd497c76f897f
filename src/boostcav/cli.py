"""Command-line front end.

Subcommands: static | boost | sweep | rect2d | verify | modes. A `--config`
file of `key = value` lines is read as the flags `--key=value` it spells;
flags on the command line override it.
All output is deterministic: byte-identical across runs for the same
configuration. Numbers are serialized with 12 significant digits and every
header carries the unit convention hbar = c = 1.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .cavity import Cavity1D, Cavity2D, Scheme, nonrelativistic_flag
from .observables import (
    ROUTE_AGREEMENT_RTOL,
    Route,
    em_plate_energy_per_area,
    lab_prior_discrepancy_report,
    mass_shell_residual,
    route_comparison,
    static_m0,
    sweep,
)
from .regsum import FitError, RegConfig
from .rect2d import (
    Route2D,
    UnderdeterminedError,
    boosted_em_2d,
    finite_parts,
    mass_shell_probe_2d,
    static_limit_report,
    subtraction_solver_2d,
)
from .stress import PrefactorRule, StressConvention
from .verify import run_checks
from . import modes as modes_mod

__all__ = ["main"]

UNITS_NOTE = "hbar = c = 1"
REGULATOR_AGREEMENT_RTOL = 1e-5
# Rows one `modes` table may hold; a table this long takes well under a second.
MODES_ROW_BUDGET = 10_000


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize negative zero
    return f"{x:.12g}"


def _round12(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def _out_stream(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit(text: str, path: str | None) -> None:
    stream, close = _out_stream(path)
    try:
        stream.write(text)
    finally:
        if close:
            stream.close()


def _json_payload(meta: dict, rows: list[dict]) -> str:
    def clean(obj):
        if isinstance(obj, float):
            return _round12(obj)
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    payload = {"meta": clean(meta), "rows": clean(rows)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_payload(header: Sequence[str], rows: list[Sequence[Any]]) -> str:
    lines = [f"# units: {UNITS_NOTE}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict[str, tuple[str, int]]:
    """Each key's value and the number of the line that set it."""
    values: dict[str, tuple[str, int]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value, lineno
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_grid(text: str) -> list[float]:
    """A single velocity or an inclusive start:stop:step grid."""
    if ":" in text:
        try:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
        except ValueError as exc:
            raise UsageError(f"bad grid spec {text!r} (expected start:stop:step)") from exc
        if step <= 0:
            raise UsageError("grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise UsageError(f"grid spec {text!r} produces no points")
        return [_round12(start + i * step) for i in range(count)]
    try:
        return [float(text)]
    except ValueError as exc:
        raise UsageError(f"bad velocity {text!r}") from exc


def _reg_config_1d(method: str) -> RegConfig | None:
    if method == "zeta":
        return None
    if method == "cutoff":
        return RegConfig.cutoff()
    return RegConfig.abel_plana()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_static(args: argparse.Namespace) -> int:
    if args.plates:
        separation = args.a if args.a is not None else args.L
        if separation is None or separation <= 0:
            raise UsageError("--plates requires a positive --a (plate separation)")
        energy, slope = em_plate_energy_per_area(separation)
        meta = {"command": "static-plates", "a": separation, "units": UNITS_NOTE}
        rows = [{"energy_per_area": energy, "d_energy_da": slope}]
        if args.format == "json":
            _emit(_json_payload(meta, rows), args.output)
        else:
            _emit(
                f"# units: {UNITS_NOTE}\n"
                f"plate separation a = {_fmt(separation)}\n"
                f"vacuum energy per area = {_fmt(energy)}\n"
                f"d(E/A)/da = {_fmt(slope)} (> 0: attraction)\n",
                args.output,
            )
        return 0

    length = args.L
    if length is None or length <= 0:
        raise UsageError("static requires a positive --L")
    values = {
        "zeta": static_m0(length),
        "cutoff": static_m0(length, RegConfig.cutoff()),
        "abel-plana": static_m0(length, RegConfig.abel_plana()),
    }
    spread = max(values.values()) - min(values.values())
    rel = spread / abs(values["zeta"])
    meta = {
        "command": "static",
        "L": length,
        "units": UNITS_NOTE,
        "agreement_rtol": REGULATOR_AGREEMENT_RTOL,
    }
    rows = [{"method": k, "m0": v} for k, v in values.items()]
    if args.format == "json":
        _emit(_json_payload(meta, rows), args.output)
    else:
        lines = [f"# units: {UNITS_NOTE}", f"static cavity energy m0(L={_fmt(length)})"]
        for k, v in values.items():
            lines.append(f"  {k:>10s}: {_fmt(v)}")
        lines.append(f"  relative spread: {_fmt(rel)}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if rel <= REGULATOR_AGREEMENT_RTOL else 1


def _cmd_boost(args: argparse.Namespace) -> int:
    if args.scheme is None or args.v is None:
        raise UsageError("boost requires --scheme and --v")
    scheme = Scheme(args.scheme)
    cavity = Cavity1D(args.L, args.v)
    config = _reg_config_1d(args.method)
    m0 = static_m0(args.L, config)
    comparison = route_comparison(scheme, cavity, config)
    flag = nonrelativistic_flag(scheme, args.v)
    rows = []
    for em in (comparison.closed, comparison.numeric):
        rows.append({
            "route": em.route.value,
            "E": em.energy,
            "P": em.momentum,
            "shell_residual": mass_shell_residual(em, m0),
        })
    meta = {
        "command": "boost",
        "scheme": scheme.label,
        "L": args.L,
        "v": args.v,
        "m0": m0,
        "units": UNITS_NOTE,
        "route_agreement_rtol": ROUTE_AGREEMENT_RTOL,
    }
    if scheme.is_galilean:
        meta["scheme_note"] = "non-relativistic approximation"
    if flag:
        meta["validity"] = flag
    if args.format == "json":
        _emit(_json_payload(meta, rows), args.output)
    else:
        lines = [f"# units: {UNITS_NOTE}",
                 f"scheme {scheme.label}, L = {_fmt(args.L)}, v = {_fmt(args.v)}, "
                 f"m0 = {_fmt(m0)}"]
        if flag:
            lines.append(f"note: {flag}")
        for row in rows:
            lines.append(
                f"  {row['route']:>12s}: E = {_fmt(row['E'])}  P = {_fmt(row['P'])}  "
                f"E^2-P^2-m0^2 = {_fmt(row['shell_residual'])}"
            )
        if scheme is Scheme.GALILEO_LAB_PRIOR:
            lines.extend(lab_prior_discrepancy_report(cavity, m0=m0).lines())
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if comparison.agree else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.scheme is None or args.v is None:
        raise UsageError("sweep requires --scheme and --v (grid spec start:stop:step)")
    scheme = Scheme(args.scheme)
    grid = _parse_grid(args.v)
    route = Route(args.route)
    config = _reg_config_1d(args.method)
    table = sweep(scheme, args.L, grid, route, config)
    header = ["v", "E", "P", "shell_residual", "E_point_particle", "P_point_particle", "route"]
    csv_rows = [
        [r.velocity, r.energy, r.momentum, r.shell_residual,
         r.energy_point_particle, r.momentum_point_particle, r.route.value]
        for r in table.rows
    ]
    if args.format == "json":
        meta = {
            "command": "sweep",
            "scheme": scheme.label,
            "L": args.L,
            "method": table.method.value,
            "route": route.value,
            "units": UNITS_NOTE,
            "warnings": list(table.warnings),
        }
        if scheme.is_galilean:
            meta["scheme_note"] = "non-relativistic approximation"
        rows = [dict(zip(header, row)) for row in csv_rows]
        _emit(_json_payload(meta, rows), args.output)
    else:
        _emit(_csv_payload(header, csv_rows), args.output)
    return 0


def _cmd_rect2d(args: argparse.Namespace) -> int:
    if args.a is None or args.b is None:
        raise UsageError("rect2d requires --a and --b")
    cavity = Cavity2D(args.a, args.b, args.v)
    parts = finite_parts(cavity)
    per_mode = boosted_em_2d(cavity, Route2D.PER_MODE, parts=parts)
    grouped = boosted_em_2d(cavity, Route2D.GROUPED, parts=parts)
    e_m = parts.S_omega.value
    rows = []
    for res in (per_mode, grouped):
        rows.append({
            "route": res.route.value,
            "E_s": res.energy,
            "E_s_error": res.energy_error,
            "P_s": res.momentum,
            "P_s_error": res.momentum_error,
            "shell_residual": res.energy**2 - res.momentum**2 - e_m**2,
        })
    part_rows = [
        {"part": name, "value": fp.value, "error": fp.error_estimate}
        for name, fp in (("U", parts.U), ("W", parts.W),
                         ("S_omega", parts.S_omega), ("S_k", parts.S_k))
    ]
    meta = {
        "command": "rect2d",
        "method": "zeta",
        "a": args.a,
        "b": args.b,
        "v": args.v,
        "E_m": e_m,
        "E_m_error": parts.S_omega.error_estimate,
        "units": UNITS_NOTE,
    }
    solver = None
    probe_rows = []
    if args.shell_grid:
        grid = _parse_grid(args.shell_grid)
        probe_rows = [
            {"v": r.velocity, "residual": r.residual, "error": r.residual_error,
             "predicted": r.predicted_residual}
            for r in mass_shell_probe_2d(cavity, grid, Route2D.PER_MODE, parts=parts)
        ]
    if args.solve_subtraction:
        grid = _parse_grid(args.shell_grid or "0.2:0.6:0.2")
        try:
            solver = subtraction_solver_2d(cavity, grid, parts=parts)
        except UnderdeterminedError as exc:
            raise UsageError(str(exc)) from exc

    if args.format == "json":
        payload_rows = rows + part_rows + probe_rows
        if solver:
            meta["subtraction_note"] = solver.note
            payload_rows += [
                {"branch": br.name, "delta_U": br.delta_U, "delta_W": br.delta_W,
                 "max_rel_residual": br.max_rel_residual}
                for br in solver.branches
            ]
        _emit(_json_payload(meta, payload_rows), args.output)
    else:
        lines = [f"# units: {UNITS_NOTE}",
                 f"rectangle a = {_fmt(args.a)}, b = {_fmt(args.b)}, v = {_fmt(args.v)}",
                 f"E_m (rest) = {_fmt(e_m)} +- {_fmt(parts.S_omega.error_estimate)}"]
        for row in rows:
            lines.append(
                f"  route {row['route']:>9s}: E_s = {_fmt(row['E_s'])} +- {_fmt(row['E_s_error'])}"
                f"  P_s = {_fmt(row['P_s'])} +- {_fmt(row['P_s_error'])}"
                f"  shell residual = {_fmt(row['shell_residual'])}"
            )
        lines.append("finite parts by: zeta (Chowla-Selberg)")
        lines.append("finite parts:")
        for row in part_rows:
            lines.append(f"  {row['part']:>8s} = {_fmt(row['value'])} +- {_fmt(row['error'])}")
        lines.extend(static_limit_report(cavity, parts=parts).lines())
        for row in probe_rows:
            lines.append(
                f"  shell probe v = {_fmt(row['v'])}: residual = {_fmt(row['residual'])}"
                f" +- {_fmt(row['error'])} (predicted {_fmt(row['predicted'])})"
            )
        if solver:
            lines.append(solver.note)
            for br in solver.branches:
                lines.append(
                    f"  branch {br.name}: dU = {_fmt(br.delta_U)}, dW = {_fmt(br.delta_W)}, "
                    f"post-shift max relative residual = {_fmt(br.max_rel_residual)}"
                )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    convention = StressConvention(
        momentum_sign=-1.0 if args.inject_t01_sign_flip else 1.0,
        prefactor_rule=PrefactorRule(args.inject_prefactor) if args.inject_prefactor
        else PrefactorRule.SCHEME,
    )
    try:
        results = run_checks(args.only, convention)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [f"# units: {UNITS_NOTE}"]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.name}: {res.detail}")
    failures = [res for res in results if not res.passed]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        failure_list = [{"name": res.name, "detail": res.detail} for res in failures]
        lines.append("failures: " + json.dumps(failure_list, sort_keys=True))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if not failures else 1


def _cmd_modes(args: argparse.Namespace) -> int:
    if args.scheme is None:
        raise UsageError("modes requires --scheme")
    scheme = Scheme(args.scheme)
    cavity = Cavity1D(args.L, args.v)
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    if args.n_max > MODES_ROW_BUDGET:
        raise UsageError(f"--n-max {args.n_max} is over the row budget of {MODES_ROW_BUDGET}")
    t = args.t
    left, right = cavity.walls(scheme, t)
    x_mid = 0.5 * (left + right)
    header = ["n", "omega_comoving", "omega_lab_phase", "normalization",
              "re_u_mid", "im_u_mid"]
    n = np.arange(1, args.n_max + 1)
    length, v = cavity.proper_length, cavity.velocity
    norm = modes_mod.mode_normalization(scheme, length, v)
    u_mid = modes_mod.affine_value(norm, modes_mod.affine_coefficients(scheme, length, v, n),
                                   t, x_mid)
    csv_rows = np.stack([
        n.astype(float),
        modes_mod.expansion_frequency(scheme, length, v, n),
        modes_mod.phase_frequency(scheme, length, v, n),
        np.broadcast_to(norm, n.shape),
        u_mid.real,
        u_mid.imag,
    ], axis=1).tolist()
    if args.format == "json":
        meta = {"command": "modes", "scheme": scheme.label, "L": args.L,
                "v": args.v, "t": t, "x_sample": x_mid, "units": UNITS_NOTE}
        rows = [dict(zip(header, row)) for row in csv_rows]
        _emit(_json_payload(meta, rows), args.output)
    else:
        rows = [[int(r[0])] + [float(x) for x in r[1:]] for r in csv_rows]
        _emit(_csv_payload(header, rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    """--config, --output and (with formats, the first the default) --format."""
    sub.add_argument("--config", help="file of 'key = value' lines, read as the flags "
                                      "--key=value; flags on the command line win")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--output", help="output path (default: stdout)")


def _add_switch(sub: argparse.ArgumentParser, flag: str, **kw) -> None:
    """A flag that alone means true and also takes a boolean: --plates, --plates=false."""
    sub.add_argument(flag, nargs="?", const=True, default=False, type=_parse_bool,
                     metavar="BOOL", **kw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostcav",
        description="Vacuum energy and momentum of uniformly moving Dirichlet cavities "
                    f"(units: {UNITS_NOTE}).",
    )
    # no prefix matching: a config key, like a flag, must spell its option in full
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=functools.partial(argparse.ArgumentParser,
                                                                allow_abbrev=False))
    schemes = [s.label for s in Scheme]
    methods = ("zeta", "cutoff", "abel-plana")

    p = subs.add_parser("static", help="regularized static energy, all regularizers side by side")
    p.add_argument("--L", type=float, help="proper cavity length")
    p.add_argument("--a", type=float, help="plate separation (with --plates)")
    _add_switch(p, "--plates", help="parallel-plate energy per unit area instead of the 1D cavity")
    _add_common(p, ("text", "json"))
    p.set_defaults(func=_cmd_static)

    p = subs.add_parser("boost", help="boosted energy/momentum, both routes")
    p.add_argument("--scheme", choices=schemes)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--v", type=float)
    p.add_argument("--method", choices=methods, default="zeta")
    _add_common(p, ("text", "json"))
    p.set_defaults(func=_cmd_boost)

    p = subs.add_parser("sweep", help="velocity sweep table with point-particle reference columns")
    p.add_argument("--scheme", choices=schemes)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--v", help="grid spec start:stop:step (inclusive)")
    p.add_argument("--route", choices=[r.value for r in Route], default=Route.CLOSED_FORM.value)
    p.add_argument("--method", choices=methods, default="zeta")
    _add_common(p, ("csv", "json"))
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("rect2d", help="moving rectangle: finite parts, routes, shell probe")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--shell-grid", help="velocity grid for the shell probe")
    _add_switch(p, "--solve-subtraction")
    _add_common(p, ("text", "json"))
    p.set_defaults(func=_cmd_rect2d)

    p = subs.add_parser("verify", help="run the invariant suite")
    p.add_argument("--only", help="restrict to one module group")
    _add_switch(p, "--inject-t01-sign-flip", help=argparse.SUPPRESS)  # negative-control fault
    p.add_argument("--inject-prefactor", choices=("lab-phase", "doubled"),
                   help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("modes", help="dump a mode table: n, frequencies, norm, sample value")
    p.add_argument("--scheme", choices=schemes)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--t", type=float, default=0.0)
    _add_common(p, ("csv", "json"))
    p.set_defaults(func=_cmd_modes)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's lines as flags right after the subcommand: argparse
            # converts and checks them, and the command line's own flags,
            # coming later, win
            file_flags = {f"--{key}={value}": (key, lineno)
                          for key, (value, lineno) in _load_config(args.config).items()}
            _, unknown = parser.parse_known_args(argv[:1] + list(file_flags))
            if unknown:
                key, lineno = file_flags[unknown[0]]
                raise UsageError(f"{args.config}:{lineno}: unknown key {key!r} for boostcav "
                                 f"{args.command} (no flag --{key})")
            args = parser.parse_args(argv[:1] + list(file_flags) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"run `boostcav {args.command} --help` for accepted flags", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invalid physical parameters (|v| >= 1, non-positive lengths, ...)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # never leak exit codes other than 0/1/2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
