"""Command-line front end.

Subcommands: static | boost | sweep | rect2d | verify | modes. A `--config`
file of `key = value` lines is read as the flags `--key=value` it spells;
flags on the command line override it.
All output is deterministic: byte-identical across runs for the same
configuration. Numbers are serialized with 12 significant digits and every
header carries the unit convention hbar = c = 1.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.
"""

import argparse
import math
import sys
from typing import Any, Iterator, Sequence

from .cavity import Cavity1D, Cavity2D, Scheme, nonrelativistic_flag
from .observables import (
    ROUTE_AGREEMENT_RTOL,
    Route,
    em_plate_energy_per_area,
    lab_prior_discrepancy_report,
    mass_shell_residual,
    route_comparison,
    shell_residual_warning,
    static_m0,
    sweep,
)
from .regsum import FitError, RegConfig, RegMethod
from .rect2d import (
    Route2D,
    UnderdeterminedError,
    boosted_em_2d,
    finite_parts,
    mass_shell_probe_2d,
    static_limit_report,
    subtraction_solver_2d,
)
from .stress import _injected_fault
from .verify import run_checks
from . import modes as modes_mod

__all__ = ["main"]

UNITS_NOTE = "hbar = c = 1"
REGULATOR_AGREEMENT_RTOL = 1e-5
_METHODS = tuple(m.value for m in RegMethod)  # the 1D regularizers, as --method spells them
# Rows one table may hold, a `modes` --n-max or a velocity grid's points, to bound a
# request: a cold 10,000-row `sweep --format csv` took 0.22 s wall by the closed form
# and 0.49 s per mode (median of 5, shared 2-core x86-64 Xeon, October 2026).
ROW_BUDGET = 10_000


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize negative zero
    return f"{x:.12g}"


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def _json_payload(meta: dict, rows: list[dict]) -> str:
    import json  # only JSON output needs it: text and csv requests skip its import

    def clean(obj):
        if isinstance(obj, float):
            # RFC 8259 has no inf or nan: write them as the strings "inf", "-inf", "nan"
            return float(_fmt(obj)) if math.isfinite(obj) else str(obj)
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    payload = {"meta": clean({**meta, "units": UNITS_NOTE}), "rows": clean(rows)}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_lines(header: Sequence[str], rows: list[Sequence[Any]]) -> Iterator[str]:
    yield ",".join(header)
    for row in rows:
        yield ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)


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
    """A single velocity or an inclusive start:stop:step grid of at most ROW_BUDGET points."""
    if ":" in text:
        try:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
        except ValueError as exc:
            raise UsageError(f"bad grid spec {text!r} (expected start:stop:step)") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"grid spec {text!r}: start, stop and step must be finite")
        if step <= 0:
            raise UsageError("grid step must be positive")
        intervals = (stop - start) / step + 1e-9  # inf when the span overflows
        if not intervals < ROW_BUDGET:
            raise UsageError(f"grid spec {text!r} has {intervals + 1:.6g} points, over the row "
                             f"budget of {ROW_BUDGET}")
        if intervals < 0:  # -inf when the span overflows downward
            raise UsageError(f"grid spec {text!r} produces no points")
        raw = [start + i * step for i in range(math.floor(intervals) + 1)]
        points = [float(_fmt(x)) for x in raw]
        if max(map(abs, points)) >= 1.0 > max(map(abs, raw)):
            raise UsageError(f"grid spec {text!r} rounds a point to |v| = 1 at 12 significant digits")
        return points
    try:
        return [float(text)]
    except ValueError as exc:
        raise UsageError(f"bad velocity {text!r}") from exc


def _reg_config_1d(method: str) -> RegConfig:
    return RegConfig.cutoff() if method == "cutoff" else RegConfig(RegMethod(method))


# ---------------------------------------------------------------------------
# subcommands: each computes, then returns (exit code, JSON meta, JSON rows,
# text or CSV lines). The rows and the lines are zero-argument functions, so a
# request builds only its own format; `main` renders it and writes it once.
# ---------------------------------------------------------------------------

def _cmd_static(args: argparse.Namespace) -> tuple:
    if args.plates:
        if args.a is None or args.a <= 0:
            raise UsageError("--plates requires a positive --a (plate separation)")
        energy, slope = em_plate_energy_per_area(args.a)

        def lines():
            yield f"plate separation a = {_fmt(args.a)}"
            yield f"vacuum energy per area = {_fmt(energy)}"
            yield f"d(E/A)/da = {_fmt(slope)} (> 0: attraction)"

        return (0, {"command": "static-plates", "a": args.a},
                lambda: [{"energy_per_area": energy, "d_energy_da": slope}], lines)

    length = args.L
    if length is None or length <= 0:
        raise UsageError("static requires a positive --L")
    values = {method: static_m0(length, _reg_config_1d(method)) for method in _METHODS}
    spread = max(values.values()) - min(values.values())
    rel = spread / abs(values["zeta"])
    meta = {"command": "static", "L": length, "agreement_rtol": REGULATOR_AGREEMENT_RTOL}

    def lines():
        yield f"static cavity energy m0(L={_fmt(length)})"
        for k, v in values.items():
            yield f"  {k:>10s}: {_fmt(v)}"
        yield f"  relative spread: {_fmt(rel)}"

    return (0 if rel <= REGULATOR_AGREEMENT_RTOL else 1, meta,
            lambda: [{"method": k, "m0": v} for k, v in values.items()], lines)


def _cmd_boost(args: argparse.Namespace) -> tuple:
    if args.scheme is None or args.v is None:
        raise UsageError("boost requires --scheme and --v")
    scheme = Scheme(args.scheme)
    cavity = Cavity1D(args.L, args.v)
    config = _reg_config_1d(args.method)
    m0 = static_m0(args.L, config)
    comparison = route_comparison(scheme, cavity, config)
    flag = nonrelativistic_flag(scheme, args.v)
    notes = [note for em in (comparison.closed, comparison.numeric)
             if (note := shell_residual_warning([em], m0))]
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
        "scheme": scheme.value,
        "L": args.L,
        "v": args.v,
        "m0": m0,
        "route_agreement_rtol": ROUTE_AGREEMENT_RTOL,
    }
    if scheme.is_galilean:
        meta["scheme_note"] = "non-relativistic approximation"
    if flag:
        meta["validity"] = flag
    if notes:
        meta["warnings"] = notes

    def lines():
        yield f"scheme {scheme.value}, L = {_fmt(args.L)}, v = {_fmt(args.v)}, m0 = {_fmt(m0)}"
        if flag:
            yield f"note: {flag}"
        yield from (f"note: {note}" for note in notes)
        for row in rows:
            yield (f"  {row['route']:>12s}: E = {_fmt(row['E'])}  P = {_fmt(row['P'])}  "
                   f"E^2-P^2-m0^2 = {_fmt(row['shell_residual'])}")
        if scheme is Scheme.GALILEO_LAB_PRIOR:
            yield from lab_prior_discrepancy_report(cavity, m0).lines()

    return 0 if comparison.agree else 1, meta, lambda: rows, lines


def _cmd_sweep(args: argparse.Namespace) -> tuple:
    if args.scheme is None or args.v is None:
        raise UsageError("sweep requires --scheme and --v (grid spec start:stop:step)")
    scheme = Scheme(args.scheme)
    grid = _parse_grid(args.v)
    route = Route(args.route)
    config = _reg_config_1d(args.method)
    table = sweep(scheme, args.L, grid, route, config)
    header = ["v", "E", "P", "shell_residual", "E_point_particle", "P_point_particle", "route"]
    csv_rows = [
        [r.result.velocity, r.result.energy, r.result.momentum, r.shell_residual,
         r.energy_point_particle, r.momentum_point_particle, r.result.route.value]
        for r in table.rows
    ]
    meta = {
        "command": "sweep",
        "scheme": scheme.value,
        "L": args.L,
        "method": config.method.value,
        "route": route.value,
        "warnings": list(table.warnings),
    }
    if scheme.is_galilean:
        meta["scheme_note"] = "non-relativistic approximation"

    def lines():
        # the CSV keeps one row per line after its header, so warnings go to stderr
        for warning in table.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        yield from _csv_lines(header, csv_rows)

    return 0, meta, lambda: [dict(zip(header, row)) for row in csv_rows], lines


def _cmd_rect2d(args: argparse.Namespace) -> tuple:
    if args.a is None or args.b is None:
        raise UsageError("rect2d requires --a and --b")
    cavity = Cavity2D(args.a, args.b, args.v)
    parts = finite_parts(cavity)
    per_mode = boosted_em_2d(cavity, Route2D.PER_MODE)
    grouped = boosted_em_2d(cavity, Route2D.GROUPED)
    e_m = parts.S_omega.value
    rows = []
    for res in (per_mode, grouped):
        rows.append({
            "route": res.route.value,
            "E_s": res.energy,
            "E_s_error": res.energy_error,
            "P_s": res.momentum,
            "P_s_error": res.momentum_error,
            "shell_residual": mass_shell_residual(res, e_m),
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
    }
    probe = mass_shell_probe_2d(cavity, _parse_grid(args.shell_grid)) if args.shell_grid else ()
    probe_rows = [{"v": r.result.velocity, "residual": r.residual, "error": r.residual_error,
                   "predicted": r.predicted_residual} for r in probe]
    note = shell_residual_warning((per_mode, grouped, *(r.result for r in probe)), e_m, rest="E_m")
    if note:
        meta["warnings"] = [note]
    solver = None
    if args.solve_subtraction:
        grid = _parse_grid(args.shell_grid or "0.2:0.6:0.2")
        try:
            solver = subtraction_solver_2d(cavity, grid)
        except UnderdeterminedError as exc:
            raise UsageError(str(exc)) from exc
        meta["subtraction_note"] = solver.note

    def json_rows():
        out = rows + part_rows + probe_rows
        if solver:
            out += [
                {"branch": br.name, "delta_U": br.delta_U, "delta_W": br.delta_W,
                 "max_rel_residual": br.max_rel_residual}
                for br in solver.branches
            ]
        return out

    def lines():
        yield f"rectangle a = {_fmt(args.a)}, b = {_fmt(args.b)}, v = {_fmt(args.v)}"
        yield f"E_m (rest) = {_fmt(e_m)} +- {_fmt(parts.S_omega.error_estimate)}"
        if note:
            yield f"note: {note}"
        for row in rows:
            yield (f"  route {row['route']:>9s}: E_s = {_fmt(row['E_s'])} +- {_fmt(row['E_s_error'])}"
                   f"  P_s = {_fmt(row['P_s'])} +- {_fmt(row['P_s_error'])}"
                   f"  shell residual = {_fmt(row['shell_residual'])}")
        yield "finite parts by: zeta (Chowla-Selberg)"
        yield "finite parts:"
        for row in part_rows:
            yield f"  {row['part']:>8s} = {_fmt(row['value'])} +- {_fmt(row['error'])}"
        yield from static_limit_report(cavity).lines()
        for row in probe_rows:
            yield (f"  shell probe v = {_fmt(row['v'])}: residual = {_fmt(row['residual'])}"
                   f" +- {_fmt(row['error'])} (predicted {_fmt(row['predicted'])})")
        if solver:
            yield solver.note
            for br in solver.branches:
                yield (f"  branch {br.name}: dU = {_fmt(br.delta_U)}, dW = {_fmt(br.delta_W)}, "
                       f"post-shift max relative residual = {_fmt(br.max_rel_residual)}")

    return 0, meta, json_rows, lines


def _cmd_verify(args: argparse.Namespace) -> tuple:
    try:
        with _injected_fault(-1.0 if args.inject_t01_sign_flip else 1.0, args.inject_prefactor):
            results = run_checks(args.only)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    failures = [res for res in results if not res.passed]

    def lines():
        for res in results:
            yield f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}"
        yield f"{len(results) - len(failures)}/{len(results)} checks passed"
        if failures:
            import json
            failure_list = [{"name": res.name, "detail": res.detail} for res in failures]
            yield "failures: " + json.dumps(failure_list, sort_keys=True)

    return 1 if failures else 0, None, None, lines


def _cmd_modes(args: argparse.Namespace) -> tuple:
    if args.scheme is None:
        raise UsageError("modes requires --scheme")
    scheme = Scheme(args.scheme)
    cavity = Cavity1D(args.L, args.v)
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    if args.n_max > ROW_BUDGET:
        raise UsageError(f"--n-max {args.n_max} is over the row budget of {ROW_BUDGET}")
    t = args.t
    if not math.isfinite(t):
        raise UsageError(f"--t must be finite, got {t!r}")
    left, right = cavity.walls(scheme, t)
    x_mid = 0.5 * (left + right)
    # past 2^52 pi the float64 spacing of a phase is about pi or more: no digit is left
    th_t, th_x, s_t, s_x = modes_mod.SpacetimeMode(scheme, cavity, args.n_max)._coeffs
    phases = abs(th_t * t + th_x * x_mid), abs(s_t * t + s_x * x_mid)
    no_digit = f"--t {t!r} leaves no correct digit in the phase of mode n = {args.n_max} at x_mid"
    if not all(map(math.isfinite, phases)):  # inf - inf is nan, which max() may drop
        raise UsageError(f"{no_digit}: the phase is not finite in float64")
    if not max(phases) * sys.float_info.epsilon <= math.pi:
        raise UsageError(f"{no_digit}: |phase| = {max(phases):.6g}, over 2^52 pi")
    header = ["n", "omega_comoving", "omega_lab_phase", "normalization",
              "re_u_mid", "im_u_mid"]
    norm = modes_mod.SpacetimeMode(scheme, cavity, 1).normalization
    csv_rows = []
    for n in range(1, args.n_max + 1):
        comoving, lab_phase, coeffs = modes_mod.SpacetimeMode(scheme, cavity, n)._row()
        u_mid = modes_mod.affine_value(norm, coeffs, t, x_mid)
        csv_rows.append([float(n), comoving, lab_phase, norm, u_mid.real, u_mid.imag])
    meta = {"command": "modes", "scheme": scheme.value, "L": args.L,
            "v": args.v, "t": t, "x_sample": x_mid}
    return (0, meta, lambda: [dict(zip(header, row)) for row in csv_rows],
            lambda: _csv_lines(header, [[int(r[0])] + r[1:] for r in csv_rows]))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# a flag that alone means true and also takes a boolean: --plates, --plates=false
_SWITCH = {"nargs": "?", "const": True, "default": False, "type": _parse_bool, "metavar": "BOOL"}
_SCHEMES = [s.value for s in Scheme]

# Each command's handler, help, own flags (without their dashes, each with its
# add_argument keywords) and formats (the first the default; none, no --format).
_COMMANDS = {
    "static": (_cmd_static, "regularized static energy, all regularizers side by side", {
        "L": {"type": float, "help": "proper cavity length"},
        "a": {"type": float, "help": "plate separation (with --plates)"},
        "plates": {**_SWITCH, "help": "parallel-plate energy per unit area instead of the 1D cavity"},
    }, ("text", "json")),
    "boost": (_cmd_boost, "boosted energy/momentum, both routes", {
        "scheme": {"choices": _SCHEMES},
        "L": {"type": float, "default": 1.0},
        "v": {"type": float},
        "method": {"choices": _METHODS, "default": "zeta"},
    }, ("text", "json")),
    "sweep": (_cmd_sweep, "velocity sweep table with point-particle reference columns", {
        "scheme": {"choices": _SCHEMES},
        "L": {"type": float, "default": 1.0},
        "v": {"help": "grid spec start:stop:step (inclusive)"},
        "route": {"choices": [r.value for r in Route], "default": Route.CLOSED_FORM.value},
        "method": {"choices": _METHODS, "default": "zeta"},
    }, ("csv", "json")),
    "rect2d": (_cmd_rect2d, "moving rectangle: finite parts, routes, shell probe", {
        "a": {"type": float},
        "b": {"type": float},
        "v": {"type": float, "default": 0.0},
        "shell-grid": {"help": "velocity grid for the shell probe"},
        "solve-subtraction": _SWITCH,
    }, ("text", "json")),
    "verify": (_cmd_verify, "run the invariant suite", {
        "only": {"help": "restrict to one module group"},
        # the negative-control faults, hidden from --help
        "inject-t01-sign-flip": {**_SWITCH, "help": argparse.SUPPRESS},
        "inject-prefactor": {"choices": ("lab-phase", "doubled"), "help": argparse.SUPPRESS},
    }, ()),
    "modes": (_cmd_modes, "dump a mode table: n, frequencies, norm, sample value", {
        "scheme": {"choices": _SCHEMES},
        "L": {"type": float, "default": 1.0},
        "v": {"type": float, "default": 0.0},
        "n-max": {"type": int, "default": 8},
        "t": {"type": float, "default": 0.0},
    }, ("csv", "json")),
}


def _flags(command: str) -> dict[str, dict]:
    """Every flag of a command, in --help order: its own, then --config, --format, --output."""
    _, _, own, formats = _COMMANDS[command]
    flags = {**own, "config": {"help": "file of 'key = value' lines, read as the flags "
                                       "--key=value; flags on the command line win"}}
    if formats:
        flags["format"] = {"choices": formats, "default": formats[0]}
    return {**flags, "output": {"help": "output path (default: stdout)"}}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every command's subparser, which the top-level help and errors name; flags for one."""
    parser = argparse.ArgumentParser(
        prog="boostcav",
        description="Vacuum energy and momentum of uniformly moving Dirichlet cavities "
                    f"(units: {UNITS_NOTE}).",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        # no prefix matching: a config key, like a flag, must spell its option in full
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        if name == command:
            for flag, keywords in _flags(name).items():
                sub.add_argument(f"--{flag}", **keywords)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the top level has no flag but -h, so the first token naming a command is the
    # one argparse takes: only its subparser gets flags
    command = next((token for token in argv if token in _COMMANDS), None)
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's lines as flags right after the subcommand: argparse
            # converts and checks them, and the command line's own flags,
            # coming later, win. A key that is no flag is refused after a bad
            # value; `config` is none, as files do not nest
            values = _load_config(args.config)
            keys = _flags(command).keys() - {"config"}
            file_flags = [f"--{key}={value}" for key, (value, _) in values.items() if key in keys]
            args = parser.parse_args(argv[:1] + file_flags + argv[1:])
            for key, (_, lineno) in values.items():
                if key not in keys:
                    raise UsageError(f"{args.config}:{lineno}: unknown key {key!r} for boostcav "
                                     f"{command} (no flag --{key})")
        code, meta, rows, lines = _COMMANDS[command][0](args)
        # the one output path: JSON, or the text or CSV lines under the units note
        if getattr(args, "format", "text") == "json":
            text = _json_payload(meta, rows())
        else:
            text = "\n".join([f"# units: {UNITS_NOTE}", *lines()]) + "\n"
        _emit(text, args.output)
        return code
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
