"""boostcav benchmark: oracle-checked CLI workloads and an outside-in layer trace.

    python3 bench/run.py --workload cli-1d --seed 1 --seconds 20 --trace 0

--trace 0 drives the CLI as its users do: one `boostcav` process per
request, one client in a closed loop, never more than one child at a time.
Set-up times fresh interpreters importing boostcav.cli; the first import,
which is dropped, fills __pycache__ as installed users have it. The timed
pass then repeats the workload's round of requests; the first round is the
warm-up reference whose stdout bytes every later round must reproduce.

--trace 1 runs one round in this interpreter through
boostcav.cli.main(argv), after an untimed warm-up round. Each request runs
plain, then with every layer's public functions wrapped (tracer.py); the
harness prints the per-layer metrics and the tracing overhead.

Both modes check every printed number against the oracles in oracles.py
and end with one JSON line: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import VERIFY_GROUPS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
ENTRY = "import sys; from boostcav.cli import main; sys.exit(main())"  # the console script

# Seconds one round took when first measured, on a 2-core x86-64 machine. The timed
# pass repeats the round round(seconds / nominal) times, at least twice, so a
# change that speeds the program up is measured on the same requests, and the
# same number of them, as its parent.
NOMINAL_ROUND_S = {"cli-1d": 9.5, "rect2d-aspect": 19.0, "verify-suite": 10.0}
MIN_ROUNDS = 2
TAIL_BEYOND = 10   # the tail is the highest percentile with 10 samples beyond it
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3


END_TO_END = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "max_rel_err": "ratio", "peak_rss_mb": "MB",
}
# Each layer metric, grouped by the end-to-end metric it should move, and where.
PER_LAYER = {
    # setup_s on every workload; latency_p50_s and requests_per_s mostly on cli-1d
    "cli.import_s": "s", "cli.import_scipy_s": "s",
    # latency_p50_s on cli-1d: parsing, config merging and serializing large tables
    "cli.calls": "count", "cli.self_s": "s",
    # latency_p50_s and latency_tail_s on verify-suite
    "verify.calls": "count", "verify.self_s": "s",
    **{f"verify.{group}.total_s": "s" for group in VERIFY_GROUPS},
    # latency_p50_s on rect2d-aspect
    "rect2d.calls": "count", "rect2d.total_s": "s", "rect2d.self_s": "s",
    # requests_per_s on cli-1d, where the sweep row loop runs
    "observables.calls": "count", "observables.total_s": "s", "observables.self_s": "s",
    # requests_per_s, latency_tail_s and peak_rss_mb on rect2d-aspect and verify-suite;
    # max_rel_err and err_bound_ratio on rect2d-aspect. On cli-1d only the 1D
    # cutoff fit runs (once per row of a --method cutoff sweep).
    "regsum.calls": "count", "regsum.total_s": "s", "regsum.self_s": "s",
    "regsum.repeat_frac": "ratio", "regsum.err_bound_ratio": "ratio",
    # requests_per_s and latency_tail_s on cli-1d, slightly on verify-suite, not on rect2d-aspect
    "stress.calls": "count", "stress.total_s": "s", "stress.self_s": "s",
    "quadrature.calls": "count", "quadrature.self_s": "s", "quadrature.integrand_s": "s",
    "quadrature.integrand_calls": "count", "quadrature.points": "count",
    # latency_p50_s on verify-suite: Gram matrices and field-equation residuals
    "modes.calls": "count", "modes.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BOOSTCAV_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(argv, env) -> tuple[int, str, str, float, float]:
    """(exit code, stdout, stderr, wall seconds, peak RSS MB) of one CLI process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[s]).decode(errors="replace") for s in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, wall, usage.ru_maxrss / 1024.0


def timed_python(code: str, env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cold_start(env) -> dict[str, float]:
    """Median fresh-interpreter times; the first import (bytecode compile) is dropped."""
    timed_python("import boostcav.cli", env)
    bare = [timed_python("pass", env) for _ in range(SETUP_REPEATS)]
    setup = [timed_python("import boostcav.cli", env) for _ in range(SETUP_REPEATS)]
    return {"setup_s": statistics.median(setup), "bare_s": statistics.median(bare)}


def import_times(env) -> dict[str, float]:
    """Cumulative -X importtime of boostcav.cli and of the scipy modules it pulls in."""
    cli, scipy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import boostcav.cli"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        rows = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if m:
                rows.append((len(m.group(2)) // 2, m.group(3), int(m.group(1)) * 1e-6))
        cli.append(sum(t for depth, name, t in rows if depth == 0 and name.split(".")[0] == "boostcav"))
        scipy.append(sum(t for depth, name, t in _outermost(rows, "scipy")))
    return {"cli.import_s": statistics.median(cli), "cli.import_scipy_s": statistics.median(scipy)}


def _outermost(rows, package: str):
    """Rows of `package` modules not imported from inside another of its modules.

    -X importtime prints children before their parent, one indent deeper.
    """
    inside = []  # open ancestors' flags, innermost last, rebuilt bottom-up
    result = []
    for depth, name, t in reversed(rows):
        del inside[depth:]
        mine = name.split(".")[0] == package
        if mine and not any(inside):
            result.append((depth, name, t))
        inside.append(mine)
    return result


# ---------------------------------------------------------------------------
# trace 0: the CLI end to end
# ---------------------------------------------------------------------------

def end_to_end(workload: str, requests, seconds: float) -> tuple[dict, int, int, list[str]]:
    env = child_env()
    cold = cold_start(env)
    rounds = rounds_for(workload, seconds)
    results = []
    t0 = time.perf_counter()
    for _ in range(rounds):
        for req in requests:
            results.append((req, run_child(req.argv, env)))
    elapsed = time.perf_counter() - t0

    # judged after the clock stops, so checking never delays the next request;
    # the first round is the reference every later round must match byte for byte
    reference = {req.argv: out for req, (_, out, *_) in results[:len(requests)]}
    latencies, rss, notes, worst, bound_ratio, parts, failed = [], [], [], checks.REL_FLOOR, 0.0, 0, 0
    for req, (code, out, err, wall, peak) in results:
        latencies.append(wall)
        rss.append(peak)
        verdict = checks.check(req, code, out, err)
        if out != reference[req.argv]:
            verdict.problems.append("stdout differs from the first round")
        worst = max(worst, verdict.max_rel_err)
        bound_ratio = max(bound_ratio, verdict.err_bound_ratio)
        parts += verdict.parts_checked
        if not verdict.ok:
            failed += 1
            notes.append(f"FAILED {' '.join(req.argv)}: {'; '.join(verdict.problems[:3])}")

    n = len(latencies)
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": cold["setup_s"],
        "requests_per_s": n / elapsed,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "max_rel_err": worst,
        "peak_rss_mb": max(rss),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes += [
        f"timed pass: {rounds} round(s) of {len(requests)} requests, {n} samples in {elapsed:.2f} s",
        f"latency_tail_s is p{tail_pct:.1f} of {n} samples ({TAIL_BEYOND} beyond it)",
        f"cold start: bare interpreter {cold['bare_s']:.4f} s, import boostcav.cli "
        f"{cold['setup_s']:.4f} s (median of {SETUP_REPEATS})",
    ]
    if parts:
        notes.append(f"err_bound_ratio = {bound_ratio:.4g} over {parts} printed finite parts "
                     "(> 1: a stated error is not a bound)")
    return metrics, n, failed, notes


# ---------------------------------------------------------------------------
# trace 1: the layers, in process
# ---------------------------------------------------------------------------

def in_process(cli_module, req) -> tuple[float, int, str, str]:
    """(seconds inside main, exit code, stdout, stderr) of one request in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli_module.main(list(req.argv))
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue()


def per_layer(workload: str, seed: int, requests):
    """One round in process after a warm-up round; each request runs plain, then traced."""
    os.environ.pop("BOOSTCAV_THREADS", None)
    sys.path.insert(0, str(SRC))
    import boostcav.cli as cli_module

    for req in requests:  # lazy imports and first-call caches
        in_process(cli_module, req)
    tracer = Tracer()
    plain_s = traced_s = bound_ratio = 0.0
    failures = []
    for index, req in enumerate(requests):
        seconds, code, out, err = in_process(cli_module, req)
        plain_s += seconds
        tracer.start_request(index)
        tracer.install()
        try:
            seconds, *traced = in_process(cli_module, req)
        finally:
            tracer.uninstall()
        traced_s += seconds
        verdict = checks.check(req, code, out, err)
        if traced != [code, out, err]:
            verdict.problems.append("tracing changed the output")
        bound_ratio = max(bound_ratio, verdict.err_bound_ratio)
        if not verdict.ok:
            failures.append(f"FAILED {' '.join(req.argv)}: {'; '.join(verdict.problems[:3])}")

    layer = tracer.layer_metrics()
    layer.update(import_times(child_env()))
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
    layer["regsum.err_bound_ratio"] = bound_ratio

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s")) + layer["quadrature.integrand_s"]
    notes = failures + [
        f"in process: {len(requests)} requests, {plain_s:.3f} s plain, {traced_s:.3f} s traced",
        f"layer self times plus integrand sum to {self_sum:.3f} s of the {traced_s:.3f} s traced wall",
        f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}",
    ]
    return layer, len(requests), len(failures), notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "boostcav" / "cli.py").is_file():
        print(f"bench: no boostcav sources under {SRC}", file=sys.stderr)
        return 1

    requests = WORKLOADS[args.workload](args.seed)
    if args.trace:
        layer, attempted, failed, notes = per_layer(args.workload, args.seed, requests)
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics, attempted, failed, notes = end_to_end(args.workload, requests, args.seconds)

    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
