#!/usr/bin/env python3
"""entmem benchmark: one closed-loop client driving the public entmem API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

Run it from the root of a checkout; it imports entmem from ``src/`` there
and exits with code 2 when there is none.  BLAS is pinned to one thread
before numpy loads.  The last line of stdout is the result JSON:

* ``--trace 0``: the end-to-end metrics (op latency median, throughput,
  peak RSS, and ``setup_s``, the median over fresh processes of
  ``import entmem`` + scenario load + calibrate).
* ``--trace 1``: the per-layer metrics.  Each op runs untraced, then
  traced with the same inputs; both outputs must agree exactly.  Per-layer
  numbers are means per traced op.  Spans go to ``.bench_out/``.

The line before it, ``summary {...}``, adds the p90 latency (when at least
ten ops lie beyond it), the error rate and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5

# ``tracer`` and ``workloads`` import entmem, so they are imported inside
# functions, after ``main`` has pinned BLAS and put ``src/`` on the path.
WORKLOAD_NAMES = ("report_error_bars", "seed_ensemble", "storage_sweep")
END_TO_END = {"op_ms_p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count/op", f"{layer}.busy_s": "s/op",
                      f"{layer}.self_s": "s/op"})
    units.update({
        "estimators.tomo_mle.failed": "count/op",
        "estimators.tomo_mle.starts": "count/op",
        "estimators.tomo_mle.nfev": "count/op",
        "estimators.tomo_mle.nit": "count/op",
        "estimators.tomo_mle.nfev_per_fit": "count",
        "estimators.mc_error.resamples": "count/op",
        "estimators.mc_error.failed_resamples": "count/op",
        "estimators.visibility_fit.resamples_discarded": "count/op",
        "pipeline.report_emit.files": "count/op",
        "pipeline.report_emit.bytes_written": "B/op",
        "process.cpu_util": "ratio",
        "tracing.overhead_pct": "%",
        "tracing.self_sum_pct": "%",
        "setup.import_s": "s",
        "setup.load_s": "s",
        "setup.calibrate_s": "s",
    })
    return units


# -- set-up probe: runs in a fresh process ------------------------------------


def setup_probe() -> dict[str, float]:
    """Times ``import entmem``, the bundled scenario load and calibrate."""
    t0 = time.perf_counter()
    import entmem  # noqa: F401
    from entmem.calibrate import calibrate
    from entmem.scenario import load_bundled_scenario

    t1 = time.perf_counter()
    scenario = load_bundled_scenario()
    t2 = time.perf_counter()
    calibrate(scenario)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1, "calibrate_s": t3 - t2}


def probe_setup(n: int) -> list[dict[str, float]]:
    runs = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


# -- environment record -------------------------------------------------------


def environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    cpu = platform.processor()
    with open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "src_entmem_lines": sum(
            len(p.read_text().splitlines()) for p in (SRC / "entmem").rglob("*.py")
        ),
    }


# -- the closed loop ------------------------------------------------------------


def _timed(fn, inp):
    t0 = time.perf_counter()
    try:
        out = fn(inp)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return None, time.perf_counter() - t0, exc
    return out, time.perf_counter() - t0, None


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Runs ops until ``seconds`` have passed (at least one) and checks each."""
    from tracer import Tracer
    from workloads import WORKLOADS

    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, scratch)
    tracer = Tracer() if trace else None
    latencies, traced_latencies, problems = [], [], []
    attempted = failed = 0
    cpu0, wall0 = os.times(), time.perf_counter()
    deadline = wall0 + seconds
    for k, inp in enumerate(workload.inputs()):
        if k and time.perf_counter() >= deadline:
            break
        attempted += 1
        op_problems = []
        out, latency, exc = _timed(workload.run, inp)
        if exc is not None:
            op_problems.append(f"op {k} raised {exc!r}")
        else:
            found, digest = workload.check(inp, out)
            op_problems += found
        if tracer is not None and exc is None:
            tracer.op = k
            with tracer:
                traced_out, traced_latency, exc = _timed(workload.run, inp)
            tracer.op = None
            if exc is not None:
                op_problems.append(f"traced op {k} raised {exc!r}")
            else:
                found, traced_digest = workload.check(inp, traced_out)
                op_problems += found
                if traced_digest != digest:
                    op_problems.append(f"op {k}: traced output differs from untraced")
                traced_latencies.append(traced_latency)
        if op_problems:
            failed += 1
            problems += op_problems
        else:
            latencies.append(latency)
    wall = time.perf_counter() - wall0
    cpu1 = os.times()
    final = workload.finish()
    problems += final
    return {
        "attempted": attempted,
        "failed": min(attempted, failed + len(final)),
        "problems": problems,
        "latencies_s": latencies,
        "traced_latencies_s": traced_latencies,
        "cpu_util": (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall,
        "tracer": tracer,
    }


def end_to_end_metrics(run: dict, setups: list[dict]) -> tuple[dict, dict]:
    lat_ms = sorted(1e3 * t for t in run["latencies_s"])
    n = len(lat_ms)
    values = {
        "op_ms_p50": statistics.median(lat_ms) if n else 0.0,
        "ops_per_s": n / sum(run["latencies_s"]) if n else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(sum(s.values()) for s in setups),
    }
    extra = {
        "op_samples": n,
        # The highest percentile with at least ten samples beyond it.
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[-1] if n >= 100 else None,
        "error_rate": run["failed"] / run["attempted"],
    }
    return values, extra


def per_layer_metrics(run: dict, setups: list[dict]) -> dict:
    from tracer import LAYERS, layer_totals

    tracer = run["tracer"]
    ops = {span[4] for span in tracer.spans} - {None}
    n = max(len(run["traced_latencies_s"]), 1)
    totals = layer_totals(tracer.spans, ops)
    values = {}
    for layer in LAYERS:
        t = totals[layer]
        for key in ("calls", "busy_s", "self_s"):
            values[f"{layer}.{key}"] = t[key] / n
    mle, mc = totals["estimators.tomo_mle"], totals["estimators.mc_error"]
    emit = totals["pipeline.report_emit"]
    values.update({
        "estimators.tomo_mle.failed": mle["failed"] / n,
        "estimators.tomo_mle.starts": mle["starts"] / n,
        "estimators.tomo_mle.nfev": mle["nfev"] / n,
        "estimators.tomo_mle.nit": mle["nit"] / n,
        "estimators.tomo_mle.nfev_per_fit": mle["nfev"] / mle["calls"] if mle["calls"] else 0.0,
        "estimators.mc_error.resamples": mc["resamples"] / n,
        "estimators.mc_error.failed_resamples": mc["failed_resamples"] / n,
        "estimators.visibility_fit.resamples_discarded":
            totals["estimators.visibility_fit"]["resamples_discarded"] / n,
        "pipeline.report_emit.files": emit["files"] / n,
        "pipeline.report_emit.bytes_written": emit["bytes_written"] / n,
        "process.cpu_util": run["cpu_util"],
        "tracing.overhead_pct": 100.0 * (
            statistics.median(run["traced_latencies_s"]) / statistics.median(run["latencies_s"]) - 1.0
        ) if run["latencies_s"] and run["traced_latencies_s"] else 0.0,
        "tracing.self_sum_pct": 100.0 * sum(t["self_s"] for t in totals.values())
        / sum(run["traced_latencies_s"]) if run["traced_latencies_s"] else 0.0,
    })
    for key in ("import_s", "load_s", "calibrate_s"):
        values[f"setup.{key}"] = statistics.median(s[key] for s in setups)
    return values


# -- entry points ---------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run in a fresh process: (result, summary)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def run_all(seed: int, seconds: float) -> int:
    """Runs every workload in its own process and prints one table."""
    ok = True
    print(f"{'workload':<18} {'metric':<12} {'value':>12}  unit")
    for name in WORKLOAD_NAMES:
        result, summary = run_child(name, seed, seconds)
        ok &= result["correct"]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows += [("op_ms_p90", summary["op_ms_p90"], "ms"),
                 ("error_rate", summary["error_rate"], "ratio"),
                 ("op_samples", summary["op_samples"], "count")]
        for metric, value, unit in rows:
            shown = "n/a" if value is None else f"{value:.4g}"
            print(f"{name:<18} {metric:<12} {shown:>12}  {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "entmem" / "__init__.py").is_file():
        print(f"error: no entmem sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_probe()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import workloads  # noqa: F401  (imports entmem, compiling it before the probes)

    setups = probe_setup(SETUP_PROBES)
    scratch = OUT / f"tmp_{args.workload}_{args.seed}_{os.getpid()}"
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    shutil.rmtree(scratch, ignore_errors=True)

    values, extra = end_to_end_metrics(run, setups)
    units = END_TO_END
    if args.trace:
        values, units = per_layer_metrics(run, setups), per_layer_units()
        trace_path = OUT / f"trace_{args.workload}_{args.seed}.json"
        run["tracer"].write(trace_path)
        extra["trace_file"] = str(trace_path.relative_to(ROOT))
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **extra, "problems": run["problems"][:20],
        "setup_probes": setups, "environment": environment(),
    }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(
        json.dumps({**result, "summary": summary, "latencies_s": run["latencies_s"],
                    "traced_latencies_s": run["traced_latencies_s"]}, indent=1) + "\n"
    )
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
