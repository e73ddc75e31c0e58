"""One round of a benchmark run, in a fresh process.

Imports the package and generates the inputs (timed as set-up), makes one
cold call, then a closed loop of warm calls for ``--seconds``.  Run by
``perfbench/run.py``, which pools the rounds; writes its measurements as
JSON to ``--result``.  Only the standard library is imported before the
set-up timer starts, so set-up includes numpy and scipy as a one-shot CLI
user pays them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

#: warm calls of round r are numbered from r * ROUND_STRIDE + 1; cold calls are 0
ROUND_STRIDE = 100_000
#: host probes before the cold call and after the warm loop, besides one before each call
PROBES_AT_ENDS = 5


def _guarded(stage, fn, *args):
    """Run ``fn``; an exception becomes a named failure, with its traceback on stderr."""
    try:
        return fn(*args), []
    except Exception as exc:  # the loop must keep running and report the failure
        traceback.print_exc()
        return None, [f"{stage}.raised.{type(exc).__name__}"]


def _call_and_check(wl, i, tracer=None):
    """One call, timed; the output checks run after the clock stops."""
    wl.clear()
    if tracer is not None:
        tracer.call_id = i
        tracer.install()
    start = time.perf_counter()
    ctx, failed = _guarded("call", wl.call, i)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if not failed:
        found, raised = _guarded("check", wl.check, i, ctx)
        failed = raised or found
    return elapsed, failed


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "thread_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "ROTOR_SPECTRA_THREADS")},
        "pool_threads_default": min(8, os.cpu_count() or 1),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="warm loop of this round")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--src", required=True, help="directory the package must come from")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import rotor_spectra.cli  # noqa: F401  (timed: the program's import)
    import_s = time.perf_counter() - t0
    pkg = Path(sys.modules["rotor_spectra"].__file__).resolve()
    if Path(args.src).resolve() not in pkg.parents:
        print(f"rotor_spectra imported from {pkg}, not from {args.src}", file=sys.stderr)
        return 2
    from .workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    setup_s = time.perf_counter() - t0

    from .host import probe

    probe()  # untimed: the probe's own first run pays LAPACK's cold start
    host_probes = [probe() for _ in range(PROBES_AT_ENDS)]
    first_call_s, first_failed = _call_and_check(wl, 0)
    result = {"import_s": import_s, "setup_s": setup_s, "first_call_s": first_call_s}
    result.update(_loop(wl, args, first_failed, host_probes))
    if args.trace and args.round == 0:
        from .workloads import arg_err_ratio_256_128

        result["arg_err_ratio_256_128"] = arg_err_ratio_256_128()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _loop(wl, args, first_failed, host_probes) -> dict:
    """Warm calls for ``args.seconds``, each after a host probe; with tracing,
    every other call is traced.

    The loop also runs until it has one latency sample's worth of untraced
    calls and, with tracing, one traced call.
    """
    from .host import probe
    from .trace import Tracer, per_call

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    failures, attempted, failed = Counter(first_failed), 1, int(bool(first_failed))
    i = args.round * ROUND_STRIDE
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(untraced) < wl.calls_per_sample
           or (tracer and not traced)):
        i += 1
        use_trace = tracer is not None and i % 2 == 1
        host_probes.append(probe())
        latency, bad = _call_and_check(wl, i, tracer if use_trace else None)
        (traced if use_trace else untraced).append(latency)
        attempted += 1
        failed += int(bool(bad))
        failures.update(bad)

    loop_s = time.perf_counter() - start
    host_probes += [probe() for _ in range(PROBES_AT_ENDS)]
    out = {"loop_s": loop_s,
           "attempted": attempted, "failed": failed, "failures": failures,
           "latencies": untraced, "traced_latencies": traced,
           "calls_per_sample": wl.calls_per_sample,
           "host_probe_s": host_probes,
           "environment": _environment(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        calls = per_call(tracer.spans)
        out["calls"] = [calls[k] for k in sorted(calls)]
        out["probes"] = tracer.probes
    return out


if __name__ == "__main__":
    sys.exit(main())
