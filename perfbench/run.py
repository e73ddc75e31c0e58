"""Benchmark entry point for rotor-spectra.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout.  A run is ROUNDS (casestudy-cli: 8) fresh
worker processes in turn, with BLAS and OpenMP pinned to one thread.  Each
times the package import plus input generation (``setup_s``) and one cold
call (``first_call_s``), then runs a closed loop of warm, identical calls for
its share of ``--seconds``, running a host probe before every call.  Each
worker's timings are scaled by its probe readings to a nominal host speed
(see ``rsbench/host.py``); the rounds are pooled and medians reported.  With
``--trace 1`` every other warm call is traced and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of standard output
is the result as JSON; the line before it records the environment, the call
counts, the unscaled timings and every failing check by name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: fresh workers per run, each giving one set-up and one cold-call sample;
#: the host's speed differs most between processes, so several short workers
#: beat one long one
ROUNDS = 5
#: the cheap workload's sub-second calls spread most, and its workers are
#: short enough to run more within the time budget
ROUNDS_BY_WORKLOAD = {"casestudy-cli": 8}
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` inside it; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, rnd, seconds, workdir, deadline) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ROTOR_SPECTRA_THREADS"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    result = workdir / f"round-{rnd}.json"
    cmd = [sys.executable, "-m", "rsbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--round", str(rnd), "--src", str(SRC),
           "--workdir", str(workdir / "w"), "--result", str(result)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker round {rnd} exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(result.read_text(encoding="utf-8"))


def _metric(spec, value) -> dict:
    return {"value": value, "unit": spec["unit"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "rotor_spectra" / "__init__.py").is_file():
        print(f"no rotor_spectra sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        rounds, used = [], 0.0
        n_rounds = ROUNDS_BY_WORKLOAD.get(args.workload, ROUNDS)
        for r in range(n_rounds):
            # a round's last call overruns its share; the next rounds get less
            share = max(0.0, (args.seconds - used) / (n_rounds - r))
            rounds.append(_worker(args, r, share, workdir, deadline))
            used += rounds[-1]["loop_s"]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    from rsbench.host import NOMINAL_S
    from rsbench.stats import batch_means, median, tail
    from rsbench.trace import layer_metrics

    def pooled(key):
        return [v for r in rounds for v in r[key]]

    failures = Counter()
    for r in rounds:
        failures.update(r["failures"])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    # seconds on the nominal host: each worker's timings are scaled by the
    # host probe's mean over that worker (see rsbench/host.py)
    for r in rounds:
        scale = NOMINAL_S / statistics.fmean(r["host_probe_s"])
        for key in ("setup_s", "first_call_s"):
            r["scaled_" + key] = r[key] * scale
        for key in ("latencies", "traced_latencies"):
            r["scaled_" + key] = [v * scale for v in r[key]]
    lat = pooled("scaled_latencies")
    tail_s, tail_pct, n_calls = tail(lat)
    host_probe_s = statistics.fmean(pooled("host_probe_s"))
    unscaled = {}
    if args.trace:
        values = layer_metrics(pooled("calls"), rounds[0]["probes"])
        values["cli.import_s"] = median([r["import_s"] for r in rounds])
        values["host.ref_kernel_s"] = host_probe_s
        values["trace.overhead_frac"] = median(pooled("scaled_traced_latencies")) / median(lat) - 1
        values["simulate.arg_err_ratio_256_128"] = rounds[0]["arg_err_ratio_256_128"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
        if missing:
            print("per-layer metrics no wrapped function gives: " + ", ".join(missing),
                  file=sys.stderr)
            return 1
        metrics = {m["name"]: _metric(m, values[m["name"]]) for m in spec["per_layer"]}
    else:
        k = rounds[0]["calls_per_sample"]
        unscaled = {
            "setup_s": median([r["setup_s"] for r in rounds]),
            "first_call_s": median([r["first_call_s"] for r in rounds]),
            "call_p50_s": median(batch_means(pooled("latencies"), k)),
        }
        values = {
            "setup_s": median([r["scaled_setup_s"] for r in rounds]),
            "first_call_s": median([r["scaled_first_call_s"] for r in rounds]),
            "call_p50_s": median(batch_means(lat, k)),
            "call_tail_s": tail_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {m["name"]: _metric(m, values[m["name"]]) for m in spec["end_to_end"]}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "environment": rounds[0]["environment"], "rounds": len(rounds),
        "warm_calls": n_calls, "call_tail_percentile": tail_pct,
        "calls_per_sample": rounds[0]["calls_per_sample"],
        "host_probe_s": host_probe_s, "unscaled": unscaled,
        "host_probe_s_by_round": [round(statistics.fmean(r["host_probe_s"]), 5) for r in rounds],
        "traced_calls": len(pooled("traced_latencies")),
        "failed_checks": dict(sorted(failures.items())),
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
