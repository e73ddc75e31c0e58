"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1-10

For every end-to-end metric it prints each run's value, the median of the
runs, the distance between the first and third quartile as a share of the
median, and that spread against the metric's bound from BENCHMARK.json.  It
also compares the medians of the odd and the even seeds, which shows whether
the per-call cost depends on the seed.  Each run's line gives the host
probe's mean time per round and the run's unscaled timings.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rsbench.stats import median, quartile_spread  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {}
    for seed in args.seeds:
        cmd = spec["command"][1:] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run([sys.executable] + cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=200)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2].removeprefix("info "))
        runs[seed] = result
        print(f"seed {seed}: {wall:.1f} s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"host_probe_s={info['host_probe_s_by_round']} unscaled={info['unscaled']}",
              flush=True)

    for m in spec["end_to_end"]:
        values = [runs[s]["metrics"][m["name"]]["value"] for s in args.seeds]
        line = f"{m['name']:16s} median={median(values):.6g}"
        if len(values) >= 2 and median(values) != 0:
            spread = quartile_spread(values)
            odd = median(values[0::2])
            even = median(values[1::2])
            line += (f" spread={spread:.4f} bound={m['bound']}"
                     f" spread/bound={spread / m['bound']:.2f}"
                     f" even/odd={even / odd - 1:+.4f}")
        line += " values=" + " ".join(f"{v:.6g}" for v in values)
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
