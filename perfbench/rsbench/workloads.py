"""The three benchmark workloads.

Each workload generates its inputs from the seed (``setup``), makes one call
of the closed loop (``call``) through ``rotor_spectra.cli.main(argv)`` and
the public library functions, and checks that call's outputs (``check``).
Functions are looked up on their modules at call time, so the tracing
wrappers see every call.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import checks

CASE_BETA = ["pi/20", "e/7", "1/sqrt2"]
CASE_L = [11, 7, 15]
SCALED_L = [33, 21, 45]
DELTA = 0.1


def _config(L) -> str:
    return json.dumps({"beta": CASE_BETA, "L": L, "generator": "laplacian",
                       "delta": DELTA, "epsilons": [0.1], "ks": [1]}, indent=2) + "\n"


class Workload:
    name = ""
    #: warm calls averaged into one latency sample; see CaseStudyCli
    calls_per_sample = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.out = self.workdir / "out"

    def setup(self) -> None:
        """Generate and parse the inputs; runs inside the timed set-up."""
        raise NotImplementedError

    def _cli(self, argv) -> list[str]:
        code = sys.modules["rotor_spectra.cli"].main([str(a) for a in argv])
        return [] if code == 0 else [f"cli.{argv[0]}.exit_code"]

    def clear(self) -> None:
        """Remove the previous call's outputs, so every check reads fresh files."""
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, ctx) -> list[str]:
        raise NotImplementedError


class CaseStudyCli(Workload):
    """``casestudy --x-res 256`` then a ``spectrum`` sweep at k=1,2 over 4 seeded eps."""

    name = "casestudy-cli"
    # On a shared host the speed switches between states lasting about a
    # second, so sub-second calls split into a fast and a slow mode and their
    # median jumps between the two.  Three calls span about 2 s, like one
    # call of the other workloads.
    calls_per_sample = 3
    ks = (1, 2)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.eps = [float(e) for e in 10.0 ** rng.uniform(-4.0, -1.0, size=4)]
        self.config = self.workdir / "case.json"
        self.config.write_text(_config(CASE_L), encoding="utf-8")
        sys.modules["rotor_spectra"].load_config(self.config)
        self.beta = checks.speeds(CASE_BETA)

    def call(self, i):
        failed = self._cli(["casestudy", "--out", self.out / "case", "--x-res", 256])
        failed += self._cli(["spectrum", "--config", self.config, "--out", self.out / "sweep",
                             "--k", ",".join(map(str, self.ks)),
                             "--eps", ",".join(repr(e) for e in self.eps)])
        return failed

    def check(self, i, ctx):
        failed = list(ctx)
        failed += checks.check_spectrum_csv(self.out / "case" / "spectrum_k1_eps0.1.csv",
                                            self.beta, CASE_L, 1, 0.1, DELTA)
        for k in self.ks:
            for eps in self.eps:
                failed += checks.check_spectrum_csv(
                    self.out / "sweep" / f"spectrum_k{k}_eps{eps:g}.csv",
                    self.beta, CASE_L, k, eps, DELTA)
        return failed


class ResponseScaled(Workload):
    """``response --k 1`` then ``oracle --k 1`` at N=99 (L = 33, 21, 45)."""

    name = "response-scaled"

    def setup(self):
        # the inputs are fixed: the certified slopes hold on the default eps grid
        self.config = self.workdir / "scaled.json"
        self.config.write_text(_config(SCALED_L), encoding="utf-8")
        sys.modules["rotor_spectra"].load_config(self.config)
        self.beta = checks.speeds(CASE_BETA)
        self.leading = [sum(SCALED_L[:s]) + 1 for s in range(len(SCALED_L))]

    def call(self, i):
        failed = self._cli(["response", "--config", self.config, "--out", self.out, "--k", 1])
        failed += self._cli(["oracle", "--config", self.config, "--out", self.out, "--k", 1])
        return failed

    def check(self, i, ctx):
        failed = list(ctx)
        for ell in self.leading:
            failed += checks.check_ordercheck_csv(self.out / f"ordercheck_k1_ell{ell}.csv")
        failed += checks.check_response_csv(self.out / "response_k1.csv", self.beta, SCALED_L, 1)
        failed += checks.check_oracle_csv(self.out / "oracle_k1.csv", self.beta, SCALED_L, 1)
        return failed


class UlamCycles(Workload):
    """The README's ``simulate`` run, then an empirical Ulam pipeline on 200 paths."""

    name = "ulam-cycles"
    bins, top_m, paths, steps = 128, 3, 20, 1000
    emp_bins, emp_paths = 32, 200

    def setup(self):
        self.config = self.workdir / "case.json"
        self.config.write_text(_config(CASE_L), encoding="utf-8")
        self.cfg = sys.modules["rotor_spectra"].load_config(self.config)
        self.beta = checks.speeds(CASE_BETA)

    def call(self, i):
        rs = sys.modules["rotor_spectra"]
        seed = self.seed + i
        failed = self._cli(["simulate", "--config", self.config, "--out", self.out,
                            "--bins", self.bins, "--top-m", self.top_m, "--paths", self.paths,
                            "--steps", self.steps, "--seed", seed])
        cfg = self.cfg
        batch = rs.simulate(cfg.model, cfg.gen, cfg.epsilons[0], cfg.delta,
                            self.emp_paths, self.steps, seed)
        op = rs.ulam_empirical(batch, self.emp_bins)
        report = rs.detect_cycles(op, cfg.model, self.top_m)
        return failed, batch, op, report

    def check(self, i, ctx):
        failed, batch, op, report = ctx
        failed = list(failed)
        n = self.cfg.model.N
        failed += checks.check_cycles_json(self.out / "cycles.json", self.beta, self.top_m)
        failed += checks.check_trajectory_csv(self.out / "trajectories.csv",
                                              self.paths, self.steps, n)
        failed += checks.check_empirical(batch.j, batch.x, op.matrix, n, self.emp_bins)
        failed += checks.check_cycles([(c.arg, c.band, c.band_masses) for c in report.cycles],
                                      self.beta, self.top_m, "empirical_cycles")
        return failed


WORKLOADS = {w.name: w for w in (CaseStudyCli, ResponseScaled, UlamCycles)}


def arg_err_ratio_256_128() -> float:
    """Criterion 10's halving clause as a value: worst cycle-arg error at M=256 over M=128.

    A documented finding about two resolutions (the eps^2 argument offset
    dominates the binning error), not a per-call certificate.
    """
    rs = sys.modules["rotor_spectra"]
    cfg = rs.case_study_config()
    worst = {}
    for M in (128, 256):
        op = rs.ulam_analytic(cfg.model, cfg.gen, 0.1, 0.1, M)
        report = rs.detect_cycles(op, cfg.model, 3)
        worst[M] = max(abs(abs(c.arg) - checks.halfturn(2 * np.pi * cfg.model.beta[c.band]))
                       for c in report.cycles)
    return worst[256] / worst[128]
