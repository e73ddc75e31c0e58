"""Command-line surface.

Subcommands: validate, spectrum, limit, response, oracle, simulate,
casestudy.  Each takes only the flags it reads (``COMMANDS``).  Every run
writes into one output directory together with a manifest recording the
command, the config hash, the seed and the library version, so reruns are
bit-identical on the same platform.  Each subcommand computes all its results
before it creates the directory, so a run that stops on an error leaves none.

Exit codes: 0 success, 1 validation or math error, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__, writers
from .config import CASE_STUDY_JSON, MAX_INDEX, RunConfig, load_config, parse_config
from .errors import AmbiguousLabelling, ConfigError, RotorSpectraError
from .model import validate_admissibility
from .oracle import oracle_crosscheck
from .response import check_eps_grid, order_checks, response_data
from .simulate import detect_cycles, simulate, ulam_analytic
from .spectra import spectrum
from .zero_noise import limit_basis, spectrum_convergence


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _nonnegative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _index(text: str) -> int:
    """A Fourier index; like the config, refuse |k| > MAX_INDEX."""
    value = int(text)
    if abs(value) > MAX_INDEX:
        raise ValueError("Fourier indices must lie within +-2**32")
    return value


def _list_of(parse):
    """Argument type: a nonempty comma-separated list of ``parse`` values."""
    def parse_list(text):
        try:
            values = [parse(t) for t in text.split(",") if t.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values
    return parse_list


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, command: str, cfg: RunConfig, **params):
    doc = {
        "command": command,
        "config_sha256": hashlib.sha256(cfg.raw.encode()).hexdigest(),
        "version": __version__,
        "parameters": {k: v for k, v in sorted(params.items())},
    }
    (out / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _load(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    if args.command == "casestudy":
        return parse_config(CASE_STUDY_JSON)
    raise ConfigError("--config is required")


def _leading_labels(model):
    """First label of each band (0-based): the largest-rho member."""
    return [model.cum[s] for s in range(model.S)]


def _write_spectrum(out: Path, model, k: int, eps: float, spec) -> None:
    tag = f"k{k}_eps{eps:g}"
    writers.write_spectrum_csv(out / f"spectrum_{tag}.csv", spec)
    writers.write_vectors_csv(out / f"vectors_{tag}.csv", k, spec.vectors)
    writers.write_circles_csv(out / f"circles_{tag}.csv", model, k,
                              spec.sinc, spec.gersh_radius)


def _limit(cfg: RunConfig, k: int, eps_list):
    basis = limit_basis(cfg.model, cfg.gen, k)
    return basis, spectrum_convergence(basis, cfg.gen, eps_list)


def _write_limit(out: Path, k: int, basis, rows) -> None:
    writers.write_limit_csv(out / f"limit_basis_k{k}.csv", basis)
    writers.write_convergence_csv(out / f"convergence_k{k}.csv", rows)


def _write_response(out: Path, k: int, resp) -> None:
    writers.write_response_csv(out / f"response_k{k}.csv", resp)
    writers.write_vectors_csv(out / f"fhat_k{k}.csv", k, resp.f_hat)


def cmd_validate(args) -> int:
    cfg = _load(args)
    report = validate_admissibility(cfg.gen, cfg.model)
    for name, ok in [("stochastic-generator", report.item_stochastic),
                     ("distinct-spectrum", report.item_distinct_full),
                     ("distinct-block-spectra", report.item_distinct_blocks)]:
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(f"row_sum_defect={report.row_sum_defect:.3e} "
          f"symmetry_defect={report.symmetry_defect:.3e} "
          f"min_offdiag={report.min_offdiag:.3e}")
    print(f"min_eigen_gap_full={report.min_eigen_gap_full:.6e} "
          f"min_eigen_gap_blocks={report.min_eigen_gap_blocks:.6e} "
          f"eps_max={report.eps_max:.6g}")
    if args.out:
        out = _outdir(args)
        writers.write_admissibility_json(out / "admissibility.json", report)
        _manifest(out, "validate", cfg)
    return 0 if report.passed else 1


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    ks = args.k or list(cfg.ks)
    eps_list = args.eps or list(cfg.epsilons)
    delta = cfg.delta if args.delta is None else args.delta
    spectra = []
    for k in ks:
        for eps in eps_list:
            try:
                spectra.append((k, eps, spectrum(cfg.model, cfg.gen, k, eps, delta)))
            except AmbiguousLabelling as exc:
                # reported per (k, eps) without aborting the sweep
                print(f"ambiguous labelling at k={k}, eps={eps}: {exc}", file=sys.stderr)
    out = _outdir(args)
    for k, eps, spec in spectra:
        _write_spectrum(out, cfg.model, k, eps, spec)
    _manifest(out, "spectrum", cfg, ks=ks, epsilons=eps_list, delta=delta)
    return 0


def cmd_limit(args) -> int:
    cfg = _load(args)
    ks = args.k or list(cfg.ks)
    limits = [(k, *_limit(cfg, k, args.eps)) for k in ks]
    out = _outdir(args)
    for k, basis, rows in limits:
        _write_limit(out, k, basis, rows)
    _manifest(out, "limit", cfg, ks=ks, epsilons=args.eps)
    return 0


def cmd_response(args) -> int:
    cfg = _load(args)
    check_eps_grid(cfg.gen, args.eps)
    ks = args.k or list(cfg.ks)
    resps = [response_data(cfg.model, cfg.gen, k) for k in ks]
    checks = [oc for resp in resps
              for oc in order_checks(resp, cfg.gen, _leading_labels(cfg.model), args.eps)]
    out = _outdir(args)
    for k, resp in zip(ks, resps):
        _write_response(out, k, resp)
    for oc in checks:
        writers.write_ordercheck_csv(out / f"ordercheck_k{oc.k}_ell{oc.ell + 1}.csv", oc)
    _manifest(out, "response", cfg, ks=ks, grid=args.eps)
    return 0


def cmd_oracle(args) -> int:
    cfg = _load(args)
    ks = args.k or list(cfg.ks)
    reports = [oracle_crosscheck(cfg.model, cfg.gen, k) for k in ks]
    out = _outdir(args)
    for k, report in zip(ks, reports):
        writers.write_oracle_csv(out / f"oracle_k{k}.csv", report)
        print(f"k={k}: max |lhat diff| = {report.max_abs_diff:.3e}, "
              f"max vector distance = {report.max_vec_dist:.3e}")
    _manifest(out, "oracle", cfg, ks=ks)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    eps = args.eps[0] if args.eps else cfg.epsilons[0]
    delta = cfg.delta if args.delta is None else args.delta
    op = ulam_analytic(cfg.model, cfg.gen, eps, delta, args.bins)
    report = detect_cycles(op, cfg.model, args.top_m)
    batch = (simulate(cfg.model, cfg.gen, eps, delta, args.paths, args.steps, args.seed)
             if args.paths else None)
    out = _outdir(args)
    writers.write_cycles_json(out / "cycles.json", report)
    for i, c in enumerate(report.cycles):
        print(f"cycle {i + 1}: |lam|={c.magnitude:.6f} arg={c.arg:+.6f} "
              f"period={c.period_steps:.4f} steps band={c.band + 1} "
              f"masses={[round(m, 4) for m in c.band_masses]}")
    if batch is not None:
        writers.write_trajectory_csv(out / "trajectories.csv", batch)
    _manifest(out, "simulate", cfg, eps=eps, delta=delta, bins=args.bins,
              seed=args.seed, paths=args.paths, steps=args.steps, top_m=args.top_m)
    return 0


def cmd_casestudy(args) -> int:
    cfg = _load(args)
    k = args.k[0] if args.k else cfg.ks[0]
    eps = args.eps[0] if args.eps else cfg.epsilons[0]
    delta = cfg.delta if args.delta is None else args.delta

    spec = spectrum(cfg.model, cfg.gen, k, eps, delta)
    basis, rows = _limit(cfg, k, LIMIT_GRID)
    resp = response_data(cfg.model, cfg.gen, k)
    out = _outdir(args)
    _write_spectrum(out, cfg.model, k, eps, spec)
    _write_limit(out, k, basis, rows)
    _write_response(out, k, resp)
    writers.write_grid_csv(out / f"eigenfunction_grid_k{k}.csv", k, spec.vectors,
                           _leading_labels(cfg.model), x_res=args.x_res)
    _manifest(out, "casestudy", cfg, k=k, eps=eps, delta=delta, x_res=args.x_res)
    print(f"case-study outputs written to {out}")
    return 0


#: argparse keywords of every flag; its default comes from the subcommand's row
FLAGS = {
    "--config": dict(help="model configuration JSON"),
    "--out": dict(help="output directory"),
    "--k": dict(type=_list_of(_index), help="comma-separated Fourier indices"),
    "--eps": dict(type=_list_of(_finite), help="comma-separated noise levels"),
    "--delta": dict(type=_nonnegative, help="fibre noise radius (overrides config)"),
    "--bins": dict(type=int, help="circle bins per fibre"),
    "--seed": dict(type=int, help="simulation seed"),
    "--paths": dict(type=int, help="trajectory paths to dump (0 = none)"),
    "--steps": dict(type=int, help="steps per path"),
    "--top-m": dict(type=int, help="cycles to report"),
    "--x-res": dict(type=_positive_int, help="circle samples in eigenfunction grids"),
}

#: the convergence grid of ``limit`` and ``casestudy``
LIMIT_GRID = [1e-1, 1e-2, 1e-3, 1e-4]

#: each subcommand and the flags it reads besides --config and --out, with
#: their defaults (None: unset, or the config's value)
COMMANDS = {
    "validate": (cmd_validate, {"--out": None}),
    "spectrum": (cmd_spectrum, {"--k": None, "--eps": None, "--delta": None}),
    "limit": (cmd_limit, {"--k": None, "--eps": LIMIT_GRID}),
    "response": (cmd_response, {"--k": None, "--eps": [1e-2, 1e-3, 1e-4, 1e-5]}),
    "oracle": (cmd_oracle, {"--k": None}),
    "simulate": (cmd_simulate, {"--eps": None, "--delta": None, "--bins": 128, "--seed": 0,
                                "--paths": 0, "--steps": 1000, "--top-m": 3}),
    "casestudy": (cmd_casestudy, {"--k": None, "--eps": None, "--delta": None, "--x-res": 256}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotor-spectra",
        description="Spectral analysis of noisy banded rotations on a discretised cylinder")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag, default in {"--config": None, "--out": "out", **flags}.items():
            kwargs = dict(FLAGS[flag], default=default)
            if name == "response" and flag == "--eps":
                # check_eps_grid refuses a bad grid, non-finite points included
                kwargs["type"] = _list_of(float)
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RotorSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
