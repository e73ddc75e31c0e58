"""Command-line surface.

Subcommands: validate, spectrum, limit, response, oracle, simulate,
casestudy.  Every run writes into one output directory together with a
manifest recording the command, the config hash, the seed and the library
version, so reruns are bit-identical on the same platform.

Exit codes: 0 success, 1 validation or math error, 2 config error.
``ROTOR_SPECTRA_THREADS`` caps the per-(k, eps) worker threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


from . import __version__, writers
from .config import CASE_STUDY_JSON, RunConfig, load_config, parse_config
from .errors import AmbiguousLabelling, ConfigError, RotorSpectraError
from .model import validate_admissibility
from .oracle import oracle_crosscheck
from .response import check_eps_grid, order_check, response_data
from .simulate import detect_cycles, simulate, ulam_analytic
from .spectra import spectrum
from .zero_noise import limit_basis, spectrum_convergence


def _thread_cap() -> int:
    env = os.environ.get("ROTOR_SPECTRA_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"ROTOR_SPECTRA_THREADS must be an integer: {env!r}") from exc
    return min(8, os.cpu_count() or 1)


def _float_list(text):
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_list(text):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
    if getattr(args, "config", None):
        return load_config(args.config)
    if args.command == "casestudy":
        return parse_config(CASE_STUDY_JSON)
    raise ConfigError("--config is required")


def _eps_tag(eps: float) -> str:
    return f"{eps:g}"


def cmd_validate(args) -> int:
    cfg = _load(args)
    report = validate_admissibility(cfg.gen, cfg.model, gap_tol=args.tol or 1e-9)
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
    out = _outdir(args)
    ks = args.k or list(cfg.ks)
    eps_list = args.eps or list(cfg.epsilons)
    delta = cfg.delta if args.delta is None else args.delta
    tol = args.tol or 1e-11

    def run(pair):
        k, eps = pair
        try:
            return k, eps, spectrum(cfg.model, cfg.gen, k, eps, delta, tol), None
        except AmbiguousLabelling as exc:
            # reported per (k, eps) without aborting the sweep
            return k, eps, None, str(exc)

    with ThreadPoolExecutor(max_workers=_thread_cap()) as pool:
        results = list(pool.map(run, [(k, e) for k in ks for e in eps_list]))
    for k, eps, spec, failure in results:
        if failure is not None:
            print(f"ambiguous labelling at k={k}, eps={eps}: {failure}", file=sys.stderr)
            continue
        tag = f"k{k}_eps{_eps_tag(eps)}"
        writers.write_spectrum_csv(out / f"spectrum_{tag}.csv", spec)
        writers.write_vectors_csv(out / f"vectors_{tag}.csv", k, spec.vectors)
        writers.write_circles_csv(out / f"circles_{tag}.csv", cfg.model, k,
                             spec.sinc, spec.gersh_radius)
    _manifest(out, "spectrum", cfg, ks=ks, epsilons=eps_list, delta=delta, tol=tol)
    return 0


def cmd_limit(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    ks = args.k or list(cfg.ks)
    eps_list = args.eps or [1e-1, 1e-2, 1e-3, 1e-4]
    for k in ks:
        basis = limit_basis(cfg.model, cfg.gen, k)
        writers.write_limit_csv(out / f"limit_basis_k{k}.csv", basis)
        rows = spectrum_convergence(cfg.model, cfg.gen, k, eps_list, basis)
        writers.write_convergence_csv(out / f"convergence_k{k}.csv", rows)
    _manifest(out, "limit", cfg, ks=ks, epsilons=eps_list)
    return 0


def cmd_response(args) -> int:
    cfg = _load(args)
    grid = args.eps or [1e-2, 1e-3, 1e-4, 1e-5]
    check_eps_grid(cfg.gen, grid)
    out = _outdir(args)
    ks = args.k or list(cfg.ks)
    for k in ks:
        resp = response_data(cfg.model, cfg.gen, k)
        writers.write_response_csv(out / f"response_k{k}.csv", resp)
        writers.write_vectors_csv(out / f"fhat_k{k}.csv", k, resp.f_hat)
        for ell in _leading_labels(cfg.model):
            oc = order_check(cfg.model, cfg.gen, k, ell, grid, resp)
            writers.write_ordercheck_csv(out / f"ordercheck_k{k}_ell{ell + 1}.csv", oc)
    _manifest(out, "response", cfg, ks=ks, grid=grid)
    return 0


def cmd_oracle(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    ks = args.k or list(cfg.ks)
    tol = args.tol or 1e-10
    for k in ks:
        report = oracle_crosscheck(cfg.model, cfg.gen, k, tol)
        writers.write_oracle_csv(out / f"oracle_k{k}.csv", report)
        print(f"k={k}: max |lhat diff| = {report.max_abs_diff:.3e}, "
              f"max vector distance = {report.max_vec_dist:.3e}")
    _manifest(out, "oracle", cfg, ks=ks, tol=tol)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    eps = args.eps[0] if args.eps else (cfg.epsilons[0] if cfg.epsilons else 0.1)
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


def _leading_labels(model):
    """First label of each band (0-based): the largest-|lam| member."""
    return [model.cum[s] for s in range(model.S)]


def cmd_casestudy(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    k = args.k[0] if args.k else cfg.ks[0]
    eps = args.eps[0] if args.eps else cfg.epsilons[0]
    delta = cfg.delta if args.delta is None else args.delta
    leading = _leading_labels(cfg.model)

    spec = spectrum(cfg.model, cfg.gen, k, eps, delta)
    writers.write_spectrum_csv(out / f"spectrum_k{k}_eps{_eps_tag(eps)}.csv", spec)
    writers.write_vectors_csv(out / f"vectors_k{k}_eps{_eps_tag(eps)}.csv", k, spec.vectors)
    writers.write_circles_csv(out / f"circles_k{k}_eps{_eps_tag(eps)}.csv", cfg.model, k,
                         spec.sinc, spec.gersh_radius)

    basis = limit_basis(cfg.model, cfg.gen, k)
    writers.write_limit_csv(out / f"limit_basis_k{k}.csv", basis)

    resp = response_data(cfg.model, cfg.gen, k)
    writers.write_response_csv(out / f"response_k{k}.csv", resp)
    writers.write_vectors_csv(out / f"fhat_k{k}.csv", k, resp.f_hat)

    rows = spectrum_convergence(cfg.model, cfg.gen, k, [1e-1, 1e-2, 1e-3, 1e-4], basis)
    writers.write_convergence_csv(out / f"convergence_k{k}.csv", rows)

    writers.write_grid_csv(out / f"eigenfunction_grid_k{k}.csv", k, spec.vectors,
                      leading, x_res=args.x_res)
    _manifest(out, "casestudy", cfg, k=k, eps=eps, delta=delta, x_res=args.x_res)
    print(f"case-study outputs written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotor-spectra",
        description="Spectral analysis of noisy banded rotations on a discretised cylinder")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": cmd_validate,
        "spectrum": cmd_spectrum,
        "limit": cmd_limit,
        "response": cmd_response,
        "oracle": cmd_oracle,
        "simulate": cmd_simulate,
        "casestudy": cmd_casestudy,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="model configuration JSON")
        p.add_argument("--out", default=None if name == "validate" else "out",
                       help="output directory")
        p.add_argument("--k", type=_int_list, default=None,
                       help="comma-separated Fourier indices")
        p.add_argument("--eps", type=_float_list, default=None,
                       help="comma-separated noise levels")
        p.add_argument("--delta", type=float, default=None,
                       help="fibre noise radius (overrides config)")
        p.add_argument("--bins", type=int, default=128, help="circle bins per fibre")
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--x-res", dest="x_res", type=int, default=256,
                       help="circle samples in eigenfunction grids")
        if name == "simulate":
            p.add_argument("--paths", type=int, default=0,
                           help="trajectory paths to dump (0 = none)")
            p.add_argument("--steps", type=int, default=1000, help="steps per path")
            p.add_argument("--top-m", dest="top_m", type=int, default=3,
                           help="cycles to report")
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
