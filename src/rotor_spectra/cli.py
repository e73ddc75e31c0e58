"""Command-line surface.

Subcommands: validate, spectrum, limit, response, oracle, simulate,
casestudy.  Each takes only the flags it reads (``COMMANDS``).  ``main`` owns
the run: it loads the config, fills unset ``--k``, ``--eps`` and ``--delta``
from it, and calls the subcommand, which computes its results and returns the
files to write.  Only then does ``main`` create ``--out``, write the files and
a ``manifest.json`` (command, config hash, library version, parameters), so a
run that stops on an error leaves no directory, and reruns are bit-identical
on the same platform.  Should a writer or the manifest fail, ``main``
removes the files and directories the run created, and nothing else.

Each flag that carries a run input is parsed and then judged by the
library's rule for that input (``_rule``): ``_check_index`` for each
``--k``, ``_check_eps`` for each ``--eps``, ``check_delta`` for ``--delta``
and the count rule for ``--x-res``; a refusal is a usage error.  Sizes meet
the library's size rule where they size arrays: paths, steps and bins that
numpy cannot lay out exit 1, and an ``--x-res`` grid exits 2 from its writer.

Exit codes: 0 success, 1 validation or math error (a size numpy can lay out
but memory cannot hold included: ``error: out of memory``), 2 config or usage
error, an output directory that cannot be written and a run that names one
output file twice included.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import os
import sys
from pathlib import Path

from . import __version__, writers
from .config import RunConfig, case_study_config, load_config
from .errors import AmbiguousLabelling, ConfigError, RotorSpectraError
from .model import _check_count, _check_eps, _check_index, check_delta, validate_admissibility
from .oracle import oracle_crosscheck
from .response import order_checks, response_data
from .simulate import check_counts, detect_cycles, simulate, ulam_analytic
from .spectra import spectrum
from .zero_noise import limit_basis, spectrum_convergence


def _rule(parse, rule):
    """Argument type: ``parse`` of a flag's text, judged by the library's
    ``rule`` for that input.  Text ``parse`` cannot read and a value the rule
    refuses are argparse's usage error (exit 2), with the message of the
    refusal."""
    def parse_checked(text):
        try:
            value = parse(text)
            rule(value)
        except (ValueError, RotorSpectraError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value
    return parse_checked


#: one Fourier index and one noise level, each by its library rule
_INDEX, _EPS = _rule(int, _check_index), _rule(float, _check_eps)


def _list_of(parse, one=False):
    """Argument type: a nonempty comma-separated list of ``parse`` values,
    of one value only where ``one`` is set."""
    def parse_list(text):
        values = [parse(t) for t in text.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        if one and len(values) > 1:
            raise argparse.ArgumentTypeError(f"expected one value, got {len(values)}")
        return values
    return parse_list


def _load(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    if args.command == "casestudy":
        return case_study_config()
    raise ConfigError("--config is required")


def _spectrum_files(eps: float, spec):
    tag = f"k{spec.k}_eps{eps:g}"
    return [(f"spectrum_{tag}.csv", writers.write_spectrum_csv, spec),
            (f"vectors_{tag}.csv", writers.write_vectors_csv, spec.k, spec.vectors),
            (f"circles_{tag}.csv", writers.write_circles_csv, spec)]


def _limit_files(cfg: RunConfig, k: int, eps_list):
    """The limit basis at ``k`` and its convergence over ``eps_list``, as files."""
    basis = limit_basis(cfg.model, cfg.gen, k)
    rows = spectrum_convergence(basis, eps_list)
    return [(f"limit_basis_k{k}.csv", writers.write_limit_csv, basis),
            (f"convergence_k{k}.csv", writers.write_convergence_csv, rows)]


def _response_files(resp):
    k = resp.basis.k
    return [(f"response_k{k}.csv", writers.write_response_csv, resp),
            (f"fhat_k{k}.csv", writers.write_vectors_csv, k, resp.f_hat)]


# Each cmd_* computes its results, prints its report and returns (exit code,
# files, manifest parameters); a file is (name, writer, *arguments).  main
# writes the files only after the command returns.

def cmd_validate(cfg: RunConfig, args):
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
    files = [("admissibility.json", writers.write_admissibility_json, report)]
    return (0 if report.passed else 1), files, {}


def cmd_spectrum(cfg: RunConfig, args):
    files = []
    for k in args.k:
        for eps in args.eps:
            try:
                spec = spectrum(cfg.model, cfg.gen, k, eps, args.delta)
            except AmbiguousLabelling as exc:
                # reported per (k, eps) without aborting the sweep
                print(f"ambiguous labelling at k={k}, eps={eps}: {exc}", file=sys.stderr)
                continue
            files += _spectrum_files(eps, spec)
    return 0, files, dict(ks=args.k, epsilons=args.eps, delta=args.delta)


def cmd_limit(cfg: RunConfig, args):
    files = [f for k in args.k for f in _limit_files(cfg, k, args.eps)]
    return 0, files, dict(ks=args.k, epsilons=args.eps)


def cmd_response(cfg: RunConfig, args):
    resps = [response_data(cfg.model, cfg.gen, k) for k in args.k]
    # each band's first label, its largest-rho member, is checked
    checks = [oc for resp in resps
              for oc in order_checks(resp, cfg.model.cum[:-1], args.eps)]
    files = [f for resp in resps for f in _response_files(resp)]
    files += [(f"ordercheck_k{oc.k}_ell{oc.ell + 1}.csv", writers.write_ordercheck_csv, oc)
              for oc in checks]
    return 0, files, dict(ks=args.k, grid=args.eps)


def cmd_oracle(cfg: RunConfig, args):
    reports = [oracle_crosscheck(cfg.model, cfg.gen, k) for k in args.k]
    for k, report in zip(args.k, reports):
        print(f"k={k}: max |lhat diff| = {report.max_abs_diff:.3e}, "
              f"max vector distance = {report.max_vec_dist:.3e}")
    files = [(f"oracle_k{k}.csv", writers.write_oracle_csv, report)
             for k, report in zip(args.k, reports)]
    return 0, files, dict(ks=args.k)


def cmd_simulate(cfg: RunConfig, args):
    check_counts(args.seed, args.paths, args.steps)     # the manifest records them, paths or not
    eps = args.eps[0]
    op = ulam_analytic(cfg.model, cfg.gen, eps, args.delta, args.bins)
    report = detect_cycles(op, cfg.model, args.top_m)
    files = [("cycles.json", writers.write_cycles_json, report)]
    if args.paths:
        batch = simulate(cfg.model, cfg.gen, eps, args.delta, args.paths, args.steps, args.seed)
        files.append(("trajectories.csv", writers.write_trajectory_csv, batch))
    for i, c in enumerate(report.cycles):
        print(f"cycle {i + 1}: |lam|={c.magnitude:.6g} arg={c.arg:+.6f} "
              f"period={c.period_steps:.4f} steps band={c.band + 1} "
              f"masses={[round(m, 4) for m in c.band_masses]}")
    return 0, files, dict(eps=eps, delta=args.delta, bins=args.bins, seed=args.seed,
                          paths=args.paths, steps=args.steps, top_m=args.top_m)


def cmd_casestudy(cfg: RunConfig, args):
    k, eps = args.k[0], args.eps[0]
    spec = spectrum(cfg.model, cfg.gen, k, eps, args.delta)
    files = _spectrum_files(eps, spec) + _limit_files(cfg, k, LIMIT_GRID)
    files += _response_files(response_data(cfg.model, cfg.gen, k))
    files.append((f"eigenfunction_grid_k{k}.csv", writers.write_grid_csv, spec,
                  cfg.model.cum[:-1], args.x_res))
    return 0, files, dict(k=k, eps=eps, delta=args.delta, x_res=args.x_res)


#: argparse keywords of every flag; its default comes from the subcommand's row
FLAGS = {
    "--config": dict(help="model configuration JSON"),
    "--out": dict(help="output directory"),
    "--k": dict(type=_list_of(_INDEX), help="comma-separated Fourier indices"),
    "--eps": dict(type=_list_of(_EPS), help="comma-separated noise levels"),
    "--delta": dict(type=_rule(float, check_delta), help="fibre noise radius (overrides config)"),
    "--bins": dict(type=int, help="circle bins per fibre"),
    "--seed": dict(type=int, help="simulation seed"),
    "--paths": dict(type=int, help="trajectory paths to dump (0 = none)"),
    "--steps": dict(type=int, help="steps per path"),
    "--top-m": dict(type=int, help="cycles to report"),
    "--x-res": dict(type=_rule(int, lambda x: _check_count(x, 1, "x_res", ConfigError)),
                    help="circle samples in eigenfunction grids"),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built by the first call and then shared:
    parsing leaves it unchanged, and no run mutates a default it hands out."""
    parser = argparse.ArgumentParser(
        prog="rotor-spectra",
        description="Spectral analysis of noisy banded rotations on a discretised cylinder")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag, default in {"--config": None, "--out": "out", **flags}.items():
            kwargs = dict(FLAGS[flag], default=default)
            if name in ("simulate", "casestudy") and flag in ("--k", "--eps"):
                # a run at one (k, eps): a config's lists give their first values
                kwargs.update(type=_list_of(_INDEX if flag == "--k" else _EPS, one=True),
                              help="one Fourier index" if flag == "--k" else "one noise level")
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        # an unset config-backed flag takes the config's value
        for name, value in {"k": list(cfg.ks), "eps": list(cfg.epsilons),
                            "delta": cfg.delta}.items():
            if getattr(args, name, value) is None:
                setattr(args, name, value)
        code, files, params = args.fn(cfg, args)
        names = [name for name, *_ in files]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"output files named twice: {repeated}")
        if args.out is None:
            return code
        out = Path(args.out)
        manifest = {"command": args.command,
                    "config_sha256": hashlib.sha256(cfg.raw.encode()).hexdigest(),
                    "version": __version__, "parameters": dict(sorted(params.items()))}
        # what this run creates, deepest first: its files, then its directories
        new = [out / name for name in [*names, "manifest.json"] if not os.path.lexists(out / name)]
        new += [d for d in (out, *out.parents) if not os.path.lexists(d)]
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, write, *data in files:
                write(out / name, *data)
            writers._write_json(out / "manifest.json", manifest)
        except BaseException as exc:
            for path in new:                 # a failed write phase leaves what was there
                with contextlib.suppress(OSError):
                    path.rmdir() if path.is_dir() else path.unlink()
            if isinstance(exc, OSError):
                raise ConfigError(f"cannot write output directory {out}: {exc}") from exc
            raise
        if args.command == "casestudy":
            print(f"case-study outputs written to {out}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RotorSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
