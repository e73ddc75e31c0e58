import copy
import csv
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotor_spectra as rs
from rotor_spectra import cli, response, spectra, writers, zero_noise
from rotor_spectra.cli import main
from rotor_spectra.config import CASE_STUDY_JSON
from rotor_spectra.errors import AmbiguousLabelling

#: an integer literal beyond the float range
BIG = "1" * 400
#: the eps rule's refusal of -1
NEGATIVE_EPS = "eps must be finite and nonnegative, got -1.0"


@pytest.fixture()
def case_cfg(tmp_path):
    p = tmp_path / "case.json"
    p.write_text(CASE_STUDY_JSON, encoding="utf-8")
    return p


#: an order-check grid whose first point no leading label's row disk certifies at N=99
SCALED_FALLBACK_GRID = "0.1,0.01,0.001,0.0001"


def scaled_cfg(tmp_path):
    """The case-study speeds at N=99 (L = 33, 21, 45)."""
    p = tmp_path / "scaled.json"
    p.write_text(CASE_STUDY_JSON.replace("[11, 7, 15]", "[33, 21, 45]"), encoding="utf-8")
    return p


def run_cli(*argv, timeout=None):
    """The CLI in a fresh process, importing the package under test."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=timeout)


def read_strict_json(path):
    """A JSON file, refusing the non-standard constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


#: generators whose entries near the float maximum overflow a row sum or an eigenvalue
OVERFLOWING = {
    "one-band": '{"beta": [0.1], "L": [2], "generator": [[1e308, 1e308], [1e308, 1e308]]}',
    "two-bands": '{"beta": [0.1, 0.2], "L": [1, 1],'
                 ' "generator": [[-1e308, 1e308], [1e308, -1e308]]}',
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestValidate:
    def test_case_study_exit0(self, case_cfg, capsys):
        assert main(["validate", "--config", str(case_cfg)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_negative_offdiagonal_exit1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"beta": [0.1, 0.2], "L": [1, 1],'
                     ' "generator": [[0.5, -0.5], [-0.5, 0.5]]}', encoding="utf-8")
        assert main(["validate", "--config", str(p)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_asymmetric_exit1(self, tmp_path):
        p = tmp_path / "asym.json"
        p.write_text('{"beta": [0.1, 0.2], "L": [1, 1],'
                     ' "generator": [[-0.5, 0.5], [0.2, -0.2]]}', encoding="utf-8")
        assert main(["validate", "--config", str(p)]) == 1

    def test_bad_config_exit2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope", encoding="utf-8")
        assert main(["validate", "--config", str(p)]) == 2

    def test_missing_config_exit2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "ghost.json")]) == 2

    def test_undecodable_config_exit2(self, tmp_path, capsys):
        # a UTF-16 byte-order mark is not UTF-8
        p = tmp_path / "utf16.json"
        p.write_bytes(b'\xff\xfe{"beta": [0.1], "L": [1]}')
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {p}")

    def test_report_file(self, case_cfg, tmp_path):
        out = tmp_path / "rep"
        assert main(["validate", "--config", str(case_cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "admissibility.json").read_text())
        assert doc["passed"] is True

    def test_one_fibre_report_is_strict_json(self, tmp_path):
        # one fibre has no eigenvalue gap: null, not the non-standard Infinity
        p = tmp_path / "one.json"
        p.write_text('{"beta": [0.1], "L": [1], "generator": [[0.0]]}', encoding="utf-8")
        out = tmp_path / "rep"
        assert main(["validate", "--config", str(p), "--out", str(out)]) == 0
        doc = read_strict_json(out / "admissibility.json")
        assert doc["min_eigen_gap_full"] is None and doc["min_eigen_gap_blocks"] is None
        assert doc["eps_max"] is None

    @pytest.mark.parametrize("config", OVERFLOWING.values(), ids=OVERFLOWING.keys())
    def test_overflowing_generator_is_not_simple(self, tmp_path, config):
        # Wdot's computed spectrum holds inf, which is not simple; the report
        # stays strict JSON, and numpy's overflow warnings stay off stderr
        p = tmp_path / "huge.json"
        p.write_text(config, encoding="utf-8")
        out = tmp_path / "rep"
        done = run_cli("-m", "rotor_spectra.cli", "validate", "--config", str(p),
                       "--out", str(out))
        assert done.returncode == 1
        assert "distinct-spectrum: FAIL" in done.stdout.splitlines()
        assert done.stderr == ""
        doc = read_strict_json(out / "admissibility.json")
        assert doc["item_distinct_full"] is False and doc["passed"] is False


class TestSpectrum:
    def test_case_study_files(self, case_cfg, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(case_cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "spectrum_k1_eps0.1.csv")
        assert header == ["k", "ell", "band", "re", "im", "abs", "arg", "target_re",
                          "target_im", "dist_to_target", "gersh_radius", "residual"]
        assert len(rows) == 33
        assert (out / "vectors_k1_eps0.1.csv").exists()
        assert (out / "circles_k1_eps0.1.csv").exists()
        assert (out / "manifest.json").exists()

    def test_k0_real(self, case_cfg, tmp_path):
        out = tmp_path / "k0"
        assert main(["spectrum", "--config", str(case_cfg), "--out", str(out),
                     "--k", "0", "--eps", "0.2", "--delta", "0"]) == 0
        _, rows = read_csv(out / "spectrum_k0_eps0.2.csv")
        assert max(abs(float(r[4])) for r in rows) <= 1e-12

    def test_eps0_zero_distance(self, case_cfg, tmp_path):
        out = tmp_path / "e0"
        assert main(["spectrum", "--config", str(case_cfg), "--out", str(out),
                     "--k", "1", "--eps", "0", "--delta", "0"]) == 0
        _, rows = read_csv(out / "spectrum_k1_eps0.csv")
        assert max(float(r[9]) for r in rows) <= 1e-13

    def test_k_eps_sweep(self, case_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert main(["spectrum", "--config", str(case_cfg), "--out", str(out),
                     "--k", "1,2", "--eps", "0.1,0.01"]) == 0
        assert len(list(out.glob("spectrum_*.csv"))) == 4

    def test_overflowing_diagonal_keeps_a_finite_gershgorin_radius(self, tmp_path):
        # eps scales max|Wdot_jj| = 1e308 before the factor 2 can overflow it
        p = tmp_path / "huge.json"
        p.write_text(OVERFLOWING["two-bands"], encoding="utf-8")
        out = tmp_path / "spec"
        done = run_cli("-m", "rotor_spectra.cli", "spectrum", "--config", str(p),
                       "--out", str(out), "--k", "1", "--eps", "1e-309")
        assert done.returncode == 0 and done.stderr == ""
        _, rows = read_csv(out / "spectrum_k1_eps1e-309.csv")
        assert all(abs(float(r[10]) - 0.2) < 1e-12 for r in rows)   # eps is subnormal
        _, rows = read_csv(out / "circles_k1_eps1e-309.csv")
        assert np.isfinite([[float(c) for c in r[2:]] for r in rows]).all()

    def test_overflowing_delta_zeroes_the_spectrum(self, case_cfg, tmp_path):
        # 2*k*delta overflows to inf; delta = 1e308 is an integer, so the
        # delta factor sin(2 pi k delta) / (2 pi k delta) is exactly 0
        out = tmp_path / "spec"
        done = run_cli("-W", "error", "-m", "rotor_spectra.cli", "spectrum", "--config",
                       str(case_cfg), "--out", str(out), "--k", "1", "--eps", "0.1",
                       "--delta", "1e308")
        assert done.returncode == 0 and done.stderr == ""
        for written in out.iterdir():
            assert not NON_FINITE.search(written.read_text(encoding="utf-8")), written.name
        _, rows = read_csv(out / "spectrum_k1_eps0.1.csv")
        assert [float(r[5]) for r in rows] == [0.0] * 33

    def test_ambiguous_pairs_reported_in_input_order(self, case_cfg, tmp_path, capsys,
                                                     monkeypatch):
        real = cli.spectrum

        def ambiguous_at_001(model, gen, k, eps, *args):
            if eps == 0.01:
                raise AmbiguousLabelling(f"disks overlap at k={k}")
            return real(model, gen, k, eps, *args)

        monkeypatch.setattr(cli, "spectrum", ambiguous_at_001)
        out = tmp_path / "sweep"
        assert main(["spectrum", "--config", str(case_cfg), "--out", str(out),
                     "--k", "2,1", "--eps", "0.01,0.1"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "ambiguous labelling at k=2, eps=0.01: disks overlap at k=2",
            "ambiguous labelling at k=1, eps=0.01: disks overlap at k=1"]
        assert sorted(p.name for p in out.glob("spectrum_*.csv")) == [
            "spectrum_k1_eps0.1.csv", "spectrum_k2_eps0.1.csv"]

    @pytest.mark.parametrize("config, extra", [
        ('{"beta": [0.1, 0.3], "L": [1, 1], "delta": NaN}', []),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "delta": Infinity}', []),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "delta": 1e999}', []),
        ('{"beta": [NaN, 0.3], "L": [1, 1]}', []),
        ('{"beta": [0.1, 0.3], "L": [1, 1],'
         ' "generator": [[-0.5, 0.5], [0.5, NaN]]}', []),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--eps", "nan"]),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--eps", "0.1,inf"]),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--delta", "inf"]),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--delta=-0.1"]),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "ks": []}', []),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "epsilons": []}', []),
        (f'{{"beta": [{BIG}, 0.3], "L": [1, 1]}}', []),
        (f'{{"beta": [0.1, 0.3], "L": [1, 1], "delta": {BIG}}}', []),
        (f'{{"beta": [0.1, 0.3], "L": [1, 1], "epsilons": [{BIG}]}}', []),
        (f'{{"beta": [0.1, 0.3], "L": [1, 1], "ks": [{BIG}]}}', []),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--k", f"1,{BIG}"]),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "ks": [4294967297]}', []),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--k", "1" + "0" * 300]),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--k", "9007199254740993"]),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--k=-4294967297"]),
        ('{"beta": [0.1, 0.2], "L": [1]}', []),
        ('{"beta": [0.1, 0.2], "L": [1.5, 2]}', []),
        ('{"beta": [0.1, 0.2], "L": [true, "2"]}', []),
        ('{"beta": [0.1], "L": [1]}', []),
        ('{"beta": [], "L": []}', []),
    ], ids=["delta-nan", "delta-infinity", "delta-overflow", "beta-nan", "generator-nan",
            "eps-nan", "eps-inf", "delta-inf", "delta-negative", "ks-empty", "eps-empty",
            "beta-int-overflow", "delta-int-overflow", "eps-int-overflow", "ks-int-overflow",
            "k-flag-int-overflow", "ks-beyond-2**32", "k-flag-301-digits", "k-flag-2**53+1",
            "k-flag-below-minus-2**32", "beta-L-length", "L-float", "L-bool-string",
            "one-fibre-laplacian", "no-band"])
    def test_non_finite_input_exit2(self, tmp_path, capsys, config, extra):
        p = tmp_path / "model.json"
        p.write_text(config, encoding="utf-8")
        out = tmp_path / "spec"
        try:
            code = main(["spectrum", "--config", str(p), "--out", str(out), *extra])
        except SystemExit as exc:       # usage error from argparse
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") or "error: argument" in err
        assert not list(out.glob("spectrum_*.csv"))

    def test_casestudy_empty_ks_exit2(self, tmp_path, capsys):
        p = tmp_path / "model.json"
        p.write_text(CASE_STUDY_JSON.replace('"ks": [1]', '"ks": []'), encoding="utf-8")
        assert main(["casestudy", "--config", str(p), "--out", str(tmp_path / "case")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "case").exists()

    @pytest.mark.parametrize("command", ["validate", "spectrum", "simulate"])
    def test_null_generator_entry_is_a_config_error(self, tmp_path, capsys, command):
        # JSON null reached the library as NaN: validate wrote row_sum_defect=nan
        # and exited 1, and spectrum exited 1
        p = tmp_path / "model.json"
        p.write_text('{"beta": [0.1, 0.3], "L": [1, 1],'
                     ' "generator": [[-0.5, null], [0.5, -0.5]]}', encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid generator matrix: generator has non-finite entries\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    def test_string_generator_entries_are_a_config_error(self, tmp_path, capsys, command):
        # numpy parsed numeric strings: this config ran as the two-fibre Laplacian
        p = tmp_path / "model.json"
        p.write_text('{"beta": [0.1, 0.3], "L": [1, 1],'
                     ' "generator": [["-0.5", "0.5"], ["0.5", "-0.5"]]}', encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid generator matrix: generator has string entries\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    def test_width_too_large_to_lay_out_is_a_config_error(self, tmp_path, capsys, command):
        # a 301-digit width passed the config's integer rule and ended in an
        # OverflowError traceback from the fibre layout's np.repeat
        p = tmp_path / "model.json"
        p.write_text(f'{{"beta": [0.1, 0.3], "L": [1, 1{"0" * 300}]}}', encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid model: band widths too large for numpy to lay out\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, extra, message", [
        ('{"beta": [true], "L": [1]}', [],
         "config error: invalid model: band speeds must be real numbers, got [True]"),
        ('[{"beta": [0.1], "L": [1]}]', [], "config error: top-level config must be an object"),
        ('{"beta": 0.1, "L": [1]}', [], "config error: 'beta' and 'L' must be arrays"),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "generator": [[0, 0], [0]]}', [],
         "config error: invalid generator matrix"),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "generator": [[0, "a"], ["a", 0]]}', [],
         "config error: invalid generator matrix"),
        ('{"beta": [0.1, 0.3], "L": [1, 1], "generator": "gauss"}', [],
         "config error: generator must be 'laplacian' or an explicit matrix"),
        (None, [], "config error: --config is required"),
        ('{"beta": [0.1, 0.3], "L": [1, 1]}', ["--k", ","],
         "argument --k: expected at least one value"),
    ], ids=["beta-bool", "top-level-array", "beta-not-array", "generator-ragged",
            "generator-non-numeric", "generator-unknown-name", "no-config", "k-flag-empty"])
    def test_config_error_exit2(self, tmp_path, capsys, config, extra, message):
        out = tmp_path / "spec"
        if config is not None:
            p = tmp_path / "model.json"
            p.write_text(config, encoding="utf-8")
            extra = ["--config", str(p), *extra]
        try:
            code = main(["spectrum", "--out", str(out), *extra])
        except SystemExit as exc:       # usage error from argparse
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["limit", "--bins", "8"],
        ["validate", "--x-res", "8"],
        ["oracle", "--delta", "0"],
        ["simulate", "--tol", "1"],
        ["validate", "--tol", "1e-9"],
        ["spectrum", "--tol", "1e-11"],
        ["oracle", "--tol", "1e-10"],
    ])
    def test_subcommands_refuse_flags_they_do_not_read(self, case_cfg, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(case_cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command", ["spectrum", "simulate", "casestudy"])
    def test_delta_must_be_nonnegative(self, case_cfg, tmp_path, capsys, command):
        # like a config file's delta, the flag refuses a negative radius
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(case_cfg), "--out", str(tmp_path / "o"),
                  "--delta=-0.1"])
        assert exc.value.code == 2
        assert ("argument --delta: delta must be finite and >= 0, got -0.1"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("x_res", ["0", "-3", "2.5"])
    def test_x_res_must_be_a_positive_integer(self, tmp_path, capsys, x_res):
        with pytest.raises(SystemExit) as exc:
            main(["casestudy", "--out", str(tmp_path / "case"), "--x-res", x_res])
        assert exc.value.code == 2
        assert "argument --x-res" in capsys.readouterr().err
        assert not (tmp_path / "case").exists()

    @pytest.mark.parametrize("argv, message", [
        *[([command, "--eps=-1"], f"argument --eps: {NEGATIVE_EPS}")
          for command in ("spectrum", "limit", "simulate", "casestudy")],
        (["spectrum", "--eps", "0.1,nan"],
         "argument --eps: eps must be finite and nonnegative, got nan"),
        (["response", "--eps", "0.01,0.001,nan,0.0001"],
         "argument --eps: eps must be finite and nonnegative, got nan"),
        (["response", "--eps", "0.01,0.001,-1,0.0001"], f"argument --eps: {NEGATIVE_EPS}"),
        (["spectrum", "--k", "1,4294967297"],
         "argument --k: a Fourier index must be an integer within +-2**32"),
        (["spectrum", "--delta", "nan"],
         "argument --delta: delta must be finite and >= 0, got nan"),
        (["casestudy", "--x-res", "0"],
         "argument --x-res: x_res must be >= 1 and an integer, got x_res=0"),
    ], ids=["spectrum-negative-eps", "limit-negative-eps", "simulate-negative-eps",
            "casestudy-negative-eps", "spectrum-nan-eps", "response-nan-eps",
            "response-negative-eps", "spectrum-k-beyond-2**32", "spectrum-nan-delta",
            "casestudy-x-res-zero"])
    def test_flags_apply_the_library_rules(self, case_cfg, tmp_path, capsys, argv, message):
        # a flag's value is judged by the library's rule for its input, with
        # the library's message, as a usage error before the run starts
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(case_cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["casestudy", "--k", "1,2"], "expected one value, got 2"),
        (["casestudy", "--eps", "0.1,0.05"], "expected one value, got 2"),
        (["casestudy", "--k", "1,4294967297"],     # each index is judged before the count
         "argument --k: a Fourier index must be an integer within +-2**32"),
        (["simulate", "--eps", "0.1,0.05"], "expected one value, got 2")],
        ids=["argv0", "argv1", "argv2", "argv3"])
    def test_one_value_flags_refuse_a_list(self, case_cfg, tmp_path, capsys, argv, message):
        # simulate and casestudy run at one (k, eps): a longer flag list used
        # to be cut to its first value without a word
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(case_cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_lists_give_their_first_value(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(CASE_STUDY_JSON.replace('"ks": [1]', '"ks": [2, 1]')
                     .replace('"epsilons": [0.1]', '"epsilons": [0.05, 0.1]'), encoding="utf-8")
        out = tmp_path / "case"
        assert main(["casestudy", "--config", str(p), "--out", str(out), "--x-res", "4"]) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert (params["k"], params["eps"]) == (2, 0.05)


class TestOtherCommands:
    def test_limit_files(self, case_cfg, tmp_path):
        out = tmp_path / "lim"
        assert main(["limit", "--config", str(case_cfg), "--out", str(out),
                     "--eps", "0.1,0.01"]) == 0
        header, rows = read_csv(out / "limit_basis_k1.csv")
        assert header[:3] == ["k", "ell", "band"]
        assert len(rows) == 33 * 33
        _, conv = read_csv(out / "convergence_k1.csv")
        assert len(conv) == 2 * 33

    def test_limit_at_coinciding_exact_phases_exit1(self, case_cfg, tmp_path, capsys):
        # the exact phases of bands 0 and 1 lie 7.96e-10 apart at this k, below
        # GAP_TOL; rounding k * beta once hid it, and the run wrote its files
        out = tmp_path / "lim"
        assert main(["limit", "--config", str(case_cfg), "--out", str(out),
                     "--k", "2615867562"]) == 1
        assert capsys.readouterr().err == "error: band phases coincide at k=2615867562\n"
        assert not out.exists()

    def test_response_s1_zero_second_order(self, tmp_path):
        p = tmp_path / "s1.json"
        p.write_text('{"beta": [0.3], "L": [4], "ks": [2]}', encoding="utf-8")
        out = tmp_path / "resp"
        assert main(["response", "--config", str(p), "--out", str(out)]) == 0
        _, rows = read_csv(out / "response_k2.csv")
        assert all(float(r[5]) == 0 and float(r[6]) == 0 for r in rows)

    def test_response_double_eigenvalue_exit1(self, tmp_path):
        # a zero generator leaves eigenvalue 1 double at k = 0: the
        # simple-spectrum rule refuses its Wdot, without a traceback
        p = tmp_path / "zero.json"
        p.write_text('{"beta": [0.1, 0.3], "L": [1, 1], "generator": [[0, 0], [0, 0]]}',
                     encoding="utf-8")
        out = tmp_path / "resp"
        done = run_cli("-m", "rotor_spectra.cli", "response", "--config", str(p),
                       "--out", str(out), "--k", "0")
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "not simple" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("config, k", [
        ('{"beta": [0.1], "L": [4]', "1"),
        ('{"beta": [0.1, 0.3], "L": [2, 2]', "0"),
    ], ids=["one-band", "k0"])
    def test_response_degenerate_wdot_exit1(self, tmp_path, capsys, config, k):
        # every off-diagonal rate 1/4: Wdot has a triple eigenvalue, so where
        # the expansion terminates the limit vectors are not unique
        p = tmp_path / "flat.json"
        p.write_text(config + ', "generator": [[-0.75, 0.25, 0.25, 0.25], '
                     '[0.25, -0.75, 0.25, 0.25], [0.25, 0.25, -0.75, 0.25], '
                     '[0.25, 0.25, 0.25, -0.75]]}', encoding="utf-8")
        out = tmp_path / "resp"
        assert main(["response", "--config", str(p), "--out", str(out), "--k", k]) == 1
        assert "not simple" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        '{"beta": [0.1, 0.3], "L": [3, 1], "generator": [[-0.50001, 1e-05, 0.0, 0.5], '
        '[1e-05, -0.6232231521836646, 1e-05, 0.6232031521836646], [0.0, 1e-05, -0.50001, 0.5], '
        '[0.5, 0.6232031521836646, 0.5, -1.6232031521836645]]}',
        '{"beta": [0.1], "L": [5], "generator": [[-3.182835051817087, 2.882835051817087, 0.0, '
        '0.0, 0.3], [2.882835051817087, -3.882835051817087, 1.0, 0.0, 0.0], [0.0, 1.0, -2.0, '
        '1.0, 0.0], [0.0, 0.0, 1.0, -3.882835051817087, 2.882835051817087], [0.3, 0.0, 0.0, '
        '2.882835051817087, -3.182835051817087]]}',
    ], ids=["two-bands", "one-band"])
    def test_distinctness_verdicts_agree_at_the_cut(self, tmp_path, capsys, config):
        # smallest band-block (two bands) or Wdot (one band) gap within rounding
        # of GAP_TOL times the radius: validate, limit and response judge one
        # solve, so all three pass, or validate fails and both others raise
        # DegenerateBlock and write nothing
        p = tmp_path / "cut.json"
        p.write_text(config, encoding="utf-8")
        codes = []
        for argv in (["validate"], ["limit", "--k", "1"], ["response", "--k", "1"]):
            out = tmp_path / argv[0]
            codes.append(main([*argv, "--config", str(p), "--out", str(out)]))
            err = capsys.readouterr().err
            if argv[0] != "validate" and codes[-1]:
                assert "is not above GAP_TOL times the spectral radius" in err
                assert not out.exists()
        assert codes in ([0, 0, 0], [1, 1, 1])

    @pytest.mark.parametrize("argv", [
        ["limit", "--k", "1,0"],
        ["limit", "--k", "1", "--eps", "0,0.1"],
        ["casestudy", "--k", "0"],
    ], ids=["limit-k0-after-k1", "limit-eps0", "casestudy-k0"])
    def test_failed_run_leaves_no_directory(self, case_cfg, tmp_path, capsys, argv):
        # each fails after some of its results are computed
        out = tmp_path / "o"
        assert main([*argv, "--config", str(case_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("eps, message", [
        ("0.01,0.001,0.0001", "at least 4 distinct points"),
        ("5,0.01,0.001,0.0001", "exceeds eps_max"),
        ("0.01,0.001,0.0001,0", "finite and positive"),
    ])
    def test_response_bad_grid_exit1(self, case_cfg, tmp_path, capsys, eps, message):
        out = tmp_path / "resp"
        assert main(["response", "--config", str(case_cfg), "--out", str(out),
                     "--eps", eps]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_response_builds_one_limit_basis_per_k(self, case_cfg, tmp_path, monkeypatch):
        # three leading labels each used to rebuild the basis N + 2 times
        builds = []
        real = zero_noise.limit_eigenbasis

        def counted(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(zero_noise, "limit_eigenbasis", counted)
        out = tmp_path / "resp"
        assert main(["response", "--config", str(case_cfg), "--out", str(out),
                     "--k", "1,2"]) == 0
        assert 0 < len(builds) <= 2
        assert (out / "ordercheck_k2_ell19.csv").exists()

    def test_response_solves_each_eps_once_per_k(self, case_cfg, tmp_path, monkeypatch):
        # the leading labels' row disks certify them on the default grid, so
        # no eps needs a dense eigensolve; at N=99 eps = 0.1 certifies none of
        # them, and that eps alone takes one solve, shared by the three labels
        solves = []
        real = response.eig_dense_complex

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(response, "eig_dense_complex", counted)
        assert main(["response", "--config", str(case_cfg), "--out", str(tmp_path / "resp"),
                     "--k", "1,2"]) == 0
        assert len(solves) == 0
        assert main(["response", "--config", str(scaled_cfg(tmp_path)), "--out",
                     str(tmp_path / "scaled"), "--k", "1", "--eps", SCALED_FALLBACK_GRID]) == 0
        assert len(solves) == 1

    def test_response_falls_back_to_the_dense_path_at_large_eps(self, tmp_path, monkeypatch):
        # N=99 at eps = 0.1: no leading label's row disk is isolated, so those
        # rows take the dense path, with the bits they get when every eps does
        out = tmp_path / "resp"
        assert main(["response", "--config", str(scaled_cfg(tmp_path)), "--out", str(out),
                     "--k", "1", "--eps", SCALED_FALLBACK_GRID]) == 0
        monkeypatch.setattr(response, "_label_disks", lambda *args: (
            None, None, None, np.zeros(99, dtype=bool)))
        dense = tmp_path / "dense"
        assert main(["response", "--config", str(scaled_cfg(tmp_path)), "--out", str(dense),
                     "--k", "1", "--eps", SCALED_FALLBACK_GRID]) == 0
        for ell in (1, 34, 55):
            with open(out / f"ordercheck_k1_ell{ell}.csv", newline="", encoding="utf-8") as fh:
                *rows, footer = list(csv.DictReader(fh))
            assert [row["path"] for row in rows] == ["dense", "disk", "disk", "disk"]
            assert footer["path"] == ""
            assert abs(float(footer["r1"]) - 2.0) <= 0.1
            assert float(footer["r2"]) >= 2.3
            assert float(footer["vec_r"]) >= 1.3
            own = (out / f"ordercheck_k1_ell{ell}.csv").read_text().splitlines()[1]
            forced = (dense / f"ordercheck_k1_ell{ell}.csv").read_text().splitlines()[1]
            assert own == forced

    @pytest.mark.parametrize("scaled, grid, eps", [
        (True, "1e-10,1e-11,1e-12,1e-13", "1e-12"),
        (False, "1e-20,1e-21,1e-22,1e-23", "1e-20")], ids=["n99", "case"])
    def test_response_refuses_eps_the_dense_path_cannot_resolve(self, case_cfg, tmp_path,
                                                                capsys, scaled, grid, eps):
        # here the rounding term refuses the leading labels' disks, and the
        # second-order predictions of labels 0 and 1 agree to within
        # gamma ||P||_inf, so the dense path's match could give label 0 the
        # eigenvalue of label 1: NoConvergence, with no table written
        out = tmp_path / "resp"
        cfg = scaled_cfg(tmp_path) if scaled else case_cfg
        assert main(["response", "--config", str(cfg), "--out", str(out), "--k", "1",
                     "--eps", grid]) == 1
        assert capsys.readouterr().err == (
            f"error: labels 0 and 1 have second-order predictions within rounding at eps={eps}\n")
        assert not out.exists()

    def test_terminating_ordercheck_footers_leave_slopes_empty(self, case_cfg, tmp_path):
        # at k = 0 every fibre phase is 1: only r0 gets a slope, and not even
        # r0 for the stationary label 1 (lhat = 0); k = 1 tables hold the bytes
        # of the per-label order check
        out = tmp_path / "resp"
        assert main(["response", "--config", str(case_cfg), "--out", str(out),
                     "--k", "0,1"]) == 0
        cfg = rs.load_config(case_cfg)
        for ell in cfg.model.cum[:-1]:
            footer = (out / f"ordercheck_k0_ell{ell + 1}.csv").read_text().splitlines()[-1]
            slope0 = "" if ell == 0 else "[-+.e0-9]+"
            assert re.fullmatch(rf"slopes,,,{slope0},,,,", footer), footer
            oc = rs.order_check(cfg.model, cfg.gen, 1, ell, [1e-2, 1e-3, 1e-4, 1e-5])
            writers.write_ordercheck_csv(tmp_path / "own.csv", oc)
            assert ((out / f"ordercheck_k1_ell{ell + 1}.csv").read_bytes()
                    == (tmp_path / "own.csv").read_bytes())

    def test_oracle_exit_codes(self, case_cfg, tmp_path):
        out = tmp_path / "orc"
        assert main(["oracle", "--config", str(case_cfg), "--out", str(out)]) == 0
        assert (out / "oracle_k1.csv").exists()
        bad = tmp_path / "nl.json"
        bad.write_text('{"beta": [0.1, 0.2], "L": [1, 1],'
                       ' "generator": [[0.0, 0.0], [0.0, 0.0]]}', encoding="utf-8")
        assert main(["oracle", "--config", str(bad), "--out", str(tmp_path / "o2")]) == 1
        assert not (tmp_path / "o2").exists()

    def test_overflowing_generator_limit_exit1(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text(OVERFLOWING["one-band"], encoding="utf-8")
        out = tmp_path / "lim"
        assert main(["limit", "--config", str(p), "--out", str(out),
                     "--k", "1", "--eps", "0"]) == 1
        assert "is not above GAP_TOL" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_prints_small_magnitudes(self, case_cfg, tmp_path, capsys):
        # 1e8 extra turns of fibre noise leave magnitudes of about 4.9e-10
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(case_cfg), "--out", str(out),
                     "--delta", "100000000.05"]) == 0
        printed = [float(m) for m in re.findall(r"\|lam\|=(\S+)", capsys.readouterr().out)]
        held = [c["magnitude"] for c in read_strict_json(out / "cycles.json")["cycles"]]
        assert len(printed) == 3 and all(4e-10 < m < 6e-10 for m in held)
        np.testing.assert_allclose(printed, held, rtol=1e-5)

    def test_simulate_cycles(self, tmp_path):
        p = tmp_path / "two.json"
        p.write_text('{"beta": [0.1, 0.3], "L": [1, 1], "delta": 0.05,'
                     ' "epsilons": [0.01]}', encoding="utf-8")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(p), "--out", str(out),
                     "--bins", "32", "--top-m", "2", "--paths", "3", "--steps", "5",
                     "--seed", "11"]) == 0
        doc = json.loads((out / "cycles.json").read_text())
        assert len(doc["cycles"]) == 2
        assert doc["solver"] == "sector" and 0 <= doc["max_residual"] <= spectra.RESIDUAL_TOL
        assert 1 <= doc["sectors_solved"] <= 32 // 2 + 1
        header, rows = read_csv(out / "trajectories.csv")
        assert header == ["path", "step", "j", "x"]
        assert len(rows) == 3 * 6


    @pytest.mark.parametrize("extra, message", [
        (["--bins", "1"], "M must be >= 2 and an integer, got M=1"),
        (["--bins", "0"], "M must be >= 2 and an integer, got M=0"),
        (["--top-m", "0"], "top_m must be >= 1"),
        (["--steps", "-5", "--paths", "2"], "n_steps=-5"),
        (["--paths", "-1"], "n_paths=-1"),
        (["--seed", "-1", "--paths", "2"], "seed=-1"),
        (["--steps", "-5"], "n_steps=-5"),        # no paths: the counts are still checked
        (["--seed", "-3"], "seed=-3"),
        (["--bins", str(10 ** 400)], "M too large for numpy"),
        # sizes numpy cannot lay out are refused before anything is allocated
        (["--paths", str(2 ** 62), "--steps", "5"], "n_paths and n_steps too large for numpy"),
        # no paths: numpy refuses even an empty buffer of 2**62 + 1 steps
        (["--steps", str(2 ** 62)], "n_paths and n_steps too large for numpy"),
        (["--bins", str(2 ** 62)], "M too large for numpy to lay out"),
    ])
    def test_simulate_bad_input_exit1(self, case_cfg, tmp_path, capsys, extra, message):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(case_cfg), "--out", str(out),
                     "--bins", "8", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--bins", str(10**15)], "error: out of memory: "),
        (["--paths", str(10**15), "--steps", "1000000"],
         "error: n_paths and n_steps too large for numpy to lay out\n"),
    ], ids=["bins", "paths"])
    def test_simulate_out_of_memory_exit1(self, case_cfg, tmp_path, extra, message):
        # sizes beyond any address space: 10**15 bins numpy lays out and fails
        # to allocate, 10**15 paths of 10**6 steps the size rule refuses; both
        # before 10**15 seeds would be spawned
        out = tmp_path / "sim"
        done = run_cli("-m", "rotor_spectra.cli", "simulate", "--config", str(case_cfg),
                       "--out", str(out), *extra, timeout=10)
        assert done.returncode == 1
        assert done.stderr.startswith(message)
        assert "Traceback" not in done.stderr
        assert not out.exists()


class TestRunLifecycle:
    @pytest.mark.parametrize("command, extra", [
        ("validate", []),
        ("spectrum", ["--k", "1,2", "--eps", "0.1", "--delta", "0.1"]),
        ("limit", ["--k", "1", "--eps", "0.1,0.01"]),
        ("response", ["--k", "1"]),
        ("oracle", ["--k", "1,2"]),
        ("simulate", ["--eps", "0.1", "--delta", "0.1", "--bins", "8", "--paths", "2",
                      "--steps", "3"]),
        ("casestudy", ["--k", "1", "--eps", "0.1", "--delta", "0.1", "--x-res", "4"]),
    ])
    def test_subcommands_return_their_files_and_write_nothing(self, case_cfg, tmp_path,
                                                              command, extra):
        # the subcommand computes; only main creates --out and writes into it
        out = tmp_path / "o"
        argv = [command, "--config", str(case_cfg), "--out", str(out), *extra]
        args = cli.build_parser().parse_args(argv)
        code, files, params = args.fn(rs.load_config(case_cfg), args)
        assert not out.exists()
        assert code == 0 and files and isinstance(params, dict)
        assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [name for name, *_ in files] + ["manifest.json"])
        assert json.loads((out / "manifest.json").read_text())["parameters"] == json.loads(
            json.dumps(params, sort_keys=True))

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--k", "1", "--eps", "0.1,0.1000001"],
        ["spectrum", "--k", "1,1", "--eps", "0.1"],
        ["oracle", "--k", "2,1,2"],
    ], ids=["spectrum-eps-round-alike", "spectrum-repeated-k", "oracle-repeated-k"])
    def test_colliding_output_files_exit2(self, case_cfg, tmp_path, capsys, argv):
        # one file name written twice would keep only the later result
        out = tmp_path / "o"
        assert main([*argv, "--config", str(case_cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: output files named twice")
        assert not out.exists()

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_runs_leave_the_shared_defaults_unchanged(self, case_cfg, tmp_path):
        # the parser outlives a run, so no run may change a default it hands out
        rows = copy.deepcopy({name: row for name, (_, row) in cli.COMMANDS.items()})
        for argv in (["limit", "--eps", "0.1,0.01"],
                     ["response", "--eps", "0.02,0.002,2e-4,2e-5"]):
            out = tmp_path / argv[0]
            assert main([*argv, "--config", str(case_cfg), "--out", str(out)]) == 0
        for command, key, grid in [("limit", "epsilons", [1e-1, 1e-2, 1e-3, 1e-4]),
                                   ("response", "grid", [1e-2, 1e-3, 1e-4, 1e-5])]:
            out = tmp_path / f"{command}-default"
            assert main([command, "--config", str(case_cfg), "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["parameters"][key] == grid
        assert cli.LIMIT_GRID == [1e-1, 1e-2, 1e-3, 1e-4]
        assert {name: row for name, (_, row) in cli.COMMANDS.items()} == rows

    @pytest.mark.parametrize("error, code, message", [
        (MemoryError("no room"), 1, "error: out of memory: no room\n"),
        (OSError("disk full"), 2,
         "config error: cannot write output directory {out}: disk full\n"),
    ], ids=["memory", "os"])
    def test_failed_write_phase_leaves_no_directory(self, case_cfg, tmp_path, capsys,
                                                    monkeypatch, error, code, message):
        # the third file's writer fails after two files are written: the run
        # removes its files and the directories it created, deepest first
        def fail(*args):
            raise error

        monkeypatch.setattr(writers, "write_circles_csv", fail)
        out = tmp_path / "a" / "b" / "o"
        assert main(["spectrum", "--config", str(case_cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err == message.format(out=out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json"]

    def test_failed_write_phase_keeps_what_was_there(self, case_cfg, tmp_path, monkeypatch):
        # a run removes only what it created: a file of the same name as one
        # of its outputs was there before, so it stays, though overwritten
        out = tmp_path / "o"
        out.mkdir()
        for name in ("notes.txt", "spectrum_k1_eps0.1.csv"):
            (out / name).write_text("mine", encoding="utf-8")

        def fail(*args):
            raise MemoryError("no room")

        monkeypatch.setattr(writers, "write_circles_csv", fail)
        assert main(["spectrum", "--config", str(case_cfg), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "spectrum_k1_eps0.1.csv"]
        assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"

    @pytest.mark.parametrize("x_res", [2 ** 62, 10 ** 400], ids=["2**62", "10**400"])
    def test_grid_numpy_cannot_lay_out_fails_the_write_phase(self, tmp_path, capsys, x_res):
        # --x-res meets only the count rule when parsed: the grid writer's size
        # rule refuses the table, and the run removes the files and the
        # directories it created (2**62 ended in a bare ValueError from numpy)
        out = tmp_path / "a" / "o"
        assert main(["casestudy", "--out", str(out), "--x-res", str(x_res)]) == 2
        assert capsys.readouterr().err == "config error: x_res too large for numpy to lay out\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["taken", "taken/sub"], ids=["file", "below-a-file"])
    def test_unwritable_out_exit2(self, case_cfg, tmp_path, target):
        (tmp_path / "taken").write_text("", encoding="utf-8")
        out = tmp_path / target
        done = run_cli("-m", "rotor_spectra.cli", "oracle", "--config", str(case_cfg),
                       "--out", str(out))
        assert done.returncode == 2
        assert done.stderr.startswith(f"config error: cannot write output directory {out}: ")
        assert "Traceback" not in done.stderr


class TestCaseStudy:
    def test_full_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["casestudy", "--out", str(out1), "--x-res", "16"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted([
            "spectrum_k1_eps0.1.csv", "vectors_k1_eps0.1.csv", "circles_k1_eps0.1.csv",
            "limit_basis_k1.csv", "response_k1.csv", "fhat_k1.csv",
            "convergence_k1.csv", "eigenfunction_grid_k1.csv", "manifest.json"])
        assert main(["casestudy", "--out", str(out2), "--x-res", "16"]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outputs_match_the_subcommands(self, case_cfg, tmp_path):
        case = tmp_path / "case"
        assert main(["casestudy", "--out", str(case), "--x-res", "8"]) == 0
        for command, names in [
                ("spectrum", ["spectrum_k1_eps0.1.csv", "vectors_k1_eps0.1.csv",
                              "circles_k1_eps0.1.csv"]),
                ("limit", ["limit_basis_k1.csv", "convergence_k1.csv"]),
                ("response", ["response_k1.csv", "fhat_k1.csv"])]:
            out = tmp_path / command
            assert main([command, "--config", str(case_cfg), "--out", str(out)]) == 0
            for name in names:
                assert (case / name).read_bytes() == (out / name).read_bytes(), name

    def test_grid_shape(self, tmp_path):
        out = tmp_path / "g"
        assert main(["casestudy", "--out", str(out), "--x-res", "8"]) == 0
        header, rows = read_csv(out / "eigenfunction_grid_k1.csv")
        assert header == ["ell", "j", "x", "abs", "arg"]
        # three band-leading labels, 33 fibres, 8 samples
        assert len(rows) == 3 * 33 * 8
        ells = sorted({int(r[0]) for r in rows})
        assert ells == [1, 12, 19]


def test_cli_import_leaves_scipy_optimize_out():
    # no command needs scipy: labelling has no assignment solver and Ulam
    # cycles come from numpy sector solves; keep its import cost out of startup
    code = ("import sys, rotor_spectra.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = run_cli("-c", code)
    assert done.returncode == 0 and done.stdout.strip() == "[]"


def test_no_settable_tolerance():
    # certificates use module constants: no public function takes a tolerance
    # or a coverage fraction, and no subcommand a flag for one
    settable = [f"{name}({param})" for name in rs.__all__
                if inspect.isfunction(getattr(rs, name))
                for param in inspect.signature(getattr(rs, name)).parameters
                if "tol" in param or "fraction" in param]
    assert settable == []
    flags = [(name, flag) for name, (_, row) in cli.COMMANDS.items() for flag in row
             if "tol" in flag or "fraction" in flag]
    assert flags == []


def test_every_eigenvalue_comes_from_a_certified_decomposition():
    # no bare eigenvalue solve: every eigenvalue the package reports comes
    # with its vector and residual from spectra.eig_dense_complex
    package = Path(rs.__file__).parent
    bare = [source.name for source in sorted(package.glob("*.py"))
            if re.search(r"linalg\.eigvals\(", source.read_text())]
    assert bare == []


def test_one_eigenbasis_solve_and_no_block_record():
    # one solver for the linearised eigen-equation at a simple eigenpair,
    # response._eigenbasis_solve in the eigenbasis its caller holds: both
    # order-check polish paths and alpha_response use it, and the package has
    # no linear solve, inverse or least-squares path; the Fourier block is its
    # matrix, with no record around it
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    assert [name for name, text in sources.items()
            if re.search(r"linalg\.(solve|inv)\(|lstsq", text)] == []
    assert not hasattr(response, "_bordered_solve")
    assert not hasattr(response, "_bordered_jacobian")
    assert {name: text.count("_eigenbasis_solve(") for name, text in sources.items()
            if "_eigenbasis_solve(" in text} == {"response.py": 3}
    for caller in (response._refine_eigenpair, response.alpha_response):
        assert inspect.getsource(caller).count("_eigenbasis_solve(") == 1
    # the disk path and the dense path each polish through _refine_eigenpair
    assert inspect.getsource(response.order_checks).count("_refine_eigenpair(a, ") == 2
    assert [name for name, text in sources.items() if "FourierBlock" in text] == []
    assert "FourierBlock" not in rs.__all__


def test_one_symmetric_eigensolver():
    # Wdot and its band blocks are solved in one place, so validate,
    # limit_basis and response judge the same computed spectra
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    assert [name for name, text in sources.items() if re.search(r"linalg\.eigvalsh\(", text)] == []
    assert {name: len(re.findall(r"linalg\.eigh\(", text)) for name, text in sources.items()
            if re.search(r"linalg\.eigh\(", text)} == {"model.py": 1}
    assert re.search(r"linalg\.eigh\(", inspect.getsource(rs.model.sorted_eigenbasis))


def test_no_test_only_knob_and_one_zero_noise_solve():
    # simulate draws its own initial states; every zero-noise basis, the
    # terminating one of the response layer included, comes from
    # limit_eigenbasis; and order_checks alone checks the response eps grid
    assert "init" not in inspect.signature(rs.simulate).parameters
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    assert [name for name, text in sources.items()
            if "sorted_eigenbasis(" in text] == ["model.py", "zero_noise.py"]
    assert "check_eps_grid(" not in sources["cli.py"]


def test_one_band_block_embedding():
    # the numerical and the closed-form limit basis share one embedding of
    # their band blocks: a LimitBasis is constructed in zero_noise._band_basis alone
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    assert {name: text.count("LimitBasis(") for name, text in sources.items()
            if "LimitBasis(" in text} == {"zero_noise.py": 1}
    assert "LimitBasis(" in inspect.getsource(rs.zero_noise._band_basis)


def test_one_band_diagonal_product():
    # Diag(c[band]) X, a diagonal constant on each band times a matrix, has one
    # spelling, spectra._band_diagonal: the Fourier block, the limit matrix,
    # the response terms and the exact Ulam sectors all call it, and only it
    # expands band centres to the fibres inside a product
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    assert {name: text.count("_band_diagonal(") for name, text in sources.items()
            if "_band_diagonal(" in text} == {
        "spectra.py": 2, "zero_noise.py": 1, "response.py": 3, "simulate.py": 1}
    for fn, calls in ((rs.assemble_fourier_block, 1), (rs.assemble_limit_matrix, 1),
                      (rs.response_data, 2), (rs.order_checks, 1), (rs.detect_cycles, 1)):
        assert inspect.getsource(fn).count("_band_diagonal(") == calls, fn.__name__
    old = ["phases[:, None] * w", "[band][:, None] * gen.wdot", "d[:, None] * gen.wdot",
           "d[:, None] * (gen.wdot @ f)", "np.conj(d)[:, None] * f", "qhat[:, m, None] *"]
    assert [(name, o) for name, text in sources.items() for o in old if o in text] == []
    expanded = {name: len(re.findall(r"band_index\][^\n]*\[:, None\] \*", text))
                for name, text in sources.items()}
    assert {name: n for name, n in expanded.items() if n} == {"spectra.py": 1}
    assert re.search(r"band_index\]\[:, None\] \*",
                     inspect.getsource(rs.spectra._band_diagonal))
    # exact sectors keep their transform per band: (S, M//2 + 1), not per fibre
    assert "rfft(op.kernel_rows, axis=1).conj()[" not in inspect.getsource(rs.detect_cycles)


def test_band_layout_is_read_from_the_model():
    # labels run band by band, so model.band_index alone fixes each label's
    # band: both eigen-records carry their model and no copy of its layout
    assert [f.name for f in dataclasses.fields(rs.LimitBasis)] == [
        "k", "lambda_hat", "vectors", "model", "gen"]
    fields = {f.name for f in dataclasses.fields(rs.LabelledSpectrum)}
    assert "model" in fields and "band" not in fields
    assert list(inspect.signature(rs.support_mass_outside_band).parameters) == ["spec"]


def test_records_are_the_one_source_of_their_inputs():
    # a record carries what it was built from, so nothing that takes the
    # record takes those inputs again: a limit basis carries its generator
    # (a second one beside it was taken without a word), writers and file
    # lists read their record, a trajectory batch its shape from j, and
    # detect_cycles builds its cycles from the solves it picks
    for fn in (rs.order_checks, rs.spectrum_convergence):
        assert "gen" not in inspect.signature(fn).parameters, fn.__name__
    assert {fn.__name__: list(inspect.signature(fn).parameters)
            for fn in (writers.write_circles_csv, writers.write_grid_csv,
                       cli._spectrum_files, cli._response_files)} == {
        "write_circles_csv": ["path", "spec"], "write_grid_csv": ["path", "spec", "ells", "x_res"],
        "_spectrum_files": ["eps", "spec"], "_response_files": ["resp"]}
    assert [f.name for f in dataclasses.fields(rs.TrajectoryBatch)] == ["j", "x", "model"]
    # an Ulam operator's mode is read from the kernel it stores, and
    # ulam_empirical counts in one layout, whatever the batch's strides
    assert "mode" not in {f.name for f in dataclasses.fields(rs.UlamOperator)}
    assert "strides" not in inspect.getsource(rs.ulam_empirical)
    assert not hasattr(importlib.import_module("rotor_spectra.simulate"), "_sector_cycles")


#: each record's constructor: its inputs only, no value derived from them
RECORD_INPUTS = {
    "BandModel": ["beta", "L"],
    "NoiseGenerator": ["wdot"],
    "UlamOperator": ["model", "flagged_rows", "kernel_rows", "w_eps", "kernel"],
    "LabelledSpectrum": ["k", "sinc", "lam", "vectors", "residual", "model", "gersh_radius"],
    "OracleReport": ["closed", "numeric"],
    "CycleReport": ["M", "top_m", "sectors_solved", "max_residual", "cycles"],
    "TrajectoryBatch": ["j", "x", "model"],
    "Cycle": ["eigenvalue", "band_masses"],
    "AdmissibilityReport": ["row_sum_defect", "symmetry_defect", "min_offdiag",
                            "min_eigen_gap_full", "min_eigen_gap_blocks", "eps_max",
                            "item_distinct_full", "item_distinct_blocks"],
}

#: the records that hold the output of a solve, a parse or a fit: they are
#: built from what they report, not from inputs they could derive it from
RESULT_RECORDS = ("EigResult", "LimitBasis", "ResponseData", "OrderCheck", "RunConfig")


def test_records_take_only_their_inputs():
    # a derived value is no constructor parameter, so it cannot disagree with
    # the inputs it comes from: 35 parameters over 9 records
    assert {name: list(inspect.signature(getattr(rs, name)).parameters)
            for name in RECORD_INPUTS} == RECORD_INPUTS
    assert sum(map(len, RECORD_INPUTS.values())) == 35
    # the derived values still read as fields, and cycles.json and
    # admissibility.json keep their keys
    derived = {name: [f.name for f in dataclasses.fields(getattr(rs, name)) if not f.init]
               for name in RECORD_INPUTS}
    assert derived == {"BandModel": ["N", "cum", "alpha", "band_index"],
                       "NoiseGenerator": [], "UlamOperator": [],
                       "LabelledSpectrum": ["target"],
                       "OracleReport": ["residual", "abs_diff", "vec_proj_dist"],
                       "CycleReport": ["solver"], "TrajectoryBatch": [],
                       "Cycle": ["magnitude", "arg", "period_steps", "band"],
                       "AdmissibilityReport": ["item_stochastic"]}
    assert [f.name for f in dataclasses.fields(rs.CycleReport)] == [
        "M", "top_m", "solver", "sectors_solved", "max_residual", "cycles"]
    assert [f.name for f in dataclasses.fields(rs.Cycle)] == [
        "eigenvalue", "magnitude", "arg", "period_steps", "band_masses", "band"]
    assert [f.name for f in dataclasses.fields(rs.AdmissibilityReport)][6:] == [
        "item_stochastic", "item_distinct_full", "item_distinct_blocks"]


def test_every_record_is_classified():
    # each dataclass of the package either takes only its inputs or holds a
    # result, so a new record cannot go unclassified
    found = set()
    for info in pkgutil.iter_modules(rs.__path__):
        module = importlib.import_module(f"rotor_spectra.{info.name}")
        found |= {obj.__name__ for obj in vars(module).values() if isinstance(obj, type)
                  and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__}
    assert sorted(found) == sorted([*RECORD_INPUTS, *RESULT_RECORDS])
    assert set(RECORD_INPUTS).isdisjoint(RESULT_RECORDS)


def test_a_trajectory_batch_checks_its_own_paths():
    # the batch refuses bad paths wherever it is built, so ulam_empirical
    # keeps only the refusals that depend on its bin count
    batch_checks = inspect.getsource(rs.TrajectoryBatch.__post_init__)
    counting = inspect.getsource(rs.ulam_empirical)
    for reduction in ("j.min()", "j.max()", "x.min()", "x.max()"):
        assert reduction in batch_checks and reduction not in counting, reduction
    assert "InvalidSimulationInput" in counting and "_check_count" in counting


def test_each_record_is_built_one_way():
    # the records check their own inputs, so there is no second, checked
    # builder, and w_epsilon does not restate the generator's finiteness rule
    assert rs.build_band_model is rs.BandModel
    assert not hasattr(rs.NoiseGenerator, "from_matrix")
    assert "isfinite" not in inspect.getsource(rs.w_epsilon)


def test_one_response_builder_and_one_fourier_index_rule():
    # response_data builds the ResponseData record itself, and the index rule of
    # BandModel.phases bounds every Fourier index a command reads, ks included
    assert not hasattr(response, "_expansion_terms")
    assert not hasattr(cli, "_index")
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    assert [name for name, text in sources.items() if "MAX_INDEX" in text] == ["model.py"]


def test_one_matrix_rule():
    # the generator and the eigensolver read a matrix through one rule, the only
    # place a package module raises InvalidMatrix; its entry rule, which the
    # speed direction of alpha_response reads through too, raises its caller's error
    for caller in (rs.NoiseGenerator.__post_init__, rs.eig_dense_complex):
        assert "_square_matrix(" in inspect.getsource(caller)
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    raising = {name: text.count("raise InvalidMatrix(") + text.count(", InvalidMatrix)")
               for name, text in sources.items()}
    assert {name: n for name, n in raising.items() if n} == {"model.py": 2}
    square = inspect.getsource(rs.model._square_matrix)
    assert square.count("raise InvalidMatrix(") == 1
    assert "_finite_array(value, dtype, name, InvalidMatrix)" in square
    assert inspect.getsource(rs.model._finite_array).count("raise error(") == 2
    assert "_finite_array(direction, " in inspect.getsource(rs.alpha_response)


def test_one_rule_per_run_input():
    # each run input has one rule, stated once and called wherever the input
    # enters: counts and resolutions, eps-grid points, labels; only model
    # applies the integer type rule itself
    sources = {p.name: p.read_text() for p in sorted(Path(rs.__file__).parent.glob("*.py"))}
    assert not any("_check_bins" in text for text in sources.values())
    assert [name for name, text in sources.items()
            if re.search(r"\b_integer\(", text)] == ["model.py"]
    counted = importlib.import_module("rotor_spectra.simulate")
    for fn in (counted.check_counts, rs.ulam_analytic, rs.ulam_empirical, rs.detect_cycles,
               rs.laplacian_generator, writers.write_grid_csv):
        assert "_check_count(" in inspect.getsource(fn), fn.__name__
    # one size rule: the count rule has no bound, and only the layout rule
    # reads MAX_SIZE, at each place a run input sizes arrays
    assert "high" not in inspect.signature(rs.model._check_count).parameters
    assert [name for name, text in sources.items() if "MAX_SIZE" in text] == ["model.py"]
    layout = inspect.getsource(rs.model._check_layout)
    assert sources["model.py"].count("MAX_SIZE") == 1 + layout.count("MAX_SIZE")
    post = inspect.getsource(rs.BandModel.__post_init__)
    assert post.count("try:") == 1
    assert post.index("try:") < post.index("InvalidSpeeds") < post.index("np.repeat")
    for fn in (counted.check_counts, rs.ulam_analytic, rs.laplacian_generator,
               writers.write_grid_csv, rs.BandModel.__post_init__):
        assert "_check_layout(" in inspect.getsource(fn), fn.__qualname__
    for fn in (zero_noise.spectrum_convergence, response.check_eps_grid):
        text = inspect.getsource(fn)
        assert "_eps_points(" in text and "isfinite" not in text and "> 0" not in text
    assert "e > 0" in inspect.getsource(zero_noise._eps_points)
    assert [name for name, text in sources.items()
            if "def _check_labels(" in text] == ["model.py"]
    for fn in (response.order_checks, response.alpha_response, writers.write_grid_csv):
        assert "_check_labels(" in inspect.getsource(fn), fn.__name__
    assert "_check_eps(" in inspect.getsource(spectra.gershgorin_bound)
    assert not hasattr(cli, "_leading_labels")


def test_flags_and_config_numbers_meet_the_library_rules():
    # the CLI's run-input flags and the config's numbers have no rule of their
    # own: each flag type is _rule(parse, library rule), and json reads every
    # number for parse_config's model rules to judge
    assert not {"_finite", "_nonnegative", "_positive_int", "math"} & set(vars(cli))
    source = inspect.getsource(cli)
    for spelling in ["_INDEX, _EPS = _rule(int, _check_index), _rule(float, _check_eps)",
                     '"--k": dict(type=_list_of(_INDEX)', '"--eps": dict(type=_list_of(_EPS)',
                     '"--delta": dict(type=_rule(float, check_delta)',
                     '"--x-res": dict(type=_rule(int, lambda x: _check_count(x, 1, "x_res", ']:
        assert spelling in source, spelling
    assert '"response" and flag == "--eps"' not in source
    config = inspect.getsource(rs.config)
    assert not {"_non_finite", "_finite_float", "_finite_int"} & set(vars(rs.config))
    assert "json.loads(text)" in config and "parse_constant" not in config


def test_src_lines_counts_code_without_docstrings_comments_and_blanks(tmp_path):
    # tools/src_lines.py gives the two line counts ROADMAP.md and CHANGES.md quote
    spec = importlib.util.spec_from_file_location(
        "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    module = tmp_path / "m.py"
    module.write_text('"""Module\ndocstring."""\n\n# a comment\nX = """not a\ndocstring"""\n\n\n'
                      'class A:\n    """One line."""\n\n    def f(self):\n        """Two\n'
                      '        lines."""\n        return 1  # trailing\n', encoding="utf-8")
    assert src_lines.counts(module) == (15, 5)


def test_equivalence_gate_reports_every_difference(tmp_path):
    # tools/equivalence.py: a tree against itself differs nowhere; a copy
    # whose oracle writer spells one header byte otherwise is reported there
    tool = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
    src = Path(cli.__file__).parents[1]
    only = ["--only", "^valid-(validate-out|oracle-case)$"]
    done = run_cli(str(tool), str(src), str(src), *only, timeout=120)
    assert (done.returncode, done.stdout) == (0, "0 of 2 invocations differ\n")
    copy = tmp_path / "src"
    shutil.copytree(src / "rotor_spectra", copy / "rotor_spectra",
                    ignore=shutil.ignore_patterns("__pycache__"))
    writer = copy / "rotor_spectra" / "writers.py"
    text = writer.read_text(encoding="utf-8")
    writer.write_text(text.replace('"abs_diff", "vec_proj_dist"', '"abs_diff", "vec_proj_disT"'),
                      encoding="utf-8")
    done = run_cli(str(tool), str(src), str(copy), *only, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ("valid-oracle-case: o/oracle_k1.csv: differs from line 1\n"
                           "valid-oracle-case: o/oracle_k2.csv: differs from line 1\n"
                           "1 of 2 invocations differ\n")


def test_config_restates_no_library_rule():
    # the config leaves widths, indices, eps, delta and the generator's size to
    # the model's rules instead of its own isinstance and size checks
    source = inspect.getsource(rs.config)
    assert not re.search(r"isinstance\([^)]*\b(bool|int|float)\b", source)
    assert "MAX_INDEX" not in source and "gen.N" not in source


def test_each_tolerance_name_is_bound_in_one_module():
    # one name, one definition: a by-name import is a second binding, which a
    # monkeypatch of the defining module does not reach
    owners = {}
    for info in pkgutil.iter_modules(rs.__path__):
        module = importlib.import_module(f"rotor_spectra.{info.name}")
        for name in vars(module):
            if name.endswith("_TOL") or name == "MAX_EMPTY_FRACTION":
                owners.setdefault(name, []).append(info.name)
    assert {name: mods for name, mods in owners.items() if len(mods) != 1} == {}
    assert {"GAP_TOL", "RESIDUAL_TOL"} <= set(owners)
    # one distinctness rule (GAP_TOL) and one eigenpair certificate (RESIDUAL_TOL)
    assert {"PHASE_TOL", "SIMPLE_GAP_TOL", "CYCLE_RESIDUAL_TOL"} & set(owners) == set()


def test_readme_names_only_bound_tolerances():
    # every backticked tolerance name in README.md is a package constant, and
    # a value given after it, as in "(1e-11)" or "(1%)", is the constant's value
    values = {}
    for info in pkgutil.iter_modules(rs.__path__):
        module = importlib.import_module(f"rotor_spectra.{info.name}")
        values.update({name: value for name, value in vars(module).items()
                       if name.endswith("_TOL") or name == "MAX_EMPTY_FRACTION"})
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"`(\w+_TOL|MAX_EMPTY_FRACTION)`(?: \(([-+.\de]+)(%?)\))?", readme)
    assert named
    for name, text, percent in named:
        assert name in values, f"README names {name}, which no module binds"
        if text:
            assert float(text) / (100 if percent else 1) == values[name], name


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every invocation of README's CLI block runs as written, beside the case
    # study's config saved as model.json, and writes its --out directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) == 7 and all(argv[0] == "rotor-spectra" for argv in commands)
    (tmp_path / "model.json").write_text(CASE_STUDY_JSON, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1] / "manifest.json").is_file(), argv


def test_readme_api_lists_name_module_attributes():
    # the first parenthesised list of backticked names in each "- **<module>** —"
    # bullet names only attributes of that module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullets = re.findall(r"^- \*\*(\w+)\*\* —(.*?)(?=^- |^$)", readme, re.M | re.S)
    assert len(bullets) >= 6
    for module, text in bullets:
        names = re.search(r"\((`\w+`(?:,\s+`\w+`)*)\)", text)
        assert names, f"the {module} bullet lists no names"
        attrs = vars(importlib.import_module(f"rotor_spectra.{module}"))
        missing = [n for n in re.findall(r"`(\w+)`", names.group(1)) if n not in attrs]
        assert missing == [], f"README's {module} bullet names {missing}"


#: a written number that is not finite, as %.17g, repr(complex) or JSON spell it
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@pytest.mark.parametrize("command", ["validate", "spectrum", "limit", "response", "oracle",
                                     "simulate", "casestudy"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_small_configs_exit_cleanly(command, data):
    # exit code 0, 1 or 2 and no escaping exception; exit 0 writes only
    # finite numbers, any other exit writes no directory (but a validate that
    # exits 1 still writes its report)
    widths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                       .filter(lambda w: sum(w) <= 6))
    n = sum(widths)
    beta = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.35, 0.5, 0.7]),
                              min_size=len(widths), max_size=len(widths), unique=True))
    kind = data.draw(st.sampled_from(["laplacian", "zero", "diagonal", "symmetric"]))
    if kind == "laplacian":
        generator = "laplacian"
    elif kind == "zero":
        generator = [[0.0] * n for _ in range(n)]
    else:
        w = np.array(data.draw(st.lists(st.floats(-1, 1, allow_subnormal=False),
                                        min_size=n * n, max_size=n * n))).reshape(n, n)
        w = np.diag(np.diag(w)) if kind == "diagonal" else np.triu(w) + np.triu(w, 1).T
        generator = w.tolist()
    ks = data.draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
    eps = data.draw(st.lists(st.sampled_from([0, 0.01, 0.1, 0.5, 1]), min_size=1, max_size=3))
    k_flag, eps_flag = ["--k", ",".join(map(str, ks))], ["--eps", ",".join(map(str, eps))]
    # simulate and casestudy take one (k, eps): the first drawn values
    flags = {"validate": [], "spectrum": k_flag + eps_flag, "limit": k_flag + eps_flag,
             "response": k_flag, "oracle": k_flag,
             "simulate": ["--eps", str(eps[0]), "--bins", "8", "--top-m", "2", "--paths", "2",
                          "--steps", "5"],
             "casestudy": ["--k", str(ks[0]), "--eps", str(eps[0]), "--x-res", "4"]}[command]
    config = {"beta": beta, "L": widths, "generator": generator,
              "delta": data.draw(st.sampled_from([0.0, 0.05, 0.1]))}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "model.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        try:
            code = main([command, "--config", str(path), "--out", str(out), *flags])
        except SystemExit as exc:       # usage error from argparse
            code = exc.code
        assert code in (0, 1, 2)
        if code == 0:
            for written in out.iterdir():
                assert not NON_FINITE.search(written.read_text(encoding="utf-8")), written.name
        elif code == 2 or command != "validate":
            assert not out.exists()


def test_benchmark_per_layer_names_exist():
    # the benchmark wraps each per-layer function by name; a renamed or
    # deleted function would leave its metric unmeasured
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    modules = {info.name for info in pkgutil.iter_modules(rs.__path__)}
    checked = 0
    for entry in spec["per_layer"]:
        module, *rest = entry["name"].split(".")
        if module in modules and len(rest) >= 2:
            fn = getattr(importlib.import_module(f"rotor_spectra.{module}"), rest[0], None)
            assert not rest[0].startswith("_") and inspect.isfunction(fn), entry["name"]
            checked += 1
    assert checked >= 20


def test_benchmark_workloads_pass_their_checks(tmp_path, monkeypatch):
    # one call of each benchmark workload passes its own output checks, so a
    # record field, flag or signature the benchmark reads cannot break unseen
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from rsbench.workloads import WORKLOADS
    for name, workload in WORKLOADS.items():
        (tmp_path / name).mkdir()
        run = workload(0, tmp_path / name)
        run.setup()
        assert run.check(0, run.call(0)) == [], name
