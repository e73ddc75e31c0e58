import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotor_spectra as rs
from rotor_spectra import cli, zero_noise
from rotor_spectra.cli import main
from rotor_spectra.config import CASE_STUDY_JSON
from rotor_spectra.errors import AmbiguousLabelling

#: an integer literal beyond the float range
BIG = "1" * 400


@pytest.fixture()
def case_cfg(tmp_path):
    p = tmp_path / "case.json"
    p.write_text(CASE_STUDY_JSON, encoding="utf-8")
    return p


def run_cli(*argv):
    """The CLI in a fresh process, importing the package under test."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


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

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads((out / "admissibility.json").read_text(), parse_constant=refuse)
        assert doc["min_eigen_gap_full"] is None and doc["min_eigen_gap_blocks"] is None
        assert doc["eps_max"] is None


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
    ], ids=["delta-nan", "delta-infinity", "delta-overflow", "beta-nan", "generator-nan",
            "eps-nan", "eps-inf", "delta-inf", "delta-negative", "ks-empty", "eps-empty",
            "beta-int-overflow", "delta-int-overflow", "eps-int-overflow", "ks-int-overflow",
            "k-flag-int-overflow", "ks-beyond-2**32", "k-flag-301-digits", "k-flag-2**53+1",
            "k-flag-below-minus-2**32", "beta-L-length", "L-float", "L-bool-string"])
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
        assert "argument --delta: not a nonnegative number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("x_res", ["0", "-3", "2.5"])
    def test_x_res_must_be_a_positive_integer(self, tmp_path, capsys, x_res):
        with pytest.raises(SystemExit) as exc:
            main(["casestudy", "--out", str(tmp_path / "case"), "--x-res", x_res])
        assert exc.value.code == 2
        assert "argument --x-res" in capsys.readouterr().err
        assert not (tmp_path / "case").exists()


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

    def test_response_s1_zero_second_order(self, tmp_path):
        p = tmp_path / "s1.json"
        p.write_text('{"beta": [0.3], "L": [4], "ks": [2]}', encoding="utf-8")
        out = tmp_path / "resp"
        assert main(["response", "--config", str(p), "--out", str(out)]) == 0
        _, rows = read_csv(out / "response_k2.csv")
        assert all(float(r[5]) == 0 and float(r[6]) == 0 for r in rows)

    def test_response_double_eigenvalue_exit1(self, tmp_path):
        # a zero generator leaves eigenvalue 1 double at k = 0: the order
        # check cannot polish it, and says so without a traceback
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

    @pytest.mark.parametrize("argv", [
        ["limit", "--k", "1,0"],
        ["limit", "--eps=-1"],
        ["casestudy", "--k", "0"],
    ], ids=["limit-k0-after-k1", "limit-negative-eps", "casestudy-k0"])
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
        ("0.01,0.001,nan,0.0001", "finite and positive"),
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

    def test_oracle_exit_codes(self, case_cfg, tmp_path):
        out = tmp_path / "orc"
        assert main(["oracle", "--config", str(case_cfg), "--out", str(out)]) == 0
        assert (out / "oracle_k1.csv").exists()
        bad = tmp_path / "nl.json"
        bad.write_text('{"beta": [0.1, 0.2], "L": [1, 1],'
                       ' "generator": [[0.0, 0.0], [0.0, 0.0]]}', encoding="utf-8")
        assert main(["oracle", "--config", str(bad), "--out", str(tmp_path / "o2")]) == 1
        assert not (tmp_path / "o2").exists()

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
        assert doc["solver"] == "sector" and 0 <= doc["max_residual"] <= 1e-10
        header, rows = read_csv(out / "trajectories.csv")
        assert header == ["path", "step", "j", "x"]
        assert len(rows) == 3 * 6


    @pytest.mark.parametrize("extra, message", [
        (["--bins", "1"], "at least 2 bins"),
        (["--bins", "0"], "at least 2 bins"),
        (["--top-m", "0"], "top_m must be >= 1"),
        (["--steps", "-5", "--paths", "2"], "n_steps=-5"),
        (["--paths", "-1"], "n_paths=-1"),
        (["--seed", "-1", "--paths", "2"], "seed=-1"),
    ])
    def test_simulate_bad_input_exit1(self, case_cfg, tmp_path, capsys, extra, message):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(case_cfg), "--out", str(out),
                     "--bins", "8", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


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
