"""The output checks pass on the program's own files and name one known-bad file each."""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import rotor_spectra as rs  # noqa: E402
from rotor_spectra import writers  # noqa: E402
from rsbench import checks  # noqa: E402

BETA = checks.speeds(["pi/20", "e/7", "1/sqrt2"])
L = [11, 7, 15]


@pytest.fixture(scope="module")
def case():
    return rs.build_band_model(BETA, L), rs.laplacian_generator(sum(L))


def _edit_csv(path, edit):
    """Rewrite a CSV after ``edit(rows)`` changed its list of row dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def test_spectrum_check(case, tmp_path):
    model, gen = case
    path = tmp_path / "spectrum.csv"
    writers.write_spectrum_csv(path, rs.spectrum(model, gen, 2, 0.01, 0.1))
    assert checks.check_spectrum_csv(path, BETA, L, 2, 0.01, 0.1) == []

    def shift_one(rows):
        rows[5]["re"] = repr(float(rows[5]["re"]) + 1e-8)

    _edit_csv(path, shift_one)
    assert checks.check_spectrum_csv(path, BETA, L, 2, 0.01, 0.1) == ["spectrum.eigvals"]
    assert checks.check_spectrum_csv(tmp_path / "none.csv", BETA, L, 2, 0.01, 0.1) \
        == ["spectrum.missing"]


def test_spectrum_check_catches_a_mislabelled_band(case, tmp_path):
    model, gen = case
    path = tmp_path / "spectrum.csv"
    writers.write_spectrum_csv(path, rs.spectrum(model, gen, 1, 0.1, 0.1))

    def relabel(rows):
        rows[0]["band"] = "2"

    _edit_csv(path, relabel)
    assert checks.check_spectrum_csv(path, BETA, L, 1, 0.1, 0.1) \
        == ["spectrum.dist_to_target", "spectrum.band_counts"]


def _ordercheck_csv(path, r2_power):
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    rows = [[1, 1, e, e, e ** 2, e ** r2_power, e ** 2] for e in eps]
    slopes = [checks.fit_slope(eps, np.array([r[i] for r in rows])) for i in (3, 4, 5, 6)]
    rows.append(["slopes", "", ""] + slopes)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "ell", "eps", "r0", "r1", "r2", "vec_r"])
        w.writerows([[repr(float(v)) if isinstance(v, float) else v for v in r] for r in rows])


def test_ordercheck_check_on_program_output(case, tmp_path):
    model, gen = case
    path = tmp_path / "oc.csv"
    writers.write_ordercheck_csv(path, rs.order_check(model, gen, 1, 11, [1e-2, 1e-3, 1e-4, 1e-5]))
    assert checks.check_ordercheck_csv(path) == []


def test_ordercheck_check_names_the_failing_slope(tmp_path):
    path = tmp_path / "oc.csv"
    _ordercheck_csv(path, 3)
    assert checks.check_ordercheck_csv(path) == []
    _ordercheck_csv(path, 2)
    assert checks.check_ordercheck_csv(path) == ["ordercheck.slope2"]

    def bad_footer(rows):
        rows[-1]["r1"] = "1.5"

    _edit_csv(path, bad_footer)
    assert checks.check_ordercheck_csv(path) == ["ordercheck.footer", "ordercheck.slope2"]


def test_oracle_and_response_checks(case, tmp_path):
    model, gen = case
    oracle, response = tmp_path / "oracle.csv", tmp_path / "response.csv"
    writers.write_oracle_csv(oracle, rs.oracle_crosscheck(model, gen, 1))
    writers.write_response_csv(response, rs.response_data(model, gen, 1))
    assert checks.check_oracle_csv(oracle, BETA, L, 1) == []
    assert checks.check_response_csv(response, BETA, L, 1) == []

    def big_diff(rows):
        rows[3]["abs_diff"] = "2e-10"

    def moved_lhat(rows):
        rows[3]["lhat_im"] = repr(float(rows[3]["lhat_im"]) + 1e-9)

    _edit_csv(oracle, big_diff)
    _edit_csv(response, moved_lhat)
    assert checks.check_oracle_csv(oracle, BETA, L, 1) == ["oracle.lhat_diff"]
    assert checks.check_response_csv(response, BETA, L, 1) == ["response.lhat_reference"]


def test_cycles_check(tmp_path):
    path = tmp_path / "cycles.json"
    good = {"arg": -0.98697, "band": 1, "band_masses": [0.99, 0.01, 0.0]}
    off = {"arg": -1.1, "band": 1, "band_masses": [0.99, 0.01, 0.0]}
    path.write_text(json.dumps({"cycles": [good, good, good]}))
    assert checks.check_cycles_json(path, BETA, 3) == []
    path.write_text(json.dumps({"cycles": [good, off, good]}))
    assert checks.check_cycles_json(path, BETA, 3) == ["cycles.arg"]
    smeared = {"arg": -0.98697, "band": 1, "band_masses": [0.6, 0.4, 0.0]}
    assert checks.check_cycles([(c["arg"], c["band"] - 1, c["band_masses"])
                                for c in (good, smeared)], BETA, 2, "x") == ["x.band_mass"]
    assert checks.check_cycles([], BETA, 3, "x") == ["x.count"]


def test_empirical_and_trajectory_checks(case, tmp_path):
    model, gen = case
    batch = rs.simulate(model, gen, 0.1, 0.1, 40, 200, 7)
    op = rs.ulam_empirical(batch, 4)
    assert checks.check_empirical(batch.j, batch.x, op.matrix, model.N, 4) == []
    # the last fibre never visited: its cells have no outgoing transition
    j = np.minimum(np.asarray(batch.j), model.N - 2)
    assert checks.check_empirical(j, batch.x, op.matrix, model.N, 4) == ["empirical.empty_rows"]
    assert checks.check_empirical(batch.j, batch.x, 0.5 * op.matrix, model.N, 4) \
        == ["empirical.row_sums"]

    path = tmp_path / "trajectories.csv"
    small = rs.simulate(model, gen, 0.1, 0.1, 3, 10, 7)
    writers.write_trajectory_csv(path, small)
    assert checks.check_trajectory_csv(path, 3, 10, model.N) == []

    def outside(rows):
        rows[4]["x"] = "1.5"

    _edit_csv(path, outside)
    assert checks.check_trajectory_csv(path, 3, 10, model.N) == ["trajectories.format"]
    assert checks.check_trajectory_csv(path, 3, 11, model.N) == ["trajectories.rows"]
