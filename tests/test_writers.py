"""Byte format of every CSV table and JSON report, from tiny hand-made inputs.

Each expected file is literal text: a header row, CRLF row ends, reals as
``%.17g``, the oracle's complex cells as ``a+bj`` and 1-based labels, bands
and fibres.  Two inputs sit on last-bit traps of vectorised numpy on AVX-512
hosts: the modulus of ``Z`` differs between ``np.abs`` on an array and
``abs(complex)``, and the grid cell ``(ell 1, j 1, x 0.875)`` differs between
numpy's vectorised complex product and the scalar one.  The tables carry the
scalar values.  JSON reports are two-space indented with LF line ends.
``_write``'s block loop is checked against the per-row loop it replaced, from
tables that cross block boundaries up to whole CLI runs.
"""

import math
import re
from types import SimpleNamespace as NS

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotor_spectra import AdmissibilityReport, Cycle, CycleReport, build_band_model, cli, writers
from rotor_spectra.config import CASE_STUDY_JSON
from conftest import traced_peak

Z = 0.1 + 0.1j
VECTORS = np.array([[Z, 0.6 - 0.8j], [-0.3 + 0.4j, 0.0 + 0.0j]])


def written(tmp_path, write, *args, **kwargs):
    path = tmp_path / "sub" / "table.csv"
    write(path, *args, **kwargs)
    return path.read_bytes()


def crlf(*lines):
    return "".join(line + "\r\n" for line in lines).encode("utf-8")


def test_spectrum(tmp_path):
    spec = NS(k=1, lam=np.array([Z, -0.5 + 0.25j]), target=np.array([0.1 + 0.2j, -0.5 + 0.3j]),
              model=NS(band_index=np.array([0, 1])), gersh_radius=0.125,
              residual=np.array([1e-16, 2.5e-15]))
    assert written(tmp_path, writers.write_spectrum_csv, spec) == crlf(
        "k,ell,band,re,im,abs,arg,target_re,target_im,dist_to_target,gersh_radius,residual",
        "1,1,1,0.10000000000000001,0.10000000000000001,0.1414213562373095,0.78539816339744828,"
        "0.10000000000000001,0.20000000000000001,0.10000000000000001,0.125,9.9999999999999998e-17",
        "1,2,2,-0.5,0.25,0.55901699437494745,2.677945044588987,"
        "-0.5,0.29999999999999999,0.049999999999999989,0.125,2.5e-15",
    )


def test_vectors(tmp_path):
    assert written(tmp_path, writers.write_vectors_csv, 2, VECTORS) == crlf(
        "k,ell,j,re,im,abs",
        "2,1,1,0.10000000000000001,0.10000000000000001,0.1414213562373095",
        "2,1,2,-0.29999999999999999,0.40000000000000002,0.5",
        "2,2,1,0.59999999999999998,-0.80000000000000004,1",
        "2,2,2,0,0,0",
    )


def test_circles(tmp_path):
    spec = NS(k=1, sinc=0.5, gersh_radius=0.125, model=build_band_model((0.25, 0.1), (1, 1)))
    text = written(tmp_path, writers.write_circles_csv, spec)
    lines = text.decode("utf-8").split("\r\n")
    assert len(lines) == 1 + 3 * 256 + 1 and lines[-1] == ""
    assert [lines[i] for i in (0, 1, 2, 256, 257, 258, 513, 514, 768)] == [
        "kind,idx,x,y",
        "unit,0,1,0",
        "unit,0,0.99969881869620425,0.024541228522912288",
        "unit,0,0.99969881869620425,-0.024541228522912448",
        "gersh,1,0.12500000000000003,-0.5",
        "gersh,1,0.12496235233702556,-0.49693234643463596",
        "gersh,2,0.52950849718747373,-0.29389262614623657",
        "gersh,2,0.5294708495244993,-0.29082497258087253",
        "gersh,2,0.5294708495244993,-0.29696027971160061",
    ]


def test_limit(tmp_path):
    basis = NS(k=1, lambda_hat=np.array([-0.5 + 0.5j, 0.25 - 0.75j]),
               model=NS(band_index=np.array([0, 1])),
               vectors=np.array([[0.6, -0.8], [0.8, 0.6]]))
    assert written(tmp_path, writers.write_limit_csv, basis) == crlf(
        "k,ell,band,lambda_hat_re,lambda_hat_im,j,f_j",
        "1,1,1,-0.5,0.5,1,0.59999999999999998",
        "1,1,1,-0.5,0.5,2,0.80000000000000004",
        "1,2,2,0.25,-0.75,1,-0.80000000000000004",
        "1,2,2,0.25,-0.75,2,0.59999999999999998",
    )


def test_convergence(tmp_path):
    rows = [(1, 0, 0.1, 1e-3, 2e-3, 0.0), (1, 1, 0.01, 1.5e-4, 3e-4, 1e-300)]
    assert written(tmp_path, writers.write_convergence_csv, rows) == crlf(
        "k,ell,eps,proj_distance,projector_gap,mass_outside_band",
        "1,1,0.10000000000000001,0.001,0.002,0",
        "1,2,0.01,0.00014999999999999999,0.00029999999999999997,1e-300",
    )


def test_response(tmp_path):
    basis = NS(k=2, lambda_hat=np.array([-0.5 + 0.5j, 0.25 - 0.75j]),
               model=NS(band_index=np.array([0, 1])))
    resp = NS(basis=basis, lambda_hathat=np.array([0.1 - 0.2j, -1e-20 + 3j]))
    assert written(tmp_path, writers.write_response_csv, resp) == crlf(
        "k,ell,band,lhat_re,lhat_im,lhathat_re,lhathat_im",
        "2,1,1,-0.5,0.5,0.10000000000000001,-0.20000000000000001",
        "2,2,2,0.25,-0.75,-9.9999999999999995e-21,3",
    )


def test_ordercheck_with_slopes_footer(tmp_path):
    grid = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    oc = NS(k=1, ell=10, eps_grid=grid, r0=grid, r1=np.array([1e-4, 1e-6, 1e-8, 1e-10]),
            r2=np.array([1e-6, 1e-9, 1e-12, 1e-15]), vec_r=np.array([0.5, 0.05, 0.005, 0.0005]),
            path=np.array(["dense", "disk", "disk", "disk"]),
            slope0=1.0, slope1=2.0000000000000004, slope2=3.0, slope_vec=float("nan"))
    assert written(tmp_path, writers.write_ordercheck_csv, oc) == crlf(
        "k,ell,eps,r0,r1,r2,vec_r,path",
        "1,11,0.01,0.01,0.0001,9.9999999999999995e-07,0.5,dense",
        "1,11,0.001,0.001,9.9999999999999995e-07,1.0000000000000001e-09,0.050000000000000003,disk",
        "1,11,0.0001,0.0001,1e-08,9.9999999999999998e-13,0.0050000000000000001,disk",
        "1,11,1.0000000000000001e-05,1.0000000000000001e-05,1e-10,1.0000000000000001e-15,"
        "0.00050000000000000001,disk",
        "slopes,,,1,2.0000000000000004,3,nan,",
    )


def test_oracle_complex_cells(tmp_path):
    model = NS(band_index=np.array([0, 1]))
    closed = NS(k=1, model=model, lambda_hat=np.array([-0.5 + 0.5j, 0.25 - 0.75j]))
    numeric = NS(k=1, model=model,
                 lambda_hat=np.array([-0.5 + 0.5000000000000001j, complex(0.25, -0.0)]))
    report = NS(closed=closed, numeric=numeric, case=("first", "last"),
                abs_diff=np.array([1.1e-16, 0.0]), vec_proj_dist=np.array([2e-15, 3e-16]))
    assert written(tmp_path, writers.write_oracle_csv, report) == crlf(
        "k,ell,band,case,lhat_closed,lhat_numeric,abs_diff,vec_proj_dist",
        "1,1,1,first,-0.5+0.5j,-0.5+0.50000000000000011j,1.1e-16,2.0000000000000002e-15",
        "1,2,2,last,0.25-0.75j,0.25-0j,0,2.9999999999999999e-16",
    )


def lf(*lines):
    return "".join(line + "\n" for line in lines).encode("utf-8")


def test_cycles_json_key_order(tmp_path):
    # keys in the record's field order, eigenvalues as [re, im], bands 1-based
    cycles = (Cycle(eigenvalue=complex(0.5, -0.25), band_masses=(0.75, 0.25)),
              Cycle(eigenvalue=complex(-0.1, -0.3), band_masses=(0.0, 1.0)))
    report = CycleReport(M=8, top_m=2, sectors_solved=3, max_residual=1e-15,
                         cycles=cycles)
    assert written(tmp_path, writers.write_cycles_json, report) == lf(
        '{', '  "M": 8,', '  "top_m": 2,', '  "solver": "sector",', '  "sectors_solved": 3,',
        '  "max_residual": 1e-15,', '  "cycles": [',
        '    {', '      "eigenvalue": [', '        0.5,', '        -0.25', '      ],',
        '      "magnitude": 0.5590169943749475,', '      "arg": -0.4636476090008061,',
        '      "period_steps": 13.551639618546297,',
        '      "band_masses": [', '        0.75,', '        0.25', '      ],',
        '      "band": 1', '    },',
        '    {', '      "eigenvalue": [', '        -0.1,', '        -0.3', '      ],',
        '      "magnitude": 0.31622776601683794,', '      "arg": -1.892546881191539,',
        '      "period_steps": 3.31996283401113,',
        '      "band_masses": [', '        0.0,', '        1.0', '      ],',
        '      "band": 2', '    }',
        '  ]', '}',
    )


def test_admissibility_json_key_order(tmp_path):
    # keys in the record's field order, then passed; non-finite floats are null
    report = AdmissibilityReport(
        row_sum_defect=0.0, symmetry_defect=1e-17, min_offdiag=-0.0,
        min_eigen_gap_full=float("nan"), min_eigen_gap_blocks=0.1, eps_max=float("inf"),
        item_distinct_full=False, item_distinct_blocks=True)
    assert written(tmp_path, writers.write_admissibility_json, report) == lf(
        '{', '  "row_sum_defect": 0.0,', '  "symmetry_defect": 1e-17,',
        '  "min_offdiag": -0.0,', '  "min_eigen_gap_full": null,',
        '  "min_eigen_gap_blocks": 0.1,', '  "eps_max": null,', '  "item_stochastic": true,',
        '  "item_distinct_full": false,', '  "item_distinct_blocks": true,',
        '  "passed": false', '}',
    )


def test_trajectory(tmp_path):
    batch = NS(j=np.array([[0, 1], [2, 2]], dtype=np.int32),
               x=np.array([[0.5, 0.75], [0.1, 0.35]]))
    assert written(tmp_path, writers.write_trajectory_csv, batch) == crlf(
        "path,step,j,x",
        "0,0,1,0.5",
        "0,1,2,0.75",
        "1,0,3,0.10000000000000001",
        "1,1,3,0.34999999999999998",
    )


def test_grid(tmp_path):
    assert written(tmp_path, writers.write_grid_csv, NS(k=1, vectors=VECTORS), [0],
                   x_res=8) == crlf(
        "ell,j,x,abs,arg",
        "1,1,0,0.1414213562373095,0.78539816339744828",
        "1,1,0.125,0.1414213562373095,1.5707963267948966",
        "1,1,0.25,0.1414213562373095,2.3561944901923448",
        "1,1,0.375,0.1414213562373095,3.1415926535897931",
        "1,1,0.5,0.1414213562373095,-2.3561944901923448",
        "1,1,0.625,0.1414213562373095,-1.5707963267948968",
        "1,1,0.75,0.1414213562373095,-0.7853981633974485",
        "1,1,0.875,0.1414213562373095,-1.9626155733547189e-16",
        "1,2,0,0.5,2.2142974355881808",
        "1,2,0.125,0.5,2.9996955989856291",
        "1,2,0.25,0.5,-2.4980915447965089",
        "1,2,0.375,0.5,-1.7126933813990606",
        "1,2,0.5,0.5,-0.92729521800161241",
        "1,2,0.625,0.5,-0.14189705460416407",
        "1,2,0.75,0.5,0.64350110879328415",
        "1,2,0.875,0.5,1.4288992721907325",
    )


def test_grid_phase_is_reduced_exactly(tmp_path):
    # 2**32 - 7 is 1 modulo x_res = 8, so every sample sits at the phase of k = 1
    assert written(tmp_path, writers.write_grid_csv, NS(k=2 ** 32 - 7, vectors=VECTORS), [0],
                   x_res=8) \
        == written(tmp_path, writers.write_grid_csv, NS(k=1, vectors=VECTORS), [0], x_res=8)


def naive_rows(fmt, columns):
    """The reference: every column broadcast to full length, one ``fmt % row`` each."""
    cols = [c.ravel().tolist() for c in np.broadcast_arrays(*map(np.asarray, columns))]
    return "".join(fmt % row + "\r\n" for row in zip(*cols)).encode("utf-8")


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e308, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
#: each field's conversions and the element strategy of each of its columns
FIELDS = {
    "%d": [st.integers(-2 ** 40, 2 ** 40)],
    "%s": [st.sampled_from(["unit", "gersh", "first", "", "a,b", "100%", "%d%%"])],
    "%.17g": [FLOATS],
    "%.17g%+.17gj": [FLOATS, FLOATS],
}


@st.composite
def tables(draw):
    """A row format and its columns, each at one of the shapes ``_write`` broadcasts.

    Shaped like the grid table ``(n, m, p)``: a scalar, a constant along the
    last axis ``(n, 1, 1)``, ``(n, m, 1)`` or ``(m, 1)``, a row ``(p,)`` or
    ``(m, p)``, or the full table.  Without a 3-d column the table is 2-d,
    1-d or 0-d; n and p are possibly 0, for an empty table.
    """
    n, m, p = draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    fields = draw(st.lists(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=5))
    columns = []
    for field in fields:
        for elements in FIELDS[field]:
            shape = draw(st.sampled_from([(), (n, 1, 1), (n, m, 1), (m, 1), (p,), (m, p),
                                          (n, m, p)]))
            values = draw(st.lists(elements, min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape))))
            columns.append(np.array(values).reshape(shape))
    return ",".join(fields), columns


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables(), st.sampled_from([1, 4, writers._MIN_RUN]), st.sampled_from([1, 3, 128]))
def test_write_equals_the_broadcast_row_reference(tmp_path_factory, table, min_run, block):
    # runs of at least 1 or 4 rows split these small tables into many runs,
    # and blocks of 1 or 3 rows split the runs
    fmt, columns = table
    path = tmp_path_factory.mktemp("write") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(writers, "_MIN_RUN", min_run)
        mp.setattr(writers, "_BLOCK", block)
        writers._write(path, ["h"], fmt, columns)
    assert path.read_bytes() == crlf("h") + naive_rows(fmt, columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables(), st.sampled_from([1, 4, writers._MIN_RUN]), st.sampled_from([1, 3, 128]),
       st.data())
def test_one_based_columns_are_written_plus_one(tmp_path_factory, table, min_run, block, data):
    # at every shape: a full-size column gets its 1 a block at a time, a
    # smaller one (a fixed column, a row, a scalar) at once
    fmt, columns = table
    ints = [i for i, c in enumerate(columns) if c.dtype.kind == "i"]
    one_based = data.draw(st.sets(st.sampled_from(ints)) if ints else st.just(set()))
    path = tmp_path_factory.mktemp("write") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(writers, "_MIN_RUN", min_run)
        mp.setattr(writers, "_BLOCK", block)
        writers._write(path, ["h"], fmt, columns, one_based=tuple(one_based))
    shifted = [c + 1 if i in one_based else c for i, c in enumerate(columns)]
    assert path.read_bytes() == crlf("h") + naive_rows(fmt, shifted)


#: rows per ``%`` in ``_write``
BLOCK = writers._BLOCK


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_write_equals_the_reference_across_blocks(tmp_path, rows):
    # the table is (n, m) with n * m = rows: where rows is not prime, the short
    # column (n, 1) spans the blocks
    m = next(d for d in range(2, rows + 1) if rows % d == 0)
    n = rows // m
    rng = np.random.default_rng(rows)
    full = rng.standard_normal(rows)
    full[::5] = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324], len(full[::5]))
    texts = np.resize(np.array(["a,b", "100%", "unit"]), rows)
    fmt = "%.17g,%d,%s,%.17g"
    columns = [rng.standard_normal((n, 1)), np.arange(m), texts.reshape(n, m),
               full.reshape(n, m)]
    writers._write(tmp_path / "t.csv", ["h"], fmt, columns)
    assert (tmp_path / "t.csv").read_bytes() == crlf("h") + naive_rows(fmt, columns)


def long_trajectories():
    rng = np.random.default_rng(1)
    batch = NS(j=rng.integers(0, 99, (200, 1001), dtype=np.int32), x=rng.random((200, 1001)))
    # every column is the batch's own or a broadcast, and the 1-based fibre
    # is shifted a block at a time: no copy of j + 1, 4 bytes a row (0.76 MiB)
    return writers.write_trajectory_csv, (batch,), 1 << 18


def square_vectors():
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    # 8 bytes a row covers |v|, a column the writer computes
    return writers.write_vectors_csv, (1, vectors), 8 * vectors.size + (1 << 20)


@pytest.mark.parametrize("table", [long_trajectories, square_vectors])
def test_python_values_are_block_sized(tmp_path, table):
    # a Python object for every cell would take several times each bound
    write, args, bound = table()
    assert traced_peak(write, tmp_path / "t.csv", *args) < bound


class Counted:
    """A float that counts how often a ``%`` conversion reads it."""

    def __init__(self, value):
        self.value, self.reads = value, 0

    def __float__(self):
        self.reads += 1
        return self.value


def test_broadcast_column_is_formatted_once_per_element(tmp_path):
    # n rows of 4 cells span three blocks
    n = BLOCK // 2 + 1
    short = np.array([[Counted(v)] for v in [0.5, -0.25, 1e-300, *map(float, range(3, n))]],
                     dtype=object)
    full = np.array([[Counted(float(i + 4 * r)) for i in range(4)] for r in range(n)],
                    dtype=object)
    writers._write(tmp_path / "t.csv", ["a", "b", "c"], "%.17g,%d,%.17g",
                   [short, np.arange(4), full])
    assert [c.reads for c in short.ravel()] == [1] * n
    assert [c.reads for c in full.ravel()] == [1] * 4 * n
    lines = (tmp_path / "t.csv").read_bytes().splitlines()
    assert lines[1:3] == [b"0.5,0,0", b"0.5,1,1"]
    assert lines[-1] == f"{n - 1},3,{4 * n - 1}".encode()


def test_constant_columns_are_formatted_once_per_element(tmp_path):
    # a grid-shaped (n, m, p) table: (n, 1, 1) and (n, m, 1) are constant
    # along each run of p rows, (p,) and the full column vary along it
    n, m, p = 2, 3, BLOCK + 5
    label = np.array([Counted(v) for v in (1.0, 2.0)], dtype=object).reshape(n, 1, 1)
    modulus = np.array([Counted(0.5 * i) for i in range(n * m)], dtype=object).reshape(n, m, 1)
    x = np.array([Counted(i / p) for i in range(p)], dtype=object)
    full = np.array([Counted(float(i)) for i in range(n * m * p)], dtype=object).reshape(n, m, p)
    writers._write(tmp_path / "t.csv", ["a", "b", "c", "d"], "%.17g,%.17g,%.17g,%.17g",
                   [label, modulus, x, full])
    for col in (label, modulus, x, full):
        assert [c.reads for c in col.ravel()] == [1] * col.size
    lines = (tmp_path / "t.csv").read_bytes().splitlines()
    assert len(lines) == 1 + n * m * p
    assert lines[1] == b"1,0,0,0"
    assert lines[p + 1] == f"1,0.5,0,{p}".encode()
    assert lines[-1] == b"2,2.5,%.17g,%d" % ((p - 1) / p, n * m * p - 1)


def test_template_columns_keep_a_percent_literal(tmp_path, monkeypatch):
    # a fixed string is pasted into the row template with its % escaped
    monkeypatch.setattr(writers, "_MIN_RUN", 2)
    writers._write(tmp_path / "t.csv", ["s", "t", "x"], "%s,%s,%.17g",
                   [np.array(["100%", "%d%%"])[:, None], "%s", np.array([0.5, 0.25])])
    assert (tmp_path / "t.csv").read_bytes() == crlf(
        "s,t,x", "100%,%s,0.5", "100%,%s,0.25", "%d%%,%s,0.5", "%d%%,%s,0.25")


def test_short_rows_share_their_blocks(tmp_path, monkeypatch):
    # 1000 paths of one step: runs shorter than _MIN_RUN merge, so the table
    # is written a block of _BLOCK rows at a time, not a run at a time
    writes = []
    opened = writers._open

    def counting_open(path):
        fh = opened(path)
        write = fh.write
        fh.write = lambda text: writes.append(text) or write(text)
        return fh

    monkeypatch.setattr(writers, "_open", counting_open)
    batch = NS(j=np.zeros((1000, 2), np.int32), x=np.full((1000, 2), 0.5))
    writers.write_trajectory_csv(tmp_path / "t.csv", batch)
    assert len(writes) == 1 + math.ceil(2000 / BLOCK)
    assert writes[1].startswith("0,0,1,0.5\r\n0,1,1,0.5\r\n1,0,1,0.5\r\n")


def test_scalar_and_empty_tables(tmp_path):
    # every column a scalar: one row; a zero-length axis: the header alone
    writers._write(tmp_path / "t.csv", ["s", "k"], "%s,%d", ["100%", 3], ["end"])
    assert (tmp_path / "t.csv").read_bytes() == crlf("s,k", "100%,3", "end")
    for shape in [(0,), (2, 0), (0, 3), (2, 0, 1)]:
        writers._write(tmp_path / "t.csv", ["k", "x"], "%d,%.17g",
                       [np.ones(shape[:-1] + (1,), int), np.zeros(shape)])
        assert (tmp_path / "t.csv").read_bytes() == crlf("k,x")


def test_empty_tables_keep_their_header(tmp_path):
    spec = NS(k=1, lam=np.zeros(0, complex), target=np.zeros(0, complex),
              model=NS(band_index=np.zeros(0, int)), gersh_radius=0.0, residual=np.zeros(0))
    assert written(tmp_path, writers.write_spectrum_csv, spec) == crlf(
        "k,ell,band,re,im,abs,arg,target_re,target_im,dist_to_target,gersh_radius,residual")
    assert written(tmp_path, writers.write_convergence_csv, []) == crlf(
        "k,ell,eps,proj_distance,projector_gap,mass_outside_band")
    batch = NS(j=np.zeros((0, 4), np.int32), x=np.zeros((0, 4)))
    assert written(tmp_path, writers.write_trajectory_csv, batch) == crlf("path,step,j,x")


def row_reference_write(path, header, fmt, columns, footer=(), one_based=()):
    """``_write`` as it was before block formatting: one ``row % values`` per row."""
    cols = [np.asarray(c) + 1 if i in one_based else np.asarray(c) for i, c in enumerate(columns)]
    rows = math.prod(np.broadcast_shapes(*(c.shape for c in cols)))
    texts = re.split(writers._CONVERSION, fmt)
    for i, conv in enumerate(re.findall(writers._CONVERSION, fmt)):
        if cols[i].size < rows:
            cols[i] = np.array([conv % v for v in cols[i].ravel().tolist()],
                               dtype=object).reshape(cols[i].shape)
            conv = "%s"
        texts[i] += conv
    cols = [c.ravel().tolist() for c in np.broadcast_arrays(*cols)]
    row = "".join(texts) + "\r\n"
    with writers._open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % values for values in zip(*cols))
        fh.writelines(line + "\r\n" for line in footer)


@pytest.mark.parametrize("argv", [["casestudy", "--x-res", "4"],
                                  ["simulate", "--paths", "2", "--steps", "3"],
                                  ["response", "--k", "1"]])
def test_cli_files_equal_the_row_reference(tmp_path, monkeypatch, argv):
    config = tmp_path / "case.json"
    config.write_text(CASE_STUDY_JSON, encoding="utf-8")

    def run(out):
        assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    shipped = run(tmp_path / "shipped")
    monkeypatch.setattr(writers, "_write", row_reference_write)
    reference = run(tmp_path / "reference")
    assert any(name.endswith(".csv") for name in shipped)
    assert list(shipped) == list(reference)
    assert [n for n in shipped if shipped[n] != reference[n]] == []
