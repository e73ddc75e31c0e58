"""Byte format of every CSV table, from tiny hand-made inputs.

Each expected file is literal text: a header row, CRLF row ends, reals as
``%.17g``, the oracle's complex cells as ``a+bj`` and 1-based labels, bands
and fibres.  Two inputs sit on last-bit traps of vectorised numpy on AVX-512
hosts: the modulus of ``Z`` differs between ``np.abs`` on an array and
``abs(complex)``, and the grid cell ``(ell 1, j 1, x 0.875)`` differs between
numpy's vectorised complex product and the scalar one.  The tables carry the
scalar values.
"""

from types import SimpleNamespace as NS

import numpy as np

from rotor_spectra import writers

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
              band=np.array([0, 1]), gersh_radius=0.125, residual=np.array([1e-16, 2.5e-15]))
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
    text = written(tmp_path, writers.write_circles_csv, NS(beta=(0.25, 0.1)), 1, 0.5, 0.125)
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
    basis = NS(k=1, lambda_hat=np.array([-0.5 + 0.5j, 0.25 - 0.75j]), band=np.array([0, 1]),
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
    resp = NS(k=2, lambda_hat=np.array([-0.5 + 0.5j, 0.25 - 0.75j]),
              lambda_hathat=np.array([0.1 - 0.2j, -1e-20 + 3j]), band=np.array([0, 1]))
    assert written(tmp_path, writers.write_response_csv, resp) == crlf(
        "k,ell,band,lhat_re,lhat_im,lhathat_re,lhathat_im",
        "2,1,1,-0.5,0.5,0.10000000000000001,-0.20000000000000001",
        "2,2,2,0.25,-0.75,-9.9999999999999995e-21,3",
    )


def test_ordercheck_with_slopes_footer(tmp_path):
    grid = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    oc = NS(k=1, ell=10, eps_grid=grid, r0=grid, r1=np.array([1e-4, 1e-6, 1e-8, 1e-10]),
            r2=np.array([1e-6, 1e-9, 1e-12, 1e-15]), vec_r=np.array([0.5, 0.05, 0.005, 0.0005]),
            slope0=1.0, slope1=2.0000000000000004, slope2=3.0, slope_vec=float("nan"))
    assert written(tmp_path, writers.write_ordercheck_csv, oc) == crlf(
        "k,ell,eps,r0,r1,r2,vec_r",
        "1,11,0.01,0.01,0.0001,9.9999999999999995e-07,0.5",
        "1,11,0.001,0.001,9.9999999999999995e-07,1.0000000000000001e-09,0.050000000000000003",
        "1,11,0.0001,0.0001,1e-08,9.9999999999999998e-13,0.0050000000000000001",
        "1,11,1.0000000000000001e-05,1.0000000000000001e-05,1e-10,1.0000000000000001e-15,"
        "0.00050000000000000001",
        "slopes,,,1,2.0000000000000004,3,nan",
    )


def test_oracle_complex_cells(tmp_path):
    report = NS(k=1, band=np.array([0, 1]), case=("first", "last"),
                lhat_closed=np.array([-0.5 + 0.5j, 0.25 - 0.75j]),
                lhat_numeric=np.array([-0.5 + 0.5000000000000001j, complex(0.25, -0.0)]),
                abs_diff=np.array([1.1e-16, 0.0]), vec_proj_dist=np.array([2e-15, 3e-16]))
    assert written(tmp_path, writers.write_oracle_csv, report) == crlf(
        "k,ell,band,case,lhat_closed,lhat_numeric,abs_diff,vec_proj_dist",
        "1,1,1,first,-0.5+0.5j,-0.5+0.50000000000000011j,1.1e-16,2.0000000000000002e-15",
        "1,2,2,last,0.25-0.75j,0.25-0j,0,2.9999999999999999e-16",
    )


def test_trajectory(tmp_path):
    batch = NS(n_paths=2, n_steps=1, j=np.array([[0, 1], [2, 2]], dtype=np.int32),
               x=np.array([[0.5, 0.75], [0.1, 0.35]]))
    assert written(tmp_path, writers.write_trajectory_csv, batch) == crlf(
        "path,step,j,x",
        "0,0,1,0.5",
        "0,1,2,0.75",
        "1,0,3,0.10000000000000001",
        "1,1,3,0.34999999999999998",
    )


def test_grid(tmp_path):
    assert written(tmp_path, writers.write_grid_csv, 1, VECTORS, [0], x_res=8) == crlf(
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


def test_empty_tables_keep_their_header(tmp_path):
    spec = NS(k=1, lam=np.zeros(0, complex), target=np.zeros(0, complex),
              band=np.zeros(0, int), gersh_radius=0.0, residual=np.zeros(0))
    assert written(tmp_path, writers.write_spectrum_csv, spec) == crlf(
        "k,ell,band,re,im,abs,arg,target_re,target_im,dist_to_target,gersh_radius,residual")
    assert written(tmp_path, writers.write_convergence_csv, []) == crlf(
        "k,ell,eps,proj_distance,projector_gap,mass_outside_band")
    batch = NS(n_paths=0, n_steps=3, j=np.zeros((0, 4), np.int32), x=np.zeros((0, 4)))
    assert written(tmp_path, writers.write_trajectory_csv, batch) == crlf("path,step,j,x")
