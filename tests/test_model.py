import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rotor_spectra as rs

from rotor_spectra import (NoiseGenerator, alpha_response, build_band_model, delta_factor,
                           detect_cycles, eig_dense_complex, laplacian_generator,
                           limit_basis, oracle_crosscheck, order_check, order_checks,
                           response_data, simulate, spectrum, ulam_analytic, ulam_empirical,
                           validate_admissibility, w_epsilon, writers)
from rotor_spectra.errors import (ConfigError, DimensionMismatch, DimensionTooSmall,
                                  DuplicateSpeed, EmptyBand, EpsOutOfRange, InvalidEpsGrid,
                                  InvalidMatrix, InvalidSimulationInput, InvalidSpeeds,
                                  RotorSpectraError)
from rotor_spectra.model import MAX_INDEX, spectral_gap
from conftest import CASE_BETA, random_banded_model


class TestBuildBandModel:
    def test_case_study_layout(self, case_model):
        assert case_model.N == 33
        assert case_model.cum == (0, 11, 18, 33)
        assert case_model.S == 3
        assert_allclose(case_model.alpha[:11], CASE_BETA[0])
        assert_allclose(case_model.alpha[11:18], CASE_BETA[1])
        assert_allclose(case_model.alpha[18:], CASE_BETA[2])

    def test_single_band(self):
        m = build_band_model([0.3], [5])
        assert m.N == 5
        assert_array_equal(m.alpha, [0.3] * 5)

    def test_minimal_two_band(self):
        m = build_band_model([0.1, 0.2], [1, 1])
        assert m.N == 2
        assert m.band_slice(0) == slice(0, 1)
        assert m.band_slice(1) == slice(1, 2)

    def test_duplicate_speed(self):
        with pytest.raises(DuplicateSpeed):
            build_band_model([0.1, 0.1], [1, 1])

    def test_empty_band(self):
        with pytest.raises(EmptyBand):
            build_band_model([0.1, 0.2], [1, 0])
        with pytest.raises(EmptyBand, match="at least one band"):
            build_band_model([], [])

    @pytest.mark.parametrize("widths", [[2.7, 1.9], [2.0, 1], [math.nan, 1], [math.inf, 1],
                                        [True, 1], ["2", 1], [-1, 1]])
    def test_widths_must_be_positive_integers(self, widths):
        # a fractional width was truncated and a NaN one escaped as a bare ValueError
        with pytest.raises(EmptyBand, match="positive integers"):
            build_band_model([0.1, 0.3], widths)

    @pytest.mark.parametrize("widths", [(10 ** 300,), (2 ** 63,), (2 ** 62, 2 ** 62)],
                             ids=["301-digits", "2**63", "two-of-2**62"])
    def test_widths_too_large_to_lay_out(self, widths):
        # the fibre layout's np.repeat raised a bare OverflowError for a width
        # beyond int64, and a bare ValueError (negative dimensions) where the
        # widths sum past it; each is refused before anything is allocated
        with pytest.raises(EmptyBand, match="^band widths too large for numpy to lay out$"):
            build_band_model([0.1 * s for s in range(1, len(widths) + 1)], widths)

    def test_integer_typed_widths(self):
        m = build_band_model([0.1, 0.3], np.array([2, 1]))
        assert m.L == (2, 1) and all(type(x) is int for x in m.L) and m.N == 3

    def test_phase_gap(self):
        # the band-phase gap is the simple-spectrum rule applied to the phases
        m = build_band_model([0.0, 0.25, 0.6], [1, 2, 1])
        gap, radius, simple = spectral_gap([m.phases(1)])
        assert gap == pytest.approx(abs(1 - np.exp(-2j * np.pi * 0.25)))
        assert radius == pytest.approx(1.0) and simple
        gap, _, simple = spectral_gap([m.phases(4)])         # 0 and 0.25 coincide exactly
        assert gap == 0.0 and not simple
        assert spectral_gap([m.phases(0)])[:3:2] == (0.0, False)
        assert spectral_gap([build_band_model([0.3], [4]).phases(1)])[::2] == (np.inf, True)

    @pytest.mark.parametrize("speed", [True, np.True_, "0.1", None, [0.1]],
                             ids=["bool", "numpy_bool", "numeric_string", "none", "list"])
    def test_speeds_must_be_real_numbers(self, speed):
        # a bool once built a model as the speed 1.0, and a numeric string as its value
        with pytest.raises(InvalidSpeeds, match="band speeds must be real numbers"):
            rs.BandModel((speed, 0.3), (1, 1))

    def test_speeds_are_read_once(self):
        # an iterator of speeds builds the model its tuple builds
        m = rs.BandModel(map(float, CASE_BETA), (1, 1, 1))
        assert m.beta == rs.BandModel(tuple(CASE_BETA), (1, 1, 1)).beta

    @pytest.mark.parametrize("k", [2615867562, -MAX_INDEX])
    def test_numpy_integer_phases_are_exact(self, k):
        # p * k in int64 wraps once |k| exceeds about 1.6e3 for the speed pi / 20
        m = rs.BandModel((math.pi / 20, 0.3), (1, 1))
        assert m.phases(np.int64(k)).tobytes() == m.phases(k).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(beta=st.floats(-3, 3), k=st.integers(-MAX_INDEX, MAX_INDEX))
    def test_phases_reduce_exactly(self, beta, k):
        # k * beta was once rounded before its reduction mod 1, an error of
        # 3.5e-7 at k = 1e9; the reduction is now exact at every index
        turn = float(Fraction(beta) * k % 1)
        exact = cmath.exp(-2j * cmath.pi * turn)
        assert abs(rs.BandModel((beta,), (1,)).phases(k)[0] - exact) <= 1e-15

    @pytest.mark.parametrize("k", [0, 1])
    def test_case_study_phases_at_0_and_1_are_unchanged(self, case_model, k):
        # speeds in [0, 1) reduce to themselves at k = 0 and 1, so the exact
        # reduction keeps the old formula's bits there
        old = np.exp(-2j * np.pi * k * np.asarray(case_model.beta))
        assert case_model.phases(k).tobytes() == old.tobytes()

    def test_immutable(self, case_model):
        with pytest.raises(ValueError):
            case_model.alpha[0] = 99.0


class TestBandLayout:
    def test_layout_property(self):
        # build_band_model's layout on random models: speeds, offsets and band index
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_banded_model(rng)
            assert m.cum == (0, *np.cumsum(m.L).tolist()) and m.N == m.cum[-1]
            for s in range(m.S):
                assert np.all(m.alpha[m.band_slice(s)] == m.beta[s])
            assert_array_equal(m.band_index, [s for s in range(m.S) for _ in range(m.L[s])])


class TestRecordsDeriveFromTheirInputs:
    def test_band_model_derives_its_layout(self):
        # BandModel(beta, L) gives build_band_model's layout bit for bit
        rng = np.random.default_rng(11)
        for _ in range(50):
            built = random_banded_model(rng)
            m = rs.BandModel(built.beta, built.L)
            assert m.N == built.N and type(m.N) is int and m.cum == built.cum
            for name in ("alpha", "band_index"):
                got, want = getattr(m, name), getattr(built, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_band_index_is_computed_once(self, case_model):
        assert case_model.band_index is case_model.band_index

    @pytest.mark.parametrize("name", ["spectrum", "validate_admissibility", "simulate"])
    def test_generator_size_is_its_matrix(self, case_model, name):
        # a 3 x 3 generator declared as 33 fibres passed the size rule, then
        # ended in a bare ValueError or IndexError
        gen = NoiseGenerator(wdot=np.eye(3))
        calls = {"spectrum": lambda: spectrum(case_model, gen, 1, 0.1),
                 "validate_admissibility": lambda: validate_admissibility(gen, case_model),
                 "simulate": lambda: simulate(case_model, gen, 0.1, 0.1, 2, 5, 1)}
        assert gen.N == 3
        with pytest.raises(DimensionMismatch, match="generator dimension 3 != model dimension 33"):
            calls[name]()

    def test_counted_operator_bins_are_its_kernel(self, case_model):
        # an 8-bin kernel under M=4 reported M 4 and built a 132 x 132 matrix
        kernel = np.zeros((33, 33, 8))
        kernel[np.arange(33), np.arange(33), 1] = 1.0     # one bin on per step
        op = rs.UlamOperator(case_model, kernel=kernel)
        assert op.M == 8 and op.size == 264 and op.matrix.shape == (264, 264)
        assert detect_cycles(op, case_model, 1).M == 8

    def test_spectrum_target_is_the_scaled_phases(self, case_model, case_gen):
        spec = spectrum(case_model, case_gen, 2, 0.1, 0.3)
        want = spec.sinc * case_model.phases(2)[case_model.band_index]
        assert spec.target.tobytes() == want.tobytes() and not spec.target.flags.writeable


#: JSON-like values: null, bools, numbers (NaN and +-inf among them), strings
#: and nested arrays, ragged or empty; integers stay small, because a model
#: lays out its fibres when it is built
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12)


class TestRecordsCheckTheirInputs:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(beta=st.lists(JSON_LIKE, max_size=4), L=st.lists(JSON_LIKE, max_size=4))
    def test_band_model_builds_or_refuses(self, beta, L):
        try:
            m = rs.BandModel(beta, L)
        except RotorSpectraError:
            return
        assert all(type(b) is float for b in m.beta) and all(type(x) is int for x in m.L)
        assert m.N == sum(m.L) == len(m.alpha)
        # only numbers are speeds: no bool, string, None or list built a model
        assert all(type(b) in (int, float) for b in beta)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(wdot=JSON_LIKE | st.lists(st.lists(JSON_LIKE, min_size=2, max_size=2),
                                     min_size=2, max_size=2))
    def test_generator_builds_or_refuses(self, wdot):
        try:
            g = NoiseGenerator(wdot)
        except RotorSpectraError:
            return
        assert g.wdot.dtype == float and g.wdot.shape == (g.N, g.N)
        assert np.all(np.isfinite(g.wdot)) and not g.wdot.flags.writeable


class TestLaplacianGenerator:
    def test_n3_stencil(self):
        g = laplacian_generator(3)
        assert_array_equal(g.wdot, [[-0.5, 0.5, 0.0], [0.5, -1.0, 0.5], [0.0, 0.5, -0.5]])

    def test_n2_stencil(self):
        g = laplacian_generator(2)
        assert_array_equal(g.wdot, [[-0.5, 0.5], [0.5, -0.5]])

    def test_max_diagonal(self):
        g = laplacian_generator(33)
        assert np.max(np.abs(np.diag(g.wdot))) == 1.0
        assert g.eps_max == 1.0

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            laplacian_generator(1)

    @pytest.mark.parametrize("size", [3.0, 2.5, "4", True])
    def test_size_must_be_an_integer(self, size):
        # 3.0, 2.5 and "4" used to end in a bare TypeError
        with pytest.raises(DimensionTooSmall, match="N must be >= 2 and an integer"):
            laplacian_generator(size)

    def test_numpy_integer_size(self):
        assert laplacian_generator(np.int64(3)).N == 3


class TestAdmissibility:
    def test_case_study_passes(self, case_model, case_gen):
        rep = validate_admissibility(case_gen, case_model)
        assert rep.item_stochastic and rep.item_distinct_full and rep.item_distinct_blocks
        assert rep.passed
        assert rep.row_sum_defect <= 1e-12
        assert rep.symmetry_defect == 0.0

    def test_zero_generator_fails_distinctness(self):
        m = build_band_model([0.1, 0.2], [2, 1])
        g = NoiseGenerator(np.zeros((3, 3)))
        rep = validate_admissibility(g, m)
        assert rep.item_stochastic          # zero matrix is stochastic-compatible
        assert not rep.item_distinct_full   # all eigenvalues equal 0
        assert not rep.passed

    def test_eps_max_four_fibres(self):
        m = build_band_model([0.1, 0.2], [2, 2])
        g = laplacian_generator(4)
        rep = validate_admissibility(g, m)
        assert rep.passed
        assert rep.eps_max == 1.0

    def test_asymmetric_fails(self):
        m = build_band_model([0.1, 0.2], [1, 1])
        w = np.array([[-0.5, 0.5], [0.2, -0.2]])
        rep = validate_admissibility(NoiseGenerator(w), m)
        assert not rep.item_stochastic

    def test_negative_offdiagonal_fails(self):
        m = build_band_model([0.1, 0.2], [1, 1])
        w = np.array([[0.5, -0.5], [-0.5, 0.5]])
        rep = validate_admissibility(NoiseGenerator(w), m)
        assert not rep.item_stochastic

    def test_block_eigenvalues_nonpositive(self):
        # zero row sums with nonnegative off-diagonals push all block spectra <= 0
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_banded_model(rng)
            g = laplacian_generator(m.N) if m.N >= 2 else None
            if g is None:
                continue
            for s in range(m.S):
                sl = m.band_slice(s)
                ev = np.linalg.eigvalsh(g.wdot[sl, sl])
                assert np.all(ev <= 1e-12)


def sorted_difference_gap(spectra):
    """The real-spectrum rule as neighbour differences after sorting."""
    gap, radius = math.inf, 0.0
    for ev in map(np.sort, spectra):
        if ev.size:
            radius = max(radius, float(np.max(np.abs(ev))))
        if ev.size > 1:
            gap = min(gap, float(np.min(np.diff(ev))))
    return gap, radius, gap > 1e-9 * radius


@st.composite
def real_spectra(draw):
    """Lists of real spectra, some values repeated exactly or one ulp apart."""
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    spectra = []
    for _ in range(draw(st.integers(0, 4))):
        ev = draw(st.lists(values, max_size=8))
        for v in draw(st.lists(st.sampled_from(ev), max_size=3)) if ev else []:
            ev.append(draw(st.sampled_from([v, np.nextafter(v, np.inf),
                                            np.nextafter(v, -np.inf)])))
        spectra.append(np.array(draw(st.permutations(ev)), dtype=float))
    return spectra


class TestSpectralGap:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spectra=real_spectra())
    def test_real_spectra_match_sorted_differences(self, spectra):
        # pairwise |a - b| and sorted neighbour differences agree bit for bit,
        # because rounding is monotone
        assert spectral_gap(spectra) == sorted_difference_gap(spectra)

    def test_complex_spectrum(self):
        # 1 and 1 + 2e-10j share their real part and sit 2e-10 apart
        assert spectral_gap([np.array([1, 1j, -1, 1 + 2e-10j])]) == (2e-10, 1.0, False)
        assert spectral_gap([np.array([1, 1j, -1, 1 + 2e-9j])]) == (2e-9, 1.0, True)

    def test_non_finite_spectrum_is_not_simple(self):
        # Python's min and max skip NaN, which once let a NaN spectrum pass
        assert spectral_gap([[math.nan, 1.0]])[2] is False
        assert spectral_gap([[1.0, 2.0], [0.0, math.inf]])[2] is False


class TestWEpsilon:
    def test_direct_substitution(self):
        g = laplacian_generator(3)
        w = w_epsilon(g, 0.1)
        assert_allclose(w, [[0.95, 0.05, 0.0], [0.05, 0.9, 0.05], [0.0, 0.05, 0.95]],
                        rtol=0, atol=1e-15)

    def test_eps_zero_identity(self):
        g = laplacian_generator(4)
        assert_array_equal(w_epsilon(g, 0.0), np.eye(4))

    def test_eps_out_of_range(self):
        g = laplacian_generator(3)
        with pytest.raises(EpsOutOfRange):
            w_epsilon(g, 1.5)
        with pytest.raises(EpsOutOfRange):
            w_epsilon(g, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_generator_is_refused(self, bad):
        # NaN fails the range test's comparisons, so it needs its own refusal,
        # which the generator makes when it is built
        wdot = np.array(laplacian_generator(4).wdot)
        wdot[2, 3] = wdot[3, 2] = bad
        model = build_band_model([0.1, 0.3], [2, 2])
        for call in (lambda: w_epsilon(NoiseGenerator(wdot), 0.1),
                     lambda: simulate(model, NoiseGenerator(wdot), 0.1, 0.1, 2, 5, 1),
                     lambda: ulam_analytic(model, NoiseGenerator(wdot), 0.1, 0.1, 8)):
            with pytest.raises(InvalidMatrix, match="non-finite"):
                call()

    @pytest.mark.parametrize("scale, bad, eps, error", [
        (1.0, math.inf, 0.0, InvalidMatrix), (1e300, None, 1e10, EpsOutOfRange),
    ], ids=["inf-entry-at-eps0", "overflowing-product"])
    def test_refusal_is_silent(self, scale, bad, eps, error):
        # an infinite entry is refused when the generator is built, and an
        # overflowing eps * Wdot by the range test; numpy must not warn about
        # either first (pytest turns warnings into errors)
        wdot = scale * np.array(laplacian_generator(4).wdot)
        if bad is not None:
            wdot[2, 3] = wdot[3, 2] = bad
        with pytest.raises(error):
            w_epsilon(NoiseGenerator(wdot), eps)

    def test_doubly_stochastic_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_banded_model(rng)
            if m.N < 2:
                continue
            g = laplacian_generator(m.N)
            eps = float(rng.uniform(0, g.eps_max))
            w = w_epsilon(g, eps)
            assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
            assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            assert w.min() >= 0.0 and w.max() <= 1.0


#: a two-band model of four fibres, for hand-built Ulam operators
FOUR = build_band_model([0.1, 0.3], [2, 2])


@pytest.mark.parametrize("error, call", [
    (InvalidMatrix, lambda: NoiseGenerator([[0.0, 1.0]])),
    (InvalidMatrix, lambda: NoiseGenerator(np.zeros((0, 0)))),
    (InvalidMatrix, lambda: NoiseGenerator([[0.0, "a"], ["a", 0.0]])),
    (InvalidMatrix, lambda: NoiseGenerator([[0.0, {}], [{}, 0.0]])),
    (InvalidMatrix, lambda: NoiseGenerator([[0.0, 0.0], [0.0]])),
    (InvalidMatrix, lambda: NoiseGenerator(np.ones((2, 3)))),
    (InvalidMatrix, lambda: NoiseGenerator([[0.0, None], [None, 0.0]])),
    (InvalidMatrix, lambda: NoiseGenerator([[10 ** 400]])),
    (DimensionMismatch, lambda: build_band_model([0.1, 0.2], [1])),
    (DimensionMismatch, lambda: rs.BandModel((0.1,), (2, 3))),
    (InvalidSpeeds, lambda: build_band_model([math.nan], [2])),
    (InvalidSpeeds, lambda: build_band_model([0.1, -math.inf], [1, 1])),
    (InvalidSpeeds, lambda: build_band_model([None], [1])),
    (InvalidSpeeds, lambda: build_band_model(["a"], [1])),
    (InvalidSpeeds, lambda: build_band_model([10 ** 400], [1])),
    (InvalidSimulationInput, lambda: detect_cycles(rs.UlamOperator(FOUR), FOUR, 1)),
    (InvalidSimulationInput, lambda: rs.UlamOperator(FOUR, kernel_rows=np.ones((2, 8)))),
    (InvalidSimulationInput, lambda: rs.UlamOperator(
        FOUR, kernel_rows=np.ones((2, 8)), w_eps=np.eye(4), kernel=np.ones((4, 4, 8)))),
    (InvalidSimulationInput, lambda: rs.UlamOperator(FOUR, kernel=np.ones((3, 3, 8)))),
    (InvalidSimulationInput, lambda: rs.UlamOperator(FOUR, kernel=np.ones((4, 4)))),
    (InvalidSimulationInput, lambda: rs.UlamOperator(
        FOUR, kernel_rows=np.ones((3, 8)), w_eps=np.eye(4))),
    (InvalidSimulationInput, lambda: rs.UlamOperator(
        FOUR, kernel_rows=np.ones((2, 8)), w_eps=np.eye(3))),
    (DimensionMismatch, lambda: validate_admissibility(laplacian_generator(3),
                                                       build_band_model([0.1], [2]))),
    (InvalidMatrix, lambda: eig_dense_complex(np.ones((2, 3)))),
    (InvalidMatrix, lambda: eig_dense_complex([[1.0, np.nan], [0.0, 1.0]])),
    (DimensionMismatch, lambda: alpha_response(build_band_model([0.0, 0.25], [1, 1]),
                                              laplacian_generator(2), 1, 0.01, 0, [1.0])),
    (InvalidMatrix, lambda: NoiseGenerator(np.array([[-0.5 + 1j, 0.5], [0.5, -0.5]]))),
    (InvalidSpeeds, lambda: alpha_response(build_band_model([0.0, 0.25], [1, 1]),
                                           laplacian_generator(2), 1, 0.01, 0, ["1"] * 2)),
    (InvalidSpeeds, lambda: alpha_response(build_band_model([0.0, 0.25], [1, 1]),
                                           laplacian_generator(2), 1, 0.01, 0, np.full(2, 1j))),
], ids=["from_matrix", "from_matrix_empty", "from_matrix_non_numeric", "from_matrix_not_a_number",
        "from_matrix_ragged", "generator_not_square", "generator_null", "generator_int_overflow",
        "band_lengths", "model_lengths", "nan_speed", "infinite_speed", "none_speed",
        "string_speed", "int_overflow_speed", "ulam_no_kernel", "ulam_rows_without_w_eps",
        "ulam_both_kinds", "ulam_kernel_fibres", "ulam_kernel_axes", "ulam_rows_bands",
        "ulam_w_eps_fibres",
        "admissibility_dimension",
        "eig_not_square", "eig_non_finite", "alpha_direction", "generator_complex",
        "alpha_direction_strings", "alpha_direction_complex"])
def test_boundary_errors_are_typed(error, call):
    # typed library errors that still satisfy callers catching ValueError; the
    # records refuse what once ended in a bare TypeError, ValueError, IndexError or
    # OverflowError, or built (a non-square generator, an operator of no kind).
    # A complex generator once kept its real part, with a ComplexWarning, and
    # alpha_response parsed a direction of strings and kept a complex one's real part
    assert issubclass(error, RotorSpectraError) and issubclass(error, ValueError)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("matrix", [[["a"]], [[1.0, 2.0], [3.0]], [[10 ** 400]], [[{}]],
                                    [["-0.5", "0.5"], ["0.5", "-0.5"]], [[-0.5, "0.5"], [0.5, -0.5]],
                                    np.array([["1"]]), [[b"1"]]],
                         ids=["non_numeric", "ragged", "int_overflow", "not_a_number",
                              "numeric_strings", "one_numeric_string", "str_array", "bytes"])
def test_eigensolver_applies_the_generator_matrix_rule(matrix):
    # each once ended in a bare ValueError, OverflowError or TypeError, or
    # (numeric strings, which numpy parses) built or solved; the eigensolver
    # now refuses what the generator refuses
    for call in (eig_dense_complex, NoiseGenerator):
        with pytest.raises(InvalidMatrix):
            call(matrix)


#: an order-check grid below eps_max of the case study
GRID = [1e-2, 1e-3, 1e-4, 1e-5]


@pytest.mark.parametrize("error, match, call", [
    (EpsOutOfRange, "finite", lambda m, g: w_epsilon(g, math.nan)),
    (EpsOutOfRange, "finite", lambda m, g: w_epsilon(g, math.inf)),
    (EpsOutOfRange, "finite", lambda m, g: simulate(m, g, math.nan, 0.1, 2, 5, seed=1)),
    (EpsOutOfRange, "finite", lambda m, g: ulam_analytic(m, g, math.inf, 0.1, 8)),
    (InvalidSimulationInput, "delta", lambda m, g: spectrum(m, g, 1, 0.1, math.inf)),
    (InvalidSimulationInput, "delta", lambda m, g: spectrum(m, g, 1, 0.1, math.nan)),
    (InvalidSimulationInput, "delta", lambda m, g: spectrum(m, g, 1, 0.1, -0.05)),
    (InvalidSimulationInput, "delta", lambda m, g: delta_factor(1, -0.05)),
    (EpsOutOfRange, "finite", lambda m, g: w_epsilon(g, None)),
    (EpsOutOfRange, "finite", lambda m, g: spectrum(m, g, 1, "0.1")),
    (InvalidSimulationInput, "delta", lambda m, g: delta_factor(1, None)),
    (InvalidSimulationInput, "delta", lambda m, g: ulam_analytic(m, g, 0.1, "0.1", 16)),
    (InvalidSimulationInput, "integer",
     lambda m, g: detect_cycles(ulam_analytic(m, g, 0.1, 0.1, 16), m, 2.5)),
    (InvalidSimulationInput, "n_paths must be >= 0 and an integer, got n_paths=2.5",
     lambda m, g: simulate(m, g, 0.1, 0.1, 2.5, 5, 1)),
    (InvalidSimulationInput, "n_steps must be >= 0 and an integer, got n_steps=5.5",
     lambda m, g: simulate(m, g, 0.1, 0.1, 2, 5.5, 1)),
    (InvalidSimulationInput, "seed must be >= 0 and an integer, got seed=1.5",
     lambda m, g: simulate(m, g, 0.1, 0.1, 2, 5, 1.5)),
    (InvalidSimulationInput, "integer, got M=16.5",
     lambda m, g: ulam_analytic(m, g, 0.1, 0.1, 16.5)),
    (InvalidSimulationInput, "integer, got M=4.5",
     lambda m, g: ulam_empirical(simulate(m, g, 0.1, 0.1, 2, 5, 1), 4.5)),
    (DimensionMismatch, r"labels \[99\] are not integers in \[0, 33\)",
     lambda m, g: order_check(m, g, 1, 99, GRID)),
    (DimensionMismatch, r"labels \[-1\] are not",
     lambda m, g: order_check(m, g, 1, -1, GRID)),
    (DimensionMismatch, r"labels \[1.5\] are not",
     lambda m, g: order_check(m, g, 1, 1.5, GRID)),
    (DimensionMismatch, r"labels \[33\] are not",
     lambda m, g: order_checks(response_data(m, g, 1), [0, 33], GRID)),
    (DimensionMismatch, "labels must be a sequence, got 0",
     lambda m, g: order_checks(response_data(m, g, 1), 0, GRID)),
    (DimensionMismatch, r"labels \[99\] are not",
     lambda m, g: alpha_response(m, g, 1, 0.01, 99, np.ones(33))),
    (ConfigError, "Fourier index", lambda m, g: spectrum(m, g, 1.5, 0.1)),
    (ConfigError, "Fourier index", lambda m, g: m.phases(2 ** 32 + 1)),
    (ConfigError, "Fourier index", lambda m, g: limit_basis(m, g, 10 ** 400)),
    (ConfigError, "Fourier index", lambda m, g: response_data(m, g, 10 ** 400)),
    (ConfigError, "Fourier index", lambda m, g: oracle_crosscheck(m, g, 10 ** 400)),
    (InvalidSimulationInput, "integer, got n_paths=True",
     lambda m, g: simulate(m, g, 0.1, 0.1, True, 5, 1)),
    (InvalidSimulationInput, "integer, got n_steps=True",
     lambda m, g: simulate(m, g, 0.1, 0.1, 2, True, 1)),
    (InvalidSimulationInput, "integer, got seed=False",
     lambda m, g: simulate(m, g, 0.1, 0.1, 2, 5, False)),
    (InvalidSimulationInput, "top_m",
     lambda m, g: detect_cycles(ulam_analytic(m, g, 0.1, 0.1, 16), m, True)),
    (InvalidSimulationInput, "integer, got M=True",
     lambda m, g: ulam_analytic(m, g, 0.1, 0.1, True)),
    (ConfigError, "Fourier index", lambda m, g: spectrum(m, g, True, 0.1)),
    (ConfigError, "Fourier index", lambda m, g: m.phases(False)),
    (DimensionMismatch, r"labels \[True\] are not", lambda m, g: order_check(m, g, 1, True, GRID)),
    (ConfigError, "Fourier index", lambda m, g: delta_factor(None, 0.1)),
    (ConfigError, "Fourier index", lambda m, g: delta_factor("1", 0.1)),
    (ConfigError, "Fourier index", lambda m, g: delta_factor(True, 0.1)),
    (ConfigError, "Fourier index", lambda m, g: delta_factor(1.5, 0.1)),
    (ConfigError, "Fourier index", lambda m, g: delta_factor(2 ** 32 + 1, 0.1)),
    *[(EpsOutOfRange, "eps must be finite and nonnegative", call)
      for eps in (math.nan, -1) for call in (
          lambda m, g, eps=eps: rs.gershgorin_bound(g, eps),
          lambda m, g, eps=eps: rs.label_spectrum(
              m, g, 1, eps, eig_dense_complex(rs.assemble_fourier_block(m, g, 1, 0.1))))],
], ids=["w_eps_nan", "w_eps_inf", "simulate_eps_nan", "ulam_eps_inf", "spectrum_delta_inf",
        "spectrum_delta_nan", "spectrum_delta_negative", "delta_factor_negative",
        "w_eps_none", "spectrum_eps_string", "delta_factor_none", "ulam_delta_string",
        "top_m_fraction", "paths_fraction", "steps_fraction", "seed_fraction",
        "ulam_bins_fraction", "empirical_bins_fraction", "order_check_label_99",
        "order_check_label_negative", "order_check_label_fraction", "order_checks_label_33",
        "order_checks_bare_label", "alpha_response_label_99",
        "k_fraction", "k_above_max", "limit_k_huge", "response_k_huge",
        "oracle_k_huge", "bool_paths", "bool_steps", "bool_seed", "bool_top_m", "bool_bins",
        "bool_spectrum_k", "bool_phases_k", "bool_label", "delta_factor_k_none",
        "delta_factor_k_string", "delta_factor_k_bool", "delta_factor_k_fraction",
        "delta_factor_k_above_max", "gershgorin_eps_nan", "label_spectrum_eps_nan",
        "gershgorin_eps_negative", "label_spectrum_eps_negative"])
def test_out_of_range_parameters_are_refused(case_model, case_gen, error, match, call):
    # eps and delta must be finite numbers >= 0 (None and strings once ended in
    # a bare TypeError), top_m and the simulation counts
    # whole, k an integer within +-MAX_INDEX, as the config and the CLI already
    # require, and a label an integer within [0, N): ell = -1 used to check
    # label N - 1 and ell = 1.5 label 1.  A bool is no count or index: True
    # once ran as 1, or failed as a bare TypeError where numpy sized an array by it.
    # delta_factor applies the Fourier-index rule of phases: it read "1" and
    # True as 1, 1.5 as a sinc argument, and None ended in a bare TypeError.
    # The Gershgorin radius applies the eps rule: NaN gave a NaN radius, and
    # -1 a radius of -2 that labelling judged as AmbiguousLabelling
    with pytest.raises(error, match=match):
        call(case_model, case_gen)


@pytest.mark.parametrize("error, call", [
    (EpsOutOfRange, lambda m, g: w_epsilon(g, True)),
    (EpsOutOfRange, lambda m, g: spectrum(m, g, 1, np.True_)),
    (EpsOutOfRange, lambda m, g: simulate(m, g, False, 0.1, 2, 5, 1)),
    (InvalidSimulationInput, lambda m, g: spectrum(m, g, 1, 0.1, True)),
    (InvalidSimulationInput, lambda m, g: simulate(m, g, 0.1, True, 2, 5, 1)),
    (InvalidSimulationInput, lambda m, g: ulam_analytic(m, g, 0.1, np.False_, 16)),
    (InvalidSimulationInput, lambda m, g: delta_factor(1, True)),
], ids=["w_eps", "spectrum_eps", "simulate_eps", "spectrum_delta", "simulate_delta",
        "ulam_delta", "delta_factor"])
def test_bools_are_no_eps_or_delta(case_model, case_gen, error, call):
    # eps and delta follow the count rule: True once read as 1, so a spectrum
    # at delta = True came out all zeros with sinc = 0.0, and simulate ran
    with pytest.raises(error):
        call(case_model, case_gen)


@pytest.mark.parametrize("error, call", [
    *[(InvalidEpsGrid, lambda m, g, grid=grid: rs.response.check_eps_grid(g, grid))
      for grid in ([None, *GRID], ["a", *GRID], ["0.1", *GRID], 0.1)],
    (InvalidEpsGrid, lambda m, g: order_check(m, g, 1, 0, [*GRID[1:], "0.01"])),
    (InvalidEpsGrid, lambda m, g: order_checks(response_data(m, g, 1), [0], 0.1)),
    *[(InvalidEpsGrid, lambda m, g, grid=grid: rs.spectrum_convergence(limit_basis(m, g, 1), grid))
      for grid in ([None], ["a"], ["0.1"], 0.1)],
    (InvalidSpeeds, lambda m, g: alpha_response(m, g, 1, 0.01, 0, ["a"] * 33)),
    (InvalidEpsGrid, lambda m, g: rs.response.check_eps_grid(g, [10 ** 400, 0.1, 0.01, 0.001])),
    (InvalidEpsGrid, lambda m, g: rs.spectrum_convergence(limit_basis(m, g, 1), [10 ** 400])),
], ids=["grid_none", "grid_letter", "grid_string", "grid_bare_number", "order_check_string",
        "order_checks_bare_number", "convergence_none", "convergence_letter",
        "convergence_string", "convergence_bare_number", "direction_letters",
        "grid_beyond_float", "convergence_beyond_float"])
def test_non_numeric_grids_and_directions_are_typed(case_model, case_gen, error, call):
    # each once ended in a bare TypeError, ValueError or (an integer beyond the
    # float range) OverflowError, or read "0.1" as a number
    with pytest.raises(error):
        call(case_model, case_gen)


#: values that are no count, bin or sample number: a bool, a fraction, a
#: negative, no number, a numeric string, non-finite and complex numbers, and
#: a negative integer too long for Python to print
NO_COUNT = [True, 2.5, -1, None, "1", math.nan, math.inf, -math.inf, 1j, -10 ** 5000]
#: values that are no size of an array: no count, or an array numpy cannot lay out
NO_SIZE = [*NO_COUNT, 2 ** 62, 10 ** 400, 10 ** 5000]
#: values that are no eps (2.5 is one), and integers beyond the float range
NO_EPS = [True, -1, None, "1", math.nan, math.inf, -math.inf, 1j, 10 ** 400,
          10 ** 5000, -10 ** 5000]
#: values that are no label of a five-fibre model
NO_LABEL = [*NO_COUNT, 10 ** 400, 10 ** 5000]
#: values that are no entry of a real caller array (a bool, 2.5 and -1 are)
NO_ENTRY = [None, "1", math.nan, math.inf, -math.inf, 1j, 10 ** 400]


@pytest.fixture(scope="session")
def run_input_calls(tmp_path_factory):
    """Each public function that takes a run input, called on a two-band,
    five-fibre model with that input set to a given value: {(function, input):
    (call, values invalid for the input)}.  A grid, label list or array gets
    the value in place of one of its valid elements."""
    out = tmp_path_factory.mktemp("run_inputs")
    m, g = build_band_model([0.1, 0.35], [2, 3]), laplacian_generator(5)
    resp, basis, spec = response_data(m, g, 1), limit_basis(m, g, 1), spectrum(m, g, 1, 0.1)
    eig = eig_dense_complex(rs.assemble_fourier_block(m, g, 1, 0.1))
    batch, op = simulate(m, g, 0.1, 0.1, 4, 20, 0), ulam_analytic(m, g, 0.1, 0.1, 8)

    def generator(v):
        w = g.wdot.tolist()
        w[0][1] = v
        return NoiseGenerator(w)

    return {
        ("simulate", "seed"): (lambda v: simulate(m, g, 0.1, 0.1, 2, 5, v), NO_COUNT),
        ("simulate", "n_paths"): (lambda v: simulate(m, g, 0.1, 0.1, v, 5, 0), NO_SIZE),
        ("simulate", "n_steps"): (lambda v: simulate(m, g, 0.1, 0.1, 2, v, 0), NO_SIZE),
        ("ulam_analytic", "M"): (lambda v: ulam_analytic(m, g, 0.1, 0.1, v), NO_SIZE),
        ("ulam_empirical", "M"): (lambda v: ulam_empirical(batch, v), NO_SIZE),
        ("detect_cycles", "top_m"): (lambda v: detect_cycles(op, m, v), NO_COUNT),
        ("laplacian_generator", "N"): (laplacian_generator, NO_SIZE),
        ("label_spectrum", "eps"): (lambda v: rs.label_spectrum(m, g, 1, v, eig), NO_EPS),
        ("gershgorin_bound", "eps"): (lambda v: rs.gershgorin_bound(g, v), NO_EPS),
        ("spectrum_convergence", "eps point"): (
            lambda v: rs.spectrum_convergence(basis, [0.1, v]), NO_EPS),
        ("check_eps_grid", "eps point"): (
            lambda v: rs.response.check_eps_grid(g, [*GRID, v]), NO_EPS),
        ("order_checks", "eps point"): (lambda v: order_checks(resp, [0], [*GRID, v]), NO_EPS),
        ("order_checks", "label"): (lambda v: order_checks(resp, [0, v], GRID), NO_LABEL),
        ("alpha_response", "label"): (
            lambda v: alpha_response(m, g, 1, 0.01, v, np.ones(5)), NO_LABEL),
        ("alpha_response", "direction entry"): (
            lambda v: alpha_response(m, g, 1, 0.01, 0, [1.0, v, 1.0, 1.0, 1.0]), NO_ENTRY),
        ("NoiseGenerator", "matrix entry"): (generator, NO_ENTRY),
        ("write_grid_csv", "label"): (
            lambda v: writers.write_grid_csv(out / "grid.csv", spec, [0, v], 8), NO_LABEL),
        ("write_grid_csv", "x_res"): (
            lambda v: writers.write_grid_csv(out / "grid.csv", spec, [0], v), NO_SIZE),
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_run_input_refuses_an_invalid_value(run_input_calls, data):
    # one rule per run input, applied wherever the input enters: any other
    # exception, a numpy warning (an error in this suite) or a result fails
    key = data.draw(st.sampled_from(sorted(run_input_calls)), label="function, input")
    call, invalid = run_input_calls[key]
    value = data.draw(st.sampled_from(invalid), label="value")
    with pytest.raises(RotorSpectraError):
        call(value)


@pytest.mark.parametrize("error, message, call", [
    (InvalidSimulationInput, "n_paths and n_steps too large for numpy to lay out$",
     lambda m, g, v: simulate(m, g, 0.1, 0.1, v, 5, 0)),
    (InvalidSimulationInput, "n_paths and n_steps too large for numpy to lay out$",
     lambda m, g, v: simulate(m, g, 0.1, 0.1, 2, v, 0)),
    # numpy skips a zero extent and still refuses the others' product
    (InvalidSimulationInput, "n_paths and n_steps too large for numpy to lay out$",
     lambda m, g, v: simulate(m, g, 0.1, 0.1, 0, v, 0)),
    (InvalidSimulationInput, "M too large for numpy to lay out$",
     lambda m, g, v: ulam_analytic(m, g, 0.1, 0.1, v)),
    # its int32 step keys bound M far below numpy's layout
    (InvalidSimulationInput, r"N\^2 M = .+ step keys exceed the int32 range \(N=33, M=.+\)$",
     lambda m, g, v: ulam_empirical(simulate(m, g, 0.1, 0.1, 2, 5, 0), v)),
    (DimensionTooSmall, "N too large for numpy to lay out$",
     lambda m, g, v: laplacian_generator(v)),
    (ConfigError, "x_res too large for numpy to lay out$",
     lambda m, g, v: writers.write_grid_csv("never-written.csv", spectrum(m, g, 1, 0.1), [0], v)),
    (ConfigError, "x_res too large for numpy to lay out$",
     lambda m, g, v: writers.write_grid_csv("never-written.csv", spectrum(m, g, 1, 0.1), [], v)),
], ids=["simulate_paths", "simulate_steps", "simulate_steps_no_paths", "ulam_analytic_bins",
        "ulam_empirical_bins", "laplacian_size", "grid_samples", "grid_samples_no_labels"])
def test_sizes_beyond_numpy_index_range_are_refused(case_model, case_gen, error, message, call):
    # each size passes the count rule and the arrays it sizes the size rule:
    # 2**62 and 10**400 ended in a bare ValueError from numpy (simulate's
    # paths, the Laplacian's N, the grid's samples) or OverflowError
    # (ulam_analytic's bins), and 10**5000 fails no rule by being printed
    for size in (2 ** 62, 10 ** 400, 10 ** 5000):
        with pytest.raises(error, match=f"^{message}"):
            call(case_model, case_gen, size)


def test_seed_and_top_m_take_any_integer(two_band_model, two_band_gen):
    # neither sizes an array, so neither has the size bound
    batch = simulate(two_band_model, two_band_gen, 0.1, 0.1, 2, 3, 10 ** 400)
    assert batch.j.shape == (2, 4)
    op = ulam_analytic(two_band_model, two_band_gen, 0.1, 0.1, 8)
    every = detect_cycles(op, two_band_model, 10 ** 400)
    assert every.top_m == 10 ** 400
    assert len(every.cycles) >= len(detect_cycles(op, two_band_model, 1).cycles) == 1


#: an integer beyond Python's 4300-digit limit for printing one
HUGE = 10 ** 5000
UNPRINTED = "<int too long to print>"


@pytest.mark.parametrize("error, call, message", [
    (InvalidSimulationInput, lambda m, g: rs.model.check_delta(HUGE),
     f"delta must be finite and >= 0, got {UNPRINTED}"),
    (InvalidSimulationInput, lambda m, g: rs.model.check_delta(-HUGE),
     f"delta must be finite and >= 0, got {UNPRINTED}"),
    (EpsOutOfRange, lambda m, g: rs.model._check_eps(HUGE),
     f"eps must be finite and nonnegative, got {UNPRINTED}"),
    (InvalidSimulationInput, lambda m, g: simulate(m, g, 0.1, 0.1, 2, 5, -HUGE),
     f"seed must be >= 0 and an integer, got seed={UNPRINTED}"),
    (InvalidSimulationInput, lambda m, g: detect_cycles(ulam_analytic(m, g, 0.1, 0.1, 8), m, -HUGE),
     f"top_m must be >= 1 and an integer, got top_m={UNPRINTED}"),
    (DimensionMismatch, lambda m, g: order_checks(response_data(m, g, 1), [HUGE], GRID),
     "labels <list too long to print> are not integers in [0, 2)"),
    (InvalidEpsGrid, lambda m, g: rs.spectrum_convergence(limit_basis(m, g, 1), [HUGE]),
     "eps grid points must be finite and positive real numbers, "
     "got eps_grid=<list too long to print>"),
    (InvalidSpeeds, lambda m, g: build_band_model([HUGE], [3]),
     "band speeds must be real numbers, got <list too long to print>"),
    (InvalidSpeeds, lambda m, g: build_band_model([0.1, -HUGE], [1, 2]),
     "band speeds must be real numbers, got <list too long to print>"),
    (EmptyBand, lambda m, g: build_band_model([0.1], [-HUGE]),
     "band widths must be positive integers, got <tuple too long to print>"),
    (InvalidSimulationInput, lambda m, g: rs.Cycle(HUGE, (1.0,)),
     "a cycle needs a period and a band: a finite eigenvalue of nonzero argument and finite "
     f"real band masses, got eigenvalue {UNPRINTED} over band masses (1.0,)"),
], ids=["delta", "negative-delta", "eps", "seed", "top_m", "label", "eps-grid", "speed",
        "negative-speed", "width", "cycle-eigenvalue"])
def test_refusals_print_a_stand_in_for_what_python_cannot_print(
        two_band_model, two_band_gen, error, call, message):
    # printing an integer of over 4300 digits raises a bare ValueError; each
    # rule's message shows a short stand-in for it instead
    with pytest.raises(error) as exc:
        call(two_band_model, two_band_gen)
    assert str(exc.value) == message


#: every public function that takes a model and a generator (label_spectrum's
#: eigenpairs solved with the right generator); the records built from both,
#: a limit basis and a response record, carry their generator and are sized
#: by these constructors; validate_admissibility is in test_boundary_errors_are_typed
SIZED_CALLS = {
    "assemble_fourier_block": lambda m, g, ok: rs.assemble_fourier_block(m, g, 1, 0.1),
    "spectrum": lambda m, g, ok: rs.spectrum(m, g, 1, 0.1),
    "label_spectrum": lambda m, g, ok: rs.label_spectrum(
        m, g, 1, 0.1, eig_dense_complex(rs.assemble_fourier_block(m, ok, 1, 0.1))),
    "assemble_limit_matrix": lambda m, g, ok: rs.assemble_limit_matrix(m, g, 1),
    "limit_eigenbasis": lambda m, g, ok: rs.limit_eigenbasis(m, g, 1),
    "limit_basis": lambda m, g, ok: limit_basis(m, g, 1),
    "first_order_basis": lambda m, g, ok: rs.response.first_order_basis(m, g, 1),
    "response_data": lambda m, g, ok: response_data(m, g, 1),
    "second_order_eigenvalue": lambda m, g, ok: rs.second_order_eigenvalue(m, g, 1, 0),
    "eigenvector_response": lambda m, g, ok: rs.eigenvector_response(m, g, 1, 0),
    "order_check": lambda m, g, ok: order_check(m, g, 1, 0, GRID),
    "alpha_response": lambda m, g, ok: alpha_response(m, g, 1, 0.01, 0, np.ones(33)),
    "oracle_crosscheck": lambda m, g, ok: oracle_crosscheck(m, g, 1),
    "simulate": lambda m, g, ok: simulate(m, g, 0.1, 0.1, 5, 50, 0),
    "ulam_analytic": lambda m, g, ok: ulam_analytic(m, g, 0.1, 0.1, 16),
}


@pytest.mark.parametrize("size", [10, 40])
@pytest.mark.parametrize("name", SIZED_CALLS)
def test_generator_of_another_size_is_refused(case_model, case_gen, name, size):
    # one size rule: a smaller generator used to end in a bare ValueError or
    # IndexError, a larger one in results built from its top-left blocks
    with pytest.raises(DimensionMismatch, match=f"generator dimension {size} != model "
                                                f"dimension 33"):
        SIZED_CALLS[name](case_model, laplacian_generator(size), case_gen)


def test_labelling_refuses_eigenpairs_of_another_size(case_model, case_gen):
    eig = eig_dense_complex(np.diag(np.exp(-0.1j * np.arange(10))))
    with pytest.raises(DimensionMismatch, match="10 eigenpairs for a model of N=33"):
        rs.label_spectrum(case_model, case_gen, 1, 0.1, eig)
