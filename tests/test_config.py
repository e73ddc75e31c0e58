import math

import numpy as np
import pytest

from rotor_spectra import (BandModel, NoiseGenerator, case_study_config, laplacian_generator,
                           load_config, parse_config, w_epsilon)
from rotor_spectra.errors import ConfigError, RotorSpectraError
from rotor_spectra.model import _check_index, check_delta, check_dimension

#: an integer literal beyond the float range
BIG = "1" * 400
#: a valid two-band model, for the fields that follow it
TWO = '"beta": [0.1, 0.3], "L": [1, 1]'


class TestParseConfig:
    def test_case_study_exact_speeds(self):
        cfg = case_study_config()
        assert cfg.model.beta == (math.pi / 20, math.e / 7, 1 / math.sqrt(2))
        assert cfg.model.L == (11, 7, 15)
        assert cfg.model.N == 33
        assert cfg.delta == 0.1
        assert cfg.epsilons == (0.1,)
        assert cfg.ks == (1,)

    def test_decimal_speeds_and_matrix_generator(self):
        cfg = parse_config("""
        {"beta": [0.1, 0.3], "L": [1, 1],
         "generator": [[-0.5, 0.5], [0.5, -0.5]],
         "epsilons": [0.2], "ks": [0, 1]}
        """)
        assert cfg.model.beta == (0.1, 0.3)
        assert np.array_equal(cfg.gen.wdot, [[-0.5, 0.5], [0.5, -0.5]])

    def test_unknown_token(self):
        with pytest.raises(ConfigError, match="token"):
            parse_config('{"beta": ["pi/7"], "L": [2]}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{")

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config('{"beta": [0.1], "L": [1], "bogus": 3}')

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config('{"beta": [0.1]}')

    def test_generator_size_mismatch(self):
        with pytest.raises(ConfigError, match="generator dimension 1 != model dimension 2"):
            parse_config('{"beta": [0.1, 0.2], "L": [1, 1], "generator": [[0.0]]}')

    def test_duplicate_speed_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config('{"beta": [0.1, 0.1], "L": [1, 1]}')

    @pytest.mark.parametrize("beta, L, message", [
        ("[0.1, 0.2]", "[1]", "beta and L length mismatch: 2 vs 1"),
        ("[0.1, 0.2]", "[1.5, 2]", "band widths must be positive integers, got \\(1.5, 2\\)"),
        ("[0.1, 0.2]", '[true, "2"]',
         "band widths must be positive integers, got \\(True, '2'\\)"),
        ("[0.1]", "[2.0]", "band widths must be positive integers, got \\(2.0,\\)"),
    ], ids=["length", "float", "bool-string", "integral-float"])
    def test_bad_widths(self, beta, L, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f'{{"beta": {beta}, "L": {L}}}')

    def test_negative_delta(self):
        with pytest.raises(ConfigError):
            parse_config('{"beta": [0.1], "L": [2], "delta": -0.2}')

    @pytest.mark.parametrize("number, message", [
        ("NaN", "invalid 'epsilons': eps must be finite and nonnegative, got nan$"),
        ("Infinity", "invalid 'epsilons': eps must be finite and nonnegative, got inf$"),
        ("-Infinity", "invalid 'epsilons': eps must be finite and nonnegative, got -inf$"),
        ("1e999", "invalid 'epsilons': eps must be finite and nonnegative, got inf$"),
        (BIG, f"invalid 'epsilons': eps must be finite and nonnegative, got {BIG}$"),
        ("9" * 5000, "invalid JSON: Exceeds the limit \\(4300 digits\\)")],
        ids=["NaN", "Infinity", "-Infinity", "1e999", "int-400-digits", "int-5000-digits"])
    def test_non_finite_numbers(self, number, message):
        # JSON's non-finite and oversized numbers meet the eps rule, as any
        # other number does; Python's json refuses an integer of over 4300 digits
        with pytest.raises(ConfigError, match=message):
            parse_config(f'{{"beta": [0.1], "L": [2], "epsilons": [{number}]}}')

    def test_bad_epsilons(self):
        for eps in ["[-1.0]", "[]"]:
            with pytest.raises(ConfigError, match="'epsilons'"):
                parse_config(f'{{"beta": [0.1], "L": [2], "epsilons": {eps}}}')

    def test_bad_ks(self):
        for ks in ["[1.5]", "[]", f"[-{BIG}]"]:
            with pytest.raises(ConfigError):
                parse_config(f'{{"beta": [0.1], "L": [2], "ks": {ks}}}')

    @pytest.mark.parametrize("k", [2 ** 32 + 1, -(2 ** 32) - 1, 10 ** 300, 2 ** 53 + 1])
    def test_ks_beyond_2_to_32(self, k):
        with pytest.raises(ConfigError, match="2\\*\\*32"):
            parse_config(f'{{"beta": [0.1], "L": [2], "ks": [1, {k}]}}')

    def test_ks_at_2_to_32(self):
        cfg = parse_config(f'{{"beta": [0.1], "L": [2], "ks": [{2 ** 32}, {-(2 ** 32)}]}}')
        assert cfg.ks == (2 ** 32, -(2 ** 32))


@pytest.mark.parametrize("fields, library", [
    ('"beta": [0.1, 0.3], "L": [1, 0]', lambda: BandModel([0.1, 0.3], [1, 0])),
    ('"beta": [0.1, 0.3], "L": [1, 1.5]', lambda: BandModel([0.1, 0.3], [1, 1.5])),
    ('"beta": [0.1, 0.3], "L": [1, "1"]', lambda: BandModel([0.1, 0.3], [1, "1"])),
    ('"beta": [0.1, 0.3], "L": [1]', lambda: BandModel([0.1, 0.3], [1])),
    ('"beta": [], "L": []', lambda: BandModel([], [])),
    ('"beta": [0.1], "L": [1]', lambda: laplacian_generator(1)),
    (TWO + ', "generator": [[0.0]]',
     lambda: check_dimension(BandModel([0.1, 0.3], [1, 1]), NoiseGenerator([[0.0]]))),
    (TWO + ', "generator": [[0, 1], [1]]', lambda: NoiseGenerator([[0, 1], [1]])),
    (TWO + ', "ks": [1, 1.5]', lambda: _check_index(1.5)),
    (TWO + ', "ks": [true]', lambda: _check_index(True)),
    (TWO + ', "ks": ["1"]', lambda: _check_index("1")),
    (TWO + f', "ks": [{2 ** 32 + 1}]', lambda: _check_index(2 ** 32 + 1)),
    ('"beta": [0.1, true], "L": [1, 1]', lambda: BandModel([0.1, True], [1, 1])),
    ('"beta": [0.1, null], "L": [1, 1]', lambda: BandModel([0.1, None], [1, 1])),
    ('"beta": [0.1, [0.3]], "L": [1, 1]', lambda: BandModel([0.1, [0.3]], [1, 1])),
    ('"beta": [0.1, 0.1], "L": [1, 1]', lambda: BandModel([0.1, 0.1], [1, 1])),
    (TWO + ', "delta": -0.2', lambda: check_delta(-0.2)),
    (TWO + ', "delta": "0.1"', lambda: check_delta("0.1")),
    (TWO + ', "delta": false', lambda: check_delta(False)),
    (TWO + ', "epsilons": [0.1, -1.0]', lambda: w_epsilon(laplacian_generator(2), -1.0)),
    (TWO + ', "epsilons": [true]', lambda: w_epsilon(laplacian_generator(2), True)),
    (TWO + ', "epsilons": [null]', lambda: w_epsilon(laplacian_generator(2), None)),
    (TWO + ', "delta": NaN', lambda: check_delta(math.nan)),
    ('"beta": [0.1, -Infinity], "L": [1, 1]', lambda: BandModel([0.1, -math.inf], [1, 1])),
    (TWO + ', "ks": [1e999]', lambda: _check_index(math.inf)),
    (TWO + f', "epsilons": [{BIG}]', lambda: w_epsilon(laplacian_generator(2), int(BIG))),
    (TWO + ', "generator": [[-0.5, 0.5], [0.5, Infinity]]',
     lambda: NoiseGenerator([[-0.5, 0.5], [0.5, math.inf]])),
], ids=["width-zero", "width-float", "width-string", "length", "no-band", "generator-size",
        "generator-model-size", "generator-ragged", "ks-float", "ks-bool", "ks-string",
        "ks-beyond-2**32", "speed-bool", "speed-null", "speed-list", "speed-duplicate",
        "delta-negative", "delta-string", "delta-bool", "eps-negative", "eps-bool", "eps-null",
        "delta-nan", "speed-infinity", "ks-overflow", "eps-400-digits", "generator-infinity"])
def test_config_refusal_is_the_library_refusal(fields, library):
    # the config applies the model's rule for each input, so its message is the
    # library's message for the same value
    with pytest.raises(RotorSpectraError) as refused:
        library()
    with pytest.raises(ConfigError) as config:
        parse_config(f"{{{fields}}}")
    assert str(refused.value) in str(config.value)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"beta": [0.25], "L": [3]}', encoding="utf-8")
        cfg = load_config(p)
        assert cfg.model.N == 3
        assert cfg.raw == '{"beta": [0.25], "L": [3]}'
