import math

import numpy as np
import pytest

from rotor_spectra import case_study_config, load_config, parse_config
from rotor_spectra.errors import ConfigError

#: an integer literal beyond the float range
BIG = "1" * 400


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
        with pytest.raises(ConfigError, match="N=2"):
            parse_config('{"beta": [0.1, 0.2], "L": [1, 1], "generator": [[0.0]]}')

    def test_duplicate_speed_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config('{"beta": [0.1, 0.1], "L": [1, 1]}')

    def test_negative_delta(self):
        with pytest.raises(ConfigError):
            parse_config('{"beta": [0.1], "L": [2], "delta": -0.2}')

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999",
                                        pytest.param(BIG, id="int-400-digits"),
                                        pytest.param("9" * 5000, id="int-5000-digits")])
    def test_non_finite_numbers(self, number):
        with pytest.raises(ConfigError, match="non-finite"):
            parse_config(f'{{"beta": [0.1], "L": [2], "epsilons": [{number}]}}')

    def test_bad_epsilons(self):
        for eps in ["[-1.0]", "[]"]:
            with pytest.raises(ConfigError, match="'epsilons'"):
                parse_config(f'{{"beta": [0.1], "L": [2], "epsilons": {eps}}}')

    def test_bad_ks(self):
        for ks in ["[1.5]", "[]", f"[-{BIG}]"]:
            with pytest.raises(ConfigError):
                parse_config(f'{{"beta": [0.1], "L": [2], "ks": {ks}}}')


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
