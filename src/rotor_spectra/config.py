"""Run configuration: JSON model files and the speed-token whitelist.

Schema (all keys except ``beta`` and ``L`` optional)::

    {
      "beta": [number | "pi/20" | "e/7" | "1/sqrt2", ...],
      "L": [int, ...],
      "generator": "laplacian" | [[...], ...],
      "delta": number,
      "epsilons": [number, ...],
      "ks": [int, ...]
    }

Only the three listed string tokens are accepted for irrational speeds, so
the case-study model is expressible exactly; everything else must be a
decimal literal.  Non-finite numbers (``NaN``, ``Infinity`` or a literal that
overflows a float, integer literals included) and empty ``epsilons`` or
``ks`` are refused with ConfigError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, RotorSpectraError
from .model import BandModel, NoiseGenerator, build_band_model, laplacian_generator

SPEED_TOKENS = {
    "pi/20": math.pi / 20.0,
    "e/7": math.e / 7.0,
    "1/sqrt2": 1.0 / math.sqrt(2.0),
}


@dataclass(frozen=True)
class RunConfig:
    model: BandModel
    gen: NoiseGenerator
    delta: float
    epsilons: tuple[float, ...]
    ks: tuple[int, ...]
    raw: str                     # verbatim file contents, hashed into manifests


def _speed(value):
    if isinstance(value, str):
        if value not in SPEED_TOKENS:
            raise ConfigError(
                f"unknown speed token {value!r}; allowed: {sorted(SPEED_TOKENS)}")
        return SPEED_TOKENS[value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"speed must be a number or token, got {value!r}")


def _non_finite(token: str):
    shown = token if len(token) <= 24 else f"{token[:12]}... ({len(token)} characters)"
    raise ConfigError(f"non-finite number {shown} in config")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):         # an overflowing literal such as 1e999
        _non_finite(token)
    return value


def _finite_int(token: str) -> int:
    _finite_float(token)                 # an integer literal beyond the float range
    return int(token)


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text, parse_constant=_non_finite, parse_float=_finite_float,
                         parse_int=_finite_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be an object")
    unknown = set(doc) - {"beta", "L", "generator", "delta", "epsilons", "ks"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "beta" not in doc or "L" not in doc:
        raise ConfigError("config requires 'beta' and 'L'")
    if not isinstance(doc["beta"], list) or not isinstance(doc["L"], list):
        raise ConfigError("'beta' and 'L' must be arrays")
    beta = [_speed(b) for b in doc["beta"]]
    try:
        L = [int(x) for x in doc["L"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'L' must be integers: {exc}") from exc
    try:
        model = build_band_model(beta, L)
    except RotorSpectraError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    spec = doc.get("generator", "laplacian")
    if spec == "laplacian":
        gen = laplacian_generator(model.N)
    elif isinstance(spec, list):
        try:
            gen = NoiseGenerator.from_matrix(spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid generator matrix: {exc}") from exc
        if gen.N != model.N:
            raise ConfigError(
                f"generator is {gen.N}x{gen.N} but the model has N={model.N}")
    else:
        raise ConfigError("generator must be 'laplacian' or an explicit matrix")

    delta = doc.get("delta", 0.0)
    if not isinstance(delta, (int, float)) or isinstance(delta, bool) or delta < 0:
        raise ConfigError(f"delta must be a nonnegative number, got {delta!r}")
    eps = doc.get("epsilons", [0.1])
    ks = doc.get("ks", [1])
    if not isinstance(eps, list) or not eps or not all(
            isinstance(e, (int, float)) and not isinstance(e, bool) and e >= 0 for e in eps):
        raise ConfigError("'epsilons' must be a nonempty array of nonnegative numbers")
    if not isinstance(ks, list) or not ks or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in ks):
        raise ConfigError("'ks' must be a nonempty array of integers")
    return RunConfig(model=model, gen=gen, delta=float(delta),
                     epsilons=tuple(float(e) for e in eps),
                     ks=tuple(int(k) for k in ks), raw=text)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


#: the three-band case-study model, expressed with exact speed tokens
CASE_STUDY_JSON = """\
{
  "beta": ["pi/20", "e/7", "1/sqrt2"],
  "L": [11, 7, 15],
  "generator": "laplacian",
  "delta": 0.1,
  "epsilons": [0.1],
  "ks": [1]
}
"""


def case_study_config() -> RunConfig:
    return parse_config(CASE_STUDY_JSON)
