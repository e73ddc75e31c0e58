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
decimal literal.  The parser keeps the rules of JSON itself: the object's
shape and keys, arrays where arrays are due, nonempty ``epsilons`` and
``ks``, the speed tokens and the generator's kind.  Every number, ``NaN``,
``Infinity``, an overflowing literal such as ``1e999`` and an integer
beyond the float range included, is judged only by the model's rule for its
key, applied to the parsed values: the speed and width rules of
``BandModel``, ``laplacian_generator``'s size, ``NoiseGenerator``'s matrix
rule, ``check_dimension``, the Fourier-index rule ``_check_index``
(``|k| <= 2**32``) for each of ``ks``, ``check_delta`` and the eps rule
``_check_eps`` of ``w_epsilon``.  Each refusal is a ConfigError holding the
library's message; text that Python's ``json`` cannot read (an integer of
over 4300 digits included) is ``invalid JSON``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, RotorSpectraError
from .model import (BandModel, NoiseGenerator, _check_eps, _check_index, check_delta,
                    check_dimension, laplacian_generator)

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
    """A speed token's value; any other entry is left to BandModel's speed rule."""
    if not isinstance(value, str):
        return value
    if value not in SPEED_TOKENS:
        raise ConfigError(f"unknown speed token {value!r}; allowed: {sorted(SPEED_TOKENS)}")
    return SPEED_TOKENS[value]


def _apply(what: str, rule, *args):
    """``rule(*args)``, a library refusal re-raised as ConfigError with the
    library's message after ``what``."""
    try:
        return rule(*args)
    except RotorSpectraError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except ValueError as exc:            # JSONDecodeError, or an integer of over 4300 digits
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
    model = _apply("invalid model", BandModel, [_speed(b) for b in doc["beta"]], doc["L"])
    spec = doc.get("generator", "laplacian")
    if spec == "laplacian":
        gen = _apply("invalid model", laplacian_generator, model.N)
    elif isinstance(spec, list):
        gen = _apply("invalid generator matrix", NoiseGenerator, spec)
        _apply("invalid generator matrix", check_dimension, model, gen)
    else:
        raise ConfigError("generator must be 'laplacian' or an explicit matrix")
    delta = doc.get("delta", 0.0)
    _apply("invalid 'delta'", check_delta, delta)
    eps, ks = doc.get("epsilons", [0.1]), doc.get("ks", [1])
    for name, values, rule in (("epsilons", eps, _check_eps), ("ks", ks, _check_index)):
        if not isinstance(values, list) or not values:
            raise ConfigError(f"'{name}' must be a nonempty array")
        for value in values:
            _apply(f"invalid '{name}'", rule, value)
    return RunConfig(model=model, gen=gen, delta=float(delta),
                     epsilons=tuple(map(float, eps)), ks=tuple(ks), raw=text)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config(text)


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
