"""The equivalence gate of ROADMAP aim 2: the CLI's outputs from two source
trees, compared byte for byte.

Each invocation below runs as a fresh ``python -m rotor_spectra.cli``
process against each tree, in a fresh working directory that holds the
case-study config (``model.json``), its N = 99 variant (``scaled.json``,
L = 33, 21, 45) and the bad configs of the refusal cases.  Every file the
run leaves there, its stdout, its stderr and its exit code are compared;
each that differs is printed, and the exit code is 0 only when nothing
differs (1 otherwise, 2 for bad usage).

The invocations are README's CLI block (``readme-*``, as written), the
case study and its scaled variant through every command (``valid-*``) and
refusals of bad input (``refuse-*``).  A change that means to alter a
refusal's message or exit code reports it there, so ``--only`` selects
invocations by name (``re.search``), as ``--only '^(readme|valid)-'`` for
the valid ones.

Usage: ``python tools/equivalence.py BASE_SRC CHANGE_SRC [--only REGEX]``,
where each ``*_SRC`` is a directory holding the ``rotor_spectra`` package,
as a checkout's ``src``.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the case-study config, as ``rotor_spectra.config.CASE_STUDY_JSON`` holds it
CASE_STUDY = """\
{
  "beta": ["pi/20", "e/7", "1/sqrt2"],
  "L": [11, 7, 15],
  "generator": "laplacian",
  "delta": 0.1,
  "epsilons": [0.1],
  "ks": [1]
}
"""

#: every config of a working directory: the case study, its scaled variant
#: and one bad number per refusal case
CONFIGS = {
    "model.json": CASE_STUDY,
    "scaled.json": CASE_STUDY.replace("[11, 7, 15]", "[33, 21, 45]"),
    **{f"eps-{name}.json": CASE_STUDY.replace('"epsilons": [0.1]', f'"epsilons": [{number}]')
       for name, number in [("negative", "-1"), ("nan", "NaN"), ("overflow", "1e999"),
                            ("400-digits", "1" * 400), ("5000-digits", "9" * 5000)]},
}

BIG = str(10 ** 400)
#: a count within numpy's index range whose arrays numpy cannot lay out
HUGE = str(2 ** 62)

#: (name, arguments after the subcommand's name) of the invocations besides README's
INVOCATIONS = [
    ("valid-casestudy-x256", "casestudy --out o --x-res 256"),
    ("valid-spectrum-sweep", "spectrum --config model.json --out o --k 1,2 "
                             "--eps 0.001,0.05,0.2,0.5"),
    ("valid-response-case", "response --config model.json --out o --k 0,1,2"),
    ("valid-response-scaled", "response --config scaled.json --out o --k 0,1,2"),
    ("valid-oracle-case", "oracle --config model.json --out o --k 1,2"),
    ("valid-oracle-scaled", "oracle --config scaled.json --out o --k 1,2"),
    ("valid-limit", "limit --config model.json --out o --k 1,2"),
    ("valid-simulate-paths", "simulate --config model.json --out o --paths 20 --steps 1000 "
                             "--seed 3"),
    ("valid-validate-out", "validate --config model.json --out o"),
    ("refuse-spectrum-eps-nan", "spectrum --config model.json --out o --eps nan"),
    ("refuse-spectrum-eps-negative", "spectrum --config model.json --out o --eps=-1"),
    ("refuse-limit-eps-negative", "limit --config model.json --out o --eps=-1"),
    ("refuse-limit-eps-zero", "limit --config model.json --out o --eps 0,0.1"),
    ("refuse-simulate-eps-negative", "simulate --config model.json --out o --eps=-1"),
    ("refuse-casestudy-eps-negative", "casestudy --out o --eps=-1"),
    ("refuse-response-grid-nan", "response --config model.json --out o "
                                 "--eps 0.01,0.001,nan,0.0001"),
    ("refuse-response-grid-short", "response --config model.json --out o "
                                   "--eps 0.01,0.001,0.0001"),
    ("refuse-spectrum-delta-negative", "spectrum --config model.json --out o --delta=-0.1"),
    ("refuse-spectrum-k-beyond", "spectrum --config model.json --out o --k 4294967297"),
    ("refuse-casestudy-k-list", "casestudy --out o --k 1,4294967297"),
    ("refuse-casestudy-x-res-beyond", f"casestudy --out o --x-res {BIG}"),
    ("refuse-casestudy-x-res-zero", "casestudy --out o --x-res 0"),
    ("refuse-simulate-bins-beyond", f"simulate --config model.json --out o --bins {BIG}"),
    ("refuse-simulate-paths-2**62", f"simulate --config model.json --out o --paths {HUGE} "
                                    "--steps 5"),
    ("refuse-simulate-steps-2**62", f"simulate --config model.json --out o --steps {HUGE}"),
    ("refuse-simulate-bins-2**62", f"simulate --config model.json --out o --bins {HUGE}"),
    ("refuse-casestudy-x-res-2**62", f"casestudy --out o --x-res {HUGE}"),
    *[(f"refuse-config-eps-{name}", f"spectrum --config eps-{name}.json --out o")
      for name in ("negative", "nan", "overflow", "400-digits", "5000-digits")],
]


def readme_invocations(readme: Path) -> list[tuple[str, str]]:
    """README's CLI block, one (name, arguments) per command, as written."""
    text = readme.read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", text, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return [(f"readme-{argv[1]}", shlex.join(argv[1:])) for argv in commands]


def run(src: Path, args: str, work: Path) -> dict:
    """One invocation in a fresh working directory: {name: bytes} of every
    file it leaves there, and its stdout, stderr and exit code."""
    work.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (work / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "rotor_spectra.cli", *shlex.split(args)],
                          cwd=work, env=env, capture_output=True)
    result = {str(p.relative_to(work)): p.read_bytes()
              for p in sorted(work.rglob("*")) if p.is_file()}
    result.update({"<stdout>": done.stdout, "<stderr>": done.stderr,
                   "<exit code>": str(done.returncode).encode()})
    return result


def differences(base: dict, change: dict) -> list[str]:
    """What differs between two runs, one line each."""
    lines = []
    for key in sorted(set(base) | set(change)):
        if key not in change:
            lines.append(f"{key}: only in base")
        elif key not in base:
            lines.append(f"{key}: only in change")
        elif base[key] != change[key]:
            if key.startswith("<"):
                lines.append(f"{key}: {base[key][:300]!r} -> {change[key][:300]!r}")
            else:
                old, new = base[key].splitlines(), change[key].splitlines()
                row = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                           min(len(old), len(new)))
                lines.append(f"{key}: differs from line {row + 1}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--only", default="", help="regex: run only the invocations it matches")
    args = parser.parse_args(argv)
    for src in (args.base_src, args.change_src):
        if not (src / "rotor_spectra" / "__init__.py").is_file():
            parser.error(f"{src} holds no rotor_spectra package")
    chosen = [(name, cmd) for name, cmd in readme_invocations(ROOT / "README.md") + INVOCATIONS
              if re.search(args.only, name)]
    if not chosen:
        parser.error(f"no invocation matches {args.only!r}")
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, cmd) in enumerate(chosen):
            base, change = (run(src.resolve(), cmd, Path(tmp, side, str(i)))
                            for side, src in (("base", args.base_src),
                                              ("change", args.change_src)))
            found = differences(base, change)
            differing += bool(found)
            for line in found:
                print(f"{name}: {line}")
    print(f"{differing} of {len(chosen)} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
