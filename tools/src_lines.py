"""Line counts of the package's modules: ``wc -l`` lines and code-only lines.

Code-only lines leave out blank lines, comment lines and the lines of every
docstring (of a module, class or function, found with ``ast``).  These are
the two counts that ROADMAP.md and CHANGES.md quote.

Usage: ``python tools/src_lines.py [package directory]`` (default
``src/rotor_spectra`` beside this script's directory).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(``wc -l`` lines, code-only lines) of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return text.count("\n"), code


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "rotor_spectra"
    root = Path(argv[1]) if len(argv) > 1 else default
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        wc, code = counts(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total_wc:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
