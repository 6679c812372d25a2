"""Count the code lines of ``src/signalmfg``: non-blank, non-comment, non-docstring.

Run as ``python tools/code_lines.py``, from any directory.  Prints one line
per module and the total.  A line counts when a token other than a comment
lies on it, so a statement split over several lines counts each of them;
docstrings (of modules, classes and functions) are found with ``ast`` and
left out.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code other than a docstring."""
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "src" / "signalmfg"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
