"""Count the code lines of each module of a package directory.

Usage: python3 scripts/code_lines.py [DIR]

DIR defaults to this checkout's `src/dilogeq`.  A line counts when it
holds part of a token other than a comment, and is not part of a
docstring (the leading string of a module, class or function body), so
blank, comment and docstring lines are not counted; a statement that
spans lines counts each of them.  Prints one line per module, sorted by
name, and the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", default=str(ROOT / "src" / "dilogeq"))
    args = ap.parse_args()
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(Path(args.directory).glob("*.py"))
    }
    width = max(map(len, [*counts, "total"]))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
