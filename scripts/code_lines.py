"""Count the code lines of each module of a package directory.

Usage: python3 scripts/code_lines.py [DIR] [--against REV]

DIR defaults to this checkout's `src/dilogeq`.  A line counts when it
holds part of a token other than a comment, and is not part of a
docstring (the leading string of a module, class or function body), so
blank, comment and docstring lines are not counted; a statement that
spans lines counts each of them.  Prints one line per module, sorted by
name, and the total.

With --against REV, a git revision of this checkout such as HEAD, the
revision is exported with `git archive` into a temporary directory and
each line gives the module's count there and in DIR (`-` where a module
is missing); a last line gives the change of the total.  DIR must then be
inside this checkout.
"""

import argparse
import ast
import io
import subprocess
import tempfile
import tokenize
from pathlib import Path

from report_diff import ROOT, export_revision

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


def directory_counts(directory: Path) -> dict[str, int]:
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.py"))
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "dilogeq")
    ap.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = ap.parse_args()
    tables = [directory_counts(args.directory)]
    if args.against is not None:
        if not args.directory.resolve().is_relative_to(ROOT):
            ap.error(f"{args.directory} is not inside {ROOT}")
        with tempfile.TemporaryDirectory() as exported:
            try:
                old = export_revision(args.against, Path(exported))
            except subprocess.CalledProcessError:
                ap.error(f"{args.against} is not a git revision")
            tables.insert(0, directory_counts(old / args.directory.resolve().relative_to(ROOT)))
    names = sorted(set().union(*tables))
    width = max(map(len, [*names, "total"]))
    for name in names:
        print(f"{name:<{width}}" + "".join(f"  {table.get(name, '-'):>5}" for table in tables))
    totals = [sum(table.values()) for table in tables]
    print(f"{'total':<{width}}" + "".join(f"  {n:>5}" for n in totals))
    if args.against is not None:
        print(f"change {totals[1] - totals[0]:+d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
