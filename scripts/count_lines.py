"""Print the code lines of each module of the reflekt package, and their total.

A code line holds at least one token that is neither a comment nor a
docstring.  Docstrings are the string statements `ast.get_docstring` reads
(the first statement of a module, class or function); blank lines, comment
lines and the lines of a docstring do not count.

Usage: python scripts/count_lines.py [package_dir]
(package_dir defaults to src/reflekt next to this script.)  To count the
package as a git revision REV holds it, run the script on an extract:
`git archive REV src/reflekt | tar -x -C DIR`, then package_dir
DIR/src/reflekt.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            out.update(range(doc.lineno, doc.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv=None) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "reflekt"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package_dir", nargs="?", type=Path, default=default)
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.package_dir.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
