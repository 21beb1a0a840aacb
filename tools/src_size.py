"""Print the package's size per module: all lines, then code lines and
public names.

Code lines are those that are not blank, not a comment and not part of a
module, class or function docstring.  Public names are the length of the
module's ``__all__`` ("-" for a module without one).  Run from anywhere:

    python tools/src_size.py
"""

import ast
import importlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)


def main() -> None:
    paths = sorted((ROOT / "src" / "atomris").glob("*.py"))
    texts = {path.relative_to(ROOT).as_posix(): path.read_text() for path in paths}
    lines = {name: text.count("\n") for name, text in texts.items()}  # as `wc -l` counts
    width = len(str(sum(lines.values())))
    print("lines")
    for name, n in lines.items():
        print(f"{n:{width}d} {name}")
    print(f"{sum(lines.values())} total")
    print("code lines, public names")
    total = names = 0
    for name, text in texts.items():
        code = code_lines(text)
        public = getattr(importlib.import_module(f"atomris.{pathlib.Path(name).stem}"),
                         "__all__", None)
        total += code
        names += len(public or ())
        print(f"{code:6d} {'-' if public is None else len(public):>4} {name}")
    print(f"{total:6d} {names:>4} total")


if __name__ == "__main__":
    main()
