"""Print the net change in code-only lines of each directory between two
commits, then `path: before -> after (+n)` for each `.py` file in it whose
count changed (0 for a file that one commit lacks).  Code-only lines hold
a Python token, not counting blank lines, comments or docstrings.

    python .github/scripts/code_lines.py BASE HEAD src tests
"""

import ast
import io
import subprocess
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token other than a
    comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def counts(rev: str, directory: str) -> dict:
    """Code-only lines of each `.py` file under `directory` at `rev`."""
    files = git("ls-tree", "-r", "--name-only", rev, "--", directory).split()
    return {path: code_lines(git("show", f"{rev}:{path}"))
            for path in files if path.endswith(".py")}


def main() -> None:
    base, head, *dirs = sys.argv[1:]
    for directory in dirs:
        before, after = counts(base, directory), counts(head, directory)
        total_before, total_after = sum(before.values()), sum(after.values())
        print(f"{directory}/: {total_before} -> {total_after} code-only lines, "
              f"net {total_after - total_before:+d}")
        for path in sorted(before.keys() | after.keys()):
            old, new = before.get(path, 0), after.get(path, 0)
            if old != new:
                print(f"  {path}: {old} -> {new} ({new - old:+d})")


if __name__ == "__main__":
    main()
