"""Every public name in the package has a caller outside the tests.

A public top-level function or class, or a public method, is referenced
somewhere in the package, the benchmark, the demos, the README or the CI
workflows, outside its own definition and outside the definitions of names
that have no caller themselves.  A name only tests reach is a test-only
wrapper and belongs in the tests.
"""
import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xzmeas"


def _definitions(path: Path):
    """(name, file, first line, last line) of each public definition."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        methods = [m for m in node.body if isinstance(node, ast.ClassDef)
                   and isinstance(m, ast.FunctionDef)]
        for d in [node, *methods]:
            if not d.name.startswith("_"):
                first = min([d.lineno] + [x.lineno for x in d.decorator_list])
                yield d.name, path, first, d.end_lineno


def _uses(path: Path):
    """(name, line) of the names a Python file uses: loaded names,
    attributes, imported names, and strings that are a whole identifier
    (``getattr``-style lookups)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def test_every_public_name_has_a_caller_outside_tests():
    package = sorted(PACKAGE.glob("*.py"))
    sources = [*package, *sorted((ROOT / "bench").glob("*.py")),
               *sorted((ROOT / "demos").glob("*.py"))]
    uses = defaultdict(list)
    for path in sources:
        for name, line in _uses(path):
            uses[name].append((path, line))
    docs = [ROOT / "README.md", *sorted((ROOT / ".github" / "workflows").glob("*.yml"))]
    text = "\n".join(p.read_text() for p in docs if p.exists())
    defs = [d for path in package for d in _definitions(path)]

    def called(d, dead):
        name, path, first, last = d
        blocks = [(p, f, e) for _, p, f, e in dead] + [(path, first, last)]
        return re.search(rf"\b{name}\b", text) is not None or any(
            not any(p == bp and f <= line <= e for bp, f, e in blocks)
            for p, line in uses[name])

    dead = []  # a name used only by dead names is dead too
    while new := [d for d in defs if d not in dead and not called(d, dead)]:
        dead += new
    assert not dead, "public names with no caller outside tests: " + ", ".join(
        f"{path.name}:{first} {name}" for name, path, first, _ in dead)
