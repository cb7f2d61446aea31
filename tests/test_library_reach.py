"""Everything defined in ``src/dimlab`` is reached by what runs.

A top-level function or class, or a method that is not a dunder, must be
referenced (as a name or an attribute) by the package itself, by the
benchmark under ``perfbench/`` (its span table names functions in dotted
strings), or by the acceptance tests.  A reference implementation that
only unit tests compare against lives in ``tests/oracles.py`` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree):
    """(qualified name, referenced name) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def _span_targets(tree):
    """Every part of the dotted attribute strings in ``spans.SPANS``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPANS" for t in node.targets)):
            for entry in node.value.elts:
                yield from entry.elts[1].value.split(".")


def test_every_library_name_is_reached():
    library = [_parse(p) for p in sorted((ROOT / "src" / "dimlab").glob("*.py"))]
    bench = [_parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set(_span_targets(_parse(ROOT / "perfbench" / "spans.py")))
    for tree in library + bench + [_parse(ROOT / "tests" / "test_acceptance.py")]:
        used |= _references(tree)
    unreached = sorted(qual for tree in library
                       for qual, name in _definitions(tree) if name not in used)
    assert unreached == []
