"""The package's public surface, read from the source with ``ast``.

Every public top-level function or class of ``src/totaldom``, and every
public method or property of its classes, is used in the package outside
its own definition, so it sits on a ``totaldom`` subcommand or a ``verify``
check; what only the tests need lives in ``tests/oracles.py``. A function
or class counts as used when its name is referenced anywhere else in the
package, and a method only when it is read as an attribute (``x.name``)
there: a local variable of the same name does not keep it.
"""

from __future__ import annotations

import ast
from pathlib import Path

MODULES = {
    p.stem: ast.parse(p.read_text(encoding="utf-8"))
    for p in (Path(__file__).resolve().parents[1] / "src" / "totaldom").glob("*.py")
}

# Public names with no use in the package, each with the reason it stays.
ALLOWED_UNUSED = {
    name: "perfbench/tracer.py looks it up by name to time it"
    for name in ("branch", "is_s_td_set", "is_minimal_set", "two_coloring", "leaf_normalize",
                 "minimal_s_td_sets", "minimal_transversals")
}


def _references(node: ast.AST) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    ]


def _attributes(node: ast.AST) -> list[str]:
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def _definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    return [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


REFERENCES = [r for name, tree in MODULES.items() if name != "__init__" for r in _references(tree)]
ATTRIBUTES = [r for name, tree in MODULES.items() if name != "__init__" for r in _attributes(tree)]


def test_every_public_definition_is_used_in_the_package():
    unused = [
        f"{name}.{d.name}"
        for name, tree in MODULES.items() for d in _definitions(tree)
        if not d.name.startswith("_") and d.name not in ALLOWED_UNUSED
        and REFERENCES.count(d.name) == _references(d).count(d.name)
    ]
    assert unused == []
    defined = {d.name for tree in MODULES.values() for d in _definitions(tree)}
    assert set(ALLOWED_UNUSED) <= defined


def test_init_imports_only_defined_names():
    missing = []
    for node in MODULES["__init__"].body:
        if isinstance(node, ast.ImportFrom):
            tree = MODULES[node.module]
            bound = {d.name for d in _definitions(tree)} | {
                t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
            }
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in bound]
    assert missing == []


def test_every_public_method_is_used_in_the_package():
    unused = [
        f"{name}.{cls.name}.{m.name}"
        for name, tree in MODULES.items()
        for cls in _definitions(tree) if isinstance(cls, ast.ClassDef)
        for m in cls.body
        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
        and ATTRIBUTES.count(m.name) == _attributes(m).count(m.name)
    ]
    assert unused == []


def _position_dicts(tree: ast.Module) -> list[int]:
    """Lines of dict comprehensions ``{v: k for k, v in enumerate(...)}``
    that map each item to its position."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.DictComp) and len(node.generators) == 1:
            gen = node.generators[0]
            if (
                isinstance(gen.iter, ast.Call) and isinstance(gen.iter.func, ast.Name)
                and gen.iter.func.id == "enumerate"
                and isinstance(gen.target, ast.Tuple) and isinstance(gen.target.elts[0], ast.Name)
                and isinstance(node.value, ast.Name) and node.value.id == gen.target.elts[0].id
            ):
                lines.append(node.lineno)
    return lines


def test_only_graphs_maps_labels_to_bit_positions():
    # label v of a sorted ground is bit i: graphs.Ground is that codec
    found = {
        name: lines for name, tree in MODULES.items() if name != "graphs"
        if (lines := _position_dicts(tree))
    }
    assert found == {}
