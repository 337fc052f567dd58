"""Memory that stays flat from one request to the next.

``tuple()`` of an iterator with no length allocates a guessed size (ten
items) and resizes it. On every call that takes one block from the free
list of ten-item tuples and, once the result dies, parks one in the free
list of its own size, where it stays until a full garbage collection: an
``analyze`` process grew by megabytes over its passes this way. So the
package builds every label tuple at its final size, from a list. The static
guard rejects ``tuple()`` of a call that yields an unsized iterator, or of a
generator expression; the dynamic guard counts the blocks that repeated
calls leave allocated.

A tree's one component is also the graph's own index ints: a second list of
fresh ints would hold one more int object per vertex above 256.
"""

from __future__ import annotations

import ast
import gc
import sys
from pathlib import Path

import pytest

from totaldom.graphs import Tree, classify_vertices, parse_graph, render_edge_list, two_coloring
from totaldom.treegen import Lcg64, random_tree
from totaldom.unmixed import interior_graphs

SRC = Path(__file__).resolve().parents[1] / "src" / "totaldom"
UNSIZED = {"compress", "map", "filter", "zip", "chain", "chain.from_iterable"}


def _unsized_tuples(tree: ast.Module) -> list[int]:
    """Lines of ``tuple(x)`` calls whose ``x`` is a generator expression or
    a call of one of ``UNSIZED``."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "tuple" and len(node.args) == 1
        ):
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call)
                and ast.unparse(arg.func).removeprefix("itertools.") in UNSIZED
            ):
                lines.append(node.lineno)
    return lines


def test_no_tuple_is_built_from_an_unsized_iterator():
    found = {
        p.name: lines for p in sorted(SRC.glob("*.py"))
        if (lines := _unsized_tuples(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_guard_sees_each_unsized_form():
    text = "\n".join([
        "tuple(compress(a, b))", "tuple(map(f, a))", "tuple(filter(f, a))",
        "tuple(zip(a, b))", "tuple(chain(a, b))", "tuple(itertools.chain.from_iterable(a))",
        "tuple(x for x in a)",
        # sized or built at their final size
        "tuple([x for x in a])", "tuple(list(map(f, a)))", "tuple(sorted(a))", "tuple(a)",
    ])
    assert _unsized_tuples(ast.parse(text)) == [1, 2, 3, 4, 5, 6, 7]


# 60 random trees of 8-37 vertices, the sizes of analyze's Prufer trees
TREES = [random_tree(Lcg64(s), 8 + s % 30) for s in range(60)]
ROUNDS = 20


def _added_blocks(fn) -> int:
    """The allocated blocks that ``ROUNDS`` passes of ``fn`` over ``TREES``
    leave behind, after one warm-up pass. A full collection first empties
    the free lists, then collection stays off, so no free list is emptied
    while the passes run."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for t in TREES:
            fn(t)
        before = sys.getallocatedblocks()
        for _ in range(ROUNDS):
            for t in TREES:
                fn(t)
        return sys.getallocatedblocks() - before
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("fn", [classify_vertices, two_coloring, interior_graphs],
                         ids=lambda fn: fn.__name__)
def test_repeated_calls_leave_few_blocks(fn):
    # Built through tuple(compress(...)) these added 1,738, 2,141 and 2,081
    # blocks on CPython 3.11 (graphs.heights, which builds no tuple, adds
    # 1); at their final size, 21, 61 and 161. What is left comes from the
    # 20-item tuples: on 3.11 and 3.12, 1,000 calls of tuple(x) on a 20-item
    # list leave 1,002 blocks, and on 19 or 21 items 2, so a dead 20-item
    # tuple is kept and not reused, up to the free list's cap. 3.10 and 3.13
    # leave 4 and 2, and there the three add 5 to 31 and 1.
    added = _added_blocks(fn)
    assert added < len(TREES) * ROUNDS // 3, added


def test_a_tree_holds_one_int_object_per_vertex():
    t = random_tree(Lcg64(5), 700)
    text = render_edge_list(t.graph)
    edges = [line.split() for line in text.splitlines()]
    for tree in (t, Tree(parse_graph(text)), Tree.from_edges(edges)):
        (comp,) = tree.component_indices
        assert comp == list(range(700))
        assert all(comp[j] is j for nb in tree.graph.adj for j in nb)
