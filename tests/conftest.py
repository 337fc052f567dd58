from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from totaldom.graphs import Tree
from totaldom.treegen import trees_up_to


@pytest.fixture(scope="session")
def trees8() -> tuple[Tree, ...]:
    """Every free tree on at most 8 vertices (48 trees)."""
    return tuple(trees_up_to(8))


@pytest.fixture(scope="session")
def trees9() -> tuple[Tree, ...]:
    """Every free tree on at most 9 vertices (95 trees)."""
    return tuple(trees_up_to(9))


@pytest.fixture(scope="session")
def trees10() -> tuple[Tree, ...]:
    """Every free tree on at most 10 vertices (201 trees)."""
    return tuple(trees_up_to(10))


@pytest.fixture()
def paper_p4() -> Tree:
    """The 5-vertex path whose mixedness the decomposition example exhibits."""
    return Tree.from_edges([("l1", "s1"), ("s1", "u"), ("u", "s2"), ("s2", "l2")])


@pytest.fixture()
def paper_p5() -> Tree:
    """The 6-vertex path carrying the S-restricted decomposition example."""
    return Tree.from_edges([(f"v{i}", f"v{i + 1}") for i in range(1, 6)])


@pytest.fixture()
def paper_tree8() -> Tree:
    """The 8-vertex tree (path plus one extra leaf on a support) whose four
    minimal TD-sets open the decomposition discussion."""
    return Tree.from_edges(
        [
            ("v1", "v4"),
            ("v2", "v4"),
            ("v4", "v6"),
            ("v6", "v8"),
            ("v8", "v7"),
            ("v7", "v5"),
            ("v5", "v3"),
        ]
    )


@pytest.fixture()
def fence_tree() -> Tree:
    """Tree with supports s1..s5 on a u/r spine; its interior forests give
    type 2 * 2 = 4."""
    edges = [(f"s{i}", f"l{i}") for i in range(1, 6)]
    edges += [(f"s{i}", f"u{i}") for i in range(1, 6)]
    edges += [
        ("u1", "r1"),
        ("u2", "r1"),
        ("u2", "u3"),
        ("u3", "r2"),
        ("u4", "r2"),
        ("u4", "r3"),
        ("u5", "r3"),
    ]
    return Tree.from_edges(edges)
