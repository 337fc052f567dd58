"""Whisker construction of unmixed balanced height-3 trees and its inverse.

Every unmixed balanced height-3 tree arises from the 7-vertex path by
repeatedly attaching a whisker at a vertex of height 1, 2, or 3 (a pendant
path of length 1, 4, or 3 respectively). ``generate`` drives seeded random
whisker sequences, ``deconstruct`` peels an arbitrary such tree back to the
base path, and ``replay`` rebuilds a tree from the recorded trace.
"""

from __future__ import annotations

import bisect
import heapq
from itertools import compress

from .errors import InputError, MixedTreeError, TheoremViolation
from .graphs import (
    Graph,
    Tree,
    _created,
    _graph_of,
    _Record,
    classify_vertices,
    is_isomorphic,
    leaf_distances,
)
from .jsontext import dumps
from .treegen import Lcg64
from .unmixed import Analysis, characterize_balanced_unmixed

KIND_LEAF = "height1-leaf"
KIND_WHISKER4 = "height2-whisker4"
KIND_WHISKER3 = "height3-whisker3"

_KIND_BY_HEIGHT = {1: KIND_LEAF, 2: KIND_WHISKER4, 3: KIND_WHISKER3}
# heights of a whisker's new vertices, from the attachment point outward
_WHISKER_HEIGHTS = {KIND_LEAF: (0,), KIND_WHISKER4: (3, 2, 1, 0), KIND_WHISKER3: (2, 1, 0)}


class TraceStep(_Record):
    _fields = ("attach", "kind")

    def __init__(self, attach: str, kind: str):
        d = self.__dict__
        d["attach"] = attach
        d["kind"] = kind


class ConstructionTrace(_Record):
    """Whisker replay log over the canonical base path (labels "0".."6")."""

    _fields = ("steps",)

    def __init__(self, steps: tuple[TraceStep, ...]):
        self.__dict__["steps"] = steps

    def __len__(self):
        return len(self.steps)

    def to_json(self) -> str:
        payload = {
            "base": "P6",
            "steps": [{"attach_label": s.attach, "kind": s.kind} for s in self.steps],
        }
        return dumps(payload) + "\n"


def fresh_labels(existing, count: int) -> list[str]:
    """Next labels from the "w<n>" namespace, skipping any already taken."""
    taken = set(existing)
    out = []
    n = 1
    while len(out) < count:
        cand = f"w{n}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        n += 1
    return out


def apply_o(t: Tree, v: str) -> Tree:
    """Attach the whisker dictated by height(v): lengths 1, 4, 3 at heights
    1, 2, 3. Heights of existing vertices are unchanged."""
    g = t.graph
    i = g.index[v]
    h = leaf_distances(g.adj, range(g.n))[i]
    if h not in _KIND_BY_HEIGHT:
        raise ValueError(f"whisker attachment needs height 1..3, got height {h} at {v!r}")
    kind = _KIND_BY_HEIGHT[h]
    fresh = fresh_labels(g.labels, len(_WHISKER_HEIGHTS[kind]))
    nbrs = [list(nb) for nb in g.adj]
    prev = i
    for p in range(g.n, g.n + len(fresh)):
        nbrs[prev].append(p)
        nbrs.append([prev])
        prev = p
    return _created([*g.labels, *fresh], nbrs)


# The base path P6 on "0".."6": its labels, neighbors and heights by
# creation position, and its attachment points (heights 1..3) in label order
_BASE_LABELS = ("0", "1", "2", "3", "4", "5", "6")
_BASE_NBRS = ((1,), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5,))
_BASE_HEIGHT = (0, 1, 2, 3, 2, 1, 0)
_BASE_ELIGIBLE = ("1", "2", "3", "4", "5")
_BASE_TREE = _created(_BASE_LABELS, _BASE_NBRS)


def base_tree() -> Tree:
    """The base path P6, built once."""
    return _BASE_TREE


class _Growth:
    """Whisker growth from the base path, one step at a time.

    Keeps each label's creation position (a dict in creation order), the
    neighbor lists and heights by creation position, the sorted labels of
    height 1..3 (the attachment points) and the "w<k>" counter up to date,
    and builds the tree once at the end. This is exact: a whisker leaves
    every existing height
    unchanged and gives its new vertices the fixed heights in
    ``_WHISKER_HEIGHTS``, and the base labels are digits, so the counter
    yields what ``fresh_labels`` would.
    """

    __slots__ = ("position", "nbrs", "height", "eligible", "fresh")

    def __init__(self):
        self.position = {"0": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5, "6": 6}
        self.nbrs = [list(nb) for nb in _BASE_NBRS]
        self.height = list(_BASE_HEIGHT)
        self.eligible = list(_BASE_ELIGIBLE)
        self.fresh = 0

    def attach(self, v: str) -> TraceStep:
        position, nbrs, height = self.position, self.nbrs, self.height
        prev = position[v]
        kind = _KIND_BY_HEIGHT[height[prev]]
        for h in _WHISKER_HEIGHTS[kind]:
            self.fresh += 1
            w = f"w{self.fresh}"
            p = len(nbrs)
            position[w] = p
            nbrs[prev].append(p)
            nbrs.append([prev])
            height.append(h)
            if h in _KIND_BY_HEIGHT:
                bisect.insort(self.eligible, w)
            prev = p
        return TraceStep(attach=v, kind=kind)

    def tree(self) -> Tree:
        return _created(list(self.position), self.nbrs)


def replay(trace: ConstructionTrace) -> Tree:
    """Rebuild the tree from the base path, drawing fresh labels in order."""
    growth = _Growth()
    for step in trace.steps:
        h = growth.height[growth.position[step.attach]]
        if _KIND_BY_HEIGHT.get(h) != step.kind:
            raise ValueError(
                f"step kind {step.kind} does not match height {h} of {step.attach!r}"
            )
        growth.attach(step.attach)
    return growth.tree()


def generate(seed: int, steps: int) -> tuple[Tree, ConstructionTrace]:
    """Seeded random whisker sequence from the base path.

    Every non-leaf vertex of the current tree is eligible; the choice is
    uniform under the pinned LCG, so a (seed, steps) pair fully determines
    the output and replaying the returned trace reproduces it bit-exactly.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = Lcg64(seed)
    growth = _Growth()
    recorded = []
    for _ in range(steps):
        eligible = growth.eligible
        recorded.append(growth.attach(eligible[rng.randrange(len(eligible))]))
    return growth.tree(), ConstructionTrace(steps=tuple(recorded))


# ---------------------------------------------------------------------------
# Leaf normalization and deconstruction
# ---------------------------------------------------------------------------

def leaf_normalize(t: Tree) -> tuple[Tree, dict[str, int]]:
    """Keep exactly one leaf per support (the smallest label); count removals."""
    cls = classify_vertices(t)
    if not cls.leaves:
        raise ValueError("leaf normalization needs at least one leaf")
    g = t.graph
    leaves = set(cls.leaves)
    removed: dict[str, int] = {}
    drop: set[str] = set()
    for s in cls.supports:
        mine = sorted(v for v in g.neighbors(s) if v in leaves and v not in drop)
        if len(mine) > 1:
            removed[s] = len(mine) - 1
            drop.update(mine[1:])
    kept = [i for i, v in enumerate(g.labels) if v not in drop]
    return Tree(g.subgraph(kept)), removed


def _branch(nbrs, r: int, x: int) -> dict[int, int]:
    """The branch beyond x away from its neighbor r, with each vertex's
    distance from x."""
    depth = {x: 0}
    order = [x]
    for v in order:
        for w in nbrs[v]:
            if w != r and w not in depth:
                depth[w] = depth[v] + 1
                order.append(w)
    return depth


def _peel(g: Graph, height: list[int], alive: list[bool]):
    """Peel whiskers off the tree of ``g``'s live vertices down to the base
    path.

    ``alive`` flags the live vertices and ``height`` gives each vertex its
    height in their tree; the vertices peeled are cleared in ``alive``.
    Returns the rounds (attach, kind, chain) in peel order, as indices, the
    chain listing the removed vertices from the attachment point outward,
    and the base path's indices in path order from its smaller end. Works
    on one mutable adjacency with the heights given. Each round checks that
    they stay exact: the chain follows its whisker's height pattern, and the
    attachment point keeps two neighbors, one of them a level below it, so
    no leaf appears and the chain's leaf was never the nearest one.
    """
    lab = g.labels
    nbrs = [{j for j in nb if alive[j]} for nb in g.adj]
    # neighbors at height 3, counted at height 2 (the candidates), and
    # neighbors one level below, counted at heights 2 and 3 (the attachment
    # points); no other vertex reads them
    up3 = [0] * g.n
    down = [0] * g.n
    for i, h in enumerate(height):
        if h == 2:
            for j in nbrs[i]:
                hj = height[j]
                if hj == 3:
                    up3[i] += 1
                elif hj == 1:
                    down[i] += 1
        elif h == 3:
            down[i] = sum(1 for j in nbrs[i] if height[j] == 2)
    n3 = height.count(3)
    # heap of height-2 vertices with a unique height-3 neighbor; indices
    # follow label order, and entries gone stale are dropped from the top
    cands = [i for i, c in enumerate(up3) if c == 1]
    peeled = []
    while True:
        while cands and not (alive[cands[0]] and up3[cands[0]] == 1):
            heapq.heappop(cands)
        if not cands:
            raise TheoremViolation(
                "no height-2 vertex with a unique height-3 neighbor exists"
            )
        u = cands[0]
        r = next(j for j in nbrs[u] if height[j] == 3)
        if len(nbrs[r]) > 2:
            attach, kind, cut = r, KIND_WHISKER3, _branch(nbrs, r, u)
        elif n3 > 1:
            u_other = next(w for w in nbrs[r] if w != u)
            attach, kind, cut = u_other, KIND_WHISKER4, _branch(nbrs, u_other, r)
        else:
            live = list(compress(range(g.n), alive))
            if not is_isomorphic(Tree(g.subgraph(live)), base_tree()):
                raise TheoremViolation(
                    "terminal deconstruction case reached away from the base path"
                )
            path = [next(i for i in live if len(nbrs[i]) == 1)]
            while len(path) < len(live):
                path.append(next(j for j in nbrs[path[-1]] if j not in path))
            return peeled, path
        want = len(_WHISKER_HEIGHTS[kind])
        if len(cut) != want:
            raise TheoremViolation(
                f"peeled branch has {len(cut)} vertices, expected {want}"
            )
        chain = sorted(sorted(cut), key=cut.__getitem__)  # ties in label order
        lower_left = down[attach] - (height[chain[0]] == height[attach] - 1)
        if (
            tuple([height[v] for v in chain]) != _WHISKER_HEIGHTS[kind]
            or len(nbrs[attach]) < 3
            or lower_left < 1
        ):
            raise TheoremViolation(
                f"whisker peeled at {lab[attach]!r} would change the remaining heights"
            )
        for v in chain:
            alive[v] = False
            hv = height[v]
            if hv == 3:
                n3 -= 1
            for w in nbrs[v]:
                nbrs[w].discard(v)
                hw = height[w]
                if hw == 2:
                    if hv == 3:
                        up3[w] -= 1
                        if up3[w] == 1:
                            heapq.heappush(cands, w)
                    elif hv == 1:
                        down[w] -= 1
                elif hw == 3 and hv == 2:
                    down[w] -= 1
        peeled.append((attach, kind, chain))


def deconstruct(t: Tree) -> ConstructionTrace:
    """Peel an unmixed balanced height-3 tree back to the base path.

    Each support keeps its smallest leaf and its other leaves are set aside
    up front, which changes no height; they are recorded as height-1 steps
    at the end of the trace. Each round then picks the smallest-label
    height-2 vertex u with a unique height-3 neighbor r (such a u must
    exist); if deg(r) > 2 the branch beyond u is a 3-vertex whisker recorded
    at r, otherwise (with more than one height-3 vertex) the branch beyond
    r's other neighbor u' is a 4-vertex whisker recorded at u'. Replaying
    the trace yields a tree isomorphic to the input.
    """
    facts = Analysis(t)
    if not characterize_balanced_unmixed(facts).unmixed:
        raise MixedTreeError("deconstruction requires an unmixed balanced tree")
    height = facts.height
    if max(height) != 3:
        raise InputError("deconstruction requires height exactly 3")

    g = t.graph
    alive = [True] * g.n
    spare = []  # the support of each leaf set aside, in label order
    for s, nb in enumerate(g.adj):
        if height[s] == 1:
            leaves = [j for j in nb if height[j] == 0]
            for j in leaves[1:]:
                alive[j] = False
                spare.append(s)
    peeled, base = _peel(g, height, alive)

    # translate into the replay namespace: the base path becomes "0".."6"
    # from its smaller end, re-attached chains take "w1", "w2", ... in
    # replay order
    rename = {v: str(k) for k, v in enumerate(base)}
    counter = 0
    steps: list[TraceStep] = []
    for attach, kind, chain in reversed(peeled):
        steps.append(TraceStep(attach=rename[attach], kind=kind))
        for v in chain:
            counter += 1
            rename[v] = f"w{counter}"
    steps.extend(TraceStep(attach=rename[s], kind=KIND_LEAF) for s in spare)
    return ConstructionTrace(steps=tuple(steps))


# ---------------------------------------------------------------------------
# Suspension and complete edge subdivision
# ---------------------------------------------------------------------------

def suspension(t: Tree) -> Tree:
    """Attach one fresh leaf to every vertex."""
    g = t.graph
    n = g.n
    nbrs = [[*nb, n + i] for i, nb in enumerate(g.adj)] + [[i] for i in range(n)]
    return _created([*g.labels, *fresh_labels(g.labels, n)], nbrs)


def edge_subdivision(g) -> Graph:
    """Insert one fresh vertex in the middle of every edge, the fresh labels
    handed out in edge order: (a, b) with a < b, by a, then by b."""
    g = _graph_of(g)
    n = g.n
    nbrs = [[] for _ in range(n)]
    for i, nb in enumerate(g.adj):
        for j in nb:
            if i < j:
                m = len(nbrs)
                nbrs[i].append(m)
                nbrs[j].append(m)
                nbrs.append([i, j])
    return _created([*g.labels, *fresh_labels(g.labels, len(nbrs) - n)], nbrs, tree=False)
