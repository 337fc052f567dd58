"""Square-free monomial ideals, open-neighborhood ideals and prime
decompositions, held as index data over one ``graphs.Ground``.

Only the combinatorial layer is modeled: an ideal is its unique minimal
monomial generating set over an ambient variable list, and coefficients
never appear. A ``MonomialIdeal`` is square-free: it holds a ``Ground``
whose labels are its variables and its generators as sorted index tuples
over it, in grlex order (N(G) holds the graph's own ``adj`` tuples). A
``PrimeDecomposition`` holds its supports as masks over a ``Ground`` of its
variables, sorted by value, and a parametric one also the exponent of the
shared pure power of each variable. Two objects compare by this index data,
and labels are decoded only when ``supports`` or a rendering is read.

Square-free decomposition goes through minimal transversals of the
generator supports. A decomposition is checked by Berge duality on masks:
the minimal transversals of its prime supports, with the pure powers of a
parametric one, must give back the generators, so the check never
re-expands the intersection. ``PrimeDecomposition.to_ideal`` does re-expand
a square-free one, as the independent oracle of ``verify``: a fold of
pairwise lcms on masks. An ideal of pure powers and square-free monomials,
as an Artinian reduction is, is minimalized and rendered straight from its
exponents and masks (``_minimal_generators``, ``_render``).
``tests/oracles.py`` keeps label monomials and ideals, with their sums and
intersections, as twins of these.
"""

from __future__ import annotations

from .domination import MinimalSetFamily, minimal_transversal_masks
from .errors import NotSquareFreeError, TheoremViolation
from .graphs import (
    Ground,
    VertexSet,
    _bit_indices,
    _columns,
    _fact,
    _graph_of,
    _lift,
    _Record,
    vset,
)

# Decompositions of at least this many supports are tested for
# irredundancy column-wise (``_has_comparable_pair``); below it the pair
# test is cheaper. Taken from timings on subfamilies of the minimal TD-sets
# of ``generate(7, 16)``.
_COLUMNS_FROM = 64


class MonomialIdeal(_Record):
    """A square-free monomial ideal over the labels of ``ground``, a
    ``Ground`` whose labels are the variables. ``rows`` holds the minimal
    generators as sorted index tuples over it, in grlex order (size, then
    lexicographic); the empty tuple is the unit generator, and no row is the
    zero ideal. Two ideals are equal when their variables and rows are.
    """

    def __init__(self, ground: Ground, rows: tuple[tuple[int, ...], ...]):
        d = self.__dict__
        d["ground"] = ground
        d["rows"] = rows

    def _key(self) -> tuple:
        return self.ground.labels, self.rows

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ground.labels

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_unit(self) -> bool:
        rows = self.rows
        return len(rows) == 1 and not rows[0]

    def generator_strings(self) -> list[str]:
        """Each generator as its ``*``-joined labels, in order; ``1`` for
        the unit generator."""
        labels = self.ground.labels
        return ["*".join([labels[j] for j in row]) if row else "1" for row in self.rows]

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(self.generator_strings())

    def __repr__(self):
        return f"MonomialIdeal<{self.render()}>"


def _minimal_generators(powers, masks) -> tuple[list[int], list[tuple[int, int]]]:
    """The minimal generators of the ideal of the pure powers
    x_k^powers[k] and the square-free monomials ``masks`` (bit k for
    variable k): the square-free ones as an antichain of masks sorted by
    value, x_k^1 among them, and the pure powers of exponent 2 or more that
    none of those divides, as (k, exponent) pairs in k order."""
    square = set(masks)
    square.update([1 << k for k, p in enumerate(powers) if p == 1])
    kept = sorted([m for m in square if not any(s != m and s & m == s for s in square)])
    high = [
        (k, p) for k, p in enumerate(powers)
        if p > 1 and not any(m | 1 << k == 1 << k for m in kept)
    ]
    return kept, high


def _render(variables: tuple[str, ...], powers, masks) -> str:
    """The ideal of the pure powers x_k^powers[k] and the square-free
    ``masks`` over the sorted ``variables`` (bit k for variable k),
    minimalized and written in grlex order as ``MonomialIdeal.render``
    writes it, a power as ``v^p``.

    In one degree, grlex order over sorted variables is the lexicographic
    order of the index sequences that repeat each variable by its exponent,
    so a mask sorts by its set bits and x_k^p by p copies of k.
    """
    kept, high = _minimal_generators(powers, masks)
    keyed = []
    for m in kept:
        row = _bit_indices(m)
        keyed.append((len(row), row, "*".join([variables[j] for j in row]) or "1"))
    keyed += [(p, (k,) * p, f"{variables[k]}^{p}") for k, p in high]
    keyed.sort()
    return ", ".join([text for _, _, text in keyed]) or "0"


def _row_masks(rows, bit) -> list[int]:
    """Each index tuple of ``rows`` as a mask, index j at bit ``bit[j]``."""
    masks = []
    for row in rows:
        m = 0
        for j in row:
            m |= 1 << bit[j]
        masks.append(m)
    return masks


# ---------------------------------------------------------------------------
# Graph-attached ideals
# ---------------------------------------------------------------------------

def open_neighborhood_ideal(g, s=None) -> MonomialIdeal:
    """The ideal generated by the neighborhood monomials of the vertices in S,
    over all vertices of the graph.

    S defaults to all of V. An isolated vertex in S contributes the empty
    product, i.e. the unit ideal.

    The generators are the graph's own sorted neighbor index tuples
    ``g.adj[i]``, held as the rows of the ideal over ``g``. On square-free
    monomials of one degree the grlex order is the lexicographic order of
    those tuples, and a divisor of a generator comes before it in that
    order, so one pass in grlex order both drops the non-minimal ones and
    orders the rest. A kept tuple divides a later one only if its lowest
    vertex is among the later one's, so the kept tuples are bucketed by
    their lowest vertex and each tuple is tested against the buckets of its
    own vertices only. The empty tuple of an isolated vertex comes first and
    divides every later one.
    """
    g = _graph_of(g)
    if s is None:
        targets = range(g.n)
    else:
        index = g.index
        targets = [index[v] for v in vset(s)]
    adj = g.adj
    supports = {adj[i] for i in targets}
    by_low: dict[int, list[tuple[int, ...]]] = {}
    rows = []
    for nbrs in sorted(supports, key=lambda nbrs: (len(nbrs), nbrs)):
        if not nbrs:
            rows.append(nbrs)
            break
        own = set(nbrs)
        if not any(own.issuperset(k) for j in nbrs for k in by_low.get(j, ())):
            by_low.setdefault(nbrs[0], []).append(nbrs)
            rows.append(nbrs)
    return MonomialIdeal(g, tuple(rows))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

class PrimeDecomposition(_Record):
    """Irredundant intersection of variable primes, optionally shifted by a
    shared pure-power ideal (the parametric form).

    ``ground`` is a ``Ground`` whose labels are the variables, and
    ``masks`` holds the supports as masks over it, sorted by value.
    ``pure_powers`` is None, or the exponent p_k of the pure power x_k^p_k
    of each variable, in variable order. The supports are decoded on their
    first read (sorted label tuples, as ``MinimalSetFamily.sets``). Two
    decompositions are equal when their variables, masks and pure powers
    are.
    """

    _fields = ("variables", "supports", "pure_powers")

    def __init__(self, ground: Ground, masks: tuple[int, ...],
                 pure_powers: tuple[int, ...] | None = None):
        d = self.__dict__
        d["ground"] = ground
        d["masks"] = masks
        d["pure_powers"] = pure_powers

    def _key(self) -> tuple:
        return self.ground.labels, self.masks, self.pure_powers

    @classmethod
    def from_family(cls, family: MinimalSetFamily) -> PrimeDecomposition:
        """The decomposition whose supports are the members of ``family``,
        over the vertices of its graph, with no check."""
        return cls(family.graph, family.masks)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ground.labels

    @_fact
    def supports(self) -> tuple[VertexSet, ...]:
        return self.ground.sets_of(self.masks)

    def __len__(self):
        return len(self.masks)

    def to_ideal(self) -> MonomialIdeal:
        """The intersection of the primes, re-expanded by pairwise lcms on
        bitmasks (``_intersect_primes``).

        Square-free only: a parametric decomposition raises
        NotSquareFreeError; ``validate_decomposition`` checks it by duality.
        """
        if self.pure_powers is not None:
            shown = _render(self.variables, self.pure_powers, ())
            raise NotSquareFreeError(f"not square-free: pure powers {shown}")
        return _intersect_primes(self.ground, self.masks)


def _intersect_primes(ground: Ground, supports) -> MonomialIdeal:
    """The intersection of the variable primes P_S over the labels of
    ``ground``, for the support masks S over it, folded prime by prime from
    the unit ideal.

    Every generator is square-free, so it is a bitmask and the lcm of two
    is their OR. Each step takes every pairwise OR of the current generators
    with the variables of the next prime and keeps the inclusion-minimal
    ones, tested in popcount order: a mask can only contain masks of a
    smaller popcount. This is the plain intersection, not Berge duality, so
    it stays independent of ``validate_decomposition``. The generators are
    put in grlex order once, as index tuples, at the end.
    """
    gens = [0]
    for sup in supports:
        bits = []
        while sup:
            low = sup & -sup
            bits.append(low)
            sup ^= low
        cands = sorted({g | b for g in gens for b in bits}, key=int.bit_count)
        gens = []
        for m in cands:
            for k in gens:
                if k & m == k:
                    break
            else:
                gens.append(m)
    rows = sorted(map(_bit_indices, gens))
    rows.sort(key=len)
    return MonomialIdeal(ground, tuple(rows))


def validate_decomposition(dec: PrimeDecomposition, ideal) -> None:
    """Raise TheoremViolation unless ``dec`` is an irredundant decomposition
    of ``ideal``: a ``MonomialIdeal``, or the ``algebra.ArtinianReduction``
    that a parametric ``dec`` decomposes, read as its ``variables``, the
    exponents ``powers`` of their pure powers and the square-free ``masks``
    over them.

    The verdict is that of distinct, pairwise incomparable supports whose
    intersection (``dec.to_ideal()`` in the square-free case) is ``ideal``,
    reached on masks over the variables. The intersection of the primes P_S
    is generated by the square-free monomials on the minimal transversals
    of the supports; by Berge duality (tr(tr(H)) = H for a clutter H) that
    equals a square-free ideal exactly when the transversals are its
    generator supports, compared as masks. Monomial ideals form a
    distributive lattice, so with pure powers Q the intersection of the
    P_S + Q is (intersection of the P_S) + Q, compared with the ideal as
    minimal generators (``_minimal_generators``). The transversals are
    enumerated without a cap, so an enumeration cap never changes the
    verdict.
    """
    parametric = dec.pure_powers is not None
    masks = dec.masks
    if _has_comparable_pair(masks, len(dec.variables)):
        label = "parametric decomposition" if parametric else "decomposition"
        raise TheoremViolation(f"{label} is not irredundant")
    if isinstance(ideal, MonomialIdeal):
        powers, edges = (), _row_masks(ideal.rows, range(len(ideal.variables)))
    else:
        powers, edges = ideal.powers, ideal.masks
    holds = ideal.variables == dec.variables
    if holds:
        found = minimal_transversal_masks(masks)
        if parametric or powers:
            holds = (_minimal_generators(dec.pure_powers or (), found)
                     == _minimal_generators(powers, edges))
        else:
            holds = found == sorted(edges)
    if not holds:
        if parametric:
            raise TheoremViolation("parametric decomposition does not re-expand to the ideal")
        shown = _render(ideal.variables, powers, edges) if powers else ideal.render()
        raise TheoremViolation(f"decomposition of {shown} does not re-expand to the input")


def _has_comparable_pair(masks, width: int) -> bool:
    """Whether two supports, at distinct positions of ``masks``, are equal
    or one contains the other; each mask lies below ``1 << width``.

    A family of ``_COLUMNS_FROM`` supports or more is tested on its columns
    (``graphs._columns``): the AND of the columns over the bits of a support
    holds the supports that contain it, which is its own bit alone when it
    is in no other. The AND stops once only that bit is left.
    """
    if len(masks) < _COLUMNS_FROM:
        return len(set(masks)) < len(masks) or any(
            a & b == a for a in masks for b in masks if a != b
        )
    cols = _columns(masks, width)
    over_all = (1 << len(masks)) - 1
    own = 1
    for a in masks:
        over = over_all
        while a and over != own:
            low = a & -a
            over &= cols[low.bit_length() - 1]
            a ^= low
        if over != own:
            return True
        own <<= 1
    return False


def decompose_squarefree(i: MonomialIdeal, cap: int | None = None) -> PrimeDecomposition:
    """Irredundant decomposition of a square-free ideal into variable primes.

    The prime supports are the minimal transversals of the generator
    supports; ``validate_decomposition`` checks the result against the
    input by duality. The unit ideal yields the empty decomposition.

    The engine runs on masks over the variables that some generator uses,
    renumbered in index order: a mask is as long as its highest bit, and a
    variable that no generator uses gets none (on a 10^5-vertex random
    tree, N(G) leaves out a quarter of the vertices). The renumbering keeps
    the order of the masks, so the engine meets the edges in the order it
    would over the whole ground and trips a cap at the same point as
    ``minimal_td_sets``; the transversals are lifted back to the ideal's
    ground and stay sorted by value.
    """
    ground, rows = i.ground, i.rows
    used = sorted({j for row in rows for j in row})
    position = [0] * len(ground.labels)
    for k, j in enumerate(used):
        position[j] = k
    found = minimal_transversal_masks(_row_masks(rows, position), cap=cap)
    dec = PrimeDecomposition(ground, tuple([_lift(m, used) for m in found]))
    validate_decomposition(dec, i)
    return dec
