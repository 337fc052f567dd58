"""Monomial ideals over named variables and open-neighborhood ideals.

Only the combinatorial layer is modeled: an ideal is its unique minimal
monomial generating set over an ambient variable list. Coefficients never
appear. Minimality goes through divisibility, and square-free decomposition
through minimal transversals of the generator supports. A decomposition is
checked by Berge duality on bitmasks: the minimal transversals of its prime
supports must give back the generators, so the check never re-expands the
intersection. ``PrimeDecomposition.to_ideal`` does re-expand a square-free
one, as the independent oracle of ``verify``: a fold of pairwise lcms on
bitmasks. The package has no general sum or intersection of two ideals;
``tests/oracles.py`` keeps both, on exponent dicts.

The square-free objects the package builds stay in index space over one
``graphs.Ground`` of their variables: N(G) and the ideals of
``to_ideal`` and ``complexes.stanley_reisner_ideal`` hold their generators
as sorted index tuples in grlex order (N(G) holds the graph's own ``adj``
tuples), and a decomposition from ``decompose_squarefree`` or
``PrimeDecomposition.from_family`` holds its supports as the engine's
masks, sorted by value. Two such objects compare by this index data. Labels
are decoded only when ``gens``, ``supports`` or a rendering is read, and a
generator is rendered straight from its index tuple. Objects built from
labels (``from_gens``, the constructors, the parametric decomposition) are
encoded over a ``Ground`` of their variables where a computation needs
masks.
"""

from __future__ import annotations

from collections.abc import Sequence

from .domination import MinimalSetFamily, minimal_transversal_masks, minimal_transversals
from .errors import AmbientMismatchError, NotSquareFreeError, TheoremViolation
from .graphs import Ground, VertexSet, _bit_indices, _columns, _graph_of, _lift, _Record, vset

# Decompositions of at least this many supports are tested for
# irredundancy column-wise (``_has_comparable_pair``); below it the pair
# test is cheaper. Taken from timings on subfamilies of the minimal TD-sets
# of ``generate(7, 16)``.
_COLUMNS_FROM = 64


class Monomial(_Record):
    """Exponent list sorted by variable name; exponents are positive."""

    _fields = ("exps",)

    def __init__(self, exps: tuple[tuple[str, int], ...]):
        self.__dict__["exps"] = exps

    @classmethod
    def one(cls) -> Monomial:
        return cls(())

    @classmethod
    def of(cls, *variables: str) -> Monomial:
        """Square-free product of the given variables."""
        return cls.from_dict({v: 1 for v in variables})

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> Monomial:
        for v, e in d.items():
            if e < 0:
                raise ValueError(f"negative exponent for {v!r}")
        return cls(tuple(sorted([(v, e) for v, e in d.items() if e > 0])))

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> VertexSet:
        return tuple([v for v, _ in self.exps])

    @property
    def is_one(self) -> bool:
        return not self.exps

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def divides(self, other: Monomial) -> bool:
        od = dict(other.exps)
        return all(od.get(v, 0) >= e for v, e in self.exps)

    def render(self) -> str:
        if self.is_one:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)

    def __repr__(self):
        return f"Monomial({self.render()})"


def _grlex_key(m: Monomial, variables: tuple[str, ...]):
    exps = dict(m.exps)
    vec = tuple([-exps.get(v, 0) for v in variables])
    return (m.degree, vec)


def minimalize(gens) -> tuple[Monomial, ...]:
    """Drop every generator divisible by another; dedups equal monomials."""
    kept: list[Monomial] = []
    for m in sorted(set(gens), key=lambda m: (m.degree, m.exps)):
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal:
    """Ambient variable list plus the unique minimal generating set.

    An ideal built from labels holds its generators as given. A square-free
    ideal built by ``_squarefree`` holds them as ``rows``: sorted index
    tuples over ``ground``, a ``Ground`` whose labels are the variables, in
    grlex order (size, then lexicographic, which is the order of
    ``from_gens`` over sorted variables). The ``Monomial`` generators are
    decoded from the rows on the first read of ``gens``. Two ideals with
    rows are equal when their variables and rows are; otherwise ``==``
    compares the variables and the generator tuples.
    """

    __slots__ = ("variables", "_gens", "_ground", "_rows")

    def __init__(self, variables: tuple[str, ...], gens: tuple[Monomial, ...]):
        self.variables = variables
        self._gens = gens
        self._ground = self._rows = None

    @classmethod
    def _squarefree(cls, ground: Ground, rows: tuple[tuple[int, ...], ...]) -> MonomialIdeal:
        """The square-free ideal over the labels of ``ground`` generated by
        the index tuples ``rows``, an antichain in grlex order."""
        ideal = cls.__new__(cls)
        ideal.variables = ground.labels
        ideal._gens = None
        ideal._ground = ground
        ideal._rows = rows
        return ideal

    @classmethod
    def from_gens(cls, variables, gens) -> MonomialIdeal:
        variables = vset(variables)
        ambient = set(variables)
        gens = minimalize(gens)
        for m in gens:
            stray = [v for v in m.support if v not in ambient]
            if stray:
                raise AmbientMismatchError(f"generator uses unknown variables {stray}")
        ordered = tuple(sorted(gens, key=lambda m: _grlex_key(m, variables)))
        return cls(variables=variables, gens=ordered)

    @classmethod
    def unit(cls, variables) -> MonomialIdeal:
        return cls.from_gens(variables, [Monomial.one()])

    @property
    def gens(self) -> tuple[Monomial, ...]:
        if self._gens is None:
            labels = self._ground.labels
            self._gens = tuple([
                Monomial(tuple([(labels[j], 1) for j in row])) for row in self._rows
            ])
        return self._gens

    def _index_rows(self) -> tuple[Ground, Sequence[tuple[int, ...]]]:
        """A ground of the variables and each generator's support as a
        sorted index tuple over it, in generator order. An ideal built from
        labels is encoded over ``Ground(variables)`` here (its supports are
        in label order, so their indices are sorted); a support outside the
        variables raises KeyError."""
        if self._rows is not None:
            return self._ground, self._rows
        ground = Ground(self.variables)
        index = ground.index
        return ground, [tuple([index[v] for v in m.support]) for m in self._gens]

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self._gens if self._rows is None else self._rows)

    @property
    def is_unit(self) -> bool:
        rows = self._rows
        if rows is None:
            return len(self._gens) == 1 and self._gens[0].is_one
        return len(rows) == 1 and not rows[0]

    @property
    def is_squarefree(self) -> bool:
        return self._rows is not None or all(m.is_squarefree for m in self._gens)

    def generator_strings(self) -> list[str]:
        """Each generator as ``Monomial.render`` writes it, in order; rows
        are rendered from their labels with no ``Monomial``."""
        rows = self._rows
        if rows is None:
            return [m.render() for m in self._gens]
        labels = self._ground.labels
        return ["*".join([labels[j] for j in row]) if row else "1" for row in rows]

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(self.generator_strings())

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        if self.variables != other.variables:
            return False
        if self._rows is not None and other._rows is not None:
            return self._rows == other._rows
        return self.gens == other.gens

    def __hash__(self):
        return hash((self.variables, self.gens))

    def __repr__(self):
        return f"MonomialIdeal<{self.render()}>"


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
    targets = range(g.n) if s is None else [g.index[v] for v in vset(s)]
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
    return MonomialIdeal._squarefree(g, tuple(rows))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

class PrimeDecomposition:
    """Irredundant intersection of variable primes, optionally shifted by a
    shared pure-power ideal (the parametric form).

    One built from labels holds its supports as given. One built by
    ``_of_masks`` holds them as masks over ``ground``, a ``Ground`` of its
    variables, sorted by value, and decodes them on the first read of
    ``supports`` (sorted label tuples, as ``MinimalSetFamily.sets``). Two
    decompositions with masks are equal when their variables and masks are;
    otherwise ``==`` compares the variables, the support tuples and the
    pure powers.
    """

    __slots__ = ("variables", "pure_powers", "_supports", "_ground", "_masks")

    def __init__(self, variables: tuple[str, ...], supports: tuple[VertexSet, ...],
                 pure_powers: MonomialIdeal | None = None):
        self.variables = variables
        self.pure_powers = pure_powers
        self._supports = supports
        self._ground = self._masks = None

    @classmethod
    def _of_masks(cls, variables: tuple[str, ...], ground: Ground,
                  masks: tuple[int, ...]) -> PrimeDecomposition:
        dec = cls(variables, None)
        dec._ground = ground
        dec._masks = masks
        return dec

    @classmethod
    def from_family(cls, family: MinimalSetFamily) -> PrimeDecomposition:
        """The decomposition whose supports are the members of ``family``,
        over the vertices of its graph, with no check."""
        g = family.graph
        return cls._of_masks(g.labels, g, family.masks)

    @property
    def supports(self) -> tuple[VertexSet, ...]:
        if self._supports is None:
            self._supports = tuple(sorted(map(self._ground.labels_of, self._masks)))
        return self._supports

    def _support_masks(self) -> tuple[Ground, Sequence[int]]:
        """A ground of the variables and each support as a mask over it. A
        decomposition built from labels is encoded over
        ``Ground(variables)`` here, each support in label order, so a
        KeyError names its least label outside the variables."""
        if self._masks is not None:
            return self._ground, self._masks
        ground = Ground(self.variables)
        return ground, [ground.mask_of(sorted(sup)) for sup in self._supports]

    def __len__(self):
        return len(self._supports if self._masks is None else self._masks)

    def __eq__(self, other):
        if not isinstance(other, PrimeDecomposition):
            return NotImplemented
        if self.variables != other.variables or self.pure_powers != other.pure_powers:
            return False
        if self._masks is not None and other._masks is not None:
            return self._masks == other._masks
        return self.supports == other.supports

    def __hash__(self):
        return hash((self.variables, self.supports, self.pure_powers))

    def __repr__(self):
        return (f"PrimeDecomposition(variables={self.variables!r}, "
                f"supports={self.supports!r}, pure_powers={self.pure_powers!r})")

    def to_ideal(self) -> MonomialIdeal:
        """The intersection of the primes, re-expanded by pairwise lcms on
        bitmasks (``_intersect_primes``).

        Square-free only: a parametric decomposition raises
        NotSquareFreeError; ``validate_decomposition`` checks it by duality.
        """
        if self.pure_powers is not None:
            raise NotSquareFreeError(f"not square-free: pure powers {self.pure_powers.render()}")
        try:
            ground, masks = self._support_masks()
        except KeyError as exc:
            raise AmbientMismatchError(
                f"generator uses unknown variables {[exc.args[0]]}"
            ) from None
        return _intersect_primes(ground, masks)


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
    return MonomialIdeal._squarefree(ground, tuple(rows))


def validate_decomposition(dec: PrimeDecomposition, ideal: MonomialIdeal) -> None:
    """Raise TheoremViolation unless ``dec`` is an irredundant decomposition
    of ``ideal``.

    The verdict is that of distinct, pairwise incomparable supports whose
    intersection (``dec.to_ideal()`` in the square-free case) is ``ideal``,
    reached on bitmasks over a ground of ``dec.variables``.
    The intersection of the primes P_S is generated by the square-free
    monomials on the minimal transversals of the supports; by Berge duality
    (tr(tr(H)) = H for a clutter H) that equals a square-free ideal exactly
    when the transversals are its generator supports, compared as masks.
    Monomial ideals form a distributive lattice, so with pure powers Q the
    intersection of the P_S + Q is (intersection of the P_S) + Q, compared
    as label monomials. The transversals are enumerated without a cap, so
    an enumeration cap never changes the verdict.
    """
    parametric = dec.pure_powers is not None
    try:
        ground, masks = dec._support_masks()
    except KeyError as exc:
        raise AmbientMismatchError(f"support uses unknown variable {exc}") from None
    if _has_comparable_pair(masks, len(ground.labels)):
        label = "parametric decomposition" if parametric else "decomposition"
        raise TheoremViolation(f"{label} is not irredundant")
    if parametric:
        gens = [Monomial.of(*s) for s in minimal_transversals(dec.supports)]
        gens += dec.pure_powers.gens
        holds = MonomialIdeal.from_gens(dec.variables, gens) == ideal
    else:
        holds = ideal.variables == dec.variables and ideal.is_squarefree
        if holds:
            ground, rows = ideal._index_rows()
            edges = _row_masks(rows, range(len(ground.labels)))
            holds = minimal_transversal_masks(masks) == sorted(edges)
    if not holds:
        if parametric:
            raise TheoremViolation("parametric decomposition does not re-expand to the ideal")
        raise TheoremViolation(
            f"decomposition of {ideal.render()} does not re-expand to the input"
        )


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
    if not i.is_squarefree:
        raise NotSquareFreeError(f"not square-free: {i.render()}")
    ground, rows = i._index_rows()
    used = sorted({j for row in rows for j in row})
    position = [0] * len(ground.labels)
    for k, j in enumerate(used):
        position[j] = k
    found = minimal_transversal_masks(_row_masks(rows, position), cap=cap)
    dec = PrimeDecomposition._of_masks(i.variables, ground, tuple([_lift(m, used) for m in found]))
    validate_decomposition(dec, i)
    return dec
