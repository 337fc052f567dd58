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
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import minimal_transversal_masks, minimal_transversals
from .errors import AmbientMismatchError, NotSquareFreeError, TheoremViolation
from .graphs import Ground, VertexSet, _bit_indices, _graph_of, vset


@dataclass(frozen=True)
class Monomial:
    """Exponent list sorted by variable name; exponents are positive."""

    exps: tuple[tuple[str, int], ...]

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
        return cls(tuple(sorted((v, e) for v, e in d.items() if e > 0)))

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> VertexSet:
        return tuple(v for v, _ in self.exps)

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
    vec = tuple(-exps.get(v, 0) for v in variables)
    return (m.degree, vec)


def minimalize(gens) -> tuple[Monomial, ...]:
    """Drop every generator divisible by another; dedups equal monomials."""
    kept: list[Monomial] = []
    for m in sorted(set(gens), key=lambda m: (m.degree, m.exps)):
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Ambient variable list plus the unique minimal generating set."""

    variables: tuple[str, ...]
    gens: tuple[Monomial, ...]

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

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def is_squarefree(self) -> bool:
        return all(m.is_squarefree for m in self.gens)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(m.render() for m in self.gens)

    def __repr__(self):
        return f"MonomialIdeal<{self.render()}>"


# ---------------------------------------------------------------------------
# Graph-attached ideals
# ---------------------------------------------------------------------------

def open_neighborhood_ideal(g, s=None) -> MonomialIdeal:
    """The ideal generated by the neighborhood monomials of the vertices in S,
    over all vertices of the graph.

    S defaults to all of V. An isolated vertex in S contributes the empty
    product, i.e. the unit ideal.

    The generators are kept as the sorted neighbor index tuples
    ``g.adj[i]`` until the end. On square-free monomials of one degree the
    grlex order of ``from_gens`` is the lexicographic order of those
    tuples, and a divisor of a generator comes before it in that order, so
    one pass in grlex order both drops the non-minimal ones and orders the
    rest. A kept tuple divides a later one only if its lowest vertex is
    among the later one's, so the kept tuples are bucketed by their lowest
    vertex and each tuple is tested against the buckets of its own vertices
    only. The empty tuple of an isolated vertex comes first and divides
    every later one.
    """
    g = _graph_of(g)
    targets = range(g.n) if s is None else [g.index[v] for v in vset(s)]
    adj = g.adj
    supports = {adj[i] for i in targets}
    by_low: dict[int, list[tuple[int, ...]]] = {}
    gens = []
    for nbrs in sorted(supports, key=lambda nbrs: (len(nbrs), nbrs)):
        if not nbrs:
            gens.append(Monomial(()))
            break
        own = set(nbrs)
        if not any(own.issuperset(k) for j in nbrs for k in by_low.get(j, ())):
            by_low.setdefault(nbrs[0], []).append(nbrs)
            gens.append(Monomial(tuple([(g.labels[j], 1) for j in nbrs])))
    return MonomialIdeal(variables=g.labels, gens=tuple(gens))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeDecomposition:
    """Irredundant intersection of variable primes, optionally shifted by a
    shared pure-power ideal (the parametric form)."""

    variables: tuple[str, ...]
    supports: tuple[VertexSet, ...]
    pure_powers: MonomialIdeal | None = None

    def __len__(self):
        return len(self.supports)

    def to_ideal(self) -> MonomialIdeal:
        """The intersection of the primes, re-expanded by pairwise lcms on
        bitmasks (``_intersect_primes``).

        Square-free only: a parametric decomposition raises
        NotSquareFreeError; ``validate_decomposition`` checks it by duality.
        """
        if self.pure_powers is not None:
            raise NotSquareFreeError(f"not square-free: pure powers {self.pure_powers.render()}")
        return _intersect_primes(vset(self.variables), self.supports)


def _intersect_primes(variables: tuple[str, ...], supports) -> MonomialIdeal:
    """The intersection of the variable primes P_S over the sorted
    ``variables``, folded prime by prime from the unit ideal.

    Every generator is square-free, so it is a bitmask over ``variables``
    and the lcm of two is their OR. Each step takes every pairwise OR of the
    current generators with the variables of the next prime and keeps the
    inclusion-minimal ones. This is the plain intersection, not Berge
    duality, so it stays independent of ``validate_decomposition``. The
    candidates are minimalized in grlex order (popcount, then the
    lexicographic order of index tuples), which is the order ``from_gens``
    gives the generators.
    """
    ground = Ground(variables)
    primes = []
    for sup in supports:
        stray = sorted(set(sup) - ground.index.keys())
        if stray:
            raise AmbientMismatchError(f"generator uses unknown variables {stray[:1]}")
        primes.append([1 << i for i in _bit_indices(ground.mask_of(sup))])
    gens = [0]
    for bits in primes:
        cands = sorted(
            {g | b for g in gens for b in bits},
            key=lambda m: (m.bit_count(), _bit_indices(m)),
        )
        gens = []
        for m in cands:
            if not any(k & m == k for k in gens):
                gens.append(m)
    return MonomialIdeal(
        variables=variables,
        gens=tuple(Monomial(tuple((v, 1) for v in ground.labels_of(m))) for m in gens),
    )


def validate_decomposition(dec: PrimeDecomposition, ideal: MonomialIdeal) -> None:
    """Raise TheoremViolation unless ``dec`` is an irredundant decomposition
    of ``ideal``.

    The verdict is that of distinct, pairwise incomparable supports whose
    intersection (``dec.to_ideal()`` in the square-free case) is ``ideal``,
    reached on bitmasks over ``dec.variables``.
    The intersection of the primes P_S is generated by the square-free
    monomials on the minimal transversals of the supports; by Berge duality
    (tr(tr(H)) = H for a clutter H) that equals a square-free ideal exactly
    when the transversals are its generator supports. Monomial ideals form a
    distributive lattice, so with pure powers Q the intersection of the
    P_S + Q is (intersection of the P_S) + Q. The transversals are
    enumerated without a cap, so an enumeration cap never changes the
    verdict.
    """
    parametric = dec.pure_powers is not None
    ground = Ground(dec.variables)
    try:
        masks = [ground.mask_of(sup) for sup in dec.supports]
    except KeyError as exc:
        raise AmbientMismatchError(f"support uses unknown variable {exc}") from None
    if len(set(masks)) < len(masks) or any(a & b == a for a in masks for b in masks if a != b):
        label = "parametric decomposition" if parametric else "decomposition"
        raise TheoremViolation(f"{label} is not irredundant")
    duals = minimal_transversal_masks(masks)
    if parametric:
        gens = [Monomial.of(*ground.labels_of(m)) for m in duals]
        gens += dec.pure_powers.gens
        holds = MonomialIdeal.from_gens(dec.variables, gens) == ideal
    else:
        holds = (
            ideal.variables == dec.variables
            and ideal.is_squarefree
            and duals == sorted(ground.mask_of(m.support) for m in ideal.gens)
        )
    if not holds:
        if parametric:
            raise TheoremViolation("parametric decomposition does not re-expand to the ideal")
        raise TheoremViolation(
            f"decomposition of {ideal.render()} does not re-expand to the input"
        )


def decompose_squarefree(i: MonomialIdeal, cap: int | None = None) -> PrimeDecomposition:
    """Irredundant decomposition of a square-free ideal into variable primes.

    The prime supports are the minimal transversals of the generator
    supports; ``validate_decomposition`` checks the result against the input
    by duality. The unit ideal yields the empty decomposition.
    """
    if not i.is_squarefree:
        raise NotSquareFreeError(f"not square-free: {i.render()}")
    supports = minimal_transversals([m.support for m in i.gens], cap=cap)
    dec = PrimeDecomposition(variables=i.variables, supports=supports)
    validate_decomposition(dec, i)
    return dec
