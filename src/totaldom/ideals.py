"""Monomial ideals over named variables: open-neighborhood ideals and friends.

Only the combinatorial layer is modeled: an ideal is its unique minimal
monomial generating set over an ambient variable list. Coefficients never
appear. Intersections go through pairwise lcms, membership through
divisibility, and square-free decomposition through minimal transversals of
the generator supports. A decomposition is checked by Berge duality on
bitmasks: the minimal transversals of its prime supports must give back the
generators, so the intersection is never re-expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .domination import minimal_transversal_masks, minimal_transversals
from .errors import AmbientMismatchError, NotSquareFreeError, TheoremViolation
from .graphs import VertexSet, _graph_of, vset


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

    @classmethod
    def parse(cls, text: str) -> Monomial:
        text = text.strip()
        if text == "1":
            return cls.one()
        d: dict[str, int] = {}
        for part in text.split("*"):
            var, _, exp = part.strip().partition("^")
            d[var] = d.get(var, 0) + (int(exp) if exp else 1)
        return cls.from_dict(d)

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

    def exponent(self, v: str) -> int:
        return dict(self.exps).get(v, 0)

    def divides(self, other: Monomial) -> bool:
        od = dict(other.exps)
        return all(od.get(v, 0) >= e for v, e in self.exps)

    def lcm(self, other: Monomial) -> Monomial:
        d = dict(self.exps)
        for v, e in other.exps:
            d[v] = max(d.get(v, 0), e)
        return Monomial.from_dict(d)

    def times_var(self, v: str) -> Monomial:
        d = dict(self.exps)
        d[v] = d.get(v, 0) + 1
        return Monomial.from_dict(d)

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
    def zero(cls, variables) -> MonomialIdeal:
        return cls.from_gens(variables, [])

    @classmethod
    def unit(cls, variables) -> MonomialIdeal:
        return cls.from_gens(variables, [Monomial.one()])

    @classmethod
    def parse(cls, text: str, variables) -> MonomialIdeal:
        text = text.strip()
        if text == "0" or not text:
            return cls.zero(variables)
        return cls.from_gens(variables, [Monomial.parse(p) for p in text.split(",")])

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

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def _check_ambient(self, other: MonomialIdeal):
        if self.variables != other.variables:
            raise AmbientMismatchError(
                f"ambient mismatch: {self.variables} vs {other.variables}"
            )

    def sum_with(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_ambient(other)
        return MonomialIdeal.from_gens(self.variables, self.gens + other.gens)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_ambient(other)
        gens = [a.lcm(b) for a in self.gens for b in other.gens]
        return MonomialIdeal.from_gens(self.variables, gens)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(m.render() for m in self.gens)

    def __repr__(self):
        return f"MonomialIdeal<{self.render()}>"


def ideal_sum(ideals) -> MonomialIdeal:
    return reduce(lambda a, b: a.sum_with(b), ideals)


def ideal_intersection(ideals) -> MonomialIdeal:
    return reduce(lambda a, b: a.intersect(b), ideals)


def variable_ideal(variables, subset) -> MonomialIdeal:
    """The monomial prime generated by the given variables."""
    return MonomialIdeal.from_gens(variables, [Monomial.of(v) for v in subset])


# ---------------------------------------------------------------------------
# Graph-attached ideals
# ---------------------------------------------------------------------------

def open_neighborhood_ideal(g, s=None, *, variables=None) -> MonomialIdeal:
    """The ideal generated by the neighborhood monomials of the vertices in S.

    S defaults to all of V. An isolated vertex in S contributes the empty
    product, i.e. the unit ideal. ``variables`` overrides the ambient set
    (default: all vertices of the graph).
    """
    g = _graph_of(g)
    target = g.labels if s is None else vset(s)
    ambient = g.labels if variables is None else vset(variables)
    gens = [Monomial.of(*g.neighbors(v)) for v in target]
    return MonomialIdeal.from_gens(ambient, gens)


def edge_ideal(g, *, variables=None) -> MonomialIdeal:
    g = _graph_of(g)
    ambient = g.labels if variables is None else vset(variables)
    return MonomialIdeal.from_gens(ambient, [Monomial.of(a, b) for a, b in g.edges()])


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
    is_unit_source: bool = False

    def __len__(self):
        return len(self.supports)

    def to_ideal(self) -> MonomialIdeal:
        if not self.supports:
            return MonomialIdeal.unit(self.variables)
        parts = []
        for sup in self.supports:
            p = variable_ideal(self.variables, sup)
            if self.pure_powers is not None:
                p = p.sum_with(self.pure_powers)
            parts.append(p)
        return ideal_intersection(parts)


def validate_decomposition(dec: PrimeDecomposition, ideal: MonomialIdeal) -> None:
    """Raise TheoremViolation unless ``dec`` is an irredundant decomposition
    of ``ideal``.

    The verdict is that of pairwise incomparable supports plus
    ``dec.to_ideal() == ideal``, reached on bitmasks over ``dec.variables``.
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
    pos = {v: k for k, v in enumerate(dec.variables)}
    try:
        masks = [sum(1 << pos[v] for v in sup) for sup in dec.supports]
    except KeyError as exc:
        raise AmbientMismatchError(f"support uses unknown variable {exc}") from None
    if any(a & b == a for a in masks for b in masks if a != b):
        label = "parametric decomposition" if parametric else "decomposition"
        raise TheoremViolation(f"{label} is not irredundant")
    duals = minimal_transversal_masks(masks)
    if parametric:
        gens = [
            Monomial.of(*(v for k, v in enumerate(dec.variables) if m >> k & 1))
            for m in duals
        ]
        gens += dec.pure_powers.gens
        holds = MonomialIdeal.from_gens(dec.variables, gens) == ideal
    else:
        holds = (
            ideal.variables == dec.variables
            and ideal.is_squarefree
            and duals == sorted(sum(1 << pos[v] for v in m.support) for m in ideal.gens)
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
    by duality. The unit ideal yields the empty decomposition (flagged via
    is_unit_source).
    """
    if not i.is_squarefree:
        raise NotSquareFreeError(f"not square-free: {i.render()}")
    if i.is_unit:
        return PrimeDecomposition(variables=i.variables, supports=(), is_unit_source=True)
    supports = minimal_transversals([m.support for m in i.gens], cap=cap)
    dec = PrimeDecomposition(variables=i.variables, supports=supports)
    validate_decomposition(dec, i)
    return dec
