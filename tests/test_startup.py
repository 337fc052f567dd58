"""The start-up contract: importing the CLI loads neither ``dataclasses``
and ``inspect`` nor ``typing``, and the package's record classes, written
by hand, behave as the dataclasses and the NamedTuple they replaced.

Each ``repr`` below is the string that the dataclass version printed for the
same arguments.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from oracles import Monomial
from totaldom.algebra import ArtinianReduction, TypeReport
from totaldom.complexes import ShellingCheck, ShellingOrder, SimplicialComplex
from totaldom.construct import ConstructionTrace, TraceStep
from totaldom.domination import MinimalSetFamily
from totaldom.graphs import Classification, Coloring, Forest, Graph, Ground, _fact, path_graph
from totaldom.ideals import MonomialIdeal, PrimeDecomposition
from totaldom.unmixed import (
    Analysis,
    ComponentCheck,
    InteriorGraphs,
    UnmixedCertificate,
    _Layer,
    is_unmixed_fast,
)
from totaldom.verify import CheckResult

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter without ``site``, which may load ``typing``
# itself: what ``import totaldom.cli`` adds to sys.modules among the modules
# that the record classes and the digest of ``analyze`` once needed.
PROBE = """
import sys
before = set(sys.modules)
import totaldom.cli
print(sorted({"dataclasses", "inspect", "typing", "hashlib"} & (set(sys.modules) - before)))
"""


def test_cli_import_loads_no_dataclasses_inspect_typing_or_hashlib():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


P4 = path_graph(4).graph
FAMILY = MinimalSetFamily(P4, (6,))
REDUCTION = ArtinianReduction(labels=("1", "2", "3"), rows=((0, 1), (2,)), masks=(3,))
CHECK = ShellingCheck(True, True, 1)

# (class, constructor arguments in field order, repr, fields that == and
# hash compare, lazily computed attributes)
RECORDS = [
    (ArtinianReduction, {"labels": ("1", "2", "3"), "rows": ((0, 1), (2,)), "masks": (3,)},
     "ArtinianReduction(labels=('1', '2', '3'), rows=((0, 1), (2,)), masks=(3,))",
     ("labels", "rows", "masks"), ("variables", "powers", "pure_powers", "ideal")),
    (TypeReport,
     {"cm_type": 1, "m_blue": 1, "m_red": 1, "depth": 2, "dim": 2, "blue_family": FAMILY,
      "red_family": FAMILY, "socle_blue": 1, "socle_red": 1, "blue_reductions": (REDUCTION,),
      "red_reductions": ()},
     "TypeReport(cm_type=1, m_blue=1, m_red=1, depth=2, dim=2, "
     "blue_family=MinimalSetFamily(masks=(6,)), red_family=MinimalSetFamily(masks=(6,)), "
     "socle_blue=1, socle_red=1, blue_reductions=(ArtinianReduction(labels=('1', '2', "
     "'3'), rows=((0, 1), (2,)), masks=(3,)),), red_reductions=())",
     ("cm_type", "m_blue", "m_red", "depth", "dim", "blue_family", "red_family",
      "socle_blue", "socle_red", "blue_reductions", "red_reductions"), ()),
    (ShellingCheck, {"ok": False, "pure": True, "witness_count": 0, "failure_pair": (0, 1)},
     "ShellingCheck(ok=False, pure=True, witness_count=0, failure_pair=(0, 1))",
     ("ok", "pure", "witness_count", "failure_pair"), ()),
    (TraceStep, {"attach": "3", "kind": "height1-leaf"},
     "TraceStep(attach='3', kind='height1-leaf')", ("attach", "kind"), ()),
    (ConstructionTrace,
     {"steps": (TraceStep("3", "height1-leaf"), TraceStep("w1", "height3-whisker3"))},
     "ConstructionTrace(steps=(TraceStep(attach='3', kind='height1-leaf'), "
     "TraceStep(attach='w1', kind='height3-whisker3')))", ("steps",), ()),
    (MinimalSetFamily, {"graph": P4, "masks": (6, 10)},
     "MinimalSetFamily(masks=(6, 10))", ("graph", "masks"), ("sets",)),
    (Classification,
     {"leaves": ("0", "3"), "supports": ("1", "2"), "supported": ("0", "1", "2", "3"),
      "isolated": ()},
     "Classification(leaves=('0', '3'), supports=('1', '2'), supported=('0', '1', '2', '3'), "
     "isolated=())", ("leaves", "supports", "supported", "isolated"), ()),
    (Monomial, {"exps": (("x", 2), ("y", 1))}, "Monomial(x^2*y)", ("exps",), ()),
    (InteriorGraphs,
     {"blue": Forest(Graph.from_edges([("a", "b")])), "red": Forest(Graph.from_edges([], ["c"])),
      "deleted_for_blue": ("c",), "deleted_for_red": ("a", "b")},
     "InteriorGraphs(blue=Forest(2 vertices, 1 components), red=Forest(1 vertices, "
     "1 components), deleted_for_blue=('c',), deleted_for_red=('a', 'b'))",
     ("blue", "red", "deleted_for_blue", "deleted_for_red"), ()),
    (UnmixedCertificate, {"unmixed": True, "checks": ()},
     "UnmixedCertificate(unmixed=True, checks=())", ("unmixed", "checks"), ()),
]


@pytest.mark.parametrize("cls, kwargs, shown, compared, cached", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_matches_its_dataclass(cls, kwargs, shown, compared, cached, monkeypatch):
    r = cls(**kwargs)
    assert repr(r) == shown
    same = cls(*kwargs.values())  # positional, in field order
    assert r == same and not r != same and hash(r) == hash(same)
    assert hash(r) == hash(tuple(kwargs[f] for f in compared))
    assert r.__eq__(tuple(kwargs.values())) is NotImplemented
    for f in kwargs:
        other = cls(**{**kwargs, f: (("changed", 1),)})
        if f in compared:
            assert r != other
        else:
            assert r == other and hash(r) == hash(other)
        if "=" in shown:  # Monomial writes its own repr
            assert (repr(other) == shown) is (f"{f}=" not in shown)
    for name in (*kwargs, "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, 1)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    assert [getattr(r, f) for f in kwargs] == list(kwargs.values())
    for name in cached:
        prop = cls.__dict__[name]
        assert isinstance(prop, _fact)
        calls = []
        monkeypatch.setattr(prop, "compute", lambda self, f=prop.compute, calls=calls:
                            calls.append(1) or f(self))
        fresh = cls(**kwargs)
        first = getattr(fresh, name)
        assert getattr(fresh, name) is first and calls == [1]


SHELLING = {"ground_mask": 3, "vectors": ((1, 0), (0, 1)), "check": CHECK, "masks": (1, 2),
            "codec": Ground("ab")}


def test_shelling_order_matches_its_dataclass():
    # built from masks over a codec, it shows and compares the decoded
    # ground and facets, as the dataclass built from labels did
    r = ShellingOrder(**SHELLING)
    assert repr(r) == (
        "ShellingOrder(ground=('a', 'b'), facets=(('a',), ('b',)), vectors=((1, 0), (0, 1)), "
        "check=ShellingCheck(ok=True, pure=True, witness_count=1, failure_pair=None))"
    )
    same = ShellingOrder(*SHELLING.values())  # positional, in constructor order
    assert r == same and not r != same and hash(r) == hash(same)
    assert hash(r) == hash((("a", "b"), (("a",), ("b",)), ((1, 0), (0, 1)), CHECK))
    assert r.__eq__(tuple(SHELLING.values())) is NotImplemented
    for change in ({"ground_mask": 1}, {"vectors": None}, {"check": ShellingCheck(True, True, 2)},
                   {"masks": (2, 1)}, {"codec": Ground("xy")}):
        assert r != ShellingOrder(**{**SHELLING, **change})
    # the masks and the codec are compared only through the labels they decode to
    other = ShellingOrder(**{**SHELLING, "codec": Ground("ba")})
    assert r == other and hash(r) == hash(other)
    for name in (*SHELLING, "ground", "facets", "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, 1)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    assert [getattr(r, f) for f in SHELLING] == list(SHELLING.values())
    for name in ("ground", "facets"):
        assert isinstance(ShellingOrder.__dict__[name], _fact)
        assert getattr(r, name) is getattr(r, name)


# (class, constructor over a ground, repr, what == and hash compare or None
# for a class that was not hashable before it became a record, variants that
# differ, fields); a Coloring holds no ground and ignores it
INDEX_RECORDS = [
    (Coloring, lambda g: Coloring(("a",), ("b", "c")),
     "Coloring(blue=('a',), red=('b', 'c'))", None,
     [Coloring(("b", "c"), ("a",)), Coloring(("a",), ("b",))], ("blue", "red")),
    (MonomialIdeal, lambda g: MonomialIdeal(g, ((0, 1), (2,))),
     "MonomialIdeal<a*b, c>", (("a", "b", "c"), ((0, 1), (2,))),
     [MonomialIdeal(Ground("abd"), ((0, 1), (2,))), MonomialIdeal(Ground("abc"), ((0, 1),))],
     ("ground", "rows")),
    (PrimeDecomposition, lambda g: PrimeDecomposition(g, (3, 4), (2, 1, 3)),
     "PrimeDecomposition(variables=('a', 'b', 'c'), supports=(('a', 'b'), ('c',)), "
     "pure_powers=(2, 1, 3))", (("a", "b", "c"), (3, 4), (2, 1, 3)),
     [PrimeDecomposition(Ground("abc"), (3, 4)), PrimeDecomposition(Ground("abc"), (3,), (2, 1, 3)),
      PrimeDecomposition(Ground("abd"), (3, 4), (2, 1, 3))],
     ("ground", "masks", "pure_powers", "supports")),
    (SimplicialComplex, lambda g: SimplicialComplex(g, (3, 4)),
     "SimplicialComplex(3 vertices, 2 facets)", (("a", "b", "c"), (3, 4)),
     [SimplicialComplex(Ground("abc"), (3,)), SimplicialComplex(Ground("xyz"), (3, 4))],
     ("codec", "masks", "facets")),
]


@pytest.mark.parametrize("cls, make, shown, key, others, fields", INDEX_RECORDS,
                         ids=[r[0].__name__ for r in INDEX_RECORDS])
def test_index_record_compares_the_labels_of_its_ground(cls, make, shown, key, others, fields):
    # two equal but distinct grounds: the records compare and hash the
    # labels, never the Ground object
    one, two = Ground("abc"), Ground("cba")
    assert one is not two and one.labels == two.labels
    r, same = make(one), make(two)
    assert repr(r) == repr(same) == shown
    assert r == same and not r != same and hash(r) == hash(same)
    if key is not None:
        assert hash(r) == hash(key)  # the value that the hand-written __hash__ gave
    assert r.__eq__(key) is NotImplemented and r != key
    for other in others:
        assert r != other and not r == other
    for name in (*fields, "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, 1)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    assert r == same


def test_layer_and_certificate_facts_are_read_once():
    for cls, names in ((_Layer, ("components", "checks", "component_facts")),
                       (UnmixedCertificate, ("checks",))):
        assert "__slots__" not in cls.__dict__
        for name in names:
            assert isinstance(cls.__dict__[name], _fact)
    calls = []
    cert = UnmixedCertificate(True, lambda: calls.append(1) or ())
    assert cert.unmixed and calls == []
    assert cert.checks == () and cert.checks is cert.checks and calls == [1]
    assert cert == UnmixedCertificate(True, ()) and "_build" not in cert.__dict__
    facts = Analysis(path_graph(4))
    layer = facts._layer
    assert layer.components is layer.components == [[0, 1, 2, 3, 4]]  # path_graph(4) has 5 vertices
    assert layer.checks is layer.checks and len(layer.checks) == 1
    assert layer.component_facts is layer.component_facts
    assert is_unmixed_fast(facts).checks is is_unmixed_fast(facts).checks


def test_check_result_stays_mutable_and_unhashable():
    r = CheckResult("decomposition", True, 3, "ok", 0.25)
    assert repr(r) == (
        "CheckResult(name='decomposition', passed=True, checked=3, detail='ok', seconds=0.25)"
    )
    assert r == CheckResult(name="decomposition", passed=True, checked=3, detail="ok", seconds=0.25)
    assert r != CheckResult("decomposition", True, 3, "ok", 0.5)
    assert CheckResult.__hash__ is None
    with pytest.raises(TypeError):
        hash(r)
    r.passed = False
    del r.detail
    assert not r.passed and not hasattr(r, "detail")


def test_component_check_stays_a_tuple():
    values = ("blue", ("a", "b"), 1, True, True, True, None)
    c = ComponentCheck(*values)
    assert isinstance(c, tuple) and c == values and hash(c) == hash(values)
    assert c._fields == ("side", "vertices", "height", "height_ok", "v2_unique_v1_ok",
                         "v1_at_most_one_v2_ok", "offending_vertex")
    assert repr(c) == (
        "ComponentCheck(side='blue', vertices=('a', 'b'), height=1, height_ok=True, "
        "v2_unique_v1_ok=True, v1_at_most_one_v2_ok=True, offending_vertex=None)"
    )
    assert not hasattr(c, "__dict__")
    with pytest.raises(AttributeError):
        c.side = "red"
    assert c.ok and not c._replace(height_ok=False).ok
