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
from totaldom.complexes import ShellingCheck, ShellingOrder
from totaldom.construct import ConstructionTrace, TraceStep
from totaldom.domination import MinimalSetFamily
from totaldom.graphs import Classification, Forest, Graph, Ground, _fact, path_graph
from totaldom.unmixed import ComponentCheck, InteriorGraphs, UnmixedCertificate
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
