"""Engine records against `dataclasses` as the independent oracle.

Each engine record class gets a twin built by `dataclasses.make_dataclass`
from the same fields, defaults, `compare` flags and `frozen` flag.  On
records that the CLI and the randgen generators actually build, the
record and its twin must agree on `repr`, `==`/`!=` (within and across
classes), `hash` (or `TypeError`), `replace`, construction and
assignment.
"""

import contextlib
import dataclasses
import importlib
import io
import random
from pathlib import Path

import pytest

import holim_engine
from holim_engine import cli, records
from holim_engine.chaincx import ZERO_COMPLEX, identity_map, single, zero_map
from holim_engine.dsl import Binding, Workspace
from holim_engine.endkan import (ChainDiagram, bifunctor_diagram, end_chain,
                                 fubini_check)
from holim_engine.fincat import arrow_category, opposite, product
from holim_engine.holim import (check_reedy_fibrant, fibrant_frame,
                                holim_we_invariance)
from holim_engine.randgen import (fattened_quasi_iso, random_chain_complex,
                                  random_poset, random_poset_chain_diagram)
from holim_engine.records import MISSING, fields, replace

CORPUS = Path(holim_engine.__file__).resolve().parent / "corpus"

# every engine record, by module, with the `frozen` flag it is declared with
RECORDS = {
    "chaincx": {"ChainComplex": True, "ChainMap": True},
    "cli": {"Report": False},
    "dsl": {"Binding": False, "Workspace": False, "Token": True},
    "endkan": {"FinSetDiagram": True, "LimitResult": True,
               "ColimitResult": True, "KanExtension": True,
               "CoYonedaReport": True, "ChainDiagramMap": False,
               "EndChain": False, "FubiniReport": True},
    "fincat": {"FinCategory": True, "FunctorData": True,
               "DegreeFunction": True, "Comma": True},
    "holim": {"HolimResult": False, "ReedyReport": True,
              "PullbackReport": True, "Cosimplicial": True,
              "FatTotResult": False,
              "InitialReport": True, "ChangeOfDiagramsReport": False,
              "ComparisonReport": False, "InvarianceReport": True},
    "ssets": {"SemiSimplicialSet": True, "SSetMap": True, "Weight": True,
              "PointResolutionReport": True},
}

COMMANDS = [("cospan.hle", "holim Loop"), ("cospan.hle", "hopullback Glue"),
            ("cospan.hle", "nerve W"), ("arrow.hle", "lim S"),
            ("arrow.hle", "colim S"), ("arrow.hle", "lan ia P"),
            ("arrow.hle", "ran ia P"), ("arrow.hle", "homology Cone"),
            ("arrow.hle", "hoinitial ia"), ("arrow.hle", "compare-holim ia D"),
            ("hom_end.hle", "end H"), ("hom_end.hle", "coend H")]


def _record_classes():
    found = {}
    for modname in RECORDS:
        mod = importlib.import_module(f"holim_engine.{modname}")
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__ \
                    and "__record_fields__" in vars(obj):
                found[obj] = RECORDS[modname].get(name)
    return found


def _twins(classes):
    """The dataclass twin of each record class; a record base class
    becomes the twin's base."""
    twins = {}
    for cls in sorted(classes, key=lambda c: len(c.__mro__)):
        base = next((b for b in cls.__mro__[1:] if b in twins), None)
        inherited = {f.name for f in fields(base)} if base else set()
        spec = []
        for f in fields(cls):
            if f.name in inherited:
                continue
            kw = {"compare": f.compare}
            if f.default is not MISSING:
                kw["default"] = f.default
            if f.default_factory is not MISSING:
                kw["default_factory"] = f.default_factory
            spec.append((f.name, object, dataclasses.field(**kw)))
        twins[cls] = dataclasses.make_dataclass(
            cls.__qualname__, spec, bases=(twins[base],) if base else (),
            frozen=classes[cls])
    return twins


def _collect(classes):
    """Instances of every record class built by CLI commands, `verify`
    on seeded random inputs, and the library calls no command makes."""
    seen = {cls: [] for cls in classes}
    with pytest.MonkeyPatch.context() as mp:
        for cls in classes:
            def init(self, *args, _cls=cls, _orig=cls.__init__, **kwargs):
                _orig(self, *args, **kwargs)
                if type(self) is _cls:
                    seen[_cls].append(self)
            mp.setattr(cls, "__init__", init)
        argvs = [[str(CORPUS / f), "--cmd", c] for f, c in COMMANDS]
        argvs.append([str(CORPUS / "cospan.hle"), "--cmd", "fattot Loop",
                      "--depth", "3"])
        argvs += [[str(CORPUS / f), "--cmd", "verify all", "--seed", str(s)]
                  for f in ("arrow.hle", "cospan.hle", "hom_end.hle")
                  for s in (0, 7)]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--json"]) == 0, argv
        rng = random.Random(11)
        for _ in range(3):
            check_reedy_fibrant(fibrant_frame(
                random_chain_complex(rng, max_dim=2, max_width=2), 2), 2)
            G = random_poset_chain_diagram(rng, random_poset(rng, 3),
                                           max_dim=1, max_width=2)
            holim_we_invariance(fattened_quasi_iso(rng, G)[1])
        C = arrow_category()
        end_chain(bifunctor_diagram(C, lambda x, y: single(0),
                                    lambda m1, m2: identity_map(single(0))))
        P = product(opposite(product(C, C)), product(C, C))
        fubini_check(ChainDiagram(P, [ZERO_COMPLEX] * P.n_objects,
                                  lambda m: zero_map(ZERO_COMPLEX,
                                                     ZERO_COMPLEX)), C, C)
    rng = random.Random(0)
    return {cls: xs if len(xs) <= 8 else rng.sample(xs, 8)
            for cls, xs in seen.items()}


@pytest.fixture(scope="module")
def world():
    classes = _record_classes()
    return classes, _twins(classes), _collect(classes)


def _twin_of(x, twins):
    return twins[type(x)](**{f.name: getattr(x, f.name)
                             for f in fields(x)})


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_every_record_class_is_listed_and_sampled(world):
    classes, _, samples = world
    declared = {(m, n) for m, ns in RECORDS.items() for n in ns}
    found = {(c.__module__.split(".")[1], c.__qualname__) for c in classes}
    assert found == declared and len(found) == 31
    assert not [c.__qualname__ for c, xs in samples.items() if not xs]


def test_repr_hash_and_frozen_match_the_twin(world):
    classes, twins, samples = world
    for cls, xs in samples.items():
        for x in xs:
            tx = _twin_of(x, twins)
            assert repr(x) == repr(tx)
            assert _hash(x) == _hash(tx)
            name = fields(x)[0].name
            value = getattr(x, name)
            if classes[cls]:
                for obj in (x, tx):
                    with pytest.raises(AttributeError):
                        setattr(obj, name, value)
                    with pytest.raises(AttributeError):
                        delattr(obj, name)
                    with pytest.raises(AttributeError):
                        obj.not_a_field = 1
            else:
                y = replace(x)
                y.not_a_field = 1
                setattr(y, name, value)
                assert y == x


def test_equality_matches_the_twin_within_and_across_classes(world):
    _, twins, samples = world
    everything = [x for xs in samples.values() for x in xs]
    firsts = [xs[0] for xs in samples.values()]
    for x in everything:
        tx = _twin_of(x, twins)
        for y in samples[type(x)] + firsts + [replace(x)]:
            ty = _twin_of(y, twins)
            assert (x == y) == (tx == ty)
            assert (x != y) == (tx != ty)
        assert x == replace(x) and tx == dataclasses.replace(tx)
        assert (x == tx) is False and (x != tx) is True
    # a subclass record never equals its base class's record
    fat = samples[_by_name(samples, "FatTotResult")][0]
    base = type(fat).__mro__[1](fat.complex, fat.betti, fat.provenance)
    assert fat != base and _twin_of(fat, twins) != _twin_of(base, twins)


def _by_name(samples, name):
    return next(c for c in samples if c.__qualname__ == name)


def test_replace_and_construction_match_the_twin(world):
    _, twins, samples = world
    for cls, xs in samples.items():
        T = twins[cls]
        names = [f.name for f in fields(cls)]
        for x, y in zip(xs, xs[1:] + xs[:1]):
            values = [getattr(x, n) for n in names]
            assert repr(cls(*values)) == repr(T(*values))
            assert cls(*values) == cls(**dict(zip(names, values))) == x
            changed = {names[-1]: getattr(y, names[-1])}
            assert repr(replace(x, **changed)) == \
                repr(dataclasses.replace(_twin_of(x, twins), **changed))
        required = [f.name for f in fields(cls) if f.default is MISSING
                    and f.default_factory is MISSING]
        values = [getattr(xs[0], n) for n in required]
        assert repr(cls(*values)) == repr(T(*values))
        bad = [(values + [0] * 9, {}), (values, {"not_a_field": 0})]
        if values:          # a missing and a repeated argument
            bad += [(values[:-1], {}), (values, {required[0]: values[0]})]
        for args, kw in bad:
            for make in (cls, T):
                with pytest.raises(TypeError):
                    make(*args, **kw)
        with pytest.raises(TypeError):
            replace(xs[0], not_a_field=0)


def test_default_factories_are_fresh_per_record():
    a, b = Workspace(), Workspace()
    assert a == b and a.bindings is not b.bindings and a.order is not b.order
    a.add(Binding("x", "category", None))
    assert b.bindings == {} and b.order == []
    assert Binding("y", "k", 1).meta is not Binding("y", "k", 1).meta


def test_record_definitions_follow_dataclass_rules():
    @records.record
    class Base:
        a: int
        b: list = records.field(default_factory=list, compare=False)

    @records.record
    class Sub(Base):
        c: int = 3

    assert [f.name for f in fields(Sub)] == ["a", "b", "c"]
    assert repr(Sub(1)) == "test_record_definitions_follow_dataclass_" \
        "rules.<locals>.Sub(a=1, b=[], c=3)"
    assert Base(1, [2]) == Base(1, [3]) and Base(1) != Sub(1)
    assert Base.__hash__ is None and not hasattr(Base, "b")
    with pytest.raises(TypeError):
        @records.record
        class Late:
            a: int = 0
            b: int
    with pytest.raises(AttributeError):
        fields(object())
