"""The value types of the package are hand-written records: named tuples,
or slotted classes where a record checks its fields, caches its hash, or
must not act as a tuple.  Each keeps the behaviour it had as a frozen (or,
for `JobSpec` and `Morphism`, mutable) dataclass: the hash of its field
tuple, equality and ordering within its class, the `Name(field=value, ...)`
text, immutability, and a pickle round trip."""

import pickle

import pytest

from quiverlab import boundary, braids, cli, ice, lifting, reps, stalks
from quiverlab import morphcat as mp
from quiverlab.dynkin import DynkinType, Quiver, build_quiver

A1, A2 = build_quiver("A1"), build_quiver("A2")
Q1 = "Quiver(dtype=DynkinType(letter='A', rank=1), arrows=())"
Q2 = "Quiver(dtype=DynkinType(letter='A', rank=2), arrows=((1, 2),))"


def _form(letters, t="A2"):
    return braids.garside_normal_form(braids.BraidWord.from_ints(t, letters))


def _scalar_morphism(c):
    p = reps.projective_rep(A1, 1)
    return reps.Morphism(p, p, [((c,),)])


# name: (build an instance, build a different one of the same class (a
# larger one where the class is ordered), field names, str text or None
# where str is repr, repr text or None where it is long)
CASES = {
    "DynkinType": (lambda: DynkinType("A", 2), lambda: DynkinType("D", 4), ("letter", "rank"),
                   "A2", "DynkinType(letter='A', rank=2)"),
    "Quiver": (lambda: A2, lambda: build_quiver("A2", "2->1"), ("dtype", "arrows"), "A2[1->2]", Q2),
    "IndecLabel": (lambda: stalks.IndecLabel(A2, 1, 0), lambda: stalks.IndecLabel(A2, 1, 1),
                   ("quiver", "vertex", "power"), "P1", f"IndecLabel(quiver={Q2}, vertex=1, power=0)"),
    "DerivedLabel": (lambda: stalks.DerivedLabel(A2, 2, 0, 1), lambda: stalks.DerivedLabel(A2, 2, 1, 0),
                     ("quiver", "vertex", "power", "shift"), "S^1[P2]",
                     f"DerivedLabel(quiver={Q2}, vertex=2, power=0, shift=1)"),
    "ARQuiver": (lambda: stalks.knit_ar_quiver(A1), lambda: stalks.knit_ar_quiver(A2),
                 ("quiver", "vertices", "arrows", "tau_pairs"), None,
                 f"ARQuiver(quiver={Q1}, vertices=(IndecLabel(quiver={Q1}, vertex=1, power=0),), "
                 "arrows=(), tau_pairs=())"),
    "MprLabel": (lambda: mp.MprLabel(A2, "done", 1), lambda: mp.MprLabel(A2, "mod", 1, 1),
                 ("quiver", "kind", "vertex", "power"), "E(1)",
                 f"MprLabel(quiver={Q2}, kind='done', vertex=1, power=0)"),
    "Mesh": (lambda: mp.Mesh(3, 1, (2,)), lambda: mp.Mesh(3, 1, (2, 4)),
             ("target", "tau_target", "middles"), None, "Mesh(target=3, tau_target=1, middles=(2,))"),
    "MprARQuiver": (lambda: mp.mpr_ar_quiver(A1), lambda: mp.mpr_ar_quiver(A2),
                    ("quiver", "vertices", "arrows", "tau_pairs", "meshes"), None, None),
    "MprQuotientLabel": (lambda: mp.MprQuotientLabel(A2, "mod", 1, 0, 2),
                         lambda: mp.MprQuotientLabel(A2, "mod", 1, 0, 3),
                         ("quiver", "family", "vertex", "power", "shift"), "S^2M(1,0)",
                         f"MprQuotientLabel(quiver={Q2}, family='mod', vertex=1, power=0, shift=2)"),
    "IceArrow": (lambda: ice.IceArrow(1, 2, "AR", False), lambda: ice.IceArrow(1, 2, "AR", True),
                 ("src", "dst", "origin", "frozen"), None,
                 "IceArrow(src=1, dst=2, origin='AR', frozen=False)"),
    "PotentialTerm": (lambda: ice.PotentialTerm((3, 1), (((1, 2), (2, 3)),)),
                      lambda: ice.PotentialTerm((3, 2), (((2, 1), (1, 3)),)), ("rho", "pairs"), None,
                      "PotentialTerm(rho=(3, 1), pairs=(((1, 2), (2, 3)),))"),
    "IceQuiver": (lambda: ice.build_ice_quiver(A1), lambda: ice.build_ice_quiver(A2),
                  ("quiver", "vertices", "frozen", "arrows", "potential"), None, None),
    "HomTable": (lambda: boundary.hom_table(A1), lambda: boundary.hom_table(A2),
                 ("quiver", "keys", "grid"), None,
                 f"HomTable(quiver={Q1}, keys=((-1, 1), (0, 1), (1, 1)), "
                 "grid=((1, 1, 0), (0, 1, 1), (1, 0, 1)))"),
    "BraidWord": (lambda: braids.BraidWord.from_ints("A2", [1, -2]),
                  lambda: braids.BraidWord.from_ints("A2", [1, 2]), ("dtype", "letters"), "1 -2",
                  "BraidWord(dtype=DynkinType(letter='A', rank=2), letters=((1, 1), (2, -1)))"),
    "GarsideForm": (lambda: _form([1, 2]), lambda: _form([2, 1]), ("dtype", "infimum", "factors"), "s1s2",
                    "GarsideForm(dtype=DynkinType(letter='A', rank=2), infimum=0, factors=(WeylElement("
                    "dtype=DynkinType(letter='A', rank=2), perm=(5, 0, 4, 2, 3, 1)),))"),
    "Conflation": (lambda: lifting.Conflation((mp.MprLabel(A1, "mod", 1),), (mp.MprLabel(A1, "done", 1),)),
                   lambda: lifting.Conflation((), ()), ("sub", "quot"), None,
                   f"Conflation(sub=(MprLabel(quiver={Q1}, kind='mod', vertex=1, power=0),), "
                   f"quot=(MprLabel(quiver={Q1}, kind='done', vertex=1, power=0),))"),
    "HiggsLift": (lambda: lifting.HiggsLift((mp.MprLabel(A1, "dzero", 1),), ()),
                  lambda: lifting.HiggsLift((), ()), ("labels", "unresolved"), None,
                  f"HiggsLift(labels=(MprLabel(quiver={Q1}, kind='dzero', vertex=1, power=0),), unresolved=())"),
    "Morphism": (lambda: _scalar_morphism(1), lambda: _scalar_morphism(2), ("src", "tgt", "mats"), None,
                 "Morphism(src=Rep(1,), tgt=Rep(1,), mats=(((1,),),))"),
    "JobSpec": (lambda: cli.JobSpec("mpr", "A2", ((1, 2),), "json", {}),
                lambda: cli.JobSpec("mpr", "A2", ((1, 2),), "dot", {}),
                ("command", "dtype", "arrows", "fmt", "options", "cache_dir"), None,
                "JobSpec(command='mpr', dtype='A2', arrows=((1, 2),), fmt='json', options={}, cache_dir=None)"),
}
ORDERED = {"DynkinType", "Quiver", "IndecLabel", "DerivedLabel", "MprLabel"}
MUTABLE = {"Morphism", "JobSpec"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_behaviour(name):
    make, other, fields, text, shown = CASES[name]
    x = make()
    assert type(x).__name__ == name
    values = tuple(getattr(x, f) for f in fields)
    same = type(x)(*values)
    # equality within the class; named tuples also equal their field tuple,
    # the slotted classes equal nothing outside their class
    assert x == same and not x != same
    assert (x == values) is isinstance(x, tuple)
    y = other()
    assert x != y and type(y) is type(x)
    if name in ORDERED:
        assert x < y and x <= y and y > x and y >= x and not y < x
        assert sorted([y, x]) == [x, y]
    # the dataclass text: Name(field=value, ...), and str is repr unless the
    # class says otherwise
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(x) == f"{name}({body})"
    if shown is not None:
        assert repr(x) == shown
    assert str(x) == (repr(x) if text is None else text)
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, fields[-1], values[-1])  # assignment is allowed
    else:
        assert hash(x) == hash(values) == hash(same)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        assert tuple(getattr(x, f) for f in fields) == values
    if name != "Morphism":  # a Rep holds a mappingproxy, which does not pickle
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is type(x) and back == x and repr(back) == repr(x)


def test_checked_records_still_check():
    with pytest.raises(ValueError, match="unknown diagram letter"):
        DynkinType("F", 4)
    with pytest.raises(ValueError, match="out of the supported range"):
        DynkinType("E", 9)
    with pytest.raises(ValueError, match="unknown morphism-object kind"):
        mp.MprLabel(A2, "half", 1)
    with pytest.raises(ValueError, match="carry no power"):
        mp.MprLabel(A2, "dzero", 1, 2)
    with pytest.raises(ValueError, match="bad letter"):
        braids.BraidWord(DynkinType("A", 2), ((3, 1),))
    # a BraidWord is no tuple: * is the product of words, + and len are absent
    w = braids.BraidWord.from_ints("A2", [1])
    assert (w * w).letters == ((1, 1), (1, 1))
    with pytest.raises(TypeError):
        w + w  # noqa: B018
    with pytest.raises(TypeError):
        len(w)
    # `_make` and `_replace` build through the checks as well
    with pytest.raises(ValueError, match="unknown diagram letter"):
        DynkinType._make(("F", 4))
    with pytest.raises(ValueError, match="out of the supported range"):
        DynkinType("E", 6)._replace(rank=9)
    with pytest.raises(ValueError, match="unknown morphism-object kind"):
        mp.MprLabel(A2, "mod", 1)._replace(kind="bogus")
    with pytest.raises(ValueError, match="carry no power"):
        mp.MprLabel._make((A2, "done", 1, 1))
    assert DynkinType("E", 6)._replace(rank=7) == DynkinType("E", 7)
    assert mp.MprLabel(A2, "mod", 1)._replace(power=2) == mp.MprLabel(A2, "mod", 1, 2)
    assert type(DynkinType._make(("A", 2))) is DynkinType
    assert isinstance(A2, Quiver) and not isinstance(A2, tuple)
