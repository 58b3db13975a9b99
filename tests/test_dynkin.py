import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverlab.dynkin import (
    DynkinType,
    _parse_arrows,
    build_quiver,
    coxeter_number,
    nakayama_involution,
    positive_roots,
    quiver_from_json,
    quiver_from_text,
    quiver_to_json,
    quiver_to_text,
)
from quiverlab.errors import GuardError

ALL_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]

# (type, coxeter number, number of positive roots)
COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6,
    "D4": 6, "D5": 8, "E6": 12, "E7": 18, "E8": 30,
}
ROOT_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "D4": 12, "D5": 20, "E6": 36}


def type_strategy():
    return st.sampled_from(ALL_TYPES)


def quiver_strategy(types=None):
    @st.composite
    def build(draw):
        dtype = DynkinType.parse(draw(st.sampled_from(types or ALL_TYPES)))
        arrows = []
        for (i, j) in dtype.edges:
            if draw(st.booleans()):
                i, j = j, i
            arrows.append((i, j))
        return build_quiver(dtype, arrows)

    return build()


def test_parse_accepts_usual_spellings():
    assert str(DynkinType.parse("A3")) == "A3"
    assert str(DynkinType.parse("d5")) == "D5"
    assert DynkinType.parse(DynkinType.parse("E6")) == DynkinType.parse("E6")


@pytest.mark.parametrize("bad", ["B2", "A0", "D3", "E9", "F4", "x", "A"])
def test_parse_rejects_out_of_family(bad):
    with pytest.raises(GuardError):
        DynkinType.parse(bad)


@pytest.mark.parametrize("name,h", sorted(COXETER.items()))
def test_coxeter_numbers(name, h):
    assert coxeter_number(DynkinType.parse(name)) == h


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_count_vs_coxeter_identity(name):
    # #positive roots == n * h / 2 holds in every simply laced type
    dtype = DynkinType.parse(name)
    assert dtype.positive_root_count() == dtype.rank * coxeter_number(dtype) // 2


@pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
def test_enumerated_roots(name, count):
    dtype = DynkinType.parse(name)
    roots = positive_roots(dtype)
    assert len(roots) == count
    assert dtype.positive_root_count() == count
    seen = {tuple(int(x) for x in r) for r in roots}
    assert len(seen) == count
    for v in dtype.vertices:
        unit = tuple(1 if w == v else 0 for w in dtype.vertices)
        assert unit in seen


@settings(max_examples=40, deadline=None)
@given(quiver_strategy())
def test_quiver_invariants(q):
    assert {frozenset(a) for a in q.arrows} == {frozenset(e) for e in q.dtype.edges}
    order = q.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for (i, j) in q.arrows:
        assert pos[i] < pos[j]
    # a tree has exactly rank - 1 arrows
    assert len(q.arrows) == q.rank - 1


@settings(max_examples=40, deadline=None)
@given(quiver_strategy())
def test_path_predicates_agree(q):
    def count_paths(a, b):
        """Directed paths a -> b (the trivial one when a == b), counted by
        walking the arrows."""
        return 1 if a == b else sum(count_paths(w, b) for u, w in q.arrows if u == a)

    verts = list(q.vertices)
    for a, b in itertools.product(verts, verts):
        has = q.has_path(a, b)
        # in a tree, paths are unique when they exist
        assert count_paths(a, b) == has
        walk = q.path_vertices(a, b)
        if has:
            assert walk[0] == a and walk[-1] == b
            for u, w in zip(walk, walk[1:]):
                assert (u, w) in q.arrows
        else:
            assert walk is None


def test_orientation_must_cover_each_edge_once():
    with pytest.raises(GuardError):
        build_quiver("A3", "1->2 2->3 3->2")
    with pytest.raises(GuardError):
        build_quiver("A3", "1->2")
    with pytest.raises(GuardError):
        build_quiver("A3", "1->2 1->3")


@settings(max_examples=30, deadline=None)
@given(quiver_strategy())
def test_nakayama_involution_properties(q):
    inv = nakayama_involution(q)
    assert sorted(inv) == sorted(inv.values())
    for v in q.vertices:
        assert inv[inv[v]] == v
    # the involution preserves the diagram
    edges = {frozenset(e) for e in q.dtype.edges}
    assert {frozenset((inv[a], inv[b])) for a, b in edges} == edges


def test_nakayama_fixed_points():
    # odd A: reversal; D even: identity; D odd: swaps the fork; E6: reversal-like
    assert nakayama_involution(build_quiver("A3")) == {1: 3, 2: 2, 3: 1}
    assert nakayama_involution(build_quiver("A4")) == {1: 4, 2: 3, 3: 2, 4: 1}
    assert nakayama_involution(build_quiver("D4")) == {v: v for v in range(1, 5)}
    d5 = nakayama_involution(build_quiver("D5"))
    assert d5[1] == 1 and d5[2] == 2 and d5[3] == 3 and d5[4] == 5
    e6 = nakayama_involution(build_quiver("E6"))
    assert e6[6] == 6  # branch vertex stays put


def test_opposite_quiver_flips_paths():
    q = build_quiver("A3", "1->2 3->2")
    op = q.opposite()
    assert set(op.arrows) == {(2, 1), (2, 3)}
    assert q.has_path(1, 2) and op.has_path(2, 1)


@settings(max_examples=30, deadline=None)
@given(quiver_strategy())
def test_serialization_round_trips(q):
    assert quiver_from_json(quiver_to_json(q)) == q
    assert quiver_from_text(quiver_to_text(q)) == q


def test_text_parser_details():
    q = quiver_from_text("# comment\ntype A 2\n2 -> 1\n")
    assert set(q.arrows) == {(2, 1)}
    with pytest.raises(GuardError):
        quiver_from_text("1 -> 2\n")  # missing header
    with pytest.raises(GuardError):
        quiver_from_text("type A 2\n1 => 2\n")


# ---------------------------------------------------------------------------
# the string parsers against the regular expressions they replaced


def regex_parse(spec):
    if isinstance(spec, DynkinType):
        return spec
    m = re.fullmatch(r"\s*([ADEade])\s*(\d+)\s*", str(spec))
    if not m:
        raise GuardError(f"cannot parse Dynkin type from {spec!r} (expected e.g. 'A3')")
    return DynkinType(m.group(1).upper(), int(m.group(2)))


def regex_parse_arrows(spec):
    out = []
    for tok in spec.replace(",", " ").split():
        m = re.fullmatch(r"(\d+)\s*->\s*(\d+)", tok)
        if not m:
            raise GuardError(f"cannot parse arrow {tok!r} (expected e.g. '1->2')")
        out.append((int(m.group(1)), int(m.group(2))))
    return out


def regex_quiver_from_text(text):
    dtype = None
    arrows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("type"):
            parts = line.split()
            if len(parts) != 3:
                raise GuardError(f"bad type header {line!r} (expected 'type A 3')")
            dtype = regex_parse(parts[1] + parts[2])
            continue
        m = re.fullmatch(r"(\d+)\s*->\s*(\d+)", line)
        if not m:
            raise GuardError(f"cannot parse quiver line {line!r}")
        arrows.append((int(m.group(1)), int(m.group(2))))
    if dtype is None:
        raise GuardError("quiver text is missing its 'type' header")
    return build_quiver(dtype, arrows or None)


def parsed(parse, text):
    """The value `parse` gives, or the type and text of what it raises."""
    try:
        return "value", parse(text)
    except Exception as exc:  # noqa: BLE001 - the error text is compared
        return type(exc).__name__, str(exc)


# the zero of each script's decimal digits: ASCII, Arabic-Indic, Devanagari,
# fullwidth and mathematical bold; all are `\d`, and `int` reads them
ZEROS = (0x30, 0x660, 0x966, 0xFF10, 0x1D7CE)
# `\s` and `str.isspace` characters, line ends among them, and near misses
SPACES = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028",
          "\u3000")
NOISE = ("\xb3", "\xbd", "-", ">", "->", "=>", "--", ",", "#", ".", "+", "_", "B", "x", "type")


@st.composite
def numerals(draw):
    """A decimal numeral in mixed scripts, now and then with a superscript
    digit in it, which is a digit but no decimal, so `int` refuses it."""
    n = draw(st.integers(1, 8) | st.integers(0, 12) | st.integers(0, 10**6))
    digits = draw(st.sampled_from(("", "0", "00"))) + str(n)
    text = "".join(chr(draw(st.sampled_from(ZEROS)) + int(d)) for d in digits)
    if draw(st.integers(0, 7)) == 0:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + "\xb3" + text[k:]
    return text


spaces = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
# whitespace that ends no line for `str.splitlines`
inline = st.lists(st.sampled_from((" ", "\t", "\xa0", "\u2003", "\u3000")), max_size=2).map("".join)
noise = st.lists(st.sampled_from(SPACES + NOISE + ("A", "d", "1", "\uff12")), max_size=6).map("".join)


@st.composite
def type_spellings(draw):
    letter = draw(st.sampled_from("ADEadeBx"))
    parts = [draw(spaces), letter, draw(spaces), draw(numerals()), draw(spaces)]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(parts)))
        parts.insert(k, draw(noise))
    return "".join(parts) + draw(st.sampled_from(("", "\n", "\n\n")))


@st.composite
def arrow_spellings(draw):
    """`i->j` with whitespace of any kind around the arrow (which splits
    the token in an orientation string), or noise in its place."""
    if draw(st.integers(0, 5)) == 0:
        return draw(noise)
    sep = draw(st.sampled_from(("->", "->", "-->", "=>", "- >")))
    return draw(numerals()) + draw(spaces) + sep + draw(spaces) + draw(numerals())


@st.composite
def orientation_strings(draw):
    tokens = draw(st.lists(arrow_spellings(), max_size=4))
    seps = draw(st.lists(st.sampled_from((" ", ",", ", ", "\t", "\n", "\u3000", ",,")),
                         min_size=len(tokens), max_size=len(tokens)))
    return draw(spaces) + "".join(t + s for t, s in zip(tokens, seps)) + draw(spaces)


@st.composite
def quiver_texts(draw):
    """Quiver text of a small type: a header, then each edge in a drawn
    orientation with Unicode digits, blank lines, comments and noise lines,
    under every line end `str.splitlines` knows."""
    dtype = DynkinType.parse(draw(st.sampled_from(["A1", "A2", "A3", "D4"])))
    lines = ["type" + draw(inline) + " " + dtype.letter + " " + draw(inline)
             + chr(draw(st.sampled_from(ZEROS)) + dtype.rank)]
    for i, j in dtype.edges:
        if draw(st.booleans()):
            i, j = j, i
        lines.append(draw(inline) + chr(draw(st.sampled_from(ZEROS)) + i) + draw(inline)
                     + "->" + draw(inline) + str(j) + draw(inline))
    extra = draw(st.lists(st.one_of(arrow_spellings(), noise, st.just("# note"),
                                    type_spellings().map(lambda t: "type " + t)), max_size=2))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r", "\x85", "\u2028", " # c\n")),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None)
@given(st.one_of(type_spellings(), noise))
def test_type_parser_agrees_with_its_regex(text):
    assert parsed(DynkinType.parse, text) == parsed(regex_parse, text)


@settings(max_examples=300, deadline=None)
@given(orientation_strings())
def test_arrow_parser_agrees_with_its_regex(text):
    assert parsed(_parse_arrows, text) == parsed(regex_parse_arrows, text)


@settings(max_examples=300, deadline=None)
@given(quiver_texts())
def test_text_parser_agrees_with_its_regex(text):
    assert parsed(quiver_from_text, text) == parsed(regex_quiver_from_text, text)


def test_parsers_read_unicode_digits_and_one_trailing_newline():
    assert DynkinType.parse(" d\u3000\u0665\n") == DynkinType("D", 5)
    assert _parse_arrows("\uff11->\u0968, 3->2") == [(1, 2), (3, 2)]
    q = quiver_from_text("type A \u0663\r\n1 \t-> 2\x853->\xa02\u2028")
    assert set(q.arrows) == {(1, 2), (3, 2)}
    with pytest.raises(GuardError, match="cannot parse Dynkin type"):
        DynkinType.parse("A\xb3")  # a superscript is a digit, not a decimal
    with pytest.raises(GuardError, match="cannot parse arrow"):
        _parse_arrows("1->2->3")


def test_cartan_matrix_symmetric_with_twos():
    for name in ("A3", "D5", "E6"):
        dt = DynkinType.parse(name)
        c = dt.cartan_rows()
        n = dt.rank
        assert all(type(x) is int for row in c for x in row)
        assert all(c[i][j] == c[j][i] for i in range(n) for j in range(n))
        assert all(c[i][i] == 2 for i in range(n))
        # -1 exactly on the edges of the diagram
        assert {(i + 1, j + 1) for i in range(n) for j in range(i) if c[i][j]} == {
            (j, i) for i, j in dt.edges}
        assert {c[i][j] for i in range(n) for j in range(n) if i != j} <= {0, -1}


def test_unpickled_quiver_rehashes_in_its_own_process():
    # string hashes differ between processes, so a hash cached at build
    # time must not travel with a pickle
    import os
    import pickle
    import subprocess
    import sys

    import quiverlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quiverlab.__file__)))
    dump = "import pickle, sys; from quiverlab.dynkin import build_quiver; " \
           "sys.stdout.buffer.write(pickle.dumps(build_quiver('D5', '2->1 2->3 3->4 5->3')))"
    blob = subprocess.run([sys.executable, "-c", dump], capture_output=True, check=True,
                          env=dict(env, PYTHONHASHSEED="1")).stdout
    q = pickle.loads(blob)
    fresh = build_quiver("D5", "2->1 2->3 3->4 5->3")
    assert q == fresh and hash(q) == hash(fresh)
    assert {fresh: 1}[q] == 1
    assert q is fresh  # rebuilt through the interning memo
