"""Tests for braid words: Weyl projection, canonical lifts, reduced-word
enumeration, the left-greedy normal form, the star involution, the class
lattice action, and labels for triangular extensions."""

import random
from operator import mul

import numpy as np
import pytest

import quiverlab
from quiverlab import braids as br
from quiverlab import stalks
from quiverlab.dynkin import DynkinType, nakayama_involution
from quiverlab.errors import GuardError
from quiverlab.stalks import IndecLabel
from tests.test_stalks import ORACLE_TYPES, _opposite_quivers, _oracle_quivers

W = br.BraidWord.from_ints
nf = br.garside_normal_form


def adjacency(dtype):
    adj = {i: set() for i in dtype.vertices}
    for (a, b) in dtype.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def rewrite(word, adj, moves=8):
    """Random sequence of relation moves: free insertion/cancellation,
    braid moves on same-sign triples, and far commutations.  Every move
    preserves the group element."""
    letters = list(word.letters)
    for _ in range(moves):
        kind = random.choice(["ins", "del", "braid", "comm"])
        if kind == "ins" and letters:
            p = random.randrange(len(letters) + 1)
            i = random.choice(list(adj))
            s = random.choice([1, -1])
            letters[p:p] = [(i, s), (i, -s)]
        elif kind == "del":
            spots = [
                k
                for k in range(len(letters) - 1)
                if letters[k][0] == letters[k + 1][0]
                and letters[k][1] == -letters[k + 1][1]
            ]
            if spots:
                k = random.choice(spots)
                del letters[k : k + 2]
        elif kind == "braid":
            spots = [
                k
                for k in range(len(letters) - 2)
                if letters[k][1] == letters[k + 1][1] == letters[k + 2][1]
                and letters[k] == letters[k + 2]
                and letters[k + 1][0] in adj[letters[k][0]]
            ]
            if spots:
                k = random.choice(spots)
                i, s = letters[k]
                j, _ = letters[k + 1]
                letters[k : k + 3] = [(j, s), (i, s), (j, s)]
        else:
            spots = [
                k
                for k in range(len(letters) - 1)
                if letters[k][0] != letters[k + 1][0]
                and letters[k + 1][0] not in adj[letters[k][0]]
            ]
            if spots:
                k = random.choice(spots)
                letters[k], letters[k + 1] = letters[k + 1], letters[k]
    return br.BraidWord(word.dtype, tuple(letters))


def random_word(dtype, length, rng):
    verts = list(dtype.vertices)
    return br.BraidWord(
        dtype,
        tuple((rng.choice(verts), rng.choice([1, -1])) for _ in range(length)),
    )


# ---------------------------------------------------------------------------
# words and projection


def test_word_construction_guards():
    with pytest.raises(GuardError):
        W("A2", [3])
    with pytest.raises(GuardError):
        W("A2", [0])
    with pytest.raises(GuardError):
        W("A2", [1]) * W("A3", [1])


def test_inverse_cancels():
    w = W("A3", [1, -2, 3, 1])
    assert nf(w * w.inverse()) == nf(W("A3", []))
    assert br.braid_equal(w.inverse().inverse(), w)


def test_projection_kills_squares():
    assert br.project_to_weyl(W("A1", [1, 1])) == br.project_to_weyl(W("A1", []))
    # sign is invisible in the Weyl group
    assert br.project_to_weyl(W("A2", [-1])) == br.project_to_weyl(W("A2", [1]))


def test_canonical_lift_of_longest_element():
    w0 = br.project_to_weyl(W("A2", [1, 2, 1]))
    assert br.canonical_lift(w0).letters == ((1, 1), (2, 1), (1, 1))


def test_reduced_words_of_longest_element():
    w0 = br.project_to_weyl(W("A2", [1, 2, 1]))
    assert br.reduced_words(w0) == [(1, 2, 1), (2, 1, 2)]


def test_reduced_words_length_cap():
    w0 = br.project_to_weyl(br.garside_element("E6"))
    with pytest.raises(GuardError):
        br.reduced_words(w0)


def test_reduced_word_limit_stops_the_enumeration(monkeypatch):
    """Past the limit the enumeration stops: each word costs at most one
    product per letter, so the 768 words of the A4 longest element are
    never all listed."""
    w0 = br.project_to_weyl(br.garside_element("A4"))
    assert len(br.reduced_words(w0)) == 768
    products = []
    mul = br._WeylContext.mul

    def counted(self, a, b):
        products.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(br, "_REDUCED_WORDS_LIMIT", 5)
    monkeypatch.setattr(br._WeylContext, "mul", counted)
    with pytest.raises(GuardError, match="too many reduced words"):
        br.reduced_words(w0)
    assert 0 < len(products) <= 6 * 10


def test_matsumoto_lifts():
    # every reduced word of a Weyl element lifts to the same braid
    rng = random.Random(5)
    for t in ("A2", "A3"):
        base = W(t, [])
        for _ in range(6):
            w = random_word(base.dtype, 6, rng)
            pos = br.BraidWord(base.dtype, tuple((i, 1) for (i, _) in w.letters))
            el = br.project_to_weyl(pos)
            lifts = [W(t, rw) for rw in br.reduced_words(el)]
            for u in lifts[1:]:
                assert br.braid_equal(lifts[0], u)


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_fixtures():
    f = nf(W("A2", [1, 2, 1]))
    assert (f.infimum, f.factors) == (1, ())
    f = nf(W("A2", [1, -1]))
    assert (f.infimum, f.factors) == (0, ())
    f = nf(W("A2", [-1]))
    assert f.infimum == -1 and len(f.factors) == 1
    assert f.factors[0] == br.project_to_weyl(W("A2", [1, 2]))


def test_braid_relation_holds():
    assert br.braid_equal(W("A2", [1, 2, 1]), W("A2", [2, 1, 2]))
    assert not br.braid_equal(W("A2", [1, 2]), W("A2", [2, 1]))


def test_normal_form_reconstruction():
    # collapsing D^inf . factors back into a word reproduces the form
    rng = random.Random(17)
    for t in ("A2", "A3", "D4"):
        D = br.garside_element(t)
        for _ in range(8):
            w = random_word(D.dtype, 9, rng)
            form = nf(w)
            word = W(t, [])
            step = D if form.infimum >= 0 else D.inverse()
            for _ in range(abs(form.infimum)):
                word = word * step
            for f in form.factors:
                word = word * br.canonical_lift(f)
            assert nf(word) == form
            assert br.braid_equal(word, w)


def test_factors_are_proper_simples():
    D = br.garside_element("A3")
    delta = br.project_to_weyl(D)
    rng = random.Random(23)
    for _ in range(10):
        form = nf(random_word(D.dtype, 8, rng))
        for f in form.factors:
            assert br.canonical_lift(f).letters  # nontrivial
            assert f != delta  # full twists are absorbed into the power


def test_rewriting_equivalence():
    rng = random.Random(41)
    for t in ("A2", "A3", "D4"):
        base = W(t, [])
        adj = adjacency(base.dtype)
        for _ in range(25):
            w = random_word(base.dtype, rng.randrange(0, 10) or 1, rng)
            u = rewrite(w, adj, moves=10)
            assert nf(u) == nf(w)


def test_distinct_projections_have_distinct_forms():
    rng = random.Random(43)
    base = W("A3", [])
    seen = 0
    for _ in range(40):
        a = random_word(base.dtype, 6, rng)
        b = random_word(base.dtype, 6, rng)
        if br.project_to_weyl(a) != br.project_to_weyl(b):
            seen += 1
            assert nf(a) != nf(b)
    assert seen > 10


def test_trailing_full_twist_moves_into_the_infimum():
    rng = random.Random(47)
    for t in ("A3", "D4", "E6"):
        D = br.garside_element(t)
        delta = br.project_to_weyl(D)
        for _ in range(4):
            w = random_word(D.dtype, 8, rng)
            form = nf(w * D)
            assert form.infimum == nf(w).infimum + 1
            assert form == nf(D * br.star_involution(w))
            for f in form.factors:
                assert f != delta and br.canonical_lift(f).letters


def test_cancelling_the_last_factor_drops_it():
    rng = random.Random(53)
    for t in ("A3", "D4", "E6"):
        base = W(t, [])
        for _ in range(4):
            w = random_word(base.dtype, 8, rng)
            form = nf(w)
            if not form.factors:
                continue
            u = w * br.canonical_lift(form.factors[-1]).inverse()
            assert nf(u) == br.GarsideForm(form.dtype, form.infimum, form.factors[:-1])


# ---------------------------------------------------------------------------
# oracle: the meet-based sweep the sliding replaced


def weyl_inverse(x):
    perm = [0] * len(x.perm)
    for k, image in enumerate(x.perm):
        perm[image] = k
    return br.WeylElement(x.dtype, tuple(perm))


def meet_prefix(ctx, a, b):
    """Largest common prefix in the left weak order: strip common left
    descents off both; what was stripped off `a` is the meet.  Both are
    held as the codes of their inverse simple-root images, where i is a
    left descent iff entry i is negative, and stripping s_i (x <- s_i x,
    so x^-1 <- x^-1 s_i) negates entry i and adds it to each neighbour."""
    a_inv, b_inv = list(ctx.images(a)[1]), list(ctx.images(b)[1])
    while (p := next((p for p, (x, y) in enumerate(zip(a_inv, b_inv)) if x < 0 and y < 0),
                     None)) is not None:
        for inv in (a_inv, b_inv):
            y = inv[p]
            inv[p] = -y
            for q in ctx.adj[p]:
                inv[q] += y
    # a = meet * rest, and rest^-1 has the images left in a_inv
    return ctx.mul(a, ctx.element(tuple(a_inv)))


def right_complement(ctx, a):
    return ctx.mul(weyl_inverse(a), ctx.w0)


def meet_append_simple(ctx, infimum, factors, s):
    factors = factors + [s]
    for k in range(len(factors) - 2, -1, -1):
        a, b = factors[k], factors[k + 1]
        u = meet_prefix(ctx, right_complement(ctx, a), b)
        if u == ctx.identity:
            break
        factors[k] = ctx.mul(a, u)
        factors[k + 1] = ctx.mul(weyl_inverse(u), b)
    while factors and factors[0] == ctx.w0:
        factors.pop(0)
        infimum += 1
    while factors and factors[-1] == ctx.identity:
        factors.pop()
    return infimum, factors


def meet_normal_form(w):
    ctx = br._ctx_of(w)
    infimum, factors = 0, []
    for (i, s) in w.letters:
        if s > 0:
            infimum, factors = meet_append_simple(ctx, infimum, factors, ctx.gens[i])
        else:
            factors = [ctx.mul(ctx.w0, ctx.mul(x, ctx.w0)) for x in factors]
            infimum, factors = meet_append_simple(
                ctx, infimum - 1, factors, ctx.mul(ctx.w0, ctx.gens[i])
            )
    return br.GarsideForm(w.dtype, infimum, tuple(factors))


def oracle_words(t):
    """25 seeded words of 1-24 letters, an all-negative word, w w^-1 and
    powers of the Garside element, mixed with a word."""
    rng = random.Random(f"oracle-{t}")
    dt = DynkinType.parse(t)
    D = br.garside_element(dt)
    words = [random_word(dt, rng.randrange(1, 25), rng) for _ in range(25)]
    w = words[0]
    words.append(br.BraidWord(dt, tuple((i, -1) for i in rng.choices(dt.vertices, k=12))))
    words += [w * w.inverse(), D * D, D.inverse(), D * w * D.inverse() * D.inverse()]
    return words


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_sliding_matches_the_meet_sweep(t):
    for w in oracle_words(t):
        form, expect = nf(w), meet_normal_form(w)
        assert form.infimum == expect.infimum
        assert form.factors == expect.factors


# one seeded 100-letter word per type, far past the oracle words' 24 letters
LONG_WORD_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7"]


@pytest.mark.parametrize("t", LONG_WORD_TYPES)
def test_sliding_matches_the_meet_sweep_on_a_long_word(t):
    dt = DynkinType.parse(t)
    w = random_word(dt, 100, random.Random(f"long-{t}"))
    assert nf(w) == meet_normal_form(w)


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_star_form_is_the_form_of_the_star_image(t):
    # the two-form route that `star_form` replaced is the oracle
    for w in oracle_words(t):
        form, star = nf(w), nf(br.star_involution(w))
        assert br.star_form(form) == star
        assert br.is_in_B_star(w) == (star == form)


def _form_to_word(form: br.GarsideForm) -> br.BraidWord:
    """The braid word Delta^infimum followed by the canonical lifts of the
    factors: the element that the normal form names."""
    delta = br.garside_element(form.dtype)
    word = br.BraidWord(form.dtype, ())
    for _ in range(abs(form.infimum)):
        word = word * (delta if form.infimum > 0 else delta.inverse())
    for f in form.factors:
        word = word * br.canonical_lift(f)
    return word


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_form_word_acts_like_the_input(t):
    # invariants of the braid group element that need no normal form
    for w in oracle_words(t):
        u = _form_to_word(nf(w))
        assert br.project_to_weyl(u) == br.project_to_weyl(w)
        assert br.k0_rows(u) == br.k0_rows(w)
        assert sum(s for _, s in u.letters) == sum(s for _, s in w.letters)


# ---------------------------------------------------------------------------
# the star involution and the full twist


def test_star_letterwise_fixture():
    assert br.star_involution(W("A2", [1])).letters == ((2, 1),)
    assert br.star_involution(W("D4", [1, -3])).letters == ((1, 1), (3, -1))


def test_star_agrees_with_conjugation():
    rng = random.Random(29)
    for t in ("A2", "A3", "D4"):
        D = br.garside_element(t)
        for _ in range(10):
            w = random_word(D.dtype, 7, rng)
            assert br.braid_equal(
                br.star_involution(w), D.inverse() * w * D
            )


def test_full_twist_is_central():
    rng = random.Random(31)
    for t in ("A2", "A3"):
        D = br.garside_element(t)
        sq = D * D
        for _ in range(6):
            w = random_word(D.dtype, 7, rng)
            assert br.braid_equal(sq * w, w * sq)


def test_star_fixed_subgroup():
    D = br.garside_element("A2")
    assert not br.is_in_B_star(W("A2", [1]))
    assert br.is_in_B_star(D)
    assert br.is_in_B_star(W("A2", []))
    # closure under product and inverse on star-fixed samples
    u, v = D, D * D.inverse() * D
    assert br.is_in_B_star(u * v)
    assert br.is_in_B_star(u.inverse())
    # membership is star-invariant
    w = W("A2", [1, 2])
    assert br.is_in_B_star(w) == br.is_in_B_star(br.star_involution(w))


# ---------------------------------------------------------------------------
# the class lattice action


def test_k0_generator_fixture():
    assert br.k0_rows(W("A2", [1])) == ((-1, 1), (0, 1))


def reflection_matrix(dtype, word):
    """Product of the simple reflections s_i = I - e_i C[i, :] along a word."""
    C = np.array(dtype.cartan_rows(), dtype=np.int64)
    n = dtype.rank
    out = np.eye(n, dtype=np.int64)
    for i in word:
        M = np.eye(n, dtype=np.int64)
        M[i - 1, :] -= C[i - 1, :]
        out = out @ M
    return tuple(map(tuple, out.tolist()))


def test_k0_is_the_reflection_matrix_of_the_weyl_image():
    rng = random.Random(59)
    for t in ("A3", "D4", "E6"):
        dt = DynkinType.parse(t)
        for _ in range(5):
            w = random_word(dt, 12, rng)
            lift = br.canonical_lift(br.project_to_weyl(w))
            expect = reflection_matrix(dt, [i for i, _ in lift.letters])
            assert br.k0_rows(w) == expect


def test_k0_kills_cancelling_pairs():
    assert br.k0_rows(W("A2", [1, -1])) == ((1, 0), (0, 1))


def test_k0_is_a_homomorphism():
    rng = random.Random(37)
    base = W("A3", [])
    for _ in range(8):
        a = random_word(base.dtype, 5, rng)
        b = random_word(base.dtype, 5, rng)
        product = np.array(br.k0_rows(a)) @ np.array(br.k0_rows(b))
        assert br.k0_rows(a * b) == tuple(map(tuple, product.tolist()))


def test_k0_trivial_on_full_twist():
    for t in ("A2", "A3", "D4"):
        D = br.garside_element(t)
        n = len(D.dtype.vertices)
        assert br.k0_rows(D * D) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_k0_constant_on_equivalence_classes():
    rng = random.Random(39)
    base = W("A2", [])
    adj = adjacency(base.dtype)
    for _ in range(10):
        w = random_word(base.dtype, 6, rng)
        u = rewrite(w, adj)
        assert br.k0_rows(w) == br.k0_rows(u)


# ---------------------------------------------------------------------------
# the Weyl layer


def test_only_the_context_is_memoized():
    names = [n for n in quiverlab.memos() if n.startswith("quiverlab.braids.")]
    assert names == ["quiverlab.braids._context"]


def test_weyl_elements_are_root_permutations():
    w0 = br.project_to_weyl(br.garside_element("D4"))
    n = len(w0.perm)
    assert sorted(w0.perm) == list(range(n))
    # the longest element sends every positive root to a negative one
    assert n == 24 and all(k >= n // 2 for k in w0.perm[: n // 2])


# ---------------------------------------------------------------------------
# the Coxeter word against the inverse translate of the module window


def coxeter_mismatches(q, word) -> int:
    """The slots of the module window at which k0_rows of the braid word
    `word` does not send dim tauinv^m P_v to dim tauinv^(m+1) P_v.  Past the
    last module of an orbit, tauinv^(e_v) P_v is the projective at the
    involuted vertex suspended once, whose class is minus its dimension
    vector."""
    M = br.k0_rows(W(q.dtype, word))
    dims = stalks._module_window(q)[0]
    star = nakayama_involution(q)
    bad = 0
    for lab, d in dims.items():
        want = dims.get(IndecLabel(q, lab.vertex, lab.power + 1))
        if want is None:
            want = tuple(-x for x in dims[IndecLabel(q, star[lab.vertex], 0)])
        bad += tuple(sum(map(mul, row, d)) for row in M) != want
    return bad


@pytest.mark.parametrize("q", [*_oracle_quivers(), *_opposite_quivers()])
def test_coxeter_word_acts_as_the_inverse_translate_on_classes(q):
    """The braid word of the topological order (every arrow from an earlier
    letter to a later one) acts on the class lattice as tauinv, the Coxeter
    transformation of an admissible order (Bernstein-Gelfand-Ponomarev).
    The reversed word is the positive control: it fails on every type but
    A1, whose word has one letter."""
    order = q.topological_order()
    assert coxeter_mismatches(q, order) == 0
    assert (coxeter_mismatches(q, order[::-1]) > 0) == (len(order) > 1)
