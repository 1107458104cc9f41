"""Extended affine Weyl groups: lengths, reduced words, descents, cosets."""

import itertools
import random

import pytest

from expflag.root_datum import (
    RootDatumError, _adjoint_preset, _simply_connected, build_root_datum)
from expflag.affine_weyl import AffineWeyl, AffineWeylElement, AffineWeylError, ExpLabel
from expflag.coefficients import QPoly
from expflag.hecke import HeckeElement

PRESETS = ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4"]

# rank-three data for the table checks, in the presets' transpose convention
_RANK_THREE = {
    "Sp6": (_simply_connected, [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]),
    "Spin7": (_simply_connected, [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]),
    "PGL4": (_adjoint_preset, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
}


@pytest.fixture(scope="module", params=PRESETS)
def W(request):
    return AffineWeyl(build_root_datum(request.param))


def _random_element(W, rng, max_len=8):
    w = W.identity
    for _ in range(rng.randrange(max_len + 1)):
        w = W.mul(w, W.simples[rng.randrange(len(W.simples))])
    # length-zero factors only exist as a finite set for semisimple data
    if W.rd.rank == W.rd.char_lattice_rank and rng.random() < 0.3:
        w = W.mul(rng.choice(list(W.omega_elements())), w)
    return w


def test_group_axioms(W):
    rng = random.Random(11)
    for _ in range(100):
        x = _random_element(W, rng)
        y = _random_element(W, rng)
        z = _random_element(W, rng)
        assert W.mul(W.mul(x, y), z) == W.mul(x, W.mul(y, z))
        assert W.mul(x, W.inverse(x)) == W.identity
        assert W.mul(W.identity, x) == x


def test_length_is_word_length(W):
    rng = random.Random(13)
    for _ in range(60):
        w = _random_element(W, rng)
        tau, word = W.reduced_word(w)
        assert W.length(w) == len(word)
        assert W.length(tau) == 0
        assert W.mul(tau, W.word_to_element(word)) == w


def _enumerable(W):
    if W.rd.rank != W.rd.char_lattice_rank:
        pytest.skip("enumeration needs a finite length-zero subgroup")


def test_length_matches_brute_count(W):
    _enumerable(W)
    for w in W.enumerate_elements(4):
        assert W.length(w) == W.length_brute(w)


def test_length_subadditive_and_inverse_invariant(W):
    rng = random.Random(17)
    for _ in range(60):
        x = _random_element(W, rng)
        y = _random_element(W, rng)
        assert W.length(W.mul(x, y)) <= W.length(x) + W.length(y)
        assert W.length(W.inverse(x)) == W.length(x)


def test_simple_multiplication_changes_length_by_one(W):
    rng = random.Random(19)
    for _ in range(60):
        w = _random_element(W, rng)
        for s in W.simples:
            assert abs(W.length(W.mul(w, s)) - W.length(w)) == 1


@pytest.fixture(scope="module", params=PRESETS + sorted(_RANK_THREE))
def W_tables(request):
    name = request.param
    if name in _RANK_THREE:
        make, cartan = _RANK_THREE[name]
        return AffineWeyl(build_root_datum(make(name, cartan)))
    return AffineWeyl(build_root_datum(name))


def test_descents_detect_length_drop(W_tables):
    """The closed-form descents, the right-multiplication table and the
    reduced words against products and lengths."""
    W = W_tables
    rng = random.Random(23)
    for _ in range(60):
        w = _random_element(W, rng)
        lw = W.length(w)
        for i, s in enumerate(W.simples):
            assert W.right_mul_simple(w, i) == W.mul(w, s)
            assert W.is_right_descent(w, i) == (W.length(W.mul(w, s)) < lw)
            assert W.is_right_descent(W.inverse(w), i) == (W.length(W.mul(s, w)) < lw)
        tau, word = W.reduced_word(w)
        assert len(word) == lw
        assert W.mul(tau, W.word_to_element(word)) == w
        assert W.reduced_word(w) == (tau, word)


def _peel(W, w):
    """reduced_word read without the step table or the memo."""
    word = []
    for _ in range(W.length(w)):
        i = next(i for i in range(W.num_simples) if W.is_right_descent(w, i))
        word.append(i)
        w = W.right_mul_simple(w, i)
    return w, tuple(reversed(word))


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2"])
def test_step_table_and_word_memo_match_the_direct_reads(name):
    W = AffineWeyl(build_root_datum(name))
    for w in W.enumerate_elements(4):
        assert W.simple_steps(w) == tuple(
            (W.right_mul_simple(w, i), W.is_right_descent(w, i))
            for i in range(W.num_simples))
        # the first read fills the memo, the second reads it
        assert W.reduced_word(w) == _peel(W, w)
        assert W.reduced_word(w) == _peel(W, w)


def test_enumeration_steps_hold_the_enumerated_elements():
    """The step rows enumerate_elements fills hold the very elements it
    returns, not equal copies, for every element below the bound."""
    W = AffineWeyl(build_root_datum("SL3"))
    elems = W.enumerate_elements(6)
    mine = {w: w for w in elems}
    assert len(mine) == len(elems)
    rows = 0
    for w in elems:
        if W.length(w) < 6:
            rows += 1
            for y, _down in W.simple_steps(w):
                assert y is mine[y]
    assert 0 < rows < len(elems)


@pytest.mark.parametrize("index", [-1, 3])
def test_out_of_range_index_is_rejected_with_warm_tables(index):
    """-1 would read the last entry of a step-table row."""
    W = AffineWeyl(build_root_datum("SL3"))
    for w in W.enumerate_elements(3):
        W.reduced_word(w)
    with pytest.raises(AffineWeylError, match=rf"no simple reflection s{index}"):
        W.word_to_element([0, index])


@pytest.mark.parametrize("read", [
    lambda W, lam: W.length(W.translation(lam)),
    lambda W, lam: W.reduced_word(W.translation(lam)),
], ids=["length", "reduced_word"])
def test_translation_by_a_coweight_of_the_wrong_rank_is_rejected(read):
    """On SL3 the one-coordinate (1,) used to give length 4 and a word."""
    W = AffineWeyl(build_root_datum("SL3"))
    with pytest.raises(RootDatumError, match=r"\(1,\) has 1 coordinates; SL3 takes 2"):
        read(W, (1,))


def test_reduced_word_without_a_descent_is_an_error():
    W = AffineWeyl(build_root_datum("SL3"))
    w = W.word_to_element([0, 1])
    # a length that the descents cannot account for
    W._len_cache[w] = 3
    with pytest.raises(AffineWeylError, match="no descent"):
        W.reduced_word(w)


def test_exp_label_tag_is_checked():
    W = AffineWeyl(build_root_datum("SL2"))
    with pytest.raises(AffineWeylError, match="bad tag 'open'"):
        ExpLabel("open", W.identity)


def test_negative_label_length_bound_is_an_error():
    W = AffineWeyl(build_root_datum("SL2"))
    with pytest.raises(AffineWeylError, match="nonnegative"):
        W.enumerate_exp_labels(-1)
    # enumerate_elements used to return Omega
    with pytest.raises(AffineWeylError, match="nonnegative"):
        W.enumerate_elements(-1)


def test_equal_labels_are_one_key():
    W = AffineWeyl(build_root_datum("SL3"))
    a = ExpLabel("zero", W.word_to_element([1, 0]))
    b = ExpLabel("zero", W.mul(W.simples[1], W.simples[0]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert ExpLabel("coset", a.elt) != a


def test_translation_lengths_are_weyl_invariant(W):
    rd = W.rd
    rng = random.Random(29)
    for _ in range(30):
        lam = tuple(rng.randrange(-2, 3) for _ in range(rd.char_lattice_rank))
        base = W.length(W.translation(lam))
        for v in rd.weyl_elements():
            assert W.length(W.translation(rd.apply_coweight(v, lam))) == base


def test_coset_representatives_partition(W):
    _enumerable(W)
    f0 = W.facet_f0()
    elems = W.enumerate_elements(4)
    for w in elems:
        m = W.right_minimal(w, f0)
        assert W.is_right_minimal(m, f0)
        assert W.length(m) <= W.length(w)


def test_bruhat_order_is_reflexive_and_respects_length(W):
    _enumerable(W)
    elems = W.enumerate_elements(3)
    for x in elems:
        assert W.bruhat_leq(x, x)
        for y in elems:
            if W.bruhat_leq(x, y) and x != y:
                assert W.length(x) < W.length(y)


def test_element_json_round_trip(W):
    rng = random.Random(31)
    for _ in range(40):
        w = _random_element(W, rng)
        assert W.from_json(W.to_json(w)) == w


@pytest.mark.parametrize("doc,match", [
    ({"lambda": [0, 0], "v_word": [5]}, "letter 5 names no simple"),
    # a negative letter used to wrap around to the last simple reflection
    ({"lambda": [0, 0], "v_word": [-1]}, "letter -1 names no simple"),
    ({"lambda": [0, 0, 0], "v_word": []}, r"lambda \[0, 0, 0\] is not a coweight"),
    ({"lambda": [0.5, 0], "v_word": [0]}, r"lambda \[0.5, 0\] is not a coweight"),
])
def test_element_json_with_a_bad_entry_is_rejected(doc, match):
    W = AffineWeyl(build_root_datum("SL3"))
    with pytest.raises(AffineWeylError, match=match):
        W.from_json(doc)
    with pytest.raises(AffineWeylError, match=match):
        HeckeElement.from_json(W, [{"element": doc, "qpoly": QPoly({0: 1}).to_json()}])


@pytest.mark.parametrize("index", [-1, 2, 7])
def test_word_with_an_out_of_range_index_is_rejected(index):
    # a negative index used to wrap around to the last simple reflection
    W = AffineWeyl(build_root_datum("SL2"))
    with pytest.raises(AffineWeylError, match="no simple reflection"):
        W.word_to_element([0, index])


# ---- Omega and reflections against the searches their formulas replaced

_A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
_A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
_B3 = _RANK_THREE["Spin7"][1]
_C3 = _RANK_THREE["Sp6"][1]
_D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

# data that are not presets, with the order of pi1 = X_*(T) / (coroot lattice);
# SO6 = SL4 / mu2 and SO4 = (SL2 x SL2) / mu2 are intermediate isogenies
_NON_PRESET = {
    "PGL4": (_adjoint_preset("PGL4", _A3), 4),
    "PGL5": (_adjoint_preset("PGL5", _A4), 5),
    "PSp6": (_adjoint_preset("PSp6", _C3), 2),
    "SO7_adj": (_adjoint_preset("SO7_adj", _B3), 2),
    "PSO8": (_adjoint_preset("PSO8", _D4), 4),
    "SO6": ({"name": "SO6", "simple_roots": [(1, 0, 0), (0, 1, 0), (1, 0, 2)],
             "simple_coroots": [(2, -1, -1), (-1, 2, 0), (0, -1, 1)]}, 2),
    "SO4": ({"name": "SO4", "simple_roots": [(1, 0), (1, 2)],
             "simple_coroots": [(2, -1), (0, 1)]}, 2),
}


def _omega_by_box_scan(W):
    """Length-zero elements by a scan of a coordinate box, one per coset of
    the coroot lattice, in the box's order."""
    rd = W.rd
    box = 3 + max(max(abs(c) for c in ck) for ck in rd.simple_coroots)
    reps, out = [], []
    for lam in itertools.product(range(-box, box + 1), repeat=rd.char_lattice_rank):
        if any(abs(rd.pair(a, lam)) > 1 for a in rd.positive_roots):
            continue
        if any(rd.coroot_coords(tuple(a - b for a, b in zip(lam, r))) is not None
               for r in reps):
            continue
        for v in rd.weyl_elements():
            w = AffineWeylElement(lam, v)
            if W.length(w) == 0:
                reps.append(lam)
                out.append(w)
                break
    return out


def _reflection_by_scan(rd, root):
    """s_root as u s_i u^-1 for the first u in W0 with u(alpha_i) = root."""
    for u in rd.weyl_elements():
        for a, s in zip(rd.simple_roots, rd.simple_reflections):
            if rd.apply_weight(u, a) == root:
                return rd.w_mul(rd.w_mul(u, s), rd.w_inverse(u))
    raise AssertionError(f"{root} is not a root")


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", *_NON_PRESET])
def test_omega_matches_the_box_scan(name):
    spec, order = _NON_PRESET.get(name, (name, None))
    W = AffineWeyl(build_root_datum(spec))
    omega = W.omega_elements()
    assert omega == _omega_by_box_scan(W)
    assert all(W.length(w) == 0 for w in omega)
    if order is not None:
        assert len(omega) == order


def test_omega_needs_a_semisimple_datum():
    with pytest.raises(AffineWeylError, match="semisimple"):
        AffineWeyl(build_root_datum("GL2")).omega_elements()


@pytest.mark.parametrize("name", ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2",
                                  "PGL4", "Sp6", "Spin7", "SO6"])
def test_reflection_matches_the_scan(name):
    if name in _RANK_THREE:
        make, cartan = _RANK_THREE[name]
        rd = build_root_datum(make(name, cartan))
    elif name in _NON_PRESET:
        rd = build_root_datum(_NON_PRESET[name][0])
    else:
        rd = build_root_datum(name)
    for r in rd.roots:
        s = rd.reflection(r)
        assert s == _reflection_by_scan(rd, r)
        assert rd.apply_weight(s, r) == tuple(-a for a in r)
