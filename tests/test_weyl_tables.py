"""The indexed finite Weyl group and the integer tests built on it.

The tables of ``RootDatum`` (products, inverses, the action on roots, left
descents) are checked against the matrices that define them, on the
presets and on simply connected data of rank three and four; building a
datum forms one matrix product per element but the identity, and an
affine Weyl element or label hashes with no Python-level call. The
closed forms of ``AffineWeyl`` (length and left-W0-maximality) are checked
against the brute-force inversion count, left descents and the sign of
w^-1(alpha_i) on the base alcove, and the coset representatives of
W0 t_mu W0 against its ascents.
"""

import itertools
import sys

import pytest

from expflag import root_datum
from expflag.affine_weyl import AffineRoot, AffineWeyl, AffineWeylElement, ExpLabel
from expflag.root_datum import _mat_mul, _simply_connected, build_root_datum
from expflag.strata import double_coset_elements, iwahori_orbits_in_spherical

PRESETS = ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2"]
# simply connected data of rank three and four, by Cartan matrix
LARGER = {
    "Sp6": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "Spin7": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "SL4": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "SL5": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "Spin8": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}
# a length bound that reaches left-W0-maximal elements beyond the finite ones
BOUND = {"SL2": 5, "PGL2": 5, "SL3": 5, "PGL3": 5, "Sp4": 6, "G2": 8}


def _datum(name):
    if name in LARGER:
        return build_root_datum(_simply_connected(name, LARGER[name]))
    return build_root_datum(name)


def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


def _simple_matrices(rd):
    """s_i on X_*(T) and on X*(T), from the reflection formulas."""
    n = rd.char_lattice_rank
    co, wt = [], []
    for a, av in zip(rd.simple_roots, rd.simple_coroots):
        co.append(tuple(
            tuple(int(r == c) - av[r] * rd.pair(a, _unit(n, c)) for c in range(n))
            for r in range(n)
        ))
        wt.append(tuple(
            tuple(int(r == c) - a[r] * rd.pair(_unit(n, c), av) for c in range(n))
            for r in range(n)
        ))
    return co, wt


def _word_matrix(rd, mats, word):
    n = rd.char_lattice_rank
    out = tuple(_unit(n, i) for i in range(n))
    for i in word:
        out = _mat_mul(out, mats[i])
    return out


def _apply(mat, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in mat)


@pytest.mark.parametrize("name", PRESETS + sorted(LARGER))
def test_indices_follow_bfs_order(name):
    rd = _datum(name)
    co, _ = _simple_matrices(rd)
    ident = _word_matrix(rd, co, ())
    order, seen, i = [((), ident)], {ident}, 0
    while i < len(order):
        word, m = order[i]
        for k, s in enumerate(co):
            m2 = _mat_mul(m, s)
            if m2 not in seen:
                seen.add(m2)
                order.append((word + (k,), m2))
        i += 1
    elts = rd.weyl_elements()
    assert [(rd.words[e], rd.mats[e]) for e in elts] == order
    assert [e for e in elts] == list(range(len(elts)))
    assert rd.identity is elts[0]
    assert [rd.words[s] for s in rd.simple_reflections] == [(i,) for i in range(rd.rank)]


# all pairs: Spin8 (192 elements) alone would take about half a second
@pytest.mark.parametrize("name", PRESETS + sorted(set(LARGER) - {"Spin8"}))
def test_product_and_inverse_tables_match_matrices(name):
    rd = _datum(name)
    elts = rd.weyl_elements()
    ident = rd.mats[rd.identity]
    for x, y in itertools.product(elts, repeat=2):
        xy = rd.w_mul(x, y)
        assert xy == rd.mul_table[x][y]
        assert rd.mats[xy] == _mat_mul(rd.mats[x], rd.mats[y])
    for x in elts:
        xinv = rd.w_inverse(x)
        assert xinv == rd.inv_table[x]
        assert _mat_mul(rd.mats[x], rd.mats[xinv]) == ident


@pytest.mark.parametrize("name", PRESETS + sorted(LARGER))
def test_root_permutation_matches_weight_matrices(name):
    rd = _datum(name)
    _, wt = _simple_matrices(rd)
    for x in rd.weyl_elements():
        cmat = _word_matrix(rd, wt, rd.words[x])
        for k, r in enumerate(rd.roots):
            image = _apply(cmat, r)
            assert rd.roots[rd.root_perm[x][k]] == image
            assert rd.apply_weight(x, r) == image


@pytest.mark.parametrize("name", PRESETS + sorted(LARGER))
def test_word_length_counts_inversions_and_left_descents(name):
    rd = _datum(name)
    pos = rd.positive_root_set
    for x in rd.weyl_elements():
        assert len(rd.words[x]) == sum(rd.apply_weight(x, a) not in pos for a in rd.positive_roots)
        shorter = {
            i for i, s in enumerate(rd.simple_reflections)
            if len(rd.words[rd.w_mul(s, x)]) < len(rd.words[x])
        }
        assert rd.left_descents[x] == shorter
    assert rd.words[rd.longest_element()] == max((rd.words[e] for e in rd.weyl_elements()), key=len)


def _maximal_by_alcove_sign(W, w):
    """The alcove test the closed form replaced: w^-1(alpha_i + 0) < 0 on a0."""
    winv = W.inverse(w)
    return all(
        W.sign_on_alcove(W.act_on_affine_root(winv, AffineRoot(a, 0))) < 0
        for a in W.rd.simple_roots
    )


def _sample(W, name):
    if name in BOUND:
        return W.enumerate_elements(BOUND[name])
    # GL2 has infinitely many length-zero elements: take a box instead
    return [
        AffineWeylElement(lam, v)
        for lam in itertools.product(range(-3, 4), repeat=W.rd.char_lattice_rank)
        for v in W.rd.weyl_elements()
    ]


@pytest.mark.parametrize("name", PRESETS)
def test_closed_form_maximality_matches_descents_and_alcove_sign(name):
    W = AffineWeyl(build_root_datum(name))
    sample = _sample(W, name)
    beyond_w0 = 0
    for w in sample:
        closed = W.is_left_w0_maximal(w)
        assert closed == W.is_left_w0_maximal_by_descents(w), w
        assert closed == _maximal_by_alcove_sign(W, w), w
        beyond_w0 += closed and W.length(w) > len(W.rd.words[W.rd.longest_element()])
    assert beyond_w0 > 0


@pytest.mark.parametrize("name", PRESETS)
def test_closed_form_minimality_matches_left_ascents(name):
    """One element per W0-coset of W0 t_mu W0, as the spherical sums take
    them: iwahori_orbits_in_spherical lists the elements with no finite right
    descent, and its inverses at mu* = -w0 mu (spherical_mul) are the ones
    with no finite left descent."""
    W = AffineWeyl(build_root_datum(name))
    rd = W.rd
    finite = W.simples[: rd.rank]
    w0 = rd.longest_element()
    box = itertools.product(range(-3, 4), repeat=rd.char_lattice_rank)
    for mu in [m for m in box if rd.is_dominant(m) and max(map(abs, m)) > 0]:
        coset = double_coset_elements(W, mu)
        right = [y for y in coset if all(W.length(W.mul(y, s)) > W.length(y) for s in finite)]
        left = {w for w in coset if all(W.length(W.mul(s, w)) > W.length(w) for s in finite)}
        assert iwahori_orbits_in_spherical(W, mu) == right, mu
        mu_star = tuple(-a for a in rd.apply_coweight(w0, mu))
        assert {W.inverse(y) for y in iwahori_orbits_in_spherical(W, mu_star)} == left, mu


@pytest.mark.parametrize("name", ["SL3", "PGL3", "Sp4", "G2"])
def test_length_matches_brute_count_on_rank_two(name):
    W = AffineWeyl(build_root_datum(name))
    for w in _sample(W, name):
        assert W.length(w) == W.length_brute(w), w


def test_building_a_datum_forms_one_matrix_product_per_element(monkeypatch):
    """BFS tells W0 apart by root permutations and forms each matrix once,
    from its parent's: |W0| - 1 = 47 products on Sp6."""
    calls = []
    mat_mul = root_datum._mat_mul

    def counting(x, y):
        calls.append(1)
        return mat_mul(x, y)

    monkeypatch.setattr(root_datum, "_mat_mul", counting)
    rd = _datum("Sp6")
    assert len(rd.weyl_elements()) == 48
    assert len(calls) == 47


@pytest.mark.parametrize("name", ["SL3", "G2"])
def test_hashing_an_element_or_a_label_runs_no_python_function(name):
    """An element of W0 is an int, so an AffineWeylElement or an ExpLabel
    hashes, compares and is looked up in a dict in C."""
    W = AffineWeyl(build_root_datum(name))
    elems = W.enumerate_elements(3)
    labels = [ExpLabel("coset", w) for w in elems]
    table = dict.fromkeys(elems + labels, 1)
    copies = [AffineWeylElement(tuple(w.lam), w.v) for w in elems]
    events = []

    def profile(frame, event, arg):
        if event == "call":
            events.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for w, lab in zip(copies, labels):
            hash(w)
            hash(lab)
            table[w]
            table[lab]
    finally:
        sys.setprofile(None)
    assert events == []
