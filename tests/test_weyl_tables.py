"""The indexed finite Weyl group and the integer tests built on it.

The tables of ``RootDatum`` (products, inverses, the action on roots, left
descents) are checked against the matrices that define them, and the
closed forms of ``AffineWeyl`` (length and left-W0-maximality) against the
brute-force inversion count, left descents and the sign of w^-1(alpha_i) on
the base alcove, and the coset representatives of W0 t_mu W0 against its
ascents.
"""

import itertools

import pytest

from expflag.affine_weyl import AffineRoot, AffineWeyl, AffineWeylElement
from expflag.root_datum import _mat_mul, build_root_datum
from expflag.strata import double_coset_elements, iwahori_orbits_in_spherical

PRESETS = ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2"]
# a length bound that reaches left-W0-maximal elements beyond the finite ones
BOUND = {"SL2": 5, "PGL2": 5, "SL3": 5, "PGL3": 5, "Sp4": 6, "G2": 8}


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


@pytest.mark.parametrize("name", PRESETS)
def test_indices_follow_bfs_order(name):
    rd = build_root_datum(name)
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
    assert [(e.word, e.mat) for e in elts] == order
    assert [e.index for e in elts] == list(range(len(elts)))
    assert rd.identity is elts[0]
    assert [s.word for s in rd.simple_reflections] == [(i,) for i in range(rd.rank)]


@pytest.mark.parametrize("name", PRESETS)
def test_product_and_inverse_tables_match_matrices(name):
    rd = build_root_datum(name)
    elts = rd.weyl_elements()
    ident = rd.identity.mat
    for x, y in itertools.product(elts, repeat=2):
        xy = rd.w_mul(x, y)
        assert xy.index == rd.mul_table[x.index][y.index]
        assert xy.mat == _mat_mul(x.mat, y.mat)
    for x in elts:
        xinv = rd.w_inverse(x)
        assert xinv.index == rd.inv_table[x.index]
        assert _mat_mul(x.mat, xinv.mat) == ident


@pytest.mark.parametrize("name", PRESETS)
def test_root_permutation_matches_weight_matrices(name):
    rd = build_root_datum(name)
    _, wt = _simple_matrices(rd)
    for x in rd.weyl_elements():
        cmat = _word_matrix(rd, wt, x.word)
        for k, r in enumerate(rd.roots):
            image = _apply(cmat, r)
            assert rd.roots[rd.root_perm[x.index][k]] == image
            assert rd.apply_weight(x, r) == image


@pytest.mark.parametrize("name", PRESETS)
def test_word_length_counts_inversions_and_left_descents(name):
    rd = build_root_datum(name)
    pos = rd.positive_root_set
    for x in rd.weyl_elements():
        assert len(x.word) == sum(rd.apply_weight(x, a) not in pos for a in rd.positive_roots)
        shorter = {
            i for i, s in enumerate(rd.simple_reflections)
            if len(rd.w_mul(s, x).word) < len(x.word)
        }
        assert rd.left_descents[x.index] == shorter
    assert rd.longest_element().word == max((e.word for e in rd.weyl_elements()), key=len)


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
        beyond_w0 += closed and W.length(w) > len(W.rd.longest_element().word)
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
        mu_star = tuple(-a for a in w0.apply_coweight(mu))
        assert {W.inverse(y) for y in iwahori_orbits_in_spherical(W, mu_star)} == left, mu


@pytest.mark.parametrize("name", ["SL3", "PGL3", "Sp4", "G2"])
def test_length_matches_brute_count_on_rank_two(name):
    W = AffineWeyl(build_root_datum(name))
    for w in _sample(W, name):
        assert W.length(w) == W.length_brute(w), w
