"""Generic Hecke algebra over Z[q] and its spherical subquotient."""

import collections
import random
import re

import pytest

from expflag.root_datum import RootDatumError, build_root_datum
from expflag.affine_weyl import AffineWeyl, AffineWeylElement
from expflag.coefficients import QPoly
from expflag import hecke
from expflag.hecke import HeckeElement, hecke_mul, omega_mul, t_basis, t_simple_mul
from expflag.spherical import (
    NormalizationFailure,
    double_coset_lift,
    hecke_to_spherical,
    poincare_poly,
    spherical_mul,
    unit_indicator,
)


@pytest.fixture(scope="module", params=["SL2", "PGL2", "SL3"])
def W(request):
    return AffineWeyl(build_root_datum(request.param))


def test_quadratic_relation(W):
    q = QPoly({1: 1})
    qm1 = QPoly({1: 1, 0: -1})
    for i in range(len(W.simples)):
        ts = t_basis(W, W.simples[i])
        sq = hecke_mul(ts, ts)
        expected = ts.scale(qm1) + t_basis(W, W.identity).scale(q)
        assert sq == expected


def test_identity_is_neutral(W):
    rng = random.Random(3)
    elems = W.enumerate_elements(4)
    e = t_basis(W, W.identity)
    for _ in range(20):
        a = t_basis(W, rng.choice(elems))
        assert hecke_mul(a, e) == a
        assert hecke_mul(e, a) == a


def test_left_and_right_simple_multiplication_agree_with_mul(W):
    rng = random.Random(5)
    elems = W.enumerate_elements(4)
    for _ in range(30):
        a = t_basis(W, rng.choice(elems))
        for i in range(len(W.simples)):
            ts = t_basis(W, W.simples[i])
            assert t_simple_mul(W, i, a) == hecke_mul(a, ts)


def _hecke_mul_by_words(a, b):
    """Reference product: each c T_w of b multiplies c a along w's own
    reduced word, sharing no prefix with the other terms."""
    W = a.ctx
    out = HeckeElement(W, {})
    for w, c in b.support.items():
        tau, word = W.reduced_word(w)
        term = a.scale(c)
        if tau != W.identity:
            term = omega_mul(W, tau, term)
        for i in word:
            term = t_simple_mul(W, i, term)
        out = out + term
    return out


def test_word_independence_of_products(W):
    # multiplying along any reduced word of y gives the same T_x T_y
    rng = random.Random(9)
    elems = [w for w in W.enumerate_elements(4) if W.length(w) >= 2]
    for _ in range(20):
        x = rng.choice(elems)
        y = rng.choice(elems)
        direct = hecke_mul(t_basis(W, x), t_basis(W, y))
        assert _hecke_mul_by_words(t_basis(W, x), t_basis(W, y)) == direct


@pytest.mark.parametrize("name,mu", [
    ("SL2", (1,)), ("PGL2", (1,)), ("SL3", (1, 1)), ("PGL3", (1, 1)),
    ("Sp4", (1, 1)), ("G2", (1, 2)),
])
def test_multi_term_product_matches_the_per_word_reference(name, mu):
    """hecke_mul steps each shared prefix of b's reduced words once; the
    sum is the per-term product, with non-unit coefficients and, on PGL2
    and PGL3, terms with a nontrivial Omega part."""
    W = AffineWeyl(build_root_datum(name))
    elems = W.enumerate_elements(3)
    rng = random.Random(41)

    def element(n):
        return HeckeElement(W, {
            rng.choice(elems): QPoly({rng.randrange(3): rng.choice((-2, -1, 1, 3))})
            for _ in range(n)})

    rights = [element(6) for _ in range(8)]
    rights.append(double_coset_lift(W, mu).scale(QPoly({0: 2, 1: -1})))
    for b in rights:
        a = element(3)
        assert hecke_mul(a, b) == _hecke_mul_by_words(a, b)
    taus = {W.reduced_word(w)[0] for b in rights for w in b.support}
    assert (len(taus) > 1) == name.startswith("PGL")


def test_spherical_product_steps_each_prefix_once(monkeypatch):
    """spherical_mul on G2 1_(1,2) * 1_(1,2): two right-W0-invariance
    checks and six steps, one per distinct nonempty prefix of the words."""
    from expflag import spherical

    W = AffineWeyl(build_root_datum("G2"))
    calls = []

    def counting(W, i, x):
        calls.append(i)
        return t_simple_mul(W, i, x)

    monkeypatch.setattr(hecke, "t_simple_mul", counting)
    monkeypatch.setattr(spherical, "t_simple_mul", counting)
    u = unit_indicator(W, (1, 2))
    assert spherical_mul(u, u).support
    assert len(calls) == 8


def test_specialization_counts_cosets(W):
    # T_s T_s at q=3: (q-1) T_s + q T_e
    i = 0
    ts = t_basis(W, W.simples[i])
    sq = hecke_mul(ts, ts)
    assert sq.coefficient(W.simples[i]).specialize(3) == 2
    assert sq.coefficient(W.identity).specialize(3) == 3


def test_double_coset_lift_is_bi_invariant(W):
    rd = W.rd
    for mu in rd.dominant_below((1,) * rd.rank):
        h = double_coset_lift(W, mu)
        back = hecke_to_spherical(W, h)
        assert back == unit_indicator(W, mu)


def test_double_coset_lift_rejects_wrong_rank(W):
    n = W.rd.char_lattice_rank
    for mu in ((0,) * (n + 1), (0,) * (n - 1)):
        with pytest.raises(ValueError, match="not a coweight"):
            double_coset_lift(W, mu)


def test_spherical_unit(W):
    rd = W.rd
    zero = tuple(0 for _ in range(rd.char_lattice_rank))
    one = unit_indicator(W, zero)
    for mu in rd.dominant_below((1,) * rd.rank):
        b = unit_indicator(W, mu)
        assert spherical_mul(one, b) == b
        assert spherical_mul(b, one) == b


def test_spherical_associativity_small(W):
    rd = W.rd
    window = rd.dominant_below((1,) * rd.rank)
    for a in window:
        for b in window:
            for c in window:
                x, y, z = (unit_indicator(W, m) for m in (a, b, c))
                assert spherical_mul(spherical_mul(x, y), z) == spherical_mul(
                    x, spherical_mul(y, z)
                )


def test_non_invariant_lift_is_reported(W, monkeypatch):
    from expflag import spherical

    monkeypatch.setattr(spherical, "t_simple_mul", lambda W, i, x: x)
    zero = tuple(0 for _ in range(W.rd.char_lattice_rank))
    with pytest.raises(NormalizationFailure, match=rf"{W.rd.name}.*\[{re.escape(str(zero))}\].*T_s0"):
        spherical_mul(unit_indicator(W, zero), unit_indicator(W, zero))


def test_products_run_on_descents_and_the_right_table(monkeypatch):
    """On SL3, right multiplication by T_{s_i} makes no AffineWeyl.length
    or AffineWeyl.mul call: t_simple_mul reads the closed-form descents and
    the right-multiplication table. T-basis products make no mul call."""
    W = AffineWeyl(build_root_datum("SL3"))
    elems = W.enumerate_elements(4)
    calls = collections.Counter()

    def counting(name):
        orig = getattr(AffineWeyl, name)

        def wrapper(self, *args):
            calls[name] += 1
            return orig(self, *args)
        return wrapper

    for name in ("length", "mul"):
        monkeypatch.setattr(AffineWeyl, name, counting(name))
    rng = random.Random(37)
    for _ in range(40):
        x = t_basis(W, rng.choice(elems)) + t_basis(W, rng.choice(elems))
        for i in range(W.num_simples):
            assert t_simple_mul(W, i, x).support
    assert not calls
    for _ in range(40):
        a, b, c = (t_basis(W, rng.choice(elems)) for _ in range(3))
        assert hecke_mul(hecke_mul(a, b), c).support
    assert calls["mul"] == 0


def test_poincare_polynomial_values():
    W2 = AffineWeyl(build_root_datum("SL2"))
    assert poincare_poly(W2) == QPoly({0: 1, 1: 1})
    W3 = AffineWeyl(build_root_datum("SL3"))
    assert poincare_poly(W3) == QPoly({0: 1, 1: 2, 2: 2, 3: 1})


def test_hecke_json_round_trip(W):
    rng = random.Random(21)
    elems = W.enumerate_elements(3)
    a = HeckeElement(
        W, {rng.choice(elems): QPoly({0: 2, 1: -1}) for _ in range(3)}
    )
    assert HeckeElement.from_json(W, a.to_json()) == a


def test_hecke_element_of_the_wrong_rank_is_rejected():
    """On SL3, T[(1,)] T[(1, 0)] used to come back as T[(2,)]."""
    W = AffineWeyl(build_root_datum("SL3"))
    wrong = r"\(1,\) has 1 coordinates; SL3 takes 2"
    with pytest.raises(RootDatumError, match=wrong):
        hecke_mul(t_basis(W, W.translation((1,))), t_basis(W, W.translation((1, 0))))
    with pytest.raises(RootDatumError, match=wrong):
        t_basis(W, AffineWeylElement((1,), W.rd.identity))
