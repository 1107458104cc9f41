"""The sparse Z[q] vectors of the four bases share one implementation."""

import json

import pytest

from expflag.affine_weyl import AffineWeyl, ExpLabel
from expflag.coefficients import QPoly, Q_ZERO
from expflag.exp_module import BigExpVector, ExpModule, ExpModuleError, ExpModVector
from expflag.hecke import HeckeElement, hecke_mul
from expflag.root_datum import build_root_datum
from expflag.spherical import SphericalElement, spherical_mul, unit_indicator

RD = build_root_datum("SL2")
W = AffineWeyl(RD)
A = QPoly({0: 2, 1: -1})
B = QPoly({2: 1})
S0 = W.word_to_element([0])
S1 = W.word_to_element([1])

# (class, context, two basis indices, to_json of A*first + B*second as
# written before the classes were merged)
BASES = {
    "hecke": (HeckeElement, W, S0, S1, [
        {"element": {"lambda": [-1], "v_word": [0]},
         "qpoly": {"laurent": False, "terms": [[2, "1"]]}},
        {"element": {"lambda": [0], "v_word": [0]},
         "qpoly": {"laurent": False, "terms": [[0, "2"], [1, "-1"]]}},
    ]),
    "spherical": (SphericalElement, W, (2,), (0,), [
        {"mu": [0], "qpoly": {"laurent": False, "terms": [[2, "1"]]}},
        {"mu": [2], "qpoly": {"laurent": False, "terms": [[0, "2"], [1, "-1"]]}},
    ]),
    "big": (BigExpVector, W, ExpLabel("zero", S0), ExpLabel("coset", S0), [
        {"label": {"lambda": [0], "tag": "coset", "v_word": [0]},
         "qpoly": {"laurent": False, "terms": [[2, "1"]]}},
        {"label": {"lambda": [0], "tag": "zero", "v_word": [0]},
         "qpoly": {"laurent": False, "terms": [[0, "2"], [1, "-1"]]}},
    ]),
    "m": (ExpModVector, RD, (1,), (0,), [
        {"mu": [0], "qpoly": {"laurent": False, "terms": [[2, "1"]]}},
        {"mu": [1], "qpoly": {"laurent": False, "terms": [[0, "2"], [1, "-1"]]}},
    ]),
}


@pytest.mark.parametrize("basis", sorted(BASES))
def test_shared_vector_semantics(basis):
    cls, ctx, k1, k2, doc = BASES[basis]
    v = cls(ctx, {k1: A, k2: B})
    assert json.dumps(v.to_json(), sort_keys=True) == json.dumps(doc, sort_keys=True)
    assert repr(v).count(f"){cls.letter}[") == 2
    # zero coefficients are dropped, on construction and in sums
    assert cls(ctx, {k1: A, k2: Q_ZERO}).support == {k1: A}
    assert (v + v.scale(QPoly({0: -1}))).support == {}
    assert (v + cls(ctx, {k2: -B})).support == {k1: A}
    assert repr(cls(ctx)) == "0"
    # scaling by zero gives the zero vector of the same basis
    zero = v.scale(Q_ZERO)
    assert zero == cls(ctx) and zero.support == {} and zero.to_json() == []
    # scaling by one is the vector itself, as by the int 1
    assert v.scale(QPoly({0: 1})) is v and v.scale(1) is v
    assert v.scale(QPoly({1: 1})).coefficient(k2) == B * QPoly({1: 1})
    assert v.coefficient(k1) == A and v.coefficient(k2) == B
    assert cls(ctx, {k2: B}).coefficient(k1) == Q_ZERO
    # sums and scalings stay in the basis and keep the context
    assert type(v + v) is cls and (v + v).ctx is ctx
    assert v + v == v.scale(QPoly({0: 2}))


def test_vectors_of_different_bases_are_never_equal():
    sph = SphericalElement(W, {(0,): A})
    m = ExpModVector(RD, {(0,): A})
    assert sph.support == m.support
    assert sph != m and m != sph
    assert HeckeElement(W) != BigExpVector(W)


def test_dominant_bases_reject_non_dominant_indices():
    with pytest.raises(ValueError, match="non-dominant index"):
        SphericalElement(W, {(-1,): A})
    with pytest.raises(ExpModuleError, match="non-dominant index"):
        ExpModVector(RD, {(-1,): A})
    # a wrong-rank index is rejected, not truncated or padded by the pairing
    with pytest.raises(ValueError, match="not a coweight of SL2"):
        SphericalElement(W, {(1, 5): A})
    with pytest.raises(ExpModuleError, match="non-dominant index"):
        ExpModVector(RD, {(1, 5): A})
    # the check runs even when the coefficient is zero
    with pytest.raises(ExpModuleError):
        ExpModVector(RD, {(-1,): Q_ZERO})
    # indices are stored as tuples and may be looked up as lists
    assert SphericalElement(W, {(1,): A}).coefficient([1]) == A
    assert ExpModVector(RD, {(1,): A}).coefficient([1]) == A


# a second build of the SL2 datum, and the PGL2 datum, whose simple roots
# and coroots swap SL2's
RD2 = build_root_datum("SL2")
W2 = AffineWeyl(RD2)
PGL = AffineWeyl(build_root_datum("PGL2"))


def test_spherical_mul_rejects_mixed_root_data():
    # this used to return the SL2 product (q^2+q) 1_0 + (q-1) 1_1 + 1_2
    want = spherical_mul(unit_indicator(W, (1,)), unit_indicator(W, (1,)))
    assert spherical_mul(unit_indicator(W, (1,)), unit_indicator(W2, (1,))) == want
    with pytest.raises(ValueError, match="different root data: SL2 and PGL2"):
        spherical_mul(unit_indicator(W, (1,)), unit_indicator(PGL, (1,)))


def test_hecke_mul_rejects_mixed_root_data():
    # this used to multiply on SL2's affine Weyl group
    t1 = W.translation((1,))
    want = hecke_mul(HeckeElement(W, {t1: A}), HeckeElement(W, {t1: B}))
    assert hecke_mul(HeckeElement(W, {t1: A}), HeckeElement(W2, {W2.translation((1,)): B})) == want
    with pytest.raises(ValueError, match="different root data"):
        hecke_mul(HeckeElement(W, {t1: A}), HeckeElement(PGL, {PGL.translation((1,)): B}))


def test_vector_sum_rejects_mixed_root_data():
    assert (SphericalElement(W, {(1,): A}) + SphericalElement(W2, {(1,): B})).support == {
        (1,): A + B}
    with pytest.raises(ValueError, match="different root data"):
        SphericalElement(W, {(1,): A}) + SphericalElement(PGL, {(1,): B})
    with pytest.raises(ValueError, match="different root data"):
        ExpModVector(RD, {(1,): A}) + ExpModVector(PGL.rd, {(1,): B})


def test_spherical_action_rejects_mixed_root_data():
    M = ExpModule(RD)
    want = M.spherical_action(ExpModVector(RD, {(1,): A}), (1,))
    assert M.spherical_action(ExpModVector(RD2, {(1,): A}), (1,)) == want
    with pytest.raises(ValueError, match="different root data"):
        M.spherical_action(ExpModVector(PGL.rd, {(1,): A}), (1,))
