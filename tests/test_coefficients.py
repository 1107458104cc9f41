"""Exact coefficient arithmetic: Z[q] polynomials, finite fields, and
cyclotomic integers with inverted q.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expflag import coefficients
from expflag.coefficients import (
    Q_ONE,
    Q_ZERO,
    CycNum,
    DivisionNotExact,
    FIELD_SIZES,
    GF,
    Inconsistent,
    NonIntegral,
    QPoly,
    gf,
    psi_value,
    qpoly_exact_div,
    qpoly_interpolate,
)

qpolys = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(QPoly)


@given(qpolys, qpolys, qpolys)
@settings(max_examples=200, deadline=None)
def test_qpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qpolys, st.integers(min_value=2, max_value=9))
@settings(max_examples=200, deadline=None)
def test_specialize_is_a_ring_map(a, q):
    b = QPoly({0: 3, 1: -1, 2: 2})
    assert (a * b).specialize(q) == a.specialize(q) * b.specialize(q)
    assert (a + b).specialize(q) == a.specialize(q) + b.specialize(q)


@given(qpolys, qpolys)
@settings(max_examples=200, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert qpoly_exact_div(a * b, b) == a


def test_exact_division_rejects_remainders():
    with pytest.raises(DivisionNotExact):
        qpoly_exact_div(QPoly({0: 1, 1: 1}), QPoly({1: 2}))


@given(qpolys)
@settings(max_examples=100, deadline=None)
def test_interpolation_round_trip(a):
    deg = a.degree() if a.degree() is not None else 0
    samples = [(q, a.specialize(q)) for q in range(2, 2 + deg + 1)]
    assert qpoly_interpolate(samples, deg) == a


def test_interpolation_rejects_non_polynomial_data():
    with pytest.raises(Inconsistent):
        # 2^q is not a polynomial of degree 2 in q
        qpoly_interpolate([(q, 2**q) for q in range(2, 6)], 2)


def _lagrange_interpolate(samples, degree_bound):
    """Reference: Lagrange interpolation in exact rationals through the first
    degree_bound + 1 samples, then every sample checked."""
    base = samples[: degree_bound + 1]
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for qi, vi in base:
        num, den = [Fraction(1)], Fraction(1)
        for qj, _ in base:
            if qj != qi:
                # num times (x - qj)
                num = [a - qj * b for a, b in zip([Fraction(0)] + num, num + [0])]
                den *= qi - qj
        for k, c in enumerate(num):
            coeffs[k] += vi * c / den
    if any(c.denominator != 1 for c in coeffs):
        raise NonIntegral(coeffs)
    poly = QPoly({k: int(c) for k, c in enumerate(coeffs)})
    if any(poly.specialize(q) != v for q, v in samples):
        raise Inconsistent(poly)
    return poly


def test_interpolation_matches_rational_lagrange():
    rng = random.Random(5)
    seen = set()
    for _ in range(1500):
        deg = rng.randint(0, 4)
        xs = rng.sample(range(-3, 12), deg + 1 + rng.randint(0, 2))
        if rng.random() < 0.4:
            p = QPoly({k: rng.randint(-5, 5) for k in range(deg + 1)})
            vals = [p.specialize(x) + (rng.random() < 0.3) for x in xs]
        else:
            vals = [rng.randint(-20, 20) for _ in xs]
        samples = list(zip(xs, vals))
        outcomes = []
        for fn in (qpoly_interpolate, _lagrange_interpolate):
            try:
                outcomes.append(fn(samples, deg))
            except (NonIntegral, Inconsistent) as e:
                outcomes.append(type(e))
        assert outcomes[0] == outcomes[1], (samples, deg)
        seen.add(outcomes[0] if isinstance(outcomes[0], type) else QPoly)
    assert seen == {QPoly, NonIntegral, Inconsistent}


def test_json_round_trip():
    a = QPoly({0: -1, 3: 2})
    assert QPoly.from_json(a.to_json()) == a


def test_qpoly_is_z_q_only():
    # the "laurent" field of the JSON format is constant on output and
    # ignored on input; no value ever has a negative exponent
    q = QPoly({1: 1})
    assert q.to_json() == {"laurent": False, "terms": [[1, "1"]]}
    assert QPoly.from_json({"laurent": True, "terms": [[1, "1"]]}) == q
    with pytest.raises(ValueError):
        QPoly({-1: 1})
    with pytest.raises(DivisionNotExact):
        qpoly_exact_div(QPoly({0: 1}), q)


@pytest.mark.parametrize("coeffs", [{0: 1.5}, {1.5: 1}, {0: "1"}, {"1": 1}, {0: Fraction(3)}])
def test_qpoly_rejects_non_integers(coeffs):
    # {0: 1.5} used to read as 1 and {1.5: 1} as q
    with pytest.raises(TypeError):
        QPoly(coeffs)


def test_constant_qpoly_hashes_as_its_int():
    # QPoly equals an int exactly when it is that constant, so the two must
    # be one key in a set or a dict
    assert Q_ONE == 1 and len({1, Q_ONE}) == 1
    assert {1: "a"}.get(Q_ONE) == "a"
    assert hash(Q_ZERO) == hash(0)
    assert QPoly.__slots__ == ("coeffs",)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25, 49])
def test_gf_field_axioms(q):
    F = gf(q)
    els = list(F.elements())
    assert len(els) == q
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    # Frobenius additivity of the trace
    for a in els:
        for b in els:
            assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % F.p


@pytest.mark.parametrize("q", [4, 9, 25, 49])
def test_gf_trace_is_a_plus_a_to_the_p(q):
    F = gf(q)
    for a in F.elements():
        frob = 1
        for _ in range(F.p):
            frob = F.mul(frob, a)
        tr = F.add(a, frob)
        assert tr < F.p  # a + a^p lies in F_p
        assert F.trace(a) == tr


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_gf_inverse_table(q):
    F = gf(q)
    units = list(F.units())
    for a in units:
        assert F.mul(a, F.inv(a)) == 1
    assert sorted(F.inv(a) for a in units) == units
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_gf_units_are_the_nonzero_elements(q):
    F = gf(q)
    units = list(F.units())
    assert len(units) == q - 1
    assert units == [a for a in F.elements() if a != 0]


def test_gf_sizes_are_p_and_p_squared_for_p_at_most_7():
    assert FIELD_SIZES == (2, 3, 4, 5, 7, 9, 25, 49)
    for q in (0, 1, 6, 8, 11, 27):
        with pytest.raises(ValueError):
            GF(q)


class _PerDegreeGF:
    """Reference: F_q arithmetic by one formula per degree k, with x^2 =
    c1 x + c0 in F_p^2, and inverses by search."""

    def __init__(self, q):
        self.p, self.k = coefficients._FIELDS[q]
        self.c = coefficients._IRRED2[self.p]

    def add(self, a, b):
        p = self.p
        if self.k == 1:
            return (a + b) % p
        return (a % p + b % p) % p + (((a // p + b // p) % p) * p)

    def neg(self, a):
        p = self.p
        if self.k == 1:
            return (-a) % p
        return (-a) % p + ((-(a // p)) % p) * p

    def mul(self, a, b):
        p = self.p
        if self.k == 1:
            return (a * b) % p
        a0, a1 = a % p, a // p
        b0, b1 = b % p, b // p
        c0, c1 = self.c
        hi = a1 * b1
        return ((a0 * b0 + hi * c0) % p) + (((a0 * b1 + a1 * b0 + hi * c1) % p) * p)

    def inv(self, a):
        return next(b for b in range(1, self.p**self.k) if self.mul(a, b) == 1)

    def trace(self, a):
        if self.k == 1:
            return a
        p = self.p
        return (2 * (a % p) + (a // p) * self.c[1]) % p


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_gf_tables_match_the_per_degree_formulas(q):
    F, ref = gf(q), _PerDegreeGF(q)
    for a in F.elements():
        assert F.neg(a) == ref.neg(a)
        assert F.trace(a) == ref.trace(a)
        if a:
            assert F.inv(a) == ref.inv(a)
        for b in F.elements():
            assert F.add(a, b) == ref.add(a, b)
            assert F.mul(a, b) == ref.mul(a, b)


@pytest.mark.parametrize("q", [4, 9])
def test_gf_ring_laws_hold_exhaustively(q):
    F = gf(q)
    els = F.elements()
    for a, b, c in itertools.product(els, els, els):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_gf_rejects_a_reducible_quadratic(monkeypatch):
    # x^2 = x + 0, i.e. x (x - 1) = 0: F_3[x] / (x^2 - x) has zero divisors
    monkeypatch.setitem(coefficients._IRRED2, 3, (0, 1))
    with pytest.raises(ValueError, match="reducible over F_3"):
        GF(9)
    GF(3)  # F_3 itself does not read the quadratic


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_character_sum_vanishes(q):
    F = gf(q)
    total = psi_value(0, q)
    for a in F.elements():
        if a != 0:
            total = total + psi_value(a, q)
    assert total.is_zero()


@pytest.mark.parametrize("q", [2, 3, 9])
def test_zero_cycnum_is_falsy(q):
    # the oracle tests values by truthiness, so zero must be falsy
    p = gf(q).p
    assert not CycNum.integer(0, p, q)
    assert bool(CycNum.zeta_power(1, p, q))
    assert bool(CycNum.integer(q, p, q).div_by_q_power(1))


@pytest.mark.parametrize("q", [3, 5])
def test_cycnum_arithmetic(q):
    F = gf(q)
    one = CycNum.integer(1, F.p, q)
    z = CycNum.zeta_power(1, F.p, q)
    acc = CycNum.integer(0, F.p, q)
    for k in range(F.p):
        acc = acc + CycNum.zeta_power(k, F.p, q)
    assert acc.is_zero()
    assert (one + z) - z == one
    qq = CycNum.integer(q, F.p, q)
    assert qq.div_by_q_power(1) == one
