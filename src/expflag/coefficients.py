"""Exact coefficient arithmetic.

Three coefficient domains are implemented here:

* ``QPoly``: sparse polynomials in the generic parameter q with arbitrary
  precision integer coefficients, optionally Laurent (negative exponents).
  This is the coefficient ring of every generic computation.
* ``GF``: the finite fields F_q for q = p^k with p <= 7, k <= 2, with a
  fixed irreducible polynomial per (p, k) so that all runs are reproducible.
* ``CycNum``: elements of Z[zeta_p, 1/q], the coefficient ring of the
  psi-twisted (Whittaker) oracle computations.

Everything is immutable and hashable; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class DivisionNotExact(ArithmeticError):
    """Raised by qpoly_exact_div; carries the offending remainder."""

    def __init__(self, remainder):
        super().__init__(f"division not exact, remainder {remainder}")
        self.remainder = remainder


class Inconsistent(ValueError):
    """Interpolation samples over-determine and contradict each other."""


class NonIntegral(ValueError):
    """Interpolant has a non-integer coefficient."""


class QPoly:
    """Element of Z[q] (or Z[q, q^-1] when ``laurent`` is set).

    Stored as a map exponent -> nonzero int coefficient.
    """

    __slots__ = ("coeffs", "laurent", "_hash")

    def __init__(self, coeffs=None, laurent=False):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    clean[int(e)] = int(c)
        if not laurent and any(e < 0 for e in clean):
            raise ValueError("negative exponent in non-Laurent polynomial")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "laurent", bool(laurent))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    # ---- constructors

    @staticmethod
    def from_int(n, laurent=False):
        return QPoly({0: n}, laurent)

    @staticmethod
    def q_power(k, laurent=False):
        if k < 0 and not laurent:
            laurent = True
        return QPoly({k: 1}, laurent)

    # ---- structure

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree in q; None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def low_degree(self):
        return min(self.coeffs) if self.coeffs else None

    def leading_coeff(self):
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

    def as_laurent(self):
        return QPoly(self.coeffs, True)

    def as_polynomial(self):
        if any(e < 0 for e in self.coeffs):
            raise ValueError("has negative exponents")
        return QPoly(self.coeffs, False)

    # ---- ring operations

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out, self.laurent or other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return QPoly({e: -c for e, c in self.coeffs.items()}, self.laurent)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPoly(out, self.laurent or other.laurent)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.from_int(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        # the laurent flag is a type annotation, not part of the value
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self.coeffs.items()))
            )
        return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    def specialize(self, q):
        """Evaluate at an integer q; exact (Fraction for Laurent at q not unit)."""
        if all(e >= 0 for e in self.coeffs):
            return sum(c * q**e for e, c in self.coeffs.items())
        val = sum(Fraction(c) * Fraction(q) ** e for e, c in self.coeffs.items())
        if val.denominator == 1:
            return int(val)
        return val

    def __repr__(self):
        if not self.coeffs:
            return "QPoly(0)"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return "QPoly(" + " + ".join(terms) + ")"

    # ---- serialization

    def to_json(self):
        return {
            "laurent": self.laurent,
            "terms": [[e, str(c)] for e, c in sorted(self.coeffs.items())],
        }

    @staticmethod
    def from_json(doc):
        return QPoly({int(e): int(c) for e, c in doc["terms"]}, doc["laurent"])


def _coerce(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly.from_int(x)
    raise TypeError(f"cannot coerce {x!r} to QPoly")


Q_ZERO = QPoly()
Q_ONE = QPoly.from_int(1)
Q = QPoly.q_power(1)


def qpoly_exact_div(a: QPoly, b: QPoly) -> QPoly:
    """Exact division in Z[q, q^-1]; raises DivisionNotExact otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return QPoly({}, a.laurent)
    laurent = a.laurent or b.laurent
    # strip a common q-power off b so the leading-term loop is monic-like
    rem = dict(a.coeffs)
    quot = {}
    b_deg = b.degree()
    b_lead = b.leading_coeff()
    # long division from the top; integer coefficient division must be exact
    while rem:
        r_deg = max(rem)
        e = r_deg - b_deg
        c, r = divmod(rem[r_deg], b_lead)
        if r:
            raise DivisionNotExact(QPoly(rem, True))
        if e < 0 and not laurent:
            raise DivisionNotExact(QPoly(rem, True))
        quot[e] = quot.get(e, 0) + c
        for be, bc in b.coeffs.items():
            ee = be + e
            rem[ee] = rem.get(ee, 0) - bc * c
            if not rem[ee]:
                del rem[ee]
    return QPoly(quot, laurent)


def qpoly_interpolate(samples, degree_bound: int) -> QPoly:
    """Unique integer polynomial of degree <= degree_bound through samples.

    ``samples`` is a list of (q, value) pairs with distinct q. Needs at least
    degree_bound + 1 samples; extra samples must be consistent.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    pts = list(samples)
    if len({q for q, _ in pts}) != len(pts):
        raise ValueError("duplicate sample points")
    if len(pts) < degree_bound + 1:
        raise ValueError("not enough samples for the degree bound")
    base = pts[: degree_bound + 1]
    # Lagrange interpolation in exact rationals
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for qi, vi in base:
        num = [Fraction(1)]
        den = Fraction(1)
        for qj, _ in base:
            if qj == qi:
                continue
            # multiply num by (x - qj)
            num = [0] + num
            num = [num[k] - qj * (num[k + 1] if k + 1 < len(num) else 0)
                   for k in range(len(num))]
            num = [Fraction(c) for c in num]
            den *= qi - qj
        for k in range(len(coeffs)):
            if k < len(num):
                coeffs[k] += Fraction(vi) * num[k] / den
    if any(c.denominator != 1 for c in coeffs):
        raise NonIntegral(f"interpolant {coeffs} is not integral")
    poly = QPoly({k: int(c) for k, c in enumerate(coeffs)})
    for q, v in pts:
        if poly.specialize(q) != v:
            raise Inconsistent(f"sample ({q}, {v}) off the interpolant {poly}")
    return poly


# ---------------------------------------------------------------------------
# finite fields F_q, q = p^k, p <= 7, k <= 2


# fixed irreducible polynomials x^2 - c1 x - c0, stored as (c0, c1) with
# x^2 = c1 x + c0 in the field; one choice per (p, 2), frozen for
# reproducibility
_IRRED2 = {
    2: (1, 1),   # x^2 + x + 1
    3: (1, 1),   # x^2 - x - 1 = x^2 + 2x + 2
    5: (3, 1),   # x^2 - x - 3 = x^2 + 4x + 2
    7: (4, 1),   # x^2 - x - 4 = x^2 + 6x + 3
}

# the fields GF implements, q -> (p, k): F_p and F_p^2 for p in _IRRED2
_FIELDS = {p**k: (p, k) for p in _IRRED2 for k in (1, 2)}
FIELD_SIZES = tuple(sorted(_FIELDS))


class GF:
    """F_q with elements encoded as integers 0..q-1.

    For q = p the encoding is the residue; for q = p^2 the element
    a0 + a1*x is encoded as a0 + a1*p where x is the fixed generator.
    """

    def __init__(self, q):
        if q not in _FIELDS:
            raise ValueError(f"unsupported field size {q}")
        p, k = _FIELDS[q]
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            self._mul = None
        else:
            c0, c1 = _IRRED2[p]
            self._c = (c0, c1)
        # one brute-force pass here (q <= 49) makes inv a lookup
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul(a, b) == 1:
                    self._inv[a] = b
                    break
            else:
                raise AssertionError("unit without inverse")

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

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p = self.p
        if self.k == 1:
            return (a * b) % p
        a0, a1 = a % p, a // p
        b0, b1 = b % p, b // p
        c0, c1 = self._c
        # (a0 + a1 x)(b0 + b1 x) with x^2 = c1 x + c0
        hi = a1 * b1
        return ((a0 * b0 + hi * c0) % p) + (((a0 * b1 + a1 * b0 + hi * c1) % p) * p)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self._inv[a]

    def pow(self, a, n):
        out = 1
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q) if self.k == 1 else [a for a in range(1, self.q) if a != 0]

    def from_int(self, n):
        """Image of an integer under Z -> F_p -> F_q."""
        return n % self.p

    def trace(self, a):
        """Trace to F_p, as an integer 0..p-1."""
        if self.k == 1:
            return a
        return (a + self.pow(a, self.p)) % self.p if self.k == 2 else None


@lru_cache(maxsize=None)
def gf(q):
    f = GF(q)
    if f.k == 2:
        # sanity: x is a root of the stored quadratic, i.e. x^2 = c1 x + c0
        x = f.p
        assert f.mul(x, x) == f.add(f._c[0], f.mul(f._c[1], x))
    return f


# ---------------------------------------------------------------------------
# Z[zeta_p, 1/q]


@dataclass(frozen=True)
class CycNum:
    """Element of Z[zeta_p, 1/q]: numerator / q^den_exp.

    The numerator lives in Z[zeta_p] reduced modulo the p-th cyclotomic
    polynomial, so ``poly`` has length p - 1 (coefficients of zeta^0 ..
    zeta^(p-2)). ``den_exp`` is minimal: the numerator is not divisible by q
    unless the element is zero.
    """

    p: int
    q: int
    poly: tuple
    den_exp: int

    @staticmethod
    def make(p, q, poly, den_exp=0):
        poly = list(poly)
        if len(poly) != p - 1:
            raise ValueError("numerator must be reduced mod the cyclotomic polynomial")
        while den_exp > 0 and all(c % q == 0 for c in poly):
            poly = [c // q for c in poly]
            den_exp -= 1
        if all(c == 0 for c in poly):
            den_exp = 0
        return CycNum(p, q, tuple(poly), den_exp)

    @staticmethod
    def integer(n, p, q):
        return CycNum.make(p, q, [n] + [0] * (p - 2), 0)

    @staticmethod
    def zeta_power(k, p, q):
        """zeta_p^k, reduced: zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
        k %= p
        poly = [0] * (p - 1)
        if k < p - 1:
            poly[k] = 1
        else:
            poly = [-1] * (p - 1)
        return CycNum.make(p, q, poly, 0)

    def is_zero(self):
        return all(c == 0 for c in self.poly)

    def _lift(self, target_den):
        f = self.q ** (target_den - self.den_exp)
        return [c * f for c in self.poly]

    def __add__(self, other):
        other = self._coerce(other)
        d = max(self.den_exp, other.den_exp)
        a = self._lift(d)
        b = other._lift(d)
        return CycNum.make(self.p, self.q, [x + y for x, y in zip(a, b)], d)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.p, self.q, tuple(-c for c in self.poly), self.den_exp)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        p = self.p
        prod = [0] * (2 * p - 3)
        for i, a in enumerate(self.poly):
            if not a:
                continue
            for j, b in enumerate(other.poly):
                prod[i + j] += a * b
        # reduce zeta^m for m >= p-1 using zeta^(p-1) = -(1 + ... + zeta^(p-2))
        # and zeta^p = 1
        out = list(prod[: p - 1])
        for m in range(p - 1, len(prod)):
            c = prod[m]
            if not c:
                continue
            r = m % p
            if r == p - 1:
                for i in range(p - 1):
                    out[i] -= c
            else:
                out[r] += c
        return CycNum.make(p, self.q, out, self.den_exp + other.den_exp)

    __rmul__ = __mul__

    def div_by_q_power(self, k):
        return CycNum.make(self.p, self.q, self.poly, self.den_exp + k)

    def _coerce(self, x):
        if isinstance(x, CycNum):
            if (x.p, x.q) != (self.p, self.q):
                raise ValueError("mixed cyclotomic rings")
            return x
        if isinstance(x, int):
            return CycNum.integer(x, self.p, self.q)
        raise TypeError(f"cannot coerce {x!r}")

    def __repr__(self):
        return f"CycNum(p={self.p}, {list(self.poly)}/q^{self.den_exp})"


def psi_value(a, q) -> CycNum:
    """The fixed nontrivial additive character psi(a) = zeta_p^tr(a), a in F_q."""
    f = gf(q)
    return CycNum.zeta_power(f.trace(a), f.p, q)
