"""Exact coefficient arithmetic.

Three coefficient domains are implemented here:

* ``QPoly``: sparse polynomials in Z[q], the generic parameter q, with
  arbitrary precision integer coefficients and no negative exponents.
  This is the coefficient ring of every generic computation.
* ``GF``: the finite fields F_q, q = p^k, p <= 7, k <= 2, with a fixed
  irreducible quadratic per p; arithmetic is table lookup, built once per field.
* ``CycNum``: elements of Z[zeta_p, 1/q], the coefficient ring of the
  psi-twisted (Whittaker) oracle computations.

All three are immutable and hashable; no floating point anywhere.

``QVector`` holds the arithmetic shared by the sparse ``Z[q]`` vectors of
the Hecke, spherical and exponential-module bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index


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
    """Element of Z[q]; a negative exponent is rejected, and so is an
    exponent or coefficient that is not an integer (TypeError).

    Stored as a map exponent -> nonzero int coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                e, c = index(e), index(c)
                if c:
                    clean[e] = c
        if any(e < 0 for e in clean):
            raise ValueError("negative exponent in a polynomial of Z[q]")
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def _of(clean):
        """A QPoly on a dict that is already valid: nonzero int
        coefficients at nonnegative int exponents."""
        out = object.__new__(QPoly)
        object.__setattr__(out, "coeffs", clean)
        return out

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    # ---- constructors

    @staticmethod
    def from_int(n):
        return QPoly({0: n})

    # ---- structure

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree in q; None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def leading_coeff(self):
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

    # ---- ring operations

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return QPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._of({e: -c for e, c in self.coeffs.items()})

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
        return QPoly._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.from_int(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def specialize(self, q):
        """Evaluate at an integer q."""
        return sum(c * q**e for e, c in self.coeffs.items())

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
        # the output format's Laurent flag; a QPoly never sets it
        return {
            "laurent": False,
            "terms": [[e, str(c)] for e, c in sorted(self.coeffs.items())],
        }

    @staticmethod
    def from_json(doc):
        return QPoly({int(e): int(c) for e, c in doc["terms"]})


def _coerce(x):
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly.from_int(x)
    raise TypeError(f"cannot coerce {x!r} to QPoly")


Q_ZERO = QPoly()
Q_ONE = QPoly.from_int(1)


def qpoly_exact_div(a: QPoly, b: QPoly) -> QPoly:
    """Exact division in Z[q]; raises DivisionNotExact otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = dict(a.coeffs)
    quot = {}
    b_deg = b.degree()
    b_lead = b.leading_coeff()
    # long division from the top; integer coefficient division must be exact
    while rem:
        r_deg = max(rem)
        e = r_deg - b_deg
        c, r = divmod(rem[r_deg], b_lead)
        if r or e < 0:
            raise DivisionNotExact(QPoly(rem))
        quot[e] = quot.get(e, 0) + c
        for be, bc in b.coeffs.items():
            ee = be + e
            rem[ee] = rem.get(ee, 0) - bc * c
            if not rem[ee]:
                del rem[ee]
    return QPoly(quot)


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
    xs, dd = [q for q, _ in base], [v for _, v in base]
    # Newton divided differences: at integer nodes all are integers exactly
    # when the interpolant has integer coefficients
    for j in range(1, degree_bound + 1):
        for i in range(degree_bound, j - 1, -1):
            num, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - j])
            if r:
                raise NonIntegral(f"interpolant through {base} is not integral")
            dd[i] = num
    # Horner on the Newton form, coefficients lowest first: p -> p (q - x) + d
    coeffs = [dd[-1]]
    for x, d in zip(reversed(xs[:-1]), reversed(dd[:-1])):
        coeffs = [a - x * b for a, b in zip([d] + coeffs, coeffs + [0])]
    poly = QPoly(dict(enumerate(coeffs)))
    for q, v in pts[degree_bound + 1:]:
        if poly.specialize(q) != v:
            raise Inconsistent(f"sample ({q}, {v}) off the interpolant {poly}")
    return poly


def check_same_datum(x, y):
    """Raise ValueError unless x and y, root data or AffineWeyls (read as
    their root data), have the same simple roots and simple coroots."""
    x, y = getattr(x, "rd", x), getattr(y, "rd", y)
    if x is not y and (x.simple_roots, x.simple_coroots) != (y.simple_roots, y.simple_coroots):
        raise ValueError(f"operands on different root data: {x.name} and {y.name}")


class QVector:
    """Finitely supported map from a basis to Z[q]; zero coefficients are
    never stored.

    ``ctx`` is what the basis indices live in (an ``AffineWeyl`` or a
    ``RootDatum``). A subclass fixes the basis: ``_key`` checks an index and
    returns its stored form, ``_sort_key`` orders the indices for output,
    ``_key_json`` writes one index under ``json_field``, and ``letter``
    names the basis vectors in ``repr``. Vectors of different bases are
    never equal.
    """

    __slots__ = ("ctx", "support")

    def __init__(self, ctx, support=None):
        self.ctx = ctx
        self.support = {}
        if support:
            for key, c in support.items():
                key = self._key(key)
                if not c.is_zero():
                    self.support[key] = c

    def _key(self, key):
        return key

    def _sort_key(self, key):
        return key

    def _key_json(self, key):
        return key

    def _new(self, support):
        """A vector of the same basis on keys that are already checked."""
        out = object.__new__(type(self))
        out.ctx = self.ctx
        out.support = {key: c for key, c in support.items() if not c.is_zero()}
        return out

    def __add__(self, other):
        if other.ctx is not self.ctx:
            check_same_datum(self.ctx, other.ctx)
        out = dict(self.support)
        for key, c in other.support.items():
            out[key] = out[key] + c if key in out else c
        return self._new(out)

    def scale(self, c: QPoly):
        # vectors are never changed in place, so 1 * self is self
        if c == Q_ONE:
            return self
        return self._new({key: a * c for key, a in self.support.items()})

    def coefficient(self, key) -> QPoly:
        return self.support.get(key, Q_ZERO)

    def __eq__(self, other):
        return type(other) is type(self) and self.support == other.support

    def _items(self):
        return sorted(self.support.items(), key=lambda kv: self._sort_key(kv[0]))

    def __repr__(self):
        return " + ".join(
            f"({c}){self.letter}[{self._key_json(key)}]" for key, c in self._items()
        ) or "0"

    def to_json(self):
        return [
            {self.json_field: self._key_json(key), "qpoly": c.to_json()}
            for key, c in self._items()
        ]


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
    """F_q with elements encoded as integers 0..q-1; arithmetic is table
    lookup, the tables built once per field.

    Element a has digits (a0, a1) = (a % p, a // p) and stands for
    a0 + a1 x, where x^2 = c1 x + c0 in F_p^2. For q = p every a1 is 0,
    so one formula builds the tables of both field sizes.
    """

    def __init__(self, q):
        if q not in _FIELDS:
            raise ValueError(f"unsupported field size {q}")
        p, k = _FIELDS[q]
        self.q, self.p, self.k = q, p, k
        c0, c1 = _IRRED2[p] if k == 2 else (0, 0)
        digits = [(a % p, a // p) for a in range(q)]
        self._add = [[(a0 + b0) % p + (a1 + b1) % p * p for b0, b1 in digits]
                     for a0, a1 in digits]
        self._neg = [-a0 % p + -a1 % p * p for a0, a1 in digits]
        # (a0 + a1 x)(b0 + b1 x) with x^2 = c1 x + c0
        self._mul = [[(a0 * b0 + a1 * b1 * c0) % p
                      + (a0 * b1 + a1 * b0 + a1 * b1 * c1) % p * p
                      for b0, b1 in digits]
                     for a0, a1 in digits]
        # the trace to F_p: k a0 + a1 c1, since x + x^p = c1
        self._trace = [(k * a0 + a1 * c1) % p for a0, a1 in digits]
        # a^-1 is where 1 sits in a's row; a row without 1 is a zero divisor
        if any(1 not in row for row in self._mul[1:]):
            raise ValueError(f"x^2 - {c1} x - {c0} is reducible over F_{p}")
        self._inv = [None] + [row.index(1) for row in self._mul[1:]]

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self._inv[a]

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def trace(self, a):
        """Trace to F_p, as an integer 0..p-1."""
        return self._trace[a]


@lru_cache(maxsize=None)
def gf(q):
    return GF(q)


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
        if den_exp == 0:
            return CycNum(p, q, tuple(poly), 0)
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
        """zeta_p^k, one of the p values _zeta_powers builds once per (p, q)."""
        return _zeta_powers(p, q)[k % p]

    def is_zero(self):
        return all(c == 0 for c in self.poly)

    def __bool__(self):
        return not self.is_zero()

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


@lru_cache(maxsize=None)
def _zeta_powers(p, q):
    """zeta_p^0, ..., zeta_p^(p-1), reduced: zeta^(p-1) is
    -(1 + zeta + ... + zeta^(p-2))."""
    return tuple(CycNum.make(p, q, [-1] * (p - 1) if k == p - 1 else
                             [int(i == k) for i in range(p - 1)]) for k in range(p))


def psi_value(a, q) -> CycNum:
    """The fixed nontrivial additive character psi(a) = zeta_p^tr(a), a in F_q."""
    f = gf(q)
    return CycNum.zeta_power(f.trace(a), f.p, q)
