"""Brute-force finite-field model of the affine Grassmannian for 2x2 groups.

Points of Gr(F_q) are O-lattices in F^2 (F = F_q((t)), O = F_q[[t]]) in a
canonical Hermite normal form. On bounded windows this computes, by direct
enumeration and coset sums:

* Schubert-cell point counts,
* orbit partitions for the rho-hat-twisted Iwahori, exponential, and
  U-rtimes-Gm groups (generated by index-shifted affine root subgroups),
* spherical Hecke operators,
* psi-twisted Whittaker bases and the two averaging maps between the
  Whittaker, baby Whittaker, and exponential-quotient function models.

Everything here is ground truth at a literal prime power q, used to
validate the generic q-polynomial computations by specialization.

Presets use the standard 2-dimensional representation and differ only in
their ``PRESETS`` entry: ``coords`` maps the Hermite diagonal exponents
(a, c) to coweight coordinates (SL2 (a,), PGL2 (a - c,), GL2 (a, c)),
``diagonal`` is its inverse, and ``det_one`` marks the SL2 torus. PGL2
lattices are classes modulo global t-scaling; diagonal(coords(a, c))
normalizes them to c = 0.

Every Hermite form is exact. A point is a finite object (b has exponents
in [low, a)), and the product of a point with a matrix of Laurent
polynomials has a finite Hermite form: the pivot is the bottom entry of
lower valuation c, a = val(det) - c, and b is the pivot column's top entry
times the inverse of the pivot's unit mod t^a, which reads only the
a - val(top) lowest terms of that inverse (``_reduced``).

Two read-offs skip the Hermite form where its answer is already known:
``whittaker_action`` reads labels and character coefficients off the two
diagonals, and the size and trace counts of each diagonal of K mu K / K
off a closed form (``_coset_shapes``), with no point built;
``hecke_operator`` reads y g' off the triangular closed form
(``_read_off``, no GrPoint built on SL2 and GL2) for the y in the support
of f and g' in K mu* K / K, mu* = -w0 mu, and sums f(y) into an index of
the domain, since x g = y exactly when x = y g'. It builds only the
products whose shape (a, c, val b), known from y's shifted part and the
lowest term of g' unless those two tie, is the shape of a domain point.

``act`` and ``translate`` take a closed form: ``_triangular_point`` for an
upper-triangular element with a monomial diagonal (coset representatives,
x_plus, the Gm and torus generators) and ``_lower_point`` for x_minus. Any
other element goes through the general Hermite form ``_hnf_point``, their
reference.

One search, ``_Window.search``, finds every orbit, inside a window or
free, and transports the baby character along it; it applies no
generator that stabilizes a point's shape (a, c, val b) (``_fixes``).
A window compiles each generator once into a plan (``_plan``): a
diagonal of unit series (the t>j generators) multiplies b by one series
inverted once; any other generator goes through ``_product_point``.
``orbit_partition`` keeps one ``_Window`` per window over the twisted
Iwahori's generators, of which every group spec's are a subsequence, so
all specs share the verdicts per shape and the translate per point and
generator, and ``gm_averaging`` reads its images by the gm generators.
``orbit_closure`` searches on a free window over the same generators and
hands its images to the window of the points it returns, so the
partitions that follow on those points compute none of them again.
Each orbit keeps its character labels and consistency flag, which the
baby basis and the averaging (linear per orbit: one sum of zeta^-c(y)
f(y)) read.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .coefficients import CycNum, Inconsistent, NonIntegral, gf, psi_value, qpoly_interpolate
from .root_datum import build_root_datum


class OracleError(ValueError):
    pass


class WindowTooLarge(OracleError):
    def __init__(self, estimate):
        super().__init__(f"window would contain about {estimate} points")
        self.estimate = estimate


class SupportEscapesWindow(OracleError):
    pass


class InvalidCoweight(OracleError):
    """A coweight of the wrong rank, or not dominant where it must be."""


class TooFewFieldSizes(OracleError):
    """Fewer field sizes than an interpolation of the needed degree takes."""


class Preset(NamedTuple):
    """How a 2x2 preset reads the Hermite diagonal [[t^a, *], [0, t^c]]."""

    coords: Callable  # (a, c) -> coweight in preset coordinates
    diagonal: Callable  # the inverse, on the unpacked coordinates
    det_one: bool  # the torus has determinant one


PRESETS = {
    "SL2": Preset(lambda a, c: (a,), lambda l: (l, -l), True),
    "PGL2": Preset(lambda a, c: (a - c,), lambda l: (l, 0), False),
    "GL2": Preset(lambda a, c: (a, c), lambda l0, l1: (l0, l1), False),
}

# presets whose coordinates do not see a global power of t: their points are
# lattice classes modulo t-scaling; on the points of the other presets
# diagonal(coords(a, c)) is the identity
_PROJECTIVE = frozenset(
    name for name, P in PRESETS.items() if P.coords(1, 1) == P.coords(0, 0))

_WINDOW_CAP = 10**6


# ---------------------------------------------------------------------------
# Laurent polynomials over F_q: sparse maps exponent -> nonzero element


def _s_val(s):
    return min(s) if s else None


def _s_add(F, s1, s2):
    out, add = dict(s1), F._add
    for e, c in s2.items():
        v = add[out.get(e, 0)][c]
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _s_mul(F, s1, s2, cut=math.inf):
    """s1 s2 without its terms at or above cut."""
    out, add = {}, F._add
    for e1, c1 in s1.items():
        row = F._mul[c1]
        for e2, c2 in s2.items():
            e = e1 + e2
            if e >= cut:
                continue
            v = add[out.get(e, 0)][row[c2]]
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _s_shift(s, k):
    return {e + k: c for e, c in s.items()}


def _s_inv(F, s, n):
    """The n lowest terms of 1/s: exponents -v, ..., n - 1 - v for v = val s.

    Term k solves s * (1/s) = 1 at its own exponent: it is -1/s_v times the
    sum over j >= 1 of s_(v+j) times term k - j, so a two-term s costs one
    product per term.
    """
    v = _s_val(s)
    if v is None:
        raise ZeroDivisionError("inverting the zero series")
    c0, add, mul = F.inv(s[v]), F._add, F._mul
    tail = sorted((e - v, mul[co]) for e, co in s.items() if 0 < e - v < n)
    if not tail:
        return {-v: c0} if n > 0 else {}
    inv = [c0]  # inv[k] is the coefficient of t^(k - v)
    for k in range(1, n):
        acc = 0
        for j, row in tail:
            if j > k:
                break
            if inv[k - j]:
                acc = add[acc][row[inv[k - j]]]
        inv.append(F._neg[mul[c0][acc]] if acc else 0)
    return {k - v: co for k, co in enumerate(inv) if co}


def _m_mul(F, m1, m2):
    return tuple(
        tuple(
            _s_add(
                F,
                _s_mul(F, m1[i][0], m2[0][j]),
                _s_mul(F, m1[i][1], m2[1][j]),
            )
            for j in range(2)
        )
        for i in range(2)
    )


def _m_scalar(diag0, diag1):
    return (({0: diag0} if diag0 else {}, {}), ({}, {0: diag1} if diag1 else {}))


# ---------------------------------------------------------------------------
# points


class GrPoint(NamedTuple):
    """Lattice in canonical column Hermite form [[t^a, b], [0, t^c]].

    b is a Laurent polynomial with exponents < a, stored as a sorted tuple
    of (exponent, coefficient) pairs. For PGL2 the form is normalized by
    global t-scaling so that c = 0. A tuple, so hashing and equality are
    those of (preset, q, a, c, b).
    """

    preset: str
    q: int
    a: int
    c: int
    b: tuple

    def matrix(self):
        return (
            ({self.a: 1}, dict(self.b)),
            ({}, {self.c: 1}),
        )

    def gl_type(self):
        """Elementary divisor exponents (m1 >= m2) of the lattice."""
        vals = [self.a, self.c]
        if self.b:
            vals.append(self.b[0][0])
        m2 = min(vals)
        return (self.a + self.c - m2, m2)

    def coweight(self):
        """Dominant coweight indexing Gr^type, in preset coordinates."""
        return PRESETS[self.preset].coords(*self.gl_type())

    def is_torus_point(self):
        return not self.b

    def torus_coweight(self):
        """Coweight of a diagonal basepoint, not dominant in general."""
        if self.b:
            raise OracleError("not a torus point")
        return PRESETS[self.preset].coords(self.a, self.c)

    def to_json(self):
        return {
            "preset": self.preset,
            "q": self.q,
            "a": self.a,
            "c": self.c,
            "b": [[e, c] for e, c in self.b],
            "type": list(self.coweight()),
        }


def _hnf_point(preset, q, mat):
    """Canonical form of the lattice spanned by the columns of mat.

    The pivot is the bottom entry of lower valuation c (the second on a
    tie), a = val(det) - c, and b is the pivot column's top entry times the
    inverse of the pivot's unit, mod t^a (_reduced). The closed forms below
    are checked against it.
    """
    F = gf(q)
    (m00, m01), (m10, m11) = mat
    minus = {e: F._neg[co] for e, co in _s_mul(F, m01, m10).items()}
    det = _s_add(F, _s_mul(F, m00, m11), minus)
    if not det:
        raise OracleError("singular lattice basis")
    if not m11 or (m10 and min(m10) < min(m11)):
        m01, m11 = m00, m10
    c = min(m11)
    return _reduced(preset, q, min(det) - c, c, m01, _s_shift(m11, -c))


def _canonical_point(preset, q, a, c, b):
    """The point [[t^a, b], [0, t^c]] for a sorted tuple of terms b,
    rescaled by a global power of t to the diagonal diagonal(coords(a, c))
    of its preset."""
    if preset in _PROJECTIVE:
        P = PRESETS[preset]
        a, c0 = P.diagonal(*P.coords(a, c))
        if c0 != c:
            b = tuple((e + c0 - c, co) for e, co in b)
            c = c0
    return _new_point(GrPoint, (preset, q, a, c, b))


_new_point = tuple.__new__  # GrPoint's own __new__ less its keyword layer


def _add_terms(F, xs, ys, hi):
    """Sum of two sorted sequences of (exponent, coefficient) terms, as a
    sorted tuple without the terms at or above hi: each term of ys, which
    is short, goes into xs by bisection, or after it when every kept term
    of ys lies above xs."""
    if xs and xs[-1][0] >= hi:
        xs = [t for t in xs if t[0] < hi]
    if not ys or (ys[-1][0] < hi and (not xs or ys[0][0] > xs[-1][0])):
        return (*xs, *ys)
    out = list(xs)
    for e, co in ys:
        if e < hi:
            k = bisect_left(out, (e,))
            if k == len(out) or out[k][0] != e:
                out.insert(k, (e, co))
            elif co := F.add(out[k][1], co):
                out[k] = (e, co)
            else:
                del out[k]
    return tuple(out)


def _reduced(preset, q, a, c, top, unit):
    """The point [[t^a, top u^-1 mod t^a], [0, t^c]], the Hermite form of a
    lattice of diagonal (a, c) whose pivot column is (top, t^c u) for the
    unit series u: it reads the a - val(top) lowest terms of u^-1, all that
    reach below t^a."""
    F = gf(q)
    b = _s_mul(F, top, _s_inv(F, unit, a - min(top)), a) if top else {}
    return _canonical_point(preset, q, a, c, tuple(sorted(b.items())))


def _triangular_point(point: GrPoint, mat, left):
    """Closed-form Hermite form of g L (left) or L g, or None.

    Applies when g = [[g00, g01], [0, g11]] with monomial g00 and g11. With
    L = [[t^a, b], [0, t^c]] the product stays triangular, with diagonal
    exponents a' = a + val g00 and c' = c + val g11, so its Hermite form
    scales the second column by the inverse of u, the constant of g11, and
    reduces its top entry m mod t^a': b' = m u^-1 mod t^a', where
    m = g00 b + t^c g01 for g L and t^a g01 + b g11 for L g, which merges
    two sorted term lists. Returns None for any other g.
    """
    (g00, g01), (g10, g11) = mat
    if g10 or len(g00) != 1 or len(g11) != 1:
        return None
    (e0, c0), = g00.items()
    (e1, c1), = g11.items()
    a, c = point.a + e0, point.c + e1
    F = gf(point.q)
    u = 1 if c1 == 1 else F.inv(c1)
    if left:
        shift, scale, at = e0, c0 if u == 1 else F.mul(c0, u), point.c
    else:
        shift, scale, at = e1, 1, point.a
    xs = point.b
    if shift or scale != 1:
        xs = [(e + shift, co if scale == 1 else F.mul(co, scale)) for e, co in xs]
    ys = [(e + at, co if u == 1 else F.mul(co, u)) for e, co in g01.items()] if g01 else ()
    if len(ys) > 1:
        ys.sort()
    return _canonical_point(point.preset, point.q, a, c, _add_terms(F, xs, ys, a))


def _lower_point(point: GrPoint, mat):
    """Closed-form Hermite form of x_-(s) L = [[1, 0], [s, 1]] L, or None.

    With L = [[t^a, b], [0, t^c]] the product's bottom row is
    (s t^a, s b + t^c). The pivot is the entry of lower valuation c' (the
    second on a tie, as in _hnf_point), the determinant t^(a+c) gives
    a' = a + c - c', and b' is the top entry of the pivot's column times
    the inverse of the pivot's unit, mod t^a' (_reduced). Returns None for
    any other g.
    """
    (g00, g01), (s, g11) = mat
    if g01 or not s or g00 != {0: 1} or g11 != {0: 1}:
        return None
    F = gf(point.q)
    a, c, b = point.a, point.c, dict(point.b)
    low = {e + a: co for e, co in s.items()}
    high = _s_add(F, _s_mul(F, s, b), {c: 1})
    pivot, top = (low, {a: 1}) if not high or min(low) < min(high) else (high, b)
    c1 = min(pivot)
    return _reduced(point.preset, point.q, a + c - c1, c1, top, _s_shift(pivot, -c1))


def _shape(x):
    """(a, c, val b) of a point, None for b = 0: all that _fixes reads."""
    return x.a, x.c, x.b[0][0] if x.b else None


def _fixes(point: GrPoint, mat):
    """Whether g L = L, that is whether L^-1 g L lies in GL2(O), for g one
    of the generator kinds below; False for any other g.

    With L = [[t^a, b], [0, t^c]], v = val b and s of valuation n:
    * x_+(s): L^-1 g L - 1 = [[0, s t^(c-a)], [0, 0]], integral iff
      n + c - a >= 0;
    * x_-(s): L^-1 g L - 1 has entries of valuations n + a - c and, for
      b != 0, v + n - c (twice) and 2v + n - a - c;
    * diag(u0, u1) with unit entries: L^-1 g L = [[u0, (u0 - u1) b t^-a],
      [0, u1]], integral iff b = 0 or val(u0 - u1) + v >= a. In
      characteristic 2 the t>j generators have val(u0 - u1) = 2j, not j.
    It reads only the shape (a, c, v).
    """
    (g00, g01), (g10, g11) = mat
    if (g01 and g10) or not (g00 and g11):
        return False
    a, c, b = point.a, point.c, point.b
    v = b[0][0] if b else None
    off = g01 or g10
    if off:
        if g00 != {0: 1} or g11 != {0: 1}:
            return False
        n = min(off)
        if g01:
            return n + c - a >= 0
        return n + a - c >= 0 and (v is None or (v + n - c >= 0 and 2 * v + n - a - c >= 0))
    if min(g00) != 0 or min(g11) != 0:
        return False
    if v is None:
        return True
    diff = min((e for e in g00.keys() | g11.keys() if g00.get(e) != g11.get(e)), default=None)
    return diff is None or diff + v >= a


def _product_point(point: GrPoint, mat, left):
    """g L (left) or L g: a closed form where one applies, else the Hermite
    form of the product."""
    out = _triangular_point(point, mat, left)
    if out is None and left:
        out = _lower_point(point, mat)
    if out is None:
        F, m = gf(point.q), point.matrix()
        out = _hnf_point(point.preset, point.q, _m_mul(F, mat, m) if left else _m_mul(F, m, mat))
    return out


def act(point: GrPoint, mat, cut=None):
    """Left translate of a point by a group element. cut is not read; it
    stays only because perfbench/workloads.py passes one."""
    return _product_point(point, mat, True)


def translate(point: GrPoint, mat, cut=None):
    """Right translate x -> x g, as in convolution by a coset sum. cut is
    not read; it stays only because perfbench/workloads.py passes one."""
    return _product_point(point, mat, False)


def _plan(q, mat):
    """Left translate x -> g x by one element g, compiled once: for g =
    diag(u0, u1) with unit series, not both constant, b' = b r mod t^a for
    r = u0 u1^-1, which reads the a - val b lowest terms of r; r is kept
    to the most terms a point has needed so far. _product_point for any
    other g.
    """
    (g00, g01), (g10, g11) = mat
    if g01 or g10 or not (g00 and g11) or min(g00) or min(g11) or len(g00) == len(g11) == 1:
        return lambda x: _product_point(x, mat, True)
    F, kept, r = gf(q), 0, {}

    def image(x):
        nonlocal kept, r
        a, b = x.a, x.b
        n = a - b[0][0] if b else 0
        if n > kept:
            kept, r = n, _s_mul(F, g00, _s_inv(F, g11, n), n)
        b = _s_mul(F, dict(b), r, a)
        return _canonical_point(x.preset, q, a, x.c, tuple(sorted(b.items())))
    return image


# ---------------------------------------------------------------------------
# preset data


def _preset(preset):
    if preset not in PRESETS:
        raise OracleError(f"unsupported preset {preset}")
    return PRESETS[preset]


@lru_cache(maxsize=None)
def _rd(preset):
    """The preset's root datum, built once (it is never mutated)."""
    _preset(preset)
    return build_root_datum(preset)


def _diagonal(preset, lam):
    """Hermite diagonal exponents (a, c) of the torus point t^lam."""
    P, lam = _preset(preset), tuple(lam)
    rank = len(P.coords(0, 0))
    if len(lam) != rank:
        raise InvalidCoweight(f"{preset} coweights have {rank} coordinate(s), got {lam}")
    return P.diagonal(*lam)


def _dominant(rd, preset, lam, name):
    """lam as a tuple, checked to be a dominant coweight of the preset."""
    lam = tuple(lam)
    _diagonal(preset, lam)  # checks the rank
    if not rd.is_dominant(lam):
        raise InvalidCoweight(f"{name} must be dominant, got {lam}")
    return lam


def _check_points(points, preset, q):
    """Raise OracleError unless every point is a preset point over F_q."""
    for x in points:
        if x.preset != preset or x.q != q:
            raise OracleError(f"a {x.preset} point over F_{x.q} among {preset} points over F_{q}")


def depth_for(preset, bound):
    """2 * (a - c + 1) + 2 + max(min(a, c), 0) for the bound's diagonal
    (a, c): the t-adic depth of the truncated Hermite forms this module no
    longer uses. Nothing here reads it; it stays only because
    perfbench/workloads.py calls it."""
    a, c = _diagonal(preset, bound)
    return 2 * (a - c + 1) + 2 + max(min(a, c), 0)


def _window_generators(preset, group_spec, q, bound):
    """Twisted generators up to the level a window needs: its lattices
    satisfy t^V O^2 <= L <= t^-V O^2, V = max(|a|, |c|) of the bound."""
    a, c = _diagonal(preset, bound)
    return twisted_generators(preset, group_spec, q, 2 * max(abs(a), abs(c)) + 2)


def torus_point(preset, q, lam):
    a, c = _diagonal(preset, lam)
    return GrPoint(preset, q, a, c, ())


def x_plus(q, a, n):
    """Upper root subgroup element x_alpha(a t^n)."""
    return (({0: 1}, {n: a} if a else {}), ({}, {0: 1}))


def x_minus(q, a, n):
    return (({0: 1}, {}), ({n: a} if a else {}, {0: 1}))


def d_torus(c):
    """Lift of rho-hat(c): the Gm of the exponential group."""
    return _m_scalar(c, 1)


# ---------------------------------------------------------------------------
# window enumeration


def _window_shapes(preset, bound):
    """Yield (a, c, low) with off-diagonal exponents ranging over [low, a):
    the GL2 shapes below the bound's diagonal, rescaled as in _canonical_point."""
    P = _preset(preset)
    A, C = _diagonal(preset, bound)
    for a in range(C, A + 1):
        c = A + C - a
        a0, c0 = P.diagonal(*P.coords(a, c))
        yield a0, c0, C + c0 - c


def window_size(preset, bound, q):
    """Number of F_q-points below bound; InvalidCoweight unless bound is a
    dominant coweight of the preset, ValueError unless q is a field size."""
    gf(q)
    _dominant(_rd(preset), preset, bound, "bound")
    total = 0
    for a, _c, low in _window_shapes(preset, bound):
        total += q ** max(a - low, 0)
    return total


def check_window_size(preset, bound, q):
    """Raise WindowTooLarge if the window below bound is past the cap."""
    estimate = window_size(preset, bound, q)
    if estimate > _WINDOW_CAP:
        raise WindowTooLarge(estimate)


def enumerate_gr_window(preset, bound, q):
    """All F_q-points of Gr with elementary type <= bound (dominance order)."""
    check_window_size(preset, bound, q)
    F = gf(q)
    points = []
    for a, c, low in _window_shapes(preset, bound):
        exps = list(range(low, a))
        for coeffs in itertools.product(F.elements(), repeat=len(exps)):
            b = tuple((e, co) for e, co in zip(exps, coeffs) if co)
            points.append(GrPoint(preset, q, a, c, b))
    points.sort(key=lambda p: (p.a, p.c, p.b))
    return points


def _coset_points(preset, mu, q):
    """The lattices in relative position exactly mu: K mu K / K."""
    mu = _dominant(_rd(preset), preset, mu, "mu")
    return [p for p in enumerate_gr_window(preset, mu, q) if p.coweight() == mu]


def _coset_shapes(preset, mu, q):
    """K mu K / K by diagonal, with no representative built: {(a, c):
    (size, traces)} in the diagonal order of _coset_points, where
    traces[e][k] counts the representatives whose coefficient of t^e is a
    unit of trace k.

    A point of shape (a, c, low) lies in the cell exactly when
    min(a, c, val b) == low, its smaller elementary divisor exponent
    (a, c and val b are never below low). So if a or c is low every b
    counts, q^n of them for the n = a - low exponents of b; otherwise the
    coefficient of t^low is a unit and the rest are free, (q - 1) q^(n-1)
    points. Each unit value of one coefficient then takes size / q points,
    or size / (q - 1) for the forced unit of t^low.
    """
    F = gf(q)
    units = [0] * F.p
    for u in F.units():
        units[F.trace(u)] += 1
    shapes = {}
    for a, c, low in _window_shapes(preset, mu):
        n = a - low
        if low in (a, c):
            size, forced = q ** n, q
        else:
            size, forced = (q - 1) * q ** (n - 1), q - 1
        traces = {e: tuple(k * (size // (forced if e == low else q)) for k in units)
                  for e in range(low, a)}
        shapes[a, c] = (size, traces)
    return shapes


def coset_reps(preset, mu, q, depth=None):
    """Matrices of the lattices in relative position exactly mu: K mu K / K.
    depth is not read; it stays only because perfbench/workloads.py passes
    one."""
    return [p.matrix() for p in _coset_points(preset, mu, q)]


# ---------------------------------------------------------------------------
# twisted unipotent generators


# names each spec drops from the twisted Iwahori's generators. U_twisted has
# no Gm factor, so the level -1 character survives as a character of it.
_DROPS = {
    "Iwahori_twisted": (),
    "U_twisted": ("gm", "torus"),
    "U_exp_twisted": ("x+-1", "torus"),
    "U_rtimes_Gm_twisted": ("torus",),
}


def _drops(group_spec):
    if group_spec not in _DROPS:
        raise OracleError(f"unknown group spec {group_spec}")
    return _DROPS[group_spec]


def twisted_generators(preset, group_spec, q, level_hi):
    """Generators (matrix, psi-exponent, name) of the rho-hat-twisted groups.

    Conjugation by rho-hat(1/t) shifts the level of a root subgroup by the
    root height, so the positive simple root appears from level -1 and the
    negative one from level 2. The psi-exponent is the additive character
    of the baby Whittaker datum: nontrivial exactly on the level -1 simple
    root subgroup.
    """
    drops = _drops(group_spec)
    F = gf(q)
    # additive generators suffice for the filtered unipotent families
    add_gens = (1,) if F.k == 1 else (1, F.p)
    gens = [(x_plus(q, a, n), F.trace(a) if n == -1 else 0, f"x+{n}")
            for n in range(-1, level_hi + 1) for a in add_gens]
    gens += [(x_minus(q, a, n), 0, f"x-{n}") for n in range(2, level_hi + 1) for a in add_gens]
    for j in range(1, level_hi + 1):
        for cc in add_gens:
            u = {0: 1, j: cc}
            if _preset(preset).det_one:
                gens.append((((u, {}), ({}, _s_inv(F, u, level_hi + 2))), 0, f"t>{j}"))
            else:
                gens.append((((u, {}), ({}, {0: 1})), 0, f"t>{j}a"))
                gens.append(((({0: 1}, {}), ({}, u)), 0, f"t>{j}b"))
    units = [cc for cc in F.units() if cc != 1]
    gens += [(d_torus(cc), 0, "gm") for cc in units]
    gens += [(_m_scalar(1, cc), 0, "torus") for cc in units]
    return [g for g in gens if g[2] not in drops]


# ---------------------------------------------------------------------------
# orbits

_partition_cache = {}
_PARTITION_CACHE_SIZE = 4


class _Window:
    """Points and their left translates by a generator list, shared by the
    orbit searches over them, which work with the points' positions.

    Filled as the searches need them: fixes holds the _fixes verdict of
    every generator per shape (a, c, val b), all that _fixes reads;
    plans[i] the _plan of generator i; images[j] maps a generator to the
    position of point j's image; partitions holds finished partitions.
    """

    def __init__(self, points, gens, free):
        self.points = list(dict.fromkeys(points))
        self.index = {x: j for j, x in enumerate(self.points)}
        self.images = [{} for _ in self.points]
        self.gens, self.free = gens, free
        self.plans = [None] * len(gens)
        self.fixes, self.partitions = {}, {}

    def adopt(self, other):
        """Take over the images that other, a free window on the same
        points, has computed by each generator whose matrix is also one of
        this window's."""
        mine = {io: i for io, (theirs, _e, their_name) in enumerate(other.gens)
                for i, (mat, _e, name) in enumerate(self.gens)
                if name == their_name and mat == theirs}
        for x, seen in zip(other.points, other.images):
            images = self.images[self.index[x]]
            for io, k in seen.items():
                i = mine.get(io)
                if i is not None:
                    images[i] = self.index[other.points[k]]

    def product(self, j, i):
        """Point j's image under generator i, by the generator's plan."""
        plan = self.plans[i]
        if plan is None:
            plan = self.plans[i] = _plan(self.points[j].q, self.gens[i][0])
        return plan(self.points[j])

    def image(self, j, i):
        """The position of point j's image under generator i: None outside a
        closed window; a free one takes it in, up to _WINDOW_CAP points."""
        seen = self.images[j]
        if i not in seen:
            im = self.product(j, i)
            k = self.index.get(im)
            if k is None and self.free:
                k = self.index[im] = len(self.points)
                self.points.append(im)
                self.images.append({})
                if k >= _WINDOW_CAP:
                    raise WindowTooLarge(k + 1)
            seen[i] = k
        return seen[i]

    def search(self, seeds, spec, p):
        """_orbit_bfs over positions, by the generators of the spec. One
        that fixes a point leads back to it, with another label exactly
        when its psi-exponent is nonzero mod p."""
        drops = _drops(spec) if spec else ()
        mine = [(i, e) for i, (_mat, e, name) in enumerate(self.gens) if name not in drops]
        labels = dict.fromkeys(seeds, 0)
        frontier = list(labels)
        partial, consistent = False, True
        while frontier:
            nxt = []
            for j in frontier:
                x = self.points[j]
                shape = _shape(x)
                fixes = self.fixes.get(shape)
                if fixes is None:
                    fixes = self.fixes[shape] = [
                        _fixes(x, mat) for mat, _e, _name in self.gens]
                ex, seen = labels[j], self.images[j]
                for i, e in mine:
                    if fixes[i]:
                        consistent = consistent and not e % p
                        continue
                    k = seen[i] if i in seen else self.image(j, i)
                    val = (e + ex) % p
                    if k is None:
                        partial = True
                        continue
                    old = labels.get(k)
                    if old is not None:
                        consistent = consistent and old == val
                    else:
                        labels[k] = val
                        nxt.append(k)
            frontier = nxt
        return labels, partial, consistent

    def partition(self, group_spec):
        """The orbits of a closed window, as orbit_partition returns them."""
        pts = self.points
        preset, q = pts[0].preset, pts[0].q
        assignment, orbits = {}, []
        # seed from torus points so every orbit gets a well-defined label
        for seed in [j for j, x in enumerate(pts) if x.is_torus_point()] + list(range(len(pts))):
            if pts[seed] in assignment:
                continue
            found, partial, consistent = self.search([seed], group_spec, gf(q).p)
            labels = {pts[k]: v for k, v in found.items()}
            orbit = frozenset(labels)
            torus = sorted(x.torus_coweight() for x in orbit if x.is_torus_point())
            assignment.update(dict.fromkeys(orbit, len(orbits)))
            orbits.append({"label": torus[0] if torus else None, "tag": "single",
                           "points": orbit, "partial": partial, "labels": labels,
                           "consistent": consistent})
        if group_spec == "U_exp_twisted":
            # of a split orbit, the closed piece holds t^lam, the open x_+(t^-1) t^lam
            rd, x1 = _rd(preset), x_plus(q, 1, -1)
            i = next(i for i, (mat, _e, name) in enumerate(self.gens)
                     if name == "x+-1" and mat == x1)
            for k, lam in [(k, o["label"]) for k, o in enumerate(orbits)]:
                if lam is None or not rd.is_dominant(lam):
                    continue
                im = self.image(self.index[torus_point(preset, q, lam)], i)
                other = None if im is None else assignment.get(pts[im])
                if other in (None, k) or orbits[k]["partial"] or orbits[other]["partial"]:
                    continue
                orbits[k]["tag"], orbits[other]["tag"] = "closed", "open"
                orbits[other]["label"] = lam
        return assignment, orbits


def _orbit_bfs(seeds, gens, p, window=None):
    """Orbit of the seeds, with the baby character transported along it.

    Returns (labels, partial, consistent). labels maps each point reached
    to the psi-exponent mod p of a group element moving a seed there (the
    seeds read 0); consistent is False when two paths disagree, i.e. the
    character is not trivial on the stabilizer. Inside a window, partial
    records an image outside it: such a boundary orbit is truncated and
    must carry no function values downstream. A free search raises
    WindowTooLarge past _WINDOW_CAP points.
    """
    win = _Window([*seeds, *(window or ())], gens, window is None)
    labels, partial, consistent = win.search(range(len(set(seeds))), None, p)
    return {win.points[j]: v for j, v in labels.items()}, partial, consistent


def orbit_partition(points, group_spec, q):
    """Partition a window into orbits of the given twisted group.

    Returns (assignment, orbits): assignment maps each point to an orbit
    index, orbits is a list of dicts with keys ``label`` (coweight of the
    torus basepoint of the ambient U-rtimes-Gm orbit), ``tag`` (``single``
    for an unsplit orbit, ``closed``/``open`` for the two exponential
    pieces of a split one), ``points``, ``partial`` (the orbit leaves the
    window), and ``labels``/``consistent``, the character transport of
    _orbit_bfs from the orbit's first point.

    The last few windows are cached, each as one _Window over the twisted
    Iwahori's generators at the window's level: the searches of
    every group spec share its stabilizer verdicts and translates.
    """
    if not points:
        return {}, []
    win = _window(points, q)
    found = win.partitions.get(group_spec)
    if found is None:
        found = win.partitions[group_spec] = win.partition(group_spec)
    return found


def _window(points, q, closure=None, bound=None):
    """The _Window of a nonempty closed window over the twisted Iwahori's
    generators at its level, one of the last few kept. bound, when given,
    is _window_bound(points), already computed; a new window takes over
    the images of closure, a free window on the same points, when given."""
    preset = points[0].preset
    key = (preset, q, frozenset(points))
    win = _partition_cache.pop(key, None)
    if win is None:
        _check_points(points, preset, q)
        if bound is None:
            bound = _window_bound(points)
        gens = _window_generators(preset, "Iwahori_twisted", q, bound)
        win = _Window(points, gens, False)
        if closure is not None:
            win.adopt(closure)
    _partition_cache[key] = win
    if len(_partition_cache) > _PARTITION_CACHE_SIZE:
        del _partition_cache[next(iter(_partition_cache))]
    return win


def orbit_closure(preset, q, seeds, group_spec, bound):
    """Union of the full twisted orbits of the seeds, by free closure.

    Unlike orbit_partition this does not need an ambient enumeration: the
    orbit of any point of type <= bound - 2 rho-hat stays inside type <=
    bound, so the BFS terminates. The bound sizes the generator levels;
    OracleError if the closure reaches a type past it, where that level
    no longer covers the orbit and the returned set may not be closed.

    The search runs on a free _Window over the twisted Iwahori's
    generators at the bound's level, by the spec's, which are the spec's
    own generators in their own order. It hands its images over: the
    window orbit_partition keeps for the returned points (_window) starts
    with every image by a generator whose matrix the closure's list
    holds, so the partitions and the Gm-averaging on those points compute
    only the images the closure did not (SL2's t>j generators, truncated
    per level, and the torus). A window already kept for them stays.
    """
    _check_points(seeds, preset, q)
    free = _Window(seeds, _window_generators(preset, "Iwahori_twisted", q, bound), True)
    free.search(range(len(free.points)), group_spec, gf(q).p)
    points = sorted(free.points, key=lambda p: (p.a, p.c, p.b))
    if points:
        top = _window_bound(points)
        if not _rd(preset).dominance_leq(top, bound):
            raise OracleError(f"the orbits reach type {top}, past the bound {tuple(bound)}")
        _window(points, q, free, top)
    return points


def _window_bound(points):
    """Least bound of the window's types; (max m1, min m2) in rank two."""
    if not points:
        raise OracleError("empty window: no points to bound")
    if len(points[0].coweight()) == 1:
        return (max(p.coweight()[0] for p in points),)
    hi = max(p.gl_type()[0] for p in points)
    lo = min(p.gl_type()[1] for p in points)
    return (hi, lo)


# ---------------------------------------------------------------------------
# functions and Hecke operators


@dataclass
class FqFunction:
    """Finitely supported function on window points."""

    preset: str
    q: int
    window: tuple
    values: dict


def hecke_operator(f: FqFunction, mu, domain_points):
    """Right convolution with the K-double-coset indicator of mu.

    (f * 1_mu)(x) = sum over g in K mu K / K of f(x g), evaluated on the
    given domain. Raises SupportEscapesWindow if the result is nonzero at
    a point whose type is not below the window bound of f.

    x g = y exactly when x = y g' for one g' in K mu* K / K, mu* = -w0 mu
    (on the diagonal (a, c) -> (-c, -a)): each y in f's support adds f(y)
    at every y g' in the domain, and each domain point reads that index.
    The products come off _read_off, which builds only those whose shape
    (a, c, val b) is the shape of a domain point.
    """
    preset, q = f.preset, f.q
    _check_points(domain_points, preset, q)
    _check_points(f.values, preset, q)
    domain = set(domain_points)
    am, cm = _diagonal(preset, mu)
    star = _rep_shapes(preset, PRESETS[preset].coords(-cm, -am), q)
    lands = {_shape(x) for x in domain}
    index = {}
    for y, v in f.values.items():
        for (a1, c1), reps in star.items():
            for x in _read_off(y, a1, c1, reps, lands):
                if x in domain:
                    index[x] = index[x] + v if x in index else v
    out = {}
    rd = _rd(preset)
    for x in domain_points:
        acc = index.get(x, 0)
        if acc:
            if not rd.dominance_leq(x.coweight(), f.window):
                raise SupportEscapesWindow(
                    f"nonzero value at type {x.coweight()} outside {f.window}"
                )
            out[x] = acc
    return FqFunction(preset, q, f.window, out)


def _rep_shapes(preset, mu, q):
    """K mu K / K grouped by diagonal and lowest term: {(a, c): {val b':
    [representative points]}}, val b' None for b' = 0."""
    shapes = {}
    for g in _coset_points(preset, mu, q):
        shapes.setdefault((g.a, g.c), {}).setdefault(_shape(g)[2], []).append(g)
    return shapes


def _read_off(x, a1, c1, reps, lands):
    """x g for the representatives g = [[t^a1, b'], [0, t^c1]] of one
    diagonal, grouped by val b': [[t^(a+a1), (t^c1 b + t^a b') mod
    t^(a+a1)], [0, t^(c+c1)]], translate's closed form, x's part shifted
    once; plain tuples on SL2 and GL2, which a GrPoint hashes and compares
    as. It builds only the products whose shape (a, c, val b), after the
    projective rescale, lies in lands: val b is the lower of the shifted
    part's and a + val b', or, where those tie and may cancel, unknown, so
    that group is built whole."""
    preset, q, a, c = x.preset, x.q, x.a + a1, x.c + c1
    F = gf(q)
    shifted = [(e + c1, co) for e, co in x.b if e + c1 < a]
    low = shifted[0][0] if shifted else None
    a0, c0 = a, c
    if preset in _PROJECTIVE:
        P = PRESETS[preset]
        a0, c0 = P.diagonal(*P.coords(a, c))
    bs = []
    for v, group in reps.items():
        v = None if v is None else v + x.a
        if v is None or v != low:
            # no tie, so nothing cancels: val b is the lower of the two
            v = min((e for e in (v, low) if e is not None), default=None)
            if (a0, c0, None if v is None else v + c0 - c) not in lands:
                continue
        bs += [_add_terms(F, shifted, [(e + x.a, co) for e, co in g.b], a) for g in group]
    if preset in _PROJECTIVE:
        return [_canonical_point(preset, q, a, c, b) for b in bs]
    return [(preset, q, a, c, b) for b in bs]


def _hecke_window(preset, window, mu):
    """Support bound of f * 1_mu for f below window: right convolution by
    K mu K moves support by -w0 mu, on diagonals (A_w - C_mu, C_w - A_mu)."""
    aw, cw = _diagonal(preset, window)
    am, cm = _diagonal(preset, mu)
    return PRESETS[preset].coords(aw - cm, cw - am)


# ---------------------------------------------------------------------------
# Whittaker model via the Iwasawa decomposition


def iwasawa_data(point: GrPoint):
    """Semi-infinite label and character coefficient of a point.

    Writing the point as u t^lam K with u = x_alpha(a(t)) in U(F), the
    label lam is read off the Hermite form and the returned field element
    is the t^(-1) coefficient of a(t). That coefficient is well defined
    modulo the stabilizer exactly when lam is dominant.
    """
    lam = PRESETS[point.preset].coords(point.a, point.c)
    return lam, dict(point.b).get(point.c - 1, 0)


def whittaker_space(preset, bound, q, domain_points):
    """Basis of (U(F), Psi)-equivariant functions with dominant labels <= bound.

    One function per dominant lam in the window, supported on the
    semi-infinite orbit of t^lam, with value psi(a_-1) at u t^lam.
    """
    _check_points(domain_points, preset, q)
    rd = _rd(preset)
    bound = _dominant(rd, preset, bound, "bound")
    basis = {lam: FqFunction(preset, q, bound, {})
             for lam in rd.dominant_window(bound)}
    coords = PRESETS[preset].coords
    psi = [psi_value(elem, q) for elem in gf(q).elements()]
    for p in domain_points:
        f = basis.get(coords(p.a, p.c))
        if f is not None:
            # iwasawa_data's coefficient of t^(c-1), off the sorted terms
            f.values[p] = psi[next((co for e, co in p.b if e == p.c - 1), 0)]
    return basis


def whittaker_action(preset, bound, mu, q):
    """Matrix of right convolution by 1_mu on the Whittaker basis.

    Returns {(lam, nu): CycNum}: the coefficient of the basis function at
    nu in (W_lam * 1_mu), computed as sum over g in K mu K / K of
    W_lam(t^nu g). No window enumeration is needed: values of W_lam at
    arbitrary points come from the Iwasawa decomposition.

    The translate of t^nu = [[t^a0, 0], [0, t^c0]] by a coset
    representative [[t^a, b], [0, t^c]] is [[t^(a0+a), t^a0 b], [0, t^(c0+c)]],
    already in Hermite form: its label is coords(a0 + a, c0 + c) and its
    character coefficient is the coefficient of t^(c0+c-a0-1) in b (the
    global t-rescaling of a projective preset changes neither). So the
    representatives of one diagonal (a, c) add, for each nu, their trace
    counts at that exponent to one entry. Those counts and the
    size of each diagonal come in closed form from _coset_shapes, so no
    representative is built either; a K mu K / K past the window cap still
    raises WindowTooLarge.
    The psi sums are kept as exponent counts: c_k points of trace k give
    sum_k c_k zeta^k, which one CycNum per entry holds at the end
    (zeta^(p-1) reduces to minus the lower powers).
    """
    rd = _rd(preset)
    bound = _dominant(rd, preset, bound, "lam")
    mu = _dominant(rd, preset, mu, "mu")
    # the closed form builds no point, but the window cap stays the
    # oracle's configuration contract
    check_window_size(preset, mu, q)
    P = PRESETS[preset]
    out_bound = _hecke_window(preset, bound, mu)
    F = gf(q)
    shapes = _coset_shapes(preset, mu, q)
    sources = set(rd.dominant_window(bound))
    counts = {}
    for nu in rd.dominant_window(out_bound):
        a0, c0 = P.diagonal(*nu)
        for (a, c), (size, traces) in shapes.items():
            a, c = a0 + a, c0 + c
            lab = P.coords(a, c)
            if lab in sources:
                # a zero coefficient of t^(c - a0 - 1) has trace 0
                hist = counts.setdefault((lab, nu), [0] * F.p)
                hist[0] += size
                for tr, n in enumerate(traces.get(c - a0 - 1, ())):
                    hist[tr] += n
                    hist[0] -= n
    matrix = {}
    for key, hist in counts.items():
        v = CycNum.make(F.p, q, [c - hist[-1] for c in hist[:-1]])
        if not v.is_zero():
            matrix[key] = v
    return matrix


def cyc_as_int(v):
    """Integer value of a cyclotomic number; raises if not a rational integer."""
    if isinstance(v, int):
        return v
    if v.den_exp != 0 or any(c for c in v.poly[1:]):
        raise OracleError(f"not a rational integer: {v}")
    return v.poly[0]


# ---------------------------------------------------------------------------
# character labelings and the averaging maps


def character_labeling(orbit_points, preset, q, group_spec, level_hi, seed):
    """Transport the baby character along an orbit.

    Returns (labels, consistent): labels maps each orbit point to the
    zeta-exponent of the character of any group element moving the seed
    there. Inconsistency means the stabilizer is not inside the kernel,
    so no equivariant function lives on this orbit. orbit_partition keeps
    the same transport for each of its orbits.
    """
    _check_points([seed, *orbit_points], preset, q)
    gens = twisted_generators(preset, group_spec, q, level_hi)
    labels, _partial, consistent = _orbit_bfs([seed], gens, gf(q).p, orbit_points)
    return labels, consistent


def baby_basis(preset, bound, q, points):
    """Psi-equivariant basis functions of the twisted-Iwahori model.

    One function per dominant lam <= bound: supported on the twisted orbit
    of t^lam with value zeta^e at the point reached by a group element of
    character exponent e. Non-dominant labels admit no such function.
    """
    rd = _rd(preset)
    bound = _dominant(rd, preset, bound, "bound")
    _check_points(points, preset, q)
    assignment, orbits = orbit_partition(points, "U_twisted", q)
    F = gf(q)
    basis = {}
    for lam in rd.dominant_window(bound):
        seed = torus_point(preset, q, lam)
        if seed not in assignment:
            raise OracleError(f"the window lacks the torus point t^{lam}")
        orbit = orbits[assignment[seed]]
        if orbit["partial"]:
            raise OracleError(f"window too small for the orbit of {lam}")
        if not orbit["consistent"]:
            raise OracleError(f"character inconsistent on the orbit of {lam}")
        # the stored transport starts at the orbit's first point; the basis
        # function reads 1 at t^lam
        shift = orbit["labels"][seed]
        vals = {p: CycNum.zeta_power(e - shift, F.p, q)
                for p, e in orbit["labels"].items()}
        basis[lam] = FqFunction(preset, q, bound, vals)
    return basis


def baby_averaging(f: FqFunction, points):
    """Average a Whittaker function to the baby (twisted-Iwahori) model.

    av(f)(g) = |U|^-1 sum over u of Psi^-1(u) f(ug), realized per orbit:
    with character transport c and orbit size q^l, this is
    q^-l zeta^c(g) S with S = sum over y in the orbit of zeta^-c(y) f(y),
    and zero on orbits whose stabilizer is not in the kernel of the
    character.
    """
    preset, q = f.preset, f.q
    _check_points(points, preset, q)
    _check_points(f.values, preset, q)
    F = gf(q)
    _assignment, orbits = orbit_partition(points, "U_twisted", q)
    out = {}
    for orbit in orbits:
        pts = orbit["points"]
        if orbit["partial"]:
            if any(f.values.get(p, 0) for p in pts):
                raise OracleError("nonzero value on a boundary orbit")
            continue
        if not orbit["consistent"]:
            continue
        size = len(pts)
        ell = 0
        while q**ell < size:
            ell += 1
        if q**ell != size:
            raise OracleError("orbit size is not a power of q")
        labels = orbit["labels"]
        total = CycNum.integer(0, F.p, q)
        for y, c in labels.items():
            v = f.values.get(y)
            if v is not None:
                total = total + CycNum.zeta_power(-c, F.p, q) * v
        if total.is_zero():
            continue
        # one product per label exponent, at most p per orbit
        scaled = {}
        for g, c in labels.items():
            if c not in scaled:
                scaled[c] = (CycNum.zeta_power(c, F.p, q) * total).div_by_q_power(ell)
            out[g] = scaled[c]
    return FqFunction(preset, q, f.window, out)


def gm_averaging(f: FqFunction, points):
    """Gm-average a baby-model function and take its exponential class.

    gamma(f)(x) = sum over c in F_q^* of f(D(c) x). The result is
    invariant under the twisted exponential group; the returned class is
    its expansion in closed-orbit indicators modulo functions invariant
    under the full twisted group (open = -closed, unsplit orbits die).

    D(c) x for c != 1 is read off orbit_partition's _Window for the
    points, by its gm generators, or computed where it leaves the window;
    exponential_class's search reuses those images.
    """
    preset, q = f.preset, f.q
    _check_points(points, preset, q)
    _check_points(f.values, preset, q)
    if not points:
        raise OracleError("empty window: no points to average over")
    F = gf(q)
    win = _window(points, q)
    gms = [i for i, (_mat, _e, name) in enumerate(win.gens) if name == "gm"]
    vals = {}
    for x in points:
        j, ys = win.index[x], [x]
        for i in gms:
            k = win.image(j, i)
            ys.append(win.product(j, i) if k is None else win.points[k])
        acc = CycNum.integer(0, F.p, q)
        for y in ys:
            v = f.values.get(y)
            if v is not None:
                acc = acc + v
        if not acc.is_zero():
            vals[x] = acc
    g = FqFunction(preset, q, f.window, vals)
    return g, exponential_class(g, points)


def exponential_class(f: FqFunction, points):
    """Class of an exponential-invariant function in the quotient model.

    Checks constancy on the twisted exponential orbits and returns
    {lam: closed coefficient - open coefficient} over split orbits.
    """
    _check_points(points, f.preset, f.q)
    _check_points(f.values, f.preset, f.q)
    _assignment, orbits = orbit_partition(points, "U_exp_twisted", f.q)
    coeff = {}
    for orbit in orbits:
        vals = {f.values.get(p, 0) for p in orbit["points"]}
        norm = {v or 0 for v in vals}
        if orbit["partial"]:
            if norm != {0}:
                raise OracleError("nonzero value on a boundary orbit")
            continue
        if len(norm) > 1:
            raise OracleError("function not constant on an exponential orbit")
        v = norm.pop()
        if v == 0 or orbit["tag"] == "single":
            continue
        lam = tuple(orbit["label"])
        term = v if orbit["tag"] == "closed" else -v
        coeff[lam] = coeff.get(lam, 0) + term
    return {k: v for k, v in coeff.items() if v}


def exp_action_matrix(preset, bound, mu, q, points):
    """Action of 1_mu on closed-orbit indicator classes, by point counting.

    Returns {(lam, nu): int}: the coefficient of the class at nu in
    (closed-orbit indicator of lam) * 1_mu.
    """
    rd = _rd(preset)
    bound = _dominant(rd, preset, bound, "bound")
    if not points:
        raise OracleError("empty window: no points to act on")
    _assignment, orbits = orbit_partition(points, "U_exp_twisted", q)
    closed = {tuple(o["label"]): o for o in orbits if o["tag"] == "closed"}
    out = {}
    for lam in rd.dominant_window(bound):
        window = _hecke_window(preset, lam, mu)
        # lam and every dominant target in the result window must be properly
        # split, otherwise the ambient enumeration is too small and
        # coefficients would be dropped silently
        for nu in rd.dominant_window(window) + [lam]:
            if nu not in closed:
                raise OracleError(f"window too small for the closed orbit of {nu}")
        f = FqFunction(preset, q, window, {p: 1 for p in closed[lam]["points"]})
        h = hecke_operator(f, mu, points)
        for nu, v in exponential_class(h, points).items():
            out[(lam, nu)] = v
    return out


# ---------------------------------------------------------------------------
# interpolation back to Z[q]


def interpolate_structure_constants(preset, lam, mu, q_list):
    """Fit the oracle counts of the spherical action to polynomials in q.

    For each q the Whittaker-model action coefficients of (W_lam * 1_mu)
    are exact integers; this interpolates them across q_list and returns
    {nu: QPoly}. Each count is a sum of |K mu K / K| = |Gr^mu(F_q)| roots
    of unity, so its degree is at most d = <2 rho, mu> = dim Gr^mu. The fit
    takes d + 1 field sizes (TooFewFieldSizes on fewer), and every further
    size checks it: counts off a polynomial of degree <= d raise an
    OracleError.
    """
    rd = _rd(preset)
    lam = _dominant(rd, preset, lam, "lam")
    mu = _dominant(rd, preset, mu, "mu")
    degree = rd.pair(rd.two_rho, mu)
    if len(q_list) < degree + 1:
        raise TooFewFieldSizes(
            f"interpolating 1_{mu} needs at least {degree + 1} field sizes "
            f"(<2 rho, mu> = {degree}), got {len(q_list)}")
    samples = {}
    for q in q_list:
        matrix = whittaker_action(preset, lam, mu, q)
        for (src, nu), v in matrix.items():
            if src != lam:
                continue
            samples.setdefault(nu, []).append((q, cyc_as_int(v)))
    out = {}
    for nu, pts in samples.items():
        filled = dict(pts)
        for q in q_list:
            filled.setdefault(q, 0)
        try:
            out[nu] = qpoly_interpolate(sorted(filled.items()), degree)
        except (Inconsistent, NonIntegral) as e:
            raise OracleError(f"counts at {nu} are not a polynomial of degree <= {degree}: {e}")
    return {nu: poly for nu, poly in out.items() if not poly.is_zero()}
