"""Brute-force finite-field model of the affine Grassmannian for 2x2 groups.

Points of Gr(F_q) are O-lattices in F^2 (F = F_q((t)), O = F_q[[t]]) in a
canonical Hermite normal form, truncated at t-adic depth N. On bounded
windows this computes, by direct enumeration and coset sums:

* Schubert-cell point counts,
* orbit partitions for the rho-hat-twisted Iwahori, exponential, and
  U-rtimes-Gm groups (generated by index-shifted affine root subgroups),
* spherical Hecke operators,
* psi-twisted Whittaker bases and the two averaging maps between the
  Whittaker, baby Whittaker, and exponential-quotient function models.

Everything here is ground truth at a literal prime power q, used to
validate the generic q-polynomial computations by specialization.

Presets use the standard 2-dimensional representation; PGL2 is modelled as
lattices modulo global t-scaling (the canonical form fixes the lower-right
elementary exponent to 0).

Left (``act``) and right (``translate``) translates by an upper-triangular
element with monomial diagonal [[d0 t^e0, g01], [0, d1 t^e1]] leave the
Hermite form triangular, so they are computed in closed form: every coset
representative, ``x_plus``, ``d_torus`` and the torus of the twisted
Iwahori take this path. ``x_minus``, the SL2 ``t>j`` generators (their
diagonal is not a monomial) and any product whose diagonal exponent reaches
the cut go through the general Hermite normal form ``_hnf_point``.
``test_closed_form_translates_match_general_hnf`` checks that both give the
same point, or the same error.

One search, ``_orbit_bfs``, finds every orbit, inside a window or free,
and transports the baby character along it: ``orbit_partition`` stores
each orbit's character labels and consistency flag, which the baby basis
and the averaging (linear per orbit: one sum of zeta^-c(y) f(y)) read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coefficients import CycNum, QPoly, gf, psi_value, qpoly_interpolate
from .root_datum import build_root_datum


class OracleError(ValueError):
    pass


class WindowTooLarge(OracleError):
    def __init__(self, estimate):
        super().__init__(f"window would contain about {estimate} points")
        self.estimate = estimate


class SupportEscapesWindow(OracleError):
    pass


_PRESETS = ("SL2", "PGL2", "GL2")

_WINDOW_CAP = 10**6


# ---------------------------------------------------------------------------
# truncated Laurent series over F_q: sparse maps exponent -> nonzero element


def _s_val(s):
    return min(s) if s else None


def _s_add(F, s1, s2):
    out = dict(s1)
    for e, c in s2.items():
        v = F.add(out.get(e, 0), c)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _s_mul(F, s1, s2, cut):
    out = {}
    for e1, c1 in s1.items():
        for e2, c2 in s2.items():
            e = e1 + e2
            if e >= cut:
                continue
            v = F.add(out.get(e, 0), F.mul(c1, c2))
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _s_scale(F, s, c):
    if c == 0:
        return {}
    return {e: F.mul(a, c) for e, a in s.items()}


def _s_shift(s, k):
    return {e + k: c for e, c in s.items()}


def _s_trunc(s, cut):
    return {e: c for e, c in s.items() if e < cut}


def _s_inv(F, s, cut):
    """Inverse of a series with nonzero lowest term, to exponents < cut."""
    v = _s_val(s)
    if v is None:
        raise ZeroDivisionError("inverting the zero series")
    u = _s_shift(s, -v)  # unit, constant term nonzero
    c0 = F.inv(u[0])
    n = max(cut + abs(v) + 1, 1)
    inv = {0: c0}
    for k in range(1, n):
        acc = 0
        for j, uc in u.items():
            if 1 <= j <= k:
                acc = F.add(acc, F.mul(uc, inv.get(k - j, 0)))
        val = F.neg(F.mul(c0, acc))
        if val:
            inv[k] = val
    return _s_shift(inv, -v)


def _m_mul(F, m1, m2, cut):
    return tuple(
        tuple(
            _s_add(
                F,
                _s_mul(F, m1[i][0], m2[0][j], cut),
                _s_mul(F, m1[i][1], m2[1][j], cut),
            )
            for j in range(2)
        )
        for i in range(2)
    )


def _m_scalar(F, diag0, diag1):
    return (({0: diag0} if diag0 else {}, {}), ({}, {0: diag1} if diag1 else {}))


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class GrPoint:
    """Lattice in canonical column Hermite form [[t^a, b], [0, t^c]].

    b is a Laurent polynomial with exponents < a, stored as a sorted tuple
    of (exponent, coefficient) pairs. For PGL2 the form is normalized by
    global t-scaling so that c = 0.
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
        m1, m2 = self.gl_type()
        if self.preset == "SL2":
            return (m1,)
        if self.preset == "PGL2":
            return (m1 - m2,)
        return (m1, m2)

    def is_torus_point(self):
        return not self.b

    def torus_coweight(self):
        """Coweight of a diagonal basepoint, not dominant in general."""
        if self.b:
            raise OracleError("not a torus point")
        if self.preset == "SL2":
            return (self.a,)
        if self.preset == "PGL2":
            return (self.a - self.c,)
        return (self.a, self.c)

    def to_json(self):
        return {
            "preset": self.preset,
            "q": self.q,
            "a": self.a,
            "c": self.c,
            "b": [[e, c] for e, c in self.b],
            "type": list(self.coweight()),
        }


def _hnf_point(preset, q, mat, cut):
    """Canonical form of the lattice spanned by the columns of mat."""
    F = gf(q)
    (m00, m01), (m10, m11) = (dict(mat[0][0]), dict(mat[0][1])), (
        dict(mat[1][0]),
        dict(mat[1][1]),
    )
    v0, v1 = _s_val(m10), _s_val(m11)
    if v1 is None or (v0 is not None and v0 < v1):
        m00, m01 = m01, m00
        m10, m11 = m11, m10
        v1 = v0
    if not m11:
        raise OracleError("singular lattice basis")
    c = _s_val(m11)
    # scale the pivot column so its bottom entry is exactly t^c
    inv = _s_inv(F, m11, cut)
    m01 = _s_trunc(_s_mul(F, m01, _s_mul(F, inv, {c: 1}, cut), cut), cut)
    m11 = {c: 1}
    if m10:
        # val(m10) >= c by the pivot choice, so this is an O-column operation
        factor = _s_shift(m10, -c)
        m00 = _s_add(F, m00, _s_scale(F, _s_mul(F, factor, m01, cut), F.neg(1)))
        m10 = {}
    if not m00:
        raise OracleError("singular lattice basis")
    a = _s_val(m00)
    m00 = {a: 1}
    # reduce the off-diagonal entry modulo t^a
    b = {e: co for e, co in m01.items() if e < a}
    if preset == "PGL2":
        a, b, c = a - c, _s_shift(b, -c), 0
    return GrPoint(preset, q, a, c, tuple(sorted(b.items())))


def _triangular_point(point: GrPoint, mat, cut, left):
    """Closed-form Hermite form of g L (left) or L g, or None.

    Applies when g = [[d0 t^e0, g01], [0, d1 t^e1]] with d0, d1 nonzero.
    With L = [[t^a, b], [0, t^c]] the product is already triangular with
    diagonal d0 t^(a+e0), d1 t^(c+e1), so its Hermite form only rescales
    the second column by 1/d1 and reduces its top entry modulo t^(a+e0).
    The top entry is d0 t^e0 b + t^c g01 for g L and t^a g01 + d1 t^e1 b
    for L g. Every kept exponent is below a + e0 < cut, so dropping the
    terms at or above cut, as _s_mul does, changes nothing.

    Returns None, leaving the work to _hnf_point, for any other g and when
    a diagonal exponent reaches cut (the general path then raises) or
    cut <= 0 (it then also drops the 1/d1 scaling).
    """
    (g00, g01), (g10, g11) = mat
    if g10 or len(g00) != 1 or len(g11) != 1:
        return None
    ((e0, d0),) = g00.items()
    ((e1, d1),) = g11.items()
    a, c = point.a + e0, point.c + e1
    if not (d0 and d1) or max(a, c, 0) >= cut:
        return None
    F = gf(point.q)
    u = 1 if d1 == 1 else F.inv(d1)
    if left:
        parts = ((e0, d0 if u == 1 else F.mul(d0, u), point.b),
                 (point.c, u, g01.items()))
    else:
        parts = ((e1, 1, point.b), (point.a, u, g01.items()))
    b = {}
    for shift, scale, terms in parts:
        for e, co in terms:
            e += shift
            if e >= a:
                continue
            if scale != 1:
                co = F.mul(co, scale)
            if e in b:
                co = F.add(b[e], co)
            if co:
                b[e] = co
            else:
                b.pop(e, None)
    if point.preset == "PGL2":
        a, b, c = a - c, {e - c: co for e, co in b.items()}, 0
    return GrPoint(point.preset, point.q, a, c, tuple(sorted(b.items())))


def act(point: GrPoint, mat, cut):
    """Left translate of a point by a group element."""
    out = _triangular_point(point, mat, cut, left=True)
    if out is not None:
        return out
    F = gf(point.q)
    return _hnf_point(point.preset, point.q, _m_mul(F, mat, point.matrix(), cut), cut)


def translate(point: GrPoint, mat, cut):
    """Right translate x -> x g, as in convolution by a coset sum."""
    out = _triangular_point(point, mat, cut, left=False)
    if out is not None:
        return out
    F = gf(point.q)
    return _hnf_point(point.preset, point.q, _m_mul(F, point.matrix(), mat, cut), cut)


# ---------------------------------------------------------------------------
# preset data


def _rd(preset):
    if preset not in _PRESETS:
        raise OracleError(f"unsupported preset {preset}")
    return build_root_datum(preset)


def _pair_alpha(preset, mu):
    if preset == "SL2":
        return 2 * mu[0]
    if preset == "PGL2":
        return mu[0]
    return mu[0] - mu[1]


def depth_for(preset, bound):
    """t-adic depth sufficient for a window: 2 * <alpha, bound + rho-hat> + 2."""
    return 2 * (_pair_alpha(preset, bound) + 1) + 2


def _val_bound(preset, bound):
    """All window lattices satisfy t^V O^2 <= L <= t^-V O^2."""
    if preset == "GL2":
        return max(abs(bound[0]), abs(bound[1]))
    return abs(bound[0])


def torus_point(preset, q, lam):
    if preset == "SL2":
        a, c = lam[0], -lam[0]
    elif preset == "PGL2":
        a, c = lam[0], 0
    else:
        a, c = lam
    return GrPoint(preset, q, a, c, ())


def torus_matrix(preset, lam):
    if preset == "SL2":
        return (({lam[0]: 1}, {}), ({}, {-lam[0]: 1}))
    if preset == "PGL2":
        return (({lam[0]: 1}, {}), ({}, {0: 1}))
    return (({lam[0]: 1}, {}), ({}, {lam[1]: 1}))


def x_plus(q, a, n):
    """Upper root subgroup element x_alpha(a t^n)."""
    return (({0: 1}, {n: a} if a else {}), ({}, {0: 1}))


def x_minus(q, a, n):
    return (({0: 1}, {}), ({n: a} if a else {}, {0: 1}))


def d_torus(preset, q, c):
    """Lift of rho-hat(c): the Gm of the exponential group."""
    return _m_scalar(gf(q), c, 1)


# ---------------------------------------------------------------------------
# window enumeration


def _window_shapes(preset, bound):
    """Yield (a, c, low) with off-diagonal exponents ranging over [low, a)."""
    if preset == "SL2":
        m = bound[0]
        for a in range(-m, m + 1):
            yield a, -a, -m
    elif preset == "PGL2":
        m = bound[0]
        for a in range(-m, m + 1):
            if (a - m) % 2 == 0:
                yield a, 0, (a - m) // 2
    else:
        b1, b2 = bound
        for a in range(b2, b1 + 1):
            yield a, b1 + b2 - a, b2


def window_size(preset, bound, q):
    total = 0
    for a, _c, low in _window_shapes(preset, bound):
        total += q ** max(a - low, 0)
    return total


def enumerate_gr_window(preset, bound, q, depth=None):
    """All F_q-points of Gr with elementary type <= bound (dominance order)."""
    rd = _rd(preset)
    bound = tuple(bound)
    if not rd.is_dominant(bound):
        raise OracleError("bound must be dominant")
    estimate = window_size(preset, bound, q)
    if estimate > _WINDOW_CAP:
        raise WindowTooLarge(estimate)
    F = gf(q)
    points = []
    for a, c, low in _window_shapes(preset, bound):
        exps = list(range(low, a))
        for coeffs in itertools.product(F.elements(), repeat=len(exps)):
            b = tuple((e, co) for e, co in zip(exps, coeffs) if co)
            points.append(GrPoint(preset, q, a, c, b))
    points.sort(key=lambda p: (p.a, p.c, p.b))
    return points


def coset_reps(preset, mu, q, depth=None):
    """Matrices of the lattices in relative position exactly mu: K mu K / K."""
    rd = _rd(preset)
    mu = tuple(mu)
    if not rd.is_dominant(mu):
        raise OracleError("mu must be dominant")
    return [p.matrix() for p in enumerate_gr_window(preset, mu, q) if p.coweight() == mu]


# ---------------------------------------------------------------------------
# twisted unipotent generators


def twisted_generators(preset, group_spec, q, level_hi):
    """Generators (matrix, psi-exponent, name) of the rho-hat-twisted groups.

    Conjugation by rho-hat(1/t) shifts the level of a root subgroup by the
    root height, so the positive simple root appears from level -1 and the
    negative one from level 2. The psi-exponent is the additive character
    of the baby Whittaker datum: nontrivial exactly on the level -1 simple
    root subgroup.
    """
    if group_spec not in (
        "Iwahori_twisted",
        "U_twisted",
        "U_exp_twisted",
        "U_rtimes_Gm_twisted",
    ):
        raise OracleError(f"unknown group spec {group_spec}")
    F = gf(q)
    gens = []
    # additive generators suffice for the filtered unipotent families
    add_gens = (1,) if F.k == 1 else (1, F.p)
    lo_plus = 0 if group_spec == "U_exp_twisted" else -1
    for n in range(lo_plus, level_hi + 1):
        for a in add_gens:
            gens.append((x_plus(q, a, n), F.trace(a) if n == -1 else 0, f"x+{n}"))
    for n in range(2, level_hi + 1):
        for a in add_gens:
            gens.append((x_minus(q, a, n), 0, f"x-{n}"))
    for j in range(1, level_hi + 1):
        for cc in add_gens:
            u = {0: 1, j: cc}
            if preset == "SL2":
                mat = ((u, {}), ({}, _s_trunc(_s_inv(F, u, level_hi + 2), level_hi + 2)))
                gens.append((mat, 0, f"t>{j}"))
            else:
                gens.append((((u, {}), ({}, {0: 1})), 0, f"t>{j}a"))
                gens.append(((({0: 1}, {}), ({}, u)), 0, f"t>{j}b"))
    if group_spec in ("U_exp_twisted", "U_rtimes_Gm_twisted", "Iwahori_twisted"):
        # U_twisted is the bare twisted pro-unipotent radical: no Gm factor,
        # so the level -1 character survives as a character of the group
        for cc in F.units():
            if cc != 1:
                gens.append((d_torus(preset, q, cc), 0, "gm"))
    if group_spec == "Iwahori_twisted":
        for cc in F.units():
            if cc != 1:
                gens.append((_m_scalar(F, 1, cc), 0, "torus"))
    return gens


# ---------------------------------------------------------------------------
# orbits

_partition_cache = {}
_PARTITION_CACHE_SIZE = 4


def _orbit_bfs(seeds, gens, cut, p, window=None):
    """Orbit of the seeds, with the baby character transported along it.

    Returns (labels, partial, consistent). labels maps each point reached
    to the psi-exponent mod p of a group element moving a seed there (the
    seeds read 0); consistent is False when two paths disagree, i.e. the
    character is not trivial on the stabilizer. Inside a window, partial
    records an image outside it: such a boundary orbit is truncated and
    must carry no function values downstream. A free search raises
    WindowTooLarge past _WINDOW_CAP points.
    """
    labels = dict.fromkeys(seeds, 0)
    frontier = list(labels)
    partial, consistent = False, True
    while frontier:
        nxt = []
        for x in frontier:
            ex = labels[x]
            for mat, e, _name in gens:
                im = act(x, mat, cut)
                val = (e + ex) % p
                old = labels.get(im)
                if old is not None:
                    consistent = consistent and old == val
                elif window is not None and im not in window:
                    partial = True
                else:
                    labels[im] = val
                    nxt.append(im)
                    if window is None and len(labels) > _WINDOW_CAP:
                        raise WindowTooLarge(len(labels))
        frontier = nxt
    return labels, partial, consistent


def orbit_partition(points, group_spec, q, depth=None):
    """Partition a window into orbits of the given twisted group.

    Returns (assignment, orbits): assignment maps each point to an orbit
    index, orbits is a list of dicts with keys ``label`` (coweight of the
    torus basepoint of the ambient U-rtimes-Gm orbit), ``tag`` (``single``
    for an unsplit orbit, ``closed``/``open`` for the two exponential
    pieces of a split one), ``points``, ``partial`` (the orbit leaves the
    window), and ``labels``/``consistent``, the character transport of
    _orbit_bfs from the orbit's first point. The last few partitions are
    cached.
    """
    if not points:
        return {}, []
    preset, q0 = points[0].preset, points[0].q
    if q != q0:
        raise OracleError("q mismatch")
    key = (preset, q, group_spec, depth, frozenset(points))
    cached = _partition_cache.pop(key, None)
    if cached is not None:
        _partition_cache[key] = cached
        return cached
    bound = _window_bound(points)
    cut = depth if depth is not None else depth_for(preset, bound)
    level_hi = 2 * _val_bound(preset, bound) + 2
    gens = twisted_generators(preset, group_spec, q, level_hi)
    index = set(points)
    assignment = {}
    orbits = []
    # seed from torus points so every orbit gets a well-defined label
    seeds = [p for p in points if p.is_torus_point()] + list(points)
    for seed in seeds:
        if seed in assignment:
            continue
        labels, partial, consistent = _orbit_bfs([seed], gens, cut, gf(q).p, index)
        orbit = frozenset(labels)
        torus = sorted(p.torus_coweight() for p in orbit if p.is_torus_point())
        idx = len(orbits)
        for p in orbit:
            assignment[p] = idx
        orbits.append(
            {
                "label": torus[0] if torus else None,
                "tag": "single",
                "points": orbit,
                "partial": partial,
                "labels": labels,
                "consistent": consistent,
            }
        )
    if group_spec == "U_exp_twisted":
        _tag_exponential(preset, q, orbits, assignment, cut)
    _partition_cache[key] = (assignment, orbits)
    if len(_partition_cache) > _PARTITION_CACHE_SIZE:
        del _partition_cache[next(iter(_partition_cache))]
    return assignment, orbits


def orbit_closure(preset, q, seeds, group_spec, bound, depth=None):
    """Union of the full twisted orbits of the seeds, by free closure.

    Unlike orbit_partition this does not need an ambient enumeration: the
    orbit of any point of type <= bound - 2 rho-hat stays inside type <=
    bound, so the BFS terminates. The bound only sizes the generator
    levels and the t-adic depth; it is not enforced pointwise.
    """
    bound = tuple(bound)
    cut = depth if depth is not None else depth_for(preset, bound)
    level_hi = 2 * _val_bound(preset, bound) + 2
    gens = twisted_generators(preset, group_spec, q, level_hi)
    labels, _partial, _consistent = _orbit_bfs(seeds, gens, cut, gf(q).p)
    return sorted(labels, key=lambda p: (p.a, p.c, p.b))


def _window_bound(points):
    preset = points[0].preset
    if preset == "GL2":
        hi = max(p.gl_type()[0] for p in points)
        lo = min(p.gl_type()[1] for p in points)
        return (hi, lo)
    return (max(p.coweight()[0] for p in points),)


def _tag_exponential(preset, q, orbits, assignment, cut):
    """Tag exponential suborbits of split twisted-Iwahori orbits."""
    rd = _rd(preset)
    by_label = {}
    for i, o in enumerate(orbits):
        if o["label"] is not None:
            by_label.setdefault(tuple(o["label"]), []).append(i)
    for lam, idxs in by_label.items():
        if not rd.is_dominant(lam):
            continue
        open_pt = act(torus_point(preset, q, lam), x_plus(q, 1, -1), cut)
        open_idx = assignment.get(open_pt)
        if open_idx is None or open_idx in idxs:
            continue
        if orbits[idxs[0]]["partial"] or orbits[open_idx]["partial"]:
            continue
        orbits[idxs[0]]["tag"] = "closed"
        orbits[open_idx]["tag"] = "open"
        orbits[open_idx]["label"] = lam


# ---------------------------------------------------------------------------
# functions and Hecke operators


@dataclass
class FqFunction:
    """Finitely supported function on window points."""

    preset: str
    q: int
    window: tuple
    values: dict

    def value(self, point):
        return self.values.get(point, 0)


def hecke_operator(f: FqFunction, mu, domain_points, depth=None):
    """Right convolution with the K-double-coset indicator of mu.

    (f * 1_mu)(x) = sum over g in K mu K / K of f(x g), evaluated on the
    given domain. Raises SupportEscapesWindow if the result is nonzero at
    a point whose type is not below the window bound of f.
    """
    preset, q = f.preset, f.q
    bound = _hecke_window(preset, f.window, mu)
    cut = depth if depth is not None else depth_for(preset, bound)
    reps = coset_reps(preset, mu, q, cut)
    out = {}
    rd = _rd(preset)
    from .strata import dominance_leq

    for x in domain_points:
        acc = 0
        for g in reps:
            y = translate(x, g, cut)
            v = f.values.get(y)
            if v is not None:
                acc = acc + v if acc != 0 else v
        if acc != 0 and not _is_cyc_zero(acc):
            if not dominance_leq(rd, x.coweight(), f.window):
                raise SupportEscapesWindow(
                    f"nonzero value at type {x.coweight()} outside {f.window}"
                )
            out[x] = acc
    return FqFunction(preset, q, f.window, out)


def _hecke_window(preset, window, mu):
    if preset == "GL2":
        return (window[0] + max(mu), window[1] + min(mu))
    return (window[0] + mu[0],)


def _is_cyc_zero(v):
    return v.is_zero() if isinstance(v, CycNum) else v == 0


# ---------------------------------------------------------------------------
# Whittaker model via the Iwasawa decomposition


def iwasawa_data(point: GrPoint):
    """Semi-infinite label and character coefficient of a point.

    Writing the point as u t^lam K with u = x_alpha(a(t)) in U(F), the
    label lam is read off the Hermite form and the returned field element
    is the t^(-1) coefficient of a(t). That coefficient is well defined
    modulo the stabilizer exactly when lam is dominant.
    """
    a, c = point.a, point.c
    b = dict(point.b)
    if point.preset == "SL2":
        lam = (a,)
    elif point.preset == "PGL2":
        lam = (a - c,)
    else:
        lam = (a, c)
    return lam, b.get(c - 1, 0)


def dominant_window(rd, bound):
    """Dominant lam with bound - lam a nonnegative rational span of coroots.

    Unlike the integral dominance order this does not restrict to one
    coset of the coroot lattice, so it indexes every Whittaker line whose
    torus point can appear under convolution up to the bound.
    """
    import math

    prims = []
    for cv in rd.simple_coroots:
        g = math.gcd(*[abs(x) for x in cv]) or 1
        prims.append(tuple(x // g for x in cv))
    cap = rd.pair(rd.two_rho, tuple(bound)) + 1
    out = []
    for coeffs in itertools.product(range(cap + 1), repeat=rd.rank):
        lam = list(bound)
        for j, c in enumerate(coeffs):
            for i in range(rd.char_lattice_rank):
                lam[i] -= c * prims[j][i]
        lam = tuple(lam)
        if rd.is_dominant(lam):
            out.append(lam)
    return out


def whittaker_space(preset, bound, q, domain_points):
    """Basis of (U(F), Psi)-equivariant functions with dominant labels <= bound.

    One function per dominant lam in the window, supported on the
    semi-infinite orbit of t^lam, with value psi(a_-1) at u t^lam.
    """
    rd = _rd(preset)
    basis = {}
    for lam in dominant_window(rd, tuple(bound)):
        vals = {}
        for p in domain_points:
            label, elem = iwasawa_data(p)
            if label == lam:
                vals[p] = psi_value(elem, q)
        basis[lam] = FqFunction(preset, q, tuple(bound), vals)
    return basis


def whittaker_action(preset, bound, mu, q, depth=None):
    """Matrix of right convolution by 1_mu on the Whittaker basis.

    Returns {(lam, nu): CycNum}: the coefficient of the basis function at
    nu in (W_lam * 1_mu), computed as sum over g in K mu K / K of
    W_lam(t^nu g). No window enumeration is needed: values of W_lam at
    arbitrary points come from the Iwasawa decomposition.
    """
    rd = _rd(preset)
    mu = tuple(mu)
    out_bound = _hecke_window(preset, tuple(bound), mu)
    cut = depth if depth is not None else depth_for(preset, out_bound)
    reps = coset_reps(preset, mu, q, cut)
    sources = dominant_window(rd, tuple(bound))
    targets = dominant_window(rd, out_bound)
    matrix = {}
    for nu in targets:
        base = torus_point(preset, q, nu)
        for g in reps:
            y = translate(base, g, cut)
            lab, elem = iwasawa_data(y)
            if lab in sources and rd.is_dominant(lab):
                key = (lab, nu)
                val = psi_value(elem, q)
                matrix[key] = matrix.get(key, CycNum.integer(0, val.p, q)) + val
    return {k: v for k, v in matrix.items() if not v.is_zero()}


def cyc_as_int(v):
    """Integer value of a cyclotomic number; raises if not a rational integer."""
    if isinstance(v, int):
        return v
    if v.den_exp != 0 or any(c for c in v.poly[1:]):
        raise OracleError(f"not a rational integer: {v}")
    return v.poly[0]


# ---------------------------------------------------------------------------
# character labelings and the averaging maps


def character_labeling(orbit_points, preset, q, group_spec, level_hi, seed, cut):
    """Transport the baby character along an orbit.

    Returns (labels, consistent): labels maps each orbit point to the
    zeta-exponent of the character of any group element moving the seed
    there. Inconsistency means the stabilizer is not inside the kernel,
    so no equivariant function lives on this orbit. orbit_partition keeps
    the same transport for each of its orbits.
    """
    gens = twisted_generators(preset, group_spec, q, level_hi)
    labels, _partial, consistent = _orbit_bfs([seed], gens, cut, gf(q).p, orbit_points)
    return labels, consistent


def baby_basis(preset, bound, q, points, depth=None):
    """Psi-equivariant basis functions of the twisted-Iwahori model.

    One function per dominant lam <= bound: supported on the twisted orbit
    of t^lam with value zeta^e at the point reached by a group element of
    character exponent e. Non-dominant labels admit no such function.
    """
    rd = _rd(preset)
    window_bound = _window_bound(points)
    cut = depth if depth is not None else depth_for(preset, window_bound)
    assignment, orbits = orbit_partition(points, "U_twisted", q, cut)
    F = gf(q)
    basis = {}
    for lam in dominant_window(rd, tuple(bound)):
        seed = torus_point(preset, q, lam)
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
        basis[lam] = FqFunction(preset, q, tuple(bound), vals)
    return basis


def baby_averaging(f: FqFunction, points, depth=None):
    """Average a Whittaker function to the baby (twisted-Iwahori) model.

    av(f)(g) = |U|^-1 sum over u of Psi^-1(u) f(ug), realized per orbit:
    with character transport c and orbit size q^l, this is
    q^-l zeta^c(g) S with S = sum over y in the orbit of zeta^-c(y) f(y),
    and zero on orbits whose stabilizer is not in the kernel of the
    character.
    """
    preset, q = f.preset, f.q
    F = gf(q)
    window_bound = _window_bound(points)
    cut = depth if depth is not None else depth_for(preset, window_bound)
    assignment, orbits = orbit_partition(points, "U_twisted", q, cut)
    out = {}
    for orbit in orbits:
        pts = orbit["points"]
        if orbit["partial"]:
            if any(not _is_cyc_zero(f.values.get(p, 0)) for p in pts):
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
        for g, c in labels.items():
            out[g] = (CycNum.zeta_power(c, F.p, q) * total).div_by_q_power(ell)
    return FqFunction(preset, q, f.window, out)


def gm_averaging(f: FqFunction, points, depth=None):
    """Gm-average a baby-model function and take its exponential class.

    gamma(f)(x) = sum over c in F_q^* of f(D(c) x). The result is
    invariant under the twisted exponential group; the returned class is
    its expansion in closed-orbit indicators modulo functions invariant
    under the full twisted group (open = -closed, unsplit orbits die).
    """
    preset, q = f.preset, f.q
    F = gf(q)
    window_bound = _window_bound(points)
    cut = depth if depth is not None else depth_for(preset, window_bound)
    vals = {}
    for x in points:
        acc = CycNum.integer(0, F.p, q)
        for cc in F.units():
            v = f.values.get(act(x, d_torus(preset, q, cc), cut))
            if v is not None:
                acc = acc + v
        if not acc.is_zero():
            vals[x] = acc
    g = FqFunction(preset, q, f.window, vals)
    return g, exponential_class(g, points, cut)


def exponential_class(f: FqFunction, points, depth=None):
    """Class of an exponential-invariant function in the quotient model.

    Checks constancy on the twisted exponential orbits and returns
    {lam: closed coefficient - open coefficient} over split orbits.
    """
    preset, q = f.preset, f.q
    window_bound = _window_bound(points)
    cut = depth if depth is not None else depth_for(preset, window_bound)
    _assignment, orbits = orbit_partition(points, "U_exp_twisted", q, cut)
    coeff = {}
    for orbit in orbits:
        vals = {f.values.get(p, 0) for p in orbit["points"]}
        norm = {0 if _is_cyc_zero(v) else v for v in vals}
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
    return {k: v for k, v in coeff.items() if not _is_cyc_zero(v)}


def exp_action_matrix(preset, bound, mu, q, points, depth=None):
    """Action of 1_mu on closed-orbit indicator classes, by point counting.

    Returns {(lam, nu): int}: the coefficient of the class at nu in
    (closed-orbit indicator of lam) * 1_mu.
    """
    rd = _rd(preset)
    window_bound = _window_bound(points)
    cut = depth if depth is not None else depth_for(preset, window_bound)
    _assignment, orbits = orbit_partition(points, "U_exp_twisted", q, cut)
    closed_labels = {
        tuple(o["label"]) for o in orbits if o["tag"] == "closed"
    }
    out = {}
    for lam in dominant_window(rd, tuple(bound)):
        # every dominant target in the result window must be properly split,
        # otherwise the ambient enumeration is too small and coefficients
        # would be dropped silently
        for nu in dominant_window(rd, _hecke_window(preset, tuple(lam), tuple(mu))):
            if tuple(nu) not in closed_labels:
                raise OracleError(f"window too small for the closed orbit of {nu}")
        matches = [
            o for o in orbits if o["tag"] == "closed" and tuple(o["label"]) == tuple(lam)
        ]
        if not matches:
            raise OracleError(f"window too small for the closed orbit of {lam}")
        closed = matches[0]
        f = FqFunction(preset, q, _hecke_window(preset, tuple(lam), tuple(mu)),
                       {p: 1 for p in closed["points"]})
        h = hecke_operator(f, tuple(mu), points, cut)
        for nu, v in exponential_class(h, points, cut).items():
            out[(tuple(lam), nu)] = v
    return out


# ---------------------------------------------------------------------------
# interpolation back to Z[q]


def interpolate_structure_constants(preset, lam, mu, q_list, bound=None, degree_bound=None):
    """Fit the oracle counts of the spherical action to polynomials in q.

    For each q the Whittaker-model action coefficients of (W_lam * 1_mu)
    are exact integers; this interpolates them across q_list and returns
    {nu: QPoly}. The polynomial degree is capped by len(q_list) - 1.
    """
    lam, mu = tuple(lam), tuple(mu)
    if degree_bound is None:
        degree_bound = len(q_list) - 1
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
        out[nu] = qpoly_interpolate(sorted(filled.items()), degree_bound)
    return {nu: poly for nu, poly in out.items() if not poly.is_zero()}
