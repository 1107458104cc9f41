"""Generic spherical Hecke algebra on the basis of double-coset indicators.

1_mu is the sum of T_w over W0 t_mu W0 inside the Iwahori-Hecke algebra.
spherical_sum acts by a spherical element on a right-W0-invariant vector;
spherical_mul and the exponential module's spherical action are that one
sum, each with its own length-zero translation and simple step.
"""

from __future__ import annotations

from .affine_weyl import AffineWeyl
from .coefficients import QPoly, QVector, Q_ONE, check_same_datum
from .hecke import HeckeElement, omega_mul, t_simple_mul
from .strata import double_coset_elements, iwahori_orbits_in_spherical


class NormalizationFailure(ArithmeticError):
    pass


class SphericalElement(QVector):
    """Finitely supported map from dominant coweights to Z[q]."""

    __slots__ = ()
    letter, json_field = "1", "mu"

    def _key(self, mu):
        return _dominant_index(self.ctx.rd, mu)

    _key_json = staticmethod(list)

    def coefficient(self, mu) -> QPoly:
        return super().coefficient(tuple(mu))


def _dominant_index(rd, mu):
    """mu as a tuple; ValueError unless it is a dominant coweight of rd."""
    if len(mu) != rd.char_lattice_rank:
        raise ValueError(
            f"index {tuple(mu)} is not a coweight of {rd.name}: "
            f"expected {rd.char_lattice_rank} coordinates")
    if not rd.is_dominant(mu):
        raise ValueError(f"non-dominant index {tuple(mu)}")
    return tuple(mu)


def unit_indicator(W: AffineWeyl, mu) -> SphericalElement:
    return SphericalElement(W, {tuple(mu): Q_ONE})


def double_coset_lift(W: AffineWeyl, mu) -> HeckeElement:
    mu = _dominant_index(W.rd, mu)
    return HeckeElement(W, {w: Q_ONE for w in double_coset_elements(W, mu)})


def poincare_poly(W: AffineWeyl) -> QPoly:
    coeffs = {}
    for word in W.rd.words:
        coeffs[len(word)] = coeffs.get(len(word), 0) + 1
    return QPoly(coeffs)


def lift(a: SphericalElement) -> HeckeElement:
    W = a.ctx
    out = HeckeElement(W, {})
    for mu, c in a.support.items():
        out = out + double_coset_lift(W, mu).scale(c)
    return out


def hecke_to_spherical(W: AffineWeyl, h: HeckeElement) -> SphericalElement:
    """Express a W0-bi-invariant Hecke element in the 1-basis.

    Each element w of the support lies in the double coset W0 t_mu W0 of
    exactly one dominant mu; the coefficient on 1_mu is h's coefficient on
    any element of that double coset. Raises NormalizationFailure unless h
    is constant on every double coset it meets.
    """
    remaining = dict(h.support)
    support = {}
    while remaining:
        w = next(iter(remaining))
        mu = _dominant_of(W, w)
        coset = double_coset_elements(W, mu)
        c = h.coefficient(coset[0])
        for x in coset:
            if h.coefficient(x) != c:
                raise NormalizationFailure(
                    f"coefficient not constant on the double coset of {mu}"
                )
            remaining.pop(x, None)
        if not c.is_zero():
            support[mu] = c
    return SphericalElement(W, support)


def _dominant_of(W: AffineWeyl, w):
    """The dominant coweight mu with w in W0 t_mu W0."""
    rd = W.rd
    lam = w.lam
    for v in rd.weyl_elements():
        cand = rd.apply_coweight(v, lam)
        if rd.is_dominant(cand):
            return tuple(cand)
    raise NormalizationFailure("no dominant conjugate found")


def spherical_sum(vec, b, omega, step, what):
    """The sum of c (vec T_y) over the terms c 1_mu of b and the
    left-W0-minimal y of W0 t_mu W0, for a right-W0-invariant vec.

    vec T_x = step(vec, i) for x = s_i and omega(vec, x) for x of length
    zero. Each w of W0 t_mu W0 is x y with x in W0, y left-W0-minimal and
    l(w) = l(x) + l(y), and vec T_x = q^l(x) vec, so this is the product
    with 1_mu up to the factor P_W0(q), which is never formed. Raises
    NormalizationFailure, naming `what`, unless step(vec, s) = q vec for
    each finite simple s.

    The left-W0-minimal y are the inverses of the right-W0-minimal elements
    of W0 t_mu* W0, mu* = -w0 mu. For y = tau s_1 ... s_k, vec T_y is
    omega(vec, tau) stepped by s_1, ..., s_k, and walk_reduced_words steps
    a prefix shared by several y once.
    """
    W = vec.ctx
    q = QPoly({1: 1})
    for i in range(W.rd.rank):
        if step(vec, i) != vec.scale(q):
            raise NormalizationFailure(
                f"{what} is not right-W0-invariant under T_s{i}")
    w0 = W.rd.longest_element()
    ys, coeffs = [], []
    for mu, c in b.items():
        mu_star = tuple(-a for a in W.rd.apply_coweight(w0, mu))
        for y in iwahori_orbits_in_spherical(W, mu_star):
            ys.append(W.inverse(y))
            coeffs.append(c)
    terms = W.walk_reduced_words(
        ys, lambda tau: vec if tau == W.identity else omega(vec, tau), step)
    out = vec._new({})
    for term, c in zip(terms, coeffs):
        out = out + term.scale(c)
    return out


def spherical_mul(a: SphericalElement, b: SphericalElement) -> SphericalElement:
    """a * b in the 1-basis: spherical_sum of lift(a) over b.

    Raises NormalizationFailure if lift(a) is not right-W0-invariant.
    """
    W = a.ctx
    check_same_datum(W, b.ctx)
    return hecke_to_spherical(W, spherical_sum(
        lift(a), b.support,
        lambda x, tau: omega_mul(W, tau, x),
        lambda x, i: t_simple_mul(W, i, x),
        f"spherical_mul on {W.rd.name}: lift of {sorted(a.support)}"))
