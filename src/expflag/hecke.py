"""Generic extended affine Iwahori-Hecke algebra over Z[q], T-basis.

Relations: T_s T_w = T_{sw} when the length goes up, otherwise
(q-1) T_w + q T_{sw}; length-zero elements act by plain translation
T_tau T_w = T_{tau w}. Normalized so that specialization at a prime power q
is literal convolution of Iwahori double cosets with vol(I) = 1.

hecke_mul steps a along the reduced words of b's support through
AffineWeyl.walk_reduced_words, so a prefix shared by several words is
multiplied out once per product.
"""

from __future__ import annotations

from .affine_weyl import AffineWeyl, AffineWeylElement
from .coefficients import QPoly, QVector, Q_ONE, check_same_datum


class HeckeElement(QVector):
    """Finitely supported map from W to Z[q], in the T-basis."""

    __slots__ = ()
    letter, json_field = "T", "element"

    def _sort_key(self, w):
        return self.ctx.sort_key(w)

    def _key_json(self, w):
        return self.ctx.to_json(w)

    @staticmethod
    def from_json(W: AffineWeyl, docs):
        return HeckeElement(
            W,
            {
                W.from_json(d["element"]): QPoly.from_json(d["qpoly"])
                for d in docs
            },
        )


def t_basis(W: AffineWeyl, w: AffineWeylElement) -> HeckeElement:
    return HeckeElement(W, {w: Q_ONE})


def t_simple_mul(W: AffineWeyl, i: int, x: HeckeElement) -> HeckeElement:
    """x T_{s_i}."""
    W.check_simple(i)
    out = {}

    def acc(w, c):
        if w in out:
            out[w] = out[w] + c
        else:
            out[w] = c

    for w, c in x.support.items():
        ws = W.right_mul_simple(w, i)
        if W.is_right_descent(w, i):
            qc = c.shift()
            # (q - 1) c on w, q c on ws
            acc(w, qc - c)
            acc(ws, qc)
        else:
            acc(ws, c)
    return HeckeElement(W, out)


def omega_mul(W: AffineWeyl, tau: AffineWeylElement, x: HeckeElement) -> HeckeElement:
    """x T_tau for tau of length zero."""
    if W.length(tau) != 0:
        raise ValueError("omega factor must have length zero")
    return HeckeElement(W, {W.mul(w, tau): c for w, c in x.support.items()})


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra: the sum of c (a T_w) over c T_w in b,
    with a T_w stepped along w's reduced word once per shared prefix."""
    W = a.ctx
    check_same_datum(W, b.ctx)
    terms = W.walk_reduced_words(
        b.support,
        lambda tau: a if tau == W.identity else omega_mul(W, tau, a),
        lambda x, i: t_simple_mul(W, i, x))
    out = HeckeElement(W, {})
    for term, c in zip(terms, b.support.values()):
        out = out + term.scale(c)
    return out
