"""Generic extended affine Iwahori-Hecke algebra over Z[q], T-basis.

Relations: T_s T_w = T_{sw} when the length goes up, otherwise
(q-1) T_w + q T_{sw}; length-zero elements act by plain translation
T_tau T_w = T_{tau w}. Normalized so that specialization at a prime power q
is literal convolution of Iwahori double cosets with vol(I) = 1.

hecke_mul steps a along the reduced words of b's support through
AffineWeyl.walk_reduced_words, so a prefix shared by several words is
multiplied out once per product. Each step reads w s_i and the descent
from AffineWeyl.simple_steps, computed once per element, and works on
plain support dicts; hecke_mul builds one HeckeElement at the end.
"""

from __future__ import annotations

from .affine_weyl import AffineWeyl, AffineWeylElement
from .coefficients import QPoly, QVector, Q_ONE, check_same_datum


class HeckeElement(QVector):
    """Finitely supported map from W to Z[q], in the T-basis."""

    __slots__ = ()
    letter, json_field = "T", "element"

    def _key(self, w):
        self.ctx.rd._check_rank(w.lam)
        return w

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


def _step(W: AffineWeyl, support, i: int):
    """The support of x T_{s_i}, for x with the given support; zero
    coefficients may stay in it."""
    out = {}
    for w, c in support.items():
        ws, down = W.simple_steps(w)[i]
        if down:
            # (q - 1) c on w, q c on ws
            qc = {e + 1: a for e, a in c.coeffs.items()}
            qm1c = dict(qc)
            for e, a in c.coeffs.items():
                a = qm1c.get(e, 0) - a
                if a:
                    qm1c[e] = a
                else:
                    del qm1c[e]
            for x, d in ((w, QPoly._of(qm1c)), (ws, QPoly._of(qc))):
                out[x] = out[x] + d if x in out else d
        else:
            out[ws] = out[ws] + c if ws in out else c
    return out


def t_simple_mul(W: AffineWeyl, i: int, x: HeckeElement) -> HeckeElement:
    """x T_{s_i}."""
    W.check_simple(i)
    return x._new(_step(W, x.support, i))


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
        lambda tau: a.support if tau == W.identity else omega_mul(W, tau, a).support,
        lambda x, i: _step(W, x, i))
    out = {}
    for term, c in zip(terms, b.support.values()):
        if c != Q_ONE:
            term = {w: d * c for w, d in term.items()}
        for w, d in term.items():
            out[w] = out[w] + d if w in out else d
    return a._new(out)
