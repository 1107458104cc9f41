"""Iwahori decompositions of spherical cells, and shapes of exponential orbits.

``double_coset_elements`` lists W0 t_mu W0 and ``iwahori_orbits_in_spherical``
its right-W0-minimal elements, one per Iwahori orbit in Gr^mu;
spherical.spherical_sum walks their inverses.

Every orbit in sight is a product of copies of A1, Gm, and Gm minus a point;
CellShape records the multiplicities and hands back the class in Z[q] via the
dictionary A1 -> q, Gm -> q - 1, Gm minus a point -> q - 2. ``orbit_shape``
and ``gr_cell_class`` are references that the tests check the engine
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine_weyl import AffineWeyl, AffineWeylElement, ExpLabel
from .coefficients import QPoly


class StrataError(ValueError):
    pass


@dataclass(frozen=True)
class CellShape:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise StrataError("negative shape exponent")

    def class_in_q(self) -> QPoly:
        q = QPoly({1: 1})
        qm1 = QPoly({1: 1, 0: -1})
        qm2 = QPoly({1: 1, 0: -2})
        out = QPoly({0: 1})
        for _ in range(self.a):
            out = out * q
        for _ in range(self.b):
            out = out * qm1
        for _ in range(self.c):
            out = out * qm2
        return out


def orbit_shape(W: AffineWeyl, label: ExpLabel, f) -> CellShape:
    """Shape of the orbit of a label on the partial flag variety of f."""
    w = label.elt
    if not W.is_right_minimal(w, f):
        raise StrataError("label element is not minimal in its right coset")
    l = W.length(w)
    maximal = W.is_left_w0_maximal(w)
    if label.tag == "zero":
        if not maximal:
            raise StrataError("zero tag on a non-maximal element")
        return CellShape(l - 1, 1, 0)
    if maximal:
        return CellShape(l - 1, 0, 0)
    return CellShape(l, 0, 0)


def iwahori_orbits_in_spherical(W: AffineWeyl, mu):
    """Right-W0-minimal representatives of the Iwahori orbits inside Gr^mu.

    One per coset t_kappa W0 of W0 t_mu W0, kappa in the W0-orbit of mu:
    the right_minimal of t_kappa, sorted by W.sort_key as
    double_coset_elements sorts.
    """
    if not W.rd.is_dominant(mu):
        raise StrataError("mu must be dominant")
    f0 = W.facet_f0()
    orbit = {v.apply_coweight(mu) for v in W.rd.weyl_elements()}
    return sorted((W.right_minimal(W.translation(kappa), f0) for kappa in orbit),
                  key=W.sort_key)


def double_coset_elements(W: AffineWeyl, mu):
    """All elements of W0 t_mu W0, each exactly once, sorted by W.sort_key.

    v t_mu u = t_(v mu) (v u), so the double coset is the set of pairs
    (kappa, u) with kappa in the W0-orbit of mu and u in W0; distinct pairs
    are distinct elements.
    """
    finite = W.rd.weyl_elements()
    orbit = {v.apply_coweight(mu) for v in finite}
    out = [AffineWeylElement(kappa, u) for kappa in orbit for u in finite]
    out.sort(key=W.sort_key)
    return out


def gr_cell_class(W: AffineWeyl, mu) -> QPoly:
    """Point-count class of Gr^mu: sum of q^{l(x)} over its Iwahori orbits."""
    out = QPoly({})
    for x in iwahori_orbits_in_spherical(W, mu):
        out = out + QPoly({W.length(x): 1})
    return out
