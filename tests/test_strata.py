"""Orbit shapes, cell classes, and Iwahori decompositions of spherical cells."""

import itertools

import pytest

from expflag.root_datum import build_root_datum
from expflag.affine_weyl import AffineWeyl, AffineWeylElement, ExpLabel
from expflag.coefficients import QPoly
from expflag.strata import (
    CellShape,
    StrataError,
    double_coset_elements,
    gr_cell_class,
    iwahori_orbits_in_spherical,
    orbit_shape,
)


@pytest.fixture(scope="module", params=["SL2", "PGL2", "SL3", "Sp4"])
def W(request):
    return AffineWeyl(build_root_datum(request.param))


def test_cell_shape_classes():
    assert CellShape(2, 0, 0).class_in_q() == QPoly({2: 1})
    assert CellShape(1, 1, 0).class_in_q() == QPoly({2: 1, 1: -1})
    assert CellShape(0, 0, 1).class_in_q() == QPoly({1: 1, 0: -2})
    with pytest.raises(StrataError):
        CellShape(-1, 0, 0)


def test_orbit_shapes_partition_each_coset(W):
    # over any right-minimal w the labels tile q^{l(w)} points: either one
    # open cell, or a zero stratum plus the coset strata of the same w
    f0 = W.facet_f0()
    for w in W.enumerate_elements(4):
        if not W.is_right_minimal(w, f0):
            continue
        total = QPoly({})
        labels = [ExpLabel("coset", w)]
        if W.is_left_w0_maximal(w):
            labels.append(ExpLabel("zero", w))
        for lab in labels:
            total = total + orbit_shape(W, lab, f0).class_in_q()
        if W.is_left_w0_maximal(w):
            coset = orbit_shape(W, ExpLabel("coset", w), f0)
            zero = orbit_shape(W, ExpLabel("zero", w), f0)
            assert coset == CellShape(W.length(w) - 1, 0, 0)
            assert zero == CellShape(W.length(w) - 1, 1, 0)
        else:
            assert orbit_shape(W, ExpLabel("coset", w), f0) == CellShape(
                W.length(w), 0, 0
            )


def test_orbit_shape_rejects_bad_labels(W):
    f0 = W.facet_f0()
    s0 = W.simples[0]
    if not W.is_left_w0_maximal(s0) or W.rd.rank > 1:
        non_max = next(
            w
            for w in W.enumerate_elements(3)
            if W.is_right_minimal(w, f0) and not W.is_left_w0_maximal(w)
        )
        with pytest.raises(StrataError):
            orbit_shape(W, ExpLabel("zero", non_max), f0)
    non_min = AffineWeylElement(W.identity.lam, W.rd.longest_element())
    if not W.is_right_minimal(non_min, f0):
        with pytest.raises(StrataError):
            orbit_shape(W, ExpLabel("coset", non_min), f0)


def test_double_coset_sizes(W):
    rd = W.rd
    order = len(list(rd.weyl_elements()))
    zero = tuple(0 for _ in range(rd.char_lattice_rank))
    assert len(double_coset_elements(W, zero)) == order
    # regular dominant mu gives the full product of two copies of W0
    mu = rd.dominant_below((3,) * rd.char_lattice_rank)[-1]
    if all(rd.pair(a, mu) > 0 for a in rd.simple_roots):
        assert len(double_coset_elements(W, mu)) == order * order


def test_gr_cell_class_matches_orbit_count(W):
    rd = W.rd
    for mu in rd.dominant_below((1,) * rd.rank):
        cls = gr_cell_class(W, mu)
        orbits = iwahori_orbits_in_spherical(W, mu)
        assert sum(cls.coeffs.values()) == len(orbits)
        assert cls.specialize(1) == len(orbits)
        # top cell has the dimension of Gr^mu
        assert cls.degree() == rd.pair(rd.two_rho, mu)


def test_gr_cell_class_sl2_values():
    W2 = AffineWeyl(build_root_datum("SL2"))
    assert gr_cell_class(W2, (0,)) == QPoly({0: 1})
    assert gr_cell_class(W2, (1,)) == QPoly({2: 1, 1: 1})
    # the open orbit only, not its closure
    assert gr_cell_class(W2, (2,)) == QPoly({4: 1, 3: 1})


def test_dominance_order(W):
    rd = W.rd
    top = (2,) * rd.char_lattice_rank
    below = rd.dominant_below(top)
    for mu in below:
        assert rd.dominance_leq(mu, top)
        assert rd.dominance_leq(mu, mu)
    assert not rd.dominance_leq(top, below[0]) or top == below[0]


def test_dominant_coweights_below_rank_one():
    # SL2 coweights sit in the coroot lattice with the coroot at 1, so every
    # step down is allowed; PGL2 has the coroot at 2 and keeps parity
    rd = build_root_datum("SL2")
    assert rd.dominant_below((3,)) == [(0,), (1,), (2,), (3,)]
    rdp = build_root_datum("PGL2")
    assert rdp.dominant_below((4,)) == [(0,), (2,), (4,)]
    assert rdp.dominant_below((3,)) == [(1,), (3,)]


ALL_PRESETS = ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2"]


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_double_coset_enumeration_matches_the_product_definition(preset):
    # reference: every product t_(v mu) u over v, u in W0, deduplicated
    W = AffineWeyl(build_root_datum(preset))
    rd = W.rd
    f0 = W.facet_f0()
    box = itertools.product(range(-2, 3), repeat=rd.char_lattice_rank)
    dominant = [mu for mu in box if rd.is_dominant(mu)]
    assert dominant
    for mu in dominant:
        ref = {
            W.mul(W.translation(rd.apply_coweight(v, mu)), AffineWeylElement(W.identity.lam, u))
            for v in rd.weyl_elements()
            for u in rd.weyl_elements()
        }
        assert double_coset_elements(W, mu) == sorted(ref, key=W.sort_key), mu
        minimal = {W.right_minimal(y, f0) for y in ref}
        assert iwahori_orbits_in_spherical(W, mu) == sorted(
            minimal, key=W.sort_key), mu
