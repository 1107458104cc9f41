"""Brute-force lattice model over F_q((t)): windows, orbits, and averaging."""

import pytest

from expflag.root_datum import build_root_datum
from expflag.affine_weyl import AffineWeyl
from expflag.coefficients import QPoly, gf
from expflag.strata import dominant_coweights_below, gr_cell_class
from expflag.fq_oracle import (
    FqFunction,
    GrPoint,
    OracleError,
    SupportEscapesWindow,
    WindowTooLarge,
    _hnf_point,
    _m_mul,
    _triangular_point,
    act,
    coset_reps,
    depth_for,
    dominant_window,
    enumerate_gr_window,
    hecke_operator,
    orbit_closure,
    orbit_partition,
    torus_matrix,
    torus_point,
    translate,
    twisted_generators,
    window_size,
    x_minus,
    x_plus,
)


def test_window_size_matches_enumeration():
    for preset in ("SL2", "PGL2"):
        for q in (2, 3):
            for b in (0, 1, 2):
                pts = enumerate_gr_window(preset, (b,), q)
                assert len(pts) == window_size(preset, (b,), q)
                assert len(set(pts)) == len(pts)


def test_sl2_window_points_count():
    # type <= 1 over F_3: 1 torus point plus the q^2 + q points of type 1
    pts = enumerate_gr_window("SL2", (1,), 3)
    assert len(pts) == 13
    assert sum(1 for p in pts if p.coweight() == (1,)) == 12


def test_window_point_counts_match_cell_classes():
    for preset in ("SL2", "PGL2"):
        rd = build_root_datum(preset)
        W = AffineWeyl(rd)
        for q in (2, 3):
            for bound in ((2,), (3,)):
                pts = enumerate_gr_window(preset, bound, q)
                for mu in dominant_window(rd, bound):
                    n = sum(1 for p in pts if p.coweight() == mu)
                    if rd.is_dominant(mu) and n:
                        assert n == gr_cell_class(W, mu).specialize(q)


def test_coset_reps_count():
    # |K t^mu K / K| = the point count of the open cell Gr^mu
    rd = build_root_datum("SL2")
    W = AffineWeyl(rd)
    for q in (2, 3, 5):
        for mu in ((1,), (2,)):
            reps = coset_reps("SL2", mu, q)
            assert len(reps) == gr_cell_class(W, mu).specialize(q)


def test_hnf_is_stable_under_unimodular_action():
    q = 3
    cut = depth_for("SL2", (2,))
    pts = enumerate_gr_window("SL2", (2,), q)
    gens = [x_plus(q, 1, 0), x_minus(q, 1, 1), torus_matrix("SL2", (0,))]
    for p in pts[:30]:
        for g in gens:
            moved = act(p, g, cut)
            assert moved in pts
            assert moved.coweight() == p.coweight()


def test_translation_changes_type_and_action_does_not():
    q = 2
    cut = depth_for("SL2", (3,))
    base = torus_point("SL2", q, (0,))
    g = torus_matrix("SL2", (1,))
    assert translate(base, g, cut).coweight() == (1,)
    assert act(base, x_plus(q, 1, 0), cut) == base


def test_torus_points_are_fixed_by_their_stabilizer():
    q = 3
    cut = depth_for("SL2", (3,))
    for lam in (-2, -1, 0, 1, 2):
        p = torus_point("SL2", q, (lam,))
        assert p.is_torus_point()
        assert p.torus_coweight() == (lam,)
        # level n root subgroup fixes t^lam iff n >= <alpha, lam> = 2 lam
        assert act(p, x_plus(q, 1, 2 * lam), cut) == p
        assert act(p, x_plus(q, 1, 2 * lam - 1), cut) != p


def test_orbit_partition_is_a_partition():
    for preset, q in (("SL2", 3), ("PGL2", 2)):
        pts = enumerate_gr_window(preset, (2,), q)
        assignment, orbits = orbit_partition(pts, "Iwahori_twisted", q)
        seen = []
        for orb in orbits:
            seen.extend(orb["points"])
        assert sorted(seen, key=lambda p: (p.a, p.c, p.b)) == pts
        assert set(assignment) == set(pts)
        for p, idx in assignment.items():
            assert p in orbits[idx]["points"]


def test_twisted_iwahori_orbits_match_plain_unipotent_orbits():
    # dropping the torus scalings does not split the twisted orbits
    q = 3
    pts = enumerate_gr_window("SL2", (2,), q)
    _, a = orbit_partition(pts, "Iwahori_twisted", q)
    _, b = orbit_partition(pts, "U_twisted", q)
    sizes_a = sorted(len(o["points"]) for o in a)
    sizes_b = sorted(len(o["points"]) for o in b)
    assert sizes_a == sizes_b


def test_orbit_sizes_over_torus_basepoints():
    # the twist shifts every basepoint by half the coroot: t^{-1} is the
    # unique fixed point, t^nu for nu < -1 has q^{-2 nu - 2} points, and all
    # orbit sizes are powers of q
    for q in (2, 3):
        pts = enumerate_gr_window("SL2", (2,), q)
        _, orbits = orbit_partition(pts, "Iwahori_twisted", q)
        by_base = {
            o["label"]: len(o["points"]) for o in orbits if o["label"] is not None
        }
        assert by_base[(-1,)] == 1
        assert by_base[(-2,)] == q**2
        assert by_base[(0,)] == q
        for size in by_base.values():
            while size % q == 0:
                size //= q
            assert size == 1


def test_orbit_closure_contains_seeds_and_is_closed():
    q = 2
    seeds = [torus_point("SL2", q, (nu,)) for nu in (-1, 0, 1)]
    pts = orbit_closure("SL2", q, seeds, "U_twisted", (2,))
    assert set(seeds) <= set(pts)
    _, orbits = orbit_partition(pts, "U_twisted", q)
    assert sum(len(o["points"]) for o in orbits) == len(pts)


def test_window_too_large():
    with pytest.raises(WindowTooLarge):
        enumerate_gr_window("SL2", (12,), 9)


def test_support_escapes_window():
    q = 2
    base = torus_point("SL2", q, (0,))
    domain = enumerate_gr_window("SL2", (1,), q)
    # declared window (0,) cannot hold the support after convolving by (1,)
    f = FqFunction("SL2", q, (0,), {base: 1})
    with pytest.raises(SupportEscapesWindow):
        hecke_operator(f, (1,), domain)


def test_hecke_operator_counts_cosets():
    # convolving the delta at the base point with 1_{K t^mu K} spreads it
    # uniformly over Gr^mu
    q = 3
    base = torus_point("SL2", q, (0,))
    window = enumerate_gr_window("SL2", (2,), q)
    f = FqFunction("SL2", q, (2,), {base: 1})
    g = hecke_operator(f, (1,), window)
    support = {p for p, v in g.values.items() if v}
    assert support == {p for p in window if p.coweight() == (1,)}
    assert all(v == 1 for v in g.values.values() if v)


def test_grpoint_json():
    p = GrPoint("SL2", 3, 2, -2, ((0, 1), (1, 2)))
    doc = p.to_json()
    assert doc["a"] == 2 and doc["c"] == -2
    assert doc["type"] == list(p.coweight())


def test_invalid_inputs_rejected():
    with pytest.raises(OracleError):
        enumerate_gr_window("SL2", (-1,), 3)
    with pytest.raises(OracleError):
        coset_reps("SL2", (-2,), 3)


def test_checked_in_window_fixtures_are_current():
    import json
    from pathlib import Path

    fixtures = Path(__file__).parent / "fixtures"
    for bound in (1, 2):
        path = fixtures / f"sl2_q3_window_bound{bound}.jsonl"
        want = [json.loads(line) for line in path.read_text().splitlines()]
        got = [p.to_json() for p in enumerate_gr_window("SL2", (bound,), 3)]
        assert got == want


def _outcome(fn, *args):
    """fn(*args), or the class of the OracleError it raises."""
    try:
        return fn(*args)
    except OracleError as e:
        return type(e)


_BOUND_AND_MU = {"SL2": ((2,), (1,)), "PGL2": ((2,), (1,)), "GL2": ((2, 0), (1, 0))}


@pytest.mark.parametrize("preset", sorted(_BOUND_AND_MU))
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_closed_form_translates_match_general_hnf(preset, q):
    """act/translate (closed form where it applies) equal the general HNF."""
    import random

    bound, mu = _BOUND_AND_MU[preset]
    F = gf(q)
    window = enumerate_gr_window(preset, bound, q)
    pts = random.Random(7).sample(window, min(12, len(window)))
    level_hi = 2 * max(abs(b) for b in bound) + 2
    gens = [g for spec in ("Iwahori_twisted", "U_twisted", "U_exp_twisted",
                           "U_rtimes_Gm_twisted")
            for g, _e, _name in twisted_generators(preset, spec, q, level_hi)]
    reps = coset_reps(preset, mu, q)
    # coset representatives times diag(1, w t): a non-unit lower-right entry
    # under a nonzero upper-right one
    diag = (({0: 1}, {}), ({}, {1: q - 1}))
    reps += [_m_mul(F, g, diag, 99) for g in reps]
    # the small cut makes diagonal exponents reach it, so the general path raises
    for cut in (depth_for(preset, bound), 2):
        for p in pts:
            for g in gens + reps:
                for fast, prod in ((act, _m_mul(F, g, p.matrix(), cut)),
                                   (translate, _m_mul(F, p.matrix(), g, cut))):
                    want = _outcome(_hnf_point, preset, q, prod, cut)
                    got = _outcome(fast, p, g, cut)
                    assert got == want, (fast.__name__, p, g, cut)
            # every coset representative takes the closed form
            if cut > 2:
                for g in reps:
                    assert _triangular_point(p, g, cut, left=False) is not None
