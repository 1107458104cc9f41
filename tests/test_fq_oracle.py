"""Brute-force lattice model over F_q((t)): windows, orbits, and averaging."""

import pytest

from expflag import fq_oracle
from expflag.root_datum import build_root_datum
from expflag.affine_weyl import AffineWeyl
from expflag.coefficients import CycNum, gf, psi_value
from expflag.strata import gr_cell_class
from expflag.fq_oracle import (
    PRESETS,
    FqFunction,
    GrPoint,
    OracleError,
    SupportEscapesWindow,
    WindowTooLarge,
    _canonical_point,
    _hnf_point,
    _m_mul,
    _triangular_point,
    act,
    baby_averaging,
    character_labeling,
    coset_reps,
    cyc_as_int,
    depth_for,
    enumerate_gr_window,
    hecke_operator,
    interpolate_structure_constants,
    orbit_closure,
    orbit_partition,
    torus_point,
    translate,
    twisted_generators,
    whittaker_action,
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
                for mu in rd.dominant_window(bound):
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
    pts = enumerate_gr_window("SL2", (2,), q)
    gens = [x_plus(q, 1, 0), x_minus(q, 1, 1), torus_point("SL2", q, (0,)).matrix()]
    for p in pts[:30]:
        for g in gens:
            moved = act(p, g)
            assert moved in pts
            assert moved.coweight() == p.coweight()


def test_translation_changes_type_and_action_does_not():
    q = 2
    base = torus_point("SL2", q, (0,))
    g = torus_point("SL2", q, (1,)).matrix()
    assert translate(base, g).coweight() == (1,)
    assert act(base, x_plus(q, 1, 0)) == base


def test_torus_points_are_fixed_by_their_stabilizer():
    q = 3
    for lam in (-2, -1, 0, 1, 2):
        p = torus_point("SL2", q, (lam,))
        assert p.is_torus_point()
        assert p.torus_coweight() == (lam,)
        # level n root subgroup fixes t^lam iff n >= <alpha, lam> = 2 lam
        assert act(p, x_plus(q, 1, 2 * lam)) == p
        assert act(p, x_plus(q, 1, 2 * lam - 1)) != p


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


def test_equal_points_are_one_key():
    p = GrPoint("SL2", 3, 2, -2, ((0, 1), (1, 2)))
    built = _hnf_point("SL2", 3, p.matrix())
    assert built is not p and built == p and hash(built) == hash(p)
    assert {p: 1}[built] == 1
    assert GrPoint("PGL2", 3, 2, -2, p.b) != p


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
    # window_size used to count 43 points over a field of size 6
    for call in (window_size, fq_oracle.check_window_size, enumerate_gr_window):
        with pytest.raises(ValueError, match="unsupported field size 6"):
            call("SL2", (1,), 6)


def test_checked_in_window_fixtures_are_current():
    """Each line of ``tests/fixtures/sl2_q3_window_boundN.jsonl`` is one
    entry of ``points`` from ``expflag oracle --group SL2 --q 3 --bound N
    --mode window``, written as ``json.dumps(entry, sort_keys=True)``."""
    import json
    from pathlib import Path

    fixtures = Path(__file__).parent / "fixtures"
    for bound in (1, 2):
        path = fixtures / f"sl2_q3_window_bound{bound}.jsonl"
        want = [json.loads(line) for line in path.read_text().splitlines()]
        got = [p.to_json() for p in enumerate_gr_window("SL2", (bound,), 3)]
        assert got == want


def test_checked_in_partition_fixture_is_current(monkeypatch):
    """Each line of ``tests/fixtures/partitions.jsonl`` is one orbit of
    ``orbit_partition`` at q = 3, in order, for the SL2 (2,), PGL2 (2,) and
    GL2 (2, 0) windows and each group spec in ``_SPECS`` order: the spec,
    label, tag, both flags and the (point, label) pairs in insertion order,
    a point written [a, c, b], as ``json.dumps(record, sort_keys=True)``."""
    import json
    from pathlib import Path

    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    got = []
    for preset, bound in (("SL2", (2,)), ("PGL2", (2,)), ("GL2", (2, 0))):
        pts = enumerate_gr_window(preset, bound, 3)
        for spec in _SPECS:
            for o in orbit_partition(pts, spec, 3)[1]:
                got.append({
                    "preset": preset, "bound": list(bound), "q": 3, "spec": spec,
                    "label": o["label"] and list(o["label"]), "tag": o["tag"],
                    "partial": o["partial"], "consistent": o["consistent"],
                    "labels": [[[x.a, x.c, [list(t) for t in x.b]], v]
                               for x, v in o["labels"].items()]})
    path = Path(__file__).parent / "fixtures" / "partitions.jsonl"
    want = [json.loads(line) for line in path.read_text().splitlines()]
    assert got == want
    # every window holds a truncated, an inconsistent and a split orbit
    for preset in ("SL2", "PGL2", "GL2"):
        mine = [r for r in want if r["preset"] == preset]
        assert any(r["partial"] for r in mine) and not all(r["consistent"] for r in mine)
        assert {"closed", "open"} <= {r["tag"] for r in mine}


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
    reps += [_m_mul(F, g, diag) for g in reps]
    for p in pts:
        for g in gens + reps:
            for fast, prod in ((act, _m_mul(F, g, p.matrix())),
                               (translate, _m_mul(F, p.matrix(), g))):
                assert fast(p, g) == _hnf_point(preset, q, prod), (fast.__name__, p, g)
        # every coset representative takes the closed form
        for g in reps:
            assert _triangular_point(p, g, left=False) is not None


def _point_key(p):
    return (p.a, p.c, p.b)


def _chain_window(q, top=1):
    """The U-rtimes-Gm orbit window of the SL2 averaging chain."""
    amb = (top + 2,)
    seeds = [torus_point("SL2", q, (v,)) for v in range(-top - 1, top + 1)]
    seeds += [act(torus_point("SL2", q, (l,)), x_plus(q, 1, -1))
              for l in range(top + 1)]
    return orbit_closure("SL2", q, seeds, "U_rtimes_Gm_twisted", amb)


def _window_level(points):
    """The generator level orbit_partition uses for an SL2/PGL2 window."""
    return 2 * max(p.coweight()[0] for p in points) + 2


_SPECS = ("Iwahori_twisted", "U_twisted", "U_exp_twisted", "U_rtimes_Gm_twisted")


def _twisted_elements(preset, q, level_hi):
    return list({repr(g): g for spec in _SPECS
                 for g, _e, _name in twisted_generators(preset, spec, q, level_hi)}.values())


@pytest.mark.parametrize("preset,q", [("SL2", 2), ("SL2", 3), ("SL2", 4),
                                      ("PGL2", 2), ("PGL2", 3)])
def test_bounded_hnf_matches_full_precision(preset, q):
    """act/translate by every twisted generator equal _hnf_point of the
    product, on the SL2 chain windows and the PGL2 bound-2 window, at the
    level of orbit_partition and, for SL2, of the chain's orbit_closure."""
    F = gf(q)
    if preset == "SL2":
        pts = _chain_window(q)
        levels = [_window_level(pts), 8]
    else:
        pts = enumerate_gr_window(preset, (2,), q)
        levels = [_window_level(pts)]
    for level_hi in levels:
        for p in pts:
            for g in _twisted_elements(preset, q, level_hi):
                for fast, prod in ((act, _m_mul(F, g, p.matrix())),
                                   (translate, _m_mul(F, p.matrix(), g))):
                    assert fast(p, g) == _hnf_point(preset, q, prod), (fast.__name__, p, g)


def _truncated_hnf(preset, q, mat, cut):
    """The Hermite form with every series truncated at cut, as the oracle
    computed it before its forms became exact: it drops the terms of mat at
    or above cut, scales the pivot column by the inverse of its bottom
    entry to exponents < cut, clears the other bottom entry by a column
    operation and reads a off the result."""
    F = gf(q)
    (m00, m01), (m10, m11) = [[{e: co for e, co in s.items() if e < cut} for s in row]
                              for row in mat]
    v0, v1 = fq_oracle._s_val(m10), fq_oracle._s_val(m11)
    if v1 is None or (v0 is not None and v0 < v1):
        (m00, m01), (m10, m11) = (m01, m00), (m11, m10)
    if not m11:
        raise OracleError("singular lattice basis")
    c = min(m11)
    inverse = fq_oracle._s_inv(F, fq_oracle._s_shift(m11, -c), cut)
    m01 = fq_oracle._s_mul(F, m01, inverse, cut)
    if m10:
        factor = {e - c: F.neg(co) for e, co in m10.items()}
        m00 = fq_oracle._s_add(F, m00, fq_oracle._s_mul(F, factor, m01, cut))
    if not m00:
        raise OracleError("singular lattice basis")
    a = min(m00)
    return _canonical_point(preset, q, a, c, tuple((e, co) for e, co in sorted(m01.items())
                                                   if e < a))


# elements whose determinant is not a unit: t^2 under x_minus; t^6 with
# both off-diagonal entries nonzero; and 0
_NON_UNIMODULAR = (
    (({0: 1}, {}), ({1: 1}, {2: 1})),
    (({0: 1}, {6: 1}), ({-6: 1}, {0: 1, 6: 1})),
    (({0: 1}, {1: 1}), ({-1: 1}, {0: 1})),
)


def test_exact_hnf_matches_the_truncated_one_past_every_exponent():
    """On random matrices with exponents -4..5 over F_2 .. F_9, and on the
    elements of _NON_UNIMODULAR, the exact _hnf_point equals _truncated_hnf
    at cut 60, past every exponent either reads: the same point, or both
    raise for a singular matrix."""
    import random

    rng = random.Random(32)
    mats = [(q, "GL2", g) for q in (2, 3, 5) for g in _NON_UNIMODULAR]
    for _ in range(400):
        q = rng.choice((2, 3, 4, 5, 9))

        def entry():
            return {e: rng.randrange(1, q) for e in rng.sample(range(-4, 6), rng.randrange(4))}
        mats.append((q, rng.choice(sorted(PRESETS)), ((entry(), entry()), (entry(), entry()))))
    singular = 0
    for q, preset, g in mats:
        want = _outcome(_truncated_hnf, preset, q, g, 60)
        assert _outcome(_hnf_point, preset, q, g) == want, (preset, q, g)
        singular += want is OracleError
    assert 0 < singular < len(mats) // 2


def test_lower_point_reads_its_diagonal_off_the_determinant():
    """For x_minus(2 t) L, L = [[t, t^-2 + t^-1], [0, t^-1]] over F_3, the
    pivot is t^0 and the determinant t^0 gives (a', c') = (0, 0). A
    truncation at cut 2 keeps too few inverse terms for the column
    operation and reads a' = 1. A general element over GL2 takes the
    Hermite form with a' = val(det) - c' = -5 - (-3) = -2, not the -1 of a
    cut at 1."""
    F = gf(3)
    p = GrPoint("SL2", 3, 1, -1, ((-2, 1), (-1, 1)))
    g = x_minus(3, 2, 1)
    exact = act(p, g)
    assert (exact.a, exact.c) == (0, 0)
    assert exact == fq_oracle._lower_point(p, g) == _hnf_point("SL2", 3, _m_mul(F, g, p.matrix()))
    assert exact == _truncated_hnf("SL2", 3, _m_mul(F, g, p.matrix()), 3)
    truncated = _truncated_hnf("SL2", 3, _m_mul(F, g, p.matrix()), 2)
    assert (truncated.a, truncated.c) == (1, 0)
    p = GrPoint("GL2", 3, 0, 0, ())
    g = (({0: 2, -3: 2}, {-1: 2, -3: 2}), ({-3: 1}, {-3: 1, -2: 1}))
    exact = act(p, g)
    assert (exact.a, exact.c) == (-2, -3)
    assert exact == _truncated_hnf("GL2", 3, g, 60)
    assert _truncated_hnf("GL2", 3, g, 1).a == -1


def test_bounded_hnf_pivot_cancellation():
    """x_minus(1, 2) L for L = [[1, 2t^-2 + t^-1], [0, 1]] over F_3 has
    lower-right entry t^2 b + 1 = t: the pivot is t, c' = 1, and the x_minus
    closed form reads a' = a + c - c' = -1 off the determinant t^0."""
    F = gf(3)
    p = GrPoint("SL2", 3, 0, 0, ((-2, 2), (-1, 1)))
    g = x_minus(3, 1, 2)
    want = GrPoint("SL2", 3, -1, 1, ((-2, 2),))
    assert _hnf_point("SL2", 3, _m_mul(F, g, p.matrix())) == want
    assert fq_oracle._lower_point(p, g) == want
    assert act(p, g) == want


def _pairwise_baby_averaging(f, points):
    """Reference baby averaging: the orbit sum of zeta^(c(g)-c(y)) f(y) over
    every pair (g, y), with the character transported from the last point of
    each orbit rather than from the partition's seed."""
    q = f.q
    p = gf(q).p
    level_hi = _window_level(points)
    _, orbits = orbit_partition(points, "U_twisted", q)
    out = {}
    for orbit in orbits:
        pts = orbit["points"]
        if orbit["partial"]:
            if any(not f.values[x].is_zero() for x in pts if x in f.values):
                raise OracleError("nonzero value on a boundary orbit")
            continue
        seed = max(pts, key=_point_key)
        labels, consistent = character_labeling(
            pts, f.preset, q, "U_twisted", level_hi, seed)
        if not consistent:
            continue
        ell = 0
        while q**ell < len(pts):
            ell += 1
        assert q**ell == len(pts)
        for g in pts:
            acc = CycNum.integer(0, p, q)
            for y in pts:
                if y in f.values:
                    acc = acc + CycNum.zeta_power(labels[g] - labels[y], p, q) * f.values[y]
            if not acc.is_zero():
                out[g] = acc.div_by_q_power(ell)
    return out


_AVERAGING_WINDOWS = [("SL2", q) for q in (2, 3, 4)] + [("PGL2", q) for q in (2, 3)]


def _averaging_window(preset, q):
    if preset == "SL2":
        return _chain_window(q)
    return enumerate_gr_window("PGL2", (2,), q)


@pytest.mark.parametrize("preset,q", _AVERAGING_WINDOWS)
def test_linear_baby_averaging_matches_pairwise_sum(preset, q):
    import random

    rng = random.Random(1000 * q + len(preset))
    p = gf(q).p
    pts = _averaging_window(preset, q)
    _, orbits = orbit_partition(pts, "U_twisted", q)
    full = [o for o in orbits if not o["partial"]]
    # the window has orbits the averaging must kill or skip
    assert any(not o["consistent"] for o in full)
    assert any(o["partial"] for o in orbits) == (preset == "PGL2")

    def random_value():
        poly = [rng.randint(-3, 3) for _ in range(p - 1)]
        return CycNum.make(p, q, poly, rng.randint(0, 2))

    nonzero = 0
    for _ in range(6):
        support = [x for o in full for x in sorted(o["points"], key=_point_key)
                   if rng.random() < 0.6]
        f = FqFunction(preset, q, (2,), {x: random_value() for x in support})
        got = baby_averaging(f, pts).values
        assert got == _pairwise_baby_averaging(f, pts)
        nonzero += bool(got)
    assert nonzero
    # a zero value on a boundary orbit is allowed, a nonzero one is not
    for o in orbits:
        if o["partial"]:
            x = min(o["points"], key=_point_key)
            zero = FqFunction(preset, q, (2,), {x: CycNum.integer(0, p, q)})
            assert baby_averaging(zero, pts).values == {}
            bad = FqFunction(preset, q, (2,), {x: CycNum.integer(1, p, q)})
            with pytest.raises(OracleError):
                baby_averaging(bad, pts)
            with pytest.raises(OracleError):
                _pairwise_baby_averaging(bad, pts)


@pytest.mark.parametrize("preset,bound,q", [
    ("SL2", (2,), 2), ("SL2", (2,), 3), ("PGL2", (2,), 2), ("PGL2", (3,), 3),
])
def test_stored_labels_match_character_labeling(preset, bound, q):
    import random

    rng = random.Random(q)
    p = gf(q).p
    pts = enumerate_gr_window(preset, bound, q)
    level_hi = _window_level(pts)
    _, orbits = orbit_partition(pts, "U_twisted", q)
    assert {o["consistent"] for o in orbits if not o["partial"]} == {True, False}
    for o in orbits:
        if o["partial"]:
            continue
        stored = o["labels"]
        assert set(stored) == o["points"]
        ordered = sorted(o["points"], key=_point_key)
        for seed in {ordered[0], ordered[-1], rng.choice(ordered)}:
            labels, consistent = character_labeling(
                o["points"], preset, q, "U_twisted", level_hi, seed)
            assert consistent == o["consistent"]
            assert set(labels) == o["points"]
            # on an inconsistent orbit the transport depends on the path
            if consistent:
                shift = (stored[seed] - labels[seed]) % p
                assert all((stored[x] - labels[x]) % p == shift for x in labels)


def _reference_orbit_bfs(seeds, gens, p, window=None):
    """_orbit_bfs with act, the plain product, called on every generator at
    every point: no stabilizer shortcut."""
    labels = dict.fromkeys(seeds, 0)
    frontier = list(labels)
    partial, consistent = False, True
    while frontier:
        nxt = []
        for x in frontier:
            for mat, e, _name in gens:
                im = act(x, mat)
                val = (e + labels[x]) % p
                old = labels.get(im)
                if old is not None:
                    consistent = consistent and old == val
                elif window is not None and im not in window:
                    partial = True
                else:
                    labels[im] = val
                    nxt.append(im)
        frontier = nxt
    return labels, partial, consistent


@pytest.mark.parametrize("group_spec", ["U_twisted", "U_rtimes_Gm_twisted"])
@pytest.mark.parametrize("preset,q", [("SL2", 2), ("SL2", 3), ("PGL2", 3)])
def test_orbit_closure_matches_free_bfs(preset, q, group_spec):
    bound = (3,)
    gens = twisted_generators(preset, group_spec, q, 2 * bound[0] + 2)
    seeds = [torus_point(preset, q, (nu,)) for nu in (-1, 0, 1)]
    labels, _partial, _consistent = _reference_orbit_bfs(seeds, gens, gf(q).p)
    got = orbit_closure(preset, q, seeds, group_spec, bound)
    assert got == sorted(labels, key=_point_key)


def test_partition_cache_keeps_the_most_recently_used_windows(monkeypatch):
    # size + 1 small windows, each its own key
    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    size = fq_oracle._PARTITION_CACHE_SIZE
    windows = [(q, enumerate_gr_window(preset, (b,), q))
               for preset in ("SL2", "PGL2") for b in (0, 1) for q in (2, 3)][:size + 1]
    assert len(windows) == size + 1

    def orbits(i):
        q, window = windows[i]
        return orbit_partition(window, "U_twisted", q)[1]

    first = [orbits(i) for i in range(size)]
    assert all(orbits(i) is first[i] for i in range(size))
    # a hit makes entry 0 the most recent, so entry 1 is the one evicted
    assert orbits(0) is first[0]
    orbits(size)
    assert len(fq_oracle._partition_cache) == size
    assert orbits(0) is first[0]
    assert orbits(1) is not first[1]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_maps_are_inverse(preset):
    # coords reads back the coweight that diagonal lifts
    P = PRESETS[preset]
    rank = len(P.coords(0, 0))
    for lam in [(0,) * rank, (1,) * rank, (3, -2)[:rank], (-1, 4)[:rank]]:
        assert P.coords(*P.diagonal(*lam)) == lam
        assert torus_point(preset, 3, lam).torus_coweight() == lam
    if preset == "PGL2":
        # lattice classes modulo global t-scaling: [[t^3, t], [0, t^2]] is
        # t^2 [[t, t^-1], [0, 1]]
        p = _canonical_point(preset, 3, 3, 2, ((1, 1),))
        assert (p.a, p.c, p.b) == (1, 0, ((-1, 1),))


@pytest.mark.parametrize("call", [
    lambda: whittaker_action("SL2", (0, 0), (1,), 3),
    lambda: whittaker_action("SL2", (1,), (1, 7), 3),
    lambda: whittaker_action("GL2", (1,), (1,), 3),
    lambda: whittaker_action("GL2", (1, 0), (1,), 3),
    lambda: interpolate_structure_constants("SL2", (0, 0), (1,), [2, 3]),
    lambda: interpolate_structure_constants("GL2", (1,), (1,), [2, 3]),
    lambda: torus_point("PGL2", 3, (1, 0)),
    lambda: depth_for("GL2", (2,)),
    lambda: coset_reps("SL2", (1, 1), 3),
    lambda: enumerate_gr_window("GL2", (1,), 3),
])
def test_wrong_rank_coweight_is_oracle_error(call):
    # a coweight of the wrong rank used to end in an IndexError
    with pytest.raises(OracleError, match="coordinate"):
        call()


@pytest.mark.parametrize("preset,lam,mu", [
    ("SL2", (-1,), (1,)),
    ("PGL2", (-2,), (1,)),
    ("GL2", (0, 1), (1, 0)),
    ("SL2", (1,), (-1,)),
    ("GL2", (1, 0), (0, 1)),
])
def test_non_dominant_whittaker_input_is_oracle_error(preset, lam, mu):
    with pytest.raises(OracleError, match="must be dominant"):
        whittaker_action(preset, lam, mu, 3)


def test_non_dominant_baby_bound_is_oracle_error():
    # used to return an empty basis
    with pytest.raises(OracleError, match="bound must be dominant"):
        fq_oracle.baby_basis("SL2", (-1,), 3, _sl2_window(3))


@pytest.mark.parametrize("call", [
    lambda: fq_oracle.window_size("SL2", (-2,), 3),
    lambda: fq_oracle.check_window_size("SL2", (-2,), 3),
    lambda: fq_oracle.whittaker_space("SL2", (-1,), 3, _sl2_window(3)),
    lambda: fq_oracle.exp_action_matrix("SL2", (-1,), (1,), 3, _sl2_window(3)),
], ids=["window_size", "check_window_size", "whittaker_space", "exp_action_matrix"])
def test_non_dominant_oracle_bound_is_oracle_error(call):
    # these used to return 0, pass, or return an empty basis or matrix
    with pytest.raises(fq_oracle.InvalidCoweight, match="bound must be dominant"):
        call()


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("lam", [(0, 0), (1, 0), (2, -1)])
def test_gl2_central_coweight_acts_as_a_shift(q, lam):
    # (W_lam * 1_mu)(t^nu) = W_lam(t^(nu + mu)) for central mu = (1, 1), so
    # every source line moves down by (1, 1) with coefficient 1
    got = {k: cyc_as_int(v) for k, v in whittaker_action("GL2", lam, (1, 1), q).items()}
    assert (lam, (lam[0] - 1, lam[1] - 1)) in got
    assert got == {(src, (src[0] - 1, src[1] - 1)): 1 for src, _nu in got}


@pytest.mark.parametrize("q", [2, 3])
def test_gl2_non_central_hecke_window_is_not_empty(q):
    # right convolution by 1_(1,0) lowers support by -w0 (1,0) = (0,-1): the
    # window must hold (1,-1) and (0,0), not (2,0)
    got = {k: cyc_as_int(v) for k, v in whittaker_action("GL2", (1, 0), (1, 0), q).items()}
    assert got == {((1, 0), (1, -1)): 1, ((1, 0), (0, 0)): q}


# top coweight of the window and a few small mu per preset
_ROW_WINDOWS = {
    "SL2": ((3,), [(0,), (1,), (2,)]),
    "PGL2": ((3,), [(0,), (1,), (2,)]),
    "GL2": ((2, 0), [(0, 0), (1, 0), (1, 1), (1, -1)]),
}


@pytest.mark.parametrize("preset", sorted(_ROW_WINDOWS))
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_whittaker_row_does_not_depend_on_the_bound(preset, q):
    # verify reads every row lam of one matrix built on the window's top:
    # that row must be the one a matrix built on lam itself holds, and it
    # must stay inside the Hecke window of (lam, mu)
    top, mus = _ROW_WINDOWS[preset]
    rd = build_root_datum(preset)
    for mu in mus:
        shared = whittaker_action(preset, top, mu, q)
        for lam in rd.dominant_window(top):
            row = {nu: v for (l, nu), v in shared.items() if l == lam}
            own = {nu: v for (l, nu), v in whittaker_action(preset, lam, mu, q).items()
                   if l == lam}
            assert row == own, (lam, mu)
            inside = rd.dominant_window(fq_oracle._hecke_window(preset, lam, mu))
            assert set(row) <= set(inside), (lam, mu)


def _count_calls(monkeypatch, name):
    """The arguments of every call to fq_oracle.<name> made through the
    module (the helpers here call the names imported above)."""
    calls = []
    fn = getattr(fq_oracle, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(fq_oracle, name, counting)
    return calls


@pytest.fixture()
def translate_calls(monkeypatch):
    return _count_calls(monkeypatch, "translate")


def _pointwise_whittaker_action(preset, bound, mu, q):
    """whittaker_action with every coset point translated and one
    psi_value CycNum added per point."""
    rd = build_root_datum(preset)
    out_bound = fq_oracle._hecke_window(preset, bound, mu)
    sources = rd.dominant_window(bound)
    zero = CycNum.integer(0, gf(q).p, q)
    matrix = {}
    for nu in rd.dominant_window(out_bound):
        base = torus_point(preset, q, nu)
        for g in coset_reps(preset, mu, q):
            lab, elem = fq_oracle.iwasawa_data(translate(base, g))
            if lab in sources:
                matrix[lab, nu] = matrix.get((lab, nu), zero) + psi_value(elem, q)
    return {k: v for k, v in matrix.items() if not v.is_zero()}


@pytest.mark.parametrize("preset,bound,mu", [
    ("SL2", (2,), (1,)),
    ("SL2", (1,), (2,)),
    ("PGL2", (2,), (1,)),
    ("PGL2", (1,), (2,)),
    ("GL2", (2, 0), (1, 0)),
    ("GL2", (1, 0), (1, -1)),
    ("GL2", (5, 5), (1, 0)),
    ("GL2", (4, 3), (2, 1)),
])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_whittaker_counts_match_pointwise_psi_sum(preset, bound, mu, q):
    # q = 4 and 9 read the trace from F_p^2 down to F_p
    got = whittaker_action(preset, bound, mu, q)
    assert got
    assert got == _pointwise_whittaker_action(preset, bound, mu, q)


# GL2 sources lam + (k, k), k = 0..6, for the shift and no-translate tests;
# (5, 5) with mu = (1, 0) used to end in a false singular lattice basis
_GL2_SHIFTS = [((0, 0), (1, 0)), ((1, 0), (1, 0)), ((1, 0), (1, -1)), ((2, 0), (1, 0)),
               ((1, -1), (2, 0))]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("lam,mu", _GL2_SHIFTS)
def test_gl2_whittaker_action_commutes_with_central_shifts(lam, mu, q):
    # t^(k, k) is central: the action on lam + (k, k) is the action on lam,
    # with both indices moved by (k, k)
    base = whittaker_action("GL2", lam, mu, q)
    assert base
    for k in range(7):
        shifted = whittaker_action("GL2", (lam[0] + k, lam[1] + k), mu, q)
        assert shifted == {((l0 + k, l1 + k), (n0 + k, n1 + k)): v
                           for ((l0, l1), (n0, n1)), v in base.items()}, k


def test_whittaker_action_builds_no_translate_at_the_default_depth(translate_calls):
    """The read-off builds no translate, also on GL2 sources with large
    diagonal exponents."""
    assert whittaker_action("PGL2", (3,), (3,), 9)
    for lam, mu in _GL2_SHIFTS:
        for k in range(7):
            assert whittaker_action("GL2", (lam[0] + k, lam[1] + k), mu, 3)
    assert not translate_calls


def _grouped_coset_points(preset, mu, q):
    """_coset_shapes read off the representatives of _coset_points."""
    F = gf(q)
    shapes = {}
    for p in fq_oracle._coset_points(preset, mu, q):
        size, traces = shapes.get((p.a, p.c), (0, {}))
        shapes[p.a, p.c] = (size + 1, traces)
        for e, co in p.b:
            traces.setdefault(e, [0] * F.p)[F.trace(co)] += 1
    return {k: (size, {e: tuple(t) for e, t in traces.items()})
            for k, (size, traces) in shapes.items()}


_SHAPE_CASES = ([(preset, (m,)) for preset in ("SL2", "PGL2") for m in range(4)]
                + [("GL2", mu) for mu in ((1, 0), (2, 0), (2, 1), (1, -1), (3, 1))])


def test_coset_shapes_match_the_grouped_representatives():
    # the closed form against the enumeration it replaces: per diagonal the
    # size and the trace counts of every exponent, in the same order. SL2
    # (3,) at q = 9 (597,871 window points) would take 1.5 s to enumerate;
    # q = 9 is covered by the smaller mu
    checked = 0
    for preset, mu in _SHAPE_CASES:
        for q in (2, 3, 4, 5, 7, 9):
            if window_size(preset, mu, q) > 200_000:
                continue
            want = _grouped_coset_points(preset, mu, q)
            got = fq_oracle._coset_shapes(preset, mu, q)
            assert got == want, (preset, mu, q)
            assert list(got) == list(want), (preset, mu, q)
            checked += 1
    assert checked == len(_SHAPE_CASES) * 6 - 1


def test_whittaker_action_keeps_the_window_cap(monkeypatch):
    # no point is built, yet a window past the cap is still refused, as the
    # enumeration it replaces did
    with pytest.raises(WindowTooLarge, match="window would contain about"):
        whittaker_action("SL2", (0,), (12,), 9)
    coset_calls = _count_calls(monkeypatch, "_coset_points")
    window_calls = _count_calls(monkeypatch, "enumerate_gr_window")
    assert whittaker_action("SL2", (3,), (3,), 9)
    assert whittaker_action("GL2", (2, 0), (3, 1), 7)
    assert not coset_calls and not window_calls


def test_depth_for_reads_the_central_part_of_a_gl2_bound():
    # SL2 and PGL2 keep 2 (a - c + 1) + 2 on every bound; a GL2 bound whose
    # diagonal (a, c) has min(a, c) > 0 cuts that much deeper
    for preset in ("SL2", "PGL2"):
        for b in range(-6, 7):
            a, c = PRESETS[preset].diagonal(b)
            assert depth_for(preset, (b,)) == 2 * (a - c + 1) + 2, (preset, b)
    assert depth_for("GL2", (1, -1)) == depth_for("GL2", (0, -2)) == 8
    assert depth_for("GL2", (5, 4)) == depth_for("GL2", (1, 0)) + 4 == 10


def _generator_kind(name):
    """x+, x-, t> (both t>ja and t>jb), gm or torus."""
    return name if name in ("gm", "torus") else name[:2]


def _stabilizer_window(preset, q):
    """The SL2 chain window, or the PGL2/GL2 bound-2 window."""
    if preset == "SL2":
        return _chain_window(q)
    return enumerate_gr_window(preset, _BOUND_AND_MU[preset][0], q)


@pytest.mark.parametrize("preset,q", [("SL2", 2), ("SL2", 3), ("SL2", 4), ("PGL2", 2),
                                      ("PGL2", 3), ("GL2", 2), ("GL2", 3)])
def test_stabilizer_shortcut_matches_full_hnf(preset, q, monkeypatch):
    """act by every generator of the four twisted groups equals _hnf_point
    of the product, on the SL2 chain windows and the PGL2/GL2 bound
    windows; and the window searches' stabilizer shortcut answers for every
    generator kind."""
    F = gf(q)
    pts = _stabilizer_window(preset, q)
    bound = fq_oracle._window_bound(pts)
    gens = {repr(g): (g, _generator_kind(name)) for spec in _SPECS
            for g, _e, name in fq_oracle._window_generators(preset, spec, q, bound)}
    for p in pts:
        for g, _kind in gens.values():
            assert act(p, g) == _hnf_point(preset, q, _m_mul(F, g, p.matrix())), (p, g)
    fired = set()
    fixes = fq_oracle._fixes

    def spy(point, mat):
        out = fixes(point, mat)
        if out:
            fired.add(gens[repr(mat)][1])
        return out

    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    monkeypatch.setattr(fq_oracle, "_fixes", spy)
    for spec in _SPECS:
        orbit_partition(pts, spec, q)
    assert fired == {kind for _g, kind in gens.values()}


@pytest.mark.parametrize("preset,q", [(preset, q) for preset in ("SL2", "PGL2", "GL2")
                                      for q in (2, 3, 4, 5)])
def test_window_searches_translate_no_point_to_itself(preset, q, monkeypatch):
    """The searches apply only generators that move the point: across the
    free search that builds an SL2 chain window and the four specs'
    partitions of it, or of the PGL2/GL2 bound-2 window, no computed
    translate is the point itself. And every generator that _fixes marks
    as fixing a shape leaves each window point of that shape where it is
    under the product."""
    computed = []
    product, plan = fq_oracle._product_point, fq_oracle._plan

    def spy_plan(q, mat):
        image = plan(q, mat)

        def spy(point):
            out = image(point)
            computed.append(out == point)
            return out
        return spy

    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    monkeypatch.setattr(fq_oracle, "_plan", spy_plan)
    pts = _stabilizer_window(preset, q)
    for spec in _SPECS:
        orbit_partition(pts, spec, q)
    assert computed and not any(computed)
    bound = fq_oracle._window_bound(pts)
    fixed = 0
    for mat, _e, _name in fq_oracle._window_generators(preset, "Iwahori_twisted", q, bound):
        for x in pts:
            if fq_oracle._fixes(x, mat):
                assert product(x, mat, True) == x, (x, mat)
                fixed += 1
    assert fixed


def test_unit_scalar_fixes_every_lattice():
    """(1 + t) I fixes every lattice: over F_2, L = [[1, t^-3], [0, 1]]
    needs a - v = 3 inverse terms of 1 + t, and _fixes and act both say
    g L = L. A truncation at cut 2 kept too few terms and added t^-1."""
    F = gf(2)
    p = GrPoint("SL2", 2, 0, 0, ((-3, 1),))
    g = (({0: 1, 1: 1}, {}), ({}, {0: 1, 1: 1}))
    assert fq_oracle._fixes(p, g)
    assert act(p, g) == p == _hnf_point("SL2", 2, _m_mul(F, g, p.matrix()))
    truncated = _truncated_hnf("SL2", 2, _m_mul(F, g, p.matrix()), 2)
    assert truncated == GrPoint("SL2", 2, 0, 0, ((-3, 1), (-1, 1)))


# a window per preset and the torus coweights that seed the free searches
_ROW_CASES = {
    "SL2": ((2,), [(-1,), (0,), (1,)]),
    "PGL2": ((2,), [(-1,), (0,), (1,)]),
    "GL2": ((2, 0), [(0, 0), (1, 0), (0, 1)]),
}


@pytest.mark.parametrize("preset", sorted(_ROW_CASES))
@pytest.mark.parametrize("q", [2, 3, 4])
def test_stabilizer_rows_match_a_search_that_acts_by_every_generator(preset, q):
    """The stabilizer verdicts of _orbit_bfs change no label, no label order
    and neither flag: inside a window, seeded as orbit_partition seeds it,
    and free, from torus points, for all four group specs."""
    bound, free_seeds = _ROW_CASES[preset]
    p = gf(q).p
    pts = enumerate_gr_window(preset, bound, q)
    window = set(pts)
    seen = set()
    for spec in _SPECS:
        gens = fq_oracle._window_generators(preset, spec, q, bound)
        done = set()
        for seed in [x for x in pts if x.is_torus_point()] + pts:
            if seed in done:
                continue
            got = fq_oracle._orbit_bfs([seed], gens, p, window)
            want = _reference_orbit_bfs([seed], gens, p, window)
            assert list(got[0].items()) == list(want[0].items()), (spec, seed)
            assert got[1:] == want[1:], (spec, seed)
            done |= set(got[0])
            seen.add(("partial", got[1]))
            seen.add(("consistent", got[2]))
        seeds = [torus_point(preset, q, lam) for lam in free_seeds]
        got = fq_oracle._orbit_bfs(seeds, gens, p)
        want = _reference_orbit_bfs(seeds, gens, p)
        assert list(got[0].items()) == list(want[0].items()), spec
        assert got[1:] == want[1:], spec
    # the windows hold a truncated orbit and one the character cannot live on
    assert {("partial", True), ("consistent", False)} <= seen


def _pointwise_hecke_operator(f, mu, domain_points):
    """hecke_operator as one translate per domain point and coset
    representative: sum over g of f(translate(x, g))."""
    rd = build_root_datum(f.preset)
    out = {}
    for x in domain_points:
        found = [f.values[y] for y in (translate(x, g) for g in coset_reps(f.preset, mu, f.q))
                 if y in f.values]
        acc = sum(found[1:], found[0]) if found else 0
        if acc:
            if not rd.dominance_leq(x.coweight(), f.window):
                raise SupportEscapesWindow(x)
            out[x] = acc
    return out


# the bounds of the windows that hold f and the domain, mu and the declared
# support bound of f * 1_mu; None is the chain window. The support bound of
# the second SL2 case is too small for the result. The domain of the last
# case lies far above the support bound: f * 1_mu is 0 there, where a
# truncation at depth_for of the support bound (8) raised "singular lattice
# basis".
_HECKE_CASES = [
    ("SL2", None, (1,), None, (3,)),
    ("SL2", (2,), (1,), (2,), (0,)),
    ("PGL2", (3,), (1,), (2,), (2,)),
    ("GL2", (2, 0), (1, 0), (1, 0), (1, 0)),
    ("GL2", (2, -1), (1, -1), (2, -1), (2, -1)),
    ("GL2", (-1, -3), (0, -1), (-1, -2), (-1, -2)),
    ("GL2", (1, 0), (1, 0), (9, 8), (1, 0)),
]


@pytest.mark.parametrize("preset,f_bound,mu,domain_bound,support", _HECKE_CASES)
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["int", "CycNum"])
def test_hecke_read_off_matches_a_sum_over_translates(
        preset, f_bound, mu, domain_bound, support, q, kind, translate_calls):
    """hecke_operator equals the sum over translates: the same values, or
    the same error. It calls no translate."""
    import random

    rng = random.Random(q)
    p = gf(q).p

    def window(bound):
        return _chain_window(q) if bound is None else enumerate_gr_window(preset, bound, q)

    def value():
        if kind == "int":
            return rng.randint(-2, 2)
        return CycNum.make(p, q, [rng.randint(-2, 2) for _ in range(p - 1)], rng.randint(0, 1))

    f = FqFunction(preset, q, support, {x: value() for x in window(f_bound) if rng.random() < 0.5})
    pts = window(domain_bound)
    got = _outcome(hecke_operator, f, mu, pts)
    want = _outcome(_pointwise_hecke_operator, f, mu, pts)
    assert (got if isinstance(got, type) else got.values) == want
    assert not translate_calls
    # the result is 0 far above the support bound, otherwise nonzero or, in
    # the second SL2 case, it escapes the window
    if domain_bound == (9, 8):
        assert want == {}
    else:
        assert want == SupportEscapesWindow if support == (0,) else want


def test_hecke_operator_builds_no_translate_on_the_chain_windows(translate_calls):
    for q in (2, 3, 4, 5):
        pts = _chain_window(q)
        f = FqFunction("SL2", q, (3,), {x: 1 for x in pts})
        assert hecke_operator(f, (1,), pts).values
    assert not translate_calls


# the SL2 and PGL2 cases of _HECKE_CASES with a far torus point added to the
# domain, where a truncation at depth_for of the support bound raised
_FAR_CASES = [("SL2", (2,), (1,), ((2,), (16,)), (2,)),
              ("PGL2", (3,), (1,), ((2,), (10,)), (2,))]


@pytest.mark.parametrize("preset,f_bound,mu,domain_bound,support", _HECKE_CASES + _FAR_CASES)
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["point", "baby"])
def test_hecke_operator_on_a_sparse_support(
        preset, f_bound, mu, domain_bound, support, q, kind, translate_calls):
    """f on one point, or a baby basis function (the U_twisted orbit of a
    torus point with its transported character): hecke_operator equals the
    sum over translates, the same values or the same error, with no
    translate: the index built from f's support serves every domain point,
    the far ones included; on SL2, PGL2 and GL2, where mu* = (0, -1)
    differs from mu = (1, 0)."""
    import random

    rng = random.Random(q)
    p = gf(q).p

    def window(bound):
        if bound is None:
            return _chain_window(q)
        if isinstance(bound[0], tuple):
            return window(bound[0]) + [torus_point(preset, q, bound[1])]
        return enumerate_gr_window(preset, bound, q)

    source = window(f_bound)
    if kind == "point":
        values = {rng.choice(source): CycNum.zeta_power(1, p, q)}
    else:
        assignment, orbits = orbit_partition(source, "U_twisted", q)
        orbit = next(orbits[assignment[x]] for x in source if x.is_torus_point()
                     and not orbits[assignment[x]]["partial"])
        values = {y: CycNum.zeta_power(e, p, q) for y, e in orbit["labels"].items()}
    f = FqFunction(preset, q, support, values)
    pts = window(domain_bound)
    got = _outcome(hecke_operator, f, mu, pts)
    want = _outcome(_pointwise_hecke_operator, f, mu, pts)
    assert (got if isinstance(got, type) else got.values) == want
    assert not translate_calls
    if domain_bound == (9, 8):
        assert want == {}
    elif domain_bound in [c[3] for c in _FAR_CASES]:
        # values below the support bound, 0 at the far torus point
        assert want and pts[-1] not in want


def test_hecke_operator_reads_off_from_the_support_of_f(monkeypatch):
    """On the q = 5 chain window, f * 1_(1) for the 5-point baby basis
    function at 0 reads off at most 5 x 30 products, one per support point
    and representative of K mu* K / K, not one per domain point."""
    pts = _chain_window(5)
    f = FqFunction("SL2", 5, (3,), fq_oracle.baby_basis("SL2", (1,), 5, pts)[(0,)].values)
    assert len(f.values) == 5 and len(coset_reps("SL2", (1,), 5)) == 30
    counts = []
    read_off = fq_oracle._read_off

    def counting(*args):
        out = read_off(*args)
        counts.append(len(out))
        return out

    monkeypatch.setattr(fq_oracle, "_read_off", counting)
    got = hecke_operator(f, (1,), pts)
    assert got.values and 0 < sum(counts) <= 5 * 30
    assert got.values == _pointwise_hecke_operator(f, (1,), pts)


def test_hecke_operator_gathers_when_the_support_outgrows_the_domain(monkeypatch):
    """With f on the 781 points of type <= 2 at q = 5 and the 156-point
    chain window as domain, f * 1_(1) reads off at most 156 x 30 products,
    one per domain point and representative, not one per support point."""
    pts = _chain_window(5)
    source = enumerate_gr_window("SL2", (2,), 5)
    f = FqFunction("SL2", 5, (3,), {y: CycNum.zeta_power(len(y.b), 5, 5) for y in source})
    assert len(f.values) == 781 and len(pts) == 156
    counts = []
    read_off = fq_oracle._read_off

    def counting(*args):
        out = read_off(*args)
        counts.append(len(out))
        return out

    monkeypatch.setattr(fq_oracle, "_read_off", counting)
    got = hecke_operator(f, (1,), pts)
    assert got.values and 0 < sum(counts) <= 156 * 30
    assert got.values == _pointwise_hecke_operator(f, (1,), pts)


def _act_loop_gm_averaging(f, points):
    """gm_averaging's function as one act per point and unit of F_q."""
    F = gf(f.q)
    out = {}
    for x in points:
        acc = CycNum.integer(0, F.p, f.q)
        for c in F.units():
            v = f.values.get(act(x, fq_oracle.d_torus(c)))
            if v is not None:
                acc = acc + v
        if not acc.is_zero():
            out[x] = acc
    return out


@pytest.mark.parametrize("preset,q", [("SL2", 2), ("SL2", 3), ("SL2", 4), ("SL2", 5),
                                      ("PGL2", 2), ("PGL2", 3), ("GL2", 2), ("GL2", 3)])
def test_gm_averaging_reads_the_window(preset, q, monkeypatch):
    """gm_averaging equals the act loop, in the caller's point order, and
    calls act nowhere: on the SL2 chain windows (a baby basis function,
    whose class is q at its label) and the PGL2/GL2 bound-2 windows (random
    values, class not taken), passed in the reverse of the order the
    window was built in; and on a window less one point of the support,
    which the Gm images then leave."""
    import random

    rng = random.Random(q)
    p = gf(q).p
    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    pts = _stabilizer_window(preset, q)
    orbit_partition(pts, "U_twisted", q)
    pts = pts[::-1]
    if preset == "SL2":
        f = FqFunction(preset, q, (3,), fq_oracle.baby_basis(preset, (1,), q, pts)[(1,)].values)
    else:
        f = FqFunction(preset, q, _BOUND_AND_MU[preset][0],
                       {x: CycNum.zeta_power(rng.randrange(p), p, q) for x in pts})
        monkeypatch.setattr(fq_oracle, "exponential_class", lambda g, points: {})
    want = _act_loop_gm_averaging(f, pts)
    calls = _count_calls(monkeypatch, "act")
    g, cls = fq_oracle.gm_averaging(f, pts)
    assert list(g.values.items()) == list(want.items()) and not calls
    if preset == "SL2":
        assert {lam: cyc_as_int(v) for lam, v in cls.items()} == {(1,): q}
    monkeypatch.setattr(fq_oracle, "exponential_class", lambda g, points: {})
    gone = next(x for x in pts if x.b and x in f.values)
    rest = [x for x in pts if x != gone]
    g, _cls = fq_oracle.gm_averaging(f, rest)
    assert list(g.values.items()) == list(_act_loop_gm_averaging(f, rest).items())


_PLAN_WINDOWS = [("SL2", q) for q in (2, 3, 4, 5)] + [
    (preset, q) for preset in ("PGL2", "GL2") for q in (2, 3, 4)]


@pytest.mark.parametrize("preset,q", _PLAN_WINDOWS)
def test_window_plans_match_the_product(preset, q):
    """A _Window's image of each point by each generator (its compiled
    plan) equals _product_point's: on the SL2 chain windows at the level
    of orbit_partition and of the chain's orbit_closure, and on the PGL2
    (2,) and GL2 (2, 0) windows at their own; with the points in both
    orders, so that the t>j plans extend their series as points need more
    terms, or have them already."""
    pts = _stabilizer_window(preset, q)
    bound = fq_oracle._window_bound(pts)
    kinds = set()
    for level_bound in [bound, (3,)] if preset == "SL2" else [bound]:
        gens = fq_oracle._window_generators(preset, "Iwahori_twisted", q, level_bound)
        kinds |= {_generator_kind(name) for _g, _e, name in gens}
        for order in (pts, pts[::-1]):
            win = fq_oracle._Window(order, gens, False)
            for j, x in enumerate(win.points):
                for i, (mat, _e, name) in enumerate(gens):
                    want = fq_oracle._product_point(x, mat, True)
                    assert win.product(j, i) == want, (name, x)
    assert kinds == {"x+", "x-", "t>"} | ({"gm", "torus"} if q > 2 else set())


@pytest.mark.parametrize("preset,q", [("SL2", 2), ("SL2", 3), ("SL2", 4), ("SL2", 5),
                                      ("PGL2", 2), ("PGL2", 3), ("PGL2", 4),
                                      ("GL2", 2), ("GL2", 3), ("GL2", 4)])
def test_no_twisted_generator_reaches_the_full_hermite_form(preset, q, monkeypatch):
    """A window's image of a point by any twisted generator takes a closed
    form or the t>j plan, never _hnf_point: on the SL2 chain windows at the
    level of orbit_partition and of the chain's orbit_closure, and on the
    PGL2 and GL2 bound-2 windows at their own."""
    if preset == "SL2":
        pts = _chain_window(q)
        bounds = [fq_oracle._window_bound(pts), (3,)]
    else:
        pts = enumerate_gr_window(preset, _BOUND_AND_MU[preset][0], q)
        bounds = [fq_oracle._window_bound(pts)]
    calls = _count_calls(monkeypatch, "_hnf_point")
    for bound in bounds:
        gens = list({repr(g): (g, e, name) for spec in _SPECS for g, e, name
                     in fq_oracle._window_generators(preset, spec, q, bound)}.values())
        win = fq_oracle._Window(pts, gens, False)
        for j in range(len(pts)):
            for i in range(len(gens)):
                win.product(j, i)
    assert not calls


def _reference_partition(points, spec, q):
    """orbit_partition with one _reference_orbit_bfs per orbit, by the
    spec's own generators, and the exponential tags read off act."""
    preset = points[0].preset
    bound = fq_oracle._window_bound(points)
    gens = fq_oracle._window_generators(preset, spec, q, bound)
    assignment, orbits = {}, []
    for seed in [x for x in points if x.is_torus_point()] + points:
        if seed in assignment:
            continue
        labels, partial, consistent = _reference_orbit_bfs([seed], gens, gf(q).p, set(points))
        torus = sorted(x.torus_coweight() for x in labels if x.is_torus_point())
        assignment.update(dict.fromkeys(labels, len(orbits)))
        orbits.append({"label": torus[0] if torus else None, "tag": "single",
                       "points": frozenset(labels), "partial": partial,
                       "labels": labels, "consistent": consistent})
    if spec == "U_exp_twisted":
        rd = build_root_datum(preset)
        for k, o in enumerate(orbits):
            lam = o["label"]
            if lam is None or not rd.is_dominant(lam) or o["partial"]:
                continue
            other = assignment.get(act(torus_point(preset, q, lam), x_plus(q, 1, -1)))
            if other is not None and other != k and not orbits[other]["partial"]:
                o["tag"], orbits[other]["tag"], orbits[other]["label"] = "closed", "open", lam
    return assignment, orbits


def _partition_view(partition):
    assignment, orbits = partition
    return assignment, [(o["label"], o["tag"], o["points"], o["partial"], o["consistent"],
                         list(o["labels"].items())) for o in orbits]


@pytest.mark.parametrize("preset", sorted(_ROW_CASES))
@pytest.mark.parametrize("q", [2, 3, 4])
def test_window_table_leaks_nothing_between_specs(preset, q, monkeypatch):
    """Each spec's partition of a window equals the one built on
    _reference_orbit_bfs (labels and their order, both flags, tags and
    points), on a cold window and on one each other spec has warmed."""
    pts = enumerate_gr_window(preset, _ROW_CASES[preset][0], q)
    tags = set()
    for spec in _SPECS:
        want = _partition_view(_reference_partition(pts, spec, q))
        tags |= {o[1] for o in want[1]}
        for warm in [None] + [s for s in _SPECS if s != spec]:
            monkeypatch.setattr(fq_oracle, "_partition_cache", {})
            if warm:
                orbit_partition(pts, warm, q)
            assert _partition_view(orbit_partition(pts, spec, q)) == want, (spec, warm)
    assert tags == {"single", "closed", "open"}


@pytest.mark.parametrize("q", [3, 4])
def test_exponential_tags_do_not_depend_on_the_generator_order(q):
    """The U_exp_twisted split tags read x_+(t^-1) t^lam off the window's
    generator of that name and matrix (at q = 4 one of two named x+-1),
    wherever it sits in the list: reversing the list keeps every orbit,
    tag and label."""
    pts = _chain_window(q)
    bound = fq_oracle._window_bound(pts)
    gens = fq_oracle._window_generators("SL2", "Iwahori_twisted", q, bound)

    def tags(gs):
        _assignment, orbits = fq_oracle._Window(pts, gs, False).partition("U_exp_twisted")
        return sorted((o["tag"], o["label"], sorted(o["points"])) for o in orbits)

    got = tags(gens)
    assert {tag for tag, _l, _p in got} == {"closed", "open", "single"}
    assert tags(gens[::-1]) == got


def test_window_table_translates_each_pair_once(monkeypatch):
    """Across the U_twisted and U_exp_twisted partitions of a chain window,
    the orbit searches compute each (point, generator) translate once and
    ask each (shape, generator) stabilizer test once. The exponential tags
    read the image of x_+(t^-1) on torus points from the same table."""
    from collections import Counter

    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    pts = _chain_window(3)
    translates, tests = Counter(), Counter()
    plan, fixes = fq_oracle._plan, fq_oracle._fixes

    def counting_plan(q, mat):
        image = plan(q, mat)

        def counting(point):
            translates[point, repr(mat)] += 1
            return image(point)
        return counting

    def counting_fixes(point, mat):
        tests[(point.a, point.c, point.b[:1] and point.b[0][0]), repr(mat)] += 1
        return fixes(point, mat)

    monkeypatch.setattr(fq_oracle, "_plan", counting_plan)
    monkeypatch.setattr(fq_oracle, "_fixes", counting_fixes)
    for spec in ("U_twisted", "U_exp_twisted"):
        orbit_partition(pts, spec, 3)
    assert translates and max(translates.values()) == 1
    assert tests and max(tests.values()) == 1


def _sl2_window(q):
    return enumerate_gr_window("SL2", (1,), q)


def _pgl2_window(q):
    return enumerate_gr_window("PGL2", (1,), q)


_SL2_ZERO = FqFunction("SL2", 3, (1,), {})
# a function over F_2 whose values sit on points over F_3
_F3_ON_F2 = FqFunction("SL2", 2, (2,), dict.fromkeys(_sl2_window(3), 1))


@pytest.mark.parametrize("call", [
    lambda: orbit_partition(_sl2_window(3) + _sl2_window(2), "U_twisted", 3),
    lambda: hecke_operator(FqFunction("SL2", 3, (1,), dict.fromkeys(_sl2_window(3), 1)),
                           (1,), _sl2_window(2)),
    lambda: fq_oracle.whittaker_space("SL2", (1,), 3, _sl2_window(2)),
    lambda: fq_oracle.baby_basis("PGL2", (1,), 3, enumerate_gr_window("SL2", (2,), 3)),
    lambda: baby_averaging(_SL2_ZERO, _pgl2_window(3)),
    lambda: fq_oracle.gm_averaging(_SL2_ZERO, _pgl2_window(3)),
    lambda: fq_oracle.exponential_class(_SL2_ZERO, _pgl2_window(3)),
    lambda: hecke_operator(_F3_ON_F2, (1,), enumerate_gr_window("SL2", (2,), 2)),
    lambda: baby_averaging(_F3_ON_F2, enumerate_gr_window("SL2", (2,), 2)),
    lambda: fq_oracle.gm_averaging(_F3_ON_F2, enumerate_gr_window("SL2", (2,), 2)),
    lambda: fq_oracle.exponential_class(_F3_ON_F2, enumerate_gr_window("SL2", (2,), 2)),
    lambda: character_labeling(_pgl2_window(3), "SL2", 3, "U_twisted", 8,
                               torus_point("PGL2", 3, (0,))),
    lambda: orbit_closure("SL2", 2, [torus_point("SL2", 3, (0,))], "U_twisted", (1,)),
    lambda: orbit_closure("SL2", 3, [torus_point("PGL2", 3, (0,))], "U_twisted", (1,)),
], ids=["orbit_partition", "hecke_operator", "whittaker_space", "baby_basis",
        "baby_averaging", "gm_averaging", "exponential_class",
        "hecke_operator-values", "baby_averaging-values", "gm_averaging-values",
        "exponential_class-values", "character_labeling",
        "orbit_closure-field", "orbit_closure-preset"])
def test_points_of_another_field_or_preset_are_oracle_errors(call, monkeypatch):
    # these used to return orbits, values, classes or a basis over the wrong
    # points, or end in a bare KeyError; those on _F3_ON_F2 returned zero
    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    with pytest.raises(OracleError, match="among"):
        call()


@pytest.mark.parametrize("call,match", [
    (lambda: fq_oracle.gm_averaging(FqFunction("SL2", 3, (1,), {}), []), "empty window"),
    (lambda: fq_oracle.exp_action_matrix("SL2", (1,), (1,), 3, []), "empty window"),
    (lambda: fq_oracle.baby_basis("SL2", (1,), 3, []), r"torus point t\^\(0,\)"),
    (lambda: fq_oracle.baby_basis("GL2", (1, 0), 3, enumerate_gr_window("GL2", (1, -1), 3)),
     r"torus point t\^\(1, 0\)"),
], ids=["gm_averaging", "exp_action_matrix", "baby_basis-empty", "baby_basis-GL2"])
def test_empty_windows_and_missing_torus_points_are_oracle_errors(call, match, monkeypatch):
    # these used to end in a bare IndexError or KeyError
    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    with pytest.raises(OracleError, match=match):
        call()


@pytest.mark.parametrize("value", [1, 0])
def test_exponential_class_on_a_boundary_orbit(value, monkeypatch):
    # without t^(2,) the SL2 window below (2,) at q = 2 has one exponential
    # orbit that leaves it: a nonzero value there is an error, zero is no class
    monkeypatch.setattr(fq_oracle, "_partition_cache", {})
    points = [p for p in enumerate_gr_window("SL2", (2,), 2)
              if p != torus_point("SL2", 2, (2,))]
    _assignment, orbits = orbit_partition(points, "U_exp_twisted", 2)
    partial = [o for o in orbits if o["partial"]]
    assert len(partial) == 1
    f = FqFunction("SL2", 2, (2,), dict.fromkeys(partial[0]["points"],
                                                 CycNum.integer(value, 2, 2)))
    if value:
        with pytest.raises(OracleError, match="nonzero value on a boundary orbit"):
            fq_oracle.exponential_class(f, points)
    else:
        assert fq_oracle.exponential_class(f, points) == {}
