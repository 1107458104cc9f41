"""Root data: Cartan integers, finite Weyl groups, duality, adjoint maps."""

import itertools

import pytest

from expflag.root_datum import RootDatumError, build_root_datum

PRESETS = ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2"]

EXPECTED = {
    "SL2": (1, 2, 1),  # rank, |W0|, #positive roots
    "PGL2": (1, 2, 1),
    "GL2": (1, 2, 1),
    "SL3": (2, 6, 3),
    "PGL3": (2, 6, 3),
    "Sp4": (2, 8, 4),
    "G2": (2, 12, 6),
}


@pytest.mark.parametrize("name", PRESETS)
def test_preset_shapes(name):
    rd = build_root_datum(name)
    rank, order, npos = EXPECTED[name]
    assert rd.rank == rank
    assert len(list(rd.weyl_elements())) == order
    assert len(rd.positive_roots) == npos


@pytest.mark.parametrize("name", PRESETS)
def test_cartan_integers(name):
    rd = build_root_datum(name)
    for i in range(rd.rank):
        assert rd.pair(rd.simple_roots[i], rd.simple_coroots[i]) == 2
        for j in range(rd.rank):
            if i != j:
                assert rd.pair(rd.simple_roots[i], rd.simple_coroots[j]) <= 0


@pytest.mark.parametrize("name", PRESETS)
def test_simple_reflections_are_involutions(name):
    rd = build_root_datum(name)
    lam = tuple(range(1, rd.char_lattice_rank + 1))
    for s in rd.simple_reflections:
        assert rd.apply_coweight(s, rd.apply_coweight(s, lam)) == lam


@pytest.mark.parametrize("name", PRESETS)
def test_two_rho_pairs_to_two_on_simples(name):
    rd = build_root_datum(name)
    for cv in rd.simple_coroots:
        assert rd.pair(rd.two_rho, cv) == 2


@pytest.mark.parametrize("name", PRESETS)
def test_longest_element_negates_positives(name):
    rd = build_root_datum(name)
    w0 = rd.longest_element()
    for root in rd.positive_roots:
        img = rd.apply_weight(w0, root)
        assert tuple(-x for x in img) in rd.positive_root_set


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_dominance_of_weyl_orbit(name):
    rd = build_root_datum(name)
    lam = tuple(2 for _ in range(rd.char_lattice_rank))
    dominants = {
        rd.apply_coweight(v, lam)
        for v in rd.weyl_elements()
        if rd.is_dominant(rd.apply_coweight(v, lam))
    }
    assert dominants == {lam}


@pytest.mark.parametrize("name", ["SL2", "SL3", "Sp4"])
def test_adjoint_embedding_respects_pairings(name):
    rd = build_root_datum(name)
    adj = rd.adjoint()
    lam = tuple(1 for _ in range(rd.char_lattice_rank))
    lam_adj = rd.to_adjoint_coords(lam)
    for i in range(rd.rank):
        assert rd.pair(rd.simple_roots[i], lam) == adj.pair(
            adj.simple_roots[i], lam_adj
        )


def test_spec_with_an_unknown_key_is_rejected():
    # roots and coroots pair by the dot product; a pairing key is not read,
    # so it must not be accepted and silently ignored
    spec = {"name": "SL2'", "simple_roots": [(1,)], "simple_coroots": [(1,)],
            "pairing": [[2]]}
    with pytest.raises(RootDatumError, match="pairing"):
        build_root_datum(spec)
    sl2 = {"name": "SL2", "simple_roots": [(2,)], "simple_coroots": [(1,)],
           "cartan": [[2]]}
    assert build_root_datum(sl2).cartan == [[2]]


def test_a_non_root_is_rejected():
    rd = build_root_datum("SL3")
    with pytest.raises(RootDatumError, match=r"\(5, 5\) is not a root"):
        rd.reflection((5, 5))
    with pytest.raises(RootDatumError, match=r"\(5, 5\) is not a root"):
        rd.apply_weight(rd.identity, (5, 5))


def test_reflection_accepts_a_list():
    rd = build_root_datum("SL3")
    assert rd.reflection([2, -1]) == rd.reflection((2, -1)) == rd.simple_reflections[0]
    with pytest.raises(RootDatumError, match=r"\(1, -1\) is not a root"):
        rd.reflection([1, -1])


def test_apply_weight_accepts_a_list():
    rd = build_root_datum("SL3")
    s0 = rd.simple_reflections[0]
    assert rd.apply_weight(s0, [2, -1]) == rd.apply_weight(s0, (2, -1)) == (-2, 1)
    with pytest.raises(RootDatumError, match=r"\(5, 5\) is not a root"):
        rd.apply_weight(rd.identity, [5, 5])


def test_unknown_preset_rejected():
    with pytest.raises(RootDatumError, match=r"unknown preset 'E9'"):
        build_root_datum("E9")


# ---- integer coordinates on reducible and non-semisimple data

_IRREDUCIBLE = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
}


def _block_cartan(*names):
    """The block-diagonal Cartan matrix of a product of irreducible types."""
    blocks = [_IRREDUCIBLE[n] for n in names]
    size = sum(len(b) for b in blocks)
    out, at = [[0] * size for _ in range(size)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def _reducible(names, adjoint):
    from expflag.root_datum import _adjoint_preset, _simply_connected

    make = _adjoint_preset if adjoint else _simply_connected
    return build_root_datum(make("x".join(names) + ("_adj" if adjoint else ""),
                                 _block_cartan(*names)))


_PRODUCTS = [("A1", "A1"), ("A2", "A1"), ("A1", "G2"), ("B2", "A1")]
_REDUCIBLE = [(names, adjoint) for names in _PRODUCTS for adjoint in (False, True)]
_REDUCIBLE_IDS = ["x".join(n) + ("-adj" if a else "-sc") for n, a in _REDUCIBLE]


def _box(radius, n):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def _lattice_sum(coeffs, basis):
    return tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(len(basis[0])))


def _simple_root_coords_by_search(rd):
    """Each root's simple-root coordinates, found in the box [-3, 3]^rank."""
    found = {}
    for c in _box(3, rd.rank):
        r = _lattice_sum(c, rd.simple_roots)
        if r in rd.coroot_of:
            found[r] = c
    return found


def _highest_by_component(rd, coords):
    """The root of greatest height in each Dynkin component, the components
    ordered by their least simple index."""
    comps, seen = [], set()
    for i in range(rd.rank):
        if i in seen:
            continue
        comp, stack = set(), [i]
        while stack:
            j = stack.pop()
            if j not in comp:
                comp.add(j)
                stack.extend(k for k in range(rd.rank) if rd.cartan[j][k] and k != j)
        seen |= comp
        comps.append(comp)
    out = []
    for comp in comps:
        inside = [r for r in rd.positive_roots
                  if all(i in comp for i, c in enumerate(coords[r]) if c)]
        out.append(max(inside, key=lambda r: sum(coords[r])))
    return out


@pytest.mark.parametrize("names,adjoint", _REDUCIBLE, ids=_REDUCIBLE_IDS)
def test_root_coordinates_on_reducible_data(names, adjoint):
    rd = _reducible(names, adjoint)
    coords = _simple_root_coords_by_search(rd)
    assert rd.root_coords == coords
    assert set(rd.positive_roots) == {r for r, c in coords.items() if min(c) >= 0}
    for r in rd.roots:
        assert rd.height(r) == sum(coords[r])
    assert rd.highest_roots() == _highest_by_component(rd, coords)
    assert len(rd.highest_roots()) == len(names)


_COORD_DATA = [*(("preset", g) for g in PRESETS if g != "GL2"),
               *(("reducible", r) for r in _REDUCIBLE)]
_COORD_IDS = [g for g in PRESETS if g != "GL2"] + _REDUCIBLE_IDS


def _datum(kind, spec):
    return build_root_datum(spec) if kind == "preset" else _reducible(*spec)


@pytest.mark.parametrize("kind,spec", _COORD_DATA, ids=_COORD_IDS)
def test_coroot_coords_match_box_search(kind, spec):
    rd = _datum(kind, spec)
    # every coroot combination with coefficients in [-10, 10] that lands in
    # the box [-2, 2]^n; no coweight of that box has larger coefficients
    by_search = {}
    for c in _box(10, rd.rank):
        lam = _lattice_sum(c, rd.simple_coroots)
        if max(map(abs, lam)) <= 2:
            by_search[lam] = c
    for lam in _box(2, rd.char_lattice_rank):
        assert rd.coroot_coords(lam) == by_search.get(lam), lam


@pytest.mark.parametrize("kind,spec", _COORD_DATA, ids=_COORD_IDS)
def test_from_adjoint_coords_match_box_search(kind, spec):
    rd = _datum(kind, spec)
    # every coweight of [-10, 10]^n whose adjoint coordinates land in
    # [-2, 2]^rank; no preimage of that box lies outside it
    by_search = {}
    for lam in _box(10, rd.char_lattice_rank):
        v = rd.to_adjoint_coords(lam)
        if max(map(abs, v)) <= 2:
            by_search[v] = lam
    for v in _box(2, rd.rank):
        assert rd.from_adjoint_coords(v) == by_search.get(v), v


def test_coroot_coords_on_a_central_torus():
    rd = build_root_datum("GL2")
    assert rd.coroot_coords((1, 1)) is None
    assert rd.coroot_coords((1, -1)) == (1,)
    assert rd.coroot_coords((2, 0)) is None
    with pytest.raises(RootDatumError, match="semisimple"):
        rd.from_adjoint_coords((1,))


# ---- the dominance interval

# the presets, and SL4, PGL4, Spin7 (B3) and Sp6 (C3)
_RANK_THREE = [(("A3",), False), (("A3",), True), (("B3",), False), (("C3",), False)]
_INTERVAL_DATA = [*(("preset", g) for g in PRESETS), *(("reducible", r) for r in _RANK_THREE)]
_INTERVAL_IDS = PRESETS + ["A3-sc", "A3-adj", "B3-sc", "C3-sc"]


def _box_dominant_below(rd, mu):
    """The dominant mu - sum_j c_j alpha_j^vee over the box 0 <= c_j <= h + 1,
    h = <2 rho, mu>: a dominant nu = mu - sum_j c_j alpha_j^vee has
    2 sum_j c_j = <2 rho, mu - nu> <= h."""
    cap = rd.pair(rd.two_rho, mu) + 1
    out = set()
    for c in itertools.product(range(cap + 1), repeat=rd.rank):
        nu = tuple(m - s for m, s in zip(mu, _lattice_sum(c, rd.simple_coroots)))
        if rd.is_dominant(nu):
            out.add(nu)
    return sorted(out)


@pytest.mark.parametrize("kind,spec", _INTERVAL_DATA, ids=_INTERVAL_IDS)
def test_dominant_below_matches_box_scan(kind, spec):
    rd = _datum(kind, spec)
    if rd.rank == rd.char_lattice_rank:
        tops = rd.dominant_window((2 if rd.rank < 3 else 1,) * rd.rank)
    else:  # GL2: central parts from -2 to 4
        tops = [(a, c) for a in range(-1, 3) for c in range(-1, a + 1)]
    for mu in tops:
        below = rd.dominant_below(mu)
        assert below == _box_dominant_below(rd, mu), mu
        assert all(rd.dominance_leq(nu, mu) for nu in below)
        assert mu in below


def test_dominant_below_rejects_a_non_dominant_coweight():
    with pytest.raises(RootDatumError, match="not dominant"):
        build_root_datum("SL3").dominant_below((1, 0))


# ---- the finite-type test of the Cartan matrix

def _sc(cartan):
    from expflag.root_datum import _simply_connected

    return build_root_datum(_simply_connected("X", cartan))


@pytest.mark.parametrize("cartan", [
    [[2, -2], [-2, 2]],
    [[2, -3], [-3, 2]],
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],
    [[2, -1, 0], [-1, 2, -3], [0, -1, 2]],
], ids=["affine-A1", "hyperbolic", "affine-A2", "non-symmetrizable", "affine-G2"])
def test_cartan_matrix_not_of_finite_type_is_rejected(cartan):
    with pytest.raises(RootDatumError, match=r"^Cartan matrix not of finite type$"):
        _sc(cartan)


@pytest.mark.parametrize("cartan,message", [
    ([[3, -1], [-1, 2]], "Cartan diagonal must be 2"),
    ([[2, 1], [1, 2]], "Cartan off-diagonal must be <= 0"),
    ([[2, 0], [-1, 2]], "Cartan zero pattern must be symmetric"),
], ids=["diagonal", "off-diagonal", "zero-pattern"])
def test_cartan_matrix_axioms_are_checked(cartan, message):
    with pytest.raises(RootDatumError, match=rf"^{message}$"):
        _sc(cartan)


@pytest.mark.parametrize("names,order", [(("A3",), 24), (("B3",), 48), (("G2", "A1"), 24)],
                         ids=["A3", "B3", "G2xA1"])
def test_cartan_matrix_of_finite_type_is_accepted(names, order):
    rd = _sc(_block_cartan(*names))
    assert len(rd.weyl_elements()) == order


# ---- coweights of the wrong rank

@pytest.mark.parametrize("name,good,short,long", [
    ("SL3", (1, 1), (1,), (1, 1, -7)),
    ("GL2", (1, 0), (1,), (1, 0, 0)),
], ids=["SL3", "GL2"])
def test_coweight_of_the_wrong_rank_is_rejected(name, good, short, long):
    rd = build_root_datum(name)
    takes = rf"takes {rd.char_lattice_rank} coordinates"
    for bad in (short, long):
        for call in (
            lambda: rd.is_dominant(bad),
            lambda: rd.dominant_below(bad),
            lambda: rd.dominance_leq(good, bad),
            lambda: rd.dominance_leq(bad, good),
            lambda: rd.dominant_window(bad),
            lambda: rd.coroot_coords(bad),
            lambda: rd.is_strictly_dominant(bad),
            lambda: rd.to_adjoint_coords(bad),
        ):
            with pytest.raises(RootDatumError, match=takes):
                call()
        # adjoint coordinates take rank entries; GL2 is refused as not semisimple
        with pytest.raises(RootDatumError, match=takes if rd.rank == len(good) else "semisimple"):
            rd.from_adjoint_coords(bad)
    assert rd.is_dominant(good)


def test_wrong_rank_coweight_reaches_no_iwahori_orbit():
    from expflag.affine_weyl import AffineWeyl
    from expflag.strata import iwahori_orbits_in_spherical

    W = AffineWeyl(build_root_datum("SL3"))
    with pytest.raises(RootDatumError, match="takes 2 coordinates"):
        iwahori_orbits_in_spherical(W, (1, 1, 3))


# ---- the sign of an affine root on the base alcove

def _sign_at_rational_barycenter(rd, ar):
    """The sign of ar at rho-hat / h, with rho-hat the half-sum of the
    positive coroots and h = 1 + the greatest height of a highest root,
    evaluated in Fractions."""
    from fractions import Fraction

    h = 1 + max(rd.height(t) for t in rd.highest_roots())
    rho_hat = [Fraction(sum(rd.coroot_of[r][k] for r in rd.positive_roots), 2)
               for k in range(rd.char_lattice_rank)]
    val = sum(a * Fraction(c, h) for a, c in zip(ar.finite_part, rho_hat)) + ar.level
    return (val > 0) - (val < 0)


@pytest.mark.parametrize("kind,spec", [
    *(("preset", g) for g in PRESETS),
    *(("reducible", ((n,), False)) for n in ("A3", "B3", "C3")),
], ids=PRESETS + ["A3", "B3", "C3"])
def test_sign_on_alcove_matches_the_rational_barycenter(kind, spec):
    from expflag.affine_weyl import AffineRoot, AffineWeyl, AffineWeylError

    rd = _datum(kind, spec)
    W = AffineWeyl(rd)
    for a in rd.roots:
        for n in range(-6, 7):
            ar = AffineRoot(a, n)
            assert W.sign_on_alcove(ar) == _sign_at_rational_barycenter(rd, ar), ar
    with pytest.raises(AffineWeylError, match="vanishes"):
        W.sign_on_alcove(AffineRoot((0,) * rd.char_lattice_rank, 0))


# ---- the integer determinant

def _fraction_det(m):
    """Reference: Gaussian elimination in exact rationals."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def test_bareiss_det_matches_rational_elimination():
    import random

    from expflag.root_datum import _det

    rng = random.Random(0)
    assert _det([]) == 1
    for _ in range(2000):
        n = rng.randint(1, 5)
        # small entries with many zeros, so pivots vanish and rows swap
        m = [[rng.choice([0, 0, 0, rng.randint(-4, 4)]) for _ in range(n)]
             for _ in range(n)]
        got = _det(m)
        assert type(got) is int and got == _fraction_det(m), m


@pytest.mark.parametrize("name,bound", [("SL2", (3,)), ("SL3", (2, 2)), ("GL2", (2, 0))])
def test_dominant_window_memo_hands_out_fresh_lists(name, bound):
    """dominant_window is built once per bound; each caller gets its own
    list, so mutating one leaks into neither the memo nor another caller."""
    rd = build_root_datum(name)
    first = rd.dominant_window(bound)
    want = list(first)
    first.append((99,) * len(bound))
    first.sort(reverse=True)
    second = rd.dominant_window(list(bound))
    assert second == want and second is not first
    second.clear()
    assert rd.dominant_window(bound) == want
