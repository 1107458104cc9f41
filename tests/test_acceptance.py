"""End-to-end acceptance suites.

Each test is an exact claim: Weyl-combinatorics tables, Hecke algebra
relations, the cellular fiber tables, the dimension bound, oracle versus
generic structure constants, rank-one freeness, the Whittaker averaging
chain, and truncation soundness of the finite-field model.
"""

import itertools
import random

import pytest

from expflag.root_datum import build_root_datum
from expflag.affine_weyl import AffineWeyl, ExpLabel
from expflag.coefficients import QPoly, qpoly_exact_div
from expflag.exp_module import ExpModule, fiber_class, key_lemma_class
from expflag.hecke import HeckeElement, hecke_mul, t_basis
from expflag.spherical import (
    lift,
    poincare_poly,
    spherical_mul,
    unit_indicator,
)
from expflag.strata import orbit_shape
from expflag import fq_oracle
from expflag.fq_oracle import (
    FqFunction,
    act,
    baby_averaging,
    baby_basis,
    coset_reps,
    cyc_as_int,
    enumerate_gr_window,
    exp_action_matrix,
    gm_averaging,
    hecke_operator,
    interpolate_structure_constants,
    orbit_closure,
    orbit_partition,
    torus_point,
    translate,
    whittaker_action,
    whittaker_space,
    x_plus,
)


def _ctx(name):
    return AffineWeyl(build_root_datum(name))


def _specialized_action(M, lam, mu, q):
    gen = M.spherical_action_basis(lam, mu).support
    return {nu: c.specialize(q) for nu, c in gen.items() if c.specialize(q)}


# -- criterion 1: Weyl combinatorics ----------------------------------------


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_left_maximality_criteria_agree(name):
    W = _ctx(name)
    n = 0
    for w in W.enumerate_elements(6):
        assert W.is_left_w0_maximal(w) == W.is_left_w0_maximal_by_descents(w)
        n += 1
    assert n > 0


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_zero_w_f0_is_strictly_dominant_translations(name):
    W = _ctx(name)
    f0 = W.facet_f0()
    for w in W.enumerate_elements(6):
        member = W.is_right_minimal(w, f0) and W.is_left_w0_maximal(w)
        assert member == W.strictly_dominant_translation(w)


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_translation_length_is_two_rho_pairing(name):
    W = _ctx(name)
    rd = W.rd
    for lam in rd.dominant_below((3,) * rd.rank):
        assert W.length(W.translation(lam)) == rd.pair(rd.two_rho, lam)


# -- criterion 2: Hecke relations -------------------------------------------


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_hecke_associativity_and_braid(name):
    W = _ctx(name)
    rng = random.Random(7)
    elems = W.enumerate_elements(8 if W.rd.rank == 1 else 5)
    n = 0
    while n < 500:
        x, y, z = (rng.choice(elems) for _ in range(3))
        a, b, c = t_basis(W, x), t_basis(W, y), t_basis(W, z)
        assert hecke_mul(hecke_mul(a, b), c) == hecke_mul(a, hecke_mul(b, c))
        n += 1
    # braid relations on the generators: alternating products of length m,
    # where m is the order of s_i s_j
    num = len(W.simples)
    checked = 0
    for i in range(num):
        for j in range(i + 1, num):
            prod = W.mul(W.simples[i], W.simples[j])
            cur, m = prod, 1
            while cur != W.identity and m <= 8:
                cur = W.mul(cur, prod)
                m += 1
            if cur != W.identity:
                # infinite braid order (e.g. rank-one affine pairs)
                continue
            left = t_basis(W, W.identity)
            right = t_basis(W, W.identity)
            for k in range(m):
                left = hecke_mul(left, t_basis(W, W.simples[i if k % 2 == 0 else j]))
                right = hecke_mul(right, t_basis(W, W.simples[j if k % 2 == 0 else i]))
            assert left == right
            checked += 1
    if len(W.simples) > 2:
        assert checked > 0


def _assert_full_product_factorises(W, a, b, ab):
    """hecke_mul(lift(a), lift(b)) is P_W0(q) times lift(ab), coefficientwise.

    The full double-coset product is the reference that spherical_mul, which
    sums over one element per W0-coset, must agree with.
    """
    P = poincare_poly(W)
    full = hecke_mul(lift(a), lift(b))
    quotient = {}
    for w, c in full.support.items():
        # raises DivisionNotExact unless P divides the coefficient
        quotient[w] = qpoly_exact_div(c, P)
    assert HeckeElement(W, quotient) == lift(ab)


@pytest.mark.parametrize("name", ["SL2", "SL3", "Sp4"])
def test_spherical_divisibility_and_commutativity(name):
    W = _ctx(name)
    rd = W.rd
    window = rd.dominant_below((2,) * rd.rank)
    P = poincare_poly(W)
    for lam, mu in itertools.combinations_with_replacement(window, 2):
        a, b = unit_indicator(W, lam), unit_indicator(W, mu)
        ab = spherical_mul(a, b)
        _assert_full_product_factorises(W, a, b, ab)
        assert ab == spherical_mul(b, a)
        assert not P.is_zero()


# small windows of dominant coweights, GL2 included: spherical_mul needs no
# semisimple datum
FACTORISATION_WINDOWS = {
    "SL2": [(0,), (1,), (2,)],
    "PGL2": [(0,), (1,), (2,)],
    "GL2": [(0, 0), (1, 0), (1, -1), (2, 1)],
    "SL3": [(0, 0), (1, 1), (1, 2)],
    "Sp4": [(0, 0), (1, 1), (1, 2)],
    "G2": [(0, 0), (1, 2)],
}


@pytest.mark.parametrize("name", list(FACTORISATION_WINDOWS))
def test_spherical_mul_matches_full_double_coset_product(name):
    W = _ctx(name)
    window = FACTORISATION_WINDOWS[name]
    assert all(W.rd.is_dominant(mu) for mu in window)
    for lam, mu in itertools.combinations_with_replacement(window, 2):
        a, b = unit_indicator(W, lam), unit_indicator(W, mu)
        _assert_full_product_factorises(W, a, b, spherical_mul(a, b))


# -- criterion 3: cell table ------------------------------------------------


def test_finite_sl2_cell_table():
    W = _ctx("SL2")
    e, s = W.identity, W.simples[0]
    le = ExpLabel("coset", e)
    lz = ExpLabel("zero", s)
    ls = ExpLabel("coset", s)
    q = QPoly({1: 1})
    qm1 = QPoly({1: 1, 0: -1})
    qm2 = QPoly({1: 1, 0: -2})
    zero, one = QPoly({}), QPoly({0: 1})
    table = {
        le: (zero, qm1, one),
        lz: (one, qm2, one),
        ls: (one, qm1, zero),
    }
    for src, row in table.items():
        got = tuple(key_lemma_class(W, tgt, src, 0) for tgt in (le, lz, ls))
        assert got == row
        assert got[0] + got[1] + got[2] == q


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_partition_invariant_sums_to_q(name):
    W = _ctx(name)
    q = QPoly({1: 1})
    bound = 5 if W.rd.rank == 1 else 3
    labels = W.enumerate_exp_labels(bound)
    label_set = W.enumerate_exp_labels(bound + 2)
    for w in labels:
        for i in range(len(W.simples)):
            total = QPoly({})
            for tgt in label_set:
                total = total + key_lemma_class(W, tgt, w, i)
            assert total == q, (name, W.label_to_json(w), i)


# -- criterion 4: fiber engine ----------------------------------------------


def test_punctured_gm_fibers_and_euler_conservation():
    W = _ctx("SL2")
    e, s = W.identity, W.simples[0]
    src = ExpLabel("zero", s)
    targets = [ExpLabel("coset", e), ExpLabel("coset", s), ExpLabel("zero", s)]
    fibers = [fiber_class(src, [0], t, W) for t in targets]
    qm1 = QPoly({1: 1, 0: -1})
    qm2 = QPoly({1: 1, 0: -2})
    assert fibers == [qm1, qm1, qm2]
    # total class: |source| * |line| = (q-1) q
    a0 = W.facet_a0()
    total = QPoly({})
    for t, f in zip(targets, fibers):
        total = total + f * orbit_shape(W, t, a0).class_in_q()
    assert total == qm1 * QPoly({1: 1})


# -- criterion 5: dimension bound -------------------------------------------


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3"])
def test_convolution_fiber_dimension_bound(name):
    rd = build_root_datum(name)
    M = ExpModule(rd)
    window = rd.dominant_below((2,) * rd.rank)
    n = 0
    for lam in window:
        for mu in window:
            if lam == mu:
                continue
            assert M.dimension_bound_check(lam, mu), (name, lam, mu)
            n += 1
    assert n > 0


# -- criterion 6: oracle versus generic -------------------------------------


def _oracle_row(preset, lam, mu, q):
    raw = whittaker_action(preset, lam, mu, q)
    out = {}
    for (src, nu), v in raw.items():
        if src == lam:
            iv = cyc_as_int(v)
            if iv:
                out[nu] = iv
    return out


@pytest.mark.parametrize("preset", ["SL2", "PGL2"])
def test_oracle_counts_match_generic_structure_constants(preset):
    rd = build_root_datum(preset)
    M = ExpModule(rd)
    window = rd.dominant_below((2,))
    for lam in window:
        for mu in window:
            for q in (2, 3, 4, 5):
                assert _oracle_row(preset, lam, mu, q) == _specialized_action(
                    M, lam, mu, q
                ), (preset, lam, mu, q)


@pytest.mark.parametrize("preset", ["SL2", "PGL2"])
def test_interpolation_recovers_generic_polynomials(preset):
    rd = build_root_datum(preset)
    M = ExpModule(rd)
    window = rd.dominant_below((2,))
    q_list = [2, 3, 4, 5, 7, 9]
    for lam in window:
        for mu in window:
            gen = M.spherical_action_basis(lam, mu).support
            # the fit's degree bound <2 rho, mu> = dim Gr^mu holds generically
            deg = max((c.degree() for c in gen.values()), default=0)
            assert deg <= rd.pair(rd.two_rho, mu)
            consts = interpolate_structure_constants(preset, lam, mu, q_list)
            assert consts == dict(gen), (preset, lam, mu)


def test_enumerated_exponential_model_matches_generic():
    # direct point-count confirmation, independent of the Iwasawa shortcut
    cases = [("SL2", 2, (1,), (1,)), ("PGL2", 3, (1,), (1,))]
    cases += [("PGL2", q, bound, mu) for q in (2, 4) for bound, mu in (((2,), (1,)), ((1,), (2,)))]
    for preset, q, bound, mu in cases:
        rd = build_root_datum(preset)
        M = ExpModule(rd)
        amb = bound[0] + mu[0] + 2
        pts = enumerate_gr_window(preset, (amb,), q)
        if preset == "PGL2":
            pts = pts + enumerate_gr_window(preset, (amb - 1,), q)
        mat = exp_action_matrix(preset, bound, mu, q, pts)
        for lam in rd.dominant_below(bound):
            got = {}
            for (src, nu), v in mat.items():
                if src == lam:
                    iv = cyc_as_int(v)
                    if iv:
                        got[nu] = iv
            assert got == _specialized_action(M, lam, mu, q), (preset, q, lam, mu)


# -- criterion 7: rank-one freeness -----------------------------------------


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3"])
def test_rank_one_freeness(name):
    rd = build_root_datum(name)
    M = ExpModule(rd)
    window = rd.dominant_below((2,) * rd.rank)
    report = M.verify_rank_one(window)
    assert QPoly.from_json(report["determinant"]) == QPoly({0: 1})


# -- criterion 8: Whittaker chain -------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_whittaker_combinatorics_lemma(q):
    preset = "SL2"
    # orbit sizes grow like q^(2 nu + 1); cap the top basepoint at larger q
    top = 3 if q <= 3 else 2
    for nu in range(-2, top):
        dominant = nu >= 0
        base = torus_point(preset, q, (nu,))
        # character of the U(F)-stabilizer: the level -1 root group fixes
        # the point exactly when nu is not dominant
        fixes = act(base, x_plus(q, 1, -1)) == base
        assert fixes == (not dominant)
        # character of the twisted unipotent stabilizer, by transport
        pts = orbit_closure(preset, q, [base], "U_twisted", (abs(nu) + 2,))
        level_hi = 2 * (2 * (abs(nu) + 2) + 1) + 2
        _, consistent = fq_oracle.character_labeling(
            pts, preset, q, "U_twisted", level_hi, base
        )
        assert consistent == dominant
        if dominant:
            # the twisted orbit sits inside a single semi-infinite orbit
            assert all(fq_oracle.iwasawa_data(p)[0] == (nu,) for p in pts)


@pytest.mark.parametrize("q", [3, 5])
def test_whittaker_baby_exponential_chain(q):
    preset = "SL2"
    lam_window = [(0,), (1,)]
    mu = (1,)
    top = 2
    amb = (top + 2,)
    seeds = [torus_point(preset, q, (v,)) for v in range(-top - 1, top + 1)]
    seeds += [
        act(torus_point(preset, q, (l,)), x_plus(q, 1, -1))
        for l in range(0, top + 1)
    ]
    pts = orbit_closure(preset, q, seeds, "U_rtimes_Gm_twisted", amb)
    reps = coset_reps(preset, mu, q)
    big = set(pts)
    for x in pts:
        for g in reps:
            big.add(translate(x, g))
    big = sorted(big, key=lambda p: (p.a, p.c, p.b))
    W = whittaker_space(preset, amb, q, big)
    B = baby_basis(preset, (1,), q, pts)
    M = ExpModule(build_root_datum(preset))
    for lam in lam_window:
        f = W[lam]
        b = B[lam]
        # averaging is a bijection on basis functions
        assert baby_averaging(f, pts).values == b.values
        # Gm-averaging sends the baby basis to q times the closed class
        _, cls = gm_averaging(FqFunction(preset, q, amb, b.values), pts)
        assert set(cls) == {lam} and cyc_as_int(cls[lam]) == q
        # both averagings commute with the Hecke operator
        lhs = baby_averaging(hecke_operator(f, mu, pts), pts)
        rhs = hecke_operator(FqFunction(preset, q, amb, b.values), mu, pts)
        assert lhs.values == rhs.values
        # the transported action equals the generic action specialized
        _, cls2 = gm_averaging(lhs, pts)
        expected = {
            nu: q * c for nu, c in _specialized_action(M, lam, mu, q).items()
        }
        assert {nu: cyc_as_int(v) for nu, v in cls2.items()} == expected


# -- criterion 9: truncation soundness --------------------------------------


def test_truncation_soundness(monkeypatch):
    """The orbit partition of a window is the same at the cut depth_for
    gives and two deeper, also on GL2 windows with a central part: below
    (6, 5) the lattices sit in t^5 O^2, past the cut of the old rule."""
    depth = fq_oracle.depth_for
    for preset, q, bound in [("SL2", 3, (2,)), ("PGL2", 2, (2,)),
                             ("GL2", 2, (5, 1)), ("GL2", 2, (6, 5))]:
        pts = enumerate_gr_window(preset, bound, q)
        partitions = []
        for extra in (0, 2):
            monkeypatch.setattr(fq_oracle, "_partition_cache", {})
            monkeypatch.setattr(fq_oracle, "depth_for", lambda p, b, k=extra: depth(p, b) + k)
            partitions.append(orbit_partition(pts, "U_exp_twisted", q))
        (a1, o1), (a2, o2) = partitions
        assert a1 == a2
        assert [(o["label"], o["tag"], o["points"]) for o in o1] == [
            (o["label"], o["tag"], o["points"]) for o in o2
        ]
