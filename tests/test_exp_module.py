"""The generic exponential module and its spherical action over Z[q]."""

import collections
import itertools

import pytest
from click.testing import CliRunner

from expflag import exp_module
from expflag.cli import main
from expflag.root_datum import _simply_connected, build_root_datum
from expflag.affine_weyl import AffineWeyl, AffineWeylElement, AffineWeylError, ExpLabel
from expflag.coefficients import QPoly
from expflag.hecke import t_basis, t_simple_mul
from expflag.spherical import (
    NormalizationFailure,
    poincare_poly,
    spherical_mul,
    unit_indicator,
)
from expflag.strata import CellShape, double_coset_elements, iwahori_orbits_in_spherical
from expflag.exp_module import (
    BigExpVector,
    ExpModule,
    ExpModuleError,
    ExpModVector,
    NonDominantIndex,
    apply_word,
    basis_vector,
    case_analysis,
    fiber_class,
    key_lemma_class,
    phi_element,
    ts_action,
)

Q = QPoly({1: 1})
QM1 = QPoly({1: 1, 0: -1})
ONE = QPoly({0: 1})


@pytest.fixture(scope="module", params=["SL2", "PGL2", "SL3"])
def M(request):
    return ExpModule(build_root_datum(request.param))


def _labels(W, max_len):
    f0 = W.facet_f0()
    out = []
    for w in W.enumerate_elements(max_len):
        if not W.is_right_minimal(w, f0):
            continue
        out.append(ExpLabel("coset", w))
        if W.is_left_w0_maximal(w):
            out.append(ExpLabel("zero", w))
    return out


def test_ts_action_satisfies_quadratic_relation(M):
    W = M.W
    for lab in W.enumerate_exp_labels(3):
        v = basis_vector(W, lab)
        for s in range(len(W.simples)):
            tv = ts_action(v, s)
            ttv = ts_action(tv, s)
            assert ttv == tv.scale(QM1) + v.scale(Q)


def _braid_order(W, i, j):
    """The order of s_i s_j, or None when it is infinite (an affine rank-one
    pair; a finite order is at most 6)."""
    prod = W.mul(W.simples[i], W.simples[j])
    cur = prod
    for m in range(1, 7):
        if cur == W.identity:
            return m
        cur = W.mul(cur, prod)
    return None


@pytest.mark.parametrize("name,checks", [
    ("SL2", 0), ("PGL2", 0), ("SL3", 180), ("PGL3", 180), ("Sp4", 102), ("G2", 48)])
def test_ts_action_satisfies_the_braid_relations(name, checks):
    # the big module is a module over the affine Hecke algebra: for every
    # pair of simple reflections whose product has finite order m, the
    # alternating words of length m in T_i and T_j act alike on every label
    W = ExpModule(build_root_datum(name)).W
    pairs = [(i, j, m) for i, j in itertools.combinations(range(len(W.simples)), 2)
             if (m := _braid_order(W, i, j))]
    n = 0
    for lab in W.enumerate_exp_labels(3):
        v = basis_vector(W, lab)
        for i, j, m in pairs:
            left = apply_word(v, W.identity, [(i, j)[k % 2] for k in range(m)])
            right = apply_word(v, W.identity, [(j, i)[k % 2] for k in range(m)])
            assert left == right, (name, lab, i, j)
            n += 1
    assert n == checks


def test_ts_action_is_linear(M):
    W = M.W
    labs = _labels(W, 3)
    a, b = labs[0], labs[-1]
    for s in range(len(W.simples)):
        lhs = ts_action(basis_vector(W, a).scale(Q) + basis_vector(W, b), s)
        rhs = ts_action(basis_vector(W, a), s).scale(Q) + ts_action(
            basis_vector(W, b), s
        )
        assert lhs == rhs


def test_case_classes_tile_each_coset(M):
    # over a fixed target coset the fiber classes of the labels above a fixed
    # w sum to the full line count q
    W = M.W
    labs = _labels(W, 2)
    for target in labs:
        for w in labs:
            for s in range(len(W.simples)):
                total = QPoly({})
                got = False
                for lab in labs:
                    if lab.elt != w.elt:
                        continue
                    cls = key_lemma_class(W, target, lab, s)
                    total = total + cls
                    got = True
                if got and not total.is_zero():
                    assert total == Q or total.degree() <= 1


def test_phi_element_reproduces_ts_composites(M):
    W = M.W
    for lab in _labels(W, 2):
        v = basis_vector(W, lab)
        for w in W.enumerate_elements(2):
            tau, word = W.reduced_word(w)
            if tau != W.identity:
                continue
            step = v
            for s in reversed(word):
                step = ts_action(step, s)
            assert phi_element(v, w) == step


def test_fiber_class_accepts_word_spec(M):
    W = M.W
    labs = _labels(W, 2)
    src = labs[0]
    for target in labs:
        c = fiber_class(src, [0], target, W)
        assert c == phi_element(basis_vector(W, src), W.simples[0]).coefficient(
            target
        )


def test_unit_acts_as_identity(M):
    rd = M.rd
    zero = tuple(0 for _ in range(rd.char_lattice_rank))
    for lam in rd.dominant_below((1,) * rd.rank):
        v = ExpModVector(rd, {lam: ONE})
        assert M.spherical_action(v, zero) == v


def test_action_is_linear_and_commutative(M):
    rd = M.rd
    window = rd.dominant_below((1,) * rd.rank)
    lam = window[-1]
    for mu in window:
        for nu in window:
            a = M.spherical_action(M.spherical_action_basis(lam, mu), nu)
            b = M.spherical_action(M.spherical_action_basis(lam, nu), mu)
            assert a == b


@pytest.mark.parametrize("name,mu", [("SL3", (1, 1)), ("Sp4", (1, 1)), ("G2", (1, 2))])
def test_iiia_iso_is_unreachable(name, mu, monkeypatch):
    """An ascent from a left-maximal zero label never has a level-zero simple
    image root: over every line of m_0 . 1_mu, case_analysis meets
    IIIa-triv, never IIIa-iso."""
    seen = collections.Counter()

    def recording(*args, **kwargs):
        out = case_analysis(*args, **kwargs)
        seen.update(case for _, case, _ in out)
        return out

    monkeypatch.setattr(exp_module, "case_analysis", recording)
    rd = build_root_datum(name)
    ExpModule(rd).spherical_action_basis(tuple(0 for _ in range(rd.char_lattice_rank)), mu)
    assert seen["IIIa-triv"] > 0
    assert seen["IIIa-iso"] == 0


@pytest.mark.parametrize("name", ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2"])
def test_maximal_elements_have_no_level_zero_simple_image(name):
    """w left-W0-maximal means w^-1(alpha_j) < 0 for every simple alpha_j,
    so w(alpha_s + n_s) = alpha_j at level 0 would give w^-1(alpha_j) =
    alpha_s + n_s > 0. This is why case_analysis has no IIIa-iso case.
    Checked on w = w0 x with l(x) <= 4 and the translation part of w in a
    box."""
    rd = build_root_datum(name)
    W = AffineWeyl(rd)
    bound = len(rd.longest_element().word) + 4
    checked = 0
    for lam in itertools.product(range(-3, 4), repeat=rd.char_lattice_rank):
        for v in rd.weyl_elements():
            w = AffineWeylElement(lam, v)
            if W.length(w) > bound or not W.is_left_w0_maximal(w):
                continue
            for s in range(W.num_simples):
                k, level = W.simple_image(w, s)
                assert not (level == 0 and rd.roots[k] in rd.simple_root_set), (w, s)
                checked += 1
    assert checked > 0


# The per-(target, w) rule that case_analysis replaced, kept as a reference:
# (case_id, class) of the s-line through w's chamber in target's orbit, with
# the cell classes as shapes A1^a x Gm^b x (Gm minus a point)^c.
_REFERENCE_SHAPES = {
    "I-iso": ((0, 0, 0), (0, 1, 0)),
    "I-triv": ((1, 0, 0), None),
    "II-in-kernel": ((0, 1, 0), None),
    "II-off-kernel": (None, (0, 1, 0)),
    "IIIa-iso": ((0, 0, 0), (0, 1, 0)),
    "IIIa-triv": (None, (1, 0, 0)),
    "IIIb-open-immersion": ((0, 0, 0), (0, 0, 1)),
    "IIIb-triv": (None, (0, 1, 0)),
}


def _reference_class(case, tag):
    shape = _REFERENCE_SHAPES[case][tag != "coset"]
    return QPoly({}) if shape is None else CellShape(*shape).class_in_q()


def _per_pair_rule(W, target, w, s):
    wbar, ws, tbar = w.elt, W.right_mul_simple(w.elt, s), target.elt
    if tbar != wbar and tbar != ws:
        return None, QPoly({})
    ascent = W.length(ws) > W.length(wbar)
    if ascent:
        if tbar != ws:
            return None, QPoly({})
        if not W.is_left_w0_maximal(ws):
            return ("I-nosplit", Q) if target.tag == "coset" else (None, QPoly({}))
        image = W.act_on_affine_root(wbar, W.simple_affine_roots[s])
        simple0 = image.level == 0 and image.finite_part in W.rd.simple_root_set
        if w.tag == "coset":
            case = "I-iso" if simple0 else "I-triv"
        else:
            case = "IIIa-iso" if simple0 else "IIIa-triv"
        return case, _reference_class(case, target.tag)
    if tbar == ws:
        if not W.is_left_w0_maximal(ws) or w.tag == "coset":
            return None, ONE if target.tag == "coset" else QPoly({})
        return None, ONE if target.tag == "zero" else QPoly({})
    image = W.act_on_affine_root(wbar, W.simple_affine_roots[s])
    neg_simple0 = image.level == 0 and (
        tuple(-a for a in image.finite_part) in W.rd.simple_root_set)
    if w.tag == "coset":
        if not W.is_left_w0_maximal(wbar):
            return None, QM1 if target.tag == "coset" else QPoly({})
        case = "II-off-kernel" if neg_simple0 else "II-in-kernel"
    else:
        case = "IIIb-open-immersion" if neg_simple0 else "IIIb-triv"
    return case, _reference_class(case, target.tag)


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2"])
def test_case_analysis_matches_the_per_pair_rule(name):
    """Case ids, classes and order, on every label of length at most
    l(w0) + 4 (6 in rank one), which reaches each case on every preset."""
    W = AffineWeyl(build_root_datum(name))
    bound = max(6, len(W.rd.longest_element().word) + 4)
    for lab in W.enumerate_exp_labels(bound):
        for s in range(W.num_simples):
            near = []
            for elt in (lab.elt, W.right_mul_simple(lab.elt, s)):
                near.append(ExpLabel("coset", elt))
                if W.is_left_w0_maximal(elt):
                    near.append(ExpLabel("zero", elt))
            want = []
            for t in near:
                case, cls = _per_pair_rule(W, lab, t, s)
                if not cls.is_zero():
                    want.append((t, case, cls))
            assert case_analysis(W, lab, s) == tuple(want), (W.label_to_json(lab), s)


def test_zero_source_must_be_maximal():
    """A zero label on a non-maximal element names no orbit; case_analysis
    and key_lemma_class reject it as a source, not just as a target."""
    W = ExpModule(build_root_datum("SL3")).W
    bad = ExpLabel("zero", W.identity)
    with pytest.raises(ExpModuleError, match="not left-W0-maximal"):
        key_lemma_class(W, bad, ExpLabel("coset", W.identity), 0)
    with pytest.raises(ExpModuleError, match="not left-W0-maximal"):
        case_analysis(W, bad, 0)


@pytest.mark.parametrize("name,bound", [
    ("SL2", (2,)), ("PGL2", (2,)), ("SL3", (1, 1)), ("Sp4", (1, 1)), ("G2", (1, 2)),
])
def test_module_associativity(name, bound):
    """(m_0 . 1_a) . 1_b = m_0 . (1_a * 1_b), the product taken in the
    spherical algebra."""
    rd = build_root_datum(name)
    M = ExpModule(rd)
    W = AffineWeyl(rd)
    zero = tuple(0 for _ in range(rd.char_lattice_rank))
    window = [mu for mu in itertools.product(*(range(b + 1) for b in bound))
              if rd.is_dominant(mu)]
    assert len(window) >= 2
    for a in window:
        for b in window:
            lhs = M.spherical_action(M.spherical_action_basis(zero, a), b)
            ab = spherical_mul(unit_indicator(W, a), unit_indicator(W, b))
            rhs = ExpModVector(rd, {})
            for nu, c in ab.support.items():
                rhs = rhs + M.spherical_action_basis(zero, nu).scale(c)
            assert lhs == rhs, (a, b)


def _dual(rd, mu):
    """mu* = -w0(mu), the dominant representative of -mu."""
    return tuple(-a for a in rd.longest_element().apply_coweight(mu))


@pytest.mark.parametrize("name,pairs", [
    ("SL2", [((0,), (1,)), ((1,), (2,))]),
    ("PGL2", [((0,), (2,)), ((1,), (1,))]),
    ("SL3", [((0, 0), (1, 1)), ((1, 1), (1, 2))]),
    ("Sp4", [((0, 0), (1, 1)), ((1, 1), (1, 2))]),
    ("G2", [((0, 0), (1, 2))]),
])
def test_raw_action_is_full_double_coset_sum_over_poincare(name, pairs):
    """The sum of phi(T_y) over all of W0 t_mu* W0 is P_W0(q) times the raw
    action, which sums over one element per W0-coset."""
    M = ExpModule(build_root_datum(name))
    P = poincare_poly(M.W)
    for lam, mu in pairs:
        big = M.lift_closed(lam)
        full = BigExpVector(M.W, {})
        for y in double_coset_elements(M.W, M.rd.to_adjoint_coords(_dual(M.rd, mu))):
            full = full + phi_element(big, y)
        assert full == M._raw_action(lam, mu).scale(P), (lam, mu)


_SP6 = _simply_connected("Sp6", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
_SPIN7 = _simply_connected("Spin7", [[2, -1, 0], [-1, 2, -2], [0, -1, 2]])


@pytest.mark.parametrize("spec,pairs", [
    ("SL2", [((0,), (3,)), ((1,), (2,))]),
    ("PGL2", [((0,), (2,)), ((1,), (3,))]),
    ("SL3", [((0, 0), (2, 2)), ((1, 1), (1, 2))]),
    ("PGL3", [((0, 0), (1, 1)), ((0, 0), (2, 1))]),
    ("Sp4", [((0, 0), (2, 2)), ((1, 1), (1, 2))]),
    ("G2", [((0, 0), (2, 3)), ((1, 2), (1, 2))]),
    (_SP6, [((0, 0, 0), (1, 2, 3))]),
    (_SPIN7, [((0, 0, 0), (2, 2, 1))]),
], ids=["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "Sp6", "Spin7"])
def test_raw_action_matches_the_per_orbit_reference(spec, pairs):
    """_raw_action walks the reduced words of the inverses y^-1 and steps
    each shared prefix once; the sum is that of phi_element over each y
    along y's own reduced word."""
    M = ExpModule(build_root_datum(spec))
    for lam, mu in pairs:
        big = M.lift_closed(lam)
        want = BigExpVector(M.W, {})
        for y in iwahori_orbits_in_spherical(
                M.W, M.rd.to_adjoint_coords(_dual(M.rd, mu))):
            want = want + phi_element(big, y)
        assert M._raw_action(lam, mu) == want, (lam, mu)


@pytest.mark.parametrize("name,mu,steps", [
    ("SL3", (1, 2), 8), ("Sp4", (1, 1), 6), ("G2", (1, 2), 8),
])
def test_spherical_action_steps_each_prefix_once(name, mu, steps, monkeypatch):
    """ts_action calls for m_0 . 1_mu: one right-W0-invariance check per
    finite simple reflection, then one step per distinct nonempty prefix
    of the words (17, 12 and 23 calls when each word is stepped alone)."""
    calls = []

    def counting(v, s):
        calls.append(s)
        return ts_action(v, s)

    monkeypatch.setattr(exp_module, "ts_action", counting)
    M = ExpModule(build_root_datum(name))
    assert M.spherical_action_basis((0, 0), mu).support
    assert len(calls) == steps


def test_non_invariant_lift_is_reported(monkeypatch):
    M = ExpModule(build_root_datum("SL3"))
    monkeypatch.setattr(exp_module, "ts_action", lambda v, s: v)
    with pytest.raises(NormalizationFailure, match=r"SL3.*m_\(0, 0\).*1_\(1, 1\).*T_s0"):
        M.spherical_action_basis((0, 0), (1, 1))


@pytest.mark.parametrize("entry", [
    lambda W, lab: basis_vector(W, lab),
    lambda W, lab: apply_word(basis_vector(W, lab), W.identity, [0]),
    lambda W, lab: fiber_class(lab, [0], ExpLabel("coset", W.identity), W),
], ids=["basis_vector", "apply_word", "fiber_class"])
def test_zero_label_on_a_non_maximal_element_is_rejected(entry):
    """A zero label names a left-W0-maximal element; on SL3, s1 is not, and
    each entry point rejects it instead of returning an empty vector."""
    W = AffineWeyl(build_root_datum("SL3"))
    with pytest.raises(ExpModuleError, match=r"\[0, 0\].*\[1\].*not left-W0-maximal"):
        entry(W, ExpLabel("zero", W.word_to_element([1])))
    w0 = W.word_to_element([0, 1, 0])
    assert entry(W, ExpLabel("zero", w0)) != BigExpVector(W, {})


_SIMPLE_INDEX_ENTRIES = pytest.mark.parametrize("entry", [
    lambda W, lab, i: t_simple_mul(W, i, t_basis(W, lab.elt)),
    lambda W, lab, i: ts_action(basis_vector(W, lab), i),
    lambda W, lab, i: case_analysis(W, lab, i),
    lambda W, lab, i: fiber_class(lab, [i], lab, W),
], ids=["t_simple_mul", "ts_action", "case_analysis", "fiber_class"])


@pytest.mark.parametrize("index", [-1, 3])
@_SIMPLE_INDEX_ENTRIES
def test_out_of_range_simple_index_is_rejected(entry, index):
    """SL3 has the simple reflections s0, s1, s2: -1 used to act by s2 (so
    fiber_class read 0) and 3 ended in a bare IndexError."""
    W = AffineWeyl(build_root_datum("SL3"))
    with pytest.raises(AffineWeylError, match=rf"no simple reflection s{index}.*0\.\.2"):
        entry(W, ExpLabel("coset", W.identity), index)


@pytest.mark.parametrize("index", [-1, 3])
@_SIMPLE_INDEX_ENTRIES
def test_out_of_range_simple_index_is_rejected_with_warm_tables(entry, index):
    """As above once the step table and the case_analysis memo hold every
    step of each label of length <= 3: -1 would read the last entry of a
    step-table row."""
    W = AffineWeyl(build_root_datum("SL3"))
    for lab in W.enumerate_exp_labels(3):
        for s in range(W.num_simples):
            entry(W, lab, s)
    with pytest.raises(AffineWeylError, match=rf"no simple reflection s{index}.*0\.\.2"):
        entry(W, ExpLabel("coset", W.identity), index)


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2"])
def test_case_analysis_memo_matches_a_fresh_computation(name):
    W = AffineWeyl(build_root_datum(name))
    fresh = AffineWeyl(W.rd)
    labels = W.enumerate_exp_labels(3)
    # the first pass fills the memo, the second reads it
    for _ in range(2):
        for lab in labels:
            for s in range(W.num_simples):
                got = case_analysis(W, lab, s)
                assert type(got) is tuple
                assert got == exp_module._case_analysis(fresh, lab, s)
    assert not fresh._case_cache


def test_tables_are_per_instance():
    """Two AffineWeyl of one datum share no step, word or s-line entry."""
    rd = build_root_datum("SL3")
    W, other = AffineWeyl(rd), AffineWeyl(rd)
    for lab in W.enumerate_exp_labels(3):
        W.reduced_word(lab.elt)
        for s in range(W.num_simples):
            case_analysis(W, lab, s)
    assert W._step_cache and W._word_cache and W._case_cache
    assert not (other._step_cache or other._word_cache or other._case_cache)


@pytest.mark.parametrize("run", [
    lambda: CliRunner().invoke(
        main, ["verify", "--group", "SL2", "--q", "2", "--seed", "7"]).exit_code == 0,
    lambda: ExpModule(build_root_datum("SL3")).spherical_action_basis(
        (0, 0), (1, 1)).support,
], ids=["SL2-verify", "SL3-m0-1_11"])
def test_each_simple_step_and_s_line_is_computed_once(run, monkeypatch):
    """right_mul_simple runs once per (W, w, i) and the uncached
    case_analysis body once per (W, label, s). Both runs ask for many pairs
    more than once (SL3 m_0 . 1_(1,1): 117 steps on 67 pairs and 78
    s-lines on 63 without the memos), so a dropped memo shows here."""
    steps, lines = collections.Counter(), collections.Counter()
    right_mul_simple, body = AffineWeyl.right_mul_simple, exp_module._case_analysis

    def counting_step(W, w, i):
        steps[id(W), w, i] += 1
        return right_mul_simple(W, w, i)

    def counting_line(W, lab, s):
        lines[id(W), lab, s] += 1
        return body(W, lab, s)

    monkeypatch.setattr(AffineWeyl, "right_mul_simple", counting_step)
    monkeypatch.setattr(exp_module, "_case_analysis", counting_line)
    assert run()
    assert steps and lines
    assert max(steps.values()) == 1 and max(lines.values()) == 1


def test_sl2_fundamental_action():
    M = ExpModule(build_root_datum("SL2"))
    out = M.spherical_action_basis((1,), (1,))
    assert out.support == {
        (0,): QPoly({2: 1}),
        (1,): QM1,
        (2,): ONE,
    }


def test_pgl2_fundamental_action():
    M = ExpModule(build_root_datum("PGL2"))
    out = M.spherical_action_basis((0,), (1,))
    assert out.support == {(1,): ONE}
    out2 = M.spherical_action_basis((1,), (1,))
    assert out2.coefficient((2,)) == ONE


def test_leading_coefficient_is_monic_at_top(M):
    # the coefficient of m_{lam + mu} in m_lam * b_mu is exactly 1
    rd = M.rd
    window = rd.dominant_below((1,) * rd.rank)
    for lam in window:
        for mu in window:
            top = tuple(a + b for a, b in zip(lam, mu))
            out = M.spherical_action_basis(lam, mu)
            assert out.coefficient(top) == ONE


def test_support_stays_dominant_and_bounded(M):
    rd = M.rd
    window = rd.dominant_below((1,) * rd.rank)
    for lam in window:
        for mu in window:
            out = M.spherical_action_basis(lam, mu)
            for nu, c in out.support.items():
                assert rd.is_dominant(nu)
                assert not c.is_zero()


def test_dimension_bound(M):
    rd = M.rd
    window = rd.dominant_below((2,) * rd.rank)
    for lam in window:
        for mu in window:
            if lam == mu:
                continue
            assert M.dimension_bound_check(lam, mu)


def test_rank_one_determinant(M):
    rd = M.rd
    window = rd.dominant_below((2,) * rd.rank)
    report = M.verify_rank_one(window)
    assert QPoly.from_json(report["determinant"]) == ONE


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2"])
def test_rank_one_certificate_has_nonnegative_coefficients(name):
    # m_mu = m_0 . A_mu with A_mu in Z[q], and its coefficients in the
    # 1-basis are q-analogues of weight multiplicities (Kazhdan-Lusztig
    # positivity), so every term is a nonnegative power with a positive
    # coefficient
    rd = build_root_datum(name)
    report = ExpModule(rd).verify_rank_one(rd.dominant_window((2,) * rd.rank))
    for column in report["basis_certificate"].values():
        for doc in column.values():
            a = QPoly.from_json(doc)
            assert not a.is_zero()
            assert all(e >= 0 and c > 0 for e, c in a.coeffs.items()), a


@pytest.mark.parametrize("diag", [QPoly({0: -1}), Q])
def test_rank_one_rejects_a_diagonal_other_than_one(monkeypatch, diag):
    # -1 and q are units of Z[q, q^-1], not of Z[q]; the certificate must
    # refuse them instead of leaving Z[q]
    M = ExpModule(build_root_datum("SL2"))
    window = [(0,), (1,), (2,)]
    honest = M.spherical_action_basis

    def patched(lam, mu):
        col = honest(lam, mu)
        if tuple(mu) != (1,):
            return col
        support = dict(col.support)
        support[(1,)] = diag
        return ExpModVector(M.rd, support)

    monkeypatch.setattr(M, "spherical_action_basis", patched)
    with pytest.raises(exp_module.RankOneViolated, match="diagonal"):
        M.verify_rank_one(window)


@pytest.mark.parametrize("window,error,match", [
    ([(1,)], ExpModuleError, "window must contain 0"),
    ([(0,), (2,)], exp_module.WindowTooSmall,
     r"column \(2,\) has support at \(1,\) outside the window"),
])
def test_rank_one_rejects_a_window_it_cannot_certify(window, error, match):
    M = ExpModule(build_root_datum("SL2"))
    with pytest.raises(error, match=match):
        M.verify_rank_one(window)


def test_vector_json_shape(M):
    rd = M.rd
    window = rd.dominant_below((1,) * rd.rank)
    out = M.spherical_action_basis(window[-1], window[-1])
    doc = out.to_json()
    for entry in doc:
        assert tuple(entry["mu"]) in out.support
        assert QPoly.from_json(entry["qpoly"]) == out.support[tuple(entry["mu"])]


def test_convolution_fiber_values(M):
    rd = M.rd
    window = rd.dominant_below((1,) * rd.rank)
    for lam in window:
        for mu in window:
            top = tuple(a + b for a, b in zip(lam, mu))
            assert M.convolution_fiber(top, mu, source=lam) == ONE
            for nu in window:
                F = M.convolution_fiber(nu, mu, source=lam)
                if not F.is_zero():
                    # fiber classes count points of honest varieties
                    assert F.specialize(5) > 0


# SL3 convolution fibers over t^(nu + rho-hat), {(source, mu, nu): class}
# for source, mu, nu in dominant_below((1, 1)), pinned from the engine
# before its cache entries held the m-basis reading
_SL3_FIBERS = {
    ((0, 0), (0, 0), (0, 0)): ONE,
    ((1, 1), (0, 0), (1, 1)): ONE,
    ((0, 0), (1, 1), (0, 0)): QM1,
    ((1, 1), (1, 1), (0, 0)): QPoly({4: 1}),
    ((0, 0), (1, 1), (1, 1)): ONE,
    ((1, 1), (1, 1), (1, 1)): QPoly({2: 2, 1: -1, 0: -1}),
}


def test_m_basis_reading_is_cached_with_the_big_vector():
    rd = build_root_datum("SL3")
    M = ExpModule(rd)
    window = rd.dominant_below((2, 2))
    first = {(lam, mu): M.spherical_action_basis(lam, mu) for lam in window for mu in window}
    assert len(M._action_cache) == len(first)
    for (lam, mu), v in first.items():
        assert M.spherical_action_basis(lam, mu) == v
        assert len(M._action_cache) == len(first)
    # the dominance check runs on every call, also for a key in the cache
    M._action_cache[(-1, 2), (1, 1)] = M._action_cache[(1, 1), (1, 1)]
    with pytest.raises(NonDominantIndex):
        M.spherical_action_basis((-1, 2), (1, 1))
    # a second module of the same datum computes its own entries
    other = ExpModule(rd)
    assert not other._action_cache
    assert other.spherical_action_basis((1, 1), (1, 1)) == first[(1, 1), (1, 1)]
    assert other._action_cache[(1, 1), (1, 1)][1] is not first[(1, 1), (1, 1)]
    # the big vector in the same entry still answers the fiber queries
    small = rd.dominant_below((1, 1))
    for source, mu, nu in itertools.product(small, repeat=3):
        want = _SL3_FIBERS.get((source, mu, nu), QPoly({}))
        assert M.convolution_fiber(nu, mu, source=source) == want, (source, mu, nu)
    assert all(M.dimension_bound_check(lam, mu)
               for lam in window for mu in window if lam != mu)


def test_non_dominant_indices_are_rejected():
    M = ExpModule(build_root_datum("SL2"))
    for lam, mu in (((-1,), (1,)), ((0,), (-1,)), ((1, 0), (1,))):
        with pytest.raises(NonDominantIndex):
            M.spherical_action_basis(lam, mu)
        with pytest.raises(NonDominantIndex):
            M.convolution_fiber(lam, mu)
    with pytest.raises(NonDominantIndex):
        M.convolution_fiber((1,), (1,), source=(-1,))
