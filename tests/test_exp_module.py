"""The generic exponential module and its spherical action over Z[q]."""

import itertools

import pytest

from expflag.root_datum import build_root_datum
from expflag.affine_weyl import AffineWeyl, ExpLabel
from expflag.coefficients import QPoly
from expflag.spherical import spherical_mul, unit_indicator
from expflag.strata import dominant_coweights_below, orbit_shape
from expflag.exp_module import (
    BigExpVector,
    ExpModule,
    ExpModVector,
    NonDominantIndex,
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
    for lab in _labels(W, 3):
        v = basis_vector(W, lab)
        for s in range(len(W.simples)):
            tv = ts_action(v, s)
            ttv = ts_action(tv, s)
            assert ttv == tv.scale(QM1) + v.scale(Q)


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
    for lam in dominant_coweights_below(rd, tuple(1 for _ in range(rd.rank))):
        v = M.unit_vector(lam)
        assert M.spherical_action(v, zero) == v


def test_action_is_linear_and_commutative(M):
    rd = M.rd
    window = dominant_coweights_below(rd, tuple(1 for _ in range(rd.rank)))
    lam = window[-1]
    for mu in window:
        for nu in window:
            a = M.spherical_action(M.spherical_action_basis(lam, mu), nu)
            b = M.spherical_action(M.spherical_action_basis(lam, nu), mu)
            assert a == b


@pytest.mark.parametrize("name,bound", [("SL2", (2,)), ("PGL2", (2,)), ("SL3", (1, 1))])
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
    window = dominant_coweights_below(rd, tuple(1 for _ in range(rd.rank)))
    for lam in window:
        for mu in window:
            top = tuple(a + b for a, b in zip(lam, mu))
            out = M.spherical_action_basis(lam, mu)
            assert out.coefficient(top) == ONE


def test_support_stays_dominant_and_bounded(M):
    rd = M.rd
    window = dominant_coweights_below(rd, tuple(1 for _ in range(rd.rank)))
    for lam in window:
        for mu in window:
            out = M.spherical_action_basis(lam, mu)
            for nu, c in out.support.items():
                assert rd.is_dominant(nu)
                assert not c.is_zero()


def test_dimension_bound(M):
    rd = M.rd
    window = dominant_coweights_below(rd, tuple(2 for _ in range(rd.rank)))
    for lam in window:
        for mu in window:
            if lam == mu:
                continue
            assert M.dimension_bound_check(lam, mu)


def test_rank_one_determinant(M):
    rd = M.rd
    window = dominant_coweights_below(rd, tuple(2 for _ in range(rd.rank)))
    report = M.verify_rank_one(window)
    det = QPoly.from_json(report["determinant"])
    k = det.degree()
    assert det == QPoly({k: 1}) or det == QPoly({k: -1})


def test_vector_json_shape(M):
    rd = M.rd
    window = dominant_coweights_below(rd, tuple(1 for _ in range(rd.rank)))
    out = M.spherical_action_basis(window[-1], window[-1])
    doc = out.to_json()
    for entry in doc:
        assert tuple(entry["mu"]) in out.support
        assert QPoly.from_json(entry["qpoly"]) == out.support[tuple(entry["mu"])]


def test_convolution_fiber_values(M):
    rd = M.rd
    window = dominant_coweights_below(rd, tuple(1 for _ in range(rd.rank)))
    for lam in window:
        for mu in window:
            top = tuple(a + b for a, b in zip(lam, mu))
            assert M.convolution_fiber(top, mu, source=lam) == ONE
            for nu in window:
                F = M.convolution_fiber(nu, mu, source=lam)
                if not F.is_zero():
                    # fiber classes count points of honest varieties
                    assert F.specialize(5) > 0


def test_non_dominant_indices_are_rejected():
    M = ExpModule(build_root_datum("SL2"))
    for lam, mu in (((-1,), (1,)), ((0,), (-1,)), ((1, 0), (1,))):
        with pytest.raises(NonDominantIndex):
            M.spherical_action_basis(lam, mu)
        with pytest.raises(NonDominantIndex):
            M.convolution_fiber(lam, mu)
    with pytest.raises(NonDominantIndex):
        M.convolution_fiber((1,), (1,), source=(-1,))
