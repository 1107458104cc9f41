"""The decategorified exponential module and its spherical Hecke action.

The big module lives on exponential-orbit labels of the full affine flag
variety; simple-reflection operators move classes along the one-step lines
whose cell decomposition is stored in data/case_table.json. Iterating those
operators along reduced words gives fiber classes of convolution morphisms,
and reading the result on the orbits of the affine Grassmannian gives the
spherical action on the quotient module with basis {m_mu}.

The operator realized by a basis step is phi(T_s): f -> (x -> sum over the
s-neighbors of x of f); composing phi's reverses products, so a word is
applied from its last letter to its first.
"""

from __future__ import annotations

import json
from importlib import resources

from .affine_weyl import AffineWeyl, AffineWeylElement, ExpLabel
from .coefficients import QPoly, QVector, Q_ONE, Q_ZERO
from .root_datum import RootDatum
from .spherical import NormalizationFailure
from .strata import CellShape, dominance_leq, iwahori_orbits_in_spherical


class ExpModuleError(ValueError):
    pass


class WindowTooSmall(ExpModuleError):
    pass


class RankOneViolated(ExpModuleError):
    pass


class NonDominantIndex(ExpModuleError):
    pass


def _load_case_table():
    with resources.files("expflag.data").joinpath("case_table.json").open() as fh:
        raw = json.load(fh)
    table = {}
    for key, entry in raw.items():
        if key.startswith("_"):
            continue
        parsed = {}
        for part in ("closed", "open", "single"):
            if entry.get(part) is not None:
                parsed[part] = CellShape.from_json(entry[part]).class_in_q()
        table[key] = parsed
    return table


CASE_TABLE = _load_case_table()


def _table_class(case_id, part) -> QPoly:
    return CASE_TABLE[case_id].get(part, Q_ZERO)


def case_analysis(W: AffineWeyl, target: ExpLabel, w: ExpLabel, s: int, ws=None):
    """(case_id, class) of the line through w's basepoint in target's orbit.

    The line is the set of chambers s-adjacent to the basepoint of w; the
    class records how many of its q points lie in the orbit of target.
    case_id is None when the answer is forced (empty by support, a single
    lower point, or a non-splitting descent target). ws is w.elt s, for a
    caller that has it already.
    """
    wbar = w.elt
    if ws is None:
        ws = W.right_mul_simple(wbar, s)
    tbar = target.elt
    if tbar != wbar and tbar != ws:
        return None, Q_ZERO
    ascent = not W.is_right_descent(wbar, s)
    if w.tag == "zero" and not W.is_left_w0_maximal(wbar):
        raise ExpModuleError("zero tag on non-maximal element")

    if ascent:
        # all q points of the line lie in the upper cell
        if tbar != ws:
            return None, Q_ZERO
        if not W.is_left_w0_maximal(ws):
            if target.tag != "coset":
                return None, Q_ZERO
            return "I-nosplit", _table_class("I-nosplit", "single")
        part = "closed" if target.tag == "coset" else "open"
        image = W.act_on_affine_root(wbar, W.simple_affine_roots[s])
        simple0 = image.level == 0 and image.finite_part in W.rd.simple_root_set
        if w.tag == "coset":
            case = "I-iso" if simple0 else "I-triv"
        else:
            case = "IIIa-iso" if simple0 else "IIIa-triv"
        return case, _table_class(case, part)

    # descent: one point in the lower cell, q-1 points back in w's cell
    if tbar == ws:
        if not W.is_left_w0_maximal(ws):
            return (None, Q_ONE) if target.tag == "coset" else (None, Q_ZERO)
        # the single point carries the basepoint's kernel level
        if w.tag == "coset":
            return (None, Q_ONE) if target.tag == "coset" else (None, Q_ZERO)
        return (None, Q_ONE) if target.tag == "zero" else (None, Q_ZERO)

    image = W.act_on_affine_root(wbar, W.simple_affine_roots[s])
    neg_simple0 = image.level == 0 and (
        tuple(-a for a in image.finite_part) in W.rd.simple_root_set
    )
    if w.tag == "coset":
        if not W.is_left_w0_maximal(wbar):
            if target.tag != "coset":
                return None, Q_ZERO
            return None, QPoly({1: 1, 0: -1})
        case = "II-off-kernel" if neg_simple0 else "II-in-kernel"
    else:
        case = "IIIb-open-immersion" if neg_simple0 else "IIIb-triv"
    part = "closed" if target.tag == "coset" else "open"
    return case, _table_class(case, part)


def key_lemma_class(W: AffineWeyl, target: ExpLabel, w: ExpLabel, s: int) -> QPoly:
    return case_analysis(W, target, w, s)[1]


class BigExpVector(QVector):
    """Z[q]-linear combination of exponential-orbit labels on Fl."""

    __slots__ = ()
    letter, json_field = "b", "label"

    def _key(self, lab):
        if lab.tag == "zero" and not self.ctx.is_left_w0_maximal(lab.elt):
            raise ExpModuleError(
                f"zero label on {self.ctx.to_json(lab.elt)}, "
                "which is not left-W0-maximal")
        return lab

    def _sort_key(self, lab):
        return self.ctx.sort_key(lab.elt) + (lab.tag,)

    def _key_json(self, lab):
        return self.ctx.label_to_json(lab)


def basis_vector(W: AffineWeyl, lab: ExpLabel) -> BigExpVector:
    return BigExpVector(W, {lab: Q_ONE})


def _adjacent_labels(W: AffineWeyl, elt: AffineWeylElement):
    out = [ExpLabel("coset", elt)]
    if W.is_left_w0_maximal(elt):
        out.append(ExpLabel("zero", elt))
    return out


def ts_action(v: BigExpVector, s: int) -> BigExpVector:
    """phi(T_s): sum a function over the s-line through each chamber."""
    W = v.ctx
    out = {}
    for lab, c in v.support.items():
        # the two cells of the s-line through lab's chamber, each with its
        # s-neighbor (w s != w, so they differ)
        ls = W.right_mul_simple(lab.elt, s)
        for elt, elt_s in ((lab.elt, ls), (ls, lab.elt)):
            for t in _adjacent_labels(W, elt):
                coeff = case_analysis(W, lab, t, s, elt_s)[1]
                if coeff.is_zero():
                    continue
                prev = out.get(t, Q_ZERO) + coeff * c
                out[t] = prev
    return v._new(out)


def omega_action(v: BigExpVector, tau: AffineWeylElement) -> BigExpVector:
    """Right translation b_w -> b_{w tau}; tags preserved."""
    W = v.ctx
    if W.length(tau) != 0:
        raise ExpModuleError("omega element must have length zero")
    out = {}
    for lab, c in v.support.items():
        out[ExpLabel(lab.tag, W.mul(lab.elt, tau))] = c
    return v._new(out)


def apply_word(v: BigExpVector, tau: AffineWeylElement, word) -> BigExpVector:
    """phi(T_tau T_s1 ... T_sr) v for word = (s1, ..., sr), tau of length zero.

    phi reverses products, so the letters act from the last to the first,
    each by ts_action, and tau acts last: phi(T_tau) f(x) = f(x tau), i.e.
    b_w -> b_{w tau^-1}. The word need not be reduced.
    """
    W = v.ctx
    for i in reversed(word):
        v = ts_action(v, i)
    if tau != W.identity:
        v = omega_action(v, W.inverse(tau))
    return v


def phi_element(v: BigExpVector, y: AffineWeylElement) -> BigExpVector:
    """phi(T_y): f -> (x -> sum_{g in IyI/I} f(xg)), via the reduced word."""
    tau, word = v.ctx.reduced_word(y)
    return apply_word(v, tau, word)


def fiber_class(v0: ExpLabel, word_spec, target: ExpLabel, W: AffineWeyl) -> QPoly:
    """Class of the fiber over target's basepoint of the convolution of the
    orbit of v0 with the Iwahori orbit of tau * s_1 ... s_r.

    word_spec is (tau, [indices]) with tau of length zero, or just a list of
    indices.
    """
    if isinstance(word_spec, (list, tuple)) and (
        not word_spec or isinstance(word_spec[0], int)
    ):
        tau, word = W.identity, word_spec
    else:
        tau, word = word_spec
    return apply_word(basis_vector(W, v0), tau, word).coefficient(target)


class ExpModVector(QVector):
    """Finitely supported map from dominant coweights to Z[q]: the m-basis."""

    __slots__ = ()
    letter, json_field = "m", "mu"

    def _key(self, mu):
        if len(mu) != self.ctx.char_lattice_rank or not self.ctx.is_dominant(mu):
            raise ExpModuleError(f"non-dominant index {tuple(mu)}")
        return tuple(mu)

    _key_json = staticmethod(list)

    def coefficient(self, mu) -> QPoly:
        return super().coefficient(tuple(mu))


class ExpModule:
    """Engine for the exponential module of a semisimple root datum.

    All orbit combinatorics run in the adjoint datum, where the half-sum of
    positive coroots is an honest cocharacter and the twisted orbit over
    t^mu is the untwisted orbit over t^(mu + rho-hat). Dominant coweights of
    the input datum embed into the adjoint coweight lattice by pairing with
    the simple roots.
    """

    def __init__(self, rd: RootDatum):
        if rd.rank != rd.char_lattice_rank:
            raise ExpModuleError("exponential module requires a semisimple datum")
        self.rd = rd
        self.adj = rd.adjoint()
        self.W = AffineWeyl(self.adj)
        self.rho_hat_adj = tuple(1 for _ in range(rd.rank))
        self._action_cache = {}

    # ---- index conversion

    def _check_dominant(self, *coweights):
        for mu in coweights:
            if len(mu) != self.rd.char_lattice_rank or not self.rd.is_dominant(mu):
                raise NonDominantIndex(
                    f"index {tuple(mu)} is not a dominant coweight of {self.rd.name}"
                )

    def to_adj(self, mu):
        return self.rd.to_adjoint_coords(mu)

    def from_adj(self, v):
        return self.rd.from_adjoint_coords(v)

    def dual_involution(self, mu):
        """mu* = -w0(mu), the dominant representative of -mu."""
        w0 = self.rd.longest_element()
        return tuple(-a for a in w0.apply_coweight(mu))

    # ---- labels over the affine Grassmannian

    def closed_label(self, mu) -> ExpLabel:
        elt = self.W.translation(
            tuple(a + 1 for a in self.to_adj(mu))
        )
        return ExpLabel("coset", elt)

    def _label_coweight(self, elt: AffineWeylElement):
        """Inverse of closed_label on strictly dominant translations."""
        if elt.v != self.adj.identity:
            return None
        shifted = tuple(a - 1 for a in elt.lam)
        mu = self.from_adj(shifted)
        if mu is None or not self.rd.is_dominant(mu):
            return None
        return mu

    def lift_closed(self, mu) -> BigExpVector:
        """Pullback of the closed-orbit indicator to the full flag variety."""
        lam = self.closed_label(mu).elt.lam
        return BigExpVector(self.W, {
            ExpLabel("coset", AffineWeylElement(lam, v)): Q_ONE
            for v in self.adj.weyl_elements()
        })

    # ---- the spherical action

    def _apply_double_coset(self, vec: BigExpVector, mu_adj) -> BigExpVector:
        """Sum of phi(T_y) vec over the right-W0-minimal y of W0 t_mu W0,
        which iwahori_orbits_in_spherical lists.

        vec must be right-W0-invariant: phi(T_s) vec = q vec for each finite
        simple s. Each y of the double coset is y' x with x in W0, y'
        right-W0-minimal and l(y) = l(y') + l(x), so phi(T_y) vec =
        q^l(x) phi(T_y') vec, and the sum over the whole double coset is
        P_W0(q) times this one.
        """
        out = BigExpVector(self.W, {})
        for y in iwahori_orbits_in_spherical(self.W, mu_adj):
            out = out + phi_element(vec, y)
        return out

    def _raw_action(self, lam, mu) -> BigExpVector:
        """The pullback of m_lam . 1_mu to the big module.

        Raises NormalizationFailure if the lift of m_lam is not
        right-W0-invariant, the hypothesis of _apply_double_coset.
        """
        key = (tuple(lam), tuple(mu))
        if key not in self._action_cache:
            big = self.lift_closed(lam)
            q = QPoly({1: 1})
            for i in range(self.adj.rank):
                if ts_action(big, i) != big.scale(q):
                    raise NormalizationFailure(
                        f"exp-module action on {self.rd.name}: lift of "
                        f"m_{tuple(lam)} is not right-W0-invariant under "
                        f"T_s{i} (acting by 1_{tuple(mu)})"
                    )
            mu_star_adj = self.to_adj(self.dual_involution(mu))
            self._action_cache[key] = self._apply_double_coset(big, mu_star_adj)
        return self._action_cache[key]

    def spherical_action_basis(self, lam, mu) -> ExpModVector:
        """m_lam . 1_mu in the m-basis; raises NonDominantIndex unless both
        indices are dominant."""
        self._check_dominant(lam, mu)
        r = self._raw_action(lam, mu)
        out = {}
        for lab, c in r.support.items():
            nu = self._label_coweight(lab.elt)
            if nu is None:
                continue
            out[nu] = out.get(nu, Q_ZERO) + (c if lab.tag == "coset" else -c)
        return ExpModVector(self.rd, out)

    def spherical_action(self, v: ExpModVector, mu) -> ExpModVector:
        out = ExpModVector(self.rd, {})
        for lam, c in v.support.items():
            out = out + self.spherical_action_basis(lam, mu).scale(c)
        return out

    def unit_vector(self, mu) -> ExpModVector:
        return ExpModVector(self.rd, {tuple(mu): Q_ONE})

    # ---- convolution fiber classes over twisted basepoints

    def convolution_fiber(self, lam, mu, source=None) -> QPoly:
        """Class of the fiber over t^(lam + rho-hat) of the convolution of the
        closed exponential orbit of `source` (default 0) with Gr^mu.

        Raises NonDominantIndex unless lam, mu and source are dominant."""
        if source is None:
            source = tuple(0 for _ in range(self.rd.char_lattice_rank))
        self._check_dominant(lam, mu, source)
        return self._raw_action(source, mu).coefficient(self.closed_label(lam))

    def dimension_bound_check(self, lam, mu) -> bool:
        """Fiber dimension over t^(lam + rho-hat) is < <rho, mu - lam>,
        compared in integers as 2 deg F < <2 rho, mu - lam>."""
        if tuple(lam) == tuple(mu):
            raise ExpModuleError("lam and mu must differ")
        F = self.convolution_fiber(lam, mu)
        if F.is_zero():
            return True
        diff = tuple(m - l for l, m in zip(lam, mu))
        return 2 * F.degree() < self.rd.pair(self.rd.two_rho, diff)

    # ---- rank-one freeness

    def verify_rank_one(self, window):
        """Certify that {m_0 . 1_mu} is triangular with diagonal exactly 1.

        window: list of dominant coweights, closed under dominance.
        Returns a report dict; raises RankOneViolated or WindowTooSmall.
        With a unit diagonal the back substitution for m_mu stays in Z[q].
        """
        window = [tuple(mu) for mu in window]
        zero = tuple(0 for _ in range(self.rd.char_lattice_rank))
        if zero not in window:
            raise ExpModuleError("window must contain 0")
        columns = {}
        for mu in window:
            col = self.spherical_action_basis(zero, mu)
            for nu in col.support:
                if nu not in window:
                    raise WindowTooSmall(
                        f"column {mu} has support at {nu} outside the window"
                    )
            columns[mu] = col
        # triangularity and unit-diagonal checks
        for mu in window:
            col = columns[mu]
            for nu in col.support:
                if nu != mu and not dominance_leq(self.rd, nu, mu):
                    raise RankOneViolated(
                        f"entry at {nu} in column {mu} breaks dominance triangularity"
                    )
            diag = col.coefficient(mu)
            if diag != Q_ONE:
                raise RankOneViolated(f"diagonal entry at {mu} is {diag}, not 1")
        # solve m_0 . A_mu = m_mu by back substitution
        basis_certificate = {}
        order = sorted(window, key=lambda mu: self.rd.pair(self.rd.two_rho, mu))
        for mu in window:
            target = {mu: Q_ONE}
            coeffs = {}
            for kappa in reversed(order):
                a = target.get(kappa, Q_ZERO)
                if a.is_zero():
                    continue
                coeffs[kappa] = a
                for nu, entry in columns[kappa].support.items():
                    target[nu] = target.get(nu, Q_ZERO) - a * entry
            for nu, rem in target.items():
                if not rem.is_zero():
                    raise WindowTooSmall(f"solve for {mu} leaves remainder at {nu}")
            basis_certificate[mu] = coeffs
        return {
            "window": [list(mu) for mu in window],
            "matrix": {
                str(list(mu)): columns[mu].to_json() for mu in window
            },
            "determinant": Q_ONE.to_json(),
            "basis_certificate": {
                str(list(mu)): {
                    # the pinned certificate format marks its entries Laurent
                    str(list(k)): {**a.to_json(), "laurent": True}
                    for k, a in cs.items()
                }
                for mu, cs in basis_certificate.items()
            },
        }
