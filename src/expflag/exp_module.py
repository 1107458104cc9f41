"""The decategorified exponential module and its spherical Hecke action.

The big module lives on exponential-orbit labels of the full affine flag
variety. A simple reflection s moves a label along the s-line through its
chamber, and case_analysis reads that whole line at once: the classes of
its cells in each label on T and T s, from whether s ascends T, whether T
and T s are left-W0-maximal, and the image T(alpha_s + n_s). It reads
T s from AffineWeyl.simple_steps and keeps each answer per (label, s) on
the AffineWeyl: like the length cache, neither table needs a size bound,
as each key is an element or label the caller has already built. Iterating
those operators along reduced words gives fiber classes of convolution
morphisms, and reading the result on the orbits of the affine
Grassmannian gives the spherical action on the quotient module with basis
{m_mu}: spherical.spherical_sum with omega_action and ts_action.

The operator realized by a basis step is phi(T_s): f -> (x -> sum over the
s-neighbors of x of f). phi(T_a T_b) = phi(T_a) phi(T_b), so a word acts
from its last letter to its first, and the right action vec T_y that
spherical_sum sums is phi(T_y^-1) vec.
"""

from __future__ import annotations

from .affine_weyl import AffineWeyl, AffineWeylElement, ExpLabel
from .coefficients import QPoly, QVector, Q_ONE, Q_ZERO, check_same_datum
from .root_datum import RootDatum
from .spherical import spherical_sum


class ExpModuleError(ValueError):
    pass


class WindowTooSmall(ExpModuleError):
    pass


class RankOneViolated(ExpModuleError):
    pass


class NonDominantIndex(ExpModuleError):
    pass


_Q = QPoly({1: 1})
_QM1 = QPoly({1: 1, 0: -1})

# (closed, open): the classes of a splitting line cell in the closed and the
# open orbit, products of A1 -> q, Gm -> q - 1 and Gm minus a point -> q - 2
_SPLIT_CASES = {
    "I-iso": (Q_ONE, _QM1),
    "I-triv": (_Q, Q_ZERO),
    "II-in-kernel": (_QM1, Q_ZERO),
    "II-off-kernel": (Q_ZERO, _QM1),
    "IIIa-triv": (Q_ZERO, _Q),
    "IIIb-open-immersion": (Q_ONE, QPoly({1: 1, 0: -2})),
    "IIIb-triv": (Q_ZERO, _QM1),
}


def _check_label(W: AffineWeyl, lab: ExpLabel) -> ExpLabel:
    if lab.tag == "zero" and not W.is_left_w0_maximal(lab.elt):
        raise ExpModuleError(
            f"zero label on {W.to_json(lab.elt)}, which is not left-W0-maximal")
    return lab


def case_analysis(W: AffineWeyl, lab: ExpLabel, s: int):
    """The s-lines that meet lab's orbit: ((t, case_id, class), ...) for
    each label t on T = lab.elt or T s with a nonzero class.

    class counts the points of the s-line through t's chamber that lie in
    lab's orbit. case_id names the _SPLIT_CASES entry it came from,
    "I-nosplit" when T's cell does not split, and None when the count is
    forced. A zero label on T s needs (T s)^-1(alpha_i) < 0 for every simple
    alpha_i, so (T s)(alpha_s + n_s) is never a level-zero simple root: the
    iso case of IIIa cannot occur.

    Computed once per (lab, s) and kept in W._case_cache; a tuple, so no
    caller can change a kept entry.
    """
    W.check_simple(s)
    _check_label(W, lab)
    key = (lab, s)
    if key not in W._case_cache:
        W._case_cache[key] = _case_analysis(W, lab, s)
    return W._case_cache[key]


def _case_analysis(W: AffineWeyl, lab: ExpLabel, s: int):
    """case_analysis without the checks and the memo."""
    T = lab.elt
    maximal = W.is_left_w0_maximal(T)
    Ts, descent = W.simple_steps(T)[s]
    ts_labels = [ExpLabel("coset", Ts)]
    if W.is_left_w0_maximal(Ts):
        ts_labels.append(ExpLabel("zero", Ts))
    if not descent:
        # ascent: the line through T s has one point in T's cell, in lab's
        # orbit for every label on T s, or for lab's tag when T is maximal
        return tuple((t, None, Q_ONE) for t in ts_labels
                     if not maximal or t.tag == lab.tag)
    # descent: the line through T has one point in T s's cell and q - 1 in
    # T's; the line through T s lies in T's cell
    if not maximal:
        return ((ExpLabel("coset", T), None, _QM1),) + tuple(
            (t, "I-nosplit", _Q) for t in ts_labels)
    # iso: T(alpha_s + n_s) = -alpha_j
    k, level = W.simple_image(T, s)
    iso = level == 0 and W.rd.height(W.rd.roots[k]) == -1
    line = [
        (ExpLabel("coset", T), "II-off-kernel" if iso else "II-in-kernel"),
        (ExpLabel("zero", T), "IIIb-open-immersion" if iso else "IIIb-triv"),
    ]
    line += zip(ts_labels, ("I-iso" if iso else "I-triv", "IIIa-triv"))
    part = lab.tag == "zero"
    return tuple((t, case, _SPLIT_CASES[case][part]) for t, case in line
                 if not _SPLIT_CASES[case][part].is_zero())


def key_lemma_class(W: AffineWeyl, target: ExpLabel, w: ExpLabel, s: int) -> QPoly:
    """Class of the points of the s-line through w's chamber that lie in
    target's orbit."""
    _check_label(W, w)
    for t, _, cls in case_analysis(W, target, s):
        if t == w:
            return cls
    return Q_ZERO


class BigExpVector(QVector):
    """Z[q]-linear combination of exponential-orbit labels on Fl."""

    __slots__ = ()
    letter, json_field = "b", "label"

    def _key(self, lab):
        return _check_label(self.ctx, lab)

    def _sort_key(self, lab):
        return self.ctx.sort_key(lab.elt) + (lab.tag,)

    def _key_json(self, lab):
        return self.ctx.label_to_json(lab)


def basis_vector(W: AffineWeyl, lab: ExpLabel) -> BigExpVector:
    return BigExpVector(W, {lab: Q_ONE})


def ts_action(v: BigExpVector, s: int) -> BigExpVector:
    """phi(T_s): sum a function over the s-line through each chamber."""
    W = v.ctx
    W.check_simple(s)
    out = {}
    for lab, c in v.support.items():
        scale = c != Q_ONE
        for t, _, cls in case_analysis(W, lab, s):
            if scale:
                cls = cls * c
            out[t] = out[t] + cls if t in out else cls
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

    phi is multiplicative, so the letters act from the last to the first,
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


def fiber_class(v0: ExpLabel, word, target: ExpLabel, W: AffineWeyl) -> QPoly:
    """Class of the fiber over target's basepoint of the convolution of the
    orbit of v0 with the Iwahori orbit of s_1 ... s_r, word = [indices]."""
    return apply_word(basis_vector(W, v0), W.identity, word).coefficient(target)


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
        self._action_cache = {}

    # ---- index conversion

    def _check_dominant(self, *coweights):
        for mu in coweights:
            if len(mu) != self.rd.char_lattice_rank or not self.rd.is_dominant(mu):
                raise NonDominantIndex(
                    f"index {tuple(mu)} is not a dominant coweight of {self.rd.name}"
                )

    # ---- labels over the affine Grassmannian

    def closed_label(self, mu) -> ExpLabel:
        elt = self.W.translation(
            tuple(a + 1 for a in self.rd.to_adjoint_coords(mu))
        )
        return ExpLabel("coset", elt)

    def _label_coweight(self, elt: AffineWeylElement):
        """Inverse of closed_label on strictly dominant translations."""
        if elt.v != self.adj.identity:
            return None
        shifted = tuple(a - 1 for a in elt.lam)
        mu = self.rd.from_adjoint_coords(shifted)
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

    def _raw_action(self, lam, mu) -> BigExpVector:
        """The pullback of m_lam . 1_mu to the big module."""
        return self._action(lam, mu)[0]

    def _action(self, lam, mu):
        """m_lam . 1_mu as (its pullback to the big module, its m-basis
        reading), both computed once per pair: spherical_sum of the lift of
        m_lam over 1_mu in adjoint coordinates (-w0 commutes with
        to_adjoint_coords).

        Raises NormalizationFailure if the lift of m_lam is not
        right-W0-invariant.
        """
        key = (tuple(lam), tuple(mu))
        if key not in self._action_cache:
            r = spherical_sum(
                self.lift_closed(lam), {self.rd.to_adjoint_coords(mu): Q_ONE},
                omega_action, ts_action,
                f"exp-module action on {self.rd.name}: lift of m_{tuple(lam)} "
                f"acting by 1_{tuple(mu)}")
            out = {}
            for lab, c in r.support.items():
                nu = self._label_coweight(lab.elt)
                if nu is None:
                    continue
                out[nu] = out.get(nu, Q_ZERO) + (c if lab.tag == "coset" else -c)
            self._action_cache[key] = (r, ExpModVector(self.rd, out))
        return self._action_cache[key]

    def spherical_action_basis(self, lam, mu) -> ExpModVector:
        """m_lam . 1_mu in the m-basis; raises NonDominantIndex unless both
        indices are dominant."""
        self._check_dominant(lam, mu)
        return self._action(lam, mu)[1]

    def spherical_action(self, v: ExpModVector, mu) -> ExpModVector:
        check_same_datum(self.rd, v.ctx)
        out = ExpModVector(self.rd, {})
        for lam, c in v.support.items():
            out = out + self.spherical_action_basis(lam, mu).scale(c)
        return out

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
                if nu != mu and not self.rd.dominance_leq(nu, mu):
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
