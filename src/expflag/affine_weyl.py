"""The extended affine Weyl group W = X_*(T) x| W0.

Conventions pinned here and used everywhere else:
  - t_lam acts on X_*(T) tensor R by x -> x - lam;
  - (t_lam v)(alpha + n) = v(alpha) + <v(alpha), lam> + n on affine roots;
  - an affine root alpha + n is positive iff n >= 1, or n = 0 and alpha > 0,
    equivalently iff it is positive on the base alcove a0;
  - s_{alpha+n} = t_{n alpha-check} s_alpha, so the extra simple reflection of
    an irreducible component is s_{-theta+1} = t_{-theta-check} s_theta.

For w = t_lam v, w^-1(alpha + n) = v^-1(alpha) + n - <alpha, lam>. The
length and left-W0-maximality read this with integers and the W0 tables:
  - l(w) = sum over alpha > 0 of |<alpha, lam> + d|, with d = 1 if
    v^-1(alpha) < 0 and d = 0 otherwise;
  - so l(w) = 0 iff each <alpha, lam> is 0 or -1 and d = 1 exactly where
    it is -1: the length-zero group Omega has one element per lam with
    adjoint coordinates in {0, -1} and <theta, lam> >= -1 for each highest
    root theta, with v the unique element of W0 that has those inversions
    (Iwahori-Matsumoto);
  - w is maximal in W0 w iff w^-1(alpha_i) < 0 for every simple alpha_i,
    i.e. iff <alpha_i, lam> >= 1, or <alpha_i, lam> = 0 and i is a left
    descent of v (v^-1(alpha_i) < 0).
A right descent is one sign (l(w s) < l(w) iff w(alpha_s) < 0): for the
simple affine root alpha_i + n_i, i is a right descent iff the level
n_i + <v(alpha_i), lam> of w(alpha_i + n_i) is < 0, or is 0 with
v(alpha_i) < 0.
Right multiplication by a simple reflection s_i = t_{lam_i} u_i is
t_lam v s_i = t_{lam + v lam_i} (v u_i); a table built at construction holds
the pair (v lam_i, v u_i) for every v in W0 and every i.
``simple_steps`` memoises, per element w, each w s_i with whether i is a
right descent. Every simple step of this module, of the Hecke algebra and
of the exponential module reads that table, ``reduced_word`` memoises its
answer per element, and ``exp_module.case_analysis`` memoises its s-lines
per (label, s) in ``_case_cache``. Like ``_len_cache`` and
``_bruhat_cache`` these tables need no size bound: each key is an element
or label the caller has already built.
``sign_on_alcove`` reads the sign of alpha + n on a0 at the barycenter
rho-hat / h, with h = 1 + the greatest height of a highest root theta; it
lies in a0, as <alpha_i, rho-hat> = 1 and <theta, rho-hat> = ht(theta) < h.
Scaled by 2h > 0 the value is the integer <alpha, 2 rho-hat> + 2h n, so
the sign needs no rational. ``length_brute`` and
``is_left_w0_maximal_by_descents`` are independent cross-checks of the
closed forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, mul
from typing import NamedTuple

from .root_datum import FiniteWeylElement, RootDatum


class AffineWeylError(ValueError):
    pass


# enumerate_elements holds at most this many elements
_ELEMENT_CAP = 10**5


@dataclass(frozen=True)
class AffineRoot:
    finite_part: tuple
    level: int


class AffineWeylElement(NamedTuple):
    """w = t_lam v with lam in X_*(T) and v in W0.

    Equality and hashing are those of the pair (lam, v), and v hashes by
    its index.
    """

    lam: tuple
    v: FiniteWeylElement


class _ExpLabelTuple(NamedTuple):
    tag: str
    elt: AffineWeylElement


class ExpLabel(_ExpLabelTuple):
    """Orbit label: a coset-type orbit or the open piece of a splitting one.

    A tuple, so hashing and equality are those of (tag, elt).
    """

    __slots__ = ()

    def __new__(cls, tag, elt):
        if tag not in ("coset", "zero"):
            raise AffineWeylError(f"bad tag {tag!r}")
        return super().__new__(cls, tag, elt)


class AffineWeyl:
    """Context object tying a RootDatum to its extended affine Weyl group."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.identity = AffineWeylElement(
            tuple(0 for _ in range(rd.char_lattice_rank)), rd.identity
        )
        self._build_simples()
        self._build_barycenter()
        self._len_cache = {}
        # indexed like rd.roots: 1 at each negative root, else 0
        self._root_negative = tuple(
            int(r not in rd.positive_root_set) for r in rd.roots
        )
        # simple affine root i is roots[_simple_k[i]] + _simple_n[i]
        self._simple_k = [
            rd.root_index[ar.finite_part] for ar in self.simple_affine_roots
        ]
        self._simple_n = [ar.level for ar in self.simple_affine_roots]
        # _right_table[v][i] = (v lam_i, v u_i) for s_i = t_{lam_i} u_i
        self._right_table = [
            [(v.apply_coweight(s.lam), rd.w_mul(v, s.v)) for s in self.simples]
            for v in rd.weyl_elements()
        ]
        self._positive = [
            (k, a) for k, a in enumerate(rd.roots) if a in rd.positive_root_set
        ]
        self._bruhat_cache = {}
        self._step_cache = {}
        self._word_cache = {}
        # exp_module.case_analysis per (label, s)
        self._case_cache = {}

    # ---- generators

    def _build_simples(self):
        rd = self.rd
        zero = tuple(0 for _ in range(rd.char_lattice_rank))
        self.simples = []
        self.simple_affine_roots = []
        for i in range(rd.rank):
            self.simples.append(AffineWeylElement(zero, rd.simple_reflections[i]))
            self.simple_affine_roots.append(AffineRoot(rd.simple_roots[i], 0))
        for theta in rd.highest_roots():
            lam = tuple(-c for c in rd.coroot_of[theta])
            self.simples.append(AffineWeylElement(lam, rd.reflection(theta)))
            self.simple_affine_roots.append(
                AffineRoot(tuple(-a for a in theta), 1)
            )
        self.num_simples = len(self.simples)

    def _build_barycenter(self):
        # the barycenter is rho-hat / h; sign_on_alcove scales by 2h > 0
        rd = self.rd
        h = 1 + max(
            (rd.height(t) for t in rd.highest_roots()), default=0
        )
        self._two_h = 2 * h

    # ---- group arithmetic

    def translation(self, lam) -> AffineWeylElement:
        self.rd._check_rank(lam)
        return AffineWeylElement(tuple(lam), self.rd.identity)

    def mul(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        # (t_lam v)(t_mu u) = t_{lam + v mu} (v u)
        lam = tuple(map(add, x.lam, x.v.apply_coweight(y.lam)))
        return AffineWeylElement(lam, self.rd.w_mul(x.v, y.v))

    def inverse(self, x: AffineWeylElement) -> AffineWeylElement:
        vinv = self.rd.w_inverse(x.v)
        lam = tuple(-a for a in vinv.apply_coweight(x.lam))
        return AffineWeylElement(lam, vinv)

    def right_mul_simple(self, x: AffineWeylElement, i: int) -> AffineWeylElement:
        """x s_i, read off the right-multiplication table."""
        shift, u = self._right_table[x.v.index][i]
        return AffineWeylElement(tuple(map(add, x.lam, shift)), u)

    def check_simple(self, i: int) -> None:
        """Raise AffineWeylError unless i indexes a simple reflection."""
        if not 0 <= i < self.num_simples:
            raise AffineWeylError(
                f"no simple reflection s{i}: indices run over 0..{self.num_simples - 1}")

    def simple_steps(self, w: AffineWeylElement):
        """((w s_i, l(w s_i) < l(w)) for each i), computed once per w."""
        steps = self._step_cache.get(w)
        if steps is None:
            steps = self._step_cache[w] = tuple([
                (self.right_mul_simple(w, i), self.is_right_descent(w, i))
                for i in range(self.num_simples)])
        return steps

    def word_to_element(self, word) -> AffineWeylElement:
        w = self.identity
        for i in word:
            self.check_simple(i)
            w = self.simple_steps(w)[i][0]
        return w

    # ---- affine roots

    def act_on_affine_root(self, w: AffineWeylElement, ar: AffineRoot) -> AffineRoot:
        va = self.rd.apply_weight(w.v, ar.finite_part)
        return AffineRoot(va, ar.level + self.rd.pair(va, w.lam))

    def is_positive_affine_root(self, ar: AffineRoot) -> bool:
        if ar.level >= 1:
            return True
        if ar.level <= -1:
            return False
        return ar.finite_part in self.rd.positive_root_set

    def sign_on_alcove(self, ar: AffineRoot) -> int:
        """Sign of the affine functional on the open base alcove: that of
        <alpha, 2 rho-hat> + 2h n, 2h times its value at rho-hat / h."""
        val = self.rd.pair(ar.finite_part, self.rd.two_rho_hat) + self._two_h * ar.level
        if val > 0:
            return 1
        if val < 0:
            return -1
        raise AffineWeylError("affine root vanishes at the barycenter")

    # ---- length, words, Bruhat order

    def length(self, w: AffineWeylElement) -> int:
        """Number of positive affine roots that w^-1 makes negative.

        w^-1(a + n) = v^-1 a + n - <a, lam> for w = t_lam v. For a > 0 with
        p = <a, lam> and d = 1 if v^-1 a < 0 (else 0), the levels n of a and
        of -a that count number |p + d| together, so l(w) = sum of |p + d|.
        """
        if w in self._len_cache:
            return self._len_cache[w]
        rd = self.rd
        vinv_perm = rd.root_perm[rd.inv_table[w.v.index]]
        neg = self._root_negative
        total = sum(
            abs(rd.pair(a, w.lam) + neg[vinv_perm[k]]) for k, a in self._positive
        )
        self._len_cache[w] = total
        return total

    def length_brute(self, w: AffineWeylElement) -> int:
        """Inversion count over an explicit finite list of positive affine roots."""
        rd = self.rd
        bound = 1 + max(
            (abs(rd.pair(a, w.lam)) for a in rd.roots), default=0
        )
        winv = self.inverse(w)
        count = 0
        for a in rd.roots:
            for n in range(-bound, bound + 1):
                ar = AffineRoot(a, n)
                if not self.is_positive_affine_root(ar):
                    continue
                if self.sign_on_alcove(self.act_on_affine_root(winv, ar)) < 0:
                    count += 1
        return count

    def simple_image(self, w: AffineWeylElement, i: int):
        """w(alpha_i + n_i) = v(alpha_i) + n_i + <v(alpha_i), lam> for
        w = t_lam v, as (index k of v(alpha_i) in rd.roots, level)."""
        rd = self.rd
        k = rd.root_perm[w.v.index][self._simple_k[i]]
        return k, self._simple_n[i] + sum(map(mul, rd.roots[k], w.lam))

    def is_right_descent(self, w: AffineWeylElement, i: int) -> bool:
        """l(w s_i) < l(w): w(alpha_i + n_i) is a negative affine root."""
        k, level = self.simple_image(w, i)
        return level < 0 or (level == 0 and self._root_negative[k] == 1)

    def reduced_word(self, w: AffineWeylElement):
        """Return (omega_part, word) with w = omega_part * product(word).

        Deterministic: the least-index right descent is peeled at each step.
        Computed once per w.
        """
        if w in self._word_cache:
            return self._word_cache[w]
        word = []
        cur = w
        for _ in range(self.length(w)):
            for i, (ws, down) in enumerate(self.simple_steps(cur)):
                if down:
                    break
            else:
                raise AffineWeylError("positive length but no descent")
            word.append(i)
            cur = ws
        word.reverse()
        out = self._word_cache[w] = (cur, tuple(word))
        return out

    def walk_reduced_words(self, elements, start, step):
        """[value of w for w in elements]: for w = tau s_1 ... s_k by
        reduced_word, start(tau) stepped by step(value, s_j) for j = 1..k.

        reduced_word peels the least-index right descent, so the word of
        each prefix tau s_1 ... s_j is the prefix of w's word: its value is
        kept for this call, and a prefix several words pass through is
        stepped once.
        """
        seen = {}
        out = []
        for w in elements:
            cur, word = self.reduced_word(w)
            if cur not in seen:
                seen[cur] = start(cur)
            value = seen[cur]
            for i in word:
                cur = self.simple_steps(cur)[i][0]
                if cur not in seen:
                    seen[cur] = step(value, i)
                value = seen[cur]
            out.append(value)
        return out

    def bruhat_leq(self, x: AffineWeylElement, y: AffineWeylElement) -> bool:
        key = (x, y)
        if key in self._bruhat_cache:
            return self._bruhat_cache[key]
        lx, ly = self.length(x), self.length(y)
        if lx > ly:
            res = False
        elif ly == 0:
            res = x == y
        else:
            i, y1 = next(
                (i, ys) for i, (ys, down) in enumerate(self.simple_steps(y)) if down
            )
            xs, down = self.simple_steps(x)[i]
            res = self.bruhat_leq(xs if down else x, y1)
        self._bruhat_cache[key] = res
        return res

    # ---- Omega, the length-zero subgroup

    def omega_elements(self):
        """All length-zero elements, sorted by lam; requires finite
        X_*(T)/(coroot lattice)."""
        rd = self.rd
        if rd.rank < rd.char_lattice_rank:
            raise AffineWeylError(
                "Omega enumeration needs a semisimple datum (finite pi1)"
            )
        tops = rd.highest_roots()
        out = []
        for coords in itertools.product((0, -1), repeat=rd.rank):
            lam = rd.from_adjoint_coords(coords)
            if lam is None or any(rd.pair(t, lam) < -1 for t in tops):
                continue
            ws = (AffineWeylElement(lam, v) for v in rd.weyl_elements())
            out.append(next(w for w in ws if self.length(w) == 0))
        out.sort(key=lambda w: w.lam)
        return out

    # ---- cosets, maximality, exponential labels

    def facet_f0(self):
        return frozenset(range(self.rd.rank))

    def facet_a0(self):
        return frozenset()

    def right_minimal(self, w: AffineWeylElement, f) -> AffineWeylElement:
        """Minimal representative of w W_f: peel the least-index right
        descent in f until none is left."""
        f = sorted(f)
        while True:
            steps = self.simple_steps(w)
            for i in f:
                if steps[i][1]:
                    w = steps[i][0]
                    break
            else:
                return w

    def is_right_minimal(self, w: AffineWeylElement, f) -> bool:
        steps = self.simple_steps(w)
        return not any(steps[i][1] for i in f)

    def is_left_w0_maximal(self, w: AffineWeylElement) -> bool:
        """w = t_lam v of maximal length in W0 w.

        That holds iff w^-1(alpha_i) < 0 for every simple alpha_i, and
        w^-1(alpha_i + 0) = v^-1 alpha_i - <alpha_i, lam>: so iff each
        <alpha_i, lam> >= 1, or = 0 with i a left descent of v.
        """
        rd = self.rd
        desc = rd.left_descents[w.v.index]
        for i, a in enumerate(rd.simple_roots):
            p = rd.pair(a, w.lam)
            if p < 0 or (p == 0 and i not in desc):
                return False
        return True

    def is_left_w0_maximal_by_descents(self, w: AffineWeylElement) -> bool:
        """Same predicate via left descents; independent implementation."""
        lw = self.length(w)
        return all(
            self.length(self.mul(self.simples[i], w)) < lw
            for i in range(self.rd.rank)
        )

    def enumerate_elements(self, length_bound: int):
        """All w with l(w) <= bound, BFS by length from Omega.

        Raises AffineWeylError on a negative bound, and once more than
        _ELEMENT_CAP elements are held.
        """
        if length_bound < 0:
            raise AffineWeylError("length bound must be nonnegative")
        seen = set()
        out = []
        frontier = list(self.omega_elements())
        for w in frontier:
            seen.add(w)
            out.append(w)
        depth = 0
        while frontier and depth < length_bound:
            new = []
            for w in frontier:
                for y, down in self.simple_steps(w):
                    if down:
                        continue
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
                        out.append(y)
                        if len(out) > _ELEMENT_CAP:
                            raise AffineWeylError(
                                f"more than {_ELEMENT_CAP} elements of length "
                                f"<= {length_bound}")
            frontier = new
            depth += 1
        return out

    def enumerate_exp_labels(self, length_bound: int):
        labels = []
        for w in self.enumerate_elements(length_bound):
            labels.append(ExpLabel("coset", w))
            if self.is_left_w0_maximal(w):
                labels.append(ExpLabel("zero", w))
        labels.sort(key=lambda lab: self.sort_key(lab.elt) + (lab.tag,))
        return labels

    def sort_key(self, w: AffineWeylElement):
        return (self.length(w), w.lam, w.v.word)

    # ---- translations and dominance helpers

    def strictly_dominant_translation(self, w: AffineWeylElement) -> bool:
        return w.v == self.rd.identity and self.rd.is_strictly_dominant(w.lam)

    # ---- serialization

    def to_json(self, w: AffineWeylElement):
        return {"lambda": list(w.lam), "v_word": list(w.v.word)}

    def from_json(self, doc) -> AffineWeylElement:
        v = self.rd.identity
        for i in doc["v_word"]:
            v = self.rd.w_mul(v, self.rd.simple_reflections[i])
        return AffineWeylElement(tuple(doc["lambda"]), v)

    def label_to_json(self, label: ExpLabel):
        doc = self.to_json(label.elt)
        doc["tag"] = label.tag
        return doc
