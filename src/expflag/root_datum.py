"""Pinned split reductive root data and their finite Weyl groups.

A root datum is given by two lattices X*(T) and X_*(T) of the same rank,
simple roots in the first and simple coroots in the second, written in
dual bases so that they pair by the dot product. The isogeny type is
encoded entirely by the lattices: SL2 and PGL2 share a Cartan matrix but
differ in where the (co)roots sit.

The finite Weyl group W0 is built once, at construction, by a BFS over words
(x s_i for each x in turn, i ascending). Each element is known by its BFS
position ``index`` and keeps the reduced word BFS reached it by, so words,
sort keys and output never depend on how an element was computed. Integer
tables indexed by position hold products, inverses, the action on the list
of roots and the left descents; multiplication and inversion are lookups.
A reflection s_alpha is read off one matrix formula, x -> x - <alpha, x>
alpha^vee: the simple ones seed the BFS, and ``reflection`` looks the matrix
of any other up among the elements the BFS built.

Coordinates are integers. Each root carries its simple-root coordinates
from the reflection closure, which give positivity, height and the highest
roots. Coroot and adjoint coordinates of a coweight read one integer
adjugate of the Cartan matrix, computed at construction. The finite-type
test reads the leading principal minors of the Cartan matrix itself, and
rho-hat is kept doubled, as the integer ``two_rho_hat``. ``_det`` is Bareiss
elimination over Z, and ``Fraction`` is left only in ``pair_fractional``.

The dominance order on coweights is enumerated here and only here:
``dominance_leq``, the interval ``dominant_below(mu)``, walked down the
positive coroots, and the height window ``dominant_window(bound)`` that
``expmod --rank-one``, ``verify`` and the F_q oracle work on. Each of these
rejects a coweight without ``char_lattice_rank`` coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul


class RootDatumError(ValueError):
    pass


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c, u):
    return tuple(c * a for a in u)


def _reflection_matrix(root, coroot):
    """The matrix of x -> x - <root, x> coroot on X_*(T)."""
    n = len(coroot)
    return tuple(
        tuple(int(r == c) - coroot[r] * root[c] for c in range(n)) for r in range(n)
    )


def _mat_mul(x, y):
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


class FiniteWeylElement:
    """Element of W0, built once per root datum and known by its index.

    ``index`` is the element's position in ``RootDatum.weyl_elements()``
    (BFS by length), ``word`` the reduced word that BFS reached it by and
    ``mat`` its matrix on X_*(T) (columns are images of basis vectors); its
    action on the roots is ``RootDatum.apply_weight``. Equality and hashing
    use ``index``.
    """

    __slots__ = ("index", "word", "mat")

    def __init__(self, index, word, mat):
        self.index = index
        self.word = word
        self.mat = mat

    def __eq__(self, other):
        return isinstance(other, FiniteWeylElement) and self.index == other.index

    def __hash__(self):
        return self.index

    def __repr__(self):
        return f"FiniteWeylElement(index={self.index}, word={self.word})"

    def apply_coweight(self, v):
        return tuple(sum(map(mul, row, v)) for row in self.mat)

    @property
    def length(self):
        return len(self.word)


class RootDatum:
    """Based root datum with derived data computed eagerly.

    Construction validates finiteness of the root system (reflection
    closure) and the Cartan-matrix axioms.
    """

    def __init__(self, name, simple_roots, simple_coroots):
        if not simple_roots:
            raise RootDatumError("torus data rejected: need at least one simple root")
        if len(simple_roots) != len(simple_coroots):
            raise RootDatumError("root/coroot count mismatch")
        self.name = name
        self.rank = len(simple_roots)
        self.simple_roots = [tuple(r) for r in simple_roots]
        self.simple_coroots = [tuple(c) for c in simple_coroots]
        self.char_lattice_rank = len(self.simple_roots[0])
        if len(self.simple_coroots[0]) != self.char_lattice_rank:
            raise RootDatumError("lattice rank mismatch between roots and coroots")

        self.cartan = [
            [self.pair(a, b) for b in self.simple_coroots] for a in self.simple_roots
        ]
        _check_cartan(self.cartan)
        # cartan^-1 = adj / det, over Z
        self._cartan_det = _det(self.cartan)
        self._cartan_adj = _adjugate(self.cartan)

        self._build_roots()
        self._build_weyl()
        self._build_rho()
        self._windows = {}  # dominant_window per bound

    # ---- pairing and dominance

    def pair(self, chi, lam):
        """<chi, lambda> for chi in X*(T) (or Q-span), lambda in X_*(T)."""
        return sum(map(mul, chi, lam))

    def _check_rank(self, lam):
        if len(lam) != self.char_lattice_rank:
            raise RootDatumError(
                f"coweight {tuple(lam)} has {len(lam)} coordinates; "
                f"{self.name} takes {self.char_lattice_rank} coordinates")

    def is_dominant(self, lam):
        self._check_rank(lam)
        return all(self.pair(a, lam) >= 0 for a in self.simple_roots)

    def is_strictly_dominant(self, lam):
        self._check_rank(lam)
        return all(self.pair(a, lam) > 0 for a in self.simple_roots)

    def dominance_leq(self, nu, mu):
        """nu <= mu: mu - nu in the nonnegative span of the simple coroots."""
        self._check_rank(nu)
        self._check_rank(mu)
        coeffs = self.coroot_coords(_vec_sub(mu, nu))
        return coeffs is not None and min(coeffs) >= 0

    def dominant_below(self, mu):
        """The dominant nu <= mu, sorted.

        Each is reached from mu by subtracting positive coroots while staying
        dominant (Stembridge, The partial order of dominant weights, 1998),
        so a search along those steps finds them all.
        """
        mu = tuple(mu)
        if not self.is_dominant(mu):
            raise RootDatumError(f"{mu} is not dominant")
        steps = [self.coroot_of[r] for r in self.positive_roots]
        seen, frontier = {mu}, [mu]
        while frontier:
            frontier = [
                nu for nu in {_vec_sub(x, c) for x in frontier for c in steps}
                if nu not in seen and self.is_dominant(nu)
            ]
            seen.update(frontier)
        return sorted(seen)

    def dominant_window(self, bound):
        """Dominant lam with <2 rho, lam> <= <2 rho, bound> and bound - lam
        in the rational span of the coroots, sorted; bound need not be dominant.

        lam is dominant iff its adjoint coordinates v_i = <alpha_i, lam> are
        >= 0, and <2 rho, lam> = sum_i k_i v_i for 2 rho = sum_i k_i alpha_i:
        the v under the cap are walked, each lifted to bound - sum_j c_j
        alpha_j^vee with c = cartan^-1 (<alpha, bound> - v) where integral.
        On a semisimple datum the window holds every dominant coweight under
        the cap, 0 included; on GL2 every lam keeps bound's central part.
        """
        bound = tuple(bound)
        self._check_rank(bound)
        if bound not in self._windows:
            self._windows[bound] = self._dominant_window(bound)
        return list(self._windows[bound])

    def _dominant_window(self, bound):
        walk = [((), self.pair(self.two_rho, bound))]
        for i in range(self.rank):
            k = sum(self.root_coords[r][i] for r in self.positive_roots)
            walk = [(v + (x,), room - k * x) for v, room in walk for x in range(room // k + 1)]
        u, det = self.to_adjoint_coords(bound), self._cartan_det
        out = []
        for v, _room in walk:
            shift = self._coroot_sum(self._adj_apply(_vec_sub(u, v)))
            if not any(s % det for s in shift):
                out.append(tuple(b - s // det for b, s in zip(bound, shift)))
        return sorted(out)

    # ---- derived data

    def _build_roots(self):
        """Reflection closure of the simple roots, with coroots and
        simple-root coordinates (``root_coords``) in parallel."""
        n = self.rank
        roots = dict(zip(self.simple_roots, self.simple_coroots))
        coords = {r: tuple(int(j == i) for j in range(n)) for i, r in enumerate(self.simple_roots)}
        frontier = list(roots.items())
        while frontier:
            new = []
            for r, c in frontier:
                for i in range(n):
                    a, av = self.simple_roots[i], self.simple_coroots[i]
                    k = self.pair(r, av)
                    r2 = _vec_sub(r, _vec_scale(k, a))
                    k2 = self.pair(a, c)
                    c2 = _vec_sub(c, _vec_scale(k2, av))
                    if r2 not in roots:
                        roots[r2] = c2
                        coords[r2] = tuple(x - k * (j == i) for j, x in enumerate(coords[r]))
                        new.append((r2, c2))
                    elif roots[r2] != c2:
                        raise RootDatumError("coroot mismatch under reflection closure")
            frontier = new
            if len(roots) > 4 * self.rank**2 + 200:
                raise RootDatumError("root system not finite (Cartan matrix not of finite type)")
        self.roots = sorted(roots)
        self.coroot_of = dict(roots)
        self.root_coords = coords
        self.positive_roots = [r for r in self.roots if min(coords[r]) >= 0]
        self.positive_root_set = frozenset(self.positive_roots)
        self.simple_root_set = frozenset(self.simple_roots)
        if len(self.positive_roots) != len(self.roots) // 2:
            raise RootDatumError("root system not balanced")

    def height(self, r):
        """Sum of the coefficients of the root r in the basis of simple roots."""
        return sum(self.root_coords[r])

    def _build_weyl(self):
        """W0 by BFS on words, with its tables.

        Elements are numbered in BFS order (x s_i for each x in turn, i
        ascending), so index 0 is the identity and each element keeps the
        first word that reached it. The tables, by index:
          - ``mul_table[x][y]``: the product xy;
          - ``inv_table[x]``: the inverse;
          - ``root_perm[x][k]``: the index in ``roots`` of x(roots[k]),
            read through ``root_index`` (root -> its index in ``roots``);
          - ``left_descents[x]``: the simple i with x^-1(alpha_i) < 0,
            i.e. l(s_i x) < l(x).
        """
        n = self.char_lattice_rank
        roots = self.roots
        rindex = self.root_index = {r: k for k, r in enumerate(roots)}
        s_mats, s_perms = [], []
        for a, av in zip(self.simple_roots, self.simple_coroots):
            s_mats.append(_reflection_matrix(a, av))
            s_perms.append(tuple(
                rindex[_vec_sub(r, _vec_scale(self.pair(r, av), a))] for r in roots
            ))
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        mats, words, perms, parent = [ident], [()], [tuple(range(len(roots)))], [0]
        by_mat = self._by_mat = {ident: 0}
        right = []  # right[x][i]: the index of x s_i
        x = 0
        while x < len(mats):
            row = []
            for i in range(self.rank):
                m = _mat_mul(mats[x], s_mats[i])
                if m not in by_mat:
                    by_mat[m] = len(mats)
                    mats.append(m)
                    words.append(words[x] + (i,))
                    # (x s_i)(r) = x(s_i r)
                    perms.append(tuple(perms[x][k] for k in s_perms[i]))
                    parent.append(x)
                    if len(mats) > 100000:
                        raise RootDatumError("Weyl group too large")
                row.append(by_mat[m])
            right.append(row)
            x += 1
        # x y = (x y') s_i when y = y' s_i is y's BFS word
        self.mul_table = []
        for x in range(len(mats)):
            row = [x]
            for y in range(1, len(mats)):
                row.append(right[row[parent[y]]][words[y][-1]])
            self.mul_table.append(row)
        self.inv_table = [row.index(0) for row in self.mul_table]
        self.root_perm = perms
        simple_idx = [rindex[a] for a in self.simple_roots]
        self.left_descents = [
            frozenset(
                i for i, k in enumerate(simple_idx)
                if roots[perms[self.inv_table[x]][k]] not in self.positive_root_set
            )
            for x in range(len(mats))
        ]
        self._w0 = [FiniteWeylElement(x, words[x], mats[x]) for x in range(len(mats))]
        self.identity = self._w0[0]
        self.simple_reflections = [self._w0[j] for j in right[0]]

    def w_mul(self, x: FiniteWeylElement, y: FiniteWeylElement) -> FiniteWeylElement:
        return self._w0[self.mul_table[x.index][y.index]]

    def w_inverse(self, x: FiniteWeylElement) -> FiniteWeylElement:
        return self._w0[self.inv_table[x.index]]

    def weyl_elements(self):
        """All of W0, each with one reduced word, BFS by length."""
        return self._w0

    def longest_element(self):
        return self._w0[-1]

    def apply_weight(self, x: FiniteWeylElement, root):
        """x(root) for root any sequence; W0 acts on X*(T) here only through
        the roots."""
        root = tuple(root)
        try:
            return self.roots[self.root_perm[x.index][self.root_index[root]]]
        except KeyError:
            raise RootDatumError(f"{root} is not a root") from None

    def reflection(self, root) -> FiniteWeylElement:
        """s_root, the element of W0 whose matrix is x -> x - <root, x> root^vee;
        root may be any sequence."""
        root = tuple(root)
        if root not in self.coroot_of:
            raise RootDatumError(f"{root} is not a root")
        return self._w0[self._by_mat[_reflection_matrix(root, self.coroot_of[root])]]

    def _build_rho(self):
        # 2 rho = sum of positive roots in X*(T), 2 rho-hat = sum of positive
        # coroots in X_*(T)
        n = self.char_lattice_rank
        total = [0] * n
        for r in self.positive_roots:
            total = [a + b for a, b in zip(total, r)]
        self.two_rho = tuple(total)
        totalc = [0] * n
        for r in self.positive_roots:
            c = self.coroot_of[r]
            totalc = [a + b for a, b in zip(totalc, c)]
        self.two_rho_hat = tuple(totalc)

    def pair_fractional(self, chi, lam):
        """The pairing, as a Fraction."""
        return Fraction(self.pair(chi, lam))

    def highest_roots(self):
        """One highest root per component: the positive roots theta with no
        root theta + alpha_i, ordered by the first simple root in their
        support."""
        tops = [
            t for t in self.positive_roots
            if not any(tuple(map(add, t, a)) in self.root_coords for a in self.simple_roots)
        ]
        return sorted(tops, key=lambda t: next(i for i, c in enumerate(self.root_coords[t]) if c))

    def adjoint(self):
        """The adjoint datum of the same Cartan matrix.

        X_*(T_adj) = coweight lattice in the basis of fundamental coweights;
        simple coroots are the columns of the Cartan matrix, simple roots the
        standard basis vectors.
        """
        r = self.rank
        roots = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
        coroots = [tuple(self.cartan[i][j] for i in range(r)) for j in range(r)]
        return build_root_datum(
            {
                "name": self.name + "_adj",
                "simple_roots": roots,
                "simple_coroots": coroots,
            }
        )

    def to_adjoint_coords(self, lam):
        """X_*(T) -> X_*(T_adj): lambda -> (<alpha_i, lambda>)_i."""
        self._check_rank(lam)
        return tuple(self.pair(a, lam) for a in self.simple_roots)

    def from_adjoint_coords(self, v):
        """Partial inverse of to_adjoint_coords; None if v is not in the image.

        On a semisimple datum the simple coroots span, so the preimage is
        sum_j (cartan^-1 v)_j alpha_j^vee = (coroot sum of adj v) / det.
        """
        if self.rank != self.char_lattice_rank:
            raise RootDatumError(
                f"from_adjoint_coords needs a semisimple datum; {self.name} is not semisimple")
        if len(v) != self.rank:
            raise RootDatumError(
                f"adjoint coordinates {tuple(v)} have {len(v)} entries; "
                f"{self.name} takes {self.rank} coordinates")
        lam = self._coroot_sum(self._adj_apply(v))
        if any(a % self._cartan_det for a in lam):
            return None
        return tuple(a // self._cartan_det for a in lam)

    def coroot_coords(self, lam):
        """The integers c with lam = sum_j c_j alpha_j^vee, or None.

        <alpha_i, lam> = sum_j cartan[i][j] c_j, so c = adj <alpha, lam> / det;
        rebuilding lam rejects a coweight with a central part (GL2's (1, 1)).
        """
        c = self._adj_apply(self.to_adjoint_coords(lam))
        if any(a % self._cartan_det for a in c):
            return None
        c = tuple(a // self._cartan_det for a in c)
        return c if self._coroot_sum(c) == tuple(lam) else None

    def _adj_apply(self, v):
        return [sum(map(mul, row, v)) for row in self._cartan_adj]

    def _coroot_sum(self, c):
        """sum_j c_j alpha_j^vee."""
        return tuple(sum(map(mul, c, col)) for col in zip(*self.simple_coroots))


def _check_cartan(cartan):
    n = len(cartan)
    for i in range(n):
        if cartan[i][i] != 2:
            raise RootDatumError("Cartan diagonal must be 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise RootDatumError("Cartan off-diagonal must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise RootDatumError("Cartan zero pattern must be symmetric")
    # finite type iff every leading principal minor is positive (Kac, ch. 4);
    # a symmetrization D A with D positive diagonal has the same minor signs
    for k in range(1, n + 1):
        if _det([row[:k] for row in cartan[:k]]) <= 0:
            raise RootDatumError("Cartan matrix not of finite type")


def _adjugate(m):
    """adj m, with m adj m = det(m) I: adj[i][j] is the (j, i) cofactor."""
    n = len(m)
    return [
        [(-1) ** (i + j) * _det([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


def _det(m):
    """det m over Z by Bareiss elimination, whose divisions are all exact."""
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _simply_connected(name, cartan):
    r = len(cartan)
    return {
        "name": name,
        "simple_roots": [tuple(cartan[i]) for i in range(r)],
        "simple_coroots": [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)],
    }


def _adjoint_preset(name, cartan):
    r = len(cartan)
    return {
        "name": name,
        "simple_roots": [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)],
        "simple_coroots": [tuple(cartan[i][j] for i in range(r)) for j in range(r)],
    }


_PRESETS = {}
_PRESETS["SL2"] = lambda: _simply_connected("SL2", [[2]])
_PRESETS["PGL2"] = lambda: _adjoint_preset("PGL2", [[2]])
_PRESETS["GL2"] = lambda: {"name": "GL2", "simple_roots": [(1, -1)], "simple_coroots": [(1, -1)]}
_PRESETS["SL3"] = lambda: _simply_connected("SL3", [[2, -1], [-1, 2]])
_PRESETS["PGL3"] = lambda: _adjoint_preset("PGL3", [[2, -1], [-1, 2]])
_PRESETS["Sp4"] = lambda: _simply_connected("Sp4", [[2, -1], [-2, 2]])
_PRESETS["G2"] = lambda: _simply_connected("G2", [[2, -1], [-3, 2]])


_SPEC_KEYS = frozenset({"name", "simple_roots", "simple_coroots", "cartan"})


def build_root_datum(spec) -> RootDatum:
    """Build from a preset name or a description dict.

    A description has keys name, simple_roots, simple_coroots (in dual
    bases of X*(T) and X_*(T): roots and coroots pair by the dot product),
    and optionally cartan (validated against the computed one if present).
    Any other key is rejected.
    """
    if isinstance(spec, str):
        if spec not in _PRESETS:
            raise RootDatumError(f"unknown preset {spec!r}; have {sorted(_PRESETS)}")
        spec = _PRESETS[spec]()
    unknown = sorted(set(spec) - _SPEC_KEYS)
    if unknown:
        raise RootDatumError(
            f"unknown root datum keys {unknown}; allowed: {sorted(_SPEC_KEYS)}")
    rd = RootDatum(spec["name"], spec["simple_roots"], spec["simple_coroots"])
    if "cartan" in spec and [list(r) for r in rd.cartan] != [list(r) for r in spec["cartan"]]:
        raise RootDatumError("declared Cartan matrix disagrees with the pairing")
    return rd
