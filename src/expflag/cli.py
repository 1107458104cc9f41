"""Command-line surface: presets, computations, and verification suites.

Exit codes: 0 success, 1 invariant violation (with a JSON report on
stdout), 2 configuration error.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field

import click

from .root_datum import build_root_datum
from .affine_weyl import AffineWeyl, ExpLabel
from .coefficients import FIELD_SIZES, QPoly
from .hecke import HeckeElement, hecke_mul, t_basis
from .spherical import spherical_mul, unit_indicator
from .exp_module import ExpModule, NonDominantIndex, fiber_class
from . import fq_oracle


@dataclass
class RunConfig:
    group: str = "SL2"
    facet: str = "f0"
    bound: int = 2
    q_list: tuple = (2, 3, 5)
    fmt: str = "json"
    out: str = "-"
    seed: int = 0
    extras: dict = field(default_factory=dict)

    def validate(self):
        if self.bound <= 0:
            raise click.UsageError("bound must be positive")
        for q in self.q_list:
            if q not in FIELD_SIZES:
                raise click.UsageError(
                    f"unsupported field size {q}; supported: "
                    + ", ".join(map(str, FIELD_SIZES))
                )


def _emit(cfg: RunConfig, doc):
    if cfg.fmt == "tsv":
        lines = []
        if isinstance(doc, dict):
            rows = doc.get("rows", [doc])
        else:
            rows = doc
        for row in rows:
            if isinstance(row, dict):
                lines.append("\t".join(str(v) for v in row.values()))
            else:
                lines.append("\t".join(str(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.out == "-":
        click.echo(text, nl=False)
    else:
        with open(cfg.out, "w") as fh:
            fh.write(text)


def _violation(report):
    click.echo(json.dumps({"violations": report}, indent=2, sort_keys=True))
    sys.exit(1)


def _coords(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad coordinate list {text!r}")


def _word(text):
    if not text:
        return []
    out = []
    for part in text.split(","):
        part = part.strip()
        if part.startswith("s"):
            part = part[1:] or "0"
        try:
            out.append(int(part))
        except ValueError:
            raise click.UsageError(f"bad word entry {part!r}")
    return out


def _height_window(rd, bound):
    """Dominant coweights of height at most <2 rho, bound * (1,..,1)>.

    Height-bounded sets are closed under the dominance order and always
    contain 0, which the rank-one certificate requires.
    """
    import itertools

    cap = rd.pair(rd.two_rho, tuple(bound for _ in range(rd.char_lattice_rank)))
    out = []
    for mu in itertools.product(range(-cap, cap + 1), repeat=rd.char_lattice_rank):
        if rd.is_dominant(mu) and rd.pair(rd.two_rho, mu) <= cap:
            out.append(tuple(mu))
    return sorted(out)


def _weyl_context(group):
    try:
        rd = build_root_datum(group)
    except Exception as e:
        raise click.UsageError(f"unknown group {group!r}: {e}")
    return AffineWeyl(rd)


_common = [
    click.option("--group", default="SL2", show_default=True),
    click.option("--output", "fmt", type=click.Choice(["json", "tsv"]),
                 default="json", show_default=True),
    click.option("--out", default="-", show_default=True,
                 help="output path, - for stdout"),
    click.option("--seed", default=0, show_default=True, type=int),
]


def _with_common(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


@click.group()
def main():
    """Exact engine for exponential-orbit combinatorics on affine flags."""


@main.command()
@_with_common
@click.option("--facet", default="f0", type=click.Choice(["f0", "a0"]),
              show_default=True)
@click.option("--bound", default=3, show_default=True, type=int)
@click.option("--list", "what", default="lengths",
              type=click.Choice(["lengths", "0W"]), show_default=True)
def weyl(group, fmt, out, seed, facet, bound, what):
    """Lengths, reduced words, and 0W membership tables."""
    cfg = RunConfig(group, facet, bound, fmt=fmt, out=out, seed=seed)
    cfg.validate()
    W = _weyl_context(group)
    f = W.facet_f0() if facet == "f0" else W.facet_a0()
    rows = []
    for w in W.enumerate_elements(bound):
        in_0w = W.is_right_minimal(w, f) and W.zero_W_membership(w, f)
        if what == "0W" and not in_0w:
            continue
        tau, word = W.reduced_word(w)
        rows.append(
            {
                "element": W.to_json(w),
                "length": W.length(w),
                "word": word,
                "in_0W": in_0w,
                "strictly_dominant_translation": W.strictly_dominant_translation(w),
            }
        )
    _emit(cfg, {"group": group, "facet": facet, "bound": bound, "rows": rows})


@main.command()
@_with_common
@click.option("--left", required=True, help="reduced word, e.g. 0,1,0")
@click.option("--right", required=True)
def hecke(group, fmt, out, seed, left, right):
    """Product of two T-basis elements given by words."""
    cfg = RunConfig(group, fmt=fmt, out=out, seed=seed)
    cfg.validate()
    W = _weyl_context(group)
    a = t_basis(W, W.word_to_element(_word(left)))
    b = t_basis(W, W.word_to_element(_word(right)))
    _emit(cfg, {"group": group, "product": hecke_mul(a, b).to_json()})


@main.command()
@_with_common
@click.option("--lam", required=True, help="dominant coweight, e.g. 1,0")
@click.option("--mu", required=True)
def spherical(group, fmt, out, seed, lam, mu):
    """Product 1_lam * 1_mu in the spherical 1-basis."""
    cfg = RunConfig(group, fmt=fmt, out=out, seed=seed)
    cfg.validate()
    W = _weyl_context(group)
    try:
        a = unit_indicator(W, _coords(lam))
        b = unit_indicator(W, _coords(mu))
    except ValueError as e:
        raise click.UsageError(str(e))
    _emit(cfg, {"group": group, "product": spherical_mul(a, b).to_json()})


@main.command()
@_with_common
@click.option("--lam", default=None, help="basis index; with --mu emits m_lam * 1_mu")
@click.option("--mu", default=None)
@click.option("--rank-one", "rank_one", is_flag=True,
              help="emit the rank-one certificate over the window")
@click.option("--bound", default=2, show_default=True, type=int)
def expmod(group, fmt, out, seed, lam, mu, rank_one, bound):
    """Spherical action on the exponential module; rank-one certificates."""
    cfg = RunConfig(group, bound=bound, fmt=fmt, out=out, seed=seed)
    cfg.validate()
    try:
        M = ExpModule(build_root_datum(group))
    except Exception as e:
        raise click.UsageError(str(e))
    doc = {"group": group}
    if lam is not None and mu is not None:
        try:
            vec = M.spherical_action_basis(_coords(lam), _coords(mu))
        except NonDominantIndex as e:
            raise click.UsageError(str(e))
        doc["action"] = vec.to_json()
    if rank_one:
        window = _height_window(M.rd, bound)
        try:
            doc["rank_one"] = M.verify_rank_one(window)
        except Exception as e:
            _violation([{"check": "rank_one", "error": str(e)}])
    if len(doc) == 1:
        raise click.UsageError("nothing to do: pass --lam/--mu or --rank-one")
    _emit(cfg, doc)


@main.command()
@_with_common
@click.option("--source", required=True,
              help="orbit label TAG:WORD (tags coset|zero); z is zero:0")
@click.option("--word", required=True, help="convolution word, e.g. s or 0,1")
@click.option("--targets", default="all", show_default=True)
def fiber(group, fmt, out, seed, source, word, targets):
    """Fiber classes of a one-step (or word) convolution over orbit points."""
    cfg = RunConfig(group, fmt=fmt, out=out, seed=seed)
    cfg.validate()
    W = _weyl_context(group)
    src_text = {"z": "zero:0", "e": "coset:"}.get(source, source)
    if ":" not in src_text:
        src_text = "coset:" + src_text
    tag, word_text = src_text.split(":", 1)
    if tag not in ("coset", "zero"):
        raise click.UsageError(f"bad source tag {tag!r}")
    src = ExpLabel(tag, W.word_to_element(_word(word_text)))
    conv = _word(word)
    length_cap = W.length(src.elt) + len(conv) + 1
    rows = []
    for lab in W.enumerate_exp_labels(W.facet_a0(), length_cap):
        cls = fiber_class(src, conv, lab, W)
        if cls.is_zero() and targets == "all":
            continue
        rows.append(
            {
                "target": W.label_to_json(lab),
                "class": cls.to_json(),
                "display": str(cls),
            }
        )
    _emit(cfg, {"group": group, "source": W.label_to_json(src),
                "word": conv, "rows": rows})


@main.command()
@_with_common
@click.option("--q", "q_text", default="3", show_default=True)
@click.option("--bound", default=1, show_default=True, type=int)
@click.option("--mode", default="window",
              type=click.Choice(["window", "orbits", "action", "interpolate"]),
              show_default=True)
@click.option("--lam", default="0")
@click.option("--mu", default="1")
def oracle(group, fmt, out, seed, q_text, bound, mode, lam, mu):
    """Finite-field enumerations over the affine Grassmannian."""
    cfg = RunConfig(group, bound=bound, q_list=_coords(q_text),
                    fmt=fmt, out=out, seed=seed)
    cfg.validate()
    if group not in ("SL2", "PGL2", "GL2"):
        raise click.UsageError("oracle presets: SL2, PGL2, GL2")
    b = (bound, 0) if group == "GL2" else (bound,)
    doc = {"group": group, "bound": list(b)}
    try:
        if mode == "window":
            q = cfg.q_list[0]
            pts = fq_oracle.enumerate_gr_window(group, b, q)
            doc.update(q=q, size=len(pts), points=[p.to_json() for p in pts])
        elif mode == "orbits":
            q = cfg.q_list[0]
            pts = fq_oracle.enumerate_gr_window(group, b, q)
            _, orbits = fq_oracle.orbit_partition(pts, "U_exp_twisted", q)
            doc.update(
                q=q,
                orbits=[
                    {
                        "label": list(o["label"]) if o["label"] else None,
                        "tag": o["tag"],
                        "size": len(o["points"]),
                        "partial": o["partial"],
                    }
                    for o in orbits
                ],
            )
        elif mode == "action":
            q = cfg.q_list[0]
            mat = fq_oracle.whittaker_action(group, _coords(lam), _coords(mu), q)
            doc.update(
                q=q,
                matrix=[
                    {"lam": list(l), "nu": list(n),
                     "count": fq_oracle.cyc_as_int(v)}
                    for (l, n), v in sorted(mat.items())
                ],
            )
        else:
            consts = fq_oracle.interpolate_structure_constants(
                group, _coords(lam), _coords(mu), list(cfg.q_list)
            )
            doc.update(
                q_list=list(cfg.q_list),
                constants=[
                    {"nu": list(n), "qpoly": p.to_json(), "display": str(p)}
                    for n, p in sorted(consts.items())
                ],
            )
    except fq_oracle.WindowTooLarge as e:
        raise click.UsageError(str(e))
    except fq_oracle.OracleError as e:
        _violation([{"check": f"oracle:{mode}", "error": str(e)}])
    _emit(cfg, doc)


@main.command()
@_with_common
@click.option("--bound", default=2, show_default=True, type=int)
@click.option("--q", "q_text", default="2,3,5", show_default=True)
def verify(group, fmt, out, seed, bound, q_text):
    """Run the invariant suites on a preset; nonzero exit on violation."""
    cfg = RunConfig(group, bound=bound, q_list=_coords(q_text),
                    fmt=fmt, out=out, seed=seed)
    cfg.validate()
    rng = random.Random(seed)
    W = _weyl_context(group)
    rd = W.rd
    if rd.rank != rd.char_lattice_rank:
        raise click.UsageError(
            f"verify needs a semisimple group; {group} is not semisimple")
    violations = []
    passed = {}

    def check(name, fn):
        try:
            n = fn()
            passed[name] = n
        except Exception as e:
            violations.append({"check": name, "error": str(e)})

    def weyl_suite():
        n = 0
        f0 = W.facet_f0()
        for w in W.enumerate_elements(min(bound + 2, 5)):
            a = W.is_left_w0_maximal(w)
            c = W.is_left_w0_maximal_by_descents(w)
            if a != c:
                raise AssertionError(f"maximality criteria differ at {W.to_json(w)}")
            in_0w = W.is_right_minimal(w, f0) and W.zero_W_membership(w, f0)
            if in_0w != W.strictly_dominant_translation(w):
                raise AssertionError(f"0W_f0 mismatch at {W.to_json(w)}")
            n += 1
        return n

    check("weyl", weyl_suite)

    def hecke_suite():
        elems = W.enumerate_elements(min(bound + 2, 4))
        n = 0
        for _ in range(50):
            x, y, z = (t_basis(W, rng.choice(elems)) for _ in range(3))
            if hecke_mul(hecke_mul(x, y), z) != hecke_mul(x, hecke_mul(y, z)):
                raise AssertionError("associativity fails")
            n += 1
        return n

    check("hecke_associativity", hecke_suite)

    M = ExpModule(rd)
    window = _height_window(rd, bound)

    def commutativity():
        n = 0
        for lam in window:
            for mu in window:
                a = M.spherical_action(M.spherical_action_basis(lam, mu), lam)
                b = M.spherical_action(M.spherical_action_basis(lam, lam), mu)
                if a != b:
                    raise AssertionError(f"module action does not commute at {lam},{mu}")
                n += 1
        return n

    check("expmod_commutativity", commutativity)
    check("rank_one", lambda: (M.verify_rank_one(window), len(window))[1])

    if group in ("SL2", "PGL2"):

        def oracle_suite():
            n = 0
            for q in cfg.q_list:
                for lam in window:
                    for mu in window:
                        gen = M.spherical_action_basis(lam, mu).support
                        spec = {
                            nu: c.specialize(q)
                            for nu, c in gen.items()
                            if c.specialize(q)
                        }
                        raw = fq_oracle.whittaker_action(group, lam, mu, q)
                        got = {}
                        for (l2, nu), v in raw.items():
                            if l2 == lam:
                                iv = fq_oracle.cyc_as_int(v)
                                if iv:
                                    got[nu] = iv
                        if got != spec:
                            raise AssertionError(
                                f"oracle mismatch at q={q}, {lam},{mu}: {got} != {spec}"
                            )
                        n += 1
            return n

        check("oracle_vs_generic", oracle_suite)

    if violations:
        _violation(violations)
    _emit(cfg, {"group": group, "passed": passed})


if __name__ == "__main__":
    main()
