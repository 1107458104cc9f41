"""Command-line surface: presets, computations, and verification suites.

Exit codes: 0 success, 1 invariant violation (with a JSON report on
stdout), 2 configuration error.
"""

from __future__ import annotations

import json
import random
import sys

import click

from .root_datum import RootDatumError, build_root_datum
from .affine_weyl import AffineWeyl, AffineWeylError, ExpLabel
from .coefficients import FIELD_SIZES
from .hecke import hecke_mul, t_basis
from .spherical import spherical_mul, unit_indicator
from .exp_module import ExpModule, ExpModuleError, NonDominantIndex, apply_word, basis_vector
from . import fq_oracle


def _check_bound(bound):
    if bound <= 0:
        raise click.UsageError("bound must be positive")


def _q_list(text, bound):
    """The field sizes of --q. The text is parsed before --bound is checked
    and the sizes after it, so each bad input keeps its message."""
    q_list = _coords(text)
    _check_bound(bound)
    for i, q in enumerate(q_list):
        if q in q_list[:i]:
            raise click.UsageError(f"duplicate field size {q}")
        if q not in FIELD_SIZES:
            raise click.UsageError(
                f"unsupported field size {q}; supported: "
                + ", ".join(map(str, FIELD_SIZES))
            )
    return q_list


def _emit(fmt, out, doc):
    if fmt == "tsv":
        lines = ("\t".join(str(v) for v in row.values())
                 for row in doc.get("rows", [doc]))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise click.UsageError(f"cannot write --out {out}: {e.strerror}")


def _violation(report):
    click.echo(json.dumps({"violations": report}, indent=2, sort_keys=True))
    sys.exit(1)


def _coords(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad coordinate list {text!r}")


def _word(W, text):
    """The word of simple reflections in ``text`` and its product in W."""
    out = []
    for part in text.split(",") if text else []:
        part = part.strip()
        if part.startswith("s"):
            part = part[1:] or "0"
        try:
            out.append(int(part))
        except ValueError:
            raise click.UsageError(f"bad word entry {part!r}")
    try:
        return out, W.word_to_element(out)
    except AffineWeylError as e:
        raise click.UsageError(str(e))


def _weyl_context(group, needs_semisimple=None):
    """The affine Weyl group of a preset; ``needs_semisimple`` names the
    command when it cannot run on a group with a central torus."""
    try:
        rd = build_root_datum(group)
    except RootDatumError as e:
        raise click.UsageError(f"unknown group {group!r}: {e}")
    if needs_semisimple and rd.rank != rd.char_lattice_rank:
        raise click.UsageError(
            f"{needs_semisimple} needs a semisimple group; {group} is not semisimple")
    return AffineWeyl(rd)


_common = [
    click.option("--group", default="SL2", show_default=True),
    click.option("--output", "fmt", type=click.Choice(["json", "tsv"]),
                 default="json", show_default=True),
    click.option("--out", default="-", show_default=True,
                 help="output path, - for stdout"),
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
def weyl(group, fmt, out, facet, bound, what):
    """Lengths, reduced words, and 0W membership tables."""
    _check_bound(bound)
    W = _weyl_context(group, "weyl")
    f = W.facet_f0() if facet == "f0" else W.facet_a0()
    try:
        elements = W.enumerate_elements(bound)
    except AffineWeylError as e:
        raise click.UsageError(str(e))
    rows = []
    for w in elements:
        in_0w = W.is_right_minimal(w, f) and W.is_left_w0_maximal(w)
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
    _emit(fmt, out, {"group": group, "facet": facet, "bound": bound, "rows": rows})


@main.command()
@_with_common
@click.option("--left", required=True, help="reduced word, e.g. 0,1,0")
@click.option("--right", required=True)
def hecke(group, fmt, out, left, right):
    """Product of two T-basis elements given by words."""
    W = _weyl_context(group)
    a = t_basis(W, _word(W, left)[1])
    b = t_basis(W, _word(W, right)[1])
    _emit(fmt, out, {"group": group, "product": hecke_mul(a, b).to_json()})


@main.command()
@_with_common
@click.option("--lam", required=True, help="dominant coweight, e.g. 1,0")
@click.option("--mu", required=True)
def spherical(group, fmt, out, lam, mu):
    """Product 1_lam * 1_mu in the spherical 1-basis."""
    W = _weyl_context(group)
    try:
        a = unit_indicator(W, _coords(lam))
        b = unit_indicator(W, _coords(mu))
    except ValueError as e:
        raise click.UsageError(str(e))
    _emit(fmt, out, {"group": group, "product": spherical_mul(a, b).to_json()})


@main.command()
@_with_common
@click.option("--lam", default=None, help="basis index; with --mu emits m_lam * 1_mu")
@click.option("--mu", default=None)
@click.option("--rank-one", "rank_one", is_flag=True,
              help="emit the rank-one certificate over the window")
@click.option("--bound", default=2, show_default=True, type=int)
def expmod(group, fmt, out, lam, mu, rank_one, bound):
    """Spherical action on the exponential module; rank-one certificates."""
    _check_bound(bound)
    try:
        M = ExpModule(build_root_datum(group))
    except (RootDatumError, ExpModuleError) as e:
        raise click.UsageError(str(e))
    doc = {"group": group}
    if lam is not None and mu is not None:
        try:
            vec = M.spherical_action_basis(_coords(lam), _coords(mu))
        except NonDominantIndex as e:
            raise click.UsageError(str(e))
        doc["action"] = vec.to_json()
    if rank_one:
        window = M.rd.dominant_window((bound,) * M.rd.char_lattice_rank)
        try:
            doc["rank_one"] = M.verify_rank_one(window)
        except Exception as e:
            _violation([{"check": "rank_one", "error": str(e)}])
    if len(doc) == 1:
        raise click.UsageError("nothing to do: pass --lam/--mu or --rank-one")
    _emit(fmt, out, doc)


@main.command()
@_with_common
@click.option("--source", required=True,
              help="orbit label TAG:WORD (tags coset|zero); z is zero:0")
@click.option("--word", required=True, help="convolution word, e.g. s or 0,1")
@click.option("--targets", type=click.Choice(["all", "with-zero"]), default="all",
              show_default=True,
              help="all: every target with a nonzero class; with-zero: the zero classes too")
def fiber(group, fmt, out, source, word, targets):
    """Fiber classes of a one-step (or word) convolution over orbit points."""
    W = _weyl_context(group, "fiber")
    src_text = {"z": "zero:0", "e": "coset:"}.get(source, source)
    if ":" not in src_text:
        src_text = "coset:" + src_text
    tag, word_text = src_text.split(":", 1)
    if tag not in ("coset", "zero"):
        raise click.UsageError(f"bad source tag {tag!r}")
    src = ExpLabel(tag, _word(W, word_text)[1])
    if tag == "zero" and not W.is_left_w0_maximal(src.elt):
        raise click.UsageError(
            f"zero source {json.dumps(W.to_json(src.elt))} is not left-W0-maximal")
    conv, _ = _word(W, word)
    length_cap = W.length(src.elt) + len(conv) + 1
    try:
        labels = W.enumerate_exp_labels(length_cap)
    except AffineWeylError as e:
        raise click.UsageError(str(e))
    # the word letter by letter: it need not be reduced
    vec = apply_word(basis_vector(W, src), W.identity, conv)
    rows = []
    for lab in labels:
        cls = vec.coefficient(lab)
        if cls.is_zero() and targets == "all":
            continue
        rows.append(
            {
                "target": W.label_to_json(lab),
                "class": cls.to_json(),
                "display": str(cls),
            }
        )
    _emit(fmt, out, {"group": group, "source": W.label_to_json(src),
                "word": conv, "rows": rows})


@main.command()
@_with_common
@click.option("--q", "q_text", default="3", show_default=True)
@click.option("--bound", default=1, show_default=True, type=int,
              help="window and orbits modes: the window diag(t^bound, 1)")
@click.option("--mode", default="window",
              type=click.Choice(["window", "orbits", "action", "interpolate"]),
              show_default=True)
@click.option("--lam", default="0")
@click.option("--mu", default="1")
def oracle(group, fmt, out, q_text, bound, mode, lam, mu):
    """Finite-field enumerations over the affine Grassmannian."""
    q_list = _q_list(q_text, bound)
    if group not in fq_oracle.PRESETS:
        raise click.UsageError("oracle presets: " + ", ".join(fq_oracle.PRESETS))
    if mode != "interpolate" and len(q_list) > 1:
        raise click.UsageError(f"--mode {mode} takes one field size in --q")
    doc = {"group": group}
    q = q_list[0]
    try:
        if mode in ("window", "orbits"):
            # --bound only sets the window: the coweight of diag(t^bound, 1)
            b = fq_oracle.PRESETS[group].coords(bound, 0)
            doc["bound"] = list(b)
            pts = fq_oracle.enumerate_gr_window(group, b, q)
        if mode == "window":
            doc.update(q=q, size=len(pts), points=[p.to_json() for p in pts])
        elif mode == "orbits":
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
                group, _coords(lam), _coords(mu), list(q_list)
            )
            doc.update(
                q_list=list(q_list),
                constants=[
                    {"nu": list(n), "qpoly": p.to_json(), "display": str(p)}
                    for n, p in sorted(consts.items())
                ],
            )
    except (fq_oracle.WindowTooLarge, fq_oracle.InvalidCoweight,
            fq_oracle.TooFewFieldSizes) as e:
        raise click.UsageError(str(e))
    except fq_oracle.OracleError as e:
        _violation([{"check": f"oracle:{mode}", "error": str(e)}])
    _emit(fmt, out, doc)


@main.command()
@_with_common
@click.option("--bound", default=2, show_default=True, type=int)
@click.option("--q", "q_text", default="2,3,5", show_default=True)
@click.option("--seed", default=0, show_default=True, type=int,
              help="seed of the Hecke suite's random triples")
def verify(group, fmt, out, bound, q_text, seed):
    """Run the invariant suites on a preset; nonzero exit on violation.

    The oracle suite builds one Whittaker matrix per (q, mu) on the
    window's top coweight and compares each of its rows lam with the
    generic m_lam * 1_mu specialised at q.
    """
    q_list = _q_list(q_text, bound)
    rng = random.Random(seed)
    W = _weyl_context(group, "verify")
    rd = W.rd
    window = rd.dominant_window((bound,) * rd.char_lattice_rank)
    if group in fq_oracle.PRESETS:
        # the oracle suite reads K mu K / K for every mu of the window, and
        # the oracle refuses one past its window cap: a configuration
        # error, found before any suite runs
        try:
            for q in q_list:
                for mu in window:
                    fq_oracle.check_window_size(group, mu, q)
        except fq_oracle.WindowTooLarge as e:
            raise click.UsageError(str(e))
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
            in_0w = W.is_right_minimal(w, f0) and W.is_left_w0_maximal(w)
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

    if group in fq_oracle.PRESETS:

        def oracle_suite():
            # the oracle presets are rank one, so the window is a chain and
            # one matrix on its top holds the row of every lam in it
            top = window[-1]
            n = 0
            for q in q_list:
                for mu in window:
                    raw = fq_oracle.whittaker_action(group, top, mu, q)
                    rows = {}
                    for (lam, nu), v in raw.items():
                        iv = fq_oracle.cyc_as_int(v)
                        if iv:
                            rows.setdefault(lam, {})[nu] = iv
                    for lam in window:
                        gen = M.spherical_action_basis(lam, mu).support
                        spec = {
                            nu: c.specialize(q)
                            for nu, c in gen.items()
                            if c.specialize(q)
                        }
                        got = rows.get(lam, {})
                        if got != spec:
                            raise AssertionError(
                                f"oracle mismatch at q={q}, {lam},{mu}: {got} != {spec}"
                            )
                        n += 1
            return n

        check("oracle_vs_generic", oracle_suite)

    if violations:
        _violation(violations)
    _emit(fmt, out, {"group": group, "passed": passed})


if __name__ == "__main__":
    main()
