"""The benchmark's workloads: fixed task lists over the expflag engine.

Every task is a plain function of fixed arguments. It builds all of its
own objects (root data, affine Weyl groups, modules, windows), so it can
run in a fresh process with nothing computed beforehand, and returns a
``TaskResult``: the canonical text of its answer, compared byte for byte
against the capture in ``perfbench/expected/``, and the number of the
program's own checks it ran, with the ones that failed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field


@dataclass
class TaskResult:
    output: str
    checks: int = 0
    check_failures: list = field(default_factory=list)


@dataclass(frozen=True)
class Task:
    id: str
    fn: object
    args: tuple = ()

    def __call__(self) -> TaskResult:
        return self.fn(*self.args)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- generic_rank2: the Z[q] engine on rank-2 presets, no oracle ------------


def m0_action(group, mu) -> TaskResult:
    """m_0 . 1_mu in the m-basis of the exponential module."""
    from expflag.exp_module import ExpModule
    from expflag.root_datum import build_root_datum

    M = ExpModule(build_root_datum(group))
    zero = tuple(0 for _ in mu)
    return TaskResult(_dumps(M.spherical_action_basis(zero, mu).to_json()))


def m_action(group, lam, mu) -> TaskResult:
    """m_lam . 1_mu in the m-basis of the exponential module."""
    from expflag.exp_module import ExpModule
    from expflag.root_datum import build_root_datum

    M = ExpModule(build_root_datum(group))
    return TaskResult(_dumps(M.spherical_action_basis(lam, mu).to_json()))


def rank_one(group, window) -> TaskResult:
    """Rank-one certificate of the exponential module over a window."""
    from expflag.exp_module import ExpModule
    from expflag.root_datum import build_root_datum

    M = ExpModule(build_root_datum(group))
    return TaskResult(_dumps(M.verify_rank_one(list(window))))


def spherical_product(group, lam, mu) -> TaskResult:
    """1_lam * 1_mu in the spherical Hecke algebra."""
    from expflag.affine_weyl import AffineWeyl
    from expflag.root_datum import build_root_datum
    from expflag.spherical import spherical_mul, unit_indicator

    W = AffineWeyl(build_root_datum(group))
    prod = spherical_mul(unit_indicator(W, lam), unit_indicator(W, mu))
    return TaskResult(_dumps(prod.to_json()))


# Dominant coweights of SL3 (coroot-basis coordinates) of height at most
# <2 rho, bound * (1, 1)>, as `expflag expmod --rank-one --bound b` uses.
SL3_WINDOW_1 = ((0, 0), (1, 1))
SL3_WINDOW_2 = ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2))
# The bound-2 window less (2, 1), the mirror of (1, 2) under the diagram
# automorphism of A2, and (2, 2), a quarter of a cycle on its own: the
# fewer and smaller the tasks of a cycle, the more cycles a run measures.
SL3_M0 = ((0, 0), (1, 1), (1, 2))

GENERIC_RANK2 = [
    *(Task(f"SL3.m0.1_{mu[0]}{mu[1]}", m0_action, ("SL3", mu))
      for mu in SL3_M0),
    Task("SL3.rank_one.bound1", rank_one, ("SL3", SL3_WINDOW_1)),
    Task("Sp4.m0.1_11", m0_action, ("Sp4", (1, 1))),
    Task("G2.m12.1_00", m_action, ("G2", (1, 2), (0, 0))),
    Task("G2.spherical.1_12x1_12", spherical_product, ("G2", (1, 2), (1, 2))),
]


# -- oracle_chain: SL2 Whittaker -> baby -> exponential averaging -----------


def averaging_chain(q, top) -> TaskResult:
    """The SL2 averaging chain on the orbits of t^-top-1 .. t^top.

    Builds the U-rtimes-Gm orbit window, the Whittaker and baby bases on
    it, and for each lam with lam + 1 <= top, so that the support of
    m_lam . 1_(1) stays inside the window, checks that baby averaging maps the
    Whittaker basis onto the baby basis, that Gm-averaging sends the baby
    basis to q times the closed class, that both averagings commute with
    the Hecke operator of 1_(1), and that the transported action equals
    the generic action specialised at q. The output is the window sizes
    and the exponential classes the chain computes.
    """
    from expflag.exp_module import ExpModule
    from expflag.fq_oracle import (
        FqFunction, act, baby_averaging, baby_basis, coset_reps, cyc_as_int,
        depth_for, gm_averaging, hecke_operator, orbit_closure, torus_point,
        translate, whittaker_space, x_plus,
    )
    from expflag.root_datum import build_root_datum

    preset, mu = "SL2", (1,)
    amb = (top + 2,)
    cut = depth_for(preset, amb)
    seeds = [torus_point(preset, q, (v,)) for v in range(-top - 1, top + 1)]
    seeds += [act(torus_point(preset, q, (l,)), x_plus(q, 1, -1), cut)
              for l in range(0, top + 1)]
    pts = orbit_closure(preset, q, seeds, "U_rtimes_Gm_twisted", amb)
    reps = coset_reps(preset, mu, q, cut)
    big = set(pts)
    for x in pts:
        for g in reps:
            big.add(translate(x, g, cut))
    big = sorted(big, key=lambda p: (p.a, p.c, p.b))
    W = whittaker_space(preset, amb, q, big)
    B = baby_basis(preset, (1,), q, pts)
    M = ExpModule(build_root_datum(preset))

    res = TaskResult("")
    doc = {"q": q, "top": top, "orbit_points": len(pts),
           "window_points": len(big), "classes": []}

    def check(ok, what):
        res.checks += 1
        if not ok:
            res.check_failures.append(f"q={q} top={top}: {what}")

    for lam in [(l,) for l in range(top)]:
        f, b = W[lam], B[lam]
        check(baby_averaging(f, pts).values == b.values,
              f"baby averaging of W_{lam} is not the baby basis")
        _, cls = gm_averaging(FqFunction(preset, q, amb, b.values), pts)
        check(set(cls) == {lam} and cyc_as_int(cls[lam]) == q,
              f"Gm-averaging of B_{lam} is not q times its closed class")
        lhs = baby_averaging(hecke_operator(f, mu, pts), pts)
        rhs = hecke_operator(FqFunction(preset, q, amb, b.values), mu, pts)
        check(lhs.values == rhs.values,
              f"averaging does not commute with 1_{mu} at {lam}")
        _, cls2 = gm_averaging(lhs, pts)
        got = {nu: cyc_as_int(v) for nu, v in cls2.items()}
        gen = M.spherical_action_basis(lam, mu).support
        expected = {nu: q * c.specialize(q)
                    for nu, c in gen.items() if c.specialize(q)}
        check(got == expected,
              f"oracle class {got} != generic {expected} at {lam}")
        doc["classes"].append({
            "lam": list(lam),
            "baby_class": {str(list(nu)): cyc_as_int(v) for nu, v in cls.items()},
            "action_class": {str(list(nu)): v for nu, v in sorted(got.items())},
        })
    res.output = _dumps(doc)
    return res


ORACLE_CHAIN = [
    Task(f"SL2.chain.q{q}.top{top}", averaging_chain, (q, top))
    for q, top in ((2, 1), (2, 2), (3, 1), (4, 1), (5, 1))
]


# -- oracle_verify: `expflag verify` run in-process through the CLI ---------


def cli_verify(group, bound, q_list, seed) -> TaskResult:
    """`expflag verify` through ``expflag.cli.main``, stdout captured.

    The output is the exit code and stdout. The program's own
    ``oracle_vs_generic`` suite counts as one check: it must be listed
    as passed.
    """
    from expflag.cli import main

    args = ["verify", "--group", group, "--bound", str(bound),
            "--q", ",".join(map(str, q_list)), "--seed", str(seed)]
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args, prog_name="expflag", standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    stdout = buf.getvalue()
    res = TaskResult(f"exit {code}\n{stdout}", checks=1)
    try:
        passed = json.loads(stdout).get("passed", {})
    except ValueError:
        passed = {}
    if code != 0 or "oracle_vs_generic" not in passed:
        res.check_failures.append(f"{group}: oracle_vs_generic did not pass")
    return res


VERIFY_Q = (2, 3, 4, 5, 7, 9)
# SL2 runs field by field, F_2 and F_3 together, and without F_9: alone
# that one field took half a cycle, and PGL2 covers it.
SL2_VERIFY_Q = ((2, 3), (4,), (5,), (7,))


def oracle_verify(seed):
    """`verify` for SL2 per field, and for PGL2 over all fields at once.

    The cycle has five tasks, an odd number of distinct sizes, so the
    median task lies inside one task's spread of times instead of between
    two.
    """
    return [
        *(Task("verify.SL2.bound2.q" + "_".join(map(str, qs)), cli_verify,
               ("SL2", 2, qs, seed))
          for qs in SL2_VERIFY_Q),
        Task("verify.PGL2.bound3.q" + "_".join(map(str, VERIFY_Q)), cli_verify,
             ("PGL2", 3, VERIFY_Q, seed)),
    ]


def tasks_for(workload, seed):
    """The fixed task list of a workload; the seed reaches only `verify`."""
    if workload == "generic_rank2":
        return list(GENERIC_RANK2)
    if workload == "oracle_chain":
        return list(ORACLE_CHAIN)
    if workload == "oracle_verify":
        return oracle_verify(seed)
    raise KeyError(workload)


WORKLOADS = ("generic_rank2", "oracle_chain", "oracle_verify")


# What a process builds before its first answer, per workload: the root
# data, affine Weyl groups and exponential modules of its groups, and the
# finite fields it uses. `setup_probe.py` times this after a fresh import.
SETUP = {
    "generic_rank2": (("SL3", "Sp4", "G2"), ()),
    "oracle_chain": (("SL2",), (2, 3, 4, 5)),
    "oracle_verify": (("SL2", "PGL2"), VERIFY_Q),
}
