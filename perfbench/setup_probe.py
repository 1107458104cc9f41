"""Time one cold set-up of a workload in this fresh process.

Usage: python3 perfbench/setup_probe.py <workload>

Imports expflag and builds what the workload's tasks need before their
first answer (see ``workloads.SETUP``), then prints the seconds this took
as one JSON object. ``run.py`` starts this several times and reports the
median as ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import expflag.cli  # noqa: E402,F401  (imports every layer, as the CLI does)
from expflag.affine_weyl import AffineWeyl  # noqa: E402
from expflag.coefficients import gf  # noqa: E402
from expflag.exp_module import ExpModule  # noqa: E402
from expflag.root_datum import build_root_datum  # noqa: E402

from perfbench.workloads import SETUP  # noqa: E402

groups, fields = SETUP[sys.argv[1]]
for group in groups:
    rd = build_root_datum(group)
    AffineWeyl(rd)
    ExpModule(rd)
for q in fields:
    gf(q)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
