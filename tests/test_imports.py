"""What importing iterreg loads: numpy and the standard library it uses, no network stack;
and what running it loads: no numpy.ma."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterreg

from conftest import PATHCMP_GOLDEN

# the modules that xml.sax.saxutils used to pull into every process that imported iterreg
UNUSED = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")


def _fresh_interpreter(code):
    """The standard output of ``code`` run by a new interpreter that imports this iterreg.

    A fresh interpreter, because pytest imports some of the modules asked about itself.
    """
    src = str(Path(iterreg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_importing_iterreg_loads_no_xml_or_network_module():
    code = ("import sys, iterreg, iterreg.experiments, iterreg.cli; "
            f"print(' '.join(m for m in {UNUSED!r} if m in sys.modules))")
    assert _fresh_interpreter(code).split() == []


def test_the_benchmarked_entry_points_never_load_numpy_ma(tmp_path):
    """numpy's set routines (np.unique, np.setdiff1d) import numpy.ma, 1.2 MB of a process."""
    code = f"""
import sys
from pathlib import Path
import numpy as np
from iterreg import DenseOperator, L1, certify
from iterreg.experiments import ExperimentSpec, run_matcomp, run_pathcmp, run_stoptime
out = Path({str(tmp_path)!r})
run_pathcmp(ExperimentSpec(name="pathcmp", out_dir=out / "pathcmp", **{PATHCMP_GOLDEN!r}))
run_stoptime(ExperimentSpec(name="stoptime", out_dir=out / "stoptime", deltas=(0.5, 2.0),
                            replicates=2, max_iter=300, problem=dict(n=40, p=100, s=8)))
run_matcomp(ExperimentSpec(name="matcomp", out_dir=out / "matcomp", deltas=(1.5,),
                           replicates=1, max_iter=300, problem=dict(d=6, r=2, y_norm=6.0)))
X = DenseOperator(np.random.default_rng(0).standard_normal((4, 8)))
certify(X, L1(), X.apply(np.eye(8)[0]))
print("numpy.ma" in sys.modules)
"""
    assert _fresh_interpreter(code).split() == ["False"]


@pytest.mark.parametrize("name", ["StackedOperator", "BlockBias", "Zero",
                                  "budget_stop", "discrepancy_stop", "RuleInapplicable"])
def test_deleted_names_are_not_exported(name):
    """The block composites had one caller, the TV lift; the two stopping rules had none."""
    assert name not in dir(iterreg)
    for module in (iterreg.linop, iterreg.bias, iterreg.stopping, iterreg.errors, iterreg.problems):
        assert not hasattr(module, name), module.__name__
