"""What importing iterreg loads: numpy and the standard library it uses, no network stack."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterreg

# the modules that xml.sax.saxutils used to pull into every process that imported iterreg
UNUSED = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")


def test_importing_iterreg_loads_no_xml_or_network_module():
    # a fresh interpreter, because pytest imports some of these modules itself
    code = ("import sys, iterreg, iterreg.experiments, iterreg.cli; "
            f"print(' '.join(m for m in {UNUSED!r} if m in sys.modules))")
    src = str(Path(iterreg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == []


@pytest.mark.parametrize("name", ["StackedOperator", "BlockBias", "Zero",
                                  "budget_stop", "discrepancy_stop", "RuleInapplicable"])
def test_deleted_names_are_not_exported(name):
    """The block composites had one caller, the TV lift; the two stopping rules had none."""
    assert name not in dir(iterreg)
    for module in (iterreg.linop, iterreg.bias, iterreg.stopping, iterreg.errors, iterreg.problems):
        assert not hasattr(module, name), module.__name__
