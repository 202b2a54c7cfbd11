"""What importing iterreg loads: numpy and the standard library it uses, no network stack."""

import os
import subprocess
import sys
from pathlib import Path

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
