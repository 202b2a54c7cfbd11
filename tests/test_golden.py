"""The every-flag pass of ``scripts/cli_outputs.py`` against the tree kept in ``tests/golden``.

Each of the eight commands runs in its own process with every flag it reads
set, as the script's second pass runs it. The file set, the integer columns
(``k_star``, interior flags, violation counts, exit codes) and the text cells
must match the golden tree exactly; a float may deviate by 1e-9 of the largest
magnitude of its column, since BLAS kernels differ from one CPU to another.
SVG plots are not kept. Regenerate the tree with the command in README.
Every run must also be clean as the script judges it: exit 0, leave its
``stderr.txt`` empty (a warning moves no compared output) and print a summary
that is strict JSON, holding no NaN or Infinity.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_flag_pass_matches_the_golden_tree(tmp_path):
    cli_outputs, compare_outputs = _script("cli_outputs"), _script("compare_outputs")
    faults = cli_outputs.run_and_judge(ROOT / "src", tmp_path, cli_outputs.FLAG_RUNS)
    assert not faults, "\n".join(faults)
    for svg in tmp_path.rglob("*.svg"):
        svg.unlink()
    ok, worst, where = compare_outputs.compare_trees(GOLDEN, tmp_path)
    assert ok, "file set, integer columns or text differ from tests/golden (see stdout)"
    assert worst <= 1e-9, f"largest relative float deviation {worst:.3e} at {where}"
