"""The every-flag pass of ``scripts/cli_outputs.py`` against the tree kept in ``tests/golden``.

Each of the eight commands runs in its own process with every flag it reads
set, as the script's second pass runs it. The file set, the integer columns
(``k_star``, interior flags, violation counts, exit codes) and the text cells
must match the golden tree exactly; a float may deviate by 1e-9 of the largest
magnitude of its column, since BLAS kernels differ from one CPU to another.
SVG plots are not kept. Regenerate the tree with the command in README.
Every command must also leave its ``stderr.txt`` empty, since a warning moves no
compared output, and print a summary that is strict JSON, holding no NaN or Infinity.
"""

import importlib.util
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _not_json(constant):
    raise AssertionError(f"a summary holds {constant}, which is not JSON")


def test_every_flag_pass_matches_the_golden_tree(tmp_path):
    cli_outputs, compare_outputs = _script("cli_outputs"), _script("compare_outputs")
    runs = [(f"{cmd}-flags", cmd, ("--seed", "1", *cli_outputs.FLAGS[cmd]))
            for cmd in cli_outputs.COMMANDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda run: cli_outputs.run_command(ROOT / "src", tmp_path, *run), runs))
    for svg in tmp_path.rglob("*.svg"):
        svg.unlink()
    for name, cmd, _ in runs:
        assert (tmp_path / name / "stderr.txt").read_text() == "", f"{cmd} wrote to stderr"
        json.loads((tmp_path / name / "stdout.json").read_text(), parse_constant=_not_json)
    ok, worst, where = compare_outputs.compare_trees(GOLDEN, tmp_path)
    assert ok, "file set, integer columns or text differ from tests/golden (see stdout)"
    assert worst <= 1e-9, f"largest relative float deviation {worst:.3e} at {where}"
