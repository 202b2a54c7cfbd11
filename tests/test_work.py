"""Work counts: operator products and prox calls per command, exact and machine-independent.

Timings move by 10-20% from run to run; the number of ``LinearOperator.apply`` and
``adjoint`` calls and of ``L1.prox`` calls a command makes does not move at all, and it
is what a change to a hot path moves when it adds work. The table of these counts is
``tests/work_counts.json``. A change whose work moves on purpose says why and rewrites
the table with ``PYTHONPATH=src python3 tests/test_work.py``.

The products that ``op_norm`` makes through the private ``_apply`` and ``_adjoint`` are
not counted.
"""

import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest.mock import patch

from iterreg import experiments
from iterreg.bias import L1
from iterreg.experiments import ExperimentSpec, run_pathcmp
from iterreg.linop import LinearOperator

from conftest import PATHCMP_GOLDEN

TABLE = Path(__file__).with_name("work_counts.json")
# the counted methods, each by its name and the class that defines it
COUNTED = {"apply": LinearOperator, "adjoint": LinearOperator, "prox": L1}


def _counted(counts, name, method):
    def wrapper(self, *args, **kwargs):
        counts[name] += 1
        return method(self, *args, **kwargs)
    return wrapper


@contextmanager
def counting():
    """A Counter of the calls of each ``COUNTED`` method while the block runs."""
    counts = Counter(dict.fromkeys(COUNTED, 0))
    with ExitStack() as stack:
        for name, cls in COUNTED.items():
            stack.enter_context(
                patch.object(cls, name, _counted(counts, name, getattr(cls, name))))
        yield counts


def pathcmp_work(out_dir):
    """The counts of the golden ``run_pathcmp``, in all and inside ``lasso_path``."""
    in_path, solve = Counter(dict.fromkeys(COUNTED, 0)), experiments.lasso_path
    with counting() as total:
        def lasso_path(*args, **kwargs):
            before = total.copy()
            result = solve(*args, **kwargs)
            in_path.update({name: total[name] - before[name] for name in COUNTED})
            return result

        with patch.object(experiments, "lasso_path", lasso_path):
            run_pathcmp(ExperimentSpec(name="pathcmp", out_dir=out_dir, **PATHCMP_GOLDEN))
    return {"total": dict(total), "lasso_path": dict(in_path)}


def test_pathcmp_work_matches_the_table(tmp_path):
    assert pathcmp_work(tmp_path / "pathcmp") == json.loads(TABLE.read_text())["pathcmp"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"pathcmp": pathcmp_work(Path(tmp) / "pathcmp")}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
