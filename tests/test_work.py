"""Work counts: operator products and prox calls per command, exact and machine-independent.

Timings move by 10-20% from run to run; the number of ``LinearOperator.apply`` and
``adjoint`` calls and of ``L1.prox`` calls a command makes does not move at all, and it
is what a change to a hot path moves when it adds work. For ``run_stoptime``, whose
runs go as the columns of one stack, the table also counts the columns these calls
carry. The table of these counts is ``tests/work_counts.json``. A change whose work
moves on purpose says why and rewrites the table with
``PYTHONPATH=src python3 tests/test_work.py``.

The products that ``op_norm`` makes through the private ``_apply`` and ``_adjoint`` are
not counted.
"""

import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np

from iterreg import experiments
from iterreg.bias import L1
from iterreg.experiments import ExperimentSpec, run_pathcmp, run_stoptime
from iterreg.linop import LinearOperator

from conftest import PATHCMP_GOLDEN

TABLE = Path(__file__).with_name("work_counts.json")
# the counted methods, each by its name, the class that defines it and the position of
# the vector or stack it takes among its arguments
COUNTED = {"apply": (LinearOperator, 0), "adjoint": (LinearOperator, 0), "prox": (L1, 1)}
# the stoptime run: two noise levels, two replicates, 200 iterations, a small instance
STOPTIME = {"deltas": (0.5, 2.0), "replicates": 2, "max_iter": 200,
            "problem": {"n": 40, "p": 100, "s": 8, "corr": 0.2, "y_norm": 8.0}}


def _counted(calls, columns, name, method, position):
    def wrapper(self, *args, **kwargs):
        calls[name] += 1
        shape = np.shape(args[position])
        columns[name] += shape[1] if len(shape) == 2 else 1
        return method(self, *args, **kwargs)
    return wrapper


@contextmanager
def counting():
    """Counters of the calls of each ``COUNTED`` method and of the columns they carry.

    They count while the block runs.
    """
    calls, columns = Counter(dict.fromkeys(COUNTED, 0)), Counter(dict.fromkeys(COUNTED, 0))
    with ExitStack() as stack:
        for name, (cls, position) in COUNTED.items():
            stack.enter_context(patch.object(
                cls, name, _counted(calls, columns, name, getattr(cls, name), position)))
        yield calls, columns


def pathcmp_work(out_dir):
    """The counts of the golden ``run_pathcmp``, in all and inside ``lasso_path``."""
    in_path, solve = Counter(dict.fromkeys(COUNTED, 0)), experiments.lasso_path
    with counting() as (total, _):
        def lasso_path(*args, **kwargs):
            before = total.copy()
            result = solve(*args, **kwargs)
            in_path.update({name: total[name] - before[name] for name in COUNTED})
            return result

        with patch.object(experiments, "lasso_path", lasso_path):
            run_pathcmp(ExperimentSpec(name="pathcmp", out_dir=out_dir, **PATHCMP_GOLDEN))
    return {"total": dict(total), "lasso_path": dict(in_path)}


def stoptime_work(out_dir):
    """The calls and columns of ``run_stoptime`` at ``STOPTIME``, its certificate included."""
    with counting() as (calls, columns):
        run_stoptime(ExperimentSpec(name="stoptime", out_dir=out_dir, **STOPTIME))
    return {"calls": dict(calls), "columns": dict(columns)}


def test_pathcmp_work_matches_the_table(tmp_path):
    assert pathcmp_work(tmp_path / "pathcmp") == json.loads(TABLE.read_text())["pathcmp"]


def test_stoptime_work_matches_the_table(tmp_path):
    assert stoptime_work(tmp_path / "stoptime") == json.loads(TABLE.read_text())["stoptime"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"pathcmp": pathcmp_work(Path(tmp) / "pathcmp"),
                 "stoptime": stoptime_work(Path(tmp) / "stoptime")}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
