"""Work counts: operator products, prox calls and bias evaluations per command, exact and
machine-independent.

Timings move by 10-20% from run to run; the number of ``LinearOperator.apply`` and
``adjoint`` calls, of ``L1.prox`` and ``Nuclear.prox`` calls (counted together as
``prox``) and of ``L1`` and ``Nuclear`` evaluations (counted together as ``eval``) a
command makes does not move at all, and it is what a change to a hot path moves when it
adds work. For ``run_solve`` and for the batched commands ``run_stoptime``,
``run_semiconv``, ``run_matcomp`` and ``run_bounds`` (whose runs go as the columns of one
stack), the table also counts the columns these calls carry. The table of these counts is
``tests/work_counts.json``.
A change whose work moves on purpose says why and rewrites the table with
``PYTHONPATH=src python3 tests/test_work.py``.

The products that ``op_norm`` makes through the private ``_apply`` and ``_adjoint`` are
not counted.
"""

import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from iterreg import experiments
from iterreg.bias import L1, Nuclear
from iterreg.experiments import (ExperimentSpec, run_bounds, run_matcomp, run_pathcmp,
                                 run_semiconv, run_solve, run_stoptime)
from iterreg.linop import LinearOperator

from conftest import PATHCMP_GOLDEN

TABLE = Path(__file__).with_name("work_counts.json")
# the counted methods, each by its count's name: the method, the classes that define it
# and the position of the vector or stack it takes among its arguments
COUNTED = {"apply": ("apply", (LinearOperator,), 0),
           "adjoint": ("adjoint", (LinearOperator,), 0),
           "prox": ("prox", (L1, Nuclear), 1), "eval": ("__call__", (L1, Nuclear), 0)}
# the runs of the noisy commands, 200 iterations on a small instance: the batched ones
# at two noise levels and two replicates, bounds sweeping two step-size products and
# recording the averaged-iterate columns; solve runs one noisy vector with no reference,
# recording res_noisy and j_val
SPARSE = {"n": 40, "p": 100, "s": 8, "corr": 0.2, "y_norm": 8.0}
RUNS = {"stoptime": (run_stoptime, {"deltas": (0.5, 2.0), "problem": SPARSE}),
        "semiconv": (run_semiconv, {"deltas": (0.6, 2.4), "problem": SPARSE}),
        "matcomp": (run_matcomp, {"deltas": (2.0, 8.0), "problem": {
            "d": 8, "r": 2, "obs_frac_denom": 3, "y_norm": 6.0}}),
        "bounds": (partial(run_bounds, eps_list=(0.5, 0.9)),
                   {"deltas": (0.0, 0.5), "problem": SPARSE}),
        "solve": (run_solve, {"deltas": (0.5,), "problem": SPARSE})}


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
        for name, (method, classes, position) in COUNTED.items():
            for cls in classes:
                stack.enter_context(patch.object(
                    cls, method, _counted(calls, columns, name, getattr(cls, method), position)))
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


def run_work(name, out_dir):
    """The calls and columns of the ``RUNS`` run ``name``, its certificate included."""
    run_command, params = RUNS[name]
    with counting() as (calls, columns):
        run_command(ExperimentSpec(name=name, out_dir=out_dir, replicates=2, max_iter=200,
                                   **params))
    return {"calls": dict(calls), "columns": dict(columns)}


def test_pathcmp_work_matches_the_table(tmp_path):
    assert pathcmp_work(tmp_path / "pathcmp") == json.loads(TABLE.read_text())["pathcmp"]


@pytest.mark.parametrize("name", RUNS)
def test_run_work_matches_the_table(name, tmp_path):
    assert run_work(name, tmp_path / name) == json.loads(TABLE.read_text())[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"pathcmp": pathcmp_work(Path(tmp) / "pathcmp"),
                 **{name: run_work(name, Path(tmp) / name) for name in RUNS}}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
