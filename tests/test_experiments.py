import csv
import filecmp
import json

import numpy as np
import pytest

from iterreg import L1, add_noise, certify, gen_sparse, make_config, oracle_stop, run
from iterreg.errors import BoundViolation, ContractViolation
from iterreg.experiments import (
    ExperimentSpec,
    child_seed,
    run_bounds,
    run_certify,
    run_matcomp,
    run_pathcmp,
    run_semiconv,
    run_solve,
    run_stoptime,
    run_tvdemo,
)
from iterreg.pdsolver import CSV_VERSION
from iterreg.problems import load_problem

TINY_SPARSE = {"n": 40, "p": 100, "s": 8, "corr": 0.2, "y_norm": 8.0}


def spec_for(tmp_path, name, **kw):
    base = dict(name=name, out_dir=tmp_path / name, seed=0, max_iter=600,
                record_every=1, replicates=2)
    base.update(kw)
    return ExperimentSpec(**base)


def assert_versioned_csvs(out_dir):
    csvs = list(out_dir.glob("*.csv"))
    assert csvs
    for f in csvs:
        assert f.read_text().splitlines()[0] == CSV_VERSION, f


def test_child_seed_deterministic_and_distinct():
    assert child_seed(3, 1, 2) == child_seed(3, 1, 2)
    assert child_seed(3, 1, 2) != child_seed(3, 2, 1)
    assert child_seed(3, 1) != child_seed(4, 1)


def test_spec_validation(tmp_path):
    with pytest.raises(ContractViolation):
        ExperimentSpec(name="x", out_dir=tmp_path, replicates=0)
    with pytest.raises(ContractViolation):
        ExperimentSpec(name="x", out_dir=tmp_path, deltas=(-1.0,))


@pytest.mark.parametrize("seed", [-1, 2.5, "3"])
def test_seed_must_be_an_integer_at_least_zero(tmp_path, seed):
    with pytest.raises(ContractViolation, match=f"^seed must be an integer >= 0, got {seed!r}$"):
        ExperimentSpec(name="x", out_dir=tmp_path, seed=seed)


@pytest.mark.parametrize("replicates", [0, -1, 2.5, "3"])
def test_replicates_must_be_an_integer_at_least_one(tmp_path, replicates):
    with pytest.raises(ContractViolation,
                       match=f"^replicates must be an integer >= 1, got {replicates!r}$"):
        ExperimentSpec(name="x", out_dir=tmp_path, replicates=replicates)


def test_non_finite_noise_levels_are_named(tmp_path):
    with pytest.raises(ContractViolation, match=r"finite and nonnegative, got \[nan, inf\]$"):
        ExperimentSpec(name="x", out_dir=tmp_path, deltas=(0.5, np.nan, np.inf))


def test_repeated_noise_levels_are_named(tmp_path):
    with pytest.raises(ContractViolation, match=r"noise levels must be distinct; \[0\.6\] repeat"):
        spec_for(tmp_path, "semiconv", deltas=(0.6, 0.6, 1.2), problem=TINY_SPARSE)
    with pytest.raises(ContractViolation, match=r"\[0\.5, 2\.0\] repeat"):
        spec_for(tmp_path, "bounds", deltas=(2.0, 0.5, 2.0, 0.5))


@pytest.mark.parametrize("runner, problem", [
    (run_semiconv, TINY_SPARSE),
    (run_stoptime, TINY_SPARSE),
    (run_bounds, TINY_SPARSE),
    (run_matcomp, {"d": 6, "r": 2, "obs_frac_denom": 3, "y_norm": 6.0}),
])
def test_default_deltas_leave_spec_unchanged(tmp_path, runner, problem):
    spec = spec_for(tmp_path, runner.__name__, replicates=1, max_iter=20, problem=problem)
    runner(spec)
    assert spec.deltas == ()


@pytest.mark.parametrize("runner, problem, unknown", [
    (run_semiconv, {"d": 5, "seed": 1}, ["d", "seed"]),
    (run_stoptime, {"d": 5, "n": 30}, ["d"]),
    (run_bounds, {"rank": 2}, ["rank"]),
    (run_matcomp, {"n": 5, "d": 6}, ["n"]),
    (run_pathcmp, {"d": 5, "n": 30, "cp_iter": 10, "cp_iters": 5}, ["cp_iter", "d"]),
    (run_tvdemo, {"p_1": 4, "p2": 4, "subgrad_tol": 1e-12, "feas_tol": 1e-9},
     ["feas_tol", "p_1", "subgrad_tol"]),
])
def test_unknown_problem_keys_are_named_before_anything_runs(tmp_path, runner, problem,
                                                             unknown):
    spec = spec_for(tmp_path, runner.__name__, problem=problem)
    with pytest.raises(ContractViolation, match="takes no parameters") as exc:
        runner(spec)
    assert str(exc.value).endswith(f" {unknown}")
    assert not spec.out_dir.exists()


def test_semiconv_outputs_and_summary(tmp_path):
    spec = spec_for(tmp_path, "semiconv", deltas=(0.4, 0.8), problem=TINY_SPARSE)
    summary = run_semiconv(spec)
    assert_versioned_csvs(spec.out_dir)
    assert (spec.out_dir / "semiconv.svg").exists()
    assert set(summary["per_delta"]) == {0.4, 0.8}
    for info in summary["per_delta"].values():
        assert len(info["k_star"]) == 2
    # noisy minima sit above the clean-run floor as noise grows
    assert summary["mean_min_by_delta"][0] > 0


def test_semiconv_noiseless_curve_has_no_interior_dip(tmp_path):
    spec = spec_for(tmp_path, "semiconv", deltas=(0.0,), replicates=1,
                    max_iter=800, problem=TINY_SPARSE)
    summary = run_semiconv(spec)
    info = summary["per_delta"][0.0]
    rows = (spec.out_dir / "semiconv_curves.csv").read_text().splitlines()[2:]
    dist = np.array([float(r.split(",")[3]) for r in rows])
    assert info["k_star"][0] >= 0
    assert dist.min() >= dist[-1] - 1e-9  # monotone trend within noise floor


def test_stoptime_fit_and_files(tmp_path):
    spec = spec_for(tmp_path, "stoptime", deltas=(0.5, 1.0, 2.0, 4.0),
                    replicates=3, problem=TINY_SPARSE, max_iter=800)
    summary = run_stoptime(spec)
    assert_versioned_csvs(spec.out_dir)
    fit = summary["fit"]
    assert fit["pearson_r"] is not None
    assert fit["slope"] > 0  # noisier data stops earlier
    inv = summary["mean_inv_kstar"]
    assert len(inv) == 4
    assert inv[-1] > inv[0]


def test_stoptime_oracle_matches_logged_runs(tmp_path):
    # record_every=3 with max_iter=301 also records the final iterate off the grid
    spec = spec_for(tmp_path, "stoptime", deltas=(0.5, 2.0), replicates=2,
                    problem=TINY_SPARSE, max_iter=301, record_every=3)
    run_stoptime(spec)
    with open(spec.out_dir / "stoptime_raw.csv", newline="") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    prob = gen_sparse(seed=0, **TINY_SPARSE)
    cert = certify(prob.X, L1(), prob.y, cfg=make_config(prob.X, max_iter=500_000),
                   check_every=100)
    cfg = make_config(prob.X, max_iter=301, record_every=3)
    pairs = [(di, delta, rep) for di, delta in enumerate(spec.deltas) for rep in range(2)]
    assert len(rows) == len(pairs)
    for row, (di, delta, rep) in zip(rows, pairs):
        noisy = add_noise(prob, delta, child_seed(0, di, rep))
        k_star, d_star = oracle_stop(run(prob.X, L1(), noisy.y_delta, cfg, reference=cert))
        assert (float(row["delta"]), int(row["replicate"])) == (delta, rep)
        assert int(row["k_star"]) == k_star
        assert float(row["dist_star"]) == pytest.approx(d_star, rel=1e-12)


def test_stoptime_rel_intercept_divides_by_the_span_of_decreasing_levels(tmp_path):
    spec = spec_for(tmp_path, "stoptime", deltas=(4.0, 2.0, 1.0), replicates=2,
                    problem=TINY_SPARSE, max_iter=400)
    fit = run_stoptime(spec)["fit"]
    assert fit["rel_intercept"] > 0
    assert fit["rel_intercept"] == pytest.approx(
        abs(fit["intercept"]) / (abs(fit["slope"]) * 3.0), rel=1e-12)


def test_stoptime_single_delta_degenerate_fit(tmp_path):
    spec = spec_for(tmp_path, "stoptime", deltas=(1.0,), replicates=2,
                    problem=TINY_SPARSE, max_iter=400)
    summary = run_stoptime(spec)
    assert summary["fit"]["pearson_r"] is None
    assert summary["fit"]["slope"] is None


def test_bounds_no_violations_and_csvs(tmp_path):
    spec = spec_for(tmp_path, "bounds", deltas=(0.0, 0.7), replicates=2,
                    problem=TINY_SPARSE, max_iter=400)
    summary = run_bounds(spec, eps_list=(0.5, 0.9))
    assert summary["violations"] == 0
    assert summary["worst_gap_ratio"] <= 1.0
    assert summary["worst_feas_ratio"] <= 1.0
    files = list(spec.out_dir.glob("bounds_eps*.csv"))
    assert len(files) == 2 * 2 * 2
    assert json.loads((spec.out_dir / "bounds_summary.json").read_text())["violations"] == 0


def test_bounds_flags_violation(tmp_path, monkeypatch):
    import iterreg.experiments as exp

    monkeypatch.setattr(exp, "stability_gap_bound", lambda k, b: np.zeros(np.shape(k)))
    spec = spec_for(tmp_path, "bounds", deltas=(0.5,), replicates=1,
                    problem=TINY_SPARSE, max_iter=50)
    with pytest.raises(BoundViolation):
        run_bounds(spec, eps_list=(0.9,))


def test_pathcmp_summary_structure(tmp_path):
    spec = spec_for(tmp_path, "pathcmp",
                    problem={"n": 60, "p": 120, "s": 10, "delta": 1.5, "folds": 3,
                             "grid_count": 12, "grid_span": 2.0, "lasso_tol": 1e-4,
                             "lasso_max_iter": 800, "cp_iters": 120})
    summary = run_pathcmp(spec)
    assert (spec.out_dir / "pathcmp_lasso.csv").exists()
    assert (spec.out_dir / "pathcmp_cp.csv").exists()
    assert summary["best_cp_mse"] > 0
    assert summary["best_lasso_mse"] > 0
    assert summary["lasso_cum_iters_to_best"] >= summary["best_lasso_index"] + 1
    assert 0 <= summary["best_cp_k"] <= 120


def test_pathcmp_csv_cells_are_numbers(tmp_path):
    spec = spec_for(tmp_path, "pathcmp",
                    problem={"n": 40, "p": 80, "s": 6, "delta": 1.0, "folds": 2,
                             "grid_count": 6, "grid_span": 2.0, "lasso_tol": 1e-4,
                             "lasso_max_iter": 200, "cp_iters": 30})
    run_pathcmp(spec)

    def is_number(cell):
        for parse in (int, float):
            try:
                parse(cell)
                return True
            except ValueError:
                pass
        return cell == ""

    files = sorted(spec.out_dir.glob("*.csv"))
    assert len(files) == 5
    for f in files:
        with open(f, newline="") as fh:
            fh.readline()
            rows = list(csv.reader(fh))[1:]
        bad = [cell for row in rows for cell in row if not is_number(cell)]
        assert rows and not bad, (f.name, bad[:3])


def test_tvdemo_constraint_residual(tmp_path):
    spec = spec_for(tmp_path, "tvdemo", max_iter=200_000,
                    problem={"p1": 4, "p2": 4, "obs_frac": 0.7})
    summary = run_tvdemo(spec)
    assert summary["grad_residual"] <= 1e-6
    assert (spec.out_dir / "tv_solution.csv").exists()


def test_solve_and_load_round_trip(tmp_path):
    spec = spec_for(tmp_path, "solve", deltas=(0.5,), max_iter=150,
                    problem={"kind": "sparse", **TINY_SPARSE})
    summary = run_solve(spec)
    assert summary["iterations"] == 150
    prob = load_problem(spec.out_dir / "problem")
    assert prob.delta == 0.5

    spec2 = spec_for(tmp_path, "solve2", max_iter=80,
                     problem={"kind": "sparse", "load": str(spec.out_dir / "problem")})
    summary2 = run_solve(spec2)
    assert summary2["iterations"] == 80


def test_solve_takes_at_most_one_noise_level(tmp_path):
    spec = spec_for(tmp_path, "solve", deltas=(0.5, 3.0), problem=TINY_SPARSE)
    with pytest.raises(ContractViolation, match=r"at most one noise level, got \[0\.5, 3\.0\]"):
        run_solve(spec)
    assert not spec.out_dir.exists()


def test_certify_outputs(tmp_path):
    spec = spec_for(tmp_path, "certify", max_iter=400_000,
                    problem={"kind": "sparse", "n": 10, "p": 25, "s": 3, "y_norm": 5.0})
    meta = run_certify(spec)
    assert meta["feas_res"] <= 1e-9 * max(1.0, 5.0)
    w = np.loadtxt(spec.out_dir / "cert_w.csv", delimiter=",")
    assert w.shape == (25,)


def test_certify_default_budget_reaches_the_seed_3_sparse_instance(tmp_path):
    # the seed-3 instance first polishes at k = 7100, beyond the noisy runs' budget
    meta = run_certify(ExperimentSpec(name="c", out_dir=tmp_path / "c", seed=3))
    assert meta["k"] == 7100


def test_matcomp_tiny_runs(tmp_path):
    spec = spec_for(tmp_path, "matcomp", deltas=(1.5,), replicates=1, max_iter=400,
                    problem={"d": 6, "r": 2, "obs_frac_denom": 3, "y_norm": 6.0})
    summary = run_matcomp(spec)
    assert 1.5 in summary["per_delta"]
    assert_versioned_csvs(spec.out_dir)


def test_matcomp_defaults_large_deltas_show_interior_minima(tmp_path):
    spec = spec_for(tmp_path, "matcomp", deltas=(4.0, 8.0), replicates=2,
                    max_iter=5000)
    summary = run_matcomp(spec)
    assert summary["all_interior"]


def test_matcomp_noiseless_run_converges(tmp_path):
    spec = spec_for(tmp_path, "matcomp", deltas=(0.0,), replicates=1, max_iter=5000)
    run_matcomp(spec)
    rows = (spec.out_dir / "matcomp_curves.csv").read_text().splitlines()[2:]
    final_dist = float(rows[-1].split(",")[3])
    assert final_dist <= 1e-4 * 20.0


def test_matcomp_flat_small_delta_still_stoppable(tmp_path):
    # shallow-curve regime: the oracle iterate is within 5% of the final one
    spec = spec_for(tmp_path, "matcomp", deltas=(0.5,), replicates=1, max_iter=5000)
    summary = run_matcomp(spec)
    info = summary["per_delta"][0.5]
    rows = (spec.out_dir / "matcomp_curves.csv").read_text().splitlines()[2:]
    final_dist = float(rows[-1].split(",")[3])
    d_star = min(float(r.split(",")[3]) for r in rows)
    assert info["k_star"][0] < 5000
    assert final_dist <= 1.05 * d_star


def test_experiments_reproducible_byte_for_byte(tmp_path):
    a = spec_for(tmp_path, "rep_a", deltas=(0.5, 1.0), replicates=2,
                 problem=TINY_SPARSE, max_iter=300)
    b = spec_for(tmp_path, "rep_b", deltas=(0.5, 1.0), replicates=2,
                 problem=TINY_SPARSE, max_iter=300)
    a.name = b.name = "stoptime"
    run_stoptime(a)
    run_stoptime(b)
    files_a = sorted(p.name for p in a.out_dir.iterdir())
    files_b = sorted(p.name for p in b.out_dir.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert filecmp.cmp(a.out_dir / name, b.out_dir / name, shallow=False), name
