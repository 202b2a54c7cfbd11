import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from iterreg import cli, gen_matcomp
from iterreg.errors import AssumptionViolated, BoundViolation, CertificationFailure
from iterreg.experiments import ExperimentSpec
from iterreg.pdsolver import CSV_VERSION, IterateLog


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_solve_sparse(tmp_path, capsys):
    rc, out = run_cli(capsys, "solve", "--problem", "sparse", "--n", "12", "--p", "24",
                      "--s", "3", "--y-norm", "5", "--max-iter", "150",
                      "--out", str(tmp_path / "s"))
    assert rc == 0
    summary = json.loads(out)
    assert summary["iterations"] == 150
    assert (tmp_path / "s" / "log.csv").exists()


def test_matcomp_problem_takes_y_norm(tmp_path, capsys):
    flags = ("--problem", "matcomp", "--d", "4", "--rank", "1", "--obs-denom", "2",
             "--y-norm", "5")
    rc, _ = run_cli(capsys, "solve", *flags, "--max-iter", "10", "--out", str(tmp_path / "s"))
    assert rc == 0
    meta = json.loads((tmp_path / "s" / "problem" / "meta.json").read_text())
    assert meta["params"]["y_norm"] == 5.0
    rc, _ = run_cli(capsys, "certify", *flags, "--max-iter", "200000",
                    "--out", str(tmp_path / "c"))
    assert rc == 0
    prob = gen_matcomp(d=4, r=1, obs_frac_denom=2, y_norm=5.0, seed=0)
    w = np.loadtxt(tmp_path / "c" / "cert_w.csv", delimiter=",")
    assert np.allclose(prob.X.apply(w), prob.y, atol=1e-6)


def test_solve_log_holds_only_the_columns_that_need_no_certificate(tmp_path, capsys):
    rc, _ = run_cli(capsys, "solve", "--delta", "1", "--max-iter", "20",
                    "--out", str(tmp_path / "s"))
    assert rc == 0
    log = IterateLog.read_csv(tmp_path / "s" / "log.csv")
    assert np.all(np.isnan(log.column("res_clean")))
    assert np.all(np.isfinite(log.column("res_noisy")))
    assert np.all(np.isfinite(log.column("j_val")))


def test_solve_then_certify_loaded_problem(tmp_path, capsys):
    rc, _ = run_cli(capsys, "solve", "--problem", "sparse", "--n", "10", "--p", "20",
                    "--s", "2", "--y-norm", "4", "--max-iter", "50",
                    "--out", str(tmp_path / "a"))
    assert rc == 0
    rc, out = run_cli(capsys, "certify", "--load", str(tmp_path / "a" / "problem"),
                      "--max-iter", "400000", "--out", str(tmp_path / "c"))
    assert rc == 0
    meta = json.loads(out)
    assert meta["feas_res"] <= 1e-8
    assert np.loadtxt(tmp_path / "c" / "cert_w.csv", delimiter=",").shape == (20,)


def test_certify_polishes_the_seed_1_sparse_instance(tmp_path, capsys):
    rc, out = run_cli(capsys, "certify", "--seed", "1", "--out", str(tmp_path / "c"))
    assert rc == 0
    meta = json.loads((tmp_path / "c" / "cert_meta.json").read_text())
    assert meta == json.loads(out)
    assert meta["polished"] is True and meta["k"] % 100 == 0
    assert meta["feas_res"] <= 1e-9 * 20.0 and meta["subgrad_res"] <= 1e-6


def test_certify_budget_reaches_the_seed_3_sparse_instance(tmp_path, capsys):
    # the seed-3 instance first polishes at k = 7100, beyond the other commands' 5000
    rc, out = run_cli(capsys, "certify", "--seed", "3", "--out", str(tmp_path / "c"))
    assert rc == 0
    assert json.loads(out)["k"] == 7100


@pytest.mark.parametrize("cmd", ["certify", "tv-demo"])
def test_max_iter_zero_means_no_iterations(tmp_path, capsys, cmd):
    flags = ("--p1", "4", "--p2", "4") if cmd == "tv-demo" else ()
    rc = cli.main([cmd, *flags, "--max-iter", "0", "--out", str(tmp_path / "c")])
    assert rc == 1
    assert "within 0 iterations" in capsys.readouterr().err


RUNNERS = {"solve": "run_solve", "certify": "run_certify", "semiconv": "run_semiconv",
           "stoptime": "run_stoptime", "bounds": "run_bounds", "pathcmp": "run_pathcmp",
           "matcomp": "run_matcomp", "tv-demo": "run_tvdemo"}


@pytest.mark.parametrize("cmd", RUNNERS)
def test_spec_carries_only_the_given_flags(tmp_path, monkeypatch, cmd):
    seen = {}

    def runner(spec, **kwargs):
        seen.update(spec=spec, kwargs=kwargs)
        return {}

    monkeypatch.setattr(cli, RUNNERS[cmd], runner)
    rc = cli.main([cmd, "--out", str(tmp_path / "x")])
    assert rc == 0
    spec = seen["spec"]
    assert spec.problem == {} and spec.max_iter is None and spec.deltas == ()
    unset = ExperimentSpec(name=spec.name, out_dir=tmp_path / "x")
    assert dataclasses.asdict(spec) == dataclasses.asdict(unset)
    assert seen["kwargs"] == ({"eps_list": None} if cmd == "bounds" else {})


def test_default_out_dir_is_named_after_the_experiment(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_tvdemo", lambda spec: seen.append(spec) or {})
    assert cli.main(["tv-demo"]) == 0
    assert seen[0].name == "tvdemo" and seen[0].out_dir == Path("out/tvdemo")


def test_generator_flag_of_the_other_kind_is_an_error(tmp_path, capsys):
    rc = cli.main(["solve", "--problem", "matcomp", "--n", "10", "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'n'" in err
    assert not (tmp_path / "s" / "log.csv").exists()


def test_loaded_problem_takes_no_generator_flags(tmp_path, capsys):
    rc, _ = run_cli(capsys, "solve", "--n", "10", "--p", "20", "--s", "2", "--max-iter", "5",
                    "--out", str(tmp_path / "a"))
    assert rc == 0
    rc = cli.main(["certify", "--load", str(tmp_path / "a" / "problem"), "--n", "10",
                   "--out", str(tmp_path / "c")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (("semiconv", "--delta", "0.6", "--delta", "0.6", "--delta", "1.2", "--replicates", "2"),
     "noise levels must be distinct; [0.6] repeat"),
    (("bounds", "--delta", "0.5", "--bound-eps", "0.5", "--bound-eps", "0.5"),
     "bound epsilons must be distinct; [0.5] repeat"),
])
def test_repeated_noise_level_or_bound_epsilon_is_an_error(tmp_path, capsys, argv, named):
    rc = cli.main([*argv, "--n", "30", "--p", "60", "--s", "5", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "r").exists()


_PATHCMP = ("pathcmp", "--n", "40", "--p", "80", "--s", "6", "--grid-count", "4",
            "--cp-iters", "5")


@pytest.mark.parametrize("argv, named", [
    ((*_PATHCMP, "--folds", "0"), "folds must lie in [2, n] = [2, 40], got 0"),
    ((*_PATHCMP, "--folds", "1"), "folds must lie in [2, n] = [2, 40], got 1"),
    ((*_PATHCMP, "--folds", "50"), "folds must lie in [2, n] = [2, 40], got 50"),
    ((*_PATHCMP, "--lasso-max-iter", "-1"), "max_iter must be >= 1, got -1"),
    ((*_PATHCMP, "--lasso-max-iter", "0"), "max_iter must be >= 1, got 0"),
    ((*_PATHCMP, "--lasso-tol", "-1"), "tolerance must be positive, got -1.0"),
    ((*_PATHCMP, "--lasso-tol", "nan"), "tolerance must be positive, got nan"),
    (("tv-demo", "--obs-frac", "2"), "obs_frac must lie in (0, 1], got 2.0"),
    (("tv-demo", "--obs-frac", "-1"), "obs_frac must lie in (0, 1], got -1.0"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_out_of_range_experiment_input_is_an_error(tmp_path, capsys, argv, named):
    rc = cli.main([*argv, "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    # the penalty solver checks its own inputs, once the output directory is made
    assert (tmp_path / "r").exists() == named.startswith(("max_iter", "tolerance"))


def test_stoptime_with_an_oracle_stop_at_zero_is_an_assumption_violation(tmp_path, capsys):
    # noise far above ||y|| = 6: the best iterate of every replicate is the initial one
    rc = cli.main(["stoptime", "--n", "30", "--p", "60", "--s", "5", "--y-norm", "6",
                   "--delta", "60", "--delta", "120", "--replicates", "1", "--max-iter", "50",
                   "--out", str(tmp_path / "st")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("assumption violated: ") and err.count("\n") == 1
    assert "delta=60" in err and "replicate 0" in err


def test_semiconv_command(tmp_path, capsys):
    rc, out = run_cli(capsys, "semiconv", "--n", "30", "--p", "60", "--s", "5",
                      "--y-norm", "6", "--delta", "0.5", "--replicates", "2",
                      "--max-iter", "300", "--out", str(tmp_path / "sc"))
    assert rc == 0
    assert (tmp_path / "sc" / "semiconv_curves.csv").exists()


def test_tv_demo_command(tmp_path, capsys):
    rc, out = run_cli(capsys, "tv-demo", "--p1", "4", "--p2", "4",
                      "--out", str(tmp_path / "tv"))
    assert rc == 0
    assert json.loads(out)["grad_residual"] <= 1e-6
    rc = cli.main(["tv-demo", "--p1", "4", "--p2", "4", "--max-iter", "10",
                   "--out", str(tmp_path / "tv10")])
    assert rc == 1
    assert "within 10 iterations" in capsys.readouterr().err


def test_exit_code_assumption_violated(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_semiconv",
                        lambda spec: (_ for _ in ()).throw(AssumptionViolated("nope")))
    rc = cli.main(["semiconv", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_exit_code_bound_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_bounds",
                        lambda spec, eps_list: (_ for _ in ()).throw(BoundViolation("bad")))
    rc = cli.main(["bounds", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_library_error_is_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_certify",
                        lambda spec: (_ for _ in ()).throw(CertificationFailure("no pair")))
    rc = cli.main(["certify", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == "error: no pair\n"


def test_all_output_csvs_carry_schema_version(tmp_path, capsys):
    rc, _ = run_cli(capsys, "stoptime", "--n", "30", "--p", "60", "--s", "5",
                    "--y-norm", "6", "--delta", "0.5", "--delta", "1.5",
                    "--replicates", "2", "--max-iter", "300",
                    "--out", str(tmp_path / "st"))
    assert rc == 0
    for f in (tmp_path / "st").glob("*.csv"):
        assert f.read_text().splitlines()[0] == CSV_VERSION


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])


@pytest.mark.parametrize("argv", [
    *[(cmd, flag, "1") for cmd in ("certify", "tv-demo")
      for flag in ("--eps", "--record-every", "--delta", "--replicates")],
    *[("pathcmp", flag, "1") for flag in ("--max-iter", "--record-every", "--delta", "--replicates")],
    ("bounds", "--eps", "0.3"),
    ("solve", "--replicates", "2"),
    ("solve", "--delta", "1", "--delta", "2"),
], ids=" ".join)
def test_parser_rejects_flags_the_runner_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(list(argv))
    assert exc.value.code == 2
