import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from iterreg import cli, experiments, gen_matcomp
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
    # a failed certificate leaves no output directory
    assert not (tmp_path / "c").exists()


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


_SPARSE = ("--n", "30", "--p", "60", "--s", "5")
_PATHCMP = ("--n", "40", "--p", "80", "--s", "6", "--grid-count", "4", "--cp-iters", "5")

# Bad values of each flag, each with the flags around it and the one error line it gives,
# the same in every command that takes the flag ...
_BAD = {
    "--seed": [(("--seed", "-1"), "seed must be an integer >= 0, got -1")],
    "--eps": [(("--eps", v), f"epsilon must lie in (0,1), got {v}") for v in ("1.5", "-1.0")],
    "--max-iter": [(("--max-iter", "-1"), "max_iter must be an integer >= 0, got -1")],
    "--record-every": [(("--record-every", v), f"record_every must be an integer >= 1, got {v}")
                       for v in ("0", "-2")],
    "--delta": [(("--delta", v), f"noise levels must be finite and nonnegative, got [{v}]")
                for v in ("-1.0", "nan", "inf")],
    "--replicates": [(("--replicates", "0"), "replicates must be >= 1, got 0")],
    "--n": [(("--n", "0", "--p", "60", "--s", "5"),
             "need 0 <= s <= p and 0 < n <= p, got n=0, p=60, s=5")],
    "--p": [(("--n", "30", "--p", "20", "--s", "5"),
             "need 0 <= s <= p and 0 < n <= p, got n=30, p=20, s=5")],
    "--s": [(("--n", "40", "--p", "80", "--s", "100"),
             "need 0 <= s <= p and 0 < n <= p, got n=40, p=80, s=100")],
    "--corr": [(("--corr", "1.5"), "corr must lie in [0,1), got 1.5")],
    "--y-norm": [(("--y-norm", v), f"y_norm must be finite and >= 0, got {v}")
                 for v in ("-1.0", "nan", "inf")],
    "--d": [(("--d", "0"), "need 0 < r <= d, got d=0, r=5")],
    "--rank": [(("--d", "6", "--rank", "7"), "need 0 < r <= d, got d=6, r=7")],
    "--obs-denom": [(("--obs-denom", "0"), "obs_frac_denom must be >= 1, got 0")],
    "--problem": [(("--problem", "matcomp", "--n", "10"),
                   "a matcomp problem takes no parameters ['n']")],
    "--load": [(("--load", "nowhere"), "problem directory nowhere has no meta.json")],
}
_MATCOMP_KIND = {flag: [(("--problem", "matcomp", *argv), line) for argv, line in _BAD[flag]]
                 for flag in ("--d", "--rank", "--obs-denom")}
# ... but where a command reads it its own way, or takes it alone.
_BAD_IN = {
    "solve": _MATCOMP_KIND,
    "certify": _MATCOMP_KIND,
    "semiconv": {"--delta": [
        *_BAD["--delta"],
        ((*_SPARSE, "--replicates", "2", "--delta", "0.6", "--delta", "0.6", "--delta", "1.2"),
         "noise levels must be distinct; [0.6] repeat")]},
    "bounds": {
        "--max-iter": [((*_SPARSE, "--delta", "0.5", "--replicates", "1", "--max-iter", v),
                        f"the bounds hold for k >= 1, so the budget must be >= 1, got {v}")
                       for v in ("0", "-1")],
        "--bound-eps": [
            ((*_SPARSE, "--delta", "0.5", "--bound-eps", "0.5", "--bound-eps", "0.5"),
             "bound epsilons must be distinct; [0.5] repeat"),
            ((*_SPARSE, "--replicates", "1", "--bound-eps", "0.5", "--bound-eps", "1.5"),
             "epsilon must lie in (0,1), got 1.5")]},
    "pathcmp": {
        "--noise": [((*_PATHCMP, "--noise", v), f"delta must be finite and nonnegative, got {v}")
                    for v in ("-1.0", "nan", "inf")],
        "--folds": [((*_PATHCMP, "--folds", v), f"folds must lie in [2, n] = [2, 40], got {v}")
                    for v in ("0", "1", "50")],
        "--grid-count": [((*_PATHCMP, "--grid-count", "1"), "grid needs at least 2 points, got 1")],
        "--grid-span": [((*_PATHCMP, "--grid-span", v),
                         f"span_decades must be finite and > 0, got {v}")
                        for v in ("nan", "-1.0", "0.0")],
        "--lasso-tol": [((*_PATHCMP, "--lasso-tol", v), f"tolerance must be positive, got {v}")
                        for v in ("-1.0", "nan")],
        "--lasso-max-iter": [((*_PATHCMP, "--lasso-max-iter", v), f"max_iter must be >= 1, got {v}")
                             for v in ("-1", "0")],
        "--cp-iters": [((*_PATHCMP, "--cp-iters", "-1"),
                        "max_iter must be an integer >= 0, got -1")]},
    "tv-demo": {
        "--p1": [(("--p1", v), f"p1 and p2 must be positive integers, got {v} and 8")
                 for v in ("0", "-2")],
        "--p2": [(("--p2", "0"), "p1 and p2 must be positive integers, got 8 and 0")],
        "--obs-frac": [(("--obs-frac", v), f"obs_frac must lie in (0, 1], got {v}")
                       for v in ("2.0", "-1.0")]},
}


def _bad_input_cases():
    """The bad values of every flag of every command, as ``cli.build_parser`` lists them.

    ``--out`` is left out: a directory that cannot be made is only found at the first
    output. A flag with no bad value is a case that fails.
    """
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for cmd, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        for flag in sorted(flags - {"-h", "--help", "--out"}):
            for argv, line in _BAD_IN.get(cmd, {}).get(flag, _BAD.get(flag, [(None, None)])):
                yield pytest.param(cmd, flag, argv, line,
                                   id=" ".join((cmd, *(argv or (flag, "(none)")))))


@pytest.mark.filterwarnings("error")  # a warning would be one more line on stderr
@pytest.mark.parametrize("cmd, flag, argv, line", _bad_input_cases())
def test_bad_input_is_one_error_line_before_any_output_or_certificate(
        tmp_path, capsys, monkeypatch, cmd, flag, argv, line):
    assert argv is not None, f"no bad value of {cmd} {flag} is tested"

    def no_certificate(*args, **kwargs):
        raise AssertionError("certified before the input was checked")

    monkeypatch.setattr(experiments, "certify", no_certificate)
    monkeypatch.chdir(tmp_path)
    rc = cli.main([cmd, *argv, "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "r").exists()


def test_out_naming_a_file_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "some_file"
    target.write_text("kept\n")
    rc = cli.main(["solve", "--n", "10", "--p", "20", "--s", "2", "--max-iter", "5",
                   "--out", str(target)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cannot make the output directory {target}: File exists\n")
    assert target.read_text() == "kept\n"


def test_bounds_worst_ratio_is_null_when_no_bound_is_positive(tmp_path, capsys):
    # clean data of norm 0 at noise 0: every bound is 0
    rc, out = run_cli(capsys, "bounds", "--n", "30", "--p", "60", "--s", "5", "--y-norm", "0",
                      "--delta", "0", "--replicates", "1", "--max-iter", "50",
                      "--out", str(tmp_path / "b"))
    assert rc == 0
    expected = {"violations": 0, "worst_gap_ratio": None, "worst_feas_ratio": None}
    assert json.loads(out) == expected
    assert json.loads((tmp_path / "b" / "bounds_summary.json").read_text()) == expected


def test_stoptime_with_an_oracle_stop_at_zero_is_an_assumption_violation(tmp_path, capsys):
    # noise far above ||y|| = 6: the best iterate of every replicate is the initial one
    rc = cli.main(["stoptime", "--n", "30", "--p", "60", "--s", "5", "--y-norm", "6",
                   "--delta", "60", "--delta", "120", "--replicates", "1", "--max-iter", "50",
                   "--out", str(tmp_path / "st")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("assumption violated: ") and err.count("\n") == 1
    assert "delta=60" in err and "replicate 0" in err
    assert not (tmp_path / "st").exists()


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
    assert not (tmp_path / "tv10").exists()


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
