"""CLI subcommands, determinism, exit codes."""

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from engellab import cli
from engellab.cli import main, run


def test_unknown_subcommand_rejected():
    with pytest.raises(ValueError):
        run("no-such-thing", {})


def test_identities_all_pass(tmp_path):
    rep = run("identities", {"trials": 10}, out_dir=tmp_path, seed=1)
    assert rep.passed
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is True
    assert payload["experiment"] == "identities"


def test_strichartz_exit_codes(capsys):
    assert main(["strichartz", "--q", "2", "--p", "2.8"]) == 0
    out = capsys.readouterr().out
    assert "allowed" in out


def test_strichartz_expectation_check(tmp_path):
    rep = run("strichartz", {"q": 4, "p": "7/3", "expect": "allowed"}, out_dir=tmp_path)
    assert not rep.passed  # 4, 7/3 is obstructed, not allowed
    rep2 = run("strichartz", {"q": 4, "p": "7/3", "expect": "admissible-but-obstructed"})
    assert rep2.passed


def test_dispersion_sweep_rows_and_determinism(tmp_path):
    cfg = {"n_list": [1, 2], "nu_min": -0.2, "nu_max": 0.2, "nu_step": 0.1,
           "grid_n": 512}
    a = tmp_path / "a"
    b = tmp_path / "b"
    rep = run("dispersion", cfg, out_dir=a, seed=3)
    assert rep.passed
    run("dispersion", cfg, out_dir=b, seed=3)
    csv_a = (a / "branches.csv").read_bytes()
    csv_b = (b / "branches.csv").read_bytes()
    assert csv_a == csv_b
    rep_a = (a / "report.json").read_bytes()
    rep_b = (b / "report.json").read_bytes()
    # the report echoes only config/checks/metrics, so it is reproducible too
    assert rep_a.replace(str(a).encode(), b"") == rep_b.replace(str(b).encode(), b"")
    lines = csv_a.decode().strip().split("\n")
    assert lines[0].startswith("n,delta,beta")
    assert len(lines) - 1 == 2 * 5

    # rows come out n-ascending, then beta-ascending, whatever the n_list order
    swapped = {**cfg, "n_list": [2, 1]}
    c, d = tmp_path / "c", tmp_path / "d"
    run("dispersion", swapped, out_dir=c, seed=3)
    run("dispersion", swapped, out_dir=d, seed=3)
    csv_c = (c / "branches.csv").read_bytes()
    assert csv_c == (d / "branches.csv").read_bytes()
    keys = [(int(r.split(",")[0]), float(r.split(",")[2]))
            for r in csv_c.decode().strip().split("\n")[1:]]
    assert len(keys) == 2 * 5
    assert keys == sorted(keys)


def test_branch_csv_columns(tmp_path):
    run("dispersion", {"n_list": [1], "nu_min": 0.0, "nu_max": 0.5, "nu_step": 0.5,
                       "grid_n": 1024}, out_dir=tmp_path)
    header, *rows = (tmp_path / "branches.csv").read_text().strip().split("\n")
    assert header == "n,delta,beta,mu,dmu_dbeta,d2mu_dbeta2,grid_L,grid_N"
    assert len(rows) == 2
    assert rows[0].startswith("1,1,0,")


# cheap configs of every subcommand that writes a data file, and the files
CSV_RUNS = [
    ("dispersion", {"n_list": [1, 2], "nu_min": -0.2, "nu_max": 0.2, "nu_step": 0.2,
                    "grid_n": 512}, ["branches.csv"]),
    ("residual-scaling", {"grid_n": 1024},
     ["residual_scaling_full.csv", "residual_scaling_sigma1.csv"]),
    ("transport", {"grid_n": 1024, "hbar_ladder": [0.05, 0.025]}, ["transport.csv"]),
    ("smicro-profile", {"grid_n": 2048, "times": [0.0, 1.0], "delta_list": [1.0]},
     ["profile_densities.csv"]),
]


@pytest.mark.parametrize("subcommand, config, names", CSV_RUNS, ids=[c[0] for c in CSV_RUNS])
def test_every_csv_is_rectangular_and_numeric(tmp_path, subcommand, config, names):
    rep = run(subcommand, config, out_dir=tmp_path)
    assert sorted(rep.files) == sorted(names)
    for name in names:
        text = (tmp_path / name).read_text()
        assert text.endswith("\n") and not text.endswith("\n\n"), name
        header, *rows = text[:-1].split("\n")
        assert rows, name
        width = len(header.split(","))
        for row in rows:
            fields = row.split(",")
            assert len(fields) == width, (name, row)
            for f in fields:
                float(f)  # raises on a field that is not a number


def test_dispersion_empty_grid_errors():
    with pytest.raises(ValueError):
        run("dispersion", {"n_list": [], "nu_min": 0, "nu_max": 1})
    with pytest.raises(ValueError):
        run("dispersion", {"n_list": [1], "nu_min": 1.0, "nu_max": 0.0})


def _run_at_seeds_0_and_7(tmp_path, monkeypatch, subcommand):
    """The two --out trees of a run at the defaults, seeds 0 and 7 (relative
    --out, since report.json lists the written paths), and the last report."""
    for seed in (0, 7):
        (tmp_path / f"s{seed}").mkdir()
        monkeypatch.chdir(tmp_path / f"s{seed}")
        rep = run(subcommand, {}, out_dir="out", seed=seed)
        assert rep.passed
    return [tmp_path / f"s{seed}" / "out" for seed in (0, 7)], rep


def test_residual_scaling_output_independent_of_seed(tmp_path, monkeypatch):
    # exact fibre integrals, no sampling: the out tree is the same for every seed
    (a, b), rep = _run_at_seeds_0_and_7(tmp_path, monkeypatch, "residual-scaling")
    for name in ("report.json", "residual_scaling_full.csv", "residual_scaling_sigma1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for name in ("residual_scaling_full.csv", "residual_scaling_sigma1.csv"):
        assert (a / name).read_text().split("\n", 1)[0] == "hbar,residual"
    assert "sampling_health" not in rep.metrics


def test_transport_empty_ladder_errors():
    with pytest.raises(ValueError, match="hbar"):
        run("transport", {"hbar_ladder": []}, seed=3)


def test_transport_output_independent_of_seed(tmp_path, monkeypatch):
    # exact moments, no sampling: the out tree is the same for every seed
    (a, b), rep = _run_at_seeds_0_and_7(tmp_path, monkeypatch, "transport")
    for name in ("report.json", "transport.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ratios = [r["mass_ratio"] for r in rep.metrics["mass_ratio"]]
    # the sigma_1 correction adds O(hbar) to the leading closed-form mass
    assert ratios == pytest.approx([1.0048, 1.0023, 1.0011], abs=1e-4)
    assert "sampling_health" not in rep.metrics


def test_transport_picks_its_check_by_drift_against_width():
    # on the n = 1 cone the drift is 2.0e-6 against a width of 0.143: well
    # inside the stationary gate's 0.02 of the width, so that gate runs; at
    # the defaults the drift is 0.287 against 0.156 and the drift is checked
    for config, name in (({"beta0": -0.3467583952}, "stationary-centroid-vs-width"),
                         ({}, "drift-relative-error")):
        rep = run("transport", config, seed=0)
        assert [c.name for c in rep.checks] == [name]
        assert rep.passed


@pytest.mark.parametrize("subcommand, config, unknown", [
    ("transport", {"hbar": 0.02}, "hbar"),
    ("residual-scaling", {"sample_cont": 300, "hbar_ladder": [0.1]}, "sample_cont"),
    ("smicro-profile", {"tol": 1e9, "grid_n": 2048}, "tol"),
    ("strichartz", {"q": 2, "p": 2.8, "alpha": 1, "beta": 2}, "alpha, beta"),
    # transport integrates exactly and no longer samples
    ("transport", {"sample_count": 500}, "sample_count"),
    # nor does residual-scaling
    ("residual-scaling", {"sample_count": 500}, "sample_count"),
    # plancherel integrates beta over the whole line and delta from 0
    ("plancherel", {"beta_box": 100.0, "delta_min": 0.1, "delta_max": 5.0},
     "beta_box, delta_max, delta_min"),
])
def test_unknown_config_keys_rejected(tmp_path, subcommand, config, unknown):
    # refused before any work, naming every key the subcommand does not read
    with pytest.raises(ValueError, match=f"does not read config key\\(s\\) {unknown};"):
        run(subcommand, config, out_dir=tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore:no sign change")  # smicro-profile --n 16
def test_refused_config_is_a_usage_error(tmp_path, capsys):
    configs = {"empty": {"n_list": []}, "no-hbar": {"hbar_ladder": []},
               "text-hbar": {"hbar_ladder": ["0.05", "a"]}, "minus-trials": {"trials": -1},
               "three-centers": {"kernels": [{"centers": [0, 0, 0], "widths": [1, 1, 1, 1]},
                                             {"centers": [0, 0, 0, 0], "widths": [1, 1, 1, 1]}]},
               "no-widths": {"kernels": [{"centers": [0, 0, 0, 0], "widths": [1, 1, 1, 1]},
                                         {"centers": [0, 0, 0, 0]}]},
               "one-kernel": {"kernels": [{"centers": [0, 0, 0, 0], "widths": [1, 1, 1, 1]}]},
               "zero-step": {"nu_step": 0}, "minus-step": {"nu_step": -0.1},
               "nan-step": {"nu_step": float("nan")}, "inf-min": {"nu_min": float("-inf")},
               "zero-delta": {"delta_list": [0.5, 0.0]}}
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    for argv, message in (
        (["strichartz", "--q", "2", "--p", "2.8", "--tol", "1"],
         "strichartz does not read config key(s) tol;"),
        (["dispersion", "--config", str(tmp_path / "empty.json")], "empty sweep grid"),
        # a root tolerance that is not finite and positive would never stop Newton
        (["critical-points", "--tol", "0"],
         "critical-points: root tolerance must be finite and positive, got 0.0"),
        (["critical-points", "--tol", "-1"],
         "critical-points: root tolerance must be finite and positive, got -1.0"),
        (["critical-points", "--tol", "nan"],
         "critical-points: root tolerance must be finite and positive, got nan"),
        # bad hbar ladders are refused before any work
        (["residual-scaling", "--hbar-ladder", "0.1,0.05"],
         "a residual-scaling slope needs at least 4 hbar value(s), got 2"),
        (["residual-scaling", "--hbar-ladder", "0.1,x,0.025,0.0125"],
         "argument --hbar-ladder: expected comma-separated numbers, got '0.1,x,0.025,0.0125'"),
        (["transport", "--hbar-ladder", ""],
         "argument --hbar-ladder: expected comma-separated numbers, got ''"),
        (["transport", "--config", str(tmp_path / "no-hbar.json")],
         "transport needs at least 1 hbar value(s), got 0"),
        (["transport", "--config", str(tmp_path / "text-hbar.json")],
         "hbar_ladder must be a list of numbers, got ['0.05', 'a']"),
        (["identities", "--config", str(tmp_path / "minus-trials.json")],
         "identities needs a trial count of at least 0, got -1"),
        # a malformed Gaussian kernel is refused, naming the entry
        (["plancherel", "--config", str(tmp_path / "three-centers.json")],
         "plancherel kernel 0 {'centers': [0, 0, 0], 'widths': [1, 1, 1, 1]} needs 4 finite "
         "centers and 4 finite positive widths"),
        (["plancherel", "--config", str(tmp_path / "no-widths.json")],
         "plancherel kernel 1 {'centers': [0, 0, 0, 0]} needs 4 finite centers"),
        (["plancherel", "--config", str(tmp_path / "one-kernel.json")],
         "plancherel needs a list of at least 2 kernels, got [{'centers': [0, 0, 0, 0], "
         "'widths': [1, 1, 1, 1]}]"),
        # a sweep step that is not finite and positive, or an infinite end
        (["dispersion", "--config", str(tmp_path / "zero-step.json")],
         "dispersion needs finite nu_min, nu_max and nu_step > 0, got -4.0, 4.0, 0.0"),
        (["dispersion", "--config", str(tmp_path / "minus-step.json")],
         "dispersion needs finite nu_min, nu_max and nu_step > 0, got -4.0, 4.0, -0.1"),
        (["dispersion", "--config", str(tmp_path / "nan-step.json")],
         "dispersion needs finite nu_min, nu_max and nu_step > 0, got -4.0, 4.0, nan"),
        (["dispersion", "--config", str(tmp_path / "inf-min.json")],
         "dispersion needs finite nu_min, nu_max and nu_step > 0, got -inf, 4.0, 0.05"),
        # arguments the library refuses
        (["smicro-profile", "--n", "0"],
         "smicro-profile: need n >= 1 and a finite nu, got n = 0, nu = -4.0"),
        (["smicro-profile", "--grid-n", "2"], "smicro-profile: need at least 3 grid nodes"),
        (["smicro-profile", "--n", "16"], "smicro-profile: mode 16 has no critical point on [-4, 4]"),
        (["smicro-profile", "--config", str(tmp_path / "zero-delta.json")],
         "smicro-profile: Generic requires delta != 0"),
        (["strichartz", "--p", "abc"], "strichartz: Invalid literal for Fraction: 'abc'"),
        (["strichartz", "--q", "1"], "strichartz: exponent q = 1 below 2"),
        # critical points are solved on Hermite functions, with no grid
        (["critical-points", "--grid-n", "512"],
         "critical-points does not read config key(s) grid_n;"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: engellab") and f"error: {message}" in err


def test_cli_import_skips_scipy_interpolate():
    # the spline is built in-house; scipy.interpolate would also pull in
    # scipy.optimize, ~140 ms of set-up and ~23 MiB of peak RSS in every
    # CLI call and benchmark pass (BENCH_15.json)
    probe = ("import sys, engellab.cli; "
             "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize') "
             "if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_real_faults_keep_their_traceback(monkeypatch):
    def broken(cfg, seed):
        raise ValueError("a fault, not a refused config")
    broken.keys = frozenset()
    monkeypatch.setitem(cli._RUNNERS, "strichartz", broken)
    with pytest.raises(ValueError, match="a fault"):
        main(["strichartz"])


def test_runners_declare_the_keys_they_read():
    for name, runner in cli._RUNNERS.items():
        src = inspect.getsource(runner)
        if "_spec_from_cfg(cfg)" in src:
            src += inspect.getsource(cli._spec_from_cfg)
        read = set(re.findall(r'cfg(?:\.get\(|\[)"(\w+)"|"(\w+)" in cfg', src))
        assert {k for pair in read for k in pair if k} == runner.keys, name


def _workloads_module(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_accepted(monkeypatch):
    # every key the benchmark workloads send (n_list, nu_min, nu_max, nu_step,
    # grid_n, n, trials, q, p, expect) is one its subcommand reads
    workloads = _workloads_module(monkeypatch)
    sent = set()
    for name in ("branch-sweep", "certify", "packet-residual"):
        for exp in workloads.make_inputs(name, 0).experiments:
            if exp.subcommand in cli._RUNNERS:
                assert set(exp.config) <= cli._RUNNERS[exp.subcommand].keys, exp.exp_id
                sent |= set(exp.config)
    assert {"n_list", "nu_step", "grid_n", "n", "trials", "q", "p", "expect"} <= sent


# main's flags, the config key each sets and the subcommands that read it
MAIN_FLAGS = [
    (["--n", "2"], "n", ("residual-scaling", "critical-points", "smicro-profile", "transport")),
    (["--q", "4", "--p", "7/3"], "p", ("strichartz",)),
    (["--tol", "1e-8"], "tol", ("critical-points",)),
    (["--grid-n", "512"], "grid_n",
     ("residual-scaling", "smicro-profile", "transport", "dispersion")),
    (["--grid-l", "12"], "grid_l", ("residual-scaling", "transport")),
    (["--hbar-ladder", "0.1,0.05"], "hbar_ladder", ("residual-scaling", "transport")),
]


def _flag_case_id(value):
    # the readers print as a set in their listed order; a set's own order
    # follows the string hash seed and would rename the cases from run to run
    return "{%s}" % ", ".join(map(repr, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("flags, key, readers", MAIN_FLAGS, ids=_flag_case_id)
def test_main_flags_accepted_where_read(monkeypatch, capsys, flags, key, readers):
    # main passes its flags through run's key check and reports a refusal as
    # a usage error; only the experiments are stubbed out, each with its
    # runner's keys
    monkeypatch.setattr(cli, "_RUNNERS", {
        name: cli._reads(*runner.keys)(lambda cfg, seed, name=name: cli.RunReport(name, cfg))
        for name, runner in cli._RUNNERS.items()})
    for sub in cli.SUBCOMMANDS:
        if sub in readers:
            assert main([sub, *flags]) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main([sub, *flags])
            assert exc.value.code == 2
            assert re.search(rf"error: {sub} does not read config key\(s\) [^;]*\b{key}\b",
                             capsys.readouterr().err)


def test_critical_points_cli(tmp_path):
    rep = run("critical-points", {"n": 1, "scan": [-1.0, 0.5], "tol": 1e-8},
              out_dir=tmp_path)
    assert rep.passed
    assert len(rep.metrics["reports"]) == 1
    assert rep.metrics["reports"][0]["curvature"] > 0


def test_smicro_profile_cli(tmp_path):
    # the check thresholds are fixed; "tol", which only critical-points reads,
    # is refused (test_unknown_config_keys_rejected)
    rep = run("smicro-profile", {"grid_n": 2048, "times": [0.0, 1.0],
                                 "delta_list": [1.0, 2.0]}, out_dir=tmp_path)
    assert rep.passed
    thresholds = {c.name: c.threshold for c in rep.checks}
    assert thresholds["on-cone-curvature-deviation"] == 1e-3
    csv = (tmp_path / "profile_densities.csv").read_text()
    assert csv.startswith("x2,density_t0,density_t1")
