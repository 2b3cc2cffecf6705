"""CLI subcommands, determinism, exit codes."""

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from engellab import algebra, cli, dispersion, spectral, wavepacket
from engellab.algebra import GroupElement, LieVector, bracket, exp_to_semidirect, multiply
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
    assert payload["metrics"]["x2x3_serialized"] == "1 * X1^0 X2^1 X3^1 X4^0"


def _broken_product_sign(x, y):
    # the -x1 x2 y1 / 2 term of x4 with its sign flipped
    g = multiply(x, y)
    return GroupElement(g.x1, g.x2, g.x3, g.x4 + x.x1 * x.x2 * y.x1)


def _broken_product_x3(x, y):
    # x3 without its -x2 y1 term
    g = multiply(x, y)
    return GroupElement(g.x1, g.x2, g.x3 + x.x2 * y.x1, g.x4)


def _broken_bracket(u, v):
    # [u, v]_3 without its -u2 v1 term
    b = bracket(u, v)
    return LieVector(b.v1, b.v2, b.v3 + u.v2 * v.v1, b.v4)


def _broken_bch(v):
    # 1/6 in place of the 1/12 of the triple-bracket term
    g = exp_to_semidirect(v)
    return GroupElement(g.x1, g.x2, g.x3, g.x4 - Fraction(1, 12) * v.v1 * v.v1 * v.v2)


@pytest.mark.parametrize("name, broken, check", [
    ("multiply", _broken_product_sign, "associativity-nonzero-terms"),
    ("multiply", _broken_product_x3, "associativity-nonzero-terms"),
    ("bracket", _broken_bracket, "jacobi-nonzero-terms"),
    ("exp_to_semidirect", _broken_bch, "bch-roundtrip-nonzero-terms"),
])
def test_identities_catch_a_broken_law(monkeypatch, name, broken, check):
    monkeypatch.setattr(algebra, name, broken)
    rep = cli.run_identities({"trials": 0}, seed=0)
    assert {c.name: c.value for c in rep.checks}[check] > 0
    assert not rep.passed


def _recording_normal_form(monkeypatch, perturb=lambda nf: nf):
    """Words that run_identities puts to algebra.pbw_normal_form, in order."""
    words, normal_form = [], algebra.pbw_normal_form

    def recording(word, coeff=1):
        words.append(list(word))
        return perturb(normal_form(word, coeff))

    monkeypatch.setattr(algebra, "pbw_normal_form", recording)
    return words


@pytest.mark.parametrize("trials", [0, 1, 37, 2000])
def test_identities_draw_trials_words_of_length_2_to_6(monkeypatch, trials):
    words = _recording_normal_form(monkeypatch)
    rep = cli.run_identities({"trials": trials}, seed=11)
    assert rep.passed
    assert len(words) == trials
    assert all(2 <= len(w) <= 6 and set(w) <= {1, 2, 3, 4} for w in words)
    if trials == 2000:  # the whole law shows
        assert {len(w) for w in words} == {2, 3, 4, 5, 6}
        assert set().union(*words) == {1, 2, 3, 4}


def test_identities_catch_a_perturbed_normal_form(monkeypatch):
    # every word's normal form is nonzero, so doubling it fails each trial
    words = _recording_normal_form(monkeypatch, lambda nf: nf.scale(2))
    rep = cli.run_identities({"trials": 25}, seed=11)
    assert {c.name: c.value for c in rep.checks}["pbw-confluence-failures"] == 25
    assert len(words) == 25
    assert not rep.passed


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
    # the report names its files relative to --out, so it is reproducible too
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
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


def test_dispersion_sweep_stops_at_nu_max(tmp_path):
    # a step that does not divide the span: the rows stop at the last node
    # <= nu_max, not at 0.12; spans that are a whole number of steps to
    # rounding keep their last node
    rep = run("dispersion", {"n_list": [1], "nu_min": 0, "nu_max": 0.1, "nu_step": 0.06},
              out_dir=tmp_path)
    assert [row[2] for row in _branch_rows(tmp_path)] == [0.0, 0.06]
    assert rep.metrics["rows"] == 2
    for nu_min, nu_max, step in ((-4.0, 4.0, 0.05), (-6.0, 6.0, 0.05), (-0.2, 0.2, 0.1),
                                 (0.0, 0.3, 0.1)):
        nus = run("dispersion", {"n_list": [1], "nu_min": nu_min, "nu_max": nu_max,
                                 "nu_step": step}).files["branches.csv"].splitlines()[1:]
        assert len(nus) == round((nu_max - nu_min) / step) + 1
        assert abs(float(nus[-1].split(",")[2]) - nu_max) <= 1e-12


def test_branch_csv_columns(tmp_path):
    # a Hermite row has no grid, so the grid columns are gone
    run("dispersion", {"n_list": [1], "nu_min": 0.0, "nu_max": 0.5, "nu_step": 0.5,
                       "grid_n": 1024}, out_dir=tmp_path)
    header, *rows = (tmp_path / "branches.csv").read_text().strip().split("\n")
    assert header == "n,delta,beta,mu,dmu_dbeta,d2mu_dbeta2"
    assert len(rows) == 2
    assert rows[0].startswith("1,1,0,")


def _branch_rows(path):
    return [tuple(float(f) for f in line.split(","))
            for line in (path / "branches.csv").read_text().strip().split("\n")[1:]]


def test_branch_rows_are_montgomery_branch(tmp_path):
    # every row is montgomery_branch's at delta = 1, bit for bit, with the
    # rows n-ascending, then nu-ascending, whatever the n_list order
    cfg = {"n_list": [3, 1, 2], "nu_min": -1.0, "nu_max": 1.0, "nu_step": 0.25}
    rep = run("dispersion", cfg, out_dir=tmp_path)
    assert rep.passed
    rows = _branch_rows(tmp_path)
    assert [(r[0], r[2]) for r in rows] == [(n, -1.0 + 0.25 * k) for n in (1, 2, 3)
                                           for k in range(9)]
    for n, delta, nu, *values in rows:
        assert delta == 1.0
        assert tuple(values) == dispersion.montgomery_branch(int(n), nu)


def test_branch_csv_does_not_depend_on_grid_n(tmp_path):
    cfg = {"n_list": [1, 2, 3, 4], "nu_min": -4.0, "nu_max": 4.0, "nu_step": 0.05}
    for N in (1024, 2048):
        assert run("dispersion", {**cfg, "grid_n": N}, out_dir=tmp_path / str(N)).passed
    assert ((tmp_path / "1024" / "branches.csv").read_bytes()
            == (tmp_path / "2048" / "branches.csv").read_bytes())


@pytest.mark.parametrize("N", [512, 1024, 2048, 2049])
@pytest.mark.parametrize("cfg", [
    # the CI sweep (the default), the sweeps of the tests, and a high mode
    # across both wells and the harmonic side
    {},
    {"n_list": [1, 2], "nu_min": -0.2, "nu_max": 0.2, "nu_step": 0.1},
    {"n_list": [1], "nu_min": 0.0, "nu_max": 0.5, "nu_step": 0.5},
    {"n_list": [12], "nu_min": -6.0, "nu_max": 6.0, "nu_step": 6.0},
], ids=["default", "tests", "one-branch", "n12"])
def test_fd_agreement_passes(cfg, N):
    rep = run("dispersion", {**cfg, "grid_n": N})
    check = {c.name: c for c in rep.checks}["fd-agreement"]
    assert check.passed and check.value == rep.metrics["fd_deviation"]
    # an O(h^2) deviation, not a zero one: the check solves its own grid
    assert 0.0 < check.value < check.threshold == 0.5


def _shift(n, nu, N, mu):
    """Twice the fd-agreement bound, in its units at mode n, nu and N."""
    h = spectral.box_grid(spectral.Generic(1.0, nu), n + 1, N).h
    return 2.0 * cli._FD_DEVIATION_BOUND * h * h * max(1.0, mu) ** 2


def test_fd_agreement_fails_on_a_shifted_fd_curvature(monkeypatch):
    def shifted(delta, beta, n, N):
        d = real(delta, beta, n, N=N)
        return replace(d, mu_d2=d.mu_d2 + _shift(n, beta, N, d.mu))

    real = spectral.spectral_data
    monkeypatch.setattr(spectral, "spectral_data", shifted)
    rep = run("dispersion", {"n_list": [1, 2], "nu_min": -0.2, "nu_max": 0.2,
                             "nu_step": 0.1, "grid_n": 512})
    assert [c.name for c in rep.checks if not c.passed] == ["fd-agreement"]


def test_fd_agreement_fails_on_a_perturbed_branch_row(monkeypatch):
    # only the first row of the branch is perturbed: the check reads the
    # rows it writes
    def perturbed(n, nus):
        return [(mu, d1, d2 + (_shift(n, nu, 512, mu) if nu == -0.2 else 0.0))
                for nu, (mu, d1, d2) in zip(nus, real(n, nus))]

    real = dispersion._branch_rows
    monkeypatch.setattr(dispersion, "_branch_rows", perturbed)
    rep = run("dispersion", {"n_list": [1], "nu_min": -0.2, "nu_max": 0.2,
                             "nu_step": 0.1, "grid_n": 512})
    assert [c.name for c in rep.checks if not c.passed] == ["fd-agreement"]


# cheap configs of every subcommand that writes a data file, and the files
CSV_RUNS = [
    ("dispersion", {"n_list": [1, 2], "nu_min": -0.2, "nu_max": 0.2, "nu_step": 0.2,
                    "grid_n": 512}, ["branches.csv"]),
    ("residual-scaling", {}, ["residual_scaling_full.csv", "residual_scaling_sigma1.csv"]),
    ("transport", {"hbar_ladder": [0.05, 0.025]}, ["transport.csv"]),
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


def _run_at_seeds_0_and_7(tmp_path, subcommand):
    """The two --out trees of a run at the defaults, seeds 0 and 7, and the
    last report."""
    for seed in (0, 7):
        rep = run(subcommand, {}, out_dir=tmp_path / f"s{seed}" / "out", seed=seed)
        assert rep.passed
    return [tmp_path / f"s{seed}" / "out" for seed in (0, 7)], rep


def test_residual_scaling_output_independent_of_seed(tmp_path):
    # exact fibre integrals, no sampling: the out tree is the same for every seed
    (a, b), rep = _run_at_seeds_0_and_7(tmp_path, "residual-scaling")
    for name in ("report.json", "residual_scaling_full.csv", "residual_scaling_sigma1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for name in ("residual_scaling_full.csv", "residual_scaling_sigma1.csv"):
        assert (a / name).read_text().split("\n", 1)[0] == "hbar,residual"
    assert "sampling_health" not in rep.metrics


def test_negative_seed_is_refused(tmp_path):
    # numpy's generator raised its own ValueError from inside identities
    with pytest.raises(cli.ConfigError, match="identities: seed must be an integer >= 0, got -1"):
        run("identities", {}, out_dir=tmp_path, seed=-1)
    assert not any(tmp_path.iterdir())


def test_transport_empty_ladder_errors():
    with pytest.raises(ValueError, match="hbar"):
        run("transport", {"hbar_ladder": []}, seed=3)


def test_transport_accepts_a_repeated_hbar():
    # only residual-scaling fits a slope over the ladder, so only it needs
    # distinct values
    rep = run("transport", {"hbar_ladder": [0.05, 0.05]})
    assert rep.passed
    assert [r["hbar"] for r in rep.metrics["mass_ratio"]] == [0.05, 0.05]


def test_transport_output_independent_of_seed(tmp_path):
    # exact moments, no sampling: the out tree is the same for every seed
    (a, b), rep = _run_at_seeds_0_and_7(tmp_path, "transport")
    for name in ("report.json", "transport.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ratios = [r["mass_ratio"] for r in rep.metrics["mass_ratio"]]
    # the sigma_1 correction adds O(hbar) to the leading closed-form mass
    assert ratios == pytest.approx([1.0048, 1.0023, 1.0011], abs=1e-4)
    assert "sampling_health" not in rep.metrics


def test_transport_picks_its_check_by_drift_against_width():
    # on the n = 1 cone the drift is 6.7e-9 against a width of 0.143: well
    # inside the stationary gate's 0.02 of the width, so that gate runs; at
    # the defaults the drift is 0.287 against 0.156 and the drift is checked
    for config, name in (({"beta0": -0.3467583952}, "stationary-centroid-vs-width"),
                         ({}, "drift-relative-error")):
        rep = run("transport", config, seed=0)
        assert [c.name for c in rep.checks] == [name]
        assert rep.passed


def test_transport_gates_its_smallest_hbar():
    # the gate reads the row of the smallest hbar wherever the ladder puts
    # it: gating the last row read 0.025 of the drift on [0.0125, 0.05, 0.4]
    # and 2.6e-5 on [0.4, 0.05, 0.0125]
    checks = [run("transport", {"beta0": 0.7, "hbar_ladder": ladder}).checks
              for ladder in ([0.4, 0.05, 0.0125], [0.0125, 0.05, 0.4], [0.05, 0.0125, 0.4])]
    assert checks[0] == checks[1] == checks[2]
    assert [c.name for c in checks[0]] == ["drift-relative-error"]
    assert checks[0][0].value <= 1e-4


@pytest.mark.parametrize("subcommand, config, unknown", [
    ("transport", {"hbar": 0.02}, "hbar"),
    ("residual-scaling", {"sample_cont": 300, "hbar_ladder": [0.1]}, "sample_cont"),
    ("smicro-profile", {"tol": 1e9, "grid_n": 2048}, "tol"),
    ("strichartz", {"q": 2, "p": 2.8, "alpha": 1, "beta": 2}, "alpha, beta"),
    # transport integrates exactly and no longer samples
    ("transport", {"sample_count": 500}, "sample_count"),
    # nor does residual-scaling
    ("residual-scaling", {"sample_count": 500}, "sample_count"),
    # plancherel integrates beta and delta over the whole line
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
               "kernels": {"kernels": [{"centers": [0, 0, 0, 0], "widths": [1, 1, 1, 1]},
                                       {"centers": [0, 0, 0, 0], "widths": [1, 1, 1, 1]}]},
               "zero-step": {"nu_step": 0}, "minus-step": {"nu_step": -0.1},
               "nan-step": {"nu_step": float("nan")}, "inf-min": {"nu_min": float("-inf")},
               "zero-delta": {"delta_list": [0.5, 0.0]}, "grid-l": {"grid_l": 12.0},
               "zero-delta0": {"delta0": 0}, "zero-mode": {"n_list": [0]},
               "half-mode": {"n_list": [1, 1.5]}, "int-modes": {"n_list": 3},
               "text-grid": {"grid_n": "abc"}, "text-nu": {"nu_min": "x"},
               "text-n": {"n": "a"}, "text-trials": {"trials": "many"},
               "text-t": {"t": "x"}, "int-x0": {"x0": 3},
               "half-grid": {"grid_n": 2048.9}, "half-n": {"n": 1.5},
               "half-trials": {"trials": 40.5}, "inf-grid": {"grid_n": float("inf")},
               "half-packet-n": {"n": 2.5}, "tol": {"tol": 1e-8}, "list": [1, 2]}
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    (tmp_path / "bad.json").write_text("{bad")
    for argv, message in (
        # a config file that is missing, not JSON or not a JSON object was a
        # traceback with exit 1
        (["critical-points", "--config", str(tmp_path / "missing.json")],
         f"--config {tmp_path / 'missing.json'}: No such file or directory"),
        (["critical-points", "--config", str(tmp_path / "bad.json")],
         f"--config {tmp_path / 'bad.json'}: not a JSON file: "
         "Expecting property name enclosed in double quotes"),
        (["critical-points", "--config", str(tmp_path / "list.json")],
         f"--config {tmp_path / 'list.json'}: must hold a JSON object, got a list"),
        (["strichartz", "--q", "2", "--p", "2.8", "--grid-n", "512"],
         "strichartz does not read config key(s) grid_n;"),
        (["dispersion", "--config", str(tmp_path / "empty.json")],
         "dispersion: n_list must be a list of length >= 1 of integers >= 1, got []"),
        # the Newton tolerance is a constant of the library: no flag or key sets it
        (["critical-points", "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
        (["critical-points", "--config", str(tmp_path / "tol.json")],
         "critical-points does not read config key(s) tol; it reads n, scan"),
        # numpy's generator refuses a negative seed with a traceback
        (["identities", "--seed", "-1"], "identities: seed must be an integer >= 0, got -1"),
        # bad hbar ladders are refused before any work: the reader checks
        # the entries are finite numbers, the library the rest
        (["residual-scaling", "--hbar-ladder", "0.1,0.05"],
         "residual-scaling: need 4 or more distinct hbar values, got [0.1, 0.05]"),
        (["residual-scaling", "--hbar-ladder", "0.1,x,0.025,0.0125"],
         "argument --hbar-ladder: expected comma-separated numbers, got '0.1,x,0.025,0.0125'"),
        (["transport", "--hbar-ladder", ""],
         "argument --hbar-ladder: expected comma-separated numbers, got ''"),
        (["transport", "--config", str(tmp_path / "no-hbar.json")],
         "transport: hbar_ladder must be a list of length >= 1 of finite numbers, got []"),
        (["transport", "--config", str(tmp_path / "text-hbar.json")],
         "transport: hbar_ladder must be a list of length >= 1 of finite numbers, "
         "got ['0.05', 'a']"),
        (["identities", "--config", str(tmp_path / "minus-trials.json")],
         "identities: trials must be an integer >= 0, got -1"),
        # the Gaussian kernels are fixed: plancherel reads no keys
        (["plancherel", "--config", str(tmp_path / "kernels.json")],
         "plancherel does not read config key(s) kernels; it reads no keys"),
        # a sweep step that is not finite and positive, or an infinite end
        (["dispersion", "--config", str(tmp_path / "zero-step.json")],
         "dispersion: nu_step must be > 0, got 0.0"),
        (["dispersion", "--config", str(tmp_path / "minus-step.json")],
         "dispersion: nu_step must be > 0, got -0.1"),
        (["dispersion", "--config", str(tmp_path / "nan-step.json")],
         "dispersion: nu_step must be a finite number, got nan"),
        (["dispersion", "--config", str(tmp_path / "inf-min.json")],
         "dispersion: nu_min must be a finite number, got -inf"),
        # modes and grids the sweep cannot solve, refused before any work
        (["dispersion", "--config", str(tmp_path / "zero-mode.json")],
         "dispersion: n_list must be a list of length >= 1 of integers >= 1, got [0]"),
        (["dispersion", "--config", str(tmp_path / "half-mode.json")],
         "dispersion: n_list must be a list of length >= 1 of integers >= 1, got [1, 1.5]"),
        (["dispersion", "--grid-n", "2"], "dispersion: grid_n must be an integer >= 3, got 2"),
        # config values of the wrong kind
        (["dispersion", "--config", str(tmp_path / "int-modes.json")],
         "dispersion: n_list must be a list of length >= 1 of integers >= 1, got 3"),
        (["dispersion", "--config", str(tmp_path / "text-grid.json")],
         "dispersion: grid_n must be an integer >= 3, got 'abc'"),
        (["dispersion", "--config", str(tmp_path / "text-nu.json")],
         "dispersion: nu_min must be a finite number, got 'x'"),
        (["critical-points", "--config", str(tmp_path / "text-n.json")],
         "critical-points: n must be an integer, got 'a'"),
        (["identities", "--config", str(tmp_path / "text-trials.json")],
         "identities: trials must be an integer >= 0, got 'many'"),
        (["transport", "--config", str(tmp_path / "int-x0.json")],
         "transport: x0 must be a list of numbers, got 3"),
        (["transport", "--config", str(tmp_path / "text-t.json")],
         "transport: t must be a finite number, got 'x'"),
        # counts with a fractional part, which int() would truncate
        (["dispersion", "--config", str(tmp_path / "half-grid.json")],
         "dispersion: grid_n must be an integer >= 3, got 2048.9"),
        (["critical-points", "--config", str(tmp_path / "half-n.json")],
         "critical-points: n must be an integer, got 1.5"),
        (["identities", "--config", str(tmp_path / "half-trials.json")],
         "identities: trials must be an integer >= 0, got 40.5"),
        (["smicro-profile", "--config", str(tmp_path / "inf-grid.json")],
         "smicro-profile: grid_n must be an integer, got inf"),
        (["residual-scaling", "--config", str(tmp_path / "half-packet-n.json")],
         "residual-scaling: n must be an integer, got 2.5"),
        # arguments the library refuses
        (["smicro-profile", "--n", "0"],
         "smicro-profile: need n >= 1 and a finite nu, got n = 0, nu = -4.0"),
        (["residual-scaling", "--n", "0"],
         "residual-scaling: a packet needs n >= 1, a finite delta0 != 0 and a finite beta0, "
         "got n = 0, delta0 = 1.0, beta0 = 0.0"),
        (["transport", "--config", str(tmp_path / "zero-delta0.json")],
         "transport: a packet needs n >= 1, a finite delta0 != 0 and a finite beta0, "
         "got n = 1, delta0 = 0.0, beta0 = 0.0"),
        (["smicro-profile", "--grid-n", "2"], "smicro-profile: need at least 3 grid nodes"),
        (["smicro-profile", "--n", "16"], "smicro-profile: mode 16 has no critical point on [-4, 4]"),
        (["smicro-profile", "--config", str(tmp_path / "zero-delta.json")],
         "smicro-profile: Generic requires delta != 0"),
        (["strichartz", "--p", "abc"], "strichartz: Invalid literal for Fraction: 'abc'"),
        (["strichartz", "--p", "1/0"], "strichartz: exponent '1/0' has a zero denominator"),
        (["strichartz", "--q", "1"], "strichartz: exponent q = 1 below 2"),
        # critical points and the packet are solved on Hermite functions,
        # with no grid
        (["critical-points", "--grid-n", "512"],
         "critical-points does not read config key(s) grid_n;"),
        (["residual-scaling", "--grid-n", "512"],
         "residual-scaling does not read config key(s) grid_n;"),
        (["transport", "--config", str(tmp_path / "grid-l.json")],
         "transport does not read config key(s) grid_l;"),
        (["transport", "--grid-l", "12"], "unrecognized arguments: --grid-l 12"),
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
    monkeypatch.setitem(cli._RUNNERS, "strichartz", cli._reads()(broken))
    with pytest.raises(ValueError, match="a fault"):
        main(["strichartz"])


def test_runners_declare_the_keys_they_read():
    # a runner reads only its converted cfg, every declared key and no other
    for name, runner in cli._RUNNERS.items():
        src = inspect.getsource(runner)
        if "_spec, cfg" in src:
            src += inspect.getsource(cli._spec)
        assert "cfg.get" not in src and " in cfg" not in src, name
        assert set(re.findall(r'cfg\["(\w+)"\]', src)) == set(runner.declared), name


def test_declared_defaults_pass_their_converters():
    for name, runner in cli._RUNNERS.items():
        for key, (default, convert) in runner.declared.items():
            try:
                convert(default)
            except (TypeError, ValueError) as err:
                pytest.fail(f"{name}: default {key} = {default!r} refused: {err}")


def _defaults(subcommand):
    return {key: default for key, (default, _) in cli._RUNNERS[subcommand].declared.items()}


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_explicit_defaults_run_as_the_empty_config(subcommand):
    # the declared defaults are the ones the runner uses: writing them all out
    # changes no data file, check or metric
    implicit = run(subcommand, {})
    explicit = run(subcommand, _defaults(subcommand))
    assert implicit.files == explicit.files
    assert [c.to_dict() for c in implicit.checks] == [c.to_dict() for c in explicit.checks]
    assert (json.dumps(implicit.metrics, sort_keys=True)
            == json.dumps(explicit.metrics, sort_keys=True))
    assert implicit.config == {} and explicit.config == _defaults(subcommand)


def test_readme_tables_match_the_declared_keys():
    # README's `## CLI` has one table per subcommand: key, default and what
    # the key must be; a subcommand that reads no keys says so in its place
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables = {sub: {cells[0].strip("` "): json.loads(cells[1].strip("` "))
                    for cells in (row.split("|")[1:] for row in body.splitlines())}
              for sub, body in re.findall(
                  r"^#### `([\w-]+)`\n\n(?:\| key \| default \| must be \|\n\|[-|]+\|\n"
                  r"((?:\|.*\n)+)|It reads no keys\b)", readme, re.M)}
    assert tables == {sub: _defaults(sub) for sub in cli.SUBCOMMANDS}


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
                assert set(exp.config) <= set(cli._RUNNERS[exp.subcommand].declared), exp.exp_id
                sent |= set(exp.config)
    assert {"n_list", "nu_step", "grid_n", "n", "trials", "q", "p", "expect"} <= sent


# main's flags, the config key each sets and the subcommands that read it
MAIN_FLAGS = [
    (["--n", "2"], "n", ("residual-scaling", "critical-points", "smicro-profile", "transport")),
    (["--q", "4", "--p", "7/3"], "p", ("strichartz",)),
    (["--grid-n", "512"], "grid_n", ("smicro-profile", "dispersion")),
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
        name: cli._reads(**{key: (None, cli._as_given) for key in runner.declared})(
            lambda cfg, seed, name=name: cli.RunReport(name))
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


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_out_tree_does_not_depend_on_the_out_path(tmp_path, subcommand):
    # report.json names its data files relative to --out: two --out paths of
    # different depth get the same files, byte for byte
    config = {"q": "2", "p": "2.8"} if subcommand == "strichartz" else {}
    trees = []
    for out in (tmp_path / "a" / "out", tmp_path / "b" / "deep" / "out"):
        run(subcommand, config, out_dir=out)
        trees.append({str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*")})
    assert trees[0] == trees[1]
    outputs = json.loads(trees[0]["report.json"])["outputs"]
    assert outputs == sorted(set(trees[0]) - {"report.json"})


def test_critical_points_cli(tmp_path):
    rep = run("critical-points", {"n": 1, "scan": [-1.0, 0.5]}, out_dir=tmp_path)
    assert rep.passed
    assert len(rep.metrics["reports"]) == 1
    assert rep.metrics["reports"][0]["curvature"] > 0


def test_smicro_profile_cli(tmp_path):
    # the check thresholds are fixed; "tol" is refused
    # (test_unknown_config_keys_rejected)
    rep = run("smicro-profile", {"grid_n": 2048, "delta_list": [1.0, 2.0]}, out_dir=tmp_path)
    assert rep.passed
    thresholds = {c.name: c.threshold for c in rep.checks}
    assert thresholds == {"effective-mass-readback": 1e-4, "on-cone-curvature-deviation": 1e-3}
    readback = rep.metrics["mass_readback"]
    assert readback["coefficient"] == 0.5 * rep.metrics["critical_point"]["curvature"]
    # the finite-difference on-cone speed, 3.7e-7 at n = 1
    assert rep.metrics["max_on_cone_d1"] <= 1e-5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_smicro_profile_checks_the_certified_curvature(monkeypatch):
    # the on-cone curvature is checked against the critical point's: one
    # whose curvature is off by 2e-3 fails that check and no other
    certified = dispersion.critical_points

    def shifted(*args, **kwargs):
        return [replace(r, curvature=r.curvature + 2e-3) for r in certified(*args, **kwargs)]

    monkeypatch.setattr(dispersion, "critical_points", shifted)
    rep = run("smicro-profile", {"grid_n": 2048, "delta_list": [1.0, 2.0]})
    assert {c.name: c.passed for c in rep.checks} == {
        "effective-mass-readback": True, "on-cone-curvature-deviation": False}


LADDER = "{sub}: hbar_ladder must be a list of length >= 1 of finite numbers, got "
HBAR = "{sub}: every hbar must be finite and > 0, got hbar = "

WIDTH = ("{{sub}}: t = {t} with profile.width2 = {w} disperses the profile to a y2 width "
         "of inf, not a finite number > 0")

PACKET_REFUSALS = [
    ({"x0": [0, 0, 0]}, "{sub}: a packet needs x0 of 4 finite numbers, got (0.0, 0.0, 0.0)"),
    ({"x0": ["a", 0, 0, 0]}, "{sub}: x0 must be a list of numbers, got ['a', 0, 0, 0]"),
    ({"x0": [0, float("nan"), 0, 0]},
     "{sub}: a packet needs x0 of 4 finite numbers, got (0.0, nan, 0.0, 0.0)"),
    ({"profile_width2": -1}, "{sub}: a packet needs finite profile widths > 0, "
     "got profile.width2 = -1.0, profile.width4 = 0.8"),
    ({"profile_width4": 0}, "{sub}: a packet needs finite profile widths > 0, "
     "got profile.width2 = 0.45, profile.width4 = 0.0"),
    ({"profile_width2": float("inf")}, "{sub}: a packet needs finite profile widths > 0, "
     "got profile.width2 = inf, profile.width4 = 0.8"),
    ({"hbar_ladder": [0.1, 0.05, 0.025, 0]}, HBAR + "0.0"),
    ({"hbar_ladder": [0.1, 0.05, 0.025, -0.0125]}, HBAR + "-0.0125"),
    ({"hbar_ladder": [0.1, 0.05, 0.025, float("nan")]}, LADDER + "[0.1, 0.05, 0.025, nan]"),
    ({"t": float("nan")}, "{sub}: t must be a finite number, got nan"),
    ({"t": float("inf")}, "{sub}: t must be a finite number, got inf"),
    # a finite t (or width) whose dispersed width overflows was an
    # OverflowError traceback
    ({"t": 1e155}, WIDTH.format(t="1e+155", w="0.45")),
    ({"t": 1e200}, WIDTH.format(t="1e+200", w="0.45")),
    ({"t": 1e300}, WIDTH.format(t="1e+300", w="0.45")),
    ({"profile_width2": 1e200, "t": 0.5}, WIDTH.format(t="0.5", w="1e+200")),
    # a JSON boolean is not the number 1 or 0
    ({"t": True}, "{sub}: t must be a finite number, got True"),
    ({"n": True}, "{sub}: n must be an integer, got True"),
    ({"x0": [False, 0, 0, 0]}, "{sub}: x0 must be a list of numbers, got [False, 0, 0, 0]"),
]

SCAN = "critical-points: scan must be a list of length 2 of finite numbers, got "
DELTAS = "smicro-profile: delta_list must be a list of length >= 1 of finite numbers, got "

MALFORMED = [
    ("critical-points", {"scan": [1]}, SCAN + "[1]"),
    ("critical-points", {"scan": [-4, 4, 9]}, SCAN + "[-4, 4, 9]"),
    ("critical-points", {"scan": [-4, "a"]}, SCAN + "[-4, 'a']"),
    ("critical-points", {"scan": [-4, float("inf")]}, SCAN + "[-4, inf]"),
    ("smicro-profile", {"delta_list": 5}, DELTAS + "5"),
    ("smicro-profile", {"delta_list": []}, DELTAS + "[]"),
    ("smicro-profile", {"delta_list": [1.0, float("nan")]}, DELTAS + "[1.0, nan]"),
    # smicro-profile evolves no profile, so it reads no times
    ("smicro-profile", {"times": [0.0, 1.0]}, "smicro-profile does not read config key(s) times;"),
    # a repeated branch wrote its rows twice
    ("dispersion", {"n_list": [1, 1], "nu_min": 0, "nu_max": 0.1, "nu_step": 0.1},
     "dispersion: n_list must not repeat an entry, got [1, 1]"),
    # a slope fitted through one abscissa
    ("residual-scaling", {"hbar_ladder": [0.05, 0.05, 0.05, 0.05]},
     "residual-scaling: need 4 or more distinct hbar values, got [0.05, 0.05, 0.05, 0.05]"),
    # a misspelt verdict would fail classification-matches, not be refused
    ("strichartz", {"q": 2, "p": 2.8, "expect": "alowed"},
     "strichartz: expect must be one of allowed, admissible-but-obstructed, not-admissible, "
     "got 'alowed'"),
    # an exponent that is not a number or a string was a TypeError traceback
    ("strichartz", {"q": [2]},
     'strichartz: q must be a number, a fraction such as "7/3" or "inf", got [2]'),
    # a JSON boolean ran as the number 1: mode 1, t = 1 and hbar = 1
    ("critical-points", {"n": True}, "critical-points: n must be an integer, got True"),
    ("residual-scaling", {"t": True, "hbar_ladder": [True, 0.05, 0.025, 0.0125]},
     "residual-scaling: hbar_ladder must be a list of length >= 1 of finite numbers, "
     "got [True, 0.05, 0.025, 0.0125]"),
    ("dispersion", {"n_list": [True]},
     "dispersion: n_list must be a list of length >= 1 of integers >= 1, got [True]"),
    ("strichartz", {"q": True},
     'strichartz: q must be a number, a fraction such as "7/3" or "inf", got True'),
    # a numeric string ran as its number: mode 3, t = 0.1, 2048 nodes and
    # hbar = 0.1; the root tolerance is a library constant, read from no key
    ("critical-points", {"n": "3"}, "critical-points: n must be an integer, got '3'"),
    ("critical-points", {"tol": "nan"}, "critical-points does not read config key(s) tol;"),
    ("residual-scaling", {"t": "0.1"}, "residual-scaling: t must be a finite number, got '0.1'"),
    ("dispersion", {"grid_n": "2048"}, "dispersion: grid_n must be an integer >= 3, got '2048'"),
    ("residual-scaling", {"hbar_ladder": ["0.1", 0.05, 0.025, 0.0125]},
     "residual-scaling: hbar_ladder must be a list of length >= 1 of finite numbers, "
     "got ['0.1', 0.05, 0.025, 0.0125]"),
] + [(sub, config, message.format(sub=sub))
     for sub in ("residual-scaling", "transport") for config, message in PACKET_REFUSALS]


def test_lost_precision_is_a_usage_error(capsys, monkeypatch):
    # a negative sigma_2 Gram sum of the packet ended in a math domain error
    # traceback with exit 1; the sigma_2 order's psi and r densities are the
    # last two of residual's six
    fibre_densities = wavepacket._fibre_densities

    def negated(m, pair_maps):
        return [-d if k >= 4 else d for k, d in enumerate(fibre_densities(m, pair_maps))]

    monkeypatch.setattr(wavepacket, "_fibre_densities", negated)
    with pytest.raises(SystemExit) as exc:
        main(["residual-scaling"])
    assert exc.value.code == 2
    assert re.search(r"error: residual-scaling: the sigma2 order's \|\|(psi|r)\|\|\^2 Gram sum "
                     r"is -\S+ < 0 at hbar = 0\.1: its correctors lost precision",
                     capsys.readouterr().err)


def test_negative_transport_mass_is_a_usage_error(capsys, monkeypatch):
    # transport's moments go through the same Gram-sum check as the residual
    fibre_densities = wavepacket._fibre_densities

    def negated(m, pair_maps):
        return [-d for d in fibre_densities(m, pair_maps)]

    monkeypatch.setattr(wavepacket, "_fibre_densities", negated)
    with pytest.raises(SystemExit) as exc:
        main(["transport"])
    assert exc.value.code == 2
    assert re.search(r"error: transport: the sigma1 order's mass Gram sum is -\S+ < 0 "
                     r"at hbar = 0\.05: its correctors lost precision", capsys.readouterr().err)


@pytest.mark.parametrize("subcommand, config", [
    *(pytest.param(sub, {"t": t}, id=f"{sub}-{t}")
      for sub in ("residual-scaling", "transport") for t in (1e40, 1e80, 1e100, 1e153)
      if (sub, t) != ("transport", 1e40)),
    pytest.param("residual-scaling", {"beta0": 1e100}, id="residual-scaling-beta0=1e+100")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gram_sum_is_a_usage_error(tmp_path, capsys, subcommand, config):
    # at a large finite t the fibre sums overflow: residual-scaling printed
    # NaN slopes from t = 1e40, and transport PASSed its stationary gate at
    # 1e80 and 1e100 by dividing by an infinite width, then printed NaN; the
    # residual of the packet at beta0 = 1e100 overflows at the default t.
    # numpy's overflow warnings came before the refusal
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", str(path)])
    assert exc.value.code == 2
    t = config.get("t", 0.1)
    assert re.search(rf"error: {subcommand}: the \w+ order's .+ Gram sum is (inf|nan) "
                     rf"at t = {re.escape(str(t))}, hbar = \S+: the fibre sums overflowed",
                     capsys.readouterr().err)


@pytest.mark.parametrize("subcommand", ["residual-scaling", "transport"])
@pytest.mark.parametrize("beta0", [1e150, 1e155, 1e300])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_packet_is_a_usage_error(tmp_path, capsys, subcommand, beta0):
    # from beta0 = 1e155 on mu is inf, and at 1e150 mu V overflows in the
    # carrier's images: transport PASSed its drift gate on them, and
    # residual-scaling refused only at a NaN Gram sum, after numpy's warnings
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"beta0": beta0}))
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", str(path)])
    assert exc.value.code == 2
    assert (f"error: {subcommand}: the packet at delta0 = 1.0, beta0 = {beta0}, n = 1 "
            "overflowed: (mu, mu', mu'') or an image of its carrier is not finite"
            in capsys.readouterr().err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transport_answers_beta0_1e100():
    # the packet at beta0 = 1e100 is finite: transport checks its drift
    checks = run("transport", {"beta0": 1e100}).checks
    assert [(c.name, c.passed) for c in checks] == [("drift-relative-error", True)]


def test_transport_moments_stay_finite_at_1e40():
    # transport's moments overflow only from t = 1e80 on: at 1e40 it checks
    # the drift, with a finite value, as at t = 1e35
    checks = run("transport", {"t": 1e40}).checks
    assert [c.name for c in checks] == ["drift-relative-error"]
    assert checks[0].value == pytest.approx(run("transport", {"t": 1e35}).checks[0].value)


@pytest.mark.parametrize("subcommand, config, message", MALFORMED,
                         ids=[f"{sub}-{json.dumps(c)}" for sub, c, _ in MALFORMED])
def test_malformed_configs_are_usage_errors(tmp_path, capsys, subcommand, config, message):
    # refused before any work, naming the bad key, where they used to end in
    # a traceback, fail a check, or pass with an extra scan entry dropped
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", str(path)])
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err

