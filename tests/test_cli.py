"""CLI subcommands, determinism, exit codes."""

import json

import pytest

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


def test_dispersion_empty_grid_errors():
    with pytest.raises(ValueError):
        run("dispersion", {"n_list": [], "nu_min": 0, "nu_max": 1})
    with pytest.raises(ValueError):
        run("dispersion", {"n_list": [1], "nu_min": 1.0, "nu_max": 0.0})


def test_residual_scaling_seeded_determinism(tmp_path):
    cfg = {"sample_count": 300, "hbar_ladder": [0.1, 0.05, 0.025, 0.0125]}
    a, b = tmp_path / "a", tmp_path / "b"
    run("residual-scaling", cfg, out_dir=a, seed=5)
    run("residual-scaling", cfg, out_dir=b, seed=5)
    for name in ("residual_scaling_full.csv", "residual_scaling_sigma1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        header = (a / name).read_text().split("\n", 1)[0]
        assert header == "hbar,residual,sampling_error"


def test_transport_empty_ladder_errors():
    # a config "hbar" key sets nothing, so an empty ladder has no hbar to run
    with pytest.raises(ValueError, match="hbar"):
        run("transport", {"sample_count": 500, "hbar_ladder": [], "hbar": 0.02}, seed=3)


# Kish ESS/N, largest weight share and clipped z1 draws per hbar at the CLI
# defaults, seed 0; ESS/N and the share also follow from ansatz_values on the
# same draws, so reporting them moved no sample or weight
SAMPLING_HEALTH = {
    "residual-scaling": [
        (0.1, 0.345721965915485, 0.0007644583201196021, 0),
        (0.05, 0.3647584846049298, 0.0007323553797006466, 0),
        (0.025, 0.32567060395121633, 0.002658761392256905, 7),
        (0.0125, 0.21132873885804324, 0.005328456129840959, 21),
    ],
    "transport": [
        (0.05, 0.04397622541410485, 0.026068100113251457, 96),
        (0.025, 0.036996125896265435, 0.021143470657683804, 139),
        (0.0125, 0.04221730855106611, 0.010727398210628108, 161),
    ],
}


@pytest.mark.parametrize("subcommand", sorted(SAMPLING_HEALTH))
def test_sampling_health_reported(tmp_path, subcommand):
    run(subcommand, {}, out_dir=tmp_path, seed=0)
    rows = json.loads((tmp_path / "report.json").read_text())["metrics"]["sampling_health"]
    assert [r["hbar"] for r in rows] == [p[0] for p in SAMPLING_HEALTH[subcommand]]
    for r, (_, ess, share, clipped) in zip(rows, SAMPLING_HEALTH[subcommand]):
        assert r["ess_ratio"] == pytest.approx(ess, rel=1e-12)
        assert r["max_weight_share"] == pytest.approx(share, rel=1e-12)
        assert r["clipped"] == clipped


def test_critical_points_cli(tmp_path):
    rep = run("critical-points", {"n": 1, "scan": [-1.0, 0.5], "grid_n": 2048,
                                  "tol": 1e-8}, out_dir=tmp_path)
    assert rep.passed
    assert len(rep.metrics["reports"]) == 1
    assert rep.metrics["reports"][0]["curvature"] > 0


def test_smicro_profile_cli(tmp_path):
    # "tol" sets only the critical-points bisection; check thresholds are fixed
    rep = run("smicro-profile", {"grid_n": 2048, "times": [0.0, 1.0],
                                 "delta_list": [1.0, 2.0], "tol": 1e9}, out_dir=tmp_path)
    assert rep.passed
    thresholds = {c.name: c.threshold for c in rep.checks}
    assert thresholds["on-cone-curvature-deviation"] == 1e-3
    csv = (tmp_path / "profile_densities.csv").read_text()
    assert csv.startswith("x2,density_t0,density_t1")
