"""Workloads of the engellab benchmark: the inputs each one generates from
its seed, the experiments it runs through the public entry points, and the
checks their outputs must pass.

branch-sweep
    The Montgomery branches n = 1..4 on nu in [-4, 4] at step 0.1 and
    N = 2048, cut into per-branch strips of about 20 rows, each strip one
    `cli.run("dispersion")` call.  Nearly all of its time is the many-mode
    eigensolve behind `spectral.spectral_data`; wavepacket, fourier and
    algebra do no work here.  The seed shifts the strip origin by less than
    one step.
certify
    `critical-points` for n = 1, 2, 3, `smicro-profile`, `plancherel`,
    `identities` with 2000 seeded trials, `strichartz` on three pairs and a
    seeded batch of `fourier.matrix_coefficient` calls.  Its spectral work
    is few-mode eigensolves at N = 8192 driven by Python bisection, and it
    is the only workload in which the Fourier and PBW code run.
packet-residual
    `residual-scaling` and `transport` at their defaults.  The residual
    Monte-Carlo seed is drawn from the benchmark seed; `transport` keeps the
    CLI's default seed 0, because its drift check (<= 0.03 of the drift at
    20000 samples) sits about 1.5 sampling errors out and fails on about a
    third of Monte-Carlo seeds, which no workload may do.  Nearly all of its time is in
    `coef_batch`; a residual sample costs seven ansatz evaluations and a
    transport sample one, so a change that trades one for the other moves
    the two experiment times in opposite directions.

Experiments reach the library only through module attributes
(`cli.run`, `fourier.matrix_coefficient`, ...), so the traced run sees
every call through the wrappers it installs.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from engellab import algebra, cli, fourier, spectral

# frozen ground-branch critical point and the tolerance the acceptance
# suite (criterion 5) certifies it to
NU_CRIT_1 = -0.3467583952
MU_AT_CRIT_1 = 0.5698203191
CURV_CRIT_1 = 1.5761268
FROZEN_TOL = 1e-5

SWEEP_BRANCHES = (1, 2, 3, 4)
SWEEP_NU = (-4.0, 4.0)
SWEEP_STEP = 0.1
SWEEP_GRID_N = 2048
STRIP_ROWS = 20

IDENTITY_TRIALS = 2000
COEF_POINTS = 500
# |(pi(x^-1) phi, phi) - conj (pi(x) phi, phi)| is zero for a unitary pi; the
# spline shift leaves ~1e-10 on this grid
COEF_UNITARITY_TOL = 1e-8


@dataclass
class Experiment:
    """One call into the library: a CLI subcommand, or the coefficient batch."""

    exp_id: str
    subcommand: str
    config: dict
    seed: int = 0


@dataclass
class Inputs:
    workload: str
    seed: int
    experiments: list[Experiment]
    rerun: str  # exp_id run a second time to check byte-identical outputs
    record: dict = field(default_factory=dict)  # what the seed generated


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate the workload's experiment list from the seed alone."""
    rng = np.random.default_rng(seed)
    if workload == "branch-sweep":
        offset = float(rng.uniform(0.0, SWEEP_STEP))
        rows = int(round((SWEEP_NU[1] - SWEEP_NU[0]) / SWEEP_STEP)) + 1
        nus = SWEEP_NU[0] + offset + SWEEP_STEP * np.arange(rows)
        strips = np.array_split(nus, max(1, round(rows / STRIP_ROWS)))
        exps = [
            Experiment(
                f"dispersion-n{n}-s{k}", "dispersion",
                dict(n_list=[n], nu_min=float(s[0]), nu_max=float(s[-1]),
                     nu_step=SWEEP_STEP, grid_n=SWEEP_GRID_N),
            )
            for n in SWEEP_BRANCHES
            for k, s in enumerate(strips)
        ]
        return Inputs(workload, seed, exps, exps[0].exp_id,
                      dict(strip_origin_offset=offset, strips_per_branch=len(strips),
                           rows=rows * len(SWEEP_BRANCHES)))
    if workload == "certify":
        identities_seed = _draw_seed(rng)
        points = rng.uniform(-1.0, 1.0, size=(COEF_POINTS, 4))
        exps = [Experiment(f"critical-points-n{n}", "critical-points", dict(n=n))
                for n in (1, 2, 3)]
        exps += [
            Experiment("smicro-profile", "smicro-profile", {}),
            Experiment("plancherel", "plancherel", {}),
            Experiment("identities", "identities", dict(trials=IDENTITY_TRIALS),
                       identities_seed),
            Experiment("strichartz-inf-2", "strichartz",
                       dict(q="inf", p=2, expect="allowed")),
            Experiment("strichartz-2-14_5", "strichartz",
                       dict(q=2, p="14/5", expect="allowed")),
            Experiment("strichartz-4-7_3", "strichartz",
                       dict(q=4, p="7/3", expect="admissible-but-obstructed")),
            Experiment("matrix-coefficients", "matrix-coefficients",
                       dict(delta=1.0, beta=0.3, grid_l=12.0, grid_n=2048,
                            points=points.tolist())),
        ]
        return Inputs(workload, seed, exps, "smicro-profile",
                      dict(identities_seed=identities_seed,
                           coef_points=COEF_POINTS))
    if workload == "packet-residual":
        residual_seed = _draw_seed(rng)
        transport_seed = 0  # the CLI default; see the module docstring
        exps = [
            Experiment("residual-scaling", "residual-scaling", {}, residual_seed),
            Experiment("transport", "transport", {}, transport_seed),
        ]
        return Inputs(workload, seed, exps, "transport",
                      dict(residual_seed=residual_seed, transport_seed=transport_seed))
    raise ValueError(f"unknown workload {workload!r}")


@contextmanager
def _inside(directory: Path):
    """Run with `directory` as working directory.

    report.json lists the paths of the files written beside it, so the
    experiment is given a relative --out: two runs into two directories then
    write byte-identical files.
    """
    directory.mkdir(parents=True, exist_ok=True)
    old = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(old)


def run_experiment(exp: Experiment, base: Path) -> list[str]:
    """Run one experiment with its outputs under base/exp_id.

    Returns the names of the checks that failed, empty when all passed.
    """
    if exp.subcommand == "matrix-coefficients":
        return _matrix_coefficients(exp.config)
    with _inside(base):
        report = cli.run(exp.subcommand, exp.config, out_dir=exp.exp_id, seed=exp.seed)
    failed = [c.name for c in report.checks if not c.passed]
    if exp.subcommand == "strichartz" and not report.checks:
        failed.append("strichartz-expectation-missing")
    if exp.subcommand == "critical-points" and exp.config["n"] == 1:
        failed += _frozen_critical_point(report.metrics["reports"])
    if exp.subcommand == "dispersion":
        failed += _strip_rows(exp, base)
    return failed


def _frozen_critical_point(reports: list[dict]) -> list[str]:
    if len(reports) != 1:
        return ["n1-frozen-count"]
    r = reports[0]
    return [
        name
        for name, value, frozen in (
            ("n1-frozen-nu_c", r["nu_c"], NU_CRIT_1),
            ("n1-frozen-mu", r["mu_at_c"], MU_AT_CRIT_1),
            ("n1-frozen-curvature", r["curvature"], CURV_CRIT_1),
        )
        if not abs(value - frozen) <= FROZEN_TOL
    ]


def _read_branch(exp: Experiment, base: Path) -> list[dict]:
    with open(base / exp.exp_id / "branches.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _strip_rows(exp: Experiment, base: Path) -> list[str]:
    cfg = exp.config
    expected = int(round((cfg["nu_max"] - cfg["nu_min"]) / cfg["nu_step"])) + 1
    rows = _read_branch(exp, base)
    failed = []
    if len(rows) != expected:
        failed.append("strip-row-count")
    values = [float(r[k]) for r in rows for k in ("mu", "dmu_dbeta", "d2mu_dbeta2")]
    if not all(math.isfinite(v) for v in values):
        failed.append("strip-finite")
    return failed


def workload_checks(inputs: Inputs, base: Path) -> dict[str, list[str]]:
    """Checks that span several experiments, keyed by the experiment blamed.

    On branch-sweep, at every nu of a strip the branches must be strictly
    ordered, mu_1 < mu_2 < mu_3 < mu_4.
    """
    if inputs.workload != "branch-sweep":
        return {}
    strips: dict[str, dict[int, list[float]]] = {}
    for exp in inputs.experiments:
        key = f"{exp.config['nu_min']!r}"
        try:
            mus = [float(r["mu"]) for r in _read_branch(exp, base)]
        except OSError:
            continue  # the experiment itself failed and is counted already
        strips.setdefault(key, {})[exp.config["n_list"][0]] = mus
    failed: dict[str, list[str]] = {}
    for exp in inputs.experiments:
        n = exp.config["n_list"][0]
        branches = strips.get(f"{exp.config['nu_min']!r}", {})
        below = branches.get(n - 1)
        mine = branches.get(n)
        if below is None or mine is None:
            continue
        if len(below) != len(mine) or any(a >= b for a, b in zip(below, mine)):
            failed.setdefault(exp.exp_id, []).append("branch-order")
    return failed


def _matrix_coefficients(cfg: dict) -> list[str]:
    """(pi(x) phi, phi) and (pi(x^-1) phi, phi) on a Generic eigenvector.

    Unitarity makes the second the conjugate of the first and bounds both
    by ||phi||^2 = 1; the identity element gives exactly 1.
    """
    param = spectral.Generic(cfg["delta"], cfg["beta"])
    grid = spectral.SpectralGrid(cfg["grid_l"], cfg["grid_n"])
    phi = spectral.solve_lowest(param, 1, grid=grid).eigenvectors[:, 0]
    failed = []
    one = fourier.matrix_coefficient(param, algebra.GroupElement(0, 0, 0, 0), phi, phi, grid)
    if abs(one - 1.0) > 1e-9:
        failed.append("coefficient-at-identity")
    worst_conj = 0.0
    worst_mod = 0.0
    for p in cfg["points"]:
        x = algebra.GroupElement(*p)
        c = fourier.matrix_coefficient(param, x, phi, phi, grid)
        c_inv = fourier.matrix_coefficient(param, algebra.inverse(x), phi, phi, grid)
        worst_conj = max(worst_conj, abs(c_inv - c.conjugate()))
        worst_mod = max(worst_mod, abs(c))
    if not worst_conj <= COEF_UNITARITY_TOL:
        failed.append("coefficient-unitarity")
    if not worst_mod <= 1.0 + 1e-9:
        failed.append("coefficient-bound")
    return failed
