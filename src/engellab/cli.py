"""Command-line front end: reproducible experiments, CSV/JSON artifacts.

Every run takes a JSON config (with per-flag overrides), writes machine
readable outputs under --out, prints one PASS/FAIL line per check and
exits nonzero iff any check fails.  Given (config, seed) the written
artifacts are byte-identical across runs; wall time goes to stderr only.
The library returns dataclasses; this module alone decides how they are
written: data files through `_csv`, library reports into report.json
through `dataclasses.asdict`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from . import algebra, dispersion, fourier, spectral, wavepacket

SUBCOMMANDS = (
    "identities",
    "dispersion",
    "critical-points",
    "plancherel",
    "residual-scaling",
    "transport",
    "smicro-profile",
    "strichartz",
)


class ConfigError(ValueError):
    """A config a subcommand refuses: keys it does not read, a value of the
    wrong kind, an empty sweep grid or a step that is not > 0, an hbar
    ladder too short for the experiment, a malformed kernel, an argument
    the library refuses."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(header, rows) -> str:
    """CSV text of a header and rows of fields, floats at full (.17g)
    precision, every line newline-terminated.  Rows are formatted as the
    iterable yields them; holding all row tuples at once costs the 2048-row
    profile CSV ~0.5 MiB of peak RSS."""
    return "".join(",".join(map(_fmt, line)) + "\n" for line in chain([header], rows))


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    comparator: str = "<="

    @property
    def passed(self) -> bool:
        if self.comparator == "<=":
            return self.value <= self.threshold
        if self.comparator == ">=":
            return self.value >= self.threshold
        if self.comparator == "==":
            return self.value == self.threshold
        raise ValueError(self.comparator)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class RunReport:
    experiment: str
    config: dict
    checks: list[Check] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # data files by name

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return dict(
            experiment=self.experiment,
            config=self.config,
            checks=[c.to_dict() for c in self.checks],
            metrics=self.metrics,
            outputs=self.outputs,
            passed=self.passed,
        )


def _write_report(report: RunReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
    report.outputs.append(str(path))


def _reads(*keys: str):
    """Declare the config keys a runner reads; `run` rejects any other key."""
    def declare(runner):
        runner.keys = frozenset(keys)
        return runner
    return declare


def _refusing(subcommand: str, call, *args, **kwargs):
    """call(*args, **kwargs); a ValueError other than ConfinementError is an
    argument the library refuses and is raised as a ConfigError."""
    try:
        return call(*args, **kwargs)
    except spectral.ConfinementError:
        raise
    except ValueError as err:
        raise ConfigError(f"{subcommand}: {err}") from None


def _converting(refusal: str, convert):
    """convert(), which converts raw config values; a TypeError or
    ValueError there is a value of the wrong kind, raised as a ConfigError
    that starts with `refusal`."""
    try:
        return convert()
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{refusal} ({err})") from None


def _integer(value) -> int:
    """int(value) for a config count; a float with a fractional part (or
    nan or inf) is a ValueError, not truncated: 2048.0 reads as 2048."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _finite_numbers(value) -> list[float]:
    """A config list of numbers as floats; a TypeError or ValueError unless
    every entry is a finite number."""
    numbers = [float(v) for v in value]
    if not np.isfinite(numbers).all():
        raise ValueError(f"{value!r} holds a number that is not finite")
    return numbers


def _finite_time(value, subcommand: str) -> float:
    """The config's time t as a float; ConfigError unless it is finite."""
    t = _converting(f"{subcommand} needs a number t", lambda: float(value))
    if not np.isfinite(t):
        raise ConfigError(f"{subcommand} needs a finite t, got {t}")
    return t


def _print_checks(report: RunReport) -> None:
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: {_fmt(c.value)} {c.comparator} {_fmt(c.threshold)}")


# ---------------------------------------------------------------------------
# identities: exact algebra suite
# ---------------------------------------------------------------------------


def _nonzero_terms(*pairs) -> int:
    """Nonzero terms of lhs - rhs, summed over the coordinates of every
    (lhs, rhs) pair of group elements or Lie vectors."""
    return sum(len((a - b).terms)
               for lhs, rhs in pairs for a, b in zip(lhs.coords(), rhs.coords()))


@_reads("trials")
def run_identities(cfg: dict, seed: int) -> RunReport:
    """Exact algebra suite.

    The group law, inverse, BCH split and bracket are polynomials in the
    coordinates, so each group and Lie identity is proved by one evaluation
    on 12 symbolic coordinates: its check counts the nonzero terms of the
    difference, and does not depend on the seed.  `trials` seeded random
    words test PBW confluence; the enveloping-algebra lemmas are exact.
    """
    rng = np.random.default_rng(seed)
    trials = _converting("identities needs an integer trial count",
                         lambda: _integer(cfg.get("trials", 40)))
    if trials < 0:
        raise ConfigError(f"identities needs a trial count of at least 0, got {trials}")
    rep = RunReport("identities", cfg)

    t = algebra.Polynomial.variables(12)
    x, y, z = (algebra.GroupElement(*t[i:i + 4]) for i in (0, 4, 8))
    u, v, w = (algebra.LieVector(*t[i:i + 4]) for i in (0, 4, 8))
    mul, inv, br = algebra.multiply, algebra.inverse, algebra.bracket
    e, zero = algebra.IDENTITY, algebra.LieVector(0, 0, 0, 0)
    jacobi = br(u, br(v, w)) + br(v, br(w, u)) + br(w, br(u, v))
    for name, terms in (
        ("associativity", _nonzero_terms((mul(mul(x, y), z), mul(x, mul(y, z))))),
        ("inversion", _nonzero_terms((mul(x, inv(x)), e), (mul(inv(x), x), e))),
        ("bch-roundtrip", _nonzero_terms(
            (algebra.semidirect_to_exp(algebra.exp_to_semidirect(v)), v),
            (algebra.exp_to_semidirect(algebra.semidirect_to_exp(x)), x))),
        ("jacobi", _nonzero_terms((jacobi, zero))),
    ):
        rep.checks.append(Check(f"{name}-nonzero-terms", terms, 0, "=="))

    # PBW confluence: a random word's normal form equals the product of its
    # generators multiplied out one at a time
    X1, X2, X3, X4 = generators = [algebra.PBWPolynomial.generator(i) for i in (1, 2, 3, 4)]
    bad_confluence = 0
    for _ in range(trials):
        word = rng.integers(1, 5, size=int(rng.integers(2, 7))).tolist()
        ref = algebra.pbw_normal_form(word)
        reref = algebra.PBWPolynomial.one()
        for g in word:
            reref = reref * generators[g - 1]
        bad_confluence += reref != ref
    rep.checks.append(Check("pbw-confluence-failures", bad_confluence, 0, "=="))

    minus_sublap = (X1 * X1 + X2 * X2).scale(-1)
    id1 = X2 * X3 - X1.scale(Fraction(-1, 2)).commutator(minus_sublap)
    rep.checks.append(Check("lemma-x2x3-identity-nonzero-terms", len(id1.terms), 0, "=="))
    id2 = (X3 * X3).commutator(minus_sublap) - (
        (X1 * X3 * X4).scale(4) - (X4 * X4).scale(2)
    )
    rep.checks.append(Check("lemma-x3sq-identity-nonzero-terms", len(id2.terms), 0, "=="))
    # engine's sign for [X3, X1^2 + X2^2]; the text of the source lemma
    # prints the opposite sign, the exact engine is authoritative here
    sign = X3.commutator(X1 * X1 + X2 * X2) - (X1 * X4).scale(-2)
    rep.checks.append(Check("bracket-x3-sublap-sign", len(sign.terms), 0, "=="))
    rep.metrics["x2x3_serialized"] = (X2 * X3).serialize()
    return rep


# ---------------------------------------------------------------------------
# dispersion sweep
# ---------------------------------------------------------------------------


# the worst FD-against-Hermite deviation, in units of h^2 max(1, mu)^2, is
# 0.228 (n = 1, nu = -1.15) over n = 1..12 and nu in [-6, 6] at step 0.05,
# the same at N = 512 and 2048: O(h^2) with a constant uniform in the mode;
# the bound leaves a margin of 2.2
_FD_DEVIATION_BOUND = 0.5


def _fd_deviation(n: int, nu: float, branch, N: int) -> float:
    """max |v_FD - v_H| / (h^2 max(1, mu_H)^2) over (mu, mu', mu''), with
    v_H the Hermite `branch` of mode n at nu and v_FD `spectral_data` at
    delta = 1 on its N-node grid of spacing h."""
    d = spectral.spectral_data(1.0, nu, n, N=N)
    scale = d.grid.h ** 2 * max(1.0, branch[0]) ** 2
    return max(abs(f - v) for f, v in zip((d.mu, d.mu_d1, d.mu_d2), branch)) / scale


@_reads("n_list", "nu_min", "nu_max", "nu_step", "grid_n")
def run_dispersion(cfg: dict, seed: int) -> RunReport:
    """The Montgomery branches (mu, mu', mu'') of `n_list` on the nu grid,
    at delta = 1, where d_beta = d_nu, each row from `montgomery_branch`.
    `grid_n` is the grid of the independent check: `spectral_data` on it
    at the first and last nu of each branch must agree with the rows to
    O(h^2) (`fd-agreement`)."""
    ns, nu_min, nu_max, step, N = _converting(
        "dispersion needs a list n_list and numbers nu_min, nu_max, nu_step and grid_n",
        lambda: (list(cfg.get("n_list", [1, 2, 3, 4])), float(cfg.get("nu_min", -4.0)),
                 float(cfg.get("nu_max", 4.0)), float(cfg.get("nu_step", 0.05)),
                 _integer(cfg.get("grid_n", 2048))))
    if not (np.isfinite([nu_min, nu_max, step]).all() and step > 0.0):
        raise ConfigError("dispersion needs finite nu_min, nu_max and nu_step > 0, got "
                          f"{nu_min}, {nu_max}, {step}")
    if not ns or nu_max <= nu_min:
        raise ConfigError("empty sweep grid")
    if N < 3 or not all(isinstance(n, int) and n >= 1 for n in ns):
        raise ConfigError(f"dispersion needs integer modes >= 1 and grid_n >= 3, got {ns}, {N}")
    nus = [float(nu) for nu in np.arange(nu_min, nu_max + 0.5 * step, step)]
    rep = RunReport("dispersion", cfg)

    # montgomery_branch's rows, one batched solve per branch, n-ascending
    # then nu-ascending
    branches = [(n, dispersion._branch_rows(n, nus)) for n in sorted(ns)]
    rows = [(n, 1.0, nu, *b) for n, branch in branches for nu, b in zip(nus, branch)]
    ends = sorted({0, len(nus) - 1})
    rep.metrics["rows"] = len(rows)
    rep.metrics["fd_deviation"] = max(_fd_deviation(n, nus[i], branch[i], N)
                                      for n, branch in branches for i in ends)
    rep.checks.append(Check("row-count", len(rows), len(ns) * len(nus), "=="))
    rep.checks.append(Check("fd-agreement", rep.metrics["fd_deviation"], _FD_DEVIATION_BOUND))
    rep.files["branches.csv"] = _csv(
        ("n", "delta", "beta", "mu", "dmu_dbeta", "d2mu_dbeta2"), rows)
    return rep


# ---------------------------------------------------------------------------
# remaining experiments
# ---------------------------------------------------------------------------


@_reads("n", "scan", "tol")
def run_critical_points(cfg: dict, seed: int) -> RunReport:
    n, scan, tol = _converting(
        "critical-points needs an integer n, a scan pair and a number tol",
        lambda: (_integer(cfg.get("n", 1)), _finite_numbers(cfg.get("scan", [-4.0, 4.0])),
                 float(cfg.get("tol", 1e-10))))
    if len(scan) != 2:
        raise ConfigError(f"critical-points needs a scan of exactly two numbers, got {scan}")
    reports = _refusing("critical-points", dispersion.critical_points, n, scan=scan, tol=tol)
    rep = RunReport("critical-points", cfg)
    rep.metrics["reports"] = [asdict(r) for r in reports]
    if n == 1:
        rep.checks.append(Check("n1-critical-point-count", len(reports), 1, "=="))
        if reports:
            rep.checks.append(
                Check("n1-curvature-positive", reports[0].curvature, 0.0, ">=")
            )
    return rep


def _default_kernels() -> list[fourier.GaussianKernelSpec]:
    return [
        fourier.GaussianKernelSpec((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
        fourier.GaussianKernelSpec((0.3, -0.2, 0.1, 0.0), (0.7, 1.3, 0.8, 0.6)),
        fourier.GaussianKernelSpec((0.0, 0.4, -0.3, 0.2), (1.2, 0.9, 1.1, 1.4)),
    ]


def _kernel_from_cfg(i: int, entry) -> fourier.GaussianKernelSpec:
    """Entry i of the plancherel `kernels` list; ConfigError naming the entry
    unless GaussianKernelSpec accepts it."""
    try:
        return fourier.GaussianKernelSpec(tuple(entry["centers"]), tuple(entry["widths"]))
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"plancherel kernel {i} {entry!r} needs 4 finite centers "
                          "and 4 finite positive widths") from None


@_reads("kernels")
def run_plancherel(cfg: dict, seed: int) -> RunReport:
    if "kernels" in cfg:
        entries = cfg["kernels"]
        if not isinstance(entries, list) or len(entries) < 2:
            raise ConfigError(f"plancherel needs a list of at least 2 kernels, got {entries!r}")
        kernels = [_kernel_from_cfg(i, k) for i, k in enumerate(entries)]
    else:
        kernels = _default_kernels()
    rep = RunReport("plancherel", cfg)
    cal = fourier.plancherel_calibrate(kernels)
    cal2 = fourier.plancherel_calibrate(kernels, box_scale=2.0)
    drift = abs(cal2.mean - cal.mean) / cal.mean
    rep.metrics["calibration"] = asdict(cal)
    rep.metrics["calibration_doubled_box"] = asdict(cal2)
    rep.checks.append(Check("relative-spread", cal.relative_spread, 0.01))
    rep.checks.append(Check("box-doubling-drift", drift, 0.002))
    return rep


_SPEC_KEYS = ("profile_width2", "profile_width4", "x0", "delta0", "beta0", "n")


def _hbar_ladder(values, least: int, use: str) -> list[float]:
    """The config's hbar ladder as floats; ConfigError unless it holds at
    least `least` numbers, each finite and > 0."""
    try:
        hbars = [float(h) for h in values]
    except (TypeError, ValueError):
        raise ConfigError(f"hbar_ladder must be a list of numbers, got {values!r}") from None
    if len(hbars) < least:
        raise ConfigError(f"{use} needs at least {least} hbar value(s), got {len(hbars)}")
    if not all(0.0 < h < np.inf for h in hbars):
        raise ConfigError(f"hbar_ladder must hold finite numbers > 0, got {values!r}")
    return hbars


def _spec_from_cfg(cfg: dict) -> wavepacket.WavePacketSpec:
    """The packet spec from the `_SPEC_KEYS` of cfg."""
    width2, width4, x0, delta0, beta0, n = _converting(
        "a packet needs numbers profile_width2, profile_width4, delta0 and beta0, "
        "a list x0 and an integer n",
        lambda: (float(cfg.get("profile_width2", 0.45)), float(cfg.get("profile_width4", 0.8)),
                 tuple(float(c) for c in cfg.get("x0", (0.0, 0.0, 0.0, 0.0))),
                 float(cfg.get("delta0", 1.0)),
                 float(cfg.get("beta0", 0.0)), _integer(cfg.get("n", 1))))
    return wavepacket.WavePacketSpec(
        x0=x0, delta0=delta0, beta0=beta0, n=n,
        profile=wavepacket.GaussianProfile(width2=width2, width4=width4),
    )


@_reads(*_SPEC_KEYS, "hbar_ladder", "t")
def run_residual_scaling(cfg: dict, seed: int) -> RunReport:
    # exact integrals, no sampling: the seed changes nothing
    spec = _refusing("residual-scaling", lambda: _spec_from_cfg(cfg))
    hbars = _hbar_ladder(cfg.get("hbar_ladder", [0.1, 0.05, 0.025, 0.0125]), 4,
                         "a residual-scaling slope")
    t = _finite_time(cfg.get("t", 0.1), "residual-scaling")
    rep = RunReport("residual-scaling", cfg)
    reports = wavepacket.residual_scaling_experiment(spec, hbars, t=t)
    full = reports[wavepacket.AnsatzOrder.WITH_SIGMA1_AND_2]
    first = reports[wavepacket.AnsatzOrder.WITH_SIGMA1]
    rep.metrics["full_slope"] = full.slope
    rep.metrics["sigma1_slope"] = first.slope
    for tag, srep in (("full", full), ("sigma1", first)):
        rep.files[f"residual_scaling_{tag}.csv"] = _csv(
            ("hbar", "residual"), zip(srep.hbars, srep.residuals))
    rep.checks.append(Check("full-slope-low", full.slope, 1.35, ">="))
    rep.checks.append(Check("full-slope-high", full.slope, 1.65, "<="))
    rep.checks.append(Check("sigma1-slope-low", first.slope, 0.85, ">="))
    rep.checks.append(Check("sigma1-slope-high", first.slope, 1.15, "<="))
    return rep


@_reads(*_SPEC_KEYS, "hbar_ladder", "t")
def run_transport(cfg: dict, seed: int) -> RunReport:
    # exact integrals, no sampling: the seed changes nothing
    spec = _refusing("transport", lambda: _spec_from_cfg(cfg))
    t = _finite_time(cfg.get("t", 0.5), "transport")
    hbars = _hbar_ladder(cfg.get("hbar_ladder", [0.05, 0.025, 0.0125]), 1, "transport")
    rows = wavepacket.transport_demo(spec, t, hbar_list=hbars)
    rep = RunReport("transport", cfg)
    rep.files["transport.csv"] = _csv(
        ("t", "centroid_x2", "predicted_x2", "hbar", "packet_width", "drift_error"),
        ((r.t, r.centroid_x2, r.predicted_x2, r.hbar, r.packet_width, r.drift_error)
         for r in rows))
    # the sigma_1 share of the mass, O(hbar) over the leading order's closed form
    rep.metrics["mass_ratio"] = [
        dict(hbar=r.hbar, mass_ratio=r.mass / wavepacket.packet_norm_exact(spec, r.hbar) ** 2)
        for r in rows]
    last = rows[-1]
    drift = abs(last.predicted_x2 - float(spec.x0[1]))
    # a drift within the stationary gate's own bound is checked as stationary
    width_rtol = 0.02
    if drift > width_rtol * last.packet_width:
        rep.checks.append(
            Check("drift-relative-error", last.drift_error / drift, 0.03)
        )
    else:
        rep.checks.append(
            Check("stationary-centroid-vs-width",
                  last.drift_error / last.packet_width, width_rtol)
        )
    return rep


@_reads("n", "grid_n", "delta_list", "times")
def run_smicro_profile(cfg: dict, seed: int) -> RunReport:
    n, N, times = _converting(
        "smicro-profile needs integers n and grid_n and a list of times",
        lambda: (_integer(cfg.get("n", 1)), _integer(cfg.get("grid_n", 4096)),
                 _finite_numbers(cfg.get("times", (0.0, 0.5, 1.0, 2.0)))))
    deltas = _converting("smicro-profile needs a list delta_list of finite numbers",
                         lambda: _finite_numbers(cfg.get("delta_list", [0.5, 1.0, 2.0])))
    if not deltas:
        raise ConfigError("smicro-profile needs a non-empty delta_list")
    reports = _refusing("smicro-profile", dispersion.critical_points, n, samples=81)
    if not reports:
        raise ConfigError(f"smicro-profile: mode {n} has no critical point on [-4, 4]")
    r0 = reports[0]
    cc = _refusing("smicro-profile", dispersion.curvature_consistency,
                   n, r0.nu_c, deltas, N=N)
    demo = wavepacket.second_microlocal_profile_demo(r0.curvature, times=times)
    rep = RunReport("smicro-profile", cfg)
    rep.metrics["critical_point"] = asdict(r0)
    rep.metrics["coefficient"] = demo.coefficient
    rep.files["profile_densities.csv"] = _csv(
        ("x2", *(f"density_t{_fmt(t)}" for t in demo.times)),
        zip(demo.x2, *demo.densities))
    rep.checks.append(Check("mass-drift", demo.mass_drift, 1e-10))
    rep.checks.append(Check("gaussian-law-error", demo.gaussian_law_error, 1e-6))
    rep.checks.append(Check("on-cone-curvature-deviation", cc.max_deviation, 1e-3))
    return rep


@_reads("q", "p", "expect")
def run_strichartz(cfg: dict, seed: int) -> RunReport:
    q = cfg.get("q", "inf")
    p = cfg.get("p", 2)
    rep = RunReport("strichartz", cfg)
    verdict = _refusing("strichartz", dispersion.strichartz_admissible, q, p)
    rep.metrics["classification"] = verdict
    expected = cfg.get("expect")
    if expected is not None:
        rep.checks.append(
            Check("classification-matches", float(verdict == expected), 1.0, ">=")
        )
    print(f"strichartz q={q} p={p}: {verdict}")
    return rep


_RUNNERS = {
    "identities": run_identities,
    "dispersion": run_dispersion,
    "critical-points": run_critical_points,
    "plancherel": run_plancherel,
    "residual-scaling": run_residual_scaling,
    "transport": run_transport,
    "smicro-profile": run_smicro_profile,
    "strichartz": run_strichartz,
}


def run(subcommand: str, config: dict, out_dir: str | Path | None = None,
        seed: int = 0) -> RunReport:
    """Execute one experiment; write report.json and data CSVs under out_dir.

    Raises ValueError for an unknown subcommand, and ConfigError naming every
    config key the subcommand does not read.
    """
    if subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    runner = _RUNNERS[subcommand]
    unknown = sorted(set(config) - runner.keys)
    if unknown:
        raise ConfigError(f"{subcommand} does not read config key(s) {', '.join(unknown)}; "
                          f"it reads {', '.join(sorted(runner.keys))}")
    report = runner(dict(config), seed)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in sorted(report.files):
            (out / name).write_text(report.files[name])
            report.outputs.append(str(out / name))
        _write_report(report, out)
    return report


def _numbers(text: str) -> list[float]:
    """A comma-separated list of numbers, as --hbar-ladder takes it."""
    try:
        return [float(h) for h in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="engellab",
        description="Spectral, dispersive and wave-packet experiments on the Engel group",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--q", type=str, default=None)
    parser.add_argument("--p", type=str, default=None)
    parser.add_argument("--grid-n", type=int, default=None,
                        help="nodes of the finite-difference grid that checks the "
                             "Hermite values: dispersion's fd-agreement rows and "
                             "smicro-profile's on-cone curvature")
    parser.add_argument("--tol", type=float, default=None,
                        help="critical-points root tolerance: the Newton "
                             "refinement stops once a step is below it")
    parser.add_argument("--hbar-ladder", type=_numbers, default=None,
                        help="comma-separated hbar values")
    args = parser.parse_args(argv)

    cfg: dict = {}
    if args.config is not None:
        cfg.update(json.loads(args.config.read_text()))
    for key in ("n", "q", "p", "tol"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if args.grid_n is not None:
        cfg["grid_n"] = args.grid_n
    if args.hbar_ladder is not None:
        cfg["hbar_ladder"] = args.hbar_ladder

    t0 = time.time()
    try:
        report = run(args.subcommand, cfg, out_dir=args.out, seed=args.seed)
    except ConfigError as err:  # refused input is a usage error; faults keep tracebacks
        parser.error(str(err))
    _print_checks(report)
    print(f"wall-time: {time.time() - t0:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
