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
    """A config a subcommand refuses: keys it does not read, an empty sweep
    grid or a step that is not > 0, an hbar ladder too short for the
    experiment, a malformed kernel, an argument the library refuses."""


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


def _print_checks(report: RunReport) -> None:
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: {_fmt(c.value)} {c.comparator} {_fmt(c.threshold)}")


# ---------------------------------------------------------------------------
# identities: exact algebra suite
# ---------------------------------------------------------------------------


@_reads("trials")
def run_identities(cfg: dict, seed: int) -> RunReport:
    rng = np.random.default_rng(seed)
    trials = int(cfg.get("trials", 40))
    if trials < 0:
        raise ConfigError(f"identities needs a trial count of at least 0, got {trials}")
    rep = RunReport("identities", cfg)

    bad_assoc = 0
    bad_inv = 0
    bad_bch = 0
    bad_jacobi = 0
    e = algebra.GroupElement(0, 0, 0, 0)
    # 24 random rationals a/b per trial, a in [-12, 12] and b in [1, 8]: the
    # group elements x, y, z and then the Lie vectors v, u, w
    nums = rng.integers(-12, 13, size=(trials, 24)).tolist()
    dens = rng.integers(1, 9, size=(trials, 24)).tolist()
    for num, den in zip(nums, dens):
        q = [Fraction(a, b) for a, b in zip(num, den)]
        x, y, z = (algebra.GroupElement(*q[i:i + 4]) for i in (0, 4, 8))
        v, u, w = (algebra.LieVector(*q[i:i + 4]) for i in (12, 16, 20))
        lhs = algebra.multiply(algebra.multiply(x, y), z)
        rhs = algebra.multiply(x, algebra.multiply(y, z))
        bad_assoc += lhs != rhs
        bad_inv += algebra.multiply(x, algebra.inverse(x)) != e
        bad_bch += algebra.semidirect_to_exp(algebra.exp_to_semidirect(v)) != v
        jac = (
            algebra.bracket(u, algebra.bracket(v, w))
            + algebra.bracket(v, algebra.bracket(w, u))
            + algebra.bracket(w, algebra.bracket(u, v))
        )
        bad_jacobi += any(c != 0 for c in jac.coords())
    rep.checks.append(Check("associativity-failures", bad_assoc, 0, "=="))
    rep.checks.append(Check("inversion-failures", bad_inv, 0, "=="))
    rep.checks.append(Check("bch-roundtrip-failures", bad_bch, 0, "=="))
    rep.checks.append(Check("jacobi-failures", bad_jacobi, 0, "=="))

    # PBW confluence: a random word's normal form equals the product of its
    # generators multiplied out one at a time
    bad_confluence = 0
    for _ in range(trials):
        word = [int(g) for g in rng.integers(1, 5, size=int(rng.integers(2, 7)))]
        ref = algebra.pbw_normal_form(word)
        reref = algebra.PBWPolynomial.one()
        for g in word:
            reref = reref * algebra.PBWPolynomial.generator(g)
        bad_confluence += reref != ref
    rep.checks.append(Check("pbw-confluence-failures", bad_confluence, 0, "=="))

    X1, X2, X3, X4 = (algebra.PBWPolynomial.generator(i) for i in (1, 2, 3, 4))
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


@_reads("n_list", "nu_min", "nu_max", "nu_step", "grid_n")
def run_dispersion(cfg: dict, seed: int) -> RunReport:
    ns = list(cfg.get("n_list", [1, 2, 3, 4]))
    nu_min = float(cfg.get("nu_min", -4.0))
    nu_max = float(cfg.get("nu_max", 4.0))
    step = float(cfg.get("nu_step", 0.05))
    N = int(cfg.get("grid_n", 2048))
    if not (np.isfinite([nu_min, nu_max, step]).all() and step > 0.0):
        raise ConfigError("dispersion needs finite nu_min, nu_max and nu_step > 0, got "
                          f"{nu_min}, {nu_max}, {step}")
    if not ns or nu_max <= nu_min:
        raise ConfigError("empty sweep grid")
    nus = np.arange(nu_min, nu_max + 0.5 * step, step)
    rep = RunReport("dispersion", cfg)

    # one row per spectral_data call, n-ascending then nu-ascending; only the
    # row is kept, not the eigenvectors behind it
    rows = []
    for n in sorted(ns):
        for nu in nus:
            d = spectral.spectral_data(1.0, float(nu), n, N=N)
            rows.append((n, 1.0, float(nu), d.mu, d.mu_d1, d.mu_d2, d.grid.L, d.grid.N))
    rep.metrics["rows"] = len(rows)
    rep.checks.append(Check("row-count", len(rows), len(ns) * len(nus), "=="))
    rep.files["branches.csv"] = _csv(
        ("n", "delta", "beta", "mu", "dmu_dbeta", "d2mu_dbeta2", "grid_L", "grid_N"), rows)
    return rep


# ---------------------------------------------------------------------------
# remaining experiments
# ---------------------------------------------------------------------------


@_reads("n", "scan", "tol")
def run_critical_points(cfg: dict, seed: int) -> RunReport:
    n = int(cfg.get("n", 1))
    scan = tuple(cfg.get("scan", [-4.0, 4.0]))
    tol = float(cfg.get("tol", 1e-10))
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


_SPEC_KEYS = ("profile_width2", "profile_width4", "x0", "delta0", "beta0", "n",
              "grid_l", "grid_n")


def _hbar_ladder(values, least: int, use: str) -> list[float]:
    """The config's hbar ladder as floats; ConfigError unless it holds at
    least `least` numbers."""
    try:
        hbars = [float(h) for h in values]
    except (TypeError, ValueError):
        raise ConfigError(f"hbar_ladder must be a list of numbers, got {values!r}") from None
    if len(hbars) < least:
        raise ConfigError(f"{use} needs at least {least} hbar value(s), got {len(hbars)}")
    return hbars


def _spec_from_cfg(cfg: dict) -> wavepacket.WavePacketSpec:
    """The packet spec from the `_SPEC_KEYS` of cfg."""
    profile = wavepacket.GaussianProfile(
        width2=float(cfg.get("profile_width2", 0.45)),
        width4=float(cfg.get("profile_width4", 0.8)),
    )
    return wavepacket.WavePacketSpec(
        x0=tuple(cfg.get("x0", (0.0, 0.0, 0.0, 0.0))),
        delta0=float(cfg.get("delta0", 1.0)),
        beta0=float(cfg.get("beta0", 0.0)),
        n=int(cfg.get("n", 1)),
        profile=profile,
        grid_L=float(cfg.get("grid_l", 20.0)),
        grid_N=int(cfg.get("grid_n", 3072)),
    )


@_reads(*_SPEC_KEYS, "hbar_ladder", "t")
def run_residual_scaling(cfg: dict, seed: int) -> RunReport:
    # exact integrals, no sampling: the seed changes nothing
    spec = _spec_from_cfg(cfg)
    hbars = _hbar_ladder(cfg.get("hbar_ladder", [0.1, 0.05, 0.025, 0.0125]), 4,
                         "a residual-scaling slope")
    t = float(cfg.get("t", 0.1))
    rep = RunReport("residual-scaling", cfg)
    reports = wavepacket.residual_scaling_experiment(
        spec, hbars, order=wavepacket.AnsatzOrder.WITH_SIGMA1_AND_2, t=t,
    )
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
    spec = _spec_from_cfg(cfg)
    t = float(cfg.get("t", 0.5))
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
    n = int(cfg.get("n", 1))
    N = int(cfg.get("grid_n", 4096))
    reports = _refusing("smicro-profile", dispersion.critical_points, n, samples=81)
    if not reports:
        raise ConfigError(f"smicro-profile: mode {n} has no critical point on [-4, 4]")
    r0 = reports[0]
    cc = _refusing("smicro-profile", dispersion.curvature_consistency,
                   n, r0.nu_c, cfg.get("delta_list", [0.5, 1.0, 2.0]), N=N)
    demo = wavepacket.second_microlocal_profile_demo(
        r0.curvature, times=tuple(cfg.get("times", (0.0, 0.5, 1.0, 2.0)))
    )
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
    parser.add_argument("--grid-n", type=int, default=None)
    parser.add_argument("--grid-l", type=float, default=None)
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
    if args.grid_l is not None:
        cfg["grid_l"] = args.grid_l
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
