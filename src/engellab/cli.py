"""Command-line front end: reproducible experiments, CSV/JSON artifacts.

Every run takes a JSON config (with per-flag overrides), writes machine
readable outputs under --out, prints one PASS/FAIL line per check and
exits nonzero iff any check fails.  Given (config, seed) the written
artifacts are byte-identical across runs and do not depend on the --out
path; wall time goes to stderr only.
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
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import algebra, dispersion, fourier, spectral, wavepacket

class ConfigError(ValueError):
    """A config a subcommand refuses: keys it does not read, a value its key's
    converter refuses, an empty sweep grid, an argument the library refuses."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(header, rows) -> str:
    """CSV text of a header and rows of fields, floats at full (.17g)
    precision, every line newline-terminated.  Rows are formatted as the
    iterable yields them, never held all at once."""
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
    config: dict = field(default_factory=dict)  # the config as given, set by `run`
    checks: list[Check] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
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
            outputs=sorted(self.files),  # names relative to --out
            passed=self.passed,
        )


def _reads(**keys):
    """Declare the config keys a runner reads, each as key=(default,
    convert).  `run` refuses any other key and passes the runner every
    declared key converted, at its default where the config lacks it."""
    def declare(runner):
        runner.declared = keys
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


def _converter(convert, holds, need: str, text: bool = False):
    """A config value converter: it returns convert(value), and raises a
    ValueError saying the value must `need` unless convert succeeds and
    `holds` of its result.  No key takes a bool: JSON true or false is
    refused, not read as the number 1 or 0.  Only a `text` key takes a
    str: elsewhere "2" or "nan" is refused, not read as the number."""
    def checked(value):
        try:
            converted = convert(value)
            if (not isinstance(value, bool) and (text or not isinstance(value, str))
                    and holds(converted)):
                return converted
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        raise ValueError(f"must {need}, got {value!r}")
    return checked


def _as_given(value):
    """The value itself, for a key the library parses."""
    return value


_number = _converter(float, lambda x: True, "be a number")  # the library checks its range
_finite = _converter(float, np.isfinite, "be a finite number")


def _integer(least: int | None = None):
    """A converter to an int, at least `least` if given.  A float with a
    fractional part (or nan or inf) is refused, not truncated: 2048.0 reads
    as 2048."""
    return _converter(lambda v: int(v) if not isinstance(v, float) or v.is_integer() else None,
                      lambda n: n is not None and (least is None or n >= least),
                      "be an integer" if least is None else f"be an integer >= {least}")


def _list(least: int, most: int | None = None, item=_finite, noun="finite numbers"):
    """A converter to a list of `least` to `most` entries (no upper bound
    if None), each converted by `item`."""
    size = f" of length {least}" if most == least else f" of length >= {least}" if least else ""
    return _converter(lambda v: [item(x) for x in v] if isinstance(v, (list, tuple)) else None,
                      lambda xs: xs is not None and least <= len(xs) <= (most or len(xs)),
                      f"be a list{size} of {noun}")


def _distinct(convert):
    """A converter that refuses a list holding an entry twice, once
    `convert` has accepted it."""
    def checked(value):
        converted = convert(value)
        if len(set(converted)) < len(converted):
            raise ValueError(f"must not repeat an entry, got {value!r}")
        return converted
    return checked


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


@_reads(trials=(40, _integer(0)))
def run_identities(cfg: dict, seed: int) -> RunReport:
    """Exact algebra suite.

    The group law, inverse, BCH split and bracket are polynomials in the
    coordinates, so each group and Lie identity is proved by one evaluation
    on 12 symbolic coordinates: its check counts the nonzero terms of the
    difference, and does not depend on the seed.  `trials` seeded random
    words test PBW confluence; the enveloping-algebra lemmas are exact.
    """
    if seed < 0:
        raise ConfigError(f"identities: seed must be an integer >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    rep = RunReport("identities")

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
    # generators multiplied out one at a time; all lengths are drawn in one
    # batch, then all letters, which are cut into the words
    X1, X2, X3, X4 = generators = algebra.X1, algebra.X2, algebra.X3, algebra.X4
    bad_confluence = 0
    lengths = rng.integers(2, 7, size=cfg["trials"]).tolist()
    letters = iter(rng.integers(1, 5, size=sum(lengths)).tolist())
    for n in lengths:
        word = list(islice(letters, n))
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


@_reads(n_list=([1, 2, 3, 4], _distinct(_list(1, item=_integer(1), noun="integers >= 1"))),
        nu_min=(-4.0, _finite), nu_max=(4.0, _finite), nu_step=(0.05, _finite),
        grid_n=(2048, _integer(3)))
def run_dispersion(cfg: dict, seed: int) -> RunReport:
    """The Montgomery branches (mu, mu', mu'') of `n_list` on the nu grid
    nu_min + k nu_step, up to nu_max, at delta = 1, where d_beta = d_nu,
    each row from `montgomery_branch`.
    `grid_n` is the grid of the independent check: `spectral_data` on it
    at the first and last nu of each branch must agree with the rows to
    O(h^2) (`fd-agreement`)."""
    ns, nu_min, nu_max, step = cfg["n_list"], cfg["nu_min"], cfg["nu_max"], cfg["nu_step"]
    if not step > 0.0:
        raise ConfigError(f"dispersion: nu_step must be > 0, got {step}")
    if nu_max <= nu_min:
        raise ConfigError(f"dispersion: empty sweep grid, nu_max {nu_max} <= nu_min {nu_min}")
    # np.arange may run past nu_max by up to step/2: keep nodes up to nu_max to
    # a millionth of a step, so a whole number of steps keeps its last node
    nus = [float(nu) for nu in np.arange(nu_min, nu_max + 0.5 * step, step)
           if nu <= nu_max + 1e-6 * step]
    rep = RunReport("dispersion")

    # montgomery_branch's rows, one batched solve per branch, n-ascending
    # then nu-ascending
    branches = [(n, dispersion._branch_rows(n, nus)) for n in sorted(ns)]
    rows = [(n, 1.0, nu, *b) for n, branch in branches for nu, b in zip(nus, branch)]
    ends = sorted({0, len(nus) - 1})
    rep.metrics["rows"] = len(rows)
    rep.metrics["fd_deviation"] = max(_fd_deviation(n, nus[i], branch[i], cfg["grid_n"])
                                      for n, branch in branches for i in ends)
    rep.checks.append(Check("row-count", len(rows), len(ns) * len(nus), "=="))
    rep.checks.append(Check("fd-agreement", rep.metrics["fd_deviation"], _FD_DEVIATION_BOUND))
    rep.files["branches.csv"] = _csv(
        ("n", "delta", "beta", "mu", "dmu_dbeta", "d2mu_dbeta2"), rows)
    return rep


# ---------------------------------------------------------------------------
# remaining experiments
# ---------------------------------------------------------------------------


@_reads(n=(1, _integer()), scan=([-4.0, 4.0], _list(2, 2)))
def run_critical_points(cfg: dict, seed: int) -> RunReport:
    reports = _refusing("critical-points", dispersion.critical_points, cfg["n"], scan=cfg["scan"])
    rep = RunReport("critical-points")
    rep.metrics["reports"] = [asdict(r) for r in reports]
    if cfg["n"] == 1:
        rep.checks.append(Check("n1-critical-point-count", len(reports), 1, "=="))
        if reports:
            rep.checks.append(
                Check("n1-curvature-positive", reports[0].curvature, 0.0, ">=")
            )
    return rep


# the x1..x4 widths of the Gaussian product kernels whose Parseval ratios
# `plancherel` compares
_KERNEL_WIDTHS = ((1.0, 1.0, 1.0, 1.0), (0.7, 1.3, 0.8, 0.6), (1.2, 0.9, 1.1, 1.4))


@_reads()
def run_plancherel(cfg: dict, seed: int) -> RunReport:
    rep = RunReport("plancherel")
    cal = fourier.plancherel_calibrate(_KERNEL_WIDTHS)
    rep.metrics["calibration"] = asdict(cal)
    rep.checks.append(Check("relative-spread", cal.relative_spread, 0.01))
    return rep


_SPEC_KEYS = dict(profile_width2=(0.45, _number), profile_width4=(0.8, _number),
                  x0=([0.0, 0.0, 0.0, 0.0], _list(0, item=_number, noun="numbers")),
                  delta0=(1.0, _number), beta0=(0.0, _number), n=(1, _integer()))


def _spec(cfg: dict) -> wavepacket.WavePacketSpec:
    """The packet spec from the `_SPEC_KEYS` of the converted cfg."""
    return wavepacket.WavePacketSpec(
        x0=tuple(cfg["x0"]), delta0=cfg["delta0"], beta0=cfg["beta0"], n=cfg["n"],
        profile=wavepacket.GaussianProfile(width2=cfg["profile_width2"],
                                           width4=cfg["profile_width4"]),
    )


@_reads(**_SPEC_KEYS, hbar_ladder=([0.1, 0.05, 0.025, 0.0125], _list(1)), t=(0.1, _finite))
def run_residual_scaling(cfg: dict, seed: int) -> RunReport:
    # exact integrals, no sampling: the seed changes nothing
    spec = _refusing("residual-scaling", _spec, cfg)
    rep = RunReport("residual-scaling")
    reports = _refusing("residual-scaling", wavepacket.residual_scaling_experiment,
                        spec, cfg["hbar_ladder"], t=cfg["t"])
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


@_reads(**_SPEC_KEYS, hbar_ladder=([0.05, 0.025, 0.0125], _list(1)), t=(0.5, _finite))
def run_transport(cfg: dict, seed: int) -> RunReport:
    # exact integrals, no sampling: the seed changes nothing
    spec = _refusing("transport", _spec, cfg)
    rows = _refusing("transport", wavepacket.transport_demo, spec, cfg["t"],
                     hbar_list=cfg["hbar_ladder"])
    rep = RunReport("transport")
    rep.files["transport.csv"] = _csv(
        ("t", "centroid_x2", "predicted_x2", "hbar", "packet_width", "drift_error"),
        ((r.t, r.centroid_x2, r.predicted_x2, r.hbar, r.packet_width, r.drift_error)
         for r in rows))
    # the sigma_1 share of the mass, O(hbar) over the leading order's closed form
    rep.metrics["mass_ratio"] = [
        dict(hbar=r.hbar, mass_ratio=r.mass / wavepacket.packet_norm_exact(spec, r.hbar) ** 2)
        for r in rows]
    # the gates read the smallest hbar, wherever the ladder puts it
    finest = min(rows, key=lambda r: r.hbar)
    drift = abs(finest.predicted_x2 - float(spec.x0[1]))
    # a drift within the stationary gate's own bound is checked as stationary
    width_rtol = 0.02
    if drift > width_rtol * finest.packet_width:
        rep.checks.append(
            Check("drift-relative-error", finest.drift_error / drift, 0.03)
        )
    else:
        rep.checks.append(
            Check("stationary-centroid-vs-width",
                  finest.drift_error / finest.packet_width, width_rtol)
        )
    return rep


# the worst |Richardson value| of the effective-mass read-back is 3.4e-6
# over the cones of modes 1..5; a 1e-3 error in mu''/2 reads as -1.0e-3
_READBACK_BOUND = 1e-4


@_reads(n=(1, _integer()), grid_n=(4096, _integer()), delta_list=([0.5, 1.0, 2.0], _list(1)))
def run_smicro_profile(cfg: dict, seed: int) -> RunReport:
    """Mode n's cone beta = nu_c delta^{1/3}: the finite-difference mu'' of
    `spectral_data` at each delta of `delta_list` on the `grid_n`-node grid
    against the Hermite mutilde''(nu_c) of the certified critical point,
    which `critical_points` already solved, and the effective mass mu''/2
    of the packet on the cone (delta0 = 1, beta0 = nu_c) read back from its
    residual.  With `run_dispersion`'s fd-agreement this is one of the two
    finite-difference checks of the Hermite branches."""
    n, deltas = cfg["n"], cfg["delta_list"]
    reports = _refusing("smicro-profile", dispersion.critical_points, n, samples=81)
    if not reports:
        raise ConfigError(f"smicro-profile: mode {n} has no critical point on [-4, 4]")
    r0 = reports[0]
    on_cone = [_refusing("smicro-profile", spectral.spectral_data, delta,
                         r0.nu_c * spectral.real_cbrt(delta), n, N=cfg["grid_n"])
               for delta in deltas]
    readback = wavepacket._mass_readback(
        wavepacket.WavePacketSpec(delta0=1.0, beta0=r0.nu_c, n=n))
    rep = RunReport("smicro-profile")
    rep.metrics["critical_point"] = asdict(r0)
    rep.metrics["max_on_cone_d1"] = max(abs(d.mu_d1) for d in on_cone)
    rep.metrics["mass_readback"] = asdict(readback)
    rep.checks.append(Check("effective-mass-readback", abs(readback.richardson),
                            _READBACK_BOUND))
    rep.checks.append(Check("on-cone-curvature-deviation",
                            max(abs(d.mu_d2 - r0.curvature) for d in on_cone), 1e-3))
    return rep


_VERDICTS = (dispersion.ALLOWED, dispersion.OBSTRUCTED, dispersion.NOT_ADMISSIBLE)


# the library parses an exponent
_EXPONENT = _converter(_as_given, lambda v: v is None or isinstance(v, (str, int, float)),
                       'be a number, a fraction such as "7/3" or "inf"', text=True)


@_reads(q=("inf", _EXPONENT), p=(2, _EXPONENT),
        expect=(None, _converter(_as_given, lambda v: v is None or v in _VERDICTS,
                                 f"be one of {', '.join(_VERDICTS)}", text=True)))
def run_strichartz(cfg: dict, seed: int) -> RunReport:
    q, p, expected = cfg["q"], cfg["p"], cfg["expect"]
    rep = RunReport("strichartz")
    verdict = _refusing("strichartz", dispersion.strichartz_admissible, q, p)
    rep.metrics["classification"] = verdict
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
SUBCOMMANDS = tuple(_RUNNERS)


def run(subcommand: str, config: dict, out_dir: str | Path | None = None,
        seed: int = 0) -> RunReport:
    """Execute one experiment; write its data files and report.json under
    out_dir, whose path no written byte depends on.

    Raises ValueError for an unknown subcommand, and ConfigError naming every
    config key the subcommand does not read, or the first key whose value
    its converter refuses.  The runner gets every key it declares,
    converted; report.json echoes the config as given.
    """
    if subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    runner = _RUNNERS[subcommand]
    unknown = sorted(set(config) - set(runner.declared))
    if unknown:
        reads = ", ".join(sorted(runner.declared)) or "no keys"
        raise ConfigError(f"{subcommand} does not read config key(s) {', '.join(unknown)}; "
                          f"it reads {reads}")
    cfg = {}
    for key, (default, convert) in runner.declared.items():
        try:
            cfg[key] = convert(config.get(key, default))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{subcommand}: {key} {err}") from None
    report = runner(cfg, seed)
    report.config = dict(config)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_json = json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
        for name, text in {**report.files, "report.json": report_json}.items():
            (out / name).write_text(text)
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
    parser.add_argument("--hbar-ladder", type=_numbers, default=None,
                        help="comma-separated hbar values")
    args = parser.parse_args(argv)

    cfg: dict = {}
    if args.config is not None:
        try:
            cfg = json.loads(args.config.read_text())
        except OSError as err:
            parser.error(f"--config {args.config}: {err.strerror or err}")
        except ValueError as err:  # not UTF-8, or not JSON
            parser.error(f"--config {args.config}: not a JSON file: {err}")
        if not isinstance(cfg, dict):
            parser.error(f"--config {args.config}: must hold a JSON object, "
                         f"got a {type(cfg).__name__}")
    for key in ("n", "q", "p", "grid_n", "hbar_ladder"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)

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
