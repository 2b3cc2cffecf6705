"""engellab benchmark: time to a certified result for the paper's experiments.

    python3 perfbench/run.py --workload {branch-sweep,certify,packet-residual} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from ./src.
Every pass of a workload runs in a fresh process (perfbench/worker.py), so
caches and imports start cold as for a CLI call.  Load comes from that one
process; the benchmark sets no thread cap.

--trace 0 runs passes until the next one would end after --seconds (at
least one), plus two set-up-only processes, and reports the end-to-end
metrics as medians over them:

    wall_s       experiment list with every check, set-up excluded
    setup_s      import engellab and generate the inputs from the seed
    peak_rss_mb  peak resident set of the pass process

--trace 1 runs one traced pass and reports its per-layer metrics (see
perfbench/layers.py), the time of each experiment (exp.<subcommand>_s),
failed_ratio and trace.overhead_ratio, the share of the traced wall time the
wrappers add.

Every run also repeats one experiment of the workload with the same
(config, seed) in a second directory.  Any experiment that raises or fails a
check, or whose repeat writes different files, counts in `failed`.  The
last line of stdout is the JSON result; the line before it records the
machine, the seed and the inputs generated from it.  Exits non-zero without
a result when the library cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("branch-sweep", "certify", "packet-residual")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # every run ends, children included, inside 180 s
EXPERIMENT_METRICS = ("dispersion", "critical-points", "smicro-profile", "plancherel",
                      "identities", "matrix-coefficients", "residual-scaling", "transport")


class PassError(RuntimeError):
    """A pass process failed or overran; the run reports no result."""


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def pass_(self, *flags: str) -> dict:
        """Run the worker once and return its result."""
        self.count += 1
        base = self.work / f"pass{self.count}"
        base.mkdir(parents=True)
        result = base / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--base", str(base), "--result", str(result),
               *flags]
        left = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired as err:
            raise PassError(f"pass {self.count} overran the run deadline") from err
        if proc.returncode != 0 or not result.exists():
            raise PassError(f"pass {self.count} exited with {proc.returncode}")
        out = json.loads(result.read_text())
        out["base"] = base
        return out


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(runner: Runner, seconds: int) -> tuple[dict, list[dict]]:
    probes = [runner.pass_("--setup-only") for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.pass_(*(() if passes else ("--rerun",))))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:  # next pass would overrun
            break
    metrics = {
        "wall_s": (_median([p["wall_s"] for p in passes]), "s"),
        "setup_s": (_median([p["setup_s"] for p in probes + passes]), "s"),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in passes]), "MiB"),
    }
    return metrics, passes


def trace(runner: Runner) -> tuple[dict, list[dict]]:
    import layers

    traced = runner.pass_("--rerun", "--trace",
                          str(WORK / f"trace-{runner.workload}-seed{runner.seed}.json"))
    metrics = {name: (traced["layers"][name], unit) for name, unit in layers.units().items()}
    for name in EXPERIMENT_METRICS:
        metrics[f"exp.{name}_s"] = (traced["exp_s"].get(name, 0.0), "s")
    metrics["failed_ratio"] = (len(traced["failures"]) / traced["attempted"], "1")
    return metrics, [traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="engellab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed not negative")
    if not (ROOT / "src" / "engellab" / "__init__.py").is_file():
        print(f"perfbench: no engellab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, passes = trace(runner)
        else:
            metrics, passes = measure(runner, args.seconds)
    except PassError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f"pass{i}:{k}: {v}" for i, p in enumerate(passes, 1)
                for k, v in p["failures"].items()]
    for line in failures:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(json.dumps(dict(workload=args.workload, seed=args.seed, trace=args.trace,
                          passes=len(passes), inputs=passes[0]["inputs"],
                          machine=passes[0]["machine"])))
    print(json.dumps(dict(
        correct=not failures,
        attempted=attempted,
        failed=len(failures),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
