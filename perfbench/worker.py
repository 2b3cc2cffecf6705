"""One pass of a workload, in a fresh process.

A pass imports engellab, generates the workload's inputs from the seed (the
set-up), runs the experiment list once with every check, and writes one JSON
result.  Each pass is its own process, so the scipy imports, the PBW
normal-form cache and the packet-machinery cache start cold, as they do for
a CLI call.

    python3 perfbench/worker.py --workload certify --seed 0 --base DIR \
        --result FILE [--setup-only] [--trace FILE] [--rerun]
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before any import that set-up should count

import argparse  # noqa: E402
import ctypes  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def sweep_pool_size() -> int:
    """Threads the dispersion sweep runs on; 1 once the library has no pool."""
    from engellab import cli

    workers = getattr(cli, "_workers", None)
    return workers() if workers else 1


def machine_record() -> dict:
    """Interpreter, numerical libraries, BLAS builds and their thread counts."""
    import numpy
    import scipy

    blas = []
    maps = Path("/proc/self/maps")
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text()))) \
        if maps.exists() else []
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                blas.append(dict(library=Path(path).name,
                                 config=get_config().decode(),
                                 threads=int(get_threads())))
                break
    env = {k: os.environ.get(k) for k in ("ENGEL_NUM_WORKERS", "OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    pool = sweep_pool_size()
    return dict(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=blas,
        thread_env=env,
        launcher_caps={},
        sweep_pool_size=pool,
        sweep_runnable_threads=pool * max([b["threads"] for b in blas] or [1]),
    )


def _same_tree(a: Path, b: Path) -> bool:
    """True when the two directories hold the same files, byte for byte."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_tree(a / d, b / d) for d in cmp.common_dirs
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None,
                        help="write the spans of a traced pass here")
    parser.add_argument("--rerun", action="store_true",
                        help="run one experiment a second time and compare outputs")
    args = parser.parse_args(argv)

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    result: dict = dict(setup_s=setup_s, machine=machine_record(), inputs=inputs.record)
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out = args.base / "out"
    failures: dict[str, list[str]] = {}
    exp_s: dict[str, float] = {}
    t0 = time.perf_counter()
    with tracer.span("bench.pass") if tracer else nullcontext():
        for exp in inputs.experiments:
            with tracer.experiment(exp.exp_id, f"bench.{exp.subcommand}") \
                    if tracer else nullcontext():
                t = time.perf_counter()
                try:
                    failed = workloads.run_experiment(exp, out)
                except Exception as err:  # an experiment that raises is a failure
                    traceback.print_exc()
                    failed = [f"raised {type(err).__name__}: {err}"]
                exp_s[exp.subcommand] = exp_s.get(exp.subcommand, 0.0) + (
                    time.perf_counter() - t)
            if failed:
                failures[exp.exp_id] = failed
        for exp_id, failed in workloads.workload_checks(inputs, out).items():
            failures.setdefault(exp_id, []).extend(failed)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        import layers

        result["layers"], summary = layers.per_layer(tracer, sweep_pool_size())
        # nested spans of one thread tile the pass exactly; a gap or an
        # overlap means a wrapper lost or misplaced a call
        ratio = result["layers"]["trace.self_sum_ratio"]
        if summary["threads"] == 1 and not abs(ratio - 1.0) <= 1e-9:
            failures.setdefault("trace", []).append(f"self times sum to {ratio!r} of wall")
        args.trace.write_text(json.dumps(dict(
            workload=args.workload, seed=args.seed, summary=summary,
            spans=[[s.name, s.start - t0, s.end - t0, s.parent, s.thread, s.exp, s.attrs]
                   for s in tracer.spans],
        )))
        tracer.spans.clear()  # the rerun below is not part of the pass
    if args.rerun:
        exp = next(e for e in inputs.experiments if e.exp_id == inputs.rerun)
        again = args.base / "rerun"
        try:
            workloads.run_experiment(exp, again)
            same = _same_tree(out / exp.exp_id, again / exp.exp_id)
        except Exception as err:
            traceback.print_exc()
            same = False
            failures.setdefault(exp.exp_id, []).append(f"rerun raised {err!r}")
        if not same:
            failures.setdefault(exp.exp_id, []).append("rerun-output-differs")

    result.update(
        wall_s=wall_s,
        exp_s=exp_s,
        peak_rss_mb=peak_rss_mb,
        attempted=len(inputs.experiments),
        failures=failures,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
