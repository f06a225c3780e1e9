"""Outside-in benchmark of the ``kahlerpinch`` command line.

Run from the root of a source checkout (the package is imported from
``./src``, nothing is installed):

    python3 perfbench/run.py --workload certify-fiber --seed 1 --seconds 25 --trace 0

One run of a workload:

1. measures set-up: the time to import ``kahlerpinch.cli`` in a fresh
   interpreter, several times, reporting the median;
2. generates the workload's command lines from ``--seed``;
3. drives ``kahlerpinch.cli.main(argv)`` in this process as a closed loop,
   one job after the other, in passes over the job list until ``--seconds``
   have elapsed;
4. rechecks every job's JSON report against exact closed forms;
5. with ``--trace 1``, follows the untraced passes with traced passes of the
   same length, and reports per-layer metrics and the tracing overhead
   instead of the end-to-end metrics.

The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A record of the run (machine context, generated inputs,
per-job times and rechecks, the full per-span summary) is written to
``.perfbench/``, and a traced run also writes its spans there.
"""
from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in the set-up children.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import scaled, timed  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, accuracy_digits, recheck  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import kahlerpinch.cli; "
    "print(time.perf_counter() - t)"
)


def read_steal_ticks() -> int:
    """Host steal time of all CPUs, in clock ticks, from /proc/stat (read only)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_seconds(env: dict) -> float:
    """Import time of ``kahlerpinch.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(import seconds, host probe seconds) for each fresh interpreter."""
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, _, probe_s = timed(import_seconds, env)
        setups.append((seconds, probe_s))
    return setups


def run_job(cli, argv: list) -> tuple[int, str]:
    """One closed-loop job; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job; keep the loop running
        code = -1
        err.write(traceback.format_exc())
    if code != 0:
        print(f"job {' '.join(argv)} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


def run_pass(cli, hirzebruch, argvs: list, tracer: Tracer | None) -> dict:
    gc.collect()
    raw = []
    start = perf_counter()
    for job_id, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job_id, tracer.active = job_id, True
        raw.append(timed(run_job, cli, argv))
        if tracer is not None:
            tracer.active = False
    wall = perf_counter() - start
    jobs = []
    for argv, ((code, text), _, _) in zip(argvs, raw):
        try:
            report = json.loads(text) if code in (0, 1) else None
        except json.JSONDecodeError:
            report = None
        try:
            ok, errors, why = recheck(argv, code, report, hirzebruch)
        except (KeyError, TypeError, ValueError) as exc:
            ok, errors, why = False, [], f"recheck failed: {exc!r}"
        jobs.append({"job": " ".join(argv), "ok": ok, "errors": errors, "why": why})
    return {
        "wall_s": wall,
        "job_s": [t for _, t, _ in raw],
        "probe_s": [p for _, _, p in raw],
        "jobs": jobs,
    }


def run_passes(cli, hirzebruch, argvs, seconds: float, tracer=None, spans_path=None):
    """Passes over the jobs until ``seconds`` have elapsed (at least one pass).

    With a tracer, the spans of the first pass are written to ``spans_path``.
    """
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.clear()
        one = run_pass(cli, hirzebruch, argvs, tracer)
        if tracer is not None:
            one["layers"] = tracer.summary([scaled(1.0, p) for p in one["probe_s"]])
            one["spans"] = len(tracer.name)
            if not passes:
                tracer.write(spans_path)
        passes.append(one)
        if perf_counter() - start >= seconds:
            return passes


def layer_value(layers: dict, metric: str):
    """Value of a per-layer metric from one pass's span summary.

    ``<module>.<function>.<field>`` reads one span name; ``<module>.<field>``
    sums over all spans of the module (its ``s`` and ``self_s`` both sum self
    time, so nested calls inside the module are not counted twice).
    """
    key, field = metric.rsplit(".", 1)
    if "." in key:
        return layers.get(key, {}).get(field, 0)
    rows = [row for name, row in layers.items() if name.split(".", 1)[0] == key]
    if field == "calls":
        return sum(row["calls"] for row in rows)
    return sum(row["self_s"] for row in rows)


COUNT_FIELDS = ("calls", "iters", "nfev", "directions", "samples", "cells",
                "unconverged", "unconverged_cells", "refine_iterations", "s_points")


def work_counts(layers: dict) -> dict:
    return {name: {k: v for k, v in row.items() if k in COUNT_FIELDS}
            for name, row in sorted(layers.items())}


def fastest_third(repeats) -> float:
    """Mean of the fastest third of ``repeats`` (at least one)."""
    fastest = sorted(repeats)[: max(1, math.ceil(len(repeats) / 3))]
    return sum(fastest) / len(fastest)


def job_times(passes) -> list[float]:
    """Each job's time over the run's passes, at the reference host speed.

    The host's speed drifts by tens of percent within seconds, faster than the
    probe around a job can follow; the fastest repeats are the least disturbed,
    and averaging a third of them damps a probe reading that was itself slow.
    """
    per_pass = [list(map(scaled, one["job_s"], one["probe_s"])) for one in passes]
    return [fastest_third(repeats) for repeats in zip(*per_pass)]


def end_to_end(passes, setup_times) -> dict:
    jobs = [job for one in passes for job in one["jobs"]]
    errors = [e for job in jobs for e in job["errors"]]
    times = job_times(passes)
    return {
        "setup_s": statistics.median(scaled(t, p) for t, p in setup_times),
        "wall_s": sum(times),
        "slowest_job_s": max(times),
        "pass_ratio": sum(job["ok"] for job in jobs) / len(jobs),
        "accuracy_digits": accuracy_digits(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, untraced, traced) -> dict:
    values = {}
    for name in names:
        if name.startswith("trace."):
            continue
        if name.rsplit(".", 1)[1] in COUNT_FIELDS:
            # Identical in every traced pass (checked in main).
            values[name] = layer_value(traced[0]["layers"], name)
        else:
            values[name] = statistics.median(layer_value(one["layers"], name) for one in traced)
    untraced_wall = sum(job_times(untraced))
    traced_wall = sum(job_times(traced))
    values.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": traced[0]["spans"],
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    missing = [str(p) for p in (SRC / PACKAGE / "cli.py", spec_path) if not p.is_file()]
    if missing:
        print(f"error: run from the root of a source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    kept = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    steal_before = read_steal_ticks()
    run_start = perf_counter()

    setup_times = measure_setup(env)
    sys.path.insert(0, str(SRC))
    import kahlerpinch.cli as cli
    import kahlerpinch.hirzebruch as hirzebruch
    import numpy
    import scipy

    if Path(cli.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    argvs, inputs = WORKLOADS[args.workload](args.seed)
    untraced = run_passes(cli, hirzebruch, argvs, args.seconds)
    passes = untraced
    counts_repeat = True
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run_passes(cli, hirzebruch, argvs, args.seconds, tracer,
                            OUT_DIR / f"{tag}-spans.csv")
        passes = untraced + traced
        counts = [work_counts(one["layers"]) for one in traced]
        counts_repeat = all(c == counts[0] for c in counts)
        metrics = per_layer([m["name"] for m in kept], untraced, traced)
    else:
        metrics = end_to_end(untraced, setup_times)

    attempted = sum(len(one["jobs"]) for one in passes)
    failed = sum(not job["ok"] for one in passes for job in one["jobs"])
    cpu = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
            "steal_ticks_before": steal_before,
            "steal_ticks_after": read_steal_ticks(),
        },
        "run_wall_s": perf_counter() - run_start,
        "run_cpu_s": cpu.ru_utime + cpu.ru_stime,
        "inputs": inputs,
        "jobs": [" ".join(a) for a in argvs],
        "setup_s_and_probe_s": setup_times,
        "passes": [{k: v for k, v in one.items() if k != "layers"} for one in passes],
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "wall_s": sum(map(fastest_third, zip(*(one["job_s"] for one in untraced)))),
            "median_pass_wall_s": statistics.median(one["wall_s"] for one in untraced),
        },
        "work_counts_repeat": counts_repeat,
        "metrics": metrics,
    }
    if args.trace:
        record["wrapped"] = sorted(set(tracer.wrapped))
        record["layers"] = [one["layers"] for one in traced]
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(argvs)} jobs, inputs {json.dumps(inputs)}")
    print(f"machine {json.dumps(record['machine'])}")
    print(f"unscaled times {json.dumps(record['unscaled'])}")
    for job in (j for one in passes for j in one["jobs"] if not j["ok"]):
        print(f"FAILED recheck: {job['job']}: {job['why']}")
    if args.trace:
        print(f"work counts repeat across traced passes: {counts_repeat}")
    result = {}
    for m in kept:
        value = metrics[m["name"]]
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and counts_repeat
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
