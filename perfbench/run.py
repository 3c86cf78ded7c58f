"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one after another

Run it from a checkout of the repository; it needs no install, only the
sources under ``src/``.  A run measures a panel of inputs: ``--seconds``
divided by the workload's ``NOMINAL_S``, at least one, each built from
its own workload seed.  The seeds come from a pool of the ``POOL``
reference seeds whose recorded cost (``costs.json``) is nearest the
median, and ``--seed`` picks which of them (:func:`panel`).  Each input
runs in a fresh process (one process, ``workers=1``, one BLAS thread)
that builds it, runs the timed phase and checks the outputs.  The
end-to-end metrics are medians over the panel:

- ``setup_s``: process start until the timed phase can begin;
- ``wall_s``: the timed phase;
- ``peak_rss_mib``: the process's ``VmHWM`` at the end of the timed phase;
- ``events_per_s``: units of work the timed phase completed per second:
  experiments for ``study_small``, per-DC builds for
  ``build_large_streamed``, replayed events for ``live_replay``.

With ``--trace 1`` the panel's middle input runs once more under
:mod:`layers` tracing and the per-layer metrics are printed instead, with
``obs.trace_overhead_pct`` comparing its ``wall_s`` to the untraced
run of the same input, whose output digest it must reproduce.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output check failed or a worker crashed, and 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from worker import REFERENCE_SEEDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Recorded cost of each reference seed's input (``record_costs.py``).
COSTS_PATH = os.path.join(HERE, "costs.json")
#: ``run_seconds`` in ``BENCHMARK.json``: the default ``--seconds``.
RUN_SECONDS = 40
#: Reference seeds a run draws its inputs from: those nearest the median
#: recorded cost.  It is also the most inputs one run measures.
POOL = 16
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("events_per_s", "1/s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run (not an output-check failure)."""


def _worker_env(tmp: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Temp files (the streamed build's shard stores) stay in the checkout.
    env["TMPDIR"] = tmp
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: str, seed: int, mode: str) -> Dict[str, Any]:
    """Run one worker process to completion; returns its record."""
    tmp = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        t0 = time.monotonic()
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "worker.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--mode", mode,
                "--t0", repr(t0),
            ],
            cwd=ROOT,
            env=_worker_env(tmp),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(
            f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S:.0f} s"
        ) from error
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{workload} {mode} worker exited {done.returncode}:\n"
            f"{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def panel(workload: str, seed: int, seconds: float) -> List[int]:
    """The workload seeds one run measures, a function of its arguments.

    A run covers ``count = seconds / NOMINAL_S`` distinct inputs (at
    least one, at most ``POOL``).  The reference seeds are ordered by
    their recorded cost (``costs.json``); the ``POOL`` in the middle of
    that order make the pool, and the run takes ``count`` consecutive
    ones from it, starting at ``seed * count`` and wrapping around.
    Inputs of one run cost about the same, so the medians average the
    machine's noise over the whole panel instead of reading the one
    input that happens to sit in the middle, and no run's median hangs
    on whether it drew a rare input several times as costly as the rest.
    """
    nominal = WORKLOADS[workload].NOMINAL_S
    count = min(POOL, max(1, round(seconds / nominal)))
    with open(COSTS_PATH) as handle:
        costs = json.load(handle)[workload]
    order = sorted(range(REFERENCE_SEEDS), key=lambda s: (costs[str(s)], s))
    first = (len(order) - POOL) // 2
    pool = order[first:first + POOL]
    return [pool[(seed * count + i) % POOL] for i in range(count)]


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Measure one workload; returns the result object to print."""
    seeds = panel(workload, seed, seconds)
    runs = [spawn(workload, s, "timed") for s in seeds]
    checked = list(runs)
    problems = sorted({p for run in runs for p in run["problems"]})
    if trace:
        middle = len(seeds) // 2
        untraced = runs[middle]
        traced = spawn(workload, seeds[middle], "traced")
        checked.append(traced)
        problems += traced["problems"]
        if traced["digest"] != untraced["digest"]:
            problems.append("traced run's outputs differ from the untraced")
            traced["failed"] = traced["attempted"]
        layer_values = dict(traced["layers"])
        base = untraced["wall_s"]
        layer_values["obs.trace_overhead_pct"] = (
            100.0 * (traced["wall_s"] - base) / base
        )
        metrics = {
            name: {"value": layer_values[name], "unit": layers.unit_of(name)}
            for name in layers.metric_names()
        }
    else:
        values = {
            "setup_s": statistics.median(run["setup_s"] for run in runs),
            "wall_s": statistics.median(run["wall_s"] for run in runs),
            "peak_rss_mib": statistics.median(
                run["peak_rss_mib"] for run in runs
            ),
            "events_per_s": statistics.median(
                run["work"] / run["wall_s"] for run in runs
            ),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    attempted = sum(run["attempted"] for run in checked)
    failed = sum(run["failed"] for run in checked)
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _sources_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reproduction."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _sources_present():
        print(
            f"perfbench: no sources under {os.path.join(ROOT, 'src')}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        try:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
        except BenchError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        if len(names) > 1:
            for metric, entry in result["metrics"].items():
                print(f"{name:22s} {metric:28s} {entry['value']:14.6g} "
                      f"{entry['unit']}")
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
