"""Perf-regression gate: perfbench A/B between a base tree and this tree.

    python benchmarks/perf_gate.py --base-tree ../base [--summary FILE]
    python benchmarks/perf_gate.py --self-test

Both sides run on one machine in one job, so there is no committed
baseline to refresh.  The gate copies this tree's ``perfbench/`` over the
base tree's, then, for each gated workload W and each seed S in
:data:`SEEDS`, runs ``perfbench/run.py --workload W --trace 1 --seconds
<W's NOMINAL_S> --seed S`` on both trees, alternating which side goes
first.

It fails (exit 1) when, on any layer in :data:`GATED`, the median over
seeds of the per-seed head/base ratio exceeds :data:`MAX_RATIO` (getting
faster never fails); when a head record is not ``correct``; or when the
median head ``obs.trace_overhead_pct`` over every head run exceeds
:data:`MAX_TRACE_OVERHEAD_PCT`, which bounds what enabled telemetry
costs (one traced run of it is too noisy to judge).  A missing or
malformed record exits 2.  ``--summary FILE`` appends a base/head table
of every per-layer metric in ``BENCHMARK.json``; only gated rows fail.
``--self-test`` checks that a synthetic 2x head on each gated layer
fails, naming it, and that identical records pass.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(5))
#: Gated layers per workload: pass 1 in the in-memory study and at large
#: fleet size, and cache replay.  Replay and its page preparation are
#: gated one by one: preparation is about a quarter of their sum in
#: ``study_small``, so a doubled ``prepare_pages`` moved the sum 1.21x,
#: inside the noise, but its own layer 1.8-1.9x.
GATED: Dict[str, Tuple[str, ...]] = {
    "study_small": ("cluster.pass1_s", "cache.replay_s", "cache.prepare_s"),
    "build_large_streamed": ("engine.pass1_s",),
}
#: Largest median head/base ratio of a gated layer.  On a shared 2-vCPU
#: machine A/A per-seed ratios spread over 0.59-1.50 (medians up to 1.25),
#: so a tighter bound on a median of five flakes; a doubled pass-1 kernel
#: still reads 1.61x (the layer also stacks pass 1's inputs), doubled
#: cache work 1.9-2.3x.
MAX_RATIO = 1.5
TRACE_OVERHEAD = "obs.trace_overhead_pct"
MAX_TRACE_OVERHEAD_PCT = 25.0
SLOWDOWN = 2.0

#: workload -> one perfbench record per seed.
Records = Dict[str, List[Dict[str, Any]]]


class GateError(Exception):
    """A record is missing or malformed: the gate cannot judge (exit 2)."""


def _value(run: Any, name: str, where: str) -> float:
    try:
        value = run["metrics"][name]["value"]
    except (KeyError, TypeError):
        raise GateError(f"{where}: record has no metric {name!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        not math.isfinite(value)
    ):
        raise GateError(f"{where}: {name} is {value!r}, not a number")
    return float(value)


def _peek(run: Any, name: str) -> float:
    """An ungated summary value: 0 when absent or not a number."""
    try:
        return _value(run, name, name)
    except GateError:
        return 0.0


def evaluate(
    base: Records, head: Records
) -> Tuple[List[Dict[str, Any]], float, List[str]]:
    """``(gated rows, median head trace overhead, failures)``.

    Raises :class:`GateError` on a missing or malformed record.
    """
    rows: List[Dict[str, Any]] = []
    failures: List[str] = []
    overheads: List[float] = []
    for workload, layers in GATED.items():
        base_runs, head_runs = base.get(workload), head.get(workload)
        if not base_runs or not head_runs or len(base_runs) != len(head_runs):
            raise GateError(f"{workload}: no base and head record per seed")
        for seed, run in enumerate(head_runs):
            where = f"head {workload} run {seed}"
            if not isinstance(run, dict) or not isinstance(
                run.get("correct"), bool
            ):
                raise GateError(f"{where}: record has no 'correct'")
            if not run["correct"]:
                failures.append(f"{where}: outputs are not correct")
            overheads.append(_value(run, TRACE_OVERHEAD, where))
        for layer in layers:
            where = f"{workload} {layer}"
            pairs = [
                (_value(b, layer, f"base {where}"), _value(h, layer, f"head {where}"))
                for b, h in zip(base_runs, head_runs)
            ]
            if min(b for b, _ in pairs) <= 0.0:
                raise GateError(f"base {where}: reads 0, nothing to compare")
            ratios = [h / b for b, h in pairs]
            row = {
                "workload": workload,
                "layer": layer,
                "base": statistics.median(b for b, _ in pairs),
                "head": statistics.median(h for _, h in pairs),
                "ratios": ratios,
                "ratio": statistics.median(ratios),
            }
            row["failed"] = row["ratio"] > MAX_RATIO
            rows.append(row)
            if row["failed"]:
                failures.append(
                    f"REGRESSION {where}: median head/base "
                    f"{row['ratio']:.2f}x > {MAX_RATIO}x"
                )
    overhead = statistics.median(overheads)
    if overhead > MAX_TRACE_OVERHEAD_PCT:
        failures.append(
            f"{TRACE_OVERHEAD}: median head {overhead:.1f}% > "
            f"{MAX_TRACE_OVERHEAD_PCT:g}%"
        )
    return rows, overhead, failures


def write_summary(
    path: Path,
    base: Records,
    head: Records,
    rows: List[Dict[str, Any]],
    overhead: float,
) -> None:
    """Append a markdown base/head/ratio table per gated workload."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["per_layer"]]
    gated = {(row["workload"], row["layer"]): row for row in rows}
    lines = [
        "### Perf gate: base vs head",
        "",
        f"Medians over seeds {list(SEEDS)} of `perfbench/run.py --trace 1`; "
        f"a gated layer fails above {MAX_RATIO}x.  Median head "
        f"`{TRACE_OVERHEAD}`: {overhead:.1f}% (ceiling "
        f"{MAX_TRACE_OVERHEAD_PCT:g}%).  Metrics at 0 on both sides are "
        "left out.",
    ]
    for workload, layers in GATED.items():
        lines += ["", f"#### {workload}", "",
                  "| metric | base | head | head/base | gate |",
                  "|---|---:|---:|---:|---|"]
        for name in names:
            row = gated.get((workload, name))
            if row is not None:
                ratio = f"{row['ratio']:.2f}"
                status = "❌ regression" if row["failed"] else "✅ ok"
            else:
                b = [_peek(run, name) for run in base[workload]]
                h = [_peek(run, name) for run in head[workload]]
                if not any(b) and not any(h):
                    continue
                row = {"base": statistics.median(b),
                       "head": statistics.median(h)}
                ratio = (
                    f"{statistics.median(y / x for x, y in zip(b, h)):.2f}"
                    if min(b) > 0 else "—"
                )
                status = ""
            lines.append(f"| `{name}` | {row['base']:.4g} | "
                         f"{row['head']:.4g} | {ratio} | {status} |")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n\n")


def judge(base: Records, head: Records, summary: Optional[Path] = None) -> int:
    """Print the verdict on two sets of records; returns the exit code."""
    try:
        rows, overhead, failures = evaluate(base, head)
    except GateError as error:
        print(f"perf-gate: {error}", file=sys.stderr)
        return 2
    for row in rows:
        print(
            f"{row['workload']} {row['layer']}: base {row['base']:.4g} s, "
            f"head {row['head']:.4g} s, median ratio {row['ratio']:.2f}x "
            f"(per seed {', '.join(f'{r:.2f}' for r in row['ratios'])})"
        )
    print(f"{TRACE_OVERHEAD}: median head {overhead:.1f}%")
    if summary is not None:
        write_summary(summary, base, head, rows, overhead)
    for line in failures:
        print(f"perf-gate: {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf-gate passed (bound {MAX_RATIO}x)")
    return 0


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> Any:
    """One traced perfbench run in ``tree``; returns its record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--trace", "1",
         "--seconds", repr(seconds), "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise GateError(
            f"{tree} {workload} seed {seed}: perfbench exited "
            f"{done.returncode} without a record:\n{done.stderr[-2000:]}"
        ) from None


def collect(base_tree: Path) -> Tuple[Records, Records]:
    """Run every gated workload and seed on both trees."""
    base_tree = base_tree.resolve()
    if not (base_tree / "src" / "repro").is_dir():
        raise GateError(f"{base_tree} is not a checkout of the repository")
    if base_tree != REPO_ROOT:
        shutil.rmtree(base_tree / "perfbench", ignore_errors=True)
        shutil.copytree(
            REPO_ROOT / "perfbench", base_tree / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import WORKLOADS

    trees = {"base": base_tree, "head": REPO_ROOT}
    records: Dict[str, Records] = {"base": {}, "head": {}}
    # Workloads outermost, so every run follows a run of the same
    # workload: with seeds outermost the first run of each pair followed
    # the other workload and read its cache layers ~30% slower.
    for workload in GATED:
        for seed in SEEDS:
            order = ("base", "head") if seed % 2 == 0 else ("head", "base")
            for side in order:
                records[side].setdefault(workload, []).append(run_perfbench(
                    trees[side], workload, seed, WORKLOADS[workload].NOMINAL_S
                ))
                print(f"ran {side} {workload} seed {seed}", file=sys.stderr)
    return records["base"], records["head"]


def synthetic_records() -> Records:
    """Records with every gated metric at 1 s and a 5% trace overhead."""
    metrics = {
        name: {"value": 1.0, "unit": "s"}
        for layers in GATED.values()
        for name in layers
    }
    metrics[TRACE_OVERHEAD] = {"value": 5.0, "unit": "%"}
    run = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return {w: [copy.deepcopy(run) for _ in SEEDS] for w in GATED}


def slowed(records: Records, workload: str, layer: str, factor: float) -> Records:
    """A copy of ``records`` with one gated layer ``factor`` times slower."""
    out = copy.deepcopy(records)
    for run in out[workload]:
        run["metrics"][layer]["value"] *= factor
    return out


def self_test() -> int:
    """A 2x head fails on each gated layer; identical records pass."""
    base = synthetic_records()
    problems = [f"identical records fail: {f}" for f in evaluate(base, base)[2]]
    for workload, layers in GATED.items():
        for layer in layers:
            failures = evaluate(base, slowed(base, workload, layer, SLOWDOWN))[2]
            if not any(layer in line for line in failures):
                problems.append(f"{SLOWDOWN}x on {workload} {layer} passed")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"self-test ok: {SLOWDOWN}x on each gated layer fails, identical "
          f"records pass (bound {MAX_RATIO}x)")
    return 0


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base-tree", type=Path, metavar="DIR",
        help="checkout of the base commit; its perfbench/ is replaced",
    )
    parser.add_argument(
        "--summary", type=Path, metavar="FILE",
        help="append a markdown base/head table to FILE",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="check the gate catches a synthetic 2x slowdown, then exit",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.base_tree is None:
        parser.error("--base-tree is required (or --self-test)")
    try:
        base, head = collect(args.base_tree)
    except GateError as error:
        print(f"perf-gate: {error}", file=sys.stderr)
        return 2
    return judge(base, head, args.summary)


if __name__ == "__main__":
    raise SystemExit(main())
