"""Baseline dataset statistics: Tables 2, 3 and 4."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.experiments import experiment
from repro.core.report import ExperimentResult
from repro.stats.skewness import ccr
from repro.trace.dataset import _ColumnarTable
from repro.trace.records import OpKind
from repro.util.units import GiB


def _per_entity_totals(
    table: _ColumnarTable, key_field: str, direction: str
) -> "Dict[int, float]":
    value_field = "read_bytes" if direction == "read" else "write_bytes"
    return table.sum_by(key_field, value_field)


def _median_p2a(
    table: _ColumnarTable, key_field: str, direction: str, duration: int
) -> float:
    value_field = "read_bytes" if direction == "read" else "write_bytes"
    series = table.timeseries_by(key_field, value_field, duration)
    if not series:
        return 0.0
    # p2a() of every row with traffic, as row-wise reductions over the
    # grid the series are views of: each row is contiguous, so its sum,
    # mean and max are the same numpy reductions as per row.
    grid = np.stack(list(series.values()))
    live = grid.sum(axis=1) > 0
    values = grid.max(axis=1)[live] / grid.mean(axis=1)[live]
    return float(np.median(values)) if values.size else 0.0


@experiment("table2", "Dataset summary (Table 2)")
def table2_summary(study) -> ExperimentResult:
    """Counts and totals over all DCs, plus per-user medians/maxima."""
    users = set()
    num_vms = 0
    num_vds = 0
    vms_per_user: Dict[str, int] = {}
    vds_per_user: Dict[str, int] = {}
    read_bytes = write_bytes = 0.0
    read_traces = write_traces = 0
    for result in study.results:
        dc = result.fleet.config.dc_id
        for vm in result.fleet.vms:
            key = f"{dc}/{vm.user_id}"
            users.add(key)
            vms_per_user[key] = vms_per_user.get(key, 0) + 1
        for vd in result.fleet.vds:
            key = f"{dc}/{vd.user_id}"
            vds_per_user[key] = vds_per_user.get(key, 0) + 1
        num_vms += len(result.fleet.vms)
        num_vds += len(result.fleet.vds)
        read_bytes += result.metrics.total_read_bytes()
        write_bytes += result.metrics.total_write_bytes()
        read_traces += int((result.traces.op == int(OpKind.READ)).sum())
        write_traces += int((result.traces.op == int(OpKind.WRITE)).sum())

    rows = [
        ["Total number of user / VM / VD",
         f"{len(users)} / {num_vms} / {num_vds}"],
        ["Median / Max number of VM per user",
         f"{int(np.median(list(vms_per_user.values())))} / "
         f"{max(vms_per_user.values())}"],
        ["Median / Max number of VD per user",
         f"{int(np.median(list(vds_per_user.values())))} / "
         f"{max(vds_per_user.values())}"],
        ["Total write / read traffic (GiB)",
         f"{write_bytes / GiB:.1f} / {read_bytes / GiB:.1f}"],
        ["Total write / read traces",
         f"{write_traces} / {read_traces}"],
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="Dataset summary (Table 2)",
        headers=["Statistic", "Value"],
        rows=rows,
        notes="Shape check: total write traffic exceeds read (paper: 21.7 "
        "vs 6.5 PiB) while read *traces* are the minority.",
    )


@experiment("table3", "Baseline CCR and P2A by aggregation level (Table 3)")
def table3_baseline(study) -> ExperimentResult:
    """1%/20%-CCR and median P2A at CN/VM/SN/Seg level for each DC."""
    rows: List[list] = []
    duration = study.config.duration_seconds
    levels = [
        ("CN", "compute", "compute_node_id"),
        ("VM", "compute", "vm_id"),
        ("SN", "storage", "storage_node_id"),
        ("Seg", "storage", "segment_id"),
    ]
    for result in study.results:
        dc = result.fleet.config.dc_id
        for level, domain, key_field in levels:
            table = getattr(result.metrics, domain)
            for direction in ("read", "write"):
                totals = list(
                    _per_entity_totals(table, key_field, direction).values()
                )
                if not totals:
                    continue
                rows.append(
                    [
                        f"DC-{dc + 1}",
                        level,
                        direction,
                        100.0 * ccr(totals, 0.01),
                        100.0 * ccr(totals, 0.20),
                        _median_p2a(table, key_field, direction, duration),
                    ]
                )
    return ExperimentResult(
        experiment_id="table3",
        title="Baseline CCR and P2A by aggregation level (Table 3)",
        headers=["DC", "level", "dir", "1%-CCR", "20%-CCR", "50%ile P2A"],
        rows=rows,
        notes="Shape checks: read CCR/P2A exceed write at the VM level; "
        "SN level is far flatter than VM/Seg (the storage stripe works).",
    )


@experiment("table4", "Skewness by application type (Table 4)")
def table4_applications(study) -> ExperimentResult:
    """Per-application VM-level CCR and traffic share."""
    by_app: Dict[str, Dict[str, Dict[int, float]]] = {}
    total = {"read": 0.0, "write": 0.0}
    for result in study.results:
        dc = result.fleet.config.dc_id
        table = result.metrics.compute
        for direction in ("read", "write"):
            per_vm = _per_entity_totals(table, "vm_id", direction)
            for vm_id, value in per_vm.items():
                app = result.fleet.vms[vm_id].application
                bucket = by_app.setdefault(app, {"read": {}, "write": {}})
                bucket[direction][(dc, vm_id)] = value
                total[direction] += value

    rows = []
    for app in sorted(by_app):
        row = [app]
        for direction in ("read", "write"):
            values = list(by_app[app][direction].values())
            row.append(100.0 * ccr(values, 0.01) if values else 0.0)
            row.append(100.0 * ccr(values, 0.20) if values else 0.0)
        for direction in ("read", "write"):
            share = sum(by_app[app][direction].values())
            row.append(
                100.0 * share / total[direction] if total[direction] else 0.0
            )
        rows.append(row)
    return ExperimentResult(
        experiment_id="table4",
        title="Skewness by application type (Table 4)",
        headers=[
            "App",
            "1%-CCR R",
            "1%-CCR W",
            "20%-CCR R",
            "20%-CCR W",
            "share R (%)",
            "share W (%)",
        ],
        rows=rows,
        notes="Shape checks: BigData carries the largest share with the "
        "lowest CCR; Docker shows the highest CCR.",
    )
