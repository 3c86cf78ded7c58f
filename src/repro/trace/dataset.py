"""Columnar containers for the trace, metric and specification datasets.

Tables store one numpy array per field.  Analyses that need to slice by
entity or re-aggregate by time work on the arrays directly; tests and file
IO use the row-record views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.trace.records import (
    ComputeMetricRecord,
    OpKind,
    StorageMetricRecord,
    TraceRecord,
    VdSpec,
    VmSpec,
)
from repro.util.errors import DatasetError


class _ColumnarTable:
    """Base for tables stored as parallel numpy arrays.

    Subclasses define ``INT_FIELDS`` and ``FLOAT_FIELDS``; the constructor
    accepts one keyword per field and validates equal lengths.
    """

    INT_FIELDS: Tuple[str, ...] = ()
    FLOAT_FIELDS: Tuple[str, ...] = ()

    def __init__(self, **columns: Sequence[float]):
        expected = set(self.INT_FIELDS) | set(self.FLOAT_FIELDS)
        given = set(columns)
        if given != expected:
            missing = expected - given
            extra = given - expected
            raise DatasetError(
                f"bad columns for {type(self).__name__}: "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        length = None
        for name in self.INT_FIELDS:
            arr = np.asarray(columns[name], dtype=np.int64)
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise DatasetError(
                    f"column {name} has length {arr.size}, expected {length}"
                )
            setattr(self, name, arr)
        for name in self.FLOAT_FIELDS:
            arr = np.asarray(columns[name], dtype=np.float64)
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise DatasetError(
                    f"column {name} has length {arr.size}, expected {length}"
                )
            setattr(self, name, arr)
        self._length = int(length or 0)

    def __len__(self) -> int:
        return self._length

    def columns(self) -> Dict[str, np.ndarray]:
        """All columns as a name -> array mapping (views, not copies)."""
        return {
            name: getattr(self, name)
            for name in (*self.INT_FIELDS, *self.FLOAT_FIELDS)
        }

    def where(self, mask: np.ndarray) -> "_ColumnarTable":
        """A new table containing only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.size != self._length:
            raise DatasetError(
                f"mask length {mask.size} != table length {self._length}"
            )
        return type(self)(
            **{name: arr[mask] for name, arr in self.columns().items()}
        )

    def concat(self, other: "_ColumnarTable") -> "_ColumnarTable":
        """A new table with the rows of both tables."""
        if type(other) is not type(self):
            raise DatasetError(
                f"cannot concat {type(self).__name__} with {type(other).__name__}"
            )
        return type(self)(
            **{
                name: np.concatenate([arr, getattr(other, name)])
                for name, arr in self.columns().items()
            }
        )

    # -- aggregation helpers -------------------------------------------------

    def sum_by(self, key_field: str, value_field: str) -> Dict[int, float]:
        """Sum ``value_field`` grouped by integer ``key_field``."""
        keys = getattr(self, key_field)
        values = getattr(self, value_field)
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inverse, values)
        return {int(k): float(s) for k, s in zip(uniq, sums)}

    def timeseries_by(
        self, key_field: str, value_field: str, total_seconds: int
    ) -> Dict[int, np.ndarray]:
        """Per-key traffic time series of length ``total_seconds``.

        Rows outside ``[0, total_seconds)`` raise, since that indicates a
        duration mismatch between the dataset and the caller.
        """
        timestamps = getattr(self, "timestamp").astype(np.int64)
        if timestamps.size and (
            timestamps.min() < 0 or timestamps.max() >= total_seconds
        ):
            raise DatasetError(
                "timestamps fall outside [0, total_seconds); "
                f"range is [{timestamps.min()}, {timestamps.max()}]"
            )
        keys = getattr(self, key_field)
        values = getattr(self, value_field)
        uniq, inverse = np.unique(keys, return_inverse=True)
        grid = np.zeros((uniq.size, total_seconds))
        np.add.at(grid, (inverse, timestamps), values)
        return {int(k): grid[i] for i, k in enumerate(uniq)}


class ComputeMetricTable(_ColumnarTable):
    """Second-granularity per-QP traffic in the compute domain (Table 1)."""

    INT_FIELDS = (
        "timestamp",
        "cluster_id",
        "compute_node_id",
        "user_id",
        "vm_id",
        "vd_id",
        "wt_id",
        "qp_id",
    )
    FLOAT_FIELDS = ("read_bytes", "write_bytes", "read_iops", "write_iops")

    @classmethod
    def from_records(
        cls, records: Iterable[ComputeMetricRecord]
    ) -> "ComputeMetricTable":
        records = list(records)
        return cls(
            **{
                name: [getattr(r, name) for r in records]
                for name in (*cls.INT_FIELDS, *cls.FLOAT_FIELDS)
            }
        )

    def record(self, index: int) -> ComputeMetricRecord:
        return ComputeMetricRecord(
            **{
                name: (
                    int(getattr(self, name)[index])
                    if name in self.INT_FIELDS
                    else float(getattr(self, name)[index])
                )
                for name in (*self.INT_FIELDS, *self.FLOAT_FIELDS)
            }
        )

    def records(self) -> Iterator[ComputeMetricRecord]:
        for index in range(len(self)):
            yield self.record(index)


class StorageMetricTable(_ColumnarTable):
    """Second-granularity per-segment traffic in the storage domain."""

    INT_FIELDS = (
        "timestamp",
        "cluster_id",
        "storage_node_id",
        "block_server_id",
        "user_id",
        "vm_id",
        "vd_id",
        "segment_id",
    )
    FLOAT_FIELDS = ("read_bytes", "write_bytes", "read_iops", "write_iops")

    @classmethod
    def from_records(
        cls, records: Iterable[StorageMetricRecord]
    ) -> "StorageMetricTable":
        records = list(records)
        return cls(
            **{
                name: [getattr(r, name) for r in records]
                for name in (*cls.INT_FIELDS, *cls.FLOAT_FIELDS)
            }
        )

    def record(self, index: int) -> StorageMetricRecord:
        return StorageMetricRecord(
            **{
                name: (
                    int(getattr(self, name)[index])
                    if name in self.INT_FIELDS
                    else float(getattr(self, name)[index])
                )
                for name in (*self.INT_FIELDS, *self.FLOAT_FIELDS)
            }
        )

    def records(self) -> Iterator[StorageMetricRecord]:
        for index in range(len(self)):
            yield self.record(index)


class TraceDataset(_ColumnarTable):
    """Sampled per-IO traces with per-component latencies."""

    INT_FIELDS = (
        "trace_id",
        "op",
        "size_bytes",
        "offset_bytes",
        "user_id",
        "vm_id",
        "vd_id",
        "qp_id",
        "wt_id",
        "compute_node_id",
        "segment_id",
        "block_server_id",
        "storage_node_id",
    )
    FLOAT_FIELDS = (
        "timestamp",
        "lat_compute_us",
        "lat_frontend_us",
        "lat_block_server_us",
        "lat_backend_us",
        "lat_chunk_server_us",
    )

    def __init__(self, sampling_rate: float = 1.0, **columns):
        if not 0.0 < sampling_rate <= 1.0:
            raise DatasetError(
                f"sampling rate must be in (0, 1], got {sampling_rate}"
            )
        super().__init__(**columns)
        self.sampling_rate = float(sampling_rate)

    def where(self, mask: np.ndarray) -> "TraceDataset":
        mask = np.asarray(mask, dtype=bool)
        if mask.size != len(self):
            raise DatasetError(
                f"mask length {mask.size} != table length {len(self)}"
            )
        return TraceDataset(
            sampling_rate=self.sampling_rate,
            **{name: arr[mask] for name, arr in self.columns().items()},
        )

    def concat(self, other: "TraceDataset") -> "TraceDataset":
        if not isinstance(other, TraceDataset):
            raise DatasetError("can only concat TraceDataset with TraceDataset")
        if other.sampling_rate != self.sampling_rate:
            raise DatasetError(
                "cannot concat traces with different sampling rates: "
                f"{self.sampling_rate} vs {other.sampling_rate}"
            )
        return TraceDataset(
            sampling_rate=self.sampling_rate,
            **{
                name: np.concatenate([arr, getattr(other, name)])
                for name, arr in self.columns().items()
            },
        )

    @classmethod
    def from_records(
        cls, records: Iterable[TraceRecord], sampling_rate: float = 1.0
    ) -> "TraceDataset":
        records = list(records)
        return cls(
            sampling_rate=sampling_rate,
            **{
                name: [getattr(r, name) for r in records]
                for name in (*cls.INT_FIELDS, *cls.FLOAT_FIELDS)
            },
        )

    def record(self, index: int) -> TraceRecord:
        kwargs = {}
        for name in self.INT_FIELDS:
            value = int(getattr(self, name)[index])
            kwargs[name] = OpKind(value) if name == "op" else value
        for name in self.FLOAT_FIELDS:
            kwargs[name] = float(getattr(self, name)[index])
        return TraceRecord(**kwargs)

    def records(self) -> Iterator[TraceRecord]:
        for index in range(len(self)):
            yield self.record(index)

    @property
    def latency_us(self) -> np.ndarray:
        """End-to-end latency per trace (sum of the five components)."""
        return (
            self.lat_compute_us
            + self.lat_frontend_us
            + self.lat_block_server_us
            + self.lat_backend_us
            + self.lat_chunk_server_us
        )

    def reads(self) -> "TraceDataset":
        return self.where(self.op == int(OpKind.READ))

    def writes(self) -> "TraceDataset":
        return self.where(self.op == int(OpKind.WRITE))

    def for_vd(self, vd_id: int) -> "TraceDataset":
        return self.where(self.vd_id == vd_id)

    def estimated_total_ios(self) -> float:
        """Estimated unsampled IO count (sampled count / sampling rate)."""
        return len(self) / self.sampling_rate


@dataclass
class SpecDataset:
    """Specification data: per-VD limits and per-VM applications."""

    vd_specs: List[VdSpec] = field(default_factory=list)
    vm_specs: List[VmSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._vd_by_id = {spec.vd_id: spec for spec in self.vd_specs}
        self._vm_by_id = {spec.vm_id: spec for spec in self.vm_specs}
        if len(self._vd_by_id) != len(self.vd_specs):
            raise DatasetError("duplicate vd_id in specification data")
        if len(self._vm_by_id) != len(self.vm_specs):
            raise DatasetError("duplicate vm_id in specification data")

    def vd(self, vd_id: int) -> VdSpec:
        if vd_id not in self._vd_by_id:
            raise DatasetError(f"unknown vd_id {vd_id}")
        return self._vd_by_id[vd_id]

    def vm(self, vm_id: int) -> VmSpec:
        if vm_id not in self._vm_by_id:
            raise DatasetError(f"unknown vm_id {vm_id}")
        return self._vm_by_id[vm_id]

    def vds_of_vm(self, vm_id: int) -> List[VdSpec]:
        return [spec for spec in self.vd_specs if spec.vm_id == vm_id]

    def application_of_vm(self, vm_id: int) -> str:
        return self.vm(vm_id).application


@dataclass
class MetricDataset:
    """The paired compute/storage metric tables plus the study duration."""

    compute: ComputeMetricTable
    storage: StorageMetricTable
    duration_seconds: int

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise DatasetError("duration_seconds must be positive")

    def total_read_bytes(self) -> float:
        return float(self.compute.read_bytes.sum())

    def total_write_bytes(self) -> float:
        return float(self.compute.write_bytes.sum())
