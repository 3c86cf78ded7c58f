"""The incremental sweep orchestrator.

:class:`SweepRunner` expands a :class:`~repro.sweep.grid.SweepSpec` into
the merged node DAG (:mod:`repro.sweep.dag`), consults the
content-addressed :class:`~repro.sweep.store.ArtifactStore` for every
node, and executes only the *needed misses*: the missed experiments (the
DAG's sinks) and the missed builds they read.  One ready-queue loop
schedules them with bounded concurrency (``workers``) and per-node
retry, on a process pool or, at ``workers == 1``, on an in-process
executor.  Every completed node's output is published atomically before
the node is marked done, so an interrupted sweep resumes exactly where
it stopped.

Determinism contract: a warm replay, a resumed run, and a cold run of
the same spec produce byte-identical experiment tables — cache hits
replay the exact artifact a cold run would recompute, which the
``combined_digest`` of the outcome (and the kill-and-resume tests) pin.

Telemetry (through :mod:`repro.obs`): ``sweep.node_hits`` /
``sweep.node_misses`` / ``sweep.nodes_executed`` / ``sweep.node_retries``
counters (labelled by node kind), a ``sweep.node_seconds`` histogram,
and ``sweep.run`` / ``sweep.node`` spans.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.report import ExperimentResult
from repro.core.study import Study, build_dc
from repro.obs.runtime import get_telemetry, merge_traced, run_traced
from repro.sweep.canonical import (
    CODE_SCHEMA_VERSION,
    digest_payload,
    experiment_key,
    result_table_digest,
)
from repro.sweep.dag import NodeKind, SweepNode, merge_dags, study_nodes
from repro.sweep.grid import SweepPoint, SweepSpec, override_label
from repro.sweep.store import ArtifactStore
from repro.util.errors import ConfigError, SweepError

#: Version of the sweep outcome JSON payload (``SweepOutcome.to_dict``).
SWEEP_SCHEMA_VERSION = 1


# -- node execution (module-level: must pickle into worker processes) ---------


def _run_build_node(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one DC and publish the pickled result as the artifact."""
    from repro.engine.digest import result_digest

    store = ArtifactStore(payload["store_dir"])
    inputs = payload["inputs"]
    started = time.perf_counter()
    with get_telemetry().span("sweep.node", kind="build", dc=inputs.dc.dc_id):
        result, engine = build_dc(inputs, chunk_epochs=payload["chunk_epochs"])
        try:
            # The artifact outlives a streamed build's temp shard store:
            # it pickles plain per-VD traffic, and no pass-2 draws (a
            # re-simulation draws again).
            result.traffic = list(result.traffic)
            result.draws = None
        finally:
            if engine is not None:
                engine.cleanup()
        digest = result_digest(result)
        store.put(
            payload["key"],
            "build",
            payload={"result_digest": digest, "dc_id": inputs.dc.dc_id},
            meta={"elapsed_s": time.perf_counter() - started},
            blob=result,
        )
    return {
        "key": payload["key"],
        "digest": digest,
        "elapsed_s": time.perf_counter() - started,
    }


def _run_experiment_node(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble a study from cached builds and run one experiment."""
    store = ArtifactStore(payload["store_dir"])
    config = payload["config"]
    experiment_id = payload["experiment_id"]
    started = time.perf_counter()
    with get_telemetry().span(
        "sweep.node", kind="experiment", experiment=experiment_id
    ):
        results = [
            store.get_blob(build_key) for build_key in payload["build_keys"]
        ]
        study = Study.from_results(config, results)
        table = study.run(experiment_id).to_dict()
        digest = result_table_digest(table)
        store.put(
            payload["key"],
            "experiment",
            payload={
                "experiment_id": experiment_id,
                "result": table,
                "table_digest": digest,
            },
            meta={"elapsed_s": time.perf_counter() - started},
        )
    return {
        "key": payload["key"],
        "digest": digest,
        "elapsed_s": time.perf_counter() - started,
    }


_NODE_RUNNERS = {
    NodeKind.BUILD: _run_build_node,
    NodeKind.EXPERIMENT: _run_experiment_node,
}


class _InProcessExecutor(Executor):
    """Runs each call in this process, at submit: the ``workers == 1`` pool.

    Node code, patched runners and telemetry stay in the parent, and
    nothing is pickled.  ``KeyboardInterrupt``/``SystemExit`` propagate.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future


# -- stats / outcome ----------------------------------------------------------


@dataclass
class SweepStats:
    """Cache accounting over the whole node DAG of one run."""

    total: int = 0
    hits: int = 0
    misses: int = 0
    executed: int = 0
    skipped: int = 0
    retries: int = 0
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record(self, kind: str, hit: bool) -> None:
        bucket = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        self.total += 1
        if hit:
            self.hits += 1
            bucket["hits"] += 1
        else:
            self.misses += 1
            bucket["misses"] += 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "hits": self.hits,
            "misses": self.misses,
            "executed": self.executed,
            "skipped": self.skipped,
            "retries": self.retries,
            "hit_rate": self.hit_rate,
            "by_kind": {k: dict(v) for k, v in sorted(self.by_kind.items())},
        }


@dataclass
class SweepOutcome:
    """Everything a finished sweep produced."""

    spec: SweepSpec
    points: List[SweepPoint]
    #: ``results[point_index][experiment_id]`` -> ExperimentResult
    results: Dict[int, Dict[str, ExperimentResult]]
    #: ``table_digests[point_index][experiment_id]`` -> sha256 hex
    table_digests: Dict[int, Dict[str, str]]
    stats: SweepStats
    elapsed_seconds: float
    store_dir: str

    @property
    def combined_digest(self) -> str:
        """One digest over every point's experiment-table digests.

        Cold, warm, and resumed runs of the same spec must agree here —
        the sweep-level extension of the engine's parity contract.
        """
        return digest_payload(
            {
                "schema": CODE_SCHEMA_VERSION,
                "points": {
                    str(point.index): {
                        "config": point.digest,
                        "tables": dict(
                            sorted(self.table_digests[point.index].items())
                        ),
                    }
                    for point in self.points
                },
            }
        )

    def tables(self) -> List[ExperimentResult]:
        """Sweep-level comparison grids, one per experiment.

        Each grid prefixes every row of every point's table with that
        point's axis values — e.g. a ``cache_block_bytes`` axis crossed
        with ``fig7a``'s per-policy rows yields the cache-size x policy
        crossover grid directly.
        """
        axis_names = self.spec.axis_names
        grids: List[ExperimentResult] = []
        for experiment_id in self.spec.experiments:
            rows: List[List[Any]] = []
            headers: Optional[List[str]] = None
            title = experiment_id
            for point in self.points:
                result = self.results[point.index][experiment_id]
                if headers is None:
                    headers = [*axis_names, *result.headers]
                    title = result.title
                prefix = [
                    override_label(value)
                    for _, value in sorted(point.overrides)
                ]
                for row in result.rows:
                    rows.append([*prefix, *row])
            grids.append(
                ExperimentResult(
                    experiment_id=f"sweep:{experiment_id}",
                    title=f"{title} — sweep grid",
                    headers=headers or axis_names,
                    rows=rows,
                )
            )
        return grids

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep_schema_version": SWEEP_SCHEMA_VERSION,
            "axes": {
                name: [override_label(v) for v in self.spec.axes[name]]
                for name in self.spec.axis_names
            },
            "experiments": list(self.spec.experiments),
            "points": [
                {
                    "index": point.index,
                    "overrides": {
                        name: override_label(value)
                        for name, value in point.overrides
                    },
                    "config_digest": point.digest,
                    "results": {
                        experiment_id: {
                            "table_digest": (
                                self.table_digests[point.index][experiment_id]
                            ),
                            "result": result.to_dict(),
                        }
                        for experiment_id, result in sorted(
                            self.results[point.index].items()
                        )
                    },
                }
                for point in self.points
            ],
            "combined_digest": self.combined_digest,
            "cache": self.stats.to_dict(),
            "elapsed_seconds": self.elapsed_seconds,
            "store_dir": self.store_dir,
        }


# -- the runner ---------------------------------------------------------------


class SweepRunner:
    """Schedule one sweep's DAG against an artifact store."""

    def __init__(
        self,
        spec: SweepSpec,
        store_dir: "str | Path",
        *,
        workers: int = 1,
        retries: int = 1,
        chunk_epochs: Optional[int] = None,
        node_hook: "Optional[Callable[[SweepNode, int], None]]" = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.spec = spec
        self.store = ArtifactStore(store_dir)
        self.workers = workers
        self.retries = retries
        self.chunk_epochs = chunk_epochs
        #: Test/ops seam: called as ``hook(node, attempt)`` in the parent
        #: before every execution attempt.  Exceptions count as that
        #: attempt's failure (KeyboardInterrupt/SystemExit propagate).
        self._node_hook = node_hook

    # -- planning -------------------------------------------------------------

    def _dag(self, points: List[SweepPoint]) -> List[SweepNode]:
        return merge_dags(
            [
                study_nodes(
                    point.config,
                    self.spec.experiments,
                    chunk_epochs=self.chunk_epochs,
                )
                for point in points
            ]
        )

    def _needed(
        self,
        nodes: List[SweepNode],
        cached: Dict[str, bool],
    ) -> List[SweepNode]:
        """Missed experiments (the sinks) and the missed builds they read.

        ``nodes`` is dependency-ordered (each point's builds before its
        experiments), and so is the returned list.
        """
        needed = set()
        for node in nodes:
            if node.kind is NodeKind.EXPERIMENT and not cached[node.key]:
                needed.add(node.key)
                needed.update(dep for dep in node.deps if not cached[dep])
        return [node for node in nodes if node.key in needed]

    # -- execution ------------------------------------------------------------

    def run(self) -> SweepOutcome:
        telemetry = get_telemetry()
        started = time.perf_counter()
        points = self.spec.points()
        nodes = self._dag(points)
        stats = SweepStats()
        cached: Dict[str, bool] = {}
        with telemetry.span(
            "sweep.run",
            points=len(points),
            nodes=len(nodes),
            workers=self.workers,
        ):
            for node in nodes:
                hit = self.store.has(node.key)
                cached[node.key] = hit
                stats.record(node.kind.value, hit)
                counter = (
                    "sweep.node_hits" if hit else "sweep.node_misses"
                )
                telemetry.counter(counter, kind=node.kind.value).inc()
            todo = self._needed(nodes, cached)
            stats.skipped = stats.misses - len(todo)
            if todo:
                self._execute(todo, stats, telemetry)
        elapsed = time.perf_counter() - started
        results, digests = self._collect(points)
        return SweepOutcome(
            spec=self.spec,
            points=points,
            results=results,
            table_digests=digests,
            stats=stats,
            elapsed_seconds=elapsed,
            store_dir=str(self.store.directory),
        )

    def _payload_for(self, node: SweepNode) -> Dict[str, Any]:
        payload = dict(node.context)
        payload["key"] = node.key
        payload["store_dir"] = str(self.store.directory)
        return payload

    def _execute(
        self, todo: List[SweepNode], stats: SweepStats, telemetry
    ) -> None:
        """Run ``todo`` in dependency order, ``workers`` nodes at a time.

        One ready-queue loop for every worker count: ready nodes (all
        deps done) are submitted in node order as slots free up, to a
        process pool, or at ``workers == 1`` to an in-process executor
        that runs each call at once.  The hook runs in the parent before
        every attempt; a hook or node failure costs one attempt.  Each
        attempt runs under a fresh telemetry handle, so only successful
        attempts' snapshots merge back, in node order.
        """
        attempts = {node.key: 0 for node in todo}
        # key -> (outcome, snapshot) of the node's successful attempt.
        traced: Dict[str, Any] = {}
        in_flight: Dict[Future, SweepNode] = {}
        pool = (
            ProcessPoolExecutor(max_workers=self.workers)
            if self.workers > 1
            else _InProcessExecutor()
        )
        try:
            with pool:
                while len(traced) < len(todo):
                    busy = {node.key for node in in_flight.values()}
                    ready = [
                        node for node in todo
                        if node.key not in traced and node.key not in busy
                        and all(
                            dep in traced or dep not in attempts
                            for dep in node.deps
                        )
                    ]
                    for node in ready[: self.workers - len(in_flight)]:
                        future: Future = Future()
                        try:
                            if self._node_hook is not None:
                                self._node_hook(node, attempts[node.key])
                            future = pool.submit(
                                run_traced,
                                _NODE_RUNNERS[node.kind],
                                self._payload_for(node),
                                fresh=telemetry.enabled,
                            )
                        except Exception as error:
                            future.set_exception(error)
                        in_flight[future] = node
                    if not in_flight:
                        raise SweepError(
                            "sweep scheduler stalled: no ready nodes and "
                            "nothing in flight (dependency bug?)"
                        )
                    finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in finished:
                        node = in_flight.pop(future)
                        kind = node.kind.value
                        error = future.exception()
                        if error is None:
                            traced[node.key] = future.result()
                            telemetry.histogram(
                                "sweep.node_seconds", kind=kind
                            ).observe(traced[node.key][0]["elapsed_s"])
                            stats.executed += 1
                            telemetry.counter(
                                "sweep.nodes_executed", kind=kind
                            ).inc()
                            continue
                        attempts[node.key] += 1
                        if attempts[node.key] > self.retries:
                            # The key names the store entry (``label``
                            # is not unique across chunking variants);
                            # the chain keeps the last attempt's traceback.
                            raise SweepError(
                                f"node {node.label} (key {node.key[:12]}) "
                                f"failed after {attempts[node.key]} "
                                f"attempt(s): {error}"
                            ) from error
                        stats.retries += 1
                        telemetry.counter(
                            "sweep.node_retries", kind=kind
                        ).inc()
        finally:
            # Node order, not completion order: a deterministic merge.
            merge_traced(
                traced[node.key] for node in todo if node.key in traced
            )

    # -- harvesting -----------------------------------------------------------

    def _collect(
        self, points: List[SweepPoint]
    ) -> "Tuple[Dict[int, Dict[str, ExperimentResult]], Dict[int, Dict[str, str]]]":
        results: Dict[int, Dict[str, ExperimentResult]] = {}
        digests: Dict[int, Dict[str, str]] = {}
        for point in points:
            results[point.index] = {}
            digests[point.index] = {}
            for experiment_id in self.spec.experiments:
                key = experiment_key(point.config, experiment_id)
                envelope = self.store.get(key)
                if envelope is None:
                    raise SweepError(
                        f"experiment artifact missing post-run: "
                        f"{experiment_id} @ {key[:12]}"
                    )
                table = envelope["payload"]["result"]
                results[point.index][experiment_id] = ExperimentResult(
                    experiment_id=table["experiment_id"],
                    title=table["title"],
                    headers=list(table["headers"]),
                    rows=[list(row) for row in table["rows"]],
                    notes=table.get("notes", ""),
                )
                digests[point.index][experiment_id] = (
                    envelope["payload"]["table_digest"]
                )
        return results, digests
