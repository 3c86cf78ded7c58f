"""The incremental sweep orchestrator.

:class:`SweepRunner` expands a :class:`~repro.sweep.grid.SweepSpec` into
the merged node DAG (:mod:`repro.sweep.dag`), consults the
content-addressed :class:`~repro.sweep.store.ArtifactStore` for every
node, and executes only the *needed misses* — the transitive closure of
uncached work under uncached sinks.  Ready nodes run with bounded
concurrency on a process pool (``workers``) with per-node retry; every
completed node's output is published atomically before the node is
marked done, so an interrupted sweep resumes exactly where it stopped.

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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.report import ExperimentResult
from repro.core.study import Study, build_dc
from repro.obs.runtime import get_telemetry, merge_traced, run_traced
from repro.sweep.canonical import (
    CODE_SCHEMA_VERSION,
    digest_payload,
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
                    point_index=point.index,
                )
                for point in points
            ]
        )

    def _needed(
        self,
        nodes: List[SweepNode],
        cached: Dict[str, bool],
    ) -> List[SweepNode]:
        """Misses in the demand closure of missed sinks, topo-ordered."""
        by_key = {node.key: node for node in nodes}
        needed: Dict[str, SweepNode] = {}

        def need(key: str) -> None:
            if cached[key] or key in needed:
                return
            needed[key] = by_key[key]
            for dep in by_key[key].deps:
                need(dep)

        for node in nodes:
            if node.kind is NodeKind.POINT:
                need(node.key)
        # nodes is already dependency-ordered (builds before experiments
        # before points, per point expansion order).
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

    def _run_point_node(self, node: SweepNode) -> None:
        """Point nodes aggregate in-parent (they are trivially cheap)."""
        digests: Dict[str, str] = {}
        context = node.context
        for experiment_id, key in zip(
            context["experiment_ids"], context["experiment_keys"]
        ):
            envelope = self.store.get(key)
            if envelope is None:
                raise SweepError(
                    f"point {node.label} is missing its experiment "
                    f"artifact {key[:12]}"
                )
            digests[experiment_id] = envelope["payload"]["table_digest"]
        self.store.put(
            node.key,
            "point",
            payload={
                "point_index": context["point_index"],
                "experiment_keys": list(context["experiment_keys"]),
                "table_digests": digests,
            },
        )

    def _attempt(
        self, node: SweepNode, attempt: int, stats: SweepStats, telemetry
    ) -> None:
        """One inline execution attempt (workers == 1 path)."""
        if self._node_hook is not None:
            self._node_hook(node, attempt)
        if node.kind is NodeKind.POINT:
            self._run_point_node(node)
            return
        # Attempts run against a fresh worker handle (the pool protocol)
        # and only the attempt that *succeeded* merges back: a failed-
        # then-retried node must not double-count its partial metrics in
        # the parent's snapshot.
        [outcome] = merge_traced([run_traced(
            _NODE_RUNNERS[node.kind],
            self._payload_for(node),
            fresh=telemetry.enabled,
        )])
        telemetry.histogram(
            "sweep.node_seconds", kind=node.kind.value
        ).observe(outcome["elapsed_s"])

    def _execute_inline(
        self, todo: List[SweepNode], stats: SweepStats, telemetry
    ) -> None:
        for node in todo:
            failures: List[BaseException] = []
            for attempt in range(self.retries + 1):
                if attempt:
                    stats.retries += 1
                    telemetry.counter(
                        "sweep.node_retries", kind=node.kind.value
                    ).inc()
                try:
                    self._attempt(node, attempt, stats, telemetry)
                    break
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    failures.append(error)
            else:
                # ``from failures[-1]`` keeps the final attempt's real
                # traceback on the chain; the key pinpoints the store
                # entry for post-mortem (``label`` is not unique across
                # chunking variants).
                raise SweepError(
                    f"node {node.label} (key {node.key[:12]}) failed "
                    f"after {self.retries + 1} attempt(s): {failures[-1]}"
                ) from failures[-1]
            stats.executed += 1
            telemetry.counter(
                "sweep.nodes_executed", kind=node.kind.value
            ).inc()

    def _execute_pool(
        self, todo: List[SweepNode], stats: SweepStats, telemetry
    ) -> None:
        """Bounded-concurrency scheduling over a process pool.

        Ready nodes (all deps done) dispatch as slots free up; point
        nodes aggregate in-parent.  Worker telemetry snapshots merge in
        node order post-run (integer counters: order-independent).
        """
        by_key = {node.key: node for node in todo}
        done: set = set()
        remaining_deps = {
            node.key: {dep for dep in node.deps if dep in by_key}
            for node in todo
        }
        attempts: Dict[str, int] = {node.key: 0 for node in todo}
        # key -> (outcome, snapshot) of the node's successful attempt.
        traced: Dict[str, Any] = {}
        in_flight: Dict[Any, str] = {}

        def ready() -> List[SweepNode]:
            return [
                node
                for node in todo
                if node.key not in done
                and node.key not in set(in_flight.values())
                and not remaining_deps[node.key]
            ]

        def mark_done(key: str) -> None:
            done.add(key)
            node = by_key[key]
            stats.executed += 1
            telemetry.counter(
                "sweep.nodes_executed", kind=node.kind.value
            ).inc()
            for other in todo:
                remaining_deps[other.key].discard(key)

        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            while len(done) < len(todo):
                for node in ready():
                    if len(in_flight) >= self.workers and (
                        node.kind is not NodeKind.POINT
                    ):
                        break
                    try:
                        # The hook's documented contract: an exception
                        # counts as this attempt's failure (same as the
                        # inline path), it must not abort the sweep
                        # while retry budget remains.
                        if self._node_hook is not None:
                            self._node_hook(node, attempts[node.key])
                        if node.kind is NodeKind.POINT:
                            self._run_point_node(node)
                            mark_done(node.key)
                            continue
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as error:
                        attempts[node.key] += 1
                        if attempts[node.key] > self.retries:
                            raise SweepError(
                                f"node {node.label} (key "
                                f"{node.key[:12]}) failed after "
                                f"{attempts[node.key]} attempt(s): {error}"
                            ) from error
                        stats.retries += 1
                        telemetry.counter(
                            "sweep.node_retries", kind=node.kind.value
                        ).inc()
                        continue
                    future = pool.submit(
                        run_traced,
                        _NODE_RUNNERS[node.kind],
                        self._payload_for(node),
                        fresh=telemetry.enabled,
                    )
                    in_flight[future] = node.key
                if not in_flight:
                    if len(done) < len(todo) and not ready():
                        raise SweepError(
                            "sweep scheduler stalled: no ready nodes and "
                            "nothing in flight (dependency bug?)"
                        )
                    continue
                finished, _ = wait(
                    list(in_flight), return_when=FIRST_COMPLETED
                )
                for future in finished:
                    key = in_flight.pop(future)
                    node = by_key[key]
                    error = future.exception()
                    if error is None:
                        traced[key] = future.result()
                        telemetry.histogram(
                            "sweep.node_seconds", kind=node.kind.value
                        ).observe(traced[key][0]["elapsed_s"])
                        mark_done(key)
                        continue
                    attempts[key] += 1
                    if attempts[key] > self.retries:
                        raise SweepError(
                            f"node {node.label} (key {node.key[:12]}) "
                            f"failed after {attempts[key]} attempt(s): "
                            f"{error}"
                        ) from error
                    stats.retries += 1
                    telemetry.counter(
                        "sweep.node_retries", kind=node.kind.value
                    ).inc()
        # Deterministic merge order: node order, not completion order.
        merge_traced(traced[node.key] for node in todo if node.key in traced)

    def _execute(
        self, todo: List[SweepNode], stats: SweepStats, telemetry
    ) -> None:
        if self.workers == 1:
            self._execute_inline(todo, stats, telemetry)
        else:
            self._execute_pool(todo, stats, telemetry)

    # -- harvesting -----------------------------------------------------------

    def _collect(
        self, points: List[SweepPoint]
    ) -> "Tuple[Dict[int, Dict[str, ExperimentResult]], Dict[int, Dict[str, str]]]":
        from repro.sweep.canonical import experiment_key

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
