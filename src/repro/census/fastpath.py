"""Array-native batched analysis engine — the census fast path.

The reference pipeline (:func:`repro.core.igreedy.igreedy` driven by
:func:`repro.census.analysis.analyze_matrix`) re-derives identical
geometry for every target: each of ~1,500 anycast /24s rebuilds a
pairwise haversine matrix over disks that are all centered on the same
~300 vantage points, materializes a ``LatencySample``/``Disk`` object per
matrix cell, and classifies each selected disk with per-city Python
arithmetic.  This module exploits the structural fact the paper's own
optimization leans on (Sec. 3.5): **the disk centers are fixed**.

* :class:`SharedGeometry` computes the VP-to-VP great-circle matrix once
  per :class:`~repro.census.combine.RttMatrix` (cached on the matrix
  object) and never builds a target's V × V overlap matrix.  It derives
  only the overlap *rows* a step reads — a gap-cache row plus a radii sum,
  zero per-target trigonometry:

  - the detection witness scans rows in sample order (ascending RTT, so
    the smallest disks first) in growing blocks of at most
    :data:`~repro.core.detection.TILE_CELLS` cells and stops at the first
    row holding a disjoint pair — that row's first disjoint column is
    exactly ``np.argwhere(~overlap)[0]`` of the full matrix;
  - greedy MIS (:func:`~repro.core.enumeration.greedy_mis` with
    ``overlap_row=``) reads only the rows of the disks it selects,
    O(V·k) for k selections instead of O(V²); iterative enumeration does
    the same over the combined VP + city gap matrix once disks collapse.
* Classification reads a cached city-to-VP distance matrix and the
  gazetteer's cached population array, with a per-``(vp_index, radius)``
  replica cache (iterative enumeration re-classifies near-identical
  disks across rounds and across targets).
* :func:`analyze_matrix_fast` optionally chunks the detected targets
  across the :mod:`repro.exec` fork pool and merges results in canonical
  row order, so any worker count produces identical output.

The hard invariant: for every configuration (strict/iterative
enumeration, any ``population_exponent``, ``max_rtt_ms`` on or off) and
any worker count, the fast path's :class:`AnalysisResult` is equivalent
object-for-object to the reference path's — same prefixes, masks,
replica cities, confidences and iteration counts.  Equality is bitwise
because every distance consumed here is produced by the same elementwise
haversine the reference calls, just computed once instead of per target
(see ``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import queue as queue_mod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.detection import (
    PROBE_DISKS,
    TILE_CELLS,
    DetectionResult,
    detection_mask,
    radius_matrix,
)
from ..core.enumeration import greedy_mis
from ..core.geolocation import classify_disks
from ..core.igreedy import IGreedyConfig, IGreedyResult, _dedup_by_city
from ..geo.cities import CityDB, default_city_db
from ..geo.coords import pairwise_distances_from_radians
from ..geo.disks import OVERLAP_SLACK_KM, Disk
from ..obs import current_metrics, current_tracer
from .combine import RttMatrix


def overlap_rows(
    gap: np.ndarray, points: np.ndarray, radii_km: np.ndarray, rows
) -> np.ndarray:
    """Rows ``rows`` of the disk-overlap matrix of disks on cached points.

    Disk *i* is centered on point ``points[i]`` of the gap matrix ``gap``
    (:attr:`SharedGeometry.vp_gap` or :attr:`SharedGeometry.combined`).
    Row for row equal to :func:`repro.geo.disks.overlap_matrix` on the
    same disks — a gap-cache slice plus a radii sum instead of fresh
    haversine, and only the rows asked for.
    """
    gaps = gap[points[rows, None], points]
    return gaps <= radii_km[rows, None] + radii_km + OVERLAP_SLACK_KM


class SharedGeometry:
    """Geometry shared by every target of one (matrix, gazetteer) pair.

    Every disk of every target is centered on a vantage point, and
    iterative enumeration only ever moves a center onto a city — so three
    cached matrices (VP-VP, city-VP, city-city) cover every distance the
    whole analysis can ask for.
    """

    def __init__(self, matrix: RttMatrix, city_db: CityDB) -> None:
        self.matrix = matrix
        self.city_db = city_db
        #: (V, V) great-circle gaps, cached on the matrix instance.
        self.vp_gap = matrix.vp_distance_matrix()
        self.vp_points = matrix.vp_locations
        self.n_vps = matrix.n_vps
        # Lexicographic rank of each VP name: min_rtt_samples orders
        # ties by name, and ranks let an integer lexsort reproduce that.
        order = np.argsort(np.array(matrix.vp_names))
        self.name_rank = np.empty(len(order), dtype=np.int64)
        self.name_rank[order] = np.arange(len(order))
        self._vp_lat_rad = np.radians(
            np.array([p.lat for p in self.vp_points], dtype=np.float64)
        )
        self._vp_lon_rad = np.radians(
            np.array([p.lon for p in self.vp_points], dtype=np.float64)
        )
        self._city_vp: Optional[np.ndarray] = None
        self._combined: Optional[np.ndarray] = None

    @property
    def city_vp(self) -> np.ndarray:
        """(n_cities, n_vps) city-to-VP distances — the classification input.

        Column *j* is bit-identical to what ``classify_disk`` computes
        fresh for a disk centered on VP *j*.
        """
        if self._city_vp is None:
            lat_rad, lon_rad = self.city_db.coordinates_radians()
            matrix = pairwise_distances_from_radians(
                lat_rad, lon_rad, self._vp_lat_rad, self._vp_lon_rad
            )
            matrix.setflags(write=False)
            self._city_vp = matrix
        return self._city_vp

    @property
    def combined(self) -> np.ndarray:
        """(V+C, V+C) gap matrix over VPs then cities (iterative mode).

        Point id *p* is VP *p* for ``p < n_vps`` and city ``p - n_vps``
        otherwise; any mix of original and collapsed disk centers can be
        compared by fancy-indexing this one matrix.
        """
        if self._combined is None:
            city_lat, city_lon = self.city_db.coordinates_radians()
            lat = np.concatenate([self._vp_lat_rad, city_lat])
            lon = np.concatenate([self._vp_lon_rad, city_lon])
            # One call over the concatenated coordinates: every entry is
            # computed in exactly the orientation ``overlap_matrix`` would
            # use for the same pair, with no symmetry assumption.
            combined = pairwise_distances_from_radians(lat, lon, lat, lon)
            combined.setflags(write=False)
            self._combined = combined
        return self._combined

    def target_arrays(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """One target's ``(vp_indices, rtt_ms)`` in reference sample order.

        Reproduces ``min_rtt_samples``: ascending RTT, ties broken by VP
        name — but as a lexsort over the row, with no objects built.
        """
        rtt_row = self.matrix.rtt_ms[row].astype(np.float64)
        present = np.nonzero(~np.isnan(rtt_row))[0]
        rtt = rtt_row[present]
        order = np.lexsort((self.name_rank[present], rtt))
        return present[order], rtt[order]

    def first_disjoint_pair(
        self, vp_indices: np.ndarray, radii_km: np.ndarray
    ) -> Optional[Tuple[int, int]]:
        """The first disjoint pair of the overlap matrix, in row-major order.

        Equal to ``np.argwhere(~overlap)[0]`` of the full matrix (the
        serialized detection witness), but scans rows in sample order —
        ascending RTT, so the smallest disks, which witness most anycast
        targets, come first — and stops at the first row holding a
        disjoint pair.  Rows are tested in growing blocks of at most
        ``TILE_CELLS`` cells; ``None`` when every pair overlaps.
        """
        n = len(vp_indices)
        start, width = 0, PROBE_DISKS
        while start < n:
            stop = min(n, start + width)
            rows = np.arange(start, stop)
            disjoint = np.argwhere(~overlap_rows(self.vp_gap, vp_indices, radii_km, rows))
            if len(disjoint):
                i, j = disjoint[0]
                return start + int(i), int(j)
            start = stop
            width = max(width, TILE_CELLS // n)
        return None


class FastAnalysisEngine:
    """Per-run state of the fast path: geometry plus classification cache."""

    def __init__(
        self,
        matrix: RttMatrix,
        city_db: Optional[CityDB] = None,
        config: Optional[IGreedyConfig] = None,
    ) -> None:
        self.config = config or IGreedyConfig()
        self.city_db = city_db or default_city_db()
        self.geometry = SharedGeometry(matrix, self.city_db)
        #: (vp_index, radius_km) -> (GeolocatedReplica, city index).  The
        #: same disk recurs across iterative rounds and across targets
        #: (quantized RTTs from the same VP); classification depends only
        #: on the key once the gazetteer and exponent are fixed.
        self._replica_cache: Dict[Tuple[int, float], Tuple[object, int]] = {}

    def warm(self, iterative: bool = False) -> None:
        """Materialize the lazy caches (e.g. before forking workers)."""
        self.geometry.city_vp
        if iterative:
            self.geometry.combined

    # -- classification ------------------------------------------------

    def classify_vp_disks(
        self, vp_indices: Sequence[int], radii_km: Sequence[float]
    ) -> List[Tuple[object, int]]:
        """Batched geolocation of VP-centered disks, through the cache.

        Uncached disks are classified in one :meth:`CityDB.classify_disks`
        call whose geometry is a column slice of the cached city-VP
        matrix; results are memoized per ``(vp_index, radius)``.
        """
        keys = [(int(v), float(r)) for v, r in zip(vp_indices, radii_km)]
        missing = [k for k in keys if k not in self._replica_cache]
        if missing:
            # Deduplicate while preserving order (dict keys are ordered).
            missing = list(dict.fromkeys(missing))
            disks = [
                Disk(center=self.geometry.vp_points[v], radius_km=r)
                for v, r in missing
            ]
            cols = self.geometry.city_vp[:, [v for v, _ in missing]]
            replicas = classify_disks(
                disks,
                self.city_db,
                population_exponent=self.config.population_exponent,
                center_distances=cols,
            )
            for key, replica in zip(missing, replicas):
                self._replica_cache[key] = (
                    replica,
                    self.city_db.index_of(replica.city),
                )
        return [self._replica_cache[k] for k in keys]

    # -- per-target pipeline -------------------------------------------

    def igreedy_arrays(
        self, vp_indices: np.ndarray, rtt_ms: np.ndarray
    ) -> IGreedyResult:
        """The full iGreedy pipeline on ``(vp_index, rtt)`` arrays.

        Mirrors :func:`repro.core.igreedy.igreedy` stage for stage —
        detection, MIS enumeration, classification, optional iterative
        collapse — but every distance is a cached-matrix lookup.
        """
        cfg = self.config
        geo = self.geometry
        metrics = current_metrics()
        n = len(vp_indices)

        with current_tracer().span("igreedy", samples=n) as span:
            radii = rtt_ms / 2.0 * cfg.speed_km_per_ms

            # Detection: any disjoint pair among the unfiltered disks.
            if n < 2:
                detection = DetectionResult(is_anycast=False, sample_count=n)
                return IGreedyResult(detection=detection)
            witness = geo.first_disjoint_pair(vp_indices, radii)
            detection = DetectionResult(
                is_anycast=witness is not None, witness=witness, sample_count=n
            )
            result = IGreedyResult(detection=detection)
            if witness is None:
                return result

            # Uninformative-sample filter (with the reference's fallback
            # to the unfiltered set when it leaves fewer than two disks).
            if cfg.max_rtt_ms is not None:
                keep = np.nonzero(rtt_ms <= cfg.max_rtt_ms)[0]
                if len(keep) < 2:
                    keep = np.arange(n)
            else:
                keep = np.arange(n)
            vps = vp_indices[keep]
            radii_f = radii[keep]
            m = len(vps)
            metrics.histogram("disks_per_target").observe(m)

            if cfg.strict_enumeration:
                selected = greedy_mis(
                    radii_km=radii_f,
                    overlap_row=lambda i: overlap_rows(geo.vp_gap, vps, radii_f, i),
                )
                classified = self.classify_vp_disks(
                    vps[selected], radii_f[selected]
                )
                result.replicas = _dedup_by_city([r for r, _ in classified])
                result.iterations = 1
            else:
                self._iterate(result, vps, radii_f)

            metrics.histogram("igreedy_iterations").observe(result.iterations)
            metrics.counter("replicas_enumerated").inc(result.replica_count)
            span.set("replicas", result.replica_count)
            return result

    def _iterate(
        self,
        result: IGreedyResult,
        vps: np.ndarray,
        radii: np.ndarray,
    ) -> None:
        """Paper-style iteration: collapse classified disks, re-run MIS."""
        cfg = self.config
        geo = self.geometry
        m = len(vps)
        # Point ids into the gap matrices: VP index while original,
        # n_vps + city index once collapsed onto a classified city.  Until
        # the first collapse every disk is VP-centered and rows come from
        # the VP gap cache; afterwards from the combined VP+city matrix.
        point_ids = vps.astype(np.int64).copy()
        cur_radii = radii.copy()
        classified: List[Optional[object]] = [None] * m
        gaps = geo.vp_gap

        def overlap_row(i: int) -> np.ndarray:
            return overlap_rows(gaps, point_ids, cur_radii, i)

        for iteration in range(1, cfg.max_iterations + 1):
            selected = greedy_mis(radii_km=cur_radii, overlap_row=overlap_row)
            fresh = [i for i in selected if classified[i] is None]
            if fresh:
                for i, (replica, city_idx) in zip(
                    fresh,
                    self.classify_vp_disks(vps[fresh], radii[fresh]),
                ):
                    classified[i] = replica
                    point_ids[i] = geo.n_vps + city_idx
                    cur_radii[i] = 0.0
            result.iterations = iteration
            if not fresh:
                break
            gaps = geo.combined

        final = greedy_mis(radii_km=cur_radii, overlap_row=overlap_row)
        result.replicas = _dedup_by_city(
            [classified[i] for i in final if classified[i] is not None]
        )

    def analyze_row(self, row: int) -> IGreedyResult:
        """Analyze one matrix row end to end."""
        vp_indices, rtt = self.geometry.target_arrays(row)
        return self.igreedy_arrays(vp_indices, rtt)


# -- parallel stage -----------------------------------------------------


def _encode_result(result: IGreedyResult, city_db: CityDB) -> tuple:
    """Flatten one result to primitives for the queue (compact record).

    A pickled :class:`IGreedyResult` drags ``City`` objects (names,
    country strings, populations) across the pipe per replica; the
    compact form is the city's gazetteer index plus the disk scalars —
    a few dozen bytes per target regardless of gazetteer size.
    """
    detection = result.detection
    return (
        detection.is_anycast,
        detection.witness,
        detection.sample_count,
        result.iterations,
        tuple(
            (
                city_db.index_of(replica.city),
                replica.disk.center.lat,
                replica.disk.center.lon,
                replica.disk.radius_km,
                replica.confidence,
            )
            for replica in result.replicas
        ),
    )


def _decode_result(encoded: tuple, city_db: CityDB) -> IGreedyResult:
    """Rebuild the exact :class:`IGreedyResult` from its compact record.

    Cities resolve through the shared gazetteer (the same objects the
    serial path classifies to), so decoded results are object-for-object
    equivalent to never having crossed a process boundary.
    """
    from ..core.geolocation import GeolocatedReplica
    from ..geo.coords import GeoPoint

    is_anycast, witness, sample_count, iterations, replicas = encoded
    result = IGreedyResult(
        detection=DetectionResult(
            is_anycast=is_anycast, witness=witness, sample_count=sample_count
        ),
        iterations=iterations,
    )
    result.replicas = [
        GeolocatedReplica(
            city=city_db.city_at(city_index),
            disk=Disk(center=GeoPoint(lat, lon), radius_km=radius_km),
            confidence=confidence,
        )
        for city_index, lat, lon, radius_km, confidence in replicas
    ]
    return result


@dataclass
class _AnalysisUnitContext:
    """Duck-typed :class:`repro.exec.pool.UnitContext` for analysis chunks.

    Shipped to workers by fork inheritance; a unit is one chunk of
    detected matrix rows, and its payload is the per-prefix results.
    When the matrix is store-backed the context also carries the
    :class:`~repro.census.matstore.StoreToken`, and workers re-attach
    their row shards from it (``prepare_worker``) instead of trusting
    inherited heap pages — the descriptor that crosses the fork is
    ``(chunk row slice, token)``, never the dense planes.  Results are
    compacted at the queue boundary (``encode_payload``) so the return
    traffic is per-target records, not pickled object graphs.
    """

    engine: FastAnalysisEngine
    chunks: Tuple[np.ndarray, ...]
    store_token: Optional[object] = field(default=None)
    worker_faults: Optional[object] = field(default=None)

    def execute(self, unit_id: int) -> List[Tuple[int, IGreedyResult]]:
        rows = self.chunks[unit_id]
        prefixes = self.engine.geometry.matrix.prefixes
        return [(int(prefixes[row]), self.engine.analyze_row(row)) for row in rows]

    # -- pool hooks (see repro.exec.pool.worker_main) -------------------

    def prepare_worker(self, worker_id: int) -> None:
        """Re-bind the matrix planes to the attached store, once per worker.

        In a forked child the attach is a registry hit on the inherited
        mapping (zero-copy either way); the point is that the worker's
        view is the *store's* pages — file- or shm-backed and shared —
        not private copies the fork could be asked to duplicate.
        """
        if self.store_token is None:
            return
        from .matstore import MatrixStore

        store = MatrixStore.attach(self.store_token)
        matrix = self.engine.geometry.matrix
        matrix.rtt_ms = store.arrays["rtt_ms"]
        matrix.sample_count = store.arrays["sample_count"]

    def encode_payload(self, payload: List[Tuple[int, IGreedyResult]]) -> list:
        city_db = self.engine.city_db
        return [(prefix, _encode_result(result, city_db)) for prefix, result in payload]

    def decode_payload(self, payload: list) -> List[Tuple[int, IGreedyResult]]:
        city_db = self.engine.city_db
        return [(prefix, _decode_result(encoded, city_db)) for prefix, encoded in payload]


def _analyze_rows_parallel(
    engine: FastAnalysisEngine,
    rows: np.ndarray,
    workers: int,
) -> Dict[int, IGreedyResult]:
    """Fan detected rows over the :mod:`repro.exec` fork pool.

    Chunks are merged in canonical chunk order, so the resulting dict's
    contents *and insertion order* are identical to the serial loop for
    any worker count.  A worker that dies or errors has its chunks
    re-executed in the parent — same computation, same result (or the
    same exception the serial path would have raised).
    """
    from ..exec.pool import (
        MSG_ERR,
        MSG_METRICS,
        MSG_OK,
        WorkerPool,
        drain_worker_metrics,
        fork_available,
    )

    from ..exec.plan import split_rows

    matrix = engine.geometry.matrix
    n_chunks = min(len(rows), max(workers * 4, workers))
    chunks = split_rows(rows, n_chunks)
    context = _AnalysisUnitContext(
        engine=engine,
        chunks=chunks,
        store_token=matrix.store.token() if matrix.store is not None else None,
    )

    if not fork_available():
        # Same plan, same merge order, no parallelism.
        payloads = {cid: context.execute(cid) for cid in range(n_chunks)}
        return _merge_payloads(payloads, n_chunks)

    # Materialize the shared geometry before forking so children inherit
    # it copy-on-write instead of each recomputing it.
    engine.warm(iterative=not engine.config.strict_enumeration)

    payloads: Dict[int, List[Tuple[int, IGreedyResult]]] = {}
    pending = set(range(n_chunks))
    pool = WorkerPool(context)
    metrics = current_metrics()
    metrics_received: set = set()
    try:
        handles = [pool.spawn() for _ in range(min(workers, n_chunks))]
        for cid in range(n_chunks):
            handles[cid % len(handles)].dispatch(cid)
        for handle in handles:
            handle.task_q.put(None)  # drain sentinel after the last chunk
        while pending:
            try:
                kind, _wid, unit_id, payload = pool.out_q.get(timeout=0.5)
            except queue_mod.Empty:
                # Salvage chunks stranded on dead workers in the parent.
                for handle in list(pool.workers.values()):
                    if handle.alive or handle.retired:
                        continue
                    for unit in handle.assigned:
                        if unit in pending:
                            payloads[unit] = context.execute(unit)
                            pending.discard(unit)
                            metrics.counter("analysis_chunks_salvaged").inc()
                    pool.retire(handle)
                continue
            if kind == MSG_METRICS:
                # A drained worker's in-worker registry (per-target
                # histograms): merge so parallel totals match serial.
                metrics_received.add(_wid)
                metrics.merge(payload)
            elif kind == MSG_OK:
                payloads[unit_id] = context.decode_payload(payload)
                pending.discard(unit_id)
            elif kind == MSG_ERR:
                # Re-run in the parent: deterministic — it either succeeds
                # (transient worker trouble) or raises exactly what the
                # serial path would have raised.
                payloads[unit_id] = context.execute(unit_id)
                pending.discard(unit_id)
        drain_worker_metrics(
            pool, metrics, received=metrics_received, send_sentinels=False
        )
    finally:
        pool.shutdown()
    metrics.counter("analysis_chunks_completed").inc(n_chunks)
    return _merge_payloads(payloads, n_chunks)


def _merge_payloads(
    payloads: Dict[int, List[Tuple[int, IGreedyResult]]], n_chunks: int
) -> Dict[int, IGreedyResult]:
    """Canonical-order merge: ascending chunk id, then row order within."""
    results: Dict[int, IGreedyResult] = {}
    for cid in range(n_chunks):
        for prefix, result in payloads[cid]:
            results[prefix] = result
    return results


# -- entry point --------------------------------------------------------


def analyze_matrix_fast(
    matrix: RttMatrix,
    city_db: Optional[CityDB] = None,
    config: Optional[IGreedyConfig] = None,
    min_samples: int = 3,
    workers: int = 0,
):
    """Array-native equivalent of :func:`repro.census.analysis.analyze_matrix`.

    ``workers > 0`` chunks the detected targets over a forked worker pool
    (``repro.exec``); ``0`` runs the same chunk plan serially in-process.
    Output is identical for every worker count, and so are metric totals:
    each worker records per-target histograms in its own registry and
    ships the snapshot home on drain, where it is merged bucket-wise
    (:func:`repro.exec.pool.drain_worker_metrics`).
    """
    from .analysis import AnalysisResult

    cfg = config or IGreedyConfig()
    db = city_db or default_city_db()
    metrics = current_metrics()

    vp_dist = matrix.vp_distance_matrix()
    radii = radius_matrix(matrix.rtt_ms, cfg.speed_km_per_ms)
    filled = (~np.isnan(matrix.rtt_ms)).sum(axis=1)
    enough = filled >= min_samples
    mask = detection_mask(vp_dist, radii) & enough

    if metrics.enabled:
        metrics.gauge("rtt_matrix_cells").set(int(matrix.rtt_ms.size))
        metrics.gauge("rtt_matrix_filled_cells").set(int(filled.sum()))
        metrics.gauge("rtt_matrix_targets").set(matrix.n_targets)
        if matrix.store is not None:
            metrics.gauge("matrix_store_bytes").set(int(matrix.store.nbytes))
        metrics.counter("targets_analyzed").inc(matrix.n_targets)
        metrics.counter("targets_classified_anycast").inc(int(mask.sum()))

    engine = FastAnalysisEngine(matrix, city_db=db, config=cfg)
    rows = np.nonzero(mask)[0]
    result = AnalysisResult(prefixes=matrix.prefixes, anycast_mask=mask)
    if workers and workers > 0 and len(rows) > 0:
        result.results = _analyze_rows_parallel(engine, rows, workers)
    else:
        for row in rows:
            result.results[int(matrix.prefixes[row])] = engine.analyze_row(row)
    return result
