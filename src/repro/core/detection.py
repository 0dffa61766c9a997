"""Anycast detection via speed-of-light violations (paper Fig. 3b).

A single IP answered two vantage points with RTTs so small that the disks
bounding the responder's position do not intersect: no single machine can
be in both disks, therefore at least two replicas share the address — the
target is anycast.  The test has no false positives (RTTs only ever
*inflate* above propagation delay, so a unicast host always lies inside
every disk) and is conservative: overlap does not prove unicast.

One predicate decides disjointness everywhere: disks *i* and *j* are
disjoint when ``gap_ij > (r_i + r_j) + OVERLAP_SLACK_KM`` — the exact
negation of :meth:`repro.geo.disks.Disk.overlaps`.

Interfaces:

* :func:`detect` — object-level, for a handful of samples;
* :func:`detection_mask` — vectorized over a whole census (the
  O(10^6)-target hot path);
* :func:`disjoint_rows` / :func:`disjoint_involvement` — the disjoint-pair
  kernel behind the mask, also used by VP trust scoring
  (:mod:`repro.resilience.vptrust`).

Per block of targets the kernel sorts each target's radii and tests the
*sorted* disks, a few at a time, against every disk of the target: the
VP-gap rows of the tested disks are gathered (``gap[v_i, :]``) and
compared with ``(r_i + r) + slack``.  Three things keep the work small:

* **Exact prune.**  Let ``D`` be the largest VP gap.  A violating pair
  needs ``min(r_i, r_j) < D/2`` (and ``r_i + r_j < D``), so only a
  target's *small* disks (``2r < D``) are ever tested; every pair with a
  violation has its smaller disk among them.  The prune holds in floating
  point, not only over the reals, because IEEE rounding is monotone:
  adding ``slack >= 0`` never lowers a sum, so a violation gives
  ``fl(r_i + r_j) <= fl(fl(r_i + r_j) + slack) < gap_ij <= D``; and with
  ``m = min(r_i, r_j)``, ``fl(2m) <= fl(r_i + r_j)`` because ``2m <= r_i +
  r_j`` and rounding preserves order (``2m`` is exact unless it overflows
  to ``inf``, which rounding also orders correctly).  Hence ``fl(2m) < D``.
  A missing sample (NaN) is an infinite radius and is never small.
* **Early exit.**  A target's smallest disks witness most anycast
  violations, so the first tile probes only :data:`PROBE_DISKS` of them;
  a target leaves the block's later tiles as soon as one tile finds a
  violation.
* **Bounded scratch.**  A tile holds at most ``max(TILE_CELLS, V)``
  float64 cells (gathered gaps and pair sums, reused across tiles, sized
  to stay in a core's cache); a block's sort scratch holds
  ``max(BLOCK_CELLS, V)`` radii; the largest gap is a reduction that
  makes no V x V temporary.  Scratch is thus independent of the number
  of targets and at most linear in V (beyond the gap matrix itself).

The gap matrix must be symmetric (every great-circle matrix here is:
the haversine is symmetric in its arguments), so testing pair *(i, j)*
from the smaller disk's side decides the unordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..geo.disks import FIBER_SPEED_KM_PER_MS, OVERLAP_SLACK_KM, any_disjoint_pair
from ..obs import current_metrics, current_tracer
from .samples import LatencySample, min_rtt_samples, samples_to_disks

#: Float64 cells one kernel tile may hold (gathered gaps, pair sums).
TILE_CELLS = 1 << 15
#: Radius cells one sorted block of targets may hold (the sort scratch).
BLOCK_CELLS = 1 << 18
#: Sorted disks of every target tested by a block's first tile.
PROBE_DISKS = 4


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the anycast test for one target."""

    is_anycast: bool
    #: Indices (into the deduplicated sample list) of one witness pair of
    #: disjoint disks, when anycast.
    witness: Optional[Tuple[int, int]] = None
    #: Number of usable samples the decision was based on.
    sample_count: int = 0


def detect(
    samples: Sequence[LatencySample],
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS,
) -> DetectionResult:
    """Run the speed-of-light-violation test on one target's samples."""
    with current_tracer().span("detection", samples=len(samples)):
        deduped = min_rtt_samples(samples)
        disks = samples_to_disks(deduped, speed_km_per_ms)
        if len(disks) < 2:
            return DetectionResult(is_anycast=False, sample_count=len(disks))
        pair = any_disjoint_pair(disks)
        return DetectionResult(
            is_anycast=pair is not None,
            witness=pair,
            sample_count=len(disks),
        )


# -- the disjoint-pair kernel -------------------------------------------


class _Block:
    """One block of targets: radii, their ascending order, small-disk counts."""

    def __init__(self, radii: np.ndarray, reach: float) -> None:
        #: (b, V) radii with missing samples as +inf.
        self.safe = np.where(np.isnan(radii), np.inf, radii)
        #: (b, V) VP index of each target's k-th smallest disk.
        self.order = np.argsort(self.safe, axis=1)
        #: Disks per target that can be the smaller disk of a violation
        #: (they occupy the first ``n_small`` sorted positions).
        self.n_small = np.count_nonzero(2.0 * self.safe < reach, axis=1)


class _Kernel:
    """Gap matrix, its reach and the reusable tile scratch."""

    def __init__(
        self, gap: np.ndarray, radii: np.ndarray, chunk: Optional[int] = None
    ) -> None:
        self.gap = np.ascontiguousarray(gap, dtype=np.float64)
        self.radii = np.asarray(radii, dtype=np.float64)
        n_vps = self.radii.shape[1]
        if self.gap.shape != (n_vps, n_vps):
            raise ValueError("vp distance matrix shape mismatch")
        self.n_vps = n_vps
        # The largest VP gap; fmax skips NaN gaps (they never witness
        # anything) without a V x V mask.
        self.reach = float(np.fmax.reduce(self.gap, axis=None, initial=-np.inf))
        self.rows_per_block = chunk or max(1, BLOCK_CELLS // max(n_vps, 1))
        cells = max(TILE_CELLS, n_vps)
        self._gaps = np.empty(cells)
        self._sums = np.empty(cells)
        self._hits = np.empty(cells, dtype=bool)

    def blocks(self) -> Iterator[Tuple[int, _Block]]:
        for start in range(0, self.radii.shape[0], self.rows_per_block):
            yield start, _Block(self.radii[start : start + self.rows_per_block], self.reach)

    def width(self, wanted: int) -> int:
        """Sorted disks per tile: ``wanted``, capped so one row fits."""
        return max(1, min(wanted, TILE_CELLS // self.n_vps))

    def tiles(
        self, block: _Block, rows: np.ndarray, i0: int, i1: int
    ) -> Iterator[Tuple[slice, np.ndarray]]:
        """Disjointness of sorted disks ``i0:i1`` of ``rows`` vs every disk.

        Yields ``(part, hits)``: ``hits[u, k, j]`` is True when the
        ``(i0 + k)``-th smallest disk of target ``rows[part][u]`` and its
        VP-*j* disk are disjoint.  ``hits`` is a view of reused scratch,
        valid until the next step of the iteration.
        """
        n = self.n_vps
        t = i1 - i0
        step = max(1, TILE_CELLS // (t * n))
        tested = block.order[rows, i0:i1]
        others = block.safe[rows]
        tested_r = np.take_along_axis(others, tested, axis=1)[:, :, None]
        others = others[:, None, :]
        for r0 in range(0, len(rows), step):
            part = slice(r0, min(r0 + step, len(rows)))
            cells = (part.stop - r0) * t * n
            shape = (part.stop - r0, t, n)
            gaps = self._gaps[:cells].reshape(shape)
            sums = self._sums[:cells].reshape(shape)
            hits = self._hits[:cells].reshape(shape)
            np.take(self.gap, tested[part], axis=0, out=gaps)
            np.add(tested_r[part], others[part], out=sums)
            sums += OVERLAP_SLACK_KM
            np.greater(gaps, sums, out=hits)
            yield part, hits


def disjoint_rows(
    vp_distances_km: np.ndarray,
    radii_km: np.ndarray,
    chunk: Optional[int] = None,
) -> np.ndarray:
    """Per target: does some pair of its disks violate the speed of light?

    ``radii_km`` is (n_targets, n_vps) with NaN for a missing sample;
    ``chunk`` overrides the targets per sorted block.  Equal, target for
    target, to ``(gap > (r_i + r_j) + slack).any()`` over all V² pairs.
    """
    kernel = _Kernel(vp_distances_km, radii_km, chunk)
    out = np.zeros(kernel.radii.shape[0], dtype=bool)
    if kernel.n_vps == 0:
        return out
    for start, block in kernel.blocks():
        decided = out[start : start + len(block.safe)]
        i0, width = 0, kernel.width(PROBE_DISKS)
        while True:
            rows = np.flatnonzero(~decided & (block.n_small > i0))
            if len(rows) == 0:
                break
            i1 = min(i0 + width, int(block.n_small[rows].max()))
            for part, hits in kernel.tiles(block, rows, i0, i1):
                found = hits.reshape(len(hits), -1).any(axis=1)
                decided[rows[part][found]] = True
            i0 = i1
    return out


def disjoint_involvement(vp_distances_km: np.ndarray, radii_km: np.ndarray) -> np.ndarray:
    """Per target and VP: how many of the target's disks are disjoint from it.

    Returns (n_targets, n_vps) int64 counts equal to
    ``(gap > (r_i + r_j) + slack).sum(axis=-1)`` of the V × V pair cube
    (the diagonal included).  Only small disks are tested: a small disk's
    count is its own row sum; a large disk can only be disjoint from small
    ones, so its count is its column sum over the small disks' rows.
    """
    kernel = _Kernel(vp_distances_km, radii_km)
    n_targets, n_vps = kernel.radii.shape
    counts = np.zeros((n_targets, n_vps), dtype=np.int64)
    if n_vps == 0:
        return counts
    # Every small disk is tested here (no early exit), so tiles take
    # more sorted disks at a time than the probe does.
    width = kernel.width(4 * PROBE_DISKS)
    for start, block in kernel.blocks():
        own = np.zeros(block.safe.shape, dtype=np.int64)
        cross = np.zeros(block.safe.shape, dtype=np.int64)
        i0 = 0
        while True:
            rows = np.flatnonzero(block.n_small > i0)
            if len(rows) == 0:
                break
            i1 = min(i0 + width, int(block.n_small[rows].max()))
            for part, hits in kernel.tiles(block, rows, i0, i1):
                sub = rows[part]
                flags = hits.view(np.uint8)
                cross[sub] += flags.sum(axis=1, dtype=np.int64)
                own[sub[:, None], block.order[sub, i0:i1]] = flags.sum(axis=2, dtype=np.int64)
            i0 = i1
        small = 2.0 * block.safe < kernel.reach
        counts[start : start + len(block.safe)] = np.where(small, own, cross)
    return counts


def detection_mask(
    vp_distances_km: np.ndarray,
    radii_km: np.ndarray,
    chunk: Optional[int] = None,
) -> np.ndarray:
    """Vectorized anycast detection over many targets.

    Parameters
    ----------
    vp_distances_km:
        (n_vps, n_vps) great-circle distances between vantage points.
    radii_km:
        (n_targets, n_vps) disk radii; NaN marks a missing sample (the VP
        got no reply from that target).
    chunk:
        Targets per sorted block (default: as many as fit
        :data:`BLOCK_CELLS`); any value gives the same mask.

    Returns
    -------
    Boolean array of shape (n_targets,): True where some pair of disks is
    disjoint, i.e. ``distance(v_i, v_j) > (r_i + r_j) + OVERLAP_SLACK_KM``.
    """
    radii_km = np.asarray(radii_km, dtype=np.float64)
    n_targets = radii_km.shape[0]
    with current_tracer().span("detection", targets=n_targets, vectorized=True):
        out = disjoint_rows(vp_distances_km, radii_km, chunk)
    metrics = current_metrics()
    if metrics.enabled:
        metrics.counter("detection_targets_tested").inc(n_targets)
        metrics.counter("detection_targets_flagged").inc(int(out.sum()))
    return out


def radius_matrix(
    rtt_ms: np.ndarray,
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS,
) -> np.ndarray:
    """Convert an RTT matrix (NaN = missing) to disk radii."""
    return np.asarray(rtt_ms, dtype=np.float64) / 2.0 * speed_km_per_ms
