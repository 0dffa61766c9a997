"""Tests for speed-of-light-violation detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import (
    detect,
    detection_mask,
    disjoint_involvement,
    disjoint_rows,
    radius_matrix,
)
from repro.core.samples import LatencySample
from repro.geo.coords import GeoPoint, pairwise_distances_km
from repro.geo.disks import FIBER_SPEED_KM_PER_MS, OVERLAP_SLACK_KM

PARIS = GeoPoint(48.86, 2.35)
NYC = GeoPoint(40.71, -74.01)
TOKYO = GeoPoint(35.68, 139.65)
SYDNEY = GeoPoint(-33.87, 151.21)

VPS = [PARIS, NYC, TOKYO, SYDNEY]


def rtt_for(vp: GeoPoint, server: GeoPoint, stretch: float = 1.3) -> float:
    """A physically-consistent RTT from vp to a server and back."""
    return 2.0 * vp.distance_km(server) * stretch / FIBER_SPEED_KM_PER_MS + 1.0


class TestDetect:
    def test_unicast_never_detected(self):
        """Samples consistent with one physical server must not trigger."""
        server = GeoPoint(50.11, 8.68)  # Frankfurt
        samples = [
            LatencySample(f"vp{i}", vp, rtt_for(vp, server)) for i, vp in enumerate(VPS)
        ]
        assert not detect(samples).is_anycast

    def test_two_replica_anycast_detected(self):
        # Replicas in Paris and Tokyo: each VP reaches the close one with a
        # small RTT, so the Paris and Tokyo disks cannot intersect.
        samples = [
            LatencySample("p", PARIS, 2.0),
            LatencySample("t", TOKYO, 2.0),
        ]
        result = detect(samples)
        assert result.is_anycast
        assert result.witness is not None

    def test_single_sample_undetectable(self):
        assert not detect([LatencySample("p", PARIS, 1.0)]).is_anycast

    def test_empty(self):
        result = detect([])
        assert not result.is_anycast
        assert result.sample_count == 0

    def test_min_rtt_dedup_applied(self):
        # A large stale RTT from Paris would mask the violation; the fresh
        # minimum restores it.
        samples = [
            LatencySample("p", PARIS, 200.0),
            LatencySample("p", PARIS, 2.0),
            LatencySample("t", TOKYO, 2.0),
        ]
        assert detect(samples).is_anycast

    def test_conservative_with_huge_rtts(self):
        # Two replicas but congested paths: disks cover everything, no
        # violation, no detection — conservative by design.
        samples = [
            LatencySample("p", PARIS, 400.0),
            LatencySample("t", TOKYO, 400.0),
        ]
        assert not detect(samples).is_anycast

    @given(st.floats(min_value=1.0, max_value=2.0), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_no_false_positive_property(self, stretch, seed):
        """For any physical server and inflation, unicast stays unicast."""
        rng = np.random.default_rng(seed)
        server = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180)))
        samples = [
            LatencySample(
                f"vp{i}", vp, rtt_for(vp, server, stretch) + float(rng.exponential(5.0))
            )
            for i, vp in enumerate(VPS)
        ]
        assert not detect(samples).is_anycast


class TestDetectionMask:
    def make_matrix(self, rows):
        lats = [p.lat for p in VPS]
        lons = [p.lon for p in VPS]
        vp_dist = pairwise_distances_km(lats, lons, lats, lons)
        return vp_dist, radius_matrix(np.array(rows, dtype=np.float64))

    def test_matches_object_level(self):
        server = GeoPoint(50.11, 8.68)
        unicast_row = [rtt_for(vp, server) for vp in VPS]
        anycast_row = [2.0, 2.0, 2.0, 2.0]  # impossible for one server
        vp_dist, radii = self.make_matrix([unicast_row, anycast_row])
        mask = detection_mask(vp_dist, radii)
        assert mask.tolist() == [False, True]

    def test_nan_never_witnesses(self):
        row = [2.0, np.nan, np.nan, np.nan]
        vp_dist, radii = self.make_matrix([row])
        assert not detection_mask(vp_dist, radii)[0]

    def test_chunking_equivalence(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(1.0, 100.0, size=(40, 4))
        vp_dist, radii = self.make_matrix(rows.tolist())
        a = detection_mask(vp_dist, radii, chunk=3)
        b = detection_mask(vp_dist, radii, chunk=1000)
        assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        vp_dist, radii = self.make_matrix([[1.0, 1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            detection_mask(vp_dist[:2, :2], radii)

    def test_radius_matrix_conversion(self):
        radii = radius_matrix(np.array([[10.0]]))
        assert radii[0, 0] == pytest.approx(5.0 * FIBER_SPEED_KM_PER_MS)


# -- kernel vs the V x V pair cube ---------------------------------------


def cube_disjoint(gap, radii):
    """The full (targets, V, V) pair cube — the kernel's oracle."""
    safe = np.where(np.isnan(radii), np.inf, radii)
    return gap[None, :, :] > (safe[:, :, None] + safe[:, None, :]) + OVERLAP_SLACK_KM


@st.composite
def gaps_and_radii(draw, max_vps=600):
    """A great-circle gap matrix and adversarial radii over it.

    Each target row is either physical — the disks of one or two servers
    seen with inflated RTTs, exactly tangent when the inflation is 1 — or
    drawn from a palette of tied values, negatives, huge values and values
    straddling half the largest gap.  NaN holes and all-NaN rows on top.
    """
    n_vps = draw(st.integers(min_value=2, max_value=max_vps))
    n_targets = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lats = rng.uniform(-80.0, 80.0, size=n_vps)
    lons = rng.uniform(-180.0, 180.0, size=n_vps)
    if draw(st.booleans()):
        lats[: n_vps // 3] = lats[0]  # co-located VPs: zero gaps
        lons[: n_vps // 3] = lons[0]
    gap = pairwise_distances_km(lats, lons, lats, lons)
    half = gap.max() / 2.0
    palette = np.array(
        [0.0, 1.0, 250.0, half, np.nextafter(half, 0.0), np.nextafter(half, np.inf),
         -5.0, 1e300, 1e308, 20000.0]
    )
    radii = np.empty((n_targets, n_vps))
    for row in range(n_targets):
        kind = draw(st.sampled_from(["unicast", "two-sites", "palette"]))
        if kind == "palette":
            radii[row] = np.where(
                rng.random(n_vps) < 0.5,
                rng.choice(palette, size=n_vps),
                rng.uniform(0.0, 1.2 * half, size=n_vps),
            )
            continue
        sites = 1 if kind == "unicast" else 2
        to_sites = pairwise_distances_km(
            lats, lons, rng.uniform(-60.0, 60.0, sites), rng.uniform(-180.0, 180.0, sites)
        ).min(axis=1)
        stretch = draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.3]))
        radii[row] = to_sites * stretch
    radii[rng.random(radii.shape) < draw(st.floats(0.0, 0.7))] = np.nan
    if draw(st.booleans()):
        radii[rng.integers(n_targets)] = np.nan
    return gap, radii


class TestKernelVsCube:
    @settings(max_examples=40, deadline=None)
    @given(case=gaps_and_radii())
    def test_mask_equals_cube(self, case):
        gap, radii = case
        with np.errstate(over="ignore"):  # 1e308 + 1e308 = inf, by design
            expected = cube_disjoint(gap, radii).any(axis=(1, 2))
            assert np.array_equal(detection_mask(gap, radii), expected)
            assert np.array_equal(disjoint_rows(gap, radii, chunk=2), expected)

    @settings(max_examples=40, deadline=None)
    @given(case=gaps_and_radii())
    def test_involvement_equals_cube(self, case):
        gap, radii = case
        with np.errstate(over="ignore"):
            expected = cube_disjoint(gap, radii).sum(axis=2)
            assert np.array_equal(disjoint_involvement(gap, radii), expected)

    def test_near_tangent_pair_is_overlap(self):
        """gap - (r0 + r1) inside the slack: overlapping, as Disk says."""
        gap = np.array([[0.0, 1000.0], [1000.0, 0.0]])
        radii = np.array([[400.0, 600.0 - 5e-10], [400.0, 600.0 - 1e-6]])
        assert 0.0 < gap[0, 1] - (radii[0, 0] + radii[0, 1]) < OVERLAP_SLACK_KM
        assert detection_mask(gap, radii).tolist() == [False, True]

    def test_scratch_is_bounded(self):
        """No chunk x V x V cube: peak scratch stays far below one."""
        import tracemalloc

        rng = np.random.default_rng(2)
        n_vps, n_targets = 600, 300
        lats = rng.uniform(-60.0, 60.0, size=n_vps)
        lons = rng.uniform(-180.0, 180.0, size=n_vps)
        gap = pairwise_distances_km(lats, lons, lats, lons)
        radii = rng.uniform(0.0, 15000.0, size=(n_targets, n_vps))
        tracemalloc.start()
        try:
            detection_mask(gap, radii)
            disjoint_involvement(gap, radii[:64])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
