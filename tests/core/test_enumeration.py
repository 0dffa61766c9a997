"""Tests for the MIS solvers: greedy 5-approximation vs exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumeration import (
    exact_mis,
    greedy_approximation_ratio,
    greedy_mis,
    is_independent_set,
)
from repro.geo.coords import GeoPoint
from repro.geo.disks import Disk, overlap_matrix


def random_disks(n, seed, max_radius=2000.0):
    rng = np.random.default_rng(seed)
    return [
        Disk(
            GeoPoint(float(rng.uniform(-70, 70)), float(rng.uniform(-180, 180))),
            float(rng.uniform(0, max_radius)),
        )
        for _ in range(n)
    ]


class TestGreedy:
    def test_empty(self):
        assert greedy_mis([]) == []

    def test_single(self):
        assert greedy_mis([Disk(GeoPoint(0, 0), 1.0)]) == [0]

    def test_all_overlapping_selects_one(self):
        disks = [Disk(GeoPoint(0, i * 0.01), 1000.0) for i in range(5)]
        assert len(greedy_mis(disks)) == 1

    def test_all_disjoint_selects_all(self):
        disks = [Disk(GeoPoint(0, lon), 100.0) for lon in (-150, -75, 0, 75, 150)]
        assert len(greedy_mis(disks)) == 5

    def test_smallest_radius_first(self):
        # One big disk overlapping two small disjoint disks: the greedy must
        # keep the two small ones (selecting the big one first would lose one).
        small1 = Disk(GeoPoint(0, 0), 10.0)
        small2 = Disk(GeoPoint(0, 40), 10.0)
        big = Disk(GeoPoint(0, 20), 3000.0)
        selected = greedy_mis([big, small1, small2])
        assert sorted(selected) == [1, 2]

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_output_is_independent(self, seed, n):
        disks = random_disks(n, seed)
        selected = greedy_mis(disks)
        assert is_independent_set(disks, selected)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_output_is_maximal(self, seed):
        """No unselected disk can be added without a conflict."""
        disks = random_disks(20, seed)
        selected = set(greedy_mis(disks))
        for i, disk in enumerate(disks):
            if i in selected:
                continue
            assert any(disk.overlaps(disks[j]) for j in selected)

    def test_precomputed_overlap_matrix(self):
        disks = random_disks(15, 3)
        m = overlap_matrix(disks)
        assert greedy_mis(disks) == greedy_mis(disks, overlaps=m)

    def test_matrix_shape_checked(self):
        disks = random_disks(5, 3)
        with pytest.raises(ValueError):
            greedy_mis(disks, overlaps=np.ones((2, 2), dtype=bool))

    def test_ties_broken_by_index(self):
        twins = [Disk(GeoPoint(0, 0), 500.0), Disk(GeoPoint(0, 1), 500.0)]
        assert greedy_mis(twins) == [0]
        overlaps = np.ones((3, 3), dtype=bool)
        assert greedy_mis(overlaps=overlaps, radii_km=np.array([7.0, 5.0, 5.0])) == [1]

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_lazy_rows_match_matrix(self, seed, n):
        """overlap_row selects the same disks, reading only selected rows."""
        disks = random_disks(n, seed)
        m = overlap_matrix(disks)
        radii = np.array([d.radius_km for d in disks])
        read = []

        def row(i):
            read.append(i)
            return m[i]

        selected = greedy_mis(radii_km=radii, overlap_row=row)
        assert selected == greedy_mis(disks)
        assert read == selected
        assert all(type(i) is int for i in selected)

    def test_lazy_rows_need_radii(self):
        with pytest.raises(ValueError):
            greedy_mis(overlap_row=lambda i: np.ones(1, dtype=bool))


class TestExact:
    def test_empty(self):
        assert exact_mis([]) == []

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_mis(random_disks(50, 0))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_exact_at_least_greedy(self, seed):
        disks = random_disks(14, seed)
        assert len(exact_mis(disks)) >= len(greedy_mis(disks))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_exact_output_independent(self, seed):
        disks = random_disks(12, seed)
        assert is_independent_set(disks, exact_mis(disks))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_five_approximation_bound(self, seed):
        """The theoretical guarantee: |exact| <= 5 |greedy|."""
        disks = random_disks(16, seed)
        assert len(exact_mis(disks)) <= 5 * max(len(greedy_mis(disks)), 1)

    def test_greedy_usually_optimal_in_practice(self):
        """The paper's observation: greedy is near-optimal in practice."""
        optimal = 0
        trials = 30
        for seed in range(trials):
            if greedy_approximation_ratio(random_disks(12, seed)) == 1.0:
                optimal += 1
        assert optimal / trials >= 0.7
