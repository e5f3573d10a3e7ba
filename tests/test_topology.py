"""Tests for network geometry and channel generation."""

import math

import numpy as np
import pytest

from swiptcran.topology import (
    D_MIN_M,
    ChannelRealization,
    NetworkTopology,
    Position,
    assigned_rrh,
    draw_channels,
    generate_topology,
)


def _ring_positions(count: int, radius: float) -> tuple[Position, ...]:
    angles = 2.0 * np.pi * np.arange(count) / count
    return tuple(Position(radius * math.cos(a), radius * math.sin(a)) for a in angles)


def _single_cell(et_positions: tuple[Position, ...], side: float = 10.0) -> NetworkTopology:
    return NetworkTopology(
        rrh_positions=(Position(0.0, 0.0),),
        it_positions=(Position(1.0, 0.0),),
        et_positions=et_positions,
        hex_side=side,
    )


class TestPosition:
    def test_distance_is_euclidean(self):
        assert Position(0.0, 0.0).distance_to(Position(3.0, 4.0)) == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Position(math.nan, 0.0)
        with pytest.raises(ValueError):
            Position(0.0, math.inf)


class TestNetworkTopology:
    def test_counts(self):
        topo = generate_topology(seed=0, n_rrh=3, n_it=4, n_et=7)
        assert (topo.n_rrh, topo.n_it, topo.n_et) == (3, 4, 7)

    def test_requires_terminals(self):
        with pytest.raises(ValueError):
            NetworkTopology((), (Position(0, 0),), (), hex_side=10.0)
        with pytest.raises(ValueError):
            NetworkTopology((Position(0, 0),), (), (), hex_side=10.0)

    def test_rejects_terminal_outside_cells(self):
        with pytest.raises(ValueError):
            NetworkTopology(
                rrh_positions=(Position(0.0, 0.0),),
                it_positions=(Position(100.0, 0.0),),
                et_positions=(),
                hex_side=10.0,
            )

    def test_distance_matrices_shapes_and_values(self):
        topo = _single_cell((Position(0.0, 3.0), Position(4.0, 0.0)))
        assert topo.it_distances().shape == (1, 1)
        d_et = topo.et_distances()
        assert d_et.shape == (1, 2)
        np.testing.assert_allclose(d_et, [[3.0, 4.0]])


class TestGenerateTopology:
    def test_deterministic(self):
        a = generate_topology(seed=7, n_rrh=3, n_it=4, n_et=7)
        b = generate_topology(seed=7, n_rrh=3, n_it=4, n_et=7)
        assert a == b

    def test_seed_changes_layout(self):
        a = generate_topology(seed=7, n_rrh=3, n_it=4, n_et=7)
        b = generate_topology(seed=8, n_rrh=3, n_it=4, n_et=7)
        assert a.it_positions != b.it_positions

    def test_first_three_cells_mutually_adjacent(self):
        topo = generate_topology(seed=1, n_rrh=3, n_it=1, n_et=1, inter_rrh_distance=20.0)
        for i in range(3):
            for j in range(i + 1, 3):
                d = topo.rrh_positions[i].distance_to(topo.rrh_positions[j])
                assert d == pytest.approx(20.0, abs=1e-9)

    def test_terminals_inside_some_cell(self):
        topo = generate_topology(seed=3, n_rrh=3, n_it=10, n_et=10)
        for p in topo.it_positions + topo.et_positions:
            assert topo.contains(p)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_topology(seed=-1, n_rrh=3, n_it=4, n_et=7)
        with pytest.raises(ValueError):
            generate_topology(seed=0, n_rrh=0, n_it=4, n_et=7)
        with pytest.raises(ValueError):
            generate_topology(seed=0, n_rrh=3, n_it=4, n_et=7, inter_rrh_distance=0.0)


class TestDrawChannels:
    def test_deterministic_per_seed_and_slot(self):
        topo = generate_topology(seed=2, n_rrh=3, n_it=4, n_et=7)
        a = draw_channels(topo, seed=5, slot=3)
        b = draw_channels(topo, seed=5, slot=3)
        np.testing.assert_array_equal(a.h_id, b.h_id)
        np.testing.assert_array_equal(a.h_et, b.h_et)
        c = draw_channels(topo, seed=5, slot=4)
        assert not np.array_equal(a.h_id, c.h_id)

    def test_shapes(self):
        topo = generate_topology(seed=2, n_rrh=3, n_it=4, n_et=7)
        ch = draw_channels(topo, seed=0, slot=0)
        assert ch.h_id.shape == (3, 4)
        assert ch.h_et.shape == (3, 7)

    def test_mean_power_matches_path_loss(self):
        # 50 terminals at 4 m from the cell centre give 50 i.i.d. |h|^2
        # samples per slot; 2000 slots -> 1e5 draws, sample mean within 3%.
        topo = _single_cell(_ring_positions(50, 4.0))
        total = 0.0
        n_slots = 2000
        for slot in range(n_slots):
            ch = draw_channels(topo, seed=9, slot=slot)
            total += float(np.sum(np.abs(ch.h_et) ** 2))
        mean = total / (n_slots * 50)
        expected = 4.0 ** (-2.5)
        assert abs(mean - expected) <= 0.03 * expected

    def test_distance_clamp_floors_path_loss(self):
        # terminals inside the clamp radius behave as if at exactly 1 m
        topo = _single_cell(_ring_positions(50, 0.25))
        total = 0.0
        n_slots = 2000
        for slot in range(n_slots):
            ch = draw_channels(topo, seed=11, slot=slot)
            total += float(np.sum(np.abs(ch.h_et) ** 2))
        mean = total / (n_slots * 50)
        assert abs(mean - 1.0) <= 0.03

    def test_alpha_scales_gain(self):
        topo = _single_cell((Position(4.0, 0.0),))
        mild = draw_channels(topo, seed=1, slot=0, alpha_abs=1.0)
        steep = draw_channels(topo, seed=1, slot=0, alpha_abs=3.0)
        # same fading draw, different deterministic path loss
        ratio = np.abs(mild.h_et[0, 0]) / np.abs(steep.h_et[0, 0])
        assert ratio == pytest.approx(4.0, rel=1e-12)


class TestChannelRealization:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ChannelRealization(
                h_id=np.array([[complex(math.nan, 0.0)]]),
                h_et=np.zeros((1, 1), dtype=complex),
            )

    def test_rejects_mismatched_rrh_counts(self):
        with pytest.raises(ValueError):
            ChannelRealization(
                h_id=np.zeros((2, 1), dtype=complex),
                h_et=np.zeros((3, 1), dtype=complex),
            )


class TestAssignedRrh:
    def test_picks_minimum_distance(self):
        topo = NetworkTopology(
            rrh_positions=(Position(5.0, 0.0), Position(0.0, 3.0), Position(10.0, 0.0)),
            it_positions=(Position(5.0, 1.0),),
            et_positions=(Position(0.0, 0.0),),
            hex_side=8.0,
        )
        assert assigned_rrh(topo, 0) == (1, 3.0)

    def test_tie_breaks_to_lowest_index(self):
        topo = NetworkTopology(
            rrh_positions=(Position(-10.0, 0.0), Position(10.0, 0.0)),
            it_positions=(Position(-10.0, 1.0),),
            et_positions=(Position(0.0, 0.0),),
            hex_side=20.0,
        )
        n, d = assigned_rrh(topo, 0)
        assert n == 0
        assert d == pytest.approx(10.0)

    def test_returns_unclamped_distance_for_colocated_terminal(self):
        topo = _single_cell((Position(0.0, 0.0),))
        n, d = assigned_rrh(topo, 0)
        assert n == 0
        assert d == 0.0
        assert D_MIN_M == 1.0

    def test_rejects_bad_index(self):
        topo = _single_cell((Position(1.0, 1.0),))
        for bad in (5, -1):
            with pytest.raises(IndexError):
                assigned_rrh(topo, bad)
