"""Differential tests of the array-native topology kernels.

``GridIndex.neighbor_lists`` and ``_bfs_tiers`` are whole-array numpy
passes.  The oracles below are the obvious per-tag loops they replaced: a
dict of cells scanned 3x3 per tag, and a BFS that concatenates each
frontier tag's CSR row.  The kernels must match them exactly — the same
``indptr``, the same ``indices`` in the same per-row order (lossy draws
walk CSR rows, so order is part of ``repro-channel-rng-v1``), the same
int64 dtypes and the same tiers.
"""

import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net import geometry
from repro.net.geometry import GridIndex, Point, uniform_disk
from repro.net.topology import UNREACHABLE, Network, Reader, _bfs_tiers


# -- oracles ---------------------------------------------------------------


class OracleGrid:
    """The dict-of-cells grid: one Python list per occupied cell, a 3x3
    cell scan (dx outer, dy inner) per query, ascending index within a
    cell."""

    def __init__(self, positions, cell_size):
        self.positions = positions
        self.cell_size = cell_size
        self.cells = {}
        for i, (x, y) in enumerate(positions.tolist()):
            self.cells.setdefault(self._cell(x, y), []).append(i)

    def _cell(self, x, y):
        return math.floor(x / self.cell_size), math.floor(y / self.cell_size)

    def query(self, x, y, radius):
        cx, cy = self._cell(x, y)
        cand = np.array(
            [
                j
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                for j in self.cells.get((cx + dx, cy + dy), ())
            ],
            dtype=np.int64,
        )
        d = self.positions[cand] - np.array([x, y])
        return cand[d[:, 0] ** 2 + d[:, 1] ** 2 <= radius * radius]

    def neighbor_lists(self, radius):
        """Per-tag loop over :meth:`query`, dropping the tag itself."""
        n = self.positions.shape[0]
        counts = np.zeros(n + 1, dtype=np.int64)
        rows = []
        for i, (x, y) in enumerate(self.positions.tolist()):
            nb = self.query(x, y, radius)
            nb = nb[nb != i]
            rows.append(nb)
            counts[i + 1] = nb.size
        indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        return np.cumsum(counts), indices


def oracle_neighbor_lists(positions, cell_size, radius):
    return OracleGrid(positions, cell_size).neighbor_lists(radius)


def oracle_bfs_tiers(n, indptr, indices, tier1):
    """Level-synchronous BFS over per-tag CSR slices."""
    tiers = np.full(n, UNREACHABLE, dtype=np.int64)
    frontier = np.flatnonzero(tier1)
    tiers[frontier] = 1
    level = 1
    while frontier.size:
        chunks = [indices[indptr[i] : indptr[i + 1]] for i in frontier.tolist()]
        nxt = np.unique(np.concatenate(chunks))
        nxt = nxt[tiers[nxt] == UNREACHABLE]
        level += 1
        tiers[nxt] = level
        frontier = nxt
    return tiers


# -- strategies ------------------------------------------------------------

CELL_SIZES = [0.5, 1.0, 1.5, 2.0, 3.0, 0.7]


@st.composite
def deployments(draw):
    """Random tag positions with the awkward cases mixed in: points
    exactly on cell boundaries, negative coordinates, coincident points,
    far-apart clusters (disconnected components) and single tags."""
    cell = draw(st.sampled_from(CELL_SIZES))
    n = draw(st.integers(1, 60))
    spread = draw(st.sampled_from([2.0, 8.0, 25.0]))
    coord = st.one_of(
        st.floats(-spread, spread, allow_nan=False, allow_infinity=False),
        st.integers(-int(spread / cell), int(spread / cell)).map(
            lambda k: k * cell
        ),
    )
    pts = [(draw(coord), draw(coord)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        pts.append(pts[draw(st.integers(0, len(pts) - 1))])
    if draw(st.booleans()):
        off = draw(st.sampled_from([100.0, -350.5, 1e6]))
        pts += [(x + off, y - off) for x, y in pts[: draw(st.integers(1, 5))]]
    positions = np.array(pts, dtype=np.float64)
    radius = cell * draw(st.sampled_from([1.0, 0.5, 0.999]))
    return positions, cell, radius


@st.composite
def reader_sets(draw):
    k = draw(st.integers(1, 3))
    out = []
    for _ in range(k):
        x = draw(st.floats(-30, 30, allow_nan=False))
        y = draw(st.floats(-30, 30, allow_nan=False))
        r_prime = draw(st.floats(0.1, 15.0, allow_nan=False))
        out.append(Reader(Point(x, y), r_prime * 2.0, r_prime))
    return out


def _assert_csr_equal(got, want):
    (gp, gi), (wp, wi) = got, want
    assert gp.dtype == np.int64 and gi.dtype == np.int64
    assert np.array_equal(gp, wp)
    assert np.array_equal(gi, wi)


# -- neighbour build -------------------------------------------------------


class TestNeighborListsOracle:
    @settings(max_examples=150, deadline=None)
    @given(deployments())
    def test_matches_oracle(self, dep):
        positions, cell, radius = dep
        got = GridIndex(positions, cell).neighbor_lists(radius)
        _assert_csr_equal(got, oracle_neighbor_lists(positions, cell, radius))

    @settings(max_examples=60, deadline=None)
    @given(deployments(), st.floats(-40, 40), st.floats(-40, 40))
    def test_query_point_matches_oracle(self, dep, x, y):
        positions, cell, radius = dep
        grid, oracle = GridIndex(positions, cell), OracleGrid(positions, cell)
        got = grid.query_point(Point(x, y), radius)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle.query(x, y, radius))
        for i, (px, py) in enumerate(positions.tolist()):
            want = oracle.query(px, py, radius)
            assert np.array_equal(grid.query_index(i, radius), want[want != i])

    def test_single_tag(self):
        got = GridIndex(np.array([[0.3, -0.2]]), 1.0).neighbor_lists(1.0)
        _assert_csr_equal(got, (np.array([0, 0]), np.empty(0, dtype=np.int64)))

    def test_no_tags(self):
        got = GridIndex(np.zeros((0, 2)), 1.0).neighbor_lists(1.0)
        _assert_csr_equal(got, (np.array([0]), np.empty(0, dtype=np.int64)))

    def test_boundary_points_and_coincident(self):
        positions = np.array(
            [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 1.0],
             [-1.0, -1.0], [2.0, 0.0], [0.5, -1.0]]
        )
        _assert_csr_equal(
            GridIndex(positions, 1.0).neighbor_lists(1.0),
            oracle_neighbor_lists(positions, 1.0, 1.0),
        )

    def test_row_order_is_cell_scan_order_not_ascending(self):
        # Tag 0 at the origin; tag 1 in cell (0, 0), tag 2 in cell (-1, 0).
        # Cell-scan order visits dx = -1 first, so row 0 is [2, 1].
        positions = np.array([[0.1, 0.1], [0.5, 0.5], [-0.5, 0.5]])
        indptr, indices = GridIndex(positions, 1.0).neighbor_lists(1.0)
        assert indices[indptr[0] : indptr[1]].tolist() == [2, 1]

    def test_radius_above_cell_rejected(self):
        with pytest.raises(ValueError, match="exceeds cell size"):
            GridIndex(np.zeros((2, 2)), 1.0).neighbor_lists(2.0)


class TestBlockedPass:
    """``neighbor_lists`` takes rows in blocks of about
    ``_BLOCK_CANDIDATES`` candidates, a larger row alone.  Where the block
    edges fall must not move the CSR."""

    BUDGETS = [1, 7]

    @staticmethod
    def blocked(positions, cell, radius, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_BLOCK_CANDIDATES", budget)
            return GridIndex(positions, cell).neighbor_lists(radius)

    @pytest.mark.parametrize("budget", BUDGETS)
    @settings(max_examples=60, deadline=None)
    @given(dep=deployments())
    def test_matches_oracle(self, budget, dep):
        positions, cell, radius = dep
        got = self.blocked(positions, cell, radius, budget)
        _assert_csr_equal(got, oracle_neighbor_lists(positions, cell, radius))

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_coincident_cluster_row_exceeds_budget(self, budget):
        # 40 tags at one point: every row has >= 40 candidates, more than
        # the budget, so each goes alone; coincident tags stay neighbours.
        rng = np.random.default_rng(3)
        positions = np.vstack(
            [np.full((40, 2), 0.25), rng.uniform(-2.0, 2.0, size=(25, 2))]
        )
        got = self.blocked(positions, 1.0, 1.0, budget)
        _assert_csr_equal(got, oracle_neighbor_lists(positions, 1.0, 1.0))
        indptr, indices = got
        row = indices[indptr[0] : indptr[1]].tolist()
        assert 0 not in row and sorted(row)[:39] == list(range(1, 40))

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_far_outlier(self, budget):
        positions = np.array(
            [[0.0, 0.0], [0.5, 0.0], [1e12, -1e12], [1e12, -1e12 + 0.5]]
        )
        got = self.blocked(positions, 1.0, 1.0, budget)
        _assert_csr_equal(got, oracle_neighbor_lists(positions, 1.0, 1.0))
        assert got[1].tolist() == [1, 0, 3, 2]

    def test_traced_peak_near_output_size(self):
        # Kept neighbours are held as int32 per block and concatenated
        # straight into the int64 ``indices``: the traced peak stays
        # within 1.75x of the returned arrays.
        grid = GridIndex(uniform_disk(10_000, 30.0, seed=1), 6.0)
        tracemalloc.start()
        try:
            indptr, indices = grid.neighbor_lists(6.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * (indptr.nbytes + indices.nbytes)


# -- BFS tiers -------------------------------------------------------------


class TestBfsTiersOracle:
    @settings(max_examples=150, deadline=None)
    @given(deployments(), reader_sets())
    def test_network_matches_oracle(self, dep, readers):
        positions, _, radius = dep
        net = Network.build(positions, readers, radius)
        indptr, indices = oracle_neighbor_lists(positions, radius, radius)
        _assert_csr_equal((net.indptr, net.indices), (indptr, indices))
        tier1 = np.zeros(positions.shape[0], dtype=bool)
        for reader in readers:
            d = np.hypot(
                positions[:, 0] - reader.position.x,
                positions[:, 1] - reader.position.y,
            )
            tier1 |= d <= reader.tag_to_reader_range
        want = oracle_bfs_tiers(positions.shape[0], indptr, indices, tier1)
        assert net.tiers.dtype == np.int64
        assert np.array_equal(net.tiers, want)

    @settings(max_examples=60, deadline=None)
    @given(deployments(), reader_sets(), reader_sets())
    def test_with_readers_matches_build(self, dep, first, second):
        positions, _, radius = dep
        moved = Network.build(positions, first, radius).with_readers(second)
        fresh = Network.build(positions, second, radius)
        assert np.array_equal(moved.tiers, fresh.tiers)
        assert np.array_equal(moved.reader_distance, fresh.reader_distance)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_random_graphs(self, n, data):
        # Arbitrary (not geometric) symmetric graphs, any tier-1 set.
        edges = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        )
        adj = [[] for _ in range(n)]
        for a, b in edges:
            if a != b:
                adj[a].append(b)
                adj[b].append(a)
        indptr = np.cumsum([0] + [len(r) for r in adj]).astype(np.int64)
        indices = np.array([j for r in adj for j in r], dtype=np.int64)
        tier1 = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        got = _bfs_tiers(n, indptr, indices, tier1)
        assert np.array_equal(got, oracle_bfs_tiers(n, indptr, indices, tier1))

    def test_disconnected_component_unreachable(self):
        positions = np.array([[0.0, 0.0], [0.8, 0.0], [1.6, 0.0], [50.0, 50.0], [50.5, 50.0]])
        net = Network.build(positions, [Reader(Point(0, 0), 2.0, 0.5)], 1.0)
        assert net.tiers.tolist() == [1, 2, 3, UNREACHABLE, UNREACHABLE]


# -- lazy tiers ------------------------------------------------------------


def oracle_tier1(positions, readers):
    tier1 = np.zeros(positions.shape[0], dtype=bool)
    for reader in readers:
        d = np.hypot(
            positions[:, 0] - reader.position.x,
            positions[:, 1] - reader.position.y,
        )
        tier1 |= d <= reader.tag_to_reader_range
    return tier1


FAR_READER = [Reader(Point(1e4, 1e4), 2.0, 1.0)]
LINE_130 = np.column_stack([np.arange(130) * 0.9, np.zeros(130)])


class TestLazyTiers:
    """``with_readers`` computes tier 1 and the reader distances; the tier
    BFS runs on the first read of a tier query and is cached."""

    @staticmethod
    def count_bfs(monkeypatch):
        from repro.net import topology

        calls = []
        bfs = topology._bfs_tiers

        def counted(*args):
            calls.append(args)
            return bfs(*args)

        monkeypatch.setattr(topology, "_bfs_tiers", counted)
        return calls

    @staticmethod
    def relinked(n=300):
        from repro.net.topology import PaperDeployment, paper_network

        net = paper_network(
            6.0, n_tags=n, seed=5, deployment=PaperDeployment(n_tags=n)
        )
        return net, [replace(net.readers[0], position=Point(9.0, -4.0))]

    @pytest.mark.parametrize("first", ["tiers", "reachable_mask", "num_tiers"])
    def test_bfs_runs_once_on_first_use(self, monkeypatch, first):
        net, readers = self.relinked()
        calls = self.count_bfs(monkeypatch)
        moved = net.with_readers(readers)
        moved.tier1_mask, moved.reader_distance
        assert len(calls) == 0
        getattr(moved, first)
        assert len(calls) == 1
        moved.tiers, moved.reachable_mask, moved.num_tiers
        moved.tier_sizes(), moved.is_fully_reachable()
        assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(deployments(), reader_sets())
    @example((np.array([[0.3, -0.2]]), 1.0, 1.0), [Reader(Point(0, 0), 2.0, 1.0)])
    @example((LINE_130, 1.0, 1.0), FAR_READER)
    @example((LINE_130, 1.0, 1.0), [Reader(Point(0, 0), 2.0, 1.0)])
    @example(
        (np.array([[0.0, 0.0], [0.8, 0.0], [50.0, 50.0], [50.5, 50.0]]), 1.0, 1.0),
        [Reader(Point(0, 0), 2.0, 0.5)],
    )
    def test_lazy_tiers_equal_eager(self, dep, readers):
        positions, _, radius = dep
        moved = Network.build(positions, FAR_READER, radius).with_readers(readers)
        assert moved._tiers is None
        tier1 = oracle_tier1(positions, readers)
        assert np.array_equal(moved.tier1_mask, tier1)
        eager = Network.build(positions, readers, radius)
        want = oracle_bfs_tiers(positions.shape[0], eager.indptr, eager.indices, tier1)
        assert np.array_equal(eager.tiers, want)
        assert moved.tiers.dtype == np.int64
        assert np.array_equal(moved.tiers, want)
        assert moved.num_tiers == eager.num_tiers
        assert np.array_equal(moved.tier_sizes(), eager.tier_sizes())

    @pytest.mark.parametrize("touched", [False, True])
    def test_relinked_network_pickles_with_tiers(self, touched):
        net, readers = self.relinked()
        moved = net.with_readers(readers)
        if touched:
            moved.tiers
        want = Network.build(net.positions, readers, net.tag_range)
        clone = pickle.loads(pickle.dumps(moved))
        for name in ("tiers", "tier1_mask", "reader_distance", "indices"):
            assert np.array_equal(getattr(clone, name), getattr(want, name))
        assert clone.readers == readers


# -- position validation ---------------------------------------------------


class TestNonFinitePositions:
    READER = Reader(Point(0.0, 0.0), 10.0, 5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_names_first_bad_tag(self, bad):
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [bad, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="tag 2 has a non-finite position"):
            Network.build(positions, [self.READER], 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grid_index_rejects(self, bad):
        with pytest.raises(ValueError, match="tag 0 has a non-finite position"):
            GridIndex(np.array([[0.0, bad], [0.0, 0.0]]), 1.0)

    def test_far_outlier_builds_sparsely(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [1e12, -1e12], [1e12, -1e12 + 0.5]])
        tracemalloc.start()
        try:
            net = Network.build(positions, [self.READER], 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # no dense W x H cell grid
        assert net.indices.tolist() == [1, 0, 3, 2]
        assert net.tiers.tolist() == [1, 1, UNREACHABLE, UNREACHABLE]

    def test_cell_coordinates_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*62 cells"):
            GridIndex(np.array([[0.0, 0.0], [1e300, 0.0]]), 1.0)
