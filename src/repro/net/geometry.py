"""Planar geometry and tag deployment generators.

The paper evaluates CCM on tags placed uniformly at random inside a disk of
radius 30 m with the reader at the centre (Sec. VI-A).  This module provides
that deployment plus a few others (annulus, clustered, grid) that the
examples and robustness experiments use, together with the distance helpers
the topology layer builds on.

Positions are held as an ``(n, 2)`` float64 numpy array; all generators are
driven by an explicit ``numpy.random.Generator`` so trials are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Point:
    """A point in the deployment plane (metres)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)


ORIGIN = Point(0.0, 0.0)


def pairwise_distance(positions: np.ndarray, point: Point) -> np.ndarray:
    """Euclidean distance from every row of ``positions`` to ``point``."""
    d = positions - np.array([point.x, point.y])
    return np.hypot(d[:, 0], d[:, 1])


def disk_area(radius: float) -> float:
    """Area of a disk (m^2)."""
    return math.pi * radius * radius


def density_for(n_tags: int, radius: float) -> float:
    """Tag density rho = n / (pi * radius^2), as in Sec. VI-A."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return n_tags / disk_area(radius)


def _rng(rng: Optional[np.random.Generator], seed: Optional[int]) -> np.random.Generator:
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def uniform_disk(
    n_tags: int,
    radius: float,
    center: Point = ORIGIN,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place ``n_tags`` uniformly at random in a disk.

    Uses the inverse-CDF radius transform (``R*sqrt(u)``) so the density is
    uniform in area, matching the paper's deployment.
    """
    if n_tags < 0:
        raise ValueError("n_tags must be non-negative")
    if radius <= 0:
        raise ValueError("radius must be positive")
    gen = _rng(rng, seed)
    r = radius * np.sqrt(gen.random(n_tags))
    theta = gen.random(n_tags) * 2.0 * math.pi
    pos = np.empty((n_tags, 2), dtype=np.float64)
    pos[:, 0] = center.x + r * np.cos(theta)
    pos[:, 1] = center.y + r * np.sin(theta)
    return pos


def uniform_annulus(
    n_tags: int,
    inner_radius: float,
    outer_radius: float,
    center: Point = ORIGIN,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place tags uniformly in an annulus (e.g. shelving around a reader)."""
    if not 0 <= inner_radius < outer_radius:
        raise ValueError("need 0 <= inner_radius < outer_radius")
    gen = _rng(rng, seed)
    lo, hi = inner_radius**2, outer_radius**2
    r = np.sqrt(lo + (hi - lo) * gen.random(n_tags))
    theta = gen.random(n_tags) * 2.0 * math.pi
    pos = np.empty((n_tags, 2), dtype=np.float64)
    pos[:, 0] = center.x + r * np.cos(theta)
    pos[:, 1] = center.y + r * np.sin(theta)
    return pos


def clustered_disk(
    n_tags: int,
    radius: float,
    n_clusters: int,
    cluster_sigma: float,
    center: Point = ORIGIN,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place tags in Gaussian clusters whose centres are uniform in the disk.

    Models palletised stock: tags bunch on pallets rather than spreading
    evenly.  Samples falling outside the disk are radially clamped onto it
    so the deployment region matches the reader's coverage assumption.
    """
    if n_clusters <= 0:
        raise ValueError("n_clusters must be positive")
    if cluster_sigma < 0:
        raise ValueError("cluster_sigma must be non-negative")
    gen = _rng(rng, seed)
    centers = uniform_disk(n_clusters, radius * 0.9, center, rng=gen)
    assignment = gen.integers(0, n_clusters, size=n_tags)
    pos = centers[assignment] + gen.normal(0.0, cluster_sigma, size=(n_tags, 2))
    # Clamp strays back onto the disk boundary.
    offset = pos - np.array([center.x, center.y])
    dist = np.hypot(offset[:, 0], offset[:, 1])
    outside = dist > radius
    if np.any(outside):
        scale = radius / dist[outside]
        pos[outside] = (
            np.array([center.x, center.y]) + offset[outside] * scale[:, None]
        )
    return pos


def grid_deployment(
    rows: int,
    cols: int,
    spacing: float,
    center: Point = ORIGIN,
    jitter: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place tags on a ``rows x cols`` grid (warehouse racking), optionally
    jittered by a uniform offset in ``[-jitter, jitter]`` per axis."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing + center.x
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing + center.y
    gx, gy = np.meshgrid(xs, ys)
    pos = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.float64)
    if jitter > 0:
        gen = _rng(rng, seed)
        pos += gen.uniform(-jitter, jitter, size=pos.shape)
    return pos


def check_positions(positions: np.ndarray) -> np.ndarray:
    """``positions`` as an ``(n, 2)`` float64 array of finite coordinates.

    Raises ``ValueError`` on a wrong shape, and on NaN or infinite
    coordinates naming the first offending tag index.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"tag {i} has a non-finite position {positions[i].tolist()}"
        )
    return positions


#: Largest cell coordinate magnitude the index accepts, so neighbour-cell
#: arithmetic (``cx +- 1``) can never overflow int64.
_MAX_CELL = 2**62

#: Candidate pairs per block of rows in :meth:`GridIndex.neighbor_lists`:
#: the block's distance-test temporaries stay cache-sized.
_BLOCK_CANDIDATES = 2**15


class GridIndex:
    """Uniform-grid spatial index for fixed-radius neighbour queries.

    Bins the positions into square cells of side ``cell_size`` and answers
    "all points within ``radius`` of point i" by scanning the 3x3 cell
    neighbourhood.  With ``cell_size == radius`` this is exact and runs in
    expected O(occupancy) per query — the standard structure for building
    random geometric graphs at n = 10,000 scale.  :meth:`neighbor_lists`
    answers it for every point at once, in one blocked pass over the rows.

    The cells are held sparsely: point indices stable-sorted by cell (so
    ascending within a cell) plus the bounds of each occupied cell, keyed
    by the ranks of its x and y cell coordinates among the occupied ones.
    Memory is O(n) however far apart the points are.
    """

    def __init__(self, positions: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.positions = check_positions(positions)
        self.cell_size = float(cell_size)
        cells = np.floor(self.positions / self.cell_size)
        if cells.size and np.abs(cells).max() >= _MAX_CELL:
            raise ValueError(
                f"positions span more than 2**62 cells of size {cell_size}"
            )
        cells = cells.astype(np.int64)
        self._cx, self._cy = cells[:, 0], cells[:, 1]
        self._xs = np.unique(self._cx)
        self._ys = np.unique(self._cy)
        key = (
            np.searchsorted(self._xs, self._cx) * self._ys.size
            + np.searchsorted(self._ys, self._cy)
        )
        self._order = np.argsort(key, kind="stable")
        sorted_key = key[self._order]
        first = np.flatnonzero(np.diff(sorted_key)) + 1
        self._keys = sorted_key[np.concatenate(([0], first))] if key.size else key
        self._bounds = np.concatenate(([0], first, [key.size])).astype(np.int64)
        self._sorted_positions = self.positions[self._order]

    def _cell_ranges(self, cx: np.ndarray, cy: np.ndarray):
        """``(start, stop)`` into ``_order`` of cells ``(cx, cy)``; empty
        (``start == stop``) where no point lies in the cell."""
        if self._keys.size == 0:
            zero = np.zeros(np.shape(cx), dtype=np.int64)
            return zero, zero
        rx = np.minimum(np.searchsorted(self._xs, cx), self._xs.size - 1)
        ry = np.minimum(np.searchsorted(self._ys, cy), self._ys.size - 1)
        key = rx * self._ys.size + ry
        c = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
        hit = (self._xs[rx] == cx) & (self._ys[ry] == cy) & (self._keys[c] == key)
        start = np.where(hit, self._bounds[c], 0)
        stop = np.where(hit, self._bounds[c + 1], 0)
        return start, stop

    def _check_radius(self, radius: float) -> None:
        if radius > self.cell_size + 1e-12:
            raise ValueError(
                f"radius {radius} exceeds cell size {self.cell_size}; "
                "build the index with cell_size >= radius"
            )

    def query_point(self, point: Point, radius: float) -> np.ndarray:
        """Indices of stored points within ``radius`` of ``point``."""
        self._check_radius(radius)
        cx = math.floor(point.x / self.cell_size)
        cy = math.floor(point.y / self.cell_size)
        start, stop = self._cell_ranges(
            np.array([cx - 1, cx - 1, cx - 1, cx, cx, cx, cx + 1, cx + 1, cx + 1]),
            np.array([cy - 1, cy, cy + 1] * 3),
        )
        cand = np.concatenate(
            [self._order[a:b] for a, b in zip(start.tolist(), stop.tolist())]
        )
        d = self.positions[cand] - np.array([point.x, point.y])
        keep = d[:, 0] ** 2 + d[:, 1] ** 2 <= radius * radius
        return cand[keep]

    def query_index(self, i: int, radius: float) -> np.ndarray:
        """Indices of stored points within ``radius`` of stored point ``i``
        (excluding ``i`` itself)."""
        x, y = self.positions[i]
        out = self.query_point(Point(float(x), float(y)), radius)
        return out[out != i]

    def neighbor_lists(self, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All-pairs fixed-radius neighbours in CSR form.

        Returns ``(indptr, indices)`` where the neighbours of point ``i``
        are ``indices[indptr[i]:indptr[i+1]]``.  Symmetric by construction
        (the geometric link model of Sec. II is distance-based).

        Each row lists its neighbours in :meth:`query_index` order — the
        nine cells ``(dx, dy)`` with ``dx`` outer and ``dy`` inner, and
        ascending index within a cell.  That order is part of the
        ``repro-channel-rng-v1`` draw order (lossy draws walk CSR rows).
        Built in one pass over the rows in ascending index: the nine cell
        ranges are looked up once per occupied cell, and each row's ranges
        laid end to end give its candidates already in that order.  Rows
        go in blocks of about ``_BLOCK_CANDIDATES`` candidates (a larger
        row alone), so the distance test's temporaries stay cache-sized;
        a row's own tag always passes the test and is dropped after it.
        """
        self._check_radius(radius)
        n, m = self.positions.shape[0], self._keys.size
        first = self._order[self._bounds[:m]]  # one point of each cell
        start, stop = self._cell_ranges(
            self._cx[first, None] + np.repeat([-1, 0, 1], 3),
            self._cy[first, None] + np.tile([-1, 0, 1], 3),
        )
        cnt = stop - start
        cell, pos = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        cell[self._order] = np.repeat(np.arange(m), np.diff(self._bounds)[:m])
        pos[self._order] = np.arange(n)  # each point's place in ``_order``
        row_cand = cnt.sum(axis=1)[cell]
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_cand, out=cum[1:])
        # A row's own tag: in its own cell, the fifth range of the nine.
        self_at = cum[:-1] + cnt[:, :4].sum(axis=1)[cell] + pos - start[cell, 4]
        order = self._order.astype(np.int32 if n < 2**31 else np.int64)
        sx, sy = self._sorted_positions.T.copy()
        px, py = self.positions.T
        counts = np.empty(n, dtype=np.int64)
        kept = [order[:0]]
        lo = 0
        while lo < n:  # rows [lo, hi): all that fit the budget, at least one
            hi = int(np.searchsorted(cum, cum[lo] + _BLOCK_CANDIDATES, "right"))
            hi = max(hi - 1, lo + 1)
            c, k = cell[lo:hi], row_cand[lo:hi]
            offs = segment_offsets(start[c].ravel(), cnt[c].ravel())  # into _order
            # (sx - px)**2 + (sy - py)**2 in place: fewer temporaries alive
            # keep the process's peak RSS lower.
            d2 = sx[offs]
            d2 -= np.repeat(px[lo:hi], k)
            d2 *= d2
            ddy = sy[offs]
            ddy -= np.repeat(py[lo:hi], k)
            ddy *= ddy
            d2 += ddy
            ok = d2 <= radius * radius
            ok[self_at[lo:hi] - cum[lo]] = False
            hit = np.flatnonzero(ok)
            counts[lo:hi] = np.diff(np.searchsorted(hit, cum[lo : hi + 1] - cum[lo]))
            kept.append(order[offs[hit]])
            lo = hi
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        np.concatenate(kept, out=indices)
        return indptr, indices


def segment_offsets(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[k], starts[k] + counts[k])`` over ``k``
    (CSR segment arithmetic: one ``repeat``, no per-segment loop)."""
    out = np.repeat(starts - np.cumsum(counts) + counts, counts).astype(
        np.int64, copy=False
    )
    out += np.arange(out.size, dtype=np.int64)
    return out
