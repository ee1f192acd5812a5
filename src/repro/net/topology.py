"""Network topology for state-free networked tag systems.

Implements the system model of Sec. II / III-A:

* **Asymmetric links.**  A reader broadcasts to every tag within range ``R``
  (uplink, one hop).  A tag reaches the reader directly only within range
  ``r'`` (downlink), and reaches other tags within range ``r`` with
  ``r, r' < R``.
* **Tiers.**  Tier-1 tags are those whose transmissions the reader can
  sense (distance <= r' from some reader).  Tier-k tags are those whose
  shortest tag-to-tag path to a tier-1 tag has k-1 hops.  Tags with no path
  to any reader "are not considered to be in the system" (Sec. II).

The tags themselves are *state-free* — nothing in this module is tag-side
state; tiers and adjacency are observables of the simulation used by the
engine and by the metrics, exactly like the authors' simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.net.geometry import (
    GridIndex,
    Point,
    check_positions,
    density_for,
    pairwise_distance,
    segment_offsets,
    uniform_disk,
)

#: Tier value assigned to tags that cannot reach any reader.
UNREACHABLE = -1


def tag_id_array(
    tag_ids: Optional[Sequence[int]], n: Optional[int] = None
) -> np.ndarray:
    """``tag_ids`` as an int64 array; ``None`` numbers ``n`` tags ``1..n``.

    Raises ``ValueError`` on an ID outside int64, naming it, and on a
    count other than ``n`` (when ``n`` is given).
    """
    if tag_ids is None:
        return np.arange(1, n + 1, dtype=np.int64)
    values = list(tag_ids)
    try:
        ids = np.asarray(values, dtype=np.int64)
    except OverflowError:
        for value in values:
            try:
                np.int64(value)
            except OverflowError:
                raise ValueError(
                    f"tag ID {value} does not fit in int64"
                ) from None
        raise
    if n is not None and ids.shape != (n,):
        raise ValueError("tag_ids must have one entry per tag")
    return ids


@dataclass(frozen=True)
class Reader:
    """An RFID reader with asymmetric communication ranges.

    Parameters
    ----------
    position:
        Reader location in the plane.
    reader_to_tag_range:
        ``R`` — broadcast (uplink) range; every tag within it decodes the
        reader's requests in one hop.
    tag_to_reader_range:
        ``r'`` — the distance within which the reader can sense a tag's
        transmission (downlink).  Tags inside it form tier 1.
    """

    position: Point
    reader_to_tag_range: float
    tag_to_reader_range: float

    def __post_init__(self) -> None:
        if self.reader_to_tag_range <= 0 or self.tag_to_reader_range <= 0:
            raise ValueError("reader ranges must be positive")
        if self.tag_to_reader_range > self.reader_to_tag_range:
            raise ValueError(
                "tag-to-reader range r' must not exceed reader-to-tag range R "
                "(the paper assumes R > r')"
            )


@dataclass
class Network:
    """A deployed networked-tag system: positions, links, readers, tiers.

    Build one with :meth:`Network.build` (or :func:`paper_network` for the
    paper's exact evaluation deployment).  The tag-to-tag adjacency is held
    in CSR form (``indptr``/``indices``) and is symmetric.

    ``reader_distance`` and ``tier1_mask`` are always present; the tier
    BFS behind :attr:`tiers` runs on first use unless the constructor
    was given ``_tiers`` (as :meth:`build` does).
    """

    positions: np.ndarray
    tag_ids: np.ndarray
    readers: List[Reader]
    tag_range: float
    indptr: np.ndarray
    indices: np.ndarray
    #: distance from each tag to its nearest reader
    reader_distance: np.ndarray
    #: tags some reader can sense directly (<= r'): tier 1
    tier1_mask: np.ndarray
    _tiers: Optional[np.ndarray] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        positions: np.ndarray,
        readers: Sequence[Reader],
        tag_range: float,
        tag_ids: Optional[Sequence[int]] = None,
    ) -> "Network":
        """Construct the network: links within ``tag_range``, tiers by BFS."""
        positions = check_positions(positions)
        if not readers:
            raise ValueError("at least one reader is required")
        if tag_range <= 0:
            raise ValueError("tag_range must be positive")
        n = positions.shape[0]
        ids = tag_id_array(tag_ids, n)
        if tag_ids is not None and len(np.unique(ids)) != n:
            raise ValueError("tag IDs must be unique")

        index = GridIndex(positions, cell_size=tag_range)
        indptr, indices = index.neighbor_lists(tag_range)
        reader_distance, tier1 = _reader_reach(positions, readers)
        return cls(
            positions=positions,
            tag_ids=ids,
            readers=list(readers),
            tag_range=float(tag_range),
            indptr=indptr,
            indices=indices,
            reader_distance=reader_distance,
            tier1_mask=tier1,
            _tiers=_bfs_tiers(n, indptr, indices, tier1),
        )

    # -- basic queries ------------------------------------------------------

    @property
    def n_tags(self) -> int:
        return self.positions.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of the tags that can sense tag ``i`` (and vice versa)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def tiers(self) -> np.ndarray:
        """Tier of each tag (1 = heard directly, :data:`UNREACHABLE` = no
        path to a reader): the BFS from :attr:`tier1_mask`, run on first
        use and cached."""
        if self._tiers is None:
            self._tiers = _bfs_tiers(
                self.n_tags, self.indptr, self.indices, self.tier1_mask
            )
        return self._tiers

    @property
    def reachable_mask(self) -> np.ndarray:
        """Tags with some multi-hop path to a reader ("in the system")."""
        return self.tiers != UNREACHABLE

    @property
    def num_tiers(self) -> int:
        """K — the number of tiers among reachable tags (Fig. 3's metric)."""
        reachable = self.tiers[self.tiers != UNREACHABLE]
        return int(reachable.max()) if reachable.size else 0

    def tier_sizes(self) -> np.ndarray:
        """``tier_sizes()[k]`` = number of tier-(k+1) tags; length num_tiers."""
        k = self.num_tiers
        out = np.zeros(k, dtype=np.int64)
        for t in range(1, k + 1):
            out[t - 1] = int(np.sum(self.tiers == t))
        return out

    def is_fully_reachable(self) -> bool:
        """True if every tag has a path to some reader."""
        return bool(np.all(self.tiers != UNREACHABLE))

    def covered_by(self, reader_index: int) -> np.ndarray:
        """Mask of tags inside reader ``reader_index``'s broadcast range R."""
        reader = self.readers[reader_index]
        d = pairwise_distance(self.positions, reader.position)
        return d <= reader.reader_to_tag_range

    def heard_by(self, reader_index: int) -> np.ndarray:
        """Mask of tags reader ``reader_index`` can sense directly (<= r')."""
        reader = self.readers[reader_index]
        d = pairwise_distance(self.positions, reader.position)
        return d <= reader.tag_to_reader_range

    def density(self) -> float:
        """Empirical density over the deployment's bounding disk centred on
        the first reader (rho in the paper's analysis)."""
        d = pairwise_distance(self.positions, self.readers[0].position)
        radius = float(d.max()) if d.size else 0.0
        if radius == 0.0:
            return 0.0
        return density_for(self.n_tags, radius)

    def packed_adjacency(self) -> np.ndarray:
        """Per-tag neighbour bitsets: ``(n, ceil(n/64))`` uint64.

        Bit ``u % 64`` of word ``u // 64`` in row ``t`` is set iff tags
        ``t`` and ``u`` are within ``tag_range`` (the CSR adjacency is
        symmetric, so rows double as columns).  Built lazily and cached on
        the network — the kernel's bitset step ORs these rows to compute
        which tags hear each slot, so sessions on the same network reuse
        one build.  Little-endian bit order throughout, matching
        :func:`repro.core.engine.masks_to_words`.
        """
        cached = getattr(self, "_packed_adjacency", None)
        if cached is not None:
            return cached
        n = self.n_tags
        n_words = max(1, (n + 63) // 64)
        out = np.zeros((n, n_words), dtype=np.uint64)
        # Materialise the dense boolean adjacency a block of rows at a time
        # (a full n x n bool matrix would be n^2 bytes).
        block_rows = 512
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            block = np.zeros((stop - start, n_words * 64), dtype=np.uint8)
            lo, hi = self.indptr[start], self.indptr[stop]
            rows = np.repeat(
                np.arange(stop - start),
                np.diff(self.indptr[start : stop + 1]),
            )
            block[rows, self.indices[lo:hi]] = 1
            out[start:stop] = np.packbits(
                block, axis=1, bitorder="little"
            ).view(np.uint64)
        self._packed_adjacency = out
        return out

    def with_readers(self, readers: Sequence[Reader]) -> "Network":
        """A new network with the same tags and tag-to-tag links but a
        different reader set: ``reader_distance`` and tier 1 are
        recomputed, while the CSR adjacency and the cached packed
        adjacency are *shared* (tag positions are unchanged, so the tag
        graph is identical).

        This is the per-round fast path for mobile-reader scenarios: a
        reader move costs O(n) distances, not the O(n·density) grid
        neighbour build, and the O(n + edges) tier BFS runs only if
        something reads :attr:`tiers` (a scenario round reads tier 1 and
        the reader distances; the session end reads reachability only if
        no pending tag is in tier 1).
        """
        if not readers:
            raise ValueError("at least one reader is required")
        reader_distance, tier1 = _reader_reach(self.positions, readers)
        net = Network(
            positions=self.positions,
            tag_ids=self.tag_ids,
            readers=list(readers),
            tag_range=self.tag_range,
            indptr=self.indptr,
            indices=self.indices,
            reader_distance=reader_distance,
            tier1_mask=tier1,
        )
        cached = getattr(self, "_packed_adjacency", None)
        if cached is not None:
            net._packed_adjacency = cached
        return net

    def subset(self, keep_mask: np.ndarray) -> "Network":
        """A new network containing only the tags where ``keep_mask`` is
        True (used to model missing/removed tags).  Tiers are recomputed
        because removals can disconnect relays."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n_tags,):
            raise ValueError("keep_mask must have one entry per tag")
        return Network.build(
            self.positions[keep_mask],
            self.readers,
            self.tag_range,
            tag_ids=self.tag_ids[keep_mask],
        )

    def __repr__(self) -> str:
        return (
            f"Network(n_tags={self.n_tags}, readers={len(self.readers)}, "
            f"r={self.tag_range}, tiers={self.num_tiers})"
        )


def _reader_reach(positions: np.ndarray, readers: Sequence[Reader]):
    """``(reader_distance, tier1)`` of the tags at ``positions`` for a
    reader set: the distance to the nearest reader, and whether some
    reader's ``r'`` covers the tag."""
    n = positions.shape[0]
    reader_distance = np.full(n, np.inf)
    tier1 = np.zeros(n, dtype=bool)
    for reader in readers:
        d = pairwise_distance(positions, reader.position)
        reader_distance = np.minimum(reader_distance, d)
        tier1 |= d <= reader.tag_to_reader_range
    return reader_distance, tier1


def _bfs_tiers(
    n: int, indptr: np.ndarray, indices: np.ndarray, tier1: np.ndarray
) -> np.ndarray:
    """Multi-source BFS from the tier-1 set over the tag-to-tag graph.

    One whole-array pass per level: gather the frontier's CSR rows by
    segment arithmetic, mark them in an n-sized bool array, drop tags that
    already hold a tier, and take the rest (ascending) as the next level.
    """
    tiers = np.full(n, UNREACHABLE, dtype=np.int64)
    frontier = np.flatnonzero(tier1)
    tiers[frontier] = 1
    unvisited = ~np.asarray(tier1, dtype=bool)
    mark = np.zeros(n, dtype=bool)
    level = 1
    while frontier.size:
        starts = indptr[frontier]
        mark[indices[segment_offsets(starts, indptr[frontier + 1] - starts)]] = True
        mark &= unvisited
        frontier = np.flatnonzero(mark)
        unvisited[frontier] = False
        level += 1
        tiers[frontier] = level
    return tiers


@dataclass(frozen=True)
class PaperDeployment:
    """The evaluation deployment of Sec. VI-A."""

    n_tags: int = 10_000
    field_radius: float = 30.0
    reader_to_tag_range: float = 30.0
    tag_to_reader_range: float = 20.0

    def reader(self) -> Reader:
        return Reader(
            position=Point(0.0, 0.0),
            reader_to_tag_range=self.reader_to_tag_range,
            tag_to_reader_range=self.tag_to_reader_range,
        )


def paper_network(
    tag_range: float,
    n_tags: int = 10_000,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    deployment: Optional[PaperDeployment] = None,
) -> Network:
    """Build one random instance of the paper's evaluation network.

    Tags uniform in a 30 m disk, reader at the centre, R = 30 m, r' = 20 m,
    inter-tag range ``tag_range`` (the paper sweeps 2–10 m).
    """
    dep = deployment or PaperDeployment(n_tags=n_tags)
    positions = uniform_disk(
        dep.n_tags, dep.field_radius, rng=rng, seed=seed
    )
    return Network.build(positions, [dep.reader()], tag_range)
