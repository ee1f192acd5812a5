"""SICP — the Serialized ID-Collection Protocol baseline.

SICP (Chen et al., "Identifying state-free networked tags", IEEE/ACM ToN
2017) is the benchmark the paper compares against (Sec. VI-A): the only
prior protocol that performs system-level functions over networked tags,
by collecting *every* 96-bit tag ID at the reader.  It has two phases:

1. **Tree building.**  A system-wide broadcast wave establishes a spanning
   tree rooted at the reader: tags that already joined announce themselves
   under slotted-CSMA contention; an unattached tag adopts the *first*
   announcer it hears as its parent.  The wave moves outward tier by tier.
2. **Serialized collection.**  Tag IDs are relayed hop by hop up the tree
   to the reader.  Transfers are serialized (no two simultaneous data
   transmissions), but each hop still pays a CSMA carrier-sense backoff, a
   96-bit ID slot and a 1-bit ack.  A tag forwards its own ID plus one per
   descendant, so a tag with a large subtree carries a proportionally
   large energy load — the source of SICP's poor max-per-tag numbers in
   Tables I and II.  Being state-free, a tag cannot know when its subtree
   has finished, so it stays listening for the entire collection phase.

This is a *reconstruction*: the ToN paper's slot-accurate constants are not
in the ICDCS text, so the CSMA parameters below are calibrated once against
the paper's reported r = 6 execution time (~170 k slots for n = 10,000) —
see DESIGN.md §5.  Everything else (scaling with r, max-vs-average shape,
the non-monotone received-bits curve) is emergent from the model.

Energy counting follows DESIGN.md §6: 96 bits per transmitted/overheard ID,
1 bit per carrier-sensed slot while awake, 1-bit acks both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.net.energy import ID_BITS, EnergyLedger
from repro.net.geometry import segment_offsets
from repro.net.timing import SlotCount
from repro.net.topology import Network


@dataclass(frozen=True)
class SICPParams:
    """Tunable constants of the SICP reconstruction.

    ``relay_contention_window`` is the CSMA backoff window paid before each
    serialized ID hop; 16 lands the r = 6 execution time of the paper's
    evaluation deployment near the reported ~170 k slots.
    ``announce_base_window`` seeds the adaptive window used while building
    the tree.
    """

    relay_contention_window: int = 16
    ack_slots: int = 1
    announce_base_window: int = 16
    max_announce_windows: int = 512
    id_bits: int = ID_BITS

    def __post_init__(self) -> None:
        if self.relay_contention_window <= 0:
            raise ValueError("relay_contention_window must be positive")
        if self.ack_slots < 0:
            raise ValueError("ack_slots must be non-negative")
        if self.announce_base_window <= 0:
            raise ValueError("announce_base_window must be positive")
        if self.max_announce_windows < 1:
            raise ValueError("max_announce_windows must be at least 1")
        if self.id_bits < 1:
            raise ValueError("id_bits must be at least 1")


@dataclass
class SpanningTree:
    """The routing tree phase 1 produces.

    ``parent[i]`` is the tag index of i's parent, :data:`ROOT` (-1) for
    tier-1 tags whose parent is the reader, or :data:`UNATTACHED` (-2) for
    tags the wave never reached (they are outside the system, Sec. II).
    """

    parent: np.ndarray
    depth: np.ndarray
    attach_order: List[int]

    ROOT = -1
    UNATTACHED = -2

    @property
    def n_tags(self) -> int:
        return int(self.parent.shape[0])

    def attached_mask(self) -> np.ndarray:
        return self.parent != self.UNATTACHED

    def children_of(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.parent == i)

    def _levels(self) -> List[np.ndarray]:
        """Attached tags grouped by depth, shallowest level first, in
        ascending tag index within a level."""
        nodes = np.flatnonzero(self.attached_mask())
        order = nodes[np.argsort(self.depth[nodes], kind="stable")]
        return np.split(order, np.flatnonzero(np.diff(self.depth[order])) + 1)

    def _sizes(self, levels: List[np.ndarray]) -> np.ndarray:
        sizes = self.attached_mask().astype(np.int64)
        # Deepest level first: a level's sizes are final before they are
        # added into the level above.
        for level in reversed(levels[1:]):
            np.add.at(sizes, self.parent[level], sizes[level])
        return sizes

    def subtree_sizes(self) -> np.ndarray:
        """Tags in each tag's subtree, itself included (0 if unattached)."""
        return self._sizes(self._levels())

    def post_order(self) -> np.ndarray:
        """Attached tags in post-order over the forest: roots and siblings
        in ascending tag index, every subtree before its root.

        Level-wise offsets: a tag's subtree occupies ``[start, start +
        size)`` of the order, a root starts after the earlier roots'
        subtrees and a child after its parent's start plus its earlier
        siblings' subtrees; the tag itself closes its span.
        """
        levels = self._levels()
        sizes = self._sizes(levels)
        start = np.zeros(self.n_tags, dtype=np.int64)
        for k, level in enumerate(levels):
            par = self.parent[level]
            order = np.argsort(par, kind="stable")
            kids, par = level[order], par[order]
            before = np.cumsum(sizes[kids]) - sizes[kids]
            first = np.ones(kids.size, dtype=bool)
            first[1:] = par[1:] != par[:-1]
            before -= before[first][np.cumsum(first) - 1]
            start[kids] = before if k == 0 else start[par] + before
        nodes = np.flatnonzero(self.attached_mask())
        post = np.empty(nodes.size, dtype=np.int64)
        post[start[nodes] + sizes[nodes] - 1] = nodes
        return post

    def max_depth(self) -> int:
        attached = self.depth[self.attached_mask()]
        return int(attached.max()) if attached.size else 0


@dataclass
class SICPResult:
    """Everything one SICP run produces."""

    collected_ids: List[int]
    tree: SpanningTree
    slots: SlotCount
    ledger: EnergyLedger
    phase1_slots: SlotCount
    phase2_slots: SlotCount

    @property
    def total_slots(self) -> int:
        return self.slots.total_slots


# ---------------------------------------------------------------------------
# Phase 1: spanning-tree construction by CSMA announcement waves
# ---------------------------------------------------------------------------


def build_tree(
    network: Network,
    params: SICPParams,
    rng: np.random.Generator,
    ledger: EnergyLedger,
) -> "tuple[SpanningTree, SlotCount]":
    """Build the spanning tree and account its time and energy.

    Stage k lets the tags that attached at depth k announce themselves
    (96-bit beacons) under slotted CSMA with a window adapted to the worst
    local contention; an announcement collides if a contending neighbour
    picked the same backoff slot (distance-1 collision model; hidden
    terminals are out of scope, DESIGN.md §5).  Every unattached tag
    adopts one announcer it heard during the stage, uniformly at random —
    load-spreading parent selection, which reproduces the paper's trend of
    the maximum per-tag load *decreasing* with the inter-tag range (more
    candidate parents → flatter subtrees).  A tag announces until it
    succeeds once, or until the stage has used ``max_announce_windows``.

    Each window works on the contenders' CSR rows only, gathered with
    :func:`~repro.net.geometry.segment_offsets`: the contender-neighbour
    count is one ``bincount`` of those rows' targets (valid because the
    tag graph is symmetric), collisions and candidate (announcer,
    listener) edges are read off the same rows, and no array the size of
    the whole edge list is built.  The draws are one n-sized
    ``rng.integers`` per window and one ``rng.random`` key per candidate
    edge in CSR order, so the generator stream, the tree and the ledger's
    float sums are those of a pass over the whole edge list.
    """
    n = network.n_tags
    indptr, indices = network.indptr, network.indices

    parent = np.full(n, SpanningTree.UNATTACHED, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    attach_order: List[int] = []
    slots = SlotCount()

    tier1 = np.flatnonzero(network.tier1_mask)
    parent[tier1] = SpanningTree.ROOT
    depth[tier1] = 1
    attach_order.extend(tier1.tolist())
    slots += SlotCount(id_slots=1)  # the reader's build request

    current = tier1
    while current.size:
        contender = np.zeros(n, dtype=bool)
        contender[current] = True
        # Tags that could adopt a parent this stage.
        unattached = parent == SpanningTree.UNATTACHED
        adopted_parent = np.full(n, -1, dtype=np.int64)
        adopted_key = np.full(n, np.inf)

        windows_used = 0
        while current.size and windows_used < params.max_announce_windows:
            windows_used += 1
            # The contenders' CSR rows, in CSR order: only these edges can
            # collide or be heard this window.
            starts = indptr[current]
            counts = indptr[current + 1] - starts
            src = np.repeat(current, counts)
            dst = indices[segment_offsets(starts, counts)]
            # Contending neighbours of every tag; the graph is symmetric,
            # so counting the contenders' row targets counts them.
            tx_neighbors = np.bincount(dst, minlength=n)
            # Worst-case local contention: contending neighbours + self.
            max_local = int(tx_neighbors[current].max()) + 1
            window = max(
                params.announce_base_window, 1 << (max_local - 1).bit_length()
            )

            picks = rng.integers(0, window, size=n)
            # Collision: some contending neighbour picked the same slot.
            same = contender[dst] & (picks[dst] == picks[src])
            collided = np.zeros(n, dtype=bool)
            collided[src[same]] = True

            # Energy: every contender transmits a 96-bit beacon this
            # window; every tag still in phase 1 carrier-senses the whole
            # window; every listening neighbour of a transmitter captures
            # the 95 payload bits beyond the sensed one.
            awake = unattached | contender
            ledger.add_received_bulk(np.where(awake, float(window), 0.0))
            ledger.add_sent_bulk(
                np.where(contender, float(params.id_bits), 0.0)
            )
            ledger.add_received_bulk(
                np.where(awake, tx_neighbors * (params.id_bits - 1.0), 0.0)
            )
            slots += SlotCount(id_slots=int(window))

            # Uniform-random adoption: every (successful announcer →
            # unattached listener) pair is a candidate edge; each listener
            # picks one candidate with a random key minimised across the
            # stage's windows.
            succ_edge = ~collided[src] & unattached[dst]
            if succ_edge.any():
                listeners = dst[succ_edge]
                announcers = src[succ_edge]
                keys = rng.random(announcers.shape[0])
                np.minimum.at(adopted_key, listeners, keys)
                chosen = keys == adopted_key[listeners]
                adopted_parent[listeners[chosen]] = announcers[chosen]
            contender[current] = collided[current]
            current = current[collided[current]]

        newly = np.flatnonzero((adopted_parent >= 0) & unattached)
        parent[newly] = adopted_parent[newly]
        depth[newly] = depth[adopted_parent[newly]] + 1
        attach_order.extend(newly.tolist())
        current = newly

    tree = SpanningTree(parent=parent, depth=depth, attach_order=attach_order)
    return tree, slots


# ---------------------------------------------------------------------------
# Phase 2: serialized hop-by-hop ID collection
# ---------------------------------------------------------------------------


def collect_ids(
    network: Network,
    tree: SpanningTree,
    params: SICPParams,
    rng: np.random.Generator,
    ledger: EnergyLedger,
) -> "tuple[List[int], SlotCount]":
    """Relay every attached tag's ID to the reader, serialized.

    One transfer event per (ID, hop): a CSMA backoff (uniform in the relay
    window), the 96-bit ID slot, then a 1-bit ack from the receiving hop.
    Tag u performs ``subtree(u)`` transfers (its own ID plus one per
    descendant).  Being serialized, events are strictly sequential, so the
    phase length is the sum of the per-event costs; being state-free, every
    attached tag carrier-senses the whole phase.

    IDs reach the reader in post-order (subtrees in ascending tag index,
    each before its root), computed level by level from the tree's depths
    by :meth:`SpanningTree.post_order`; overheard payloads are summed per
    CSR row in integers.
    """
    indptr, indices = network.indptr, network.indices
    attached = tree.attached_mask()
    subtree = tree.subtree_sizes()

    sends = np.where(attached, subtree, 0).astype(np.int64)
    n_events = int(sends.sum())
    if n_events:
        backoff_total = int(
            rng.integers(0, params.relay_contention_window, size=n_events).sum()
        )
    else:
        backoff_total = 0
    phase_short = backoff_total + n_events * params.ack_slots
    phase_slots = SlotCount(short_slots=phase_short, id_slots=n_events)
    phase_total = phase_slots.total_slots

    # Energy.
    sent = sends * float(params.id_bits)  # ID payloads up the tree
    # Acks: a tag receives one ack per transfer it makes, and sends one ack
    # per ID it receives from children (= subtree - 1 of them).
    received = sends.astype(np.float64)
    sent = sent + np.where(attached, (subtree - 1).clip(min=0), 0)
    # Carrier sensing for the whole serialized phase.
    received = received + np.where(attached, float(phase_total), 0.0)
    # Overheard payloads: every attached neighbour of a transmitter
    # captures the 95 bits beyond the sensed one, for each of its sends.
    # Summed per CSR row in integers (exact, so equal to the float sums);
    # ``reduceat`` needs the empty rows left out.
    rows = np.flatnonzero(np.diff(indptr))
    overheard = np.zeros(tree.n_tags)
    if rows.size:
        overheard[rows] = np.add.reduceat(sends[indices], indptr[rows])
    overheard *= params.id_bits - 1
    received = received + np.where(attached, overheard, 0.0)
    ledger.add_sent_bulk(sent.astype(np.float64))
    ledger.add_received_bulk(received)

    # Reader-arrival order: post-order over the forest.
    collected = network.tag_ids[tree.post_order()].tolist()
    return collected, phase_slots


def run_sicp(
    network: Network,
    params: Optional[SICPParams] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SICPResult:
    """Run both SICP phases over ``network`` and account everything."""
    params = params or SICPParams()
    if rng is None:
        rng = np.random.default_rng(seed)
    ledger = EnergyLedger(network.n_tags)
    tree, phase1 = build_tree(network, params, rng, ledger)
    collected, phase2 = collect_ids(network, tree, params, rng, ledger)
    return SICPResult(
        collected_ids=collected,
        tree=tree,
        slots=phase1.add(phase2),
        ledger=ledger,
        phase1_slots=phase1,
        phase2_slots=phase2,
    )
