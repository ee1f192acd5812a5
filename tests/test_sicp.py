"""Tests for repro.protocols.sicp — the ID-collection baseline.

``build_tree``, ``collect_ids`` and ``SpanningTree.subtree_sizes`` are
whole-array passes.  The oracles below are the per-window whole-graph
loop, the stack post-order and the attach-order accumulation they
replaced; the differential tests hold the kernels to them bit for bit —
tree, attach order, ledger bytes, slot counts, collected IDs and the
generator state left behind.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.energy import EnergyLedger, ID_BITS
from repro.net.geometry import Point
from repro.net.timing import SlotCount
from repro.net.topology import Network, Reader
from repro.protocols.sicp import (
    SICPParams,
    SpanningTree,
    build_tree,
    collect_ids,
    run_sicp,
)


# -- oracles ---------------------------------------------------------------


def _edge_sources(network):
    return np.repeat(
        np.arange(network.n_tags, dtype=np.int64), np.diff(network.indptr)
    )


def oracle_build_tree(network, params, rng, ledger):
    """Announcement waves with every window a pass over all E edges."""
    n = network.n_tags
    indices = network.indices
    edge_src = _edge_sources(network)

    parent = np.full(n, SpanningTree.UNATTACHED, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    attach_order: List[int] = []
    slots = SlotCount()

    tier1 = np.flatnonzero(network.tier1_mask)
    parent[tier1] = SpanningTree.ROOT
    depth[tier1] = 1
    attach_order.extend(tier1.tolist())
    slots += SlotCount(id_slots=1)

    current = tier1
    while current.size:
        contender = np.zeros(n, dtype=bool)
        contender[current] = True
        unattached = parent == SpanningTree.UNATTACHED
        adopted_parent = np.full(n, -1, dtype=np.int64)
        adopted_key = np.full(n, np.inf)

        windows_used = 0
        while contender.any() and windows_used < params.max_announce_windows:
            windows_used += 1
            local = np.bincount(
                edge_src, weights=contender[indices].astype(np.float64), minlength=n
            )
            max_local = int(local[contender].max()) + 1 if contender.any() else 1
            window = max(
                params.announce_base_window, 1 << (max_local - 1).bit_length()
            )
            picks = np.where(
                contender, rng.integers(0, window, size=n), -1
            ).astype(np.int64)
            same = (picks[edge_src] >= 0) & (picks[edge_src] == picks[indices])
            collided = np.zeros(n, dtype=bool)
            np.logical_or.at(collided, edge_src[same], True)
            succeeded = contender & ~collided

            awake = unattached | contender
            ledger.add_received_bulk(np.where(awake, float(window), 0.0))
            ledger.add_sent_bulk(np.where(contender, float(params.id_bits), 0.0))
            tx_neighbors = np.bincount(
                edge_src, weights=contender[indices].astype(np.float64), minlength=n
            )
            ledger.add_received_bulk(
                np.where(awake, tx_neighbors * (params.id_bits - 1), 0.0)
            )
            slots += SlotCount(id_slots=int(window))

            succ_edge = succeeded[edge_src] & unattached[indices]
            if succ_edge.any():
                listeners = indices[succ_edge]
                announcers = edge_src[succ_edge]
                keys = rng.random(announcers.shape[0])
                np.minimum.at(adopted_key, listeners, keys)
                chosen = keys == adopted_key[listeners]
                adopted_parent[listeners[chosen]] = announcers[chosen]
            contender &= ~succeeded

        newly = np.flatnonzero((adopted_parent >= 0) & unattached)
        parent[newly] = adopted_parent[newly]
        depth[newly] = depth[adopted_parent[newly]] + 1
        attach_order.extend(newly.tolist())
        current = newly

    tree = SpanningTree(parent=parent, depth=depth, attach_order=attach_order)
    return tree, slots


def oracle_subtree_sizes(tree):
    """Accumulate leaves upward along the reversed attach order."""
    sizes = np.where(tree.attached_mask(), 1, 0).astype(np.int64)
    for i in reversed(tree.attach_order):
        p = int(tree.parent[i])
        if p >= 0:
            sizes[p] += sizes[i]
    return sizes


def oracle_post_order(tree):
    """Children lists built in index order, then a stack post-order."""
    n = tree.n_tags
    roots = np.flatnonzero(tree.parent == SpanningTree.ROOT).tolist()
    children: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = int(tree.parent[i])
        if p >= 0:
            children[p].append(i)
    post: List[int] = []
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            post.append(node)
            continue
        stack.append((node, True))
        for c in reversed(children[node]):
            stack.append((c, False))
    return post


def oracle_collect_ids(network, tree, params, rng, ledger):
    """Phase 2 with per-edge float overhearing sums and the stack order."""
    n = network.n_tags
    indices = network.indices
    attached = tree.attached_mask()
    subtree = oracle_subtree_sizes(tree)
    sends = np.where(attached, subtree, 0).astype(np.int64)
    n_events = int(sends.sum())
    backoff_total = (
        int(rng.integers(0, params.relay_contention_window, size=n_events).sum())
        if n_events
        else 0
    )
    phase_slots = SlotCount(
        short_slots=backoff_total + n_events * params.ack_slots, id_slots=n_events
    )
    sent = sends * float(params.id_bits)
    received = sends.astype(np.float64)
    sent = sent + np.where(attached, (subtree - 1).clip(min=0), 0)
    received = received + np.where(attached, float(phase_slots.total_slots), 0.0)
    overheard = np.bincount(
        _edge_sources(network),
        weights=sends[indices].astype(np.float64) * (params.id_bits - 1),
        minlength=n,
    )
    received = received + np.where(attached, overheard, 0.0)
    ledger.add_sent_bulk(sent.astype(np.float64))
    ledger.add_received_bulk(received)
    collected = [int(network.tag_ids[t]) for t in oracle_post_order(tree)]
    return collected, phase_slots


# -- strategies ------------------------------------------------------------


@st.composite
def disk_graphs(draw):
    """Random disk graphs around one reader: sparse and dense ranges, an
    optional far cluster the wave cannot reach, and coincident tags."""
    n = draw(st.integers(1, 70))
    side = draw(st.sampled_from([4.0, 10.0, 25.0]))
    coord = st.floats(-side, side, allow_nan=False, allow_infinity=False)
    pts = [(draw(coord), draw(coord)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        pts.append(pts[draw(st.integers(0, len(pts) - 1))])
    if draw(st.booleans()):
        pts += [(x + 500.0, y) for x, y in pts[: draw(st.integers(1, 6))]]
    tag_range = draw(st.sampled_from([0.8, 2.0, 4.0, 9.0]))
    r_prime = draw(st.floats(0.5, 8.0))
    reader = Reader(Point(0.0, 0.0), r_prime * 2.0, r_prime)
    return Network.build(np.array(pts, dtype=np.float64), [reader], tag_range)


sicp_params = st.builds(
    SICPParams,
    relay_contention_window=st.sampled_from([1, 4, 16]),
    ack_slots=st.sampled_from([0, 1, 2]),
    announce_base_window=st.sampled_from([1, 2, 16]),
    max_announce_windows=st.sampled_from([1, 2, 3, 512]),
    id_bits=st.sampled_from([1, 8, ID_BITS]),
)


def _ledger_bytes(ledger):
    return ledger.bits_sent.tobytes(), ledger.bits_received.tobytes()


# -- differential tests ----------------------------------------------------


class TestKernelsMatchOracles:
    @settings(max_examples=150, deadline=None)
    @given(disk_graphs(), sicp_params, st.integers(0, 2**32))
    def test_build_and_collect(self, net, params, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got_led, want_led = EnergyLedger(net.n_tags), EnergyLedger(net.n_tags)
        tree, slots = build_tree(net, params, got_rng, got_led)
        want_tree, want_slots = oracle_build_tree(net, params, want_rng, want_led)
        assert np.array_equal(tree.parent, want_tree.parent)
        assert np.array_equal(tree.depth, want_tree.depth)
        assert tree.attach_order == want_tree.attach_order
        assert slots == want_slots
        assert _ledger_bytes(got_led) == _ledger_bytes(want_led)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

        assert np.array_equal(tree.subtree_sizes(), oracle_subtree_sizes(tree))
        assert tree.post_order().tolist() == oracle_post_order(tree)
        collected, phase2 = collect_ids(net, tree, params, got_rng, got_led)
        want_ids, want_phase2 = oracle_collect_ids(
            net, tree, params, want_rng, want_led
        )
        assert collected == want_ids
        assert phase2 == want_phase2
        assert _ledger_bytes(got_led) == _ledger_bytes(want_led)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.data())
    def test_random_forests(self, n, data):
        # Arbitrary forests, not only announcement-wave trees: each tag
        # hangs under an earlier-attached tag or the reader, or is left out.
        parent = np.full(n, SpanningTree.UNATTACHED, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        order = data.draw(st.permutations(range(n)))
        attach_order: List[int] = []
        for i in order:
            choice = data.draw(st.integers(-2, len(attach_order) - 1))
            if choice == -2:
                continue
            if choice == -1 or not attach_order:
                parent[i], depth[i] = SpanningTree.ROOT, 1
            else:
                p = attach_order[choice]
                parent[i], depth[i] = p, depth[p] + 1
            attach_order.append(i)
        tree = SpanningTree(parent=parent, depth=depth, attach_order=attach_order)
        assert np.array_equal(tree.subtree_sizes(), oracle_subtree_sizes(tree))
        assert tree.post_order().tolist() == oracle_post_order(tree)

    def test_windows_run_out(self):
        # Four mutually adjacent tier-1 tags; tag 4 hears only tag 0.  With
        # one window per stage, tag 4 is stranded whenever tag 0 collides:
        # run_sicp collects fewer IDs than are reachable, as the oracle does.
        positions = np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [3.0, 0.0]]
        )
        net = Network.build(positions, [Reader(Point(0, 0), 3.0, 1.5)], 2.1)
        params = SICPParams(max_announce_windows=1, announce_base_window=1)
        stranded = 0
        for seed in range(20):
            got = run_sicp(net, params=params, seed=seed)
            want_rng = np.random.default_rng(seed)
            want_led = EnergyLedger(net.n_tags)
            tree, _ = oracle_build_tree(net, params, want_rng, want_led)
            ids, _ = oracle_collect_ids(net, tree, params, want_rng, want_led)
            assert got.collected_ids == ids
            assert _ledger_bytes(got.ledger) == _ledger_bytes(want_led)
            stranded += len(ids) < int(net.reachable_mask.sum())
        assert 0 < stranded < 20

    def test_empty_tree(self):
        tree = SpanningTree(
            parent=np.full(3, SpanningTree.UNATTACHED, dtype=np.int64),
            depth=np.zeros(3, dtype=np.int64),
            attach_order=[],
        )
        assert tree.subtree_sizes().tolist() == [0, 0, 0]
        assert tree.post_order().tolist() == []


class TestParams:
    def test_defaults_valid(self):
        SICPParams()

    def test_validation(self):
        with pytest.raises(ValueError):
            SICPParams(relay_contention_window=0)
        with pytest.raises(ValueError):
            SICPParams(ack_slots=-1)
        with pytest.raises(ValueError):
            SICPParams(announce_base_window=0)
        with pytest.raises(ValueError, match="max_announce_windows"):
            SICPParams(max_announce_windows=0)
        with pytest.raises(ValueError, match="id_bits"):
            SICPParams(id_bits=0)
        SICPParams(max_announce_windows=1, id_bits=1)


class TestTreeBuilding:
    def _build(self, network, seed=1):
        rng = np.random.default_rng(seed)
        ledger = EnergyLedger(network.n_tags)
        return build_tree(network, SICPParams(), rng, ledger) + (ledger,)

    def test_line_tree_structure(self, line_network):
        tree, slots, _ = self._build(line_network)
        assert tree.parent.tolist() == [SpanningTree.ROOT, 0, 1, 2, 3]
        assert tree.depth.tolist() == [1, 2, 3, 4, 5]

    def test_star_tree(self, star_network):
        tree, _, _ = self._build(star_network)
        assert (tree.parent[:4] == SpanningTree.ROOT).all()
        assert tree.parent[4] == 0  # only tag 0 is in range of tag 4
        assert tree.depth[4] == 2

    def test_parents_are_strictly_shallower(self, small_network):
        tree, _, _ = self._build(small_network)
        for i in range(small_network.n_tags):
            p = tree.parent[i]
            if p >= 0:
                assert tree.depth[i] == tree.depth[p] + 1

    def test_parents_are_neighbors(self, small_network):
        tree, _, _ = self._build(small_network)
        for i in range(small_network.n_tags):
            p = tree.parent[i]
            if p >= 0:
                assert p in small_network.neighbors(i)

    def test_all_reachable_attached(self, small_network):
        tree, _, _ = self._build(small_network)
        assert np.array_equal(
            tree.attached_mask(), small_network.reachable_mask
        )

    def test_unreachable_stay_unattached(self):
        from repro.net.geometry import Point
        from repro.net.topology import Network, Reader

        positions = np.array([[1.0, 0.0], [50.0, 50.0]])
        reader = Reader(Point(0, 0), 10.0, 1.5)
        net = Network.build(positions, [reader], tag_range=1.0)
        tree, _, _ = self._build(net)
        assert tree.parent[1] == SpanningTree.UNATTACHED

    def test_subtree_sizes(self, line_network):
        tree, _, _ = self._build(line_network)
        assert tree.subtree_sizes().tolist() == [5, 4, 3, 2, 1]

    def test_announce_energy_charged(self, star_network):
        _, _, ledger = self._build(star_network)
        # Every tag announces at least once: >= 96 bits sent each.
        assert np.all(ledger.bits_sent >= ID_BITS)

    def test_phase1_uses_id_slots(self, star_network):
        _, slots, _ = self._build(star_network)
        assert slots.id_slots > 0
        assert slots.short_slots == 0


class TestCollection:
    def _run(self, network, seed=2):
        rng = np.random.default_rng(seed)
        ledger = EnergyLedger(network.n_tags)
        tree, _ = build_tree(network, SICPParams(), rng, ledger)
        ledger2 = EnergyLedger(network.n_tags)
        collected, slots = collect_ids(network, tree, SICPParams(), rng, ledger2)
        return tree, collected, slots, ledger2

    def test_collects_every_reachable_id(self, small_network):
        _, collected, _, _ = self._run(small_network)
        reachable = set(
            int(t)
            for t in small_network.tag_ids[small_network.reachable_mask]
        )
        assert set(collected) == reachable
        assert len(collected) == len(reachable)  # no duplicates

    def test_post_order_children_before_parents(self, line_network):
        tree, collected, _, _ = self._run(line_network)
        # Line IDs are 1..5 root-to-leaf; post-order arrives leaf first.
        assert collected == [5, 4, 3, 2, 1]

    def test_id_slot_count_is_sum_of_depths(self, line_network):
        tree, _, slots, _ = self._run(line_network)
        assert slots.id_slots == int(tree.depth.sum())  # 1+2+3+4+5 = 15

    def test_sent_bits_proportional_to_subtree(self, line_network):
        tree, _, _, ledger = self._run(line_network)
        subtree = tree.subtree_sizes()
        for i in range(5):
            expected = subtree[i] * ID_BITS + (subtree[i] - 1)  # IDs + acks
            assert ledger.bits_sent[i] == pytest.approx(expected)

    def test_everyone_senses_whole_phase(self, line_network):
        _, _, slots, ledger = self._run(line_network)
        assert np.all(ledger.bits_received >= slots.total_slots)


class TestRunSICP:
    def test_end_to_end(self, small_network):
        result = run_sicp(small_network, seed=3)
        assert len(result.collected_ids) == int(
            small_network.reachable_mask.sum()
        )
        assert result.total_slots == (
            result.phase1_slots.total_slots + result.phase2_slots.total_slots
        )

    def test_seed_reproducible(self, small_network):
        a = run_sicp(small_network, seed=4)
        b = run_sicp(small_network, seed=4)
        assert a.total_slots == b.total_slots
        assert a.collected_ids == b.collected_ids

    def test_root_load_exceeds_average(self, dense_network):
        """The SICP pathology the paper highlights: tree roots relay entire
        subtrees, so max sent far exceeds average sent."""
        result = run_sicp(dense_network, seed=5)
        summary = result.ledger.summary()
        assert summary["max_sent"] > 5 * summary["avg_sent"]

    def test_max_depth_close_to_tiers(self, small_network):
        result = run_sicp(small_network, seed=6)
        assert result.tree.max_depth() >= small_network.num_tiers

    def test_cost_decreases_with_range(self):
        from repro.net.topology import PaperDeployment, paper_network

        slots = []
        for r in (3.0, 6.0, 10.0):
            net = paper_network(
                r, n_tags=800, seed=7, deployment=PaperDeployment(n_tags=800)
            )
            slots.append(run_sicp(net, seed=8).total_slots)
        assert slots[0] > slots[1] > slots[2]


class TestSICPGolden:
    """SICP on the paper deployment, pinned bit for bit.

    Covers the spanning tree (``parent``, ``depth``, ``attach_order``),
    the ledger's float bytes, both phases' slot counts and the collected
    ID order at n = 2,000 for r in {2, 6, 10} m, seeds 0 and 1.  Any
    change to the RNG stream, the adoption rule or the float summation
    order of the ledger moves these.
    """

    GOLDEN = {
        (2.0, 0): (
            "47d340034eb3bab2f241a9e0a1a9e2c1"
            "767bf880d383409869e0625e0753fdd8"
        ),
        (2.0, 1): (
            "48f54a1be979418a42f8f6b2c1e1440b"
            "a2b77d7cfea49b95f34b346186a19590"
        ),
        (6.0, 0): (
            "d7f7a3da64b804eff020451a7bc648ab"
            "0fdb4836f581895f9b4c66de5576fc23"
        ),
        (6.0, 1): (
            "a6cc318e61494dfe154ad7e39885ca11"
            "2b12fa7a5ce4f41cdeeaced9e5943766"
        ),
        (10.0, 0): (
            "ef561a99e8937e530512db3934f562d9"
            "72ff03d8479f78db7a8a0703fd4308ba"
        ),
        (10.0, 1): (
            "be6a74331309183430c2344145427104"
            "a26b8fb425d3402580a18b858cc1f2ab"
        ),
    }

    @staticmethod
    def _digest(tag_range, seed):
        import hashlib

        from repro.net.topology import PaperDeployment, paper_network

        net = paper_network(
            tag_range, n_tags=2000, seed=seed,
            deployment=PaperDeployment(n_tags=2000),
        )
        result = run_sicp(net, seed=seed + 11)
        tree = result.tree
        h = hashlib.sha256()
        for arr in (
            tree.parent,
            tree.depth,
            np.asarray(tree.attach_order, dtype=np.int64),
            result.ledger.bits_sent,
            result.ledger.bits_received,
        ):
            h.update(str(arr.dtype).encode())
            h.update(b"\0")
            h.update(np.ascontiguousarray(arr).tobytes())
            h.update(b"\0")
        for slots in (result.phase1_slots, result.phase2_slots):
            h.update(f"{slots.short_slots},{slots.id_slots}\0".encode())
        h.update(",".join(map(str, result.collected_ids)).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("tag_range", [2.0, 6.0, 10.0])
    def test_digest_pinned(self, tag_range, seed):
        assert self._digest(tag_range, seed) == self.GOLDEN[(tag_range, seed)]
