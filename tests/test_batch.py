"""The trial-major batched kernel vs its own B = 1 runs.

The executable reference for ``run_session_batch`` is B = 1 of the same
kernel (``engine="packed"``), which ``tests/test_engine.py`` checks
against the bigint oracle: under the ``repro-batch-rng-v1`` contract
every trial in a batch must be bit-identical to running it alone with
the same generator.  The grid here sweeps topology x frame size x loss and
compares every observable field (bitmap, rounds, slot accounting, round
stats, energy floats).  Also covered: trial-order independence, tail
batches through the campaign engine, a one-trial batch against
``run_session``, parameter-only trials on a process pool, and the
RNG-contract fingerprint coupling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batch as batch_mod
import repro.net.channel as channel_mod
from repro.core.batch import (
    BATCH_RNG_CONTRACT,
    batch_trial_rngs,
    run_session_batch,
)
from repro.core.engine import words_to_int
from repro.core.session import ENGINE_NAMES, CCMConfig, run_session
from repro.net.channel import LossyChannel, PerfectChannel, or_reduce_segments
from repro.net.geometry import Point
from repro.net.topology import Network, Reader
from repro.sim.parallel import Campaign, ExecutorConfig
from repro.sim.plan import RunPlan
from repro.sim.runner import trial_seed

FRAME_SIZES = (37, 64, 257)
LOSSES = (0.0, 0.2, 0.5)
B = 4
BASE_SEED = 424242


def draw_picks(rng, n, f, participation=0.8):
    """The shared pick-draw: participation uniform + slot pick per tag."""
    p = rng.random(n)
    s = rng.integers(0, f, size=n)
    return np.where(p < participation, s, -1)


def run_reference(network, f, loss, seed):
    """One trial alone through the kernel at B = 1 (the contract's
    reference path), drawing picks and channel losses from one
    generator exactly as the batched path must."""
    rng = np.random.default_rng(seed)
    picks = draw_picks(rng, network.n_tags, f)
    config = CCMConfig(frame_size=f)
    if loss > 0.0:
        return run_session(
            network, picks, config=config,
            channel=LossyChannel(loss=loss), rng=rng, engine="packed",
        )
    return run_session(network, picks, config=config, engine="packed")


def run_batched(network, f, loss, seeds):
    rngs = [np.random.default_rng(s) for s in seeds]
    picks_batch = [draw_picks(rng, network.n_tags, f) for rng in rngs]
    config = CCMConfig(frame_size=f)
    if loss > 0.0:
        return run_session_batch(
            network, picks_batch, config,
            channel=LossyChannel(loss=loss), rngs=rngs,
        )
    return run_session_batch(network, picks_batch, config)


def assert_sessions_identical(ref, out):
    assert out.bitmap == ref.bitmap
    assert out.rounds == ref.rounds
    assert out.slots == ref.slots
    assert out.terminated_cleanly == ref.terminated_cleanly
    assert out.round_stats == ref.round_stats
    np.testing.assert_array_equal(
        out.ledger.bits_sent, ref.ledger.bits_sent
    )
    np.testing.assert_array_equal(
        out.ledger.bits_received, ref.ledger.bits_received
    )


@pytest.fixture(params=["small", "line", "star"])
def grid_network(request, small_network, line_network, star_network):
    return {
        "small": small_network, "line": line_network, "star": star_network
    }[request.param]


class TestEquivalenceGrid:
    @pytest.mark.parametrize("f", FRAME_SIZES)
    @pytest.mark.parametrize("loss", LOSSES)
    def test_batched_matches_per_trial_packed(self, grid_network, f, loss):
        seeds = [trial_seed(BASE_SEED, k) for k in range(B)]
        batched = run_batched(grid_network, f, loss, seeds)
        assert len(batched) == B
        for seed, out in zip(seeds, batched):
            ref = run_reference(grid_network, f, loss, seed)
            assert_sessions_identical(ref, out)

    def test_lossy_draw_chunks_match_bigint(self, small_network, monkeypatch):
        """B lossy trials whose rounds draw their ``repro-channel-rng-v1``
        block over several draw chunks: each matches the bigint engine
        run on its own ``batch_trial_rngs`` generator."""
        chunk = 7
        monkeypatch.setattr(channel_mod, "_LOSSY_DRAW_CHUNK", chunk)
        f, n = 64, small_network.n_tags
        config = CCMConfig(frame_size=f)
        channel = LossyChannel(loss=0.3)
        rngs = batch_trial_rngs(11, range(B))
        picks = [draw_picks(r, n, f) for r in rngs]
        degree = np.diff(small_network.indptr)
        assert all(degree[p >= 0].sum() > 3 * chunk for p in picks)
        batched = run_session_batch(
            small_network, picks, config, channel=channel, rngs=rngs
        )
        for rng, out in zip(batch_trial_rngs(11, range(B)), batched):
            ref = run_session(
                small_network, draw_picks(rng, n, f), config=config,
                channel=channel, rng=rng, engine="bigint",
            )
            assert_sessions_identical(ref, out)
        assert any(r.rounds > 1 for r in batched)

    def test_forced_csr_step_on_perfect_channel(
        self, small_network, monkeypatch
    ):
        """The perfect channel normally propagates with the bitset step;
        forcing the CSR step must not change a single bit."""
        seeds = [trial_seed(7, k) for k in range(B)]
        bitset = run_batched(small_network, 64, 0.0, seeds)
        monkeypatch.setattr(batch_mod, "SLOT_MAJOR_MAX_ADJ_BYTES", 0)
        csr = run_batched(small_network, 64, 0.0, seeds)
        for a, b in zip(bitset, csr):
            assert_sessions_identical(a, b)

    @pytest.mark.parametrize("max_rounds", (1, 2, 3))
    @pytest.mark.parametrize("path", ("slot_major", "tag_major", "lossy"))
    def test_round_bound_matches_bigint(
        self, small_network, monkeypatch, path, max_rounds
    ):
        """B trials of which some finish and some are cut off by
        ``max_rounds``: each matches the bigint engine run on its own
        ``batch_trial_rngs`` generator, clean flag included.  ``path``
        is the bitset step (``slot_major``), the CSR step forced on the
        perfect channel (``tag_major``, the layout it once forced) or on
        a lossy channel."""
        f, participation = 16, (0.8, 0.2, 0.05, 0.02)
        n = small_network.n_tags
        channel = LossyChannel(loss=0.3) if path == "lossy" else None
        if path == "tag_major":
            monkeypatch.setattr(batch_mod, "SLOT_MAJOR_MAX_ADJ_BYTES", 0)
        config = CCMConfig(frame_size=f, max_rounds=max_rounds)
        rngs = batch_trial_rngs(3, range(B))
        batched = run_session_batch(
            small_network,
            [draw_picks(r, n, f, p) for r, p in zip(rngs, participation)],
            config, channel=channel, rngs=rngs,
        )
        for rng, p, out in zip(
            batch_trial_rngs(3, range(B)), participation, batched
        ):
            ref = run_session(
                small_network, draw_picks(rng, n, f, p), config=config,
                channel=channel, rng=rng, engine="bigint",
            )
            assert_sessions_identical(ref, out)
        cut = [r.round_stats[-1].reader_heard_checking for r in batched]
        assert any(cut) and not all(cut)
        assert all(r.rounds == max_rounds for r, c in zip(batched, cut) if c)


class TestTrialOrderIndependence:
    """A trial's bits do not depend on its batch neighbours."""

    @pytest.mark.parametrize("loss", (0.0, 0.3))
    def test_sub_batch_replays_same_bits(self, small_network, loss):
        seeds = [trial_seed(99, k) for k in range(5)]
        full = run_batched(small_network, 64, loss, seeds)
        sub = run_batched(
            small_network, 64, loss, [seeds[2], seeds[4]]
        )
        assert_sessions_identical(full[2], sub[0])
        assert_sessions_identical(full[4], sub[1])

    def test_b1_equals_solo(self, small_network):
        seed = trial_seed(5, 3)
        [alone] = run_batched(small_network, 37, 0.2, [seed])
        ref = run_reference(small_network, 37, 0.2, seed)
        assert_sessions_identical(ref, alone)

    def test_batch_trial_rngs_matches_campaign_stream(self):
        rngs = batch_trial_rngs(BASE_SEED, [0, 3, 7])
        for k, rng in zip([0, 3, 7], rngs):
            expected = np.random.default_rng(trial_seed(BASE_SEED, k))
            assert rng.random() == expected.random()


class TestBatchEngineAdapter:
    def test_registered(self, small_network):
        """``"batch"`` is no engine name: one session is ``"packed"``,
        and batches go through ``run_session_batch``."""
        assert "batch" not in ENGINE_NAMES
        with pytest.raises(ValueError, match="auto, bigint, packed"):
            run_session(
                small_network, [-1] * small_network.n_tags,
                config=CCMConfig(frame_size=4), engine="batch",
            )

    @pytest.mark.parametrize("loss", (0.0, 0.2))
    def test_engine_batch_equals_packed(self, small_network, loss):
        rng_a = np.random.default_rng(11)
        picks = draw_picks(rng_a, small_network.n_tags, 64)
        rng_b = np.random.default_rng(11)
        draw_picks(rng_b, small_network.n_tags, 64)  # same rng position
        config = CCMConfig(frame_size=64)
        channel = LossyChannel(loss=loss) if loss > 0.0 else None
        ref = run_session(
            small_network, picks, config=config, channel=channel,
            rng=rng_a if loss > 0.0 else None, engine="packed",
        )
        [out] = run_session_batch(
            small_network, [picks], config, channel=channel,
            rngs=[rng_b] if loss > 0.0 else None,
        )
        assert_sessions_identical(ref, out)


class TestOrRuns:
    def test_matches_per_run_reduce(self):
        """Runs shorter and longer than a chunk's row budget (600-word
        rows leave room for ~54 per chunk) all OR to the plain per-run
        reduction."""
        rng = np.random.default_rng(5)
        adjacency = rng.integers(
            0, 2**63, size=(300, 600), dtype=np.uint64
        )
        lens = rng.integers(1, 120, size=40)
        tags = rng.integers(0, 300, size=int(lens.sum()))
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        got = batch_mod._or_runs(adjacency, tags, starts)
        for j, (s, k) in enumerate(zip(starts, lens)):
            np.testing.assert_array_equal(
                got[j],
                np.bitwise_or.reduce(adjacency[tags[s : s + k]], axis=0),
            )


def isolated_tail_network(n, seed=0):
    """~3 neighbours per tag on average; the last tag (when n > 1) is far
    from the rest, so degree-0 tags are always present."""
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2)) * max(1.0, np.sqrt(n))
    if n > 1:
        positions[-1] = (1e3, 1e3)
    reader = Reader(
        position=Point(0.0, 0.0),
        reader_to_tag_range=5.0,
        tag_to_reader_range=2.0,
    )
    return Network.build(positions, [reader], tag_range=1.0)


def transmit_matrix(kind, n, f, rng):
    """An (n, ceil(f/64)) transmit frame with bits only inside the frame."""
    if kind == "zero":
        bits = np.zeros((n, f), dtype=bool)
    elif kind == "ones":
        bits = np.ones((n, f), dtype=bool)
    else:
        bits = rng.random((n, f)) < (0.02 if kind == "sparse" else 0.6)
    return batch_mod._pack_rows(bits, max(1, (f + 63) // 64))


class TestHeardFromBitsets:
    """The slot-major kernel's propagation of one frame (each slot's
    audience is the OR of its transmitters' neighbour bitsets, by
    ``_run_starts`` and ``_or_runs`` over pairs sorted by slot) equals
    the CSR segment OR and the bigint channel, word for word."""

    @staticmethod
    def check(net, transmit):
        w = transmit.shape[1]
        slot, tag = np.nonzero(batch_mod._unpack_rows(transmit, 64 * w).T)
        heard = np.zeros((64 * w, net.n_tags), dtype=bool)
        if slot.size:
            starts = batch_mod._run_starts(slot)
            audience = batch_mod._or_runs(net.packed_adjacency(), tag, starts)
            heard[slot[starts]] = batch_mod._unpack_rows(audience, net.n_tags)
        got = batch_mod._pack_rows(heard.T, w)
        csr = or_reduce_segments(transmit, net.indptr, net.indices)
        np.testing.assert_array_equal(got, csr)
        ints = [words_to_int(row) for row in transmit]
        want = PerfectChannel().propagate(ints, net.indptr, net.indices)
        assert [words_to_int(row) for row in got] == want
        assert got.dtype == np.uint64 and got.shape == transmit.shape

    @pytest.mark.parametrize("n", (1, 63, 64, 65, 129))
    @pytest.mark.parametrize("f", (1, 63, 64, 65, 129))
    def test_grid(self, n, f):
        net = isolated_tail_network(n, seed=n * 1000 + f)
        assert (np.diff(net.indptr) == 0).any()
        rng = np.random.default_rng(f)
        for kind in ("zero", "sparse", "dense", "ones"):
            self.check(net, transmit_matrix(kind, n, f, rng))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from((1, 63, 64, 65, 129)),
        f=st.sampled_from((1, 63, 64, 65, 129)),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_frames(self, n, f, density, seed):
        rng = np.random.default_rng(seed)
        net = isolated_tail_network(n, seed=seed)
        bits = rng.random((n, f)) < density
        self.check(net, batch_mod._pack_rows(bits, (f + 63) // 64))


class TestValidation:
    def test_empty_batch_rejected(self, small_network):
        with pytest.raises(ValueError, match="at least one"):
            run_session_batch(
                small_network, [], CCMConfig(frame_size=16)
            )

    def test_rng_count_mismatch_rejected(self, small_network):
        picks = [[-1] * small_network.n_tags] * 2
        with pytest.raises(ValueError, match="generators"):
            run_session_batch(
                small_network, picks, CCMConfig(frame_size=16),
                channel=LossyChannel(loss=0.1),
                rngs=[np.random.default_rng(0)],
            )

    def test_out_of_range_mask_rejected(self, small_network):
        picks = [[-1] * small_network.n_tags]
        picks[0][3] = 20
        with pytest.raises(ValueError, match="out of range"):
            run_session_batch(
                small_network, picks, CCMConfig(frame_size=16)
            )


class TestCampaignBatchDispatch:
    """plan.batch=B stacks trials per task, tails included, results
    bit-identical to per-trial dispatch."""

    def _trial(self):
        from repro.experiments.common import SessionBatchTrial

        return SessionBatchTrial(
            tag_range=6.0, n_tags=250, frame_size=64,
            participation=0.7, topology_seed=3,
        )

    def _lossy_trial(self):
        from repro.experiments.common import SessionBatchTrial

        return SessionBatchTrial(
            tag_range=6.0, n_tags=250, frame_size=64,
            participation=0.7, loss=0.25, topology_seed=3,
        )

    def test_run_batch_equals_call_per_trial(self):
        for trial in (self._trial(), self._lossy_trial()):
            seeds = [trial_seed(21, k) for k in range(3)]
            batched = trial.run_batch([0, 1, 2], seeds)
            solo = [trial(k, s) for k, s in zip([0, 1, 2], seeds)]
            assert batched == solo

    def test_tail_batch_campaign_matches_serial(self):
        trial = self._trial()
        per_trial = Campaign(trial, 7, 13).run()
        # batch=3 over 7 trials -> tasks of 3, 3 and a tail of 1
        batched = Campaign(
            trial, 7, 13,
            plan=RunPlan(batch=3, executor=ExecutorConfig.serial()),
        ).run()
        assert batched.ok
        assert batched.per_trial == per_trial.per_trial
        assert batched.aggregates == per_trial.aggregates

    def test_batched_thread_pool_matches_serial(self):
        trial = self._lossy_trial()
        per_trial = Campaign(trial, 5, 17).run()
        pooled = Campaign(
            trial, 5, 17,
            plan=RunPlan(
                batch=2,
                executor=ExecutorConfig(workers=2, backend="thread"),
            ),
        ).run()
        assert pooled.ok
        assert pooled.per_trial == per_trial.per_trial

    def test_batch_flag_inert_without_run_batch_hook(self):
        def plain(trial_index, seed):
            return {"v": float(seed % 101)}

        baseline = Campaign(plain, 5, 3).run()
        batched = Campaign(
            plain, 5, 3,
            plan=RunPlan(batch=4, executor=ExecutorConfig.serial()),
        ).run()
        assert batched.per_trial == baseline.per_trial

    def test_failing_run_batch_falls_back_per_trial(self):
        class BrokenBatch:
            """run_batch always explodes; per-trial path must rescue."""

            engine = "packed"

            def __call__(self, trial_index, seed):
                return {"v": float(seed % 101)}

            def run_batch(self, indices, seeds):
                raise RuntimeError("batched kernel exploded")

        trial = BrokenBatch()
        baseline = Campaign(trial, 4, 5).run()
        rescued = Campaign(
            trial, 4, 5,
            plan=RunPlan(batch=2, executor=ExecutorConfig.serial()),
        ).run()
        assert rescued.ok
        assert rescued.per_trial == baseline.per_trial


class TestTopologyByParameters:
    """A trial without a pinned ``network`` builds its topology from its
    own parameters, in whichever process runs it."""

    PARAMS = dict(tag_range=6.0, n_tags=250, frame_size=64, topology_seed=77)

    def test_cache_config_excludes_network(self):
        from repro.experiments.common import SessionBatchTrial

        bare = SessionBatchTrial(**self.PARAMS)
        pinned = SessionBatchTrial(
            **self.PARAMS, network=bare._resolve_network()
        )
        assert pinned.cache_config() == bare.cache_config()
        assert "network" not in bare.cache_config()

    def test_parameter_only_trial_equals_pinned(self):
        from repro.experiments.common import SessionBatchTrial
        from repro.net.topology import PaperDeployment, paper_network

        network = paper_network(
            6.0, n_tags=250, seed=77, deployment=PaperDeployment(n_tags=250)
        )
        pinned = SessionBatchTrial(**self.PARAMS, network=network)
        bare = SessionBatchTrial(**self.PARAMS)
        np.testing.assert_array_equal(
            bare._resolve_network().indices, network.indices
        )
        assert bare(0, 1234) == pinned(0, 1234)

    def test_topology_cache_keeps_most_recent(self, monkeypatch):
        from repro.experiments import common
        from repro.experiments.common import SessionBatchTrial

        monkeypatch.setattr(common, "_TOPOLOGY_CACHE", {})
        trials = [
            SessionBatchTrial(**dict(self.PARAMS, n_tags=50, topology_seed=s))
            for s in range(21)
        ]
        first = [t._resolve_network() for t in trials[:20]]
        assert len(common._TOPOLOGY_CACHE) == common._TOPOLOGY_CACHE_SIZE == 16
        assert trials[4]._resolve_network() is first[4]  # a hit refreshes 4
        trials[20]._resolve_network()  # evicts the oldest, seed 5
        seeds = [key[2] for key in common._TOPOLOGY_CACHE]
        assert seeds == list(range(6, 20)) + [4, 20]
        again = trials[0]._resolve_network()  # evicted: built anew
        assert again is not first[0]
        np.testing.assert_array_equal(again.positions, first[0].positions)
        np.testing.assert_array_equal(again.indptr, first[0].indptr)
        np.testing.assert_array_equal(again.indices, first[0].indices)
        assert len(common._TOPOLOGY_CACHE) == 16

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("loss", [0.0, 0.25])
    def test_process_campaign_matches_serial(self, monkeypatch, loss, batch):
        from repro.experiments import common
        from repro.experiments.common import SessionBatchTrial

        # An empty cache: each worker builds the topology itself.
        monkeypatch.setattr(common, "_TOPOLOGY_CACHE", {})
        trial = SessionBatchTrial(
            **self.PARAMS, participation=0.7, loss=loss
        )
        pooled = Campaign(
            trial, 5, 19,
            plan=RunPlan(
                batch=batch,
                executor=ExecutorConfig(workers=2, backend="process"),
            ),
        ).run()
        assert not common._TOPOLOGY_CACHE
        serial = Campaign(trial, 5, 19).run()
        assert pooled.ok
        assert pooled.per_trial == serial.per_trial
        assert pooled.aggregates == serial.aggregates


class TestFingerprintCoupling:
    def test_fingerprint_mixes_batch_contract(self, monkeypatch):
        from repro.store import fingerprint as fp

        fp.code_fingerprint.cache_clear()
        before = fp.code_fingerprint()
        monkeypatch.setattr(
            batch_mod, "BATCH_RNG_CONTRACT", "repro-batch-rng-v999"
        )
        fp.code_fingerprint.cache_clear()
        after = fp.code_fingerprint()
        assert before != after
        monkeypatch.undo()
        fp.code_fingerprint.cache_clear()
        assert fp.code_fingerprint() == before

    def test_contract_version_string(self):
        assert BATCH_RNG_CONTRACT == "repro-batch-rng-v1"
