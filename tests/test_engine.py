"""Tests for repro.core.engine — the bigint oracle vs the kernel.

The contract under test is the strongest one the redesign makes: for any
network, initial slots and config, the vectorized kernel at B = 1
(``engine="packed"``) must produce a *bit-identical*
:class:`~repro.core.session.SessionResult` to the big-int oracle — same
bitmap, rounds, slots, round-by-round stats, tracer NDJSON and per-tag
energy ledger, down to float equality (every ledger add is an
integer-valued float64, exact in any association).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batch as batch_mod
import repro.core.engine as engine_mod
from repro.core.batch import run_session_batch
from repro.core.engine import masks_to_words, words_to_int
from repro.core.session import (
    ENGINE_NAMES,
    CCMConfig,
    default_checking_frame_length,
    run_session,
    slot_matrix,
)
from repro.net.channel import (
    Channel,
    LossyChannel,
    PerfectChannel,
    or_reduce_segments,
)
from repro.net.geometry import Point, clustered_disk, uniform_annulus, uniform_disk
from repro.net.topology import Network, Reader
from repro.scenario import ScenarioSessionEngine
from repro.sim.rng import TagHasher


def _build_network(deployment: str, n_tags: int, seed: int) -> Network:
    """A reachable multi-tier network for each supported geometry."""
    if deployment == "disk":
        positions = uniform_disk(n_tags, radius=20.0, seed=seed)
    elif deployment == "annulus":
        positions = uniform_annulus(
            n_tags, inner_radius=6.0, outer_radius=20.0, seed=seed
        )
    elif deployment == "clustered":
        positions = clustered_disk(
            n_tags, radius=20.0, n_clusters=8, cluster_sigma=2.0, seed=seed
        )
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(deployment)
    reader = Reader(
        position=Point(0.0, 0.0),
        reader_to_tag_range=25.0,
        tag_to_reader_range=8.0,
    )
    return Network.build(positions, [reader], tag_range=6.0)


def _picks_for(network: Network, frame_size: int, seed: int, multibit: bool):
    """Deterministic per-tag initial slots: a pick matrix of one or two
    (possibly equal) slots per tag."""
    hasher = TagHasher(seed=seed)
    return np.array(
        [
            [hasher.slot_of(int(tid), frame_size)]
            + ([hasher.slot_of(int(tid) ^ 0x5A5A, frame_size)] if multibit else [])
            for tid in network.tag_ids
        ]
    )


def _assert_results_identical(a, b) -> None:
    assert a.bitmap.size == b.bitmap.size
    assert a.bitmap.bits == b.bitmap.bits
    assert a.rounds == b.rounds
    assert a.slots == b.slots
    assert a.terminated_cleanly == b.terminated_cleanly
    assert a.round_stats == b.round_stats
    np.testing.assert_array_equal(a.ledger.bits_sent, b.ledger.bits_sent)
    np.testing.assert_array_equal(a.ledger.bits_received, b.ledger.bits_received)


class TestPackedPrimitives:
    @pytest.mark.parametrize("frame_size", [1, 5, 63, 64, 65, 128, 200])
    def test_masks_words_roundtrip(self, frame_size):
        rng = np.random.default_rng(frame_size)
        masks = [
            int(rng.integers(0, 2**min(frame_size, 62))) for _ in range(17)
        ] + [0, (1 << frame_size) - 1, 1 << (frame_size - 1)]
        words = masks_to_words(masks, frame_size)
        assert words.shape == (len(masks), (frame_size + 63) // 64)
        assert words.dtype == np.uint64
        assert [words_to_int(row) for row in words] == masks

    def test_or_reduce_matches_bigint_or(self):
        rng = np.random.default_rng(7)
        n, n_words = 50, 3
        rows = rng.integers(0, 2**64, size=(n, n_words), dtype=np.uint64)
        # Random sparse adjacency, including rows with no neighbours.
        degree = rng.integers(0, 6, size=n)
        degree[::7] = 0
        indices = np.concatenate(
            [rng.integers(0, n, size=d) for d in degree]
        ).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.int64)
        got = or_reduce_segments(rows, indptr, indices, chunk_words=16)
        expected = np.zeros_like(got)
        for t in range(n):
            for u in indices[indptr[t] : indptr[t + 1]]:
                expected[t] |= rows[u]
        np.testing.assert_array_equal(got, expected)

    def test_packed_adjacency_matches_csr(self):
        network = _build_network("disk", 60, seed=5)
        adj = network.packed_adjacency()
        assert adj.shape == (60, 1)
        for t in range(network.n_tags):
            expected = 0
            for u in network.neighbors(t):
                expected |= 1 << int(u)
            assert words_to_int(adj[t]) == expected
        # Cached: same object on repeat calls.
        assert network.packed_adjacency() is adj

    def test_or_reduce_row_filter_drops_silent_sources(self):
        rows = np.array([[3], [0], [12]], dtype=np.uint64)
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([1, 2, 0, 1])
        got = or_reduce_segments(
            rows, indptr, indices, row_filter=rows.any(axis=1)
        )
        np.testing.assert_array_equal(
            got, np.array([[12], [3], [0]], dtype=np.uint64)
        )


class TestEngineRegistry:
    """``run_session`` names its two engines itself: no engine objects."""

    @pytest.fixture
    def ran(self, monkeypatch):
        """The engines ``run_session`` dispatched to, in call order."""
        calls = []
        for module, attr, name in (
            (batch_mod, "_run_kernel", "packed"),
            (engine_mod, "run_bigint", "bigint"),
        ):
            def spy(*args, _real=getattr(module, attr), _name=name, **kw):
                calls.append(_name)
                return _real(*args, **kw)

            monkeypatch.setattr(module, attr, spy)
        return calls

    @staticmethod
    def _run(network, channel, engine="auto"):
        return run_session(
            network, [0, 1, 2, 3, 4], config=CCMConfig(frame_size=8),
            channel=channel, rng=np.random.default_rng(0), engine=engine,
        )

    def test_available_engines(self):
        assert ENGINE_NAMES == ("auto", "bigint", "packed")

    def test_get_engine_instances(self):
        """The engine-object layer is gone: no protocol, registry,
        adapter classes or resolver; ``"batch"`` and ``"scenario"`` are
        not engine names."""
        for name in (
            "SessionEngine", "BigintSessionEngine", "AUTO_ENGINE",
            "_ENGINES", "available_engines", "get_engine", "resolve_engine",
        ):
            assert not hasattr(engine_mod, name)
        assert not hasattr(batch_mod, "BatchSessionEngine")
        assert not hasattr(batch_mod, "_into_ledger")
        assert "batch" not in ENGINE_NAMES
        assert "scenario" not in ENGINE_NAMES

    def test_unknown_engine(self, star_network):
        for name in ("quantum", "batch", "scenario"):
            with pytest.raises(
                ValueError, match="expected one of auto, bigint, packed"
            ):
                self._run(star_network, None, engine=name)

    def test_auto_resolution(self, star_network, ran):
        # Lossy channels consume the repro-channel-rng-v1 stream
        # identically on both engines, so auto routes them to packed too.
        for channel in (
            None, PerfectChannel(), LossyChannel(0.1), LossyChannel(0.0)
        ):
            self._run(star_network, channel)
        assert ran == ["packed"] * 4
        for engine in ("packed", "bigint"):
            self._run(star_network, None, engine=engine)
        assert ran[4:] == ["packed", "bigint"]

    def test_auto_is_conservative_for_subclasses(self, star_network, ran):
        class TracingChannel(PerfectChannel):
            pass

        class TracingLossy(LossyChannel):
            pass

        self._run(star_network, TracingChannel())
        self._run(star_network, TracingLossy(0.2))
        assert ran == ["bigint", "bigint"]

    def test_packed_refuses_bigint_only_channel(self, star_network):
        class BigintOnly(Channel):
            def propagate(self, transmit, indptr, indices, rng=None):
                return PerfectChannel().propagate(
                    transmit, indptr, indices, rng
                )

            def reader_senses(self, transmit, tier1, rng=None):
                return PerfectChannel().reader_senses(transmit, tier1, rng)

        config = CCMConfig(frame_size=8)
        with pytest.raises(ValueError, match="packed"):
            run_session(
                star_network,
                [0, 1, 2, 3, 4],
                config=config,
                channel=BigintOnly(),
                engine="packed",
            )
        # The same channel runs fine on the bigint engine — and auto picks it.
        for engine in ("bigint", "auto"):
            result = run_session(
                star_network,
                [0, 1, 2, 3, 4],
                config=config,
                channel=BigintOnly(),
                engine=engine,
            )
            assert result.bitmap.popcount() == 5


class TestCrossEngineEquivalence:
    """packed ≡ bigint, bit for bit, across the deployment/frame grid."""

    @pytest.mark.parametrize("deployment", ["disk", "annulus", "clustered"])
    @pytest.mark.parametrize(
        "frame_size", [1, 37, 64, 257]
    )  # f < 64, f % 64 != 0, f == 64, multi-word
    @pytest.mark.parametrize("multibit", [False, True])
    def test_grid(self, deployment, frame_size, multibit):
        from repro.sim.trace import SessionTracer

        seed = {"disk": 101, "annulus": 202, "clustered": 303}[deployment]
        network = _build_network(deployment, n_tags=300, seed=seed)
        picks = _picks_for(network, frame_size, seed=11, multibit=multibit)
        config = CCMConfig(frame_size=frame_size)
        tracer_a, tracer_b = SessionTracer(), SessionTracer()
        a = run_session(
            network, picks, config=config, engine="bigint",
            tracer=tracer_a,
        )
        b = run_session(
            network, picks, config=config, engine="packed",
            tracer=tracer_b,
        )
        _assert_results_identical(a, b)
        # The engines' protocol event streams are byte-identical NDJSON.
        ndjson_a = tracer_a.to_ndjson()
        assert ndjson_a.encode() == tracer_b.to_ndjson().encode()
        assert ndjson_a  # both actually traced something

    def test_no_indicator_vector_ablation(self):
        network = _build_network("disk", n_tags=250, seed=5)
        picks = _picks_for(network, 96, seed=3, multibit=True)
        config = CCMConfig(frame_size=96, use_indicator_vector=False)
        a = run_session(network, picks, config=config, engine="bigint")
        b = run_session(network, picks, config=config, engine="packed")
        _assert_results_identical(a, b)

    def test_max_rounds_truncation(self, line_network):
        config = CCMConfig(frame_size=8, max_rounds=2)
        picks = [0, 1, 2, 3, 4]
        a = run_session(line_network, picks, config=config, engine="bigint")
        b = run_session(line_network, picks, config=config, engine="packed")
        assert not a.terminated_cleanly
        _assert_results_identical(a, b)

    def test_tracer_events_identical(self, star_network):
        from repro.sim.trace import SessionTracer

        config = CCMConfig(frame_size=8)
        events = {}
        for engine in ("bigint", "packed"):
            tracer = SessionTracer()
            run_session(
                star_network,
                [0, 1, 2, 3, 4],
                config=config,
                tracer=tracer,
                engine=engine,
            )
            events[engine] = tracer.events
        assert events["bigint"] == events["packed"]

    def test_empty_participation(self, star_network):
        config = CCMConfig(frame_size=8)
        a = run_session(star_network, [-1] * 5, config=config, engine="bigint")
        b = run_session(star_network, [-1] * 5, config=config, engine="packed")
        _assert_results_identical(a, b)
        assert a.bitmap.popcount() == 0

    def test_packed_lossy_channel_statistics(self):
        """Lossy sensing is subtractive: no phantom bits, and loss=0
        degenerates to the perfect channel."""
        network = _build_network("disk", n_tags=200, seed=9)
        picks = _picks_for(network, 64, seed=2, multibit=False)
        config = CCMConfig(frame_size=64)
        truth = run_session(network, picks, config=config)
        lossy = run_session(
            network,
            picks,
            config=config,
            channel=LossyChannel(0.3),
            rng=np.random.default_rng(17),
            engine="packed",
        )
        assert lossy.bitmap.difference(truth.bitmap).popcount() == 0
        lossless = run_session(
            network,
            picks,
            config=config,
            channel=LossyChannel(0.0),
            rng=np.random.default_rng(17),
            engine="packed",
        )
        assert lossless.bitmap.bits == truth.bitmap.bits


class TestLossyCrossEngineEquivalence:
    """packed ≡ bigint under LossyChannel: the repro-channel-rng-v1
    contract pins the Bernoulli draw order, so for the same seed the two
    engines produce bit-identical sessions — bitmaps, metrics, ledger
    floats, and tracer NDJSON."""

    @pytest.mark.parametrize("loss", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize(
        "frame_size", [37, 64, 257]
    )  # f < 64, f == 64, multi-word
    @pytest.mark.parametrize("multibit", [False, True])
    def test_grid(self, loss, frame_size, multibit):
        from repro.sim.trace import SessionTracer

        network = _build_network("disk", n_tags=300, seed=101)
        picks = _picks_for(network, frame_size, seed=11, multibit=multibit)
        config = CCMConfig(frame_size=frame_size)
        tracer_a, tracer_b = SessionTracer(), SessionTracer()
        a = run_session(
            network, picks, config=config, engine="bigint",
            channel=LossyChannel(loss), rng=np.random.default_rng(4242),
            tracer=tracer_a,
        )
        b = run_session(
            network, picks, config=config, engine="packed",
            channel=LossyChannel(loss), rng=np.random.default_rng(4242),
            tracer=tracer_b,
        )
        _assert_results_identical(a, b)
        ndjson_a = tracer_a.to_ndjson()
        assert ndjson_a.encode() == tracer_b.to_ndjson().encode()
        assert ndjson_a

    def test_no_indicator_vector_ablation(self):
        network = _build_network("annulus", n_tags=250, seed=202)
        picks = _picks_for(network, 96, seed=3, multibit=True)
        config = CCMConfig(frame_size=96, use_indicator_vector=False)
        a = run_session(
            network, picks, config=config, engine="bigint",
            channel=LossyChannel(0.4), rng=np.random.default_rng(8),
        )
        b = run_session(
            network, picks, config=config, engine="packed",
            channel=LossyChannel(0.4), rng=np.random.default_rng(8),
        )
        _assert_results_identical(a, b)

    def test_auto_matches_explicit_engines(self):
        network = _build_network("disk", n_tags=200, seed=9)
        picks = _picks_for(network, 64, seed=2, multibit=False)
        config = CCMConfig(frame_size=64)
        auto = run_session(
            network, picks, config=config,
            channel=LossyChannel(0.3), rng=np.random.default_rng(17),
        )
        explicit = run_session(
            network, picks, config=config, engine="bigint",
            channel=LossyChannel(0.3), rng=np.random.default_rng(17),
        )
        _assert_results_identical(auto, explicit)

    def test_zero_loss_routes_to_slot_major_without_rng(self):
        """LossyChannel(0.0) consumes no draws, so auto must reach the
        silent bitset step — which never touches an rng.  The bigint and
        CSR-step lossy paths raise without one, so succeeding here proves
        the dispatch."""
        network = _build_network("disk", n_tags=200, seed=9)
        picks = _picks_for(network, 64, seed=2, multibit=False)
        config = CCMConfig(frame_size=64)
        perfect = run_session(network, picks, config=config)
        lossless = run_session(
            network, picks, config=config, channel=LossyChannel(0.0)
        )
        _assert_results_identical(perfect, lossless)


class TestUnifiedAPI:
    def test_numpy_pick_matrix_accepted(self, star_network):
        """An int64 pick matrix reaches slots past the first word."""
        picks = np.array(
            [[0, 99], [64, 64], [1, -1], [63, 65], [-2, 2]], dtype=np.int64
        )
        result = run_session(
            star_network, picks, config=CCMConfig(frame_size=100)
        )
        assert list(result.bitmap.indices()) == [0, 1, 2, 63, 64, 65, 99]

    def test_run_session_masks_removed(self):
        """The deprecated alias completed its one-release grace period."""
        import repro.core
        import repro.core.session

        assert not hasattr(repro.core.session, "run_session_masks")
        assert not hasattr(repro.core, "run_session_masks")
        assert "run_session_masks" not in repro.core.__all__

    def test_top_level_exports(self):
        import repro

        for name in ("SessionTracer", "RoundStats", "ENGINE_NAMES"):
            assert name in repro.__all__
            assert hasattr(repro, name)
        assert repro.ENGINE_NAMES == ENGINE_NAMES
        for module in (repro, repro.core):
            for name in (
                "SessionEngine", "BigintSessionEngine", "BatchSessionEngine",
                "available_engines", "get_engine", "resolve_engine",
                "picks_to_masks", "register_engine",
            ):
                assert name not in module.__all__
                assert not hasattr(module, name)


class TestMultiReaderCheckingLength:
    def test_deepest_reader_wins(self):
        positions = np.array([[1.0, 0.0], [30.0, 0.0]])
        shallow = Reader(
            position=Point(0.0, 0.0),
            reader_to_tag_range=5.0,
            tag_to_reader_range=5.0,
        )
        deep = Reader(
            position=Point(29.0, 0.0),
            reader_to_tag_range=20.0,
            tag_to_reader_range=2.0,
        )
        net = Network.build(positions, [shallow, deep], tag_range=3.0)
        # shallow estimates 1 tier -> L_c 2; deep estimates 1+ceil(18/3)=7
        # tiers -> L_c 14.  The max must win or deep sessions die early.
        assert default_checking_frame_length(net) == 14
        net_shallow_only = Network.build(positions, [shallow], tag_range=3.0)
        assert default_checking_frame_length(net_shallow_only) == 2


# -- one initial-state form ----------------------------------------------------

_SLOT_FRAMES = (1, 63, 64, 65, 129)
_SLOT_NET = _build_network("disk", n_tags=40, seed=5)


@st.composite
def _pick_matrices(draw):
    """A frame size, a messy pick matrix and its canonical form.

    The messy matrix repeats slots within a row, lists them in any order
    and pads with negatives down to -2**63; it has all-silent rows and
    rows holding every slot of the frame.  The canonical form lists each
    row's distinct slots ascending, padded with -1.
    """
    f = draw(st.sampled_from(_SLOT_FRAMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = _SLOT_NET.n_tags
    if draw(st.integers(0, 3)) == 0:  # nobody participates
        sets = [[] for _ in range(n)]
    else:
        kinds = rng.integers(0, 4, size=n)
        sets = [
            [] if kind == 0
            else list(range(f)) if kind == 1
            else rng.integers(0, f, size=rng.integers(1, 7)).tolist()
            for kind in kinds
        ]
    width = max(len(row) for row in sets) + draw(st.integers(0, 2))
    messy = np.empty((n, width), dtype=np.int64)
    for i, row in enumerate(sets):
        pad = rng.integers(-(2**63), 0, size=width - len(row)).tolist()
        messy[i] = rng.permutation(row + pad)
    k = max(len(set(row)) for row in sets)
    canonical = np.array(
        [sorted(set(row)) + [-1] * (k - len(set(row))) for row in sets],
        dtype=np.int64,
    ).reshape(n, k)
    return f, messy, canonical


class TestSlotMatrixInputs:
    """A pick matrix in any spelling is one set of slots per tag: every
    engine gives the same session for it as for its canonical form, a
    one-column matrix is the 1-D picks, and the boundary still rejects
    malformed input."""

    #: ``"scenario"`` is a hooks-off ScenarioSessionEngine, built directly.
    ENGINES = ("bigint", "packed", "scenario")

    @staticmethod
    def _run(picks, config, engine):
        if engine == "scenario":
            slots = slot_matrix(_SLOT_NET.n_tags, config.frame_size, picks)
            return ScenarioSessionEngine().run(_SLOT_NET, slots, config)
        return run_session(_SLOT_NET, picks, config=config, engine=engine)

    @settings(max_examples=25, deadline=None)
    @given(_pick_matrices())
    def test_pick_matrix_matches_canonical_form(self, inputs):
        f, messy, canonical = inputs
        assert slot_matrix(_SLOT_NET.n_tags, f, messy).tolist() == (
            canonical.tolist()
        )
        config = CCMConfig(frame_size=f)
        reference = run_session(
            _SLOT_NET, canonical, config=config, engine="bigint"
        )
        for engine in self.ENGINES:
            for picks in (canonical, messy):
                result = self._run(picks, config, engine)
                _assert_results_identical(reference, result)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(_SLOT_FRAMES), st.data())
    def test_single_column_matrix_equals_picks(self, f, data):
        n = _SLOT_NET.n_tags
        picks = data.draw(
            st.lists(st.integers(-5, f - 1), min_size=n, max_size=n)
        )
        config = CCMConfig(frame_size=f)
        column = np.array(picks)[:, None]
        for engine in self.ENGINES:
            _assert_results_identical(
                self._run(picks, config, engine),
                self._run(column, config, engine),
            )

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(_SLOT_FRAMES),
        st.sampled_from(
            ["short", "3-D", "short 2-D", "pick >= f", "matrix pick >= f"]
        ),
        st.integers(0, _SLOT_NET.n_tags - 1),
        st.integers(0, 200),
    )
    def test_malformed_inputs_raise(self, f, kind, tag, excess):
        n = _SLOT_NET.n_tags
        picks = [-1] * n
        if kind == "short":
            picks = picks[:tag]
        elif kind == "3-D":
            picks = [[[-1]]] * n
        elif kind == "short 2-D":
            picks = [[-1, -1]] * tag
        elif kind == "pick >= f":
            picks[tag] = f + excess
        else:
            picks = [[0, -1]] * n
            picks[tag] = [0, f + excess]
        config = CCMConfig(frame_size=f)
        with pytest.raises(ValueError):
            run_session(_SLOT_NET, picks, config=config)
        with pytest.raises(ValueError):
            run_session_batch(_SLOT_NET, [picks], config)
