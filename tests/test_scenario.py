"""Tests for repro.scenario — trajectories, power, events, the scenario
engine's static-equivalence pin, and run_scenario determinism."""

import math
import pickle

import numpy as np
import pytest

from repro.core.session import CCMConfig, run_session, slot_matrix
from repro.net.channel import LossyChannel, PerfectChannel
from repro.net.energy import EnergyLedger
from repro.net.geometry import Point
from repro.net.topology import PaperDeployment, paper_network
from repro.scenario import (
    ALWAYS_POWERED,
    EventJournal,
    EventScheduler,
    LinkBudget,
    ScenarioConfig,
    ScenarioSessionEngine,
    StaticTrajectory,
    WaypointTrajectory,
    make_trajectory,
    run_scenario,
)
from repro.sim.rng import TagHasher


def small_network(n=400, r=6.0, seed=11):
    return paper_network(
        r, n_tags=n, seed=seed, deployment=PaperDeployment(n_tags=n)
    )


def picks_for(net, frame_size, seed=42):
    hasher = TagHasher(seed=seed)
    return [hasher.slot_of(int(t), frame_size) for t in net.tag_ids]


class TestEventScheduler:
    def test_pops_in_time_order(self):
        sched = EventScheduler()
        sched.push(5.0, "b")
        sched.push(1.0, "a")
        sched.push(9.0, "c")
        assert [sched.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_push_order(self):
        sched = EventScheduler()
        sched.push(1.0, "first")
        sched.push(1.0, "second")
        assert sched.pop().kind == "first"
        assert sched.pop().kind == "second"

    def test_bool_and_peek(self):
        sched = EventScheduler()
        assert not sched
        sched.push(2.0, "x")
        assert sched and sched.peek_time() == 2.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_and_non_finite_times(self, bad):
        sched = EventScheduler()
        sched.push(1.0, "ok")
        with pytest.raises(ValueError, match="finite and non-negative"):
            sched.push(bad, "bad")
        assert len(sched) == 1 and sched.pop().kind == "ok"


class TestEventJournal:
    def test_records_are_sequenced(self):
        j = EventJournal()
        j.record(0.0, "a")
        j.record(1.0, "b", value=3)
        lines = j.to_ndjson().splitlines()
        assert len(lines) == 2
        assert '"seq":0' in lines[0].replace(" ", "")
        assert '"seq":1' in lines[1].replace(" ", "")

    def test_reserved_keys_rejected(self):
        j = EventJournal()
        with pytest.raises(ValueError, match="shadows"):
            j.record(0.0, "a", t=1.0)

    def test_write_roundtrip(self, tmp_path):
        j = EventJournal()
        j.record(0.5, "x", n=1)
        path = tmp_path / "journal.ndjson"
        j.write(path)
        assert path.read_text(encoding="utf-8") == j.to_ndjson()

    def test_lines_flatten_the_log_records(self):
        j = EventJournal()
        j.record(0.0, "a")
        j.record(1.5, "round", round=3, relinked=False)
        assert len(j) == 2
        assert j.to_ndjson() == (
            '{"kind":"a","seq":0,"t":0.0}\n'
            '{"kind":"round","relinked":false,"round":3,"seq":1,"t":1.5}\n'
        )
        assert [r["seq"] for r in j.log.window()[0]] == [0, 1]

    @pytest.mark.parametrize("key", ["t", "seq", "kind"])
    def test_every_envelope_key_rejected(self, key):
        j = EventJournal()
        with pytest.raises(ValueError, match=f"{key!r} shadows"):
            j.record(0.0, "a", **{key: 1})
        assert len(j) == 0


class TestTrajectories:
    def test_static_never_moves(self):
        traj = StaticTrajectory(Point(2.0, 3.0))
        assert traj.is_static
        assert traj.position(1e6) == Point(2.0, 3.0)

    def test_aisle_constant_velocity(self):
        traj = make_trajectory("aisle", field_radius=10.0, speed_mps=2.0)
        p0, p5 = traj.position(0.0), traj.position(5.0)
        assert p0 == Point(-10.0, 0.0)
        assert p5.x == pytest.approx(0.0)
        assert p5.y == pytest.approx(0.0)

    def test_uav_covers_both_edges(self):
        traj = make_trajectory("uav", field_radius=9.0, speed_mps=3.0)
        xs = [traj.position(t).x for t in np.linspace(0, 200, 400)]
        assert min(xs) == pytest.approx(-9.0)
        assert max(xs) == pytest.approx(9.0)

    def test_uav_holds_at_end(self):
        traj = make_trajectory("uav", field_radius=5.0, speed_mps=10.0)
        late = traj.position(1e5)
        assert traj.position(2e5) == late

    def test_uav_speed_honoured_on_first_lane(self):
        traj = make_trajectory("uav", field_radius=8.0, speed_mps=4.0)
        a, b = traj.position(0.0), traj.position(1.0)
        assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(4.0)

    def test_waypoints_piecewise(self):
        traj = WaypointTrajectory(
            (Point(0, 0), Point(4, 0), Point(4, 4)), speed_mps=2.0
        )
        assert traj.position(1.0) == Point(2.0, 0.0)
        mid = traj.position(3.0)
        assert (mid.x, mid.y) == (4.0, 2.0)
        assert traj.position(100.0) == Point(4.0, 4.0)

    def test_zero_speed_is_static(self):
        assert make_trajectory("aisle", speed_mps=0.0).is_static
        assert make_trajectory("uav", speed_mps=0.0).is_static

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown trajectory"):
            make_trajectory("orbit")

    def test_waypoint_requires_points(self):
        with pytest.raises(ValueError):
            WaypointTrajectory((), speed_mps=1.0)


class TestLinkBudget:
    def test_received_power_monotone_in_distance(self):
        lb = LinkBudget(threshold_dbm=-20.0)
        d = np.array([1.0, 5.0, 20.0, 50.0])
        p = lb.received_dbm(d)
        assert np.all(np.diff(p) < 0)

    def test_near_field_clamped(self):
        lb = LinkBudget()
        assert lb.received_dbm(np.array([0.0]))[0] == lb.received_dbm(
            np.array([1.0])
        )[0]

    def test_powered_radius_consistent_with_mask(self):
        lb = LinkBudget(threshold_dbm=-22.0)
        radius = lb.powered_radius_m()
        d = np.array([radius * 0.99, radius * 1.01])
        assert lb.powered_mask(d).tolist() == [True, False]

    def test_always_powered(self):
        assert ALWAYS_POWERED.always_powered
        assert ALWAYS_POWERED.powered_radius_m() == math.inf
        assert ALWAYS_POWERED.powered_mask(np.array([1e9])).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(path_loss_exponent=0.0)
        with pytest.raises(ValueError):
            LinkBudget(reference_m=0.0)


class TestWithReaders:
    def test_matches_full_rebuild(self):
        from dataclasses import replace as dc_replace

        from repro.net.topology import Network

        net = small_network(n=300)
        moved = dc_replace(net.readers[0], position=Point(10.0, -4.0))
        relinked = net.with_readers([moved])
        rebuilt = Network.build(net.positions, [moved], 6.0)
        assert np.array_equal(relinked.tiers, rebuilt.tiers)
        assert np.array_equal(relinked.tier1_mask, rebuilt.tier1_mask)
        assert np.array_equal(
            relinked.reader_distance, rebuilt.reader_distance
        )
        assert relinked.num_tiers == rebuilt.num_tiers

    def test_shares_adjacency(self):
        net = small_network(n=200)
        relinked = net.with_readers(net.readers)
        assert relinked.indptr is net.indptr
        assert relinked.indices is net.indices


class TestStaticEquivalencePin:
    """The acceptance pin: hooks off ⇒ bit-identical to the plain engines."""

    @pytest.mark.parametrize("baseline", ["bigint", "packed"])
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_scenario_engine_equals_baseline(self, baseline, loss):
        net = small_network(n=400)
        f = 129
        picks = picks_for(net, f)
        config = CCMConfig(frame_size=f)

        def one(engine):
            channel = LossyChannel(loss) if loss > 0.0 else PerfectChannel()
            rng = np.random.default_rng(77)
            if engine is None:
                return ScenarioSessionEngine().run(
                    net, slot_matrix(net.n_tags, f, picks), config,
                    channel=channel, rng=rng,
                )
            return run_session(
                net,
                picks,
                config=config,
                channel=channel,
                rng=rng,
                engine=engine,
            )

        ours, theirs = one(None), one(baseline)
        assert ours.bitmap == theirs.bitmap
        assert ours.rounds == theirs.rounds
        assert ours.slots.total_slots == theirs.slots.total_slots
        assert ours.terminated_cleanly == theirs.terminated_cleanly
        assert ours.round_stats == theirs.round_stats
        assert (
            ours.ledger.bits_sent.tobytes()
            == theirs.ledger.bits_sent.tobytes()
        )
        assert (
            ours.ledger.bits_received.tobytes()
            == theirs.ledger.bits_received.tobytes()
        )

    def test_static_trajectory_and_always_powered_still_pinned(self):
        """Explicit no-op hooks (a static trajectory at the reader, an
        always-powered budget) must compile away entirely."""
        net = small_network(n=300)
        f = 97
        picks = picks_for(net, f)
        config = CCMConfig(frame_size=f)
        engine = ScenarioSessionEngine(
            ScenarioConfig(
                trajectory=StaticTrajectory(net.readers[0].position),
                link_budget=ALWAYS_POWERED,
            )
        )
        ours = engine.run(net, slot_matrix(net.n_tags, f, picks=picks), config)
        theirs = run_session(net, picks, config=config, engine="packed")
        assert ours.bitmap == theirs.bitmap
        assert ours.rounds == theirs.rounds
        assert (
            ours.ledger.bits_received.tobytes()
            == theirs.ledger.bits_received.tobytes()
        )

    def test_registered_in_engine_registry(self):
        """The scenario engine is built directly, never by name:
        ``"scenario"`` is not an ``engine=`` of ``run_session``."""
        from repro.core.session import ENGINE_NAMES

        assert "scenario" not in ENGINE_NAMES
        net = small_network(n=50)
        with pytest.raises(ValueError, match="auto, bigint, packed"):
            run_session(
                net, [-1] * net.n_tags, config=CCMConfig(frame_size=8),
                engine="scenario",
            )

    def test_rejects_unpacked_channel(self):
        class NoPacked:
            supports_packed = False

        net = small_network(n=50)
        engine = ScenarioSessionEngine()
        with pytest.raises(ValueError, match="packed"):
            engine.run(
                net, slot_matrix(net.n_tags, 8, [-1] * net.n_tags),
                CCMConfig(frame_size=8), channel=NoPacked(),
            )


class TestScenarioEngineDynamics:
    def test_motion_relinks_and_journals(self):
        net = small_network(n=250)
        f = 65
        picks = picks_for(net, f)
        journal = EventJournal()
        engine = ScenarioSessionEngine(
            ScenarioConfig(
                trajectory=make_trajectory(
                    "aisle", field_radius=30.0, speed_mps=2000.0
                ),
            )
        )
        engine.journal = journal
        engine.run(
            net, slot_matrix(net.n_tags, f, picks=picks), CCMConfig(frame_size=f)
        )
        assert engine.last_run_info["relinks"] >= 1
        rounds = [
            line for line in journal.to_ndjson().splitlines()
            if '"kind":"round"' in line.replace(" ", "")
        ]
        assert rounds

    def test_unpowered_tags_accrue_nothing(self):
        net = small_network(n=250)
        f = 65
        picks = picks_for(net, f)
        budget = LinkBudget(threshold_dbm=-10.0)  # tiny powered radius
        radius = budget.powered_radius_m()
        engine = ScenarioSessionEngine(ScenarioConfig(link_budget=budget))
        result = engine.run(
            net, slot_matrix(net.n_tags, f, picks=picks), CCMConfig(frame_size=f)
        )
        asleep = net.reader_distance > radius
        assert asleep.any()
        assert not result.ledger.bits_sent[asleep].any()
        assert not result.ledger.bits_received[asleep].any()

    def test_sleeping_reachable_tags_mean_unclean_termination(self):
        net = small_network(n=250)
        f = 65
        picks = picks_for(net, f)
        engine = ScenarioSessionEngine(
            ScenarioConfig(link_budget=LinkBudget(threshold_dbm=-5.0))
        )
        result = engine.run(
            net, slot_matrix(net.n_tags, f, picks=picks), CCMConfig(frame_size=f)
        )
        assert not result.terminated_cleanly

    def test_shared_ledger_mask_never_leaks(self):
        net = small_network(n=150)
        f = 65
        picks = picks_for(net, f)
        ledger = EnergyLedger(net.n_tags)
        engine = ScenarioSessionEngine(
            ScenarioConfig(link_budget=LinkBudget(threshold_dbm=-10.0))
        )
        engine.run(
            net, slot_matrix(net.n_tags, f, picks=picks), CCMConfig(frame_size=f),
            ledger=ledger,
        )
        # The ledger keeps no gating state: every tag still accrues.
        before = ledger.bits_received.copy()
        ledger.add_received_to_all(1.0)
        assert np.array_equal(ledger.bits_received, before + 1.0)


class TestRunScenarioDeterminism:
    def test_same_seed_byte_identical(self):
        kwargs = dict(
            n_tags=300,
            frame_size=97,
            n_operations=2,
            trajectory="uav",
            speed_mps=6.0,
            power_threshold_dbm=-22.0,
            max_step_m=1.0,
            seed=5,
        )
        a = run_scenario(**kwargs)
        b = run_scenario(**kwargs)
        assert a.journal.to_ndjson() == b.journal.to_ndjson()
        assert a.metrics() == b.metrics()
        assert (
            a.ledger.bits_received.tobytes()
            == b.ledger.bits_received.tobytes()
        )

    def test_different_seed_diverges(self):
        base = dict(
            n_tags=300, frame_size=97, n_operations=2,
            trajectory="uav", speed_mps=6.0, power_threshold_dbm=-22.0,
        )
        a = run_scenario(seed=1, **base)
        b = run_scenario(seed=2, **base)
        assert a.journal.to_ndjson() != b.journal.to_ndjson()

    def test_static_scenario_ops_match_plain_run_session(self):
        """Zero velocity + always powered ⇒ every operation bit-identical
        to a plain static run_session on the same deployment and picks."""
        from repro.net.geometry import uniform_disk
        from repro.net.topology import Network
        from repro.protocols.transport import frame_picks
        from repro.scenario.run import _PICKS_STREAM
        from repro.sim.rng import derive_seed

        n, f, seed = 350, 97, 9
        result = run_scenario(
            n_tags=n, frame_size=f, n_operations=2, trajectory="static",
            speed_mps=0.0, seed=seed,
        )
        # Replay the contract by hand: deployment draws come first.
        dep = PaperDeployment(n_tags=n)
        gen = np.random.default_rng(seed)
        positions = uniform_disk(dep.n_tags, dep.field_radius, rng=gen)
        net = Network.build(positions, [dep.reader()], 6.0)
        for k, session in enumerate(result.session_results, start=1):
            picks = frame_picks(
                net.tag_ids.tolist(), f, 1.0,
                derive_seed(seed, _PICKS_STREAM, k),
            )
            plain = run_session(
                net, picks, config=CCMConfig(frame_size=f), engine="packed"
            )
            assert session.bitmap == plain.bitmap
            assert session.rounds == plain.rounds
            assert session.round_stats == plain.round_stats
            assert session.terminated_cleanly and plain.terminated_cleanly
        assert result.completion_rate == 1.0

    def test_motion_degrades_completion(self):
        static = run_scenario(
            n_tags=300, frame_size=97, n_operations=2,
            trajectory="static", seed=4,
        )
        moving = run_scenario(
            n_tags=300, frame_size=97, n_operations=2,
            trajectory="uav", speed_mps=8.0, power_threshold_dbm=-22.0,
            seed=4,
        )
        assert static.completion_rate == 1.0
        assert moving.completion_rate < static.completion_rate
        assert (
            moving.metrics()["avg_received_bits"]
            < static.metrics()["avg_received_bits"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            run_scenario(n_operations=0)
        with pytest.raises(ValueError):
            run_scenario(participation=1.5)
        with pytest.raises(ValueError):
            run_scenario(op_gap_s=-1.0)

    @pytest.mark.parametrize("gap", [math.nan, math.inf])
    def test_non_finite_gap_rejected(self, gap):
        with pytest.raises(ValueError, match="op_gap_s must be finite"):
            run_scenario(n_tags=50, n_operations=2, op_gap_s=gap)

    def test_result_pickles(self):
        result = run_scenario(
            n_tags=200, frame_size=65, n_operations=2, trajectory="uav",
            speed_mps=6.0, power_threshold_dbm=-22.0, max_step_m=1.0,
            seed=4,
        )
        back = pickle.loads(pickle.dumps(result))
        assert back.journal.to_ndjson() == result.journal.to_ndjson() != ""
        assert back.metrics() == result.metrics()
        back.journal.record(back.duration_s, "extra")
        assert len(back.journal) == len(result.journal) + 1

    def test_fingerprint_covers_scenario_contract(self):
        from repro.store.fingerprint import code_fingerprint

        # The fingerprint must react to the scenario package existing —
        # at minimum, it's computed without error and is stable.
        assert code_fingerprint() == code_fingerprint()


class TestScenarioMotionExperiment:
    def test_rows_and_report(self):
        from repro.experiments import scenario_motion

        rows = scenario_motion.run(
            trajectories=("static", "uav"),
            n_tags=250,
            frame_size=83,
            n_operations=2,
            speed_mps=6.0,
            n_trials=2,
        )
        by_traj = {row.trajectory: row for row in rows}
        assert by_traj["static"].completion_rate == pytest.approx(1.0)
        assert by_traj["static"].powered_fraction == pytest.approx(1.0)
        assert by_traj["uav"].completion_rate < 1.0
        text = scenario_motion.report(rows)
        assert "static" in text and "uav" in text

    def test_trial_is_cacheable_callable(self):
        from repro.experiments.scenario_motion import (
            TRIAL_METRICS,
            ScenarioTrial,
        )

        trial = ScenarioTrial(
            trajectory="aisle", n_tags=200, frame_size=65,
            n_operations=1, speed_mps=4.0, power_threshold_dbm=-22.0,
        )
        out1 = trial(0, 123)
        out2 = trial(0, 123)
        assert out1 == out2
        assert set(out1) == set(TRIAL_METRICS)


class TestHooksOnGolden:
    """Hooks-on scenario sessions pinned across refactors.

    Motion (UAV lawnmower, aisle drive-by) and power cycling at -22 dBm,
    perfect and lossy channel.  The digest covers the bitmap, rounds,
    slots, round stats, ledger bytes (accumulated into a pre-filled
    shared ledger), ``last_run_info`` and the journal NDJSON.
    """

    GOLDEN = {
        ("uav", 0.0): (
            "444909a8805f1099e4ca9f0ef9d39c11"
            "4aaa91adb2ee98623c3e51a9bd308ac6"
        ),
        ("uav", 0.2): (
            "53aabd0455e0fefae2d4000f94800f49"
            "798e143cae81d5b5c947b3752a3838e3"
        ),
        ("aisle", 0.0): (
            "fc6a9e49da5a97eae031a126a329f932"
            "fe9334dd68277abc8b1103f6b6902ec7"
        ),
        ("aisle", 0.2): (
            "e6c7170e081191083b97089aeb08e7d1"
            "1652d1525bdffdc702d96ef03b3ea920"
        ),
    }

    @staticmethod
    def _digest(trajectory, loss):
        import hashlib
        import json

        n, f = 600, 129
        dep = PaperDeployment(n_tags=n)
        net = paper_network(6.0, n_tags=n, seed=13, deployment=dep)
        slots = slot_matrix(n, f, picks=picks_for(net, f))
        engine = ScenarioSessionEngine(
            ScenarioConfig(
                trajectory=make_trajectory(
                    trajectory, field_radius=dep.field_radius, speed_mps=20.0
                ),
                link_budget=LinkBudget(threshold_dbm=-22.0),
            )
        )
        engine.journal = EventJournal()
        channel = LossyChannel(loss) if loss > 0.0 else PerfectChannel()
        ledger = EnergyLedger(n)
        ledger.bits_sent[:] = np.arange(n) * 0.5
        ledger.bits_received[:] = np.arange(n)[::-1] * 1.5
        result = engine.run(
            net, slots, CCMConfig(frame_size=f), channel=channel,
            rng=np.random.default_rng(7), ledger=ledger,
        )
        assert result.ledger is ledger
        info = engine.last_run_info
        # The hooks really engage: the reader moves, tags sleep.
        assert info["relinks"] >= 1
        assert info["powered_fraction_mean"] < 1.0
        h = hashlib.sha256()
        for part in (
            hex(result.bitmap.bits),
            str(result.rounds),
            str(result.slots.short_slots),
            str(result.slots.id_slots),
            str(result.terminated_cleanly),
            repr(result.round_stats),
            json.dumps(info, sort_keys=True),
            engine.journal.to_ndjson(),
        ):
            h.update(part.encode())
            h.update(b"\0")
        h.update(result.ledger.bits_sent.tobytes())
        h.update(result.ledger.bits_received.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    @pytest.mark.parametrize("trajectory", ["uav", "aisle"])
    def test_digest_pinned(self, trajectory, loss):
        assert self._digest(trajectory, loss) == self.GOLDEN[
            (trajectory, loss)
        ]


class CSRPerfectChannel(PerfectChannel):
    """The perfect channel under another type: ``is_perfect`` is False, so
    the kernel calls the channel and propagates with its CSR step — the
    oracle for the bitset step."""


class TestBitsetPropagationOracle:
    """Hooked perfect-channel sessions propagate with the kernel's bitset
    step (ORs of cached neighbour bitsets); the same sessions through
    :class:`CSRPerfectChannel` take the CSR step (pairs expanded over the
    CSR adjacency, the channel asked which events survive).  Sleeping
    tags' pairs are held back either way.  Both steps must give the same
    bits, counts, journal and ledger floats.  (The ``tag_major`` in the
    test names is the retired layout this oracle once ran.)"""

    UAV = make_trajectory("uav", field_radius=30.0, speed_mps=20.0)
    CENTRE = StaticTrajectory(Point(0.0, 0.0))

    #: name -> (engine inputs, what the case must engage)
    CASES = {
        "power_only": (
            dict(trajectory=CENTRE, threshold_dbm=-22.0),
            lambda r, info: info["relinks"] == 0
            and info["powered_fraction_mean"] < 1.0,
        ),
        "motion_only": (
            dict(trajectory=UAV),
            lambda r, info: info["relinks"] > 0
            and info["powered_fraction_mean"] == 1.0,
        ),
        "static_off_centre": (
            dict(
                trajectory=StaticTrajectory(Point(12.0, -7.0)),
                threshold_dbm=-22.0,
            ),
            lambda r, info: info["relinks"] == 0 and r.rounds > 1,
        ),
        # Round 1 hears a reply, so the bound ends a running session in
        # which the tags outside the powered radius still hold their picks.
        "bound_with_sleepers": (
            dict(trajectory=CENTRE, threshold_dbm=-22.0, max_rounds=1),
            lambda r, info: r.rounds == 1
            and r.round_stats[-1].reader_heard_checking
            and info["min_powered"] < 600
            and not r.terminated_cleanly,
        ),
        "n_333": (
            dict(n=333, trajectory=UAV, threshold_dbm=-22.0),
            lambda r, info: info["relinks"] > 0 and r.rounds > 1,
        ),
        # The reader leaves the field after round 1: in round 2 every tag
        # sleeps, nothing transmits and the session ends.
        "all_asleep_round": (
            dict(
                trajectory=WaypointTrajectory(
                    (Point(0.0, 0.0), Point(60.0, 0.0)), speed_mps=2000.0
                ),
                threshold_dbm=-22.0,
            ),
            lambda r, info: r.rounds == 2
            and info["min_powered"] == 0
            and r.round_stats[-1].transmitting_tags == 0,
        ),
    }

    @staticmethod
    def observe(
        channel, *, n=600, trajectory=None, threshold_dbm=None,
        max_rounds=None,
    ):
        """Everything a hooked session shows, on a pre-filled ledger."""
        from repro.sim.trace import SessionTracer

        f = 129
        dep = PaperDeployment(n_tags=n)
        net = paper_network(6.0, n_tags=n, seed=13, deployment=dep)
        engine = ScenarioSessionEngine(
            ScenarioConfig(
                trajectory=trajectory,
                link_budget=(
                    None if threshold_dbm is None
                    else LinkBudget(threshold_dbm=threshold_dbm)
                ),
            )
        )
        engine.journal = EventJournal()
        tracer = SessionTracer()
        ledger = EnergyLedger(n)
        ledger.bits_sent[:] = np.arange(n) * 0.5
        ledger.bits_received[:] = np.arange(n)[::-1] * 1.5
        result = engine.run(
            net, slot_matrix(n, f, picks=picks_for(net, f)),
            CCMConfig(frame_size=f, max_rounds=max_rounds),
            channel=channel, ledger=ledger, tracer=tracer,
        )
        return result, engine.last_run_info, {
            "bitmap": result.bitmap,
            "rounds": result.rounds,
            "slots": result.slots,
            "round_stats": result.round_stats,
            "clean": result.terminated_cleanly,
            "info": engine.last_run_info,
            "journal": engine.journal.to_ndjson(),
            "trace": tracer.events,
            "sent": ledger.bits_sent.tobytes(),
            "received": ledger.bits_received.tobytes(),
        }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_slot_major_equals_tag_major(self, case):
        inputs, engages = self.CASES[case]
        result, info, ours = self.observe(PerfectChannel(), **inputs)
        assert engages(result, info)
        assert ours == self.observe(CSRPerfectChannel(), **inputs)[2]

    @pytest.mark.parametrize("n,f", [(300, 129), (333, 1031)])
    def test_power_flicker_equals_tag_major(self, n, f):
        """A hook that powers a random half of the tags each round wakes
        tags whose held pairs share slots with freshly learned ones: the
        merge must put them in (trial, slot, tag) order before the next
        round's runs."""
        from repro.core.batch import _run_kernel

        net = small_network(n=n, seed=13)
        slots = slot_matrix(n, f, picks=picks_for(net, f))

        def hook(round_index, slot_count):
            return net, np.random.default_rng(round_index).random(n) < 0.5

        def run(channel):
            [r] = _run_kernel(
                net, slots[None], CCMConfig(frame_size=f), channel=channel,
                hook=hook,
            )
            return (
                r.bitmap, r.rounds, r.slots, r.round_stats,
                r.terminated_cleanly, r.ledger.bits_sent.tobytes(),
                r.ledger.bits_received.tobytes(),
            )

        ours = run(PerfectChannel())
        assert ours[1] > 2
        assert ours == run(CSRPerfectChannel())

    def test_hooked_perfect_channel_runs_bitset_step(self, monkeypatch):
        from repro.core import batch

        def refuse(*args, **kwargs):
            raise AssertionError("a hooked perfect-channel run took CSR")

        monkeypatch.setattr(batch._SlotMajor, "_csr_heard", refuse)
        self.observe(PerfectChannel(), **self.CASES["n_333"][0])

    @pytest.mark.parametrize("max_step_m", [0.0, 1.0])
    @pytest.mark.parametrize("trajectory", ["uav", "aisle"])
    def test_bitsets_equal_channel_csr(self, trajectory, max_step_m):
        def run(channel):
            return run_scenario(
                n_tags=600, frame_size=129, n_operations=2,
                trajectory=trajectory, speed_mps=20.0,
                power_threshold_dbm=-22.0, max_step_m=max_step_m,
                seed=13, channel=channel,
            )

        ours, oracle = run(PerfectChannel()), run(CSRPerfectChannel())
        assert ours.metrics()["relinks_total"] > 0
        assert ours.metrics() == oracle.metrics()
        assert ours.journal.to_ndjson() == oracle.journal.to_ndjson()
        for a, b in zip(ours.session_results, oracle.session_results):
            assert a.bitmap == b.bitmap
            assert a.round_stats == b.round_stats
        assert (
            ours.ledger.bits_received.tobytes()
            == oracle.ledger.bits_received.tobytes()
        )

    def test_picks_equal_masks(self):
        net = small_network(n=300)
        f = 97
        picks = picks_for(net, f)
        picks[::7] = [-1] * len(picks[::7])

        def run(**inputs):
            engine = ScenarioSessionEngine(
                ScenarioConfig(
                    trajectory=make_trajectory(
                        "uav", field_radius=30.0, speed_mps=20.0
                    ),
                    link_budget=LinkBudget(threshold_dbm=-22.0),
                )
            )
            engine.journal = EventJournal()
            result = engine.run(net, config=CCMConfig(frame_size=f), **inputs)
            return result, engine.journal.to_ndjson()

        (a, ja), (b, jb) = (
            run(slots=slot_matrix(net.n_tags, f, picks=np.asarray(picks))),
            run(slots=slot_matrix(net.n_tags, f, np.asarray(picks)[:, None])),
        )
        assert a.bitmap == b.bitmap
        assert a.round_stats == b.round_stats
        assert a.ledger.bits_sent.tobytes() == b.ledger.bits_sent.tobytes()
        assert ja == jb


class TestStaleGraphGuard:
    """A hook may move readers, not tags: the kernel reads the tag graph
    once per session and refuses a round network with another one."""

    @staticmethod
    def run_with(rebuild):
        from repro.core.batch import _run_kernel
        from repro.net.topology import Network

        net = small_network(n=200)
        f = 65
        slots = slot_matrix(net.n_tags, f, picks=picks_for(net, f))

        def hook(round_index, slot_count):
            return rebuild(net, Network), None

        return _run_kernel(
            net, slots[None], CCMConfig(frame_size=f), hook=hook
        )

    def test_moved_tags_rejected(self):
        from repro.net.mobility import displace

        def moved(net, Network):
            positions = displace(
                net.positions, 3.0, 30.0, rng=np.random.default_rng(1)
            )
            out = Network.build(positions, net.readers, net.tag_range)
            assert out.indices.size != net.indices.size
            return out

        with pytest.raises(ValueError, match="may move readers, not tags"):
            self.run_with(moved)

    def test_equal_graph_copy_accepted(self):
        def copy(net, Network):
            return Network.build(
                net.positions.copy(), net.readers, net.tag_range
            )

        [result] = self.run_with(copy)
        [plain] = self.run_with(lambda net, Network: net)
        assert result.bitmap == plain.bitmap
        assert result.round_stats == plain.round_stats


class TestSessionEndCleanliness:
    """At a session end the kernel proves a trial unclean from a pending
    tier-1 tag and reads the reachable set (the tier BFS, on a relinked
    network) only when every pending tag lies outside tier 1.  Each
    branch must agree with the full ``(pending & reachable).any()``.

    Tags: 0 in tier 1, 1 and 2 in tiers 2 and 3 (relays only), 3 and 4
    linked to each other but to no reader.  Every tag sleeps, so each
    pick stays pending and the first checking frame ends the session.
    """

    POSITIONS = [(1.0, 0.0), (2.8, 0.0), (4.5, 0.0), (50.0, 50.0),
                 (51.0, 50.0)]
    F = 8

    @classmethod
    def network(cls):
        from repro.net.topology import Network, Reader

        reader = Reader(
            position=Point(0.0, 0.0), reader_to_tag_range=4.0,
            tag_to_reader_range=2.0,
        )
        return Network.build(
            np.array(cls.POSITIONS), [reader], tag_range=2.0
        )

    def run(self, pending_sets):
        from repro.core.batch import _run_kernel

        net = self.network()
        n = net.n_tags
        assert net.tiers.tolist()[:3] == [1, 2, 3]
        assert not net.reachable_mask[3:].any()
        relinked = []

        def hook(round_index, slot_count):
            relinked.append(net.with_readers(net.readers))
            return relinked[-1], np.zeros(n, dtype=bool)

        slots = np.stack([
            slot_matrix(
                n, self.F, [t if t in pending else -1 for t in range(n)]
            )
            for pending in pending_sets
        ])
        results = _run_kernel(
            net, slots, CCMConfig(frame_size=self.F), hook=hook
        )
        [round_net] = relinked
        for pending, result in zip(pending_sets, results):
            mask = np.isin(np.arange(n), list(pending))
            assert result.rounds == 1
            assert result.terminated_cleanly == (
                not (mask & net.reachable_mask).any()
            )
        return results, round_net

    @pytest.mark.parametrize(
        "pending,clean,bfs",
        [
            ({0}, False, False),
            ({0, 3}, False, False),
            ({1}, False, True),
            ({2, 4}, False, True),
            ({3}, True, True),
            ({3, 4}, True, True),
            (set(), True, False),
        ],
    )
    def test_branch(self, pending, clean, bfs):
        [result], round_net = self.run([pending])
        assert result.terminated_cleanly is clean
        assert (round_net._tiers is not None) is bfs

    def test_mixed_batch(self):
        """Trials ending together in different branches at B = 5."""
        sets = [{3}, {0}, set(), {2}, {1, 4}]
        results, round_net = self.run(sets)
        assert [r.terminated_cleanly for r in results] == [
            True, False, True, False, False,
        ]
        assert round_net._tiers is not None

    def test_uav_op_skips_relink_bfs(self, monkeypatch):
        """A bench-size UAV op (3 sessions, 18 relinks) leaves pending
        data in tier 1 at every session end, so the tier BFS runs once,
        for the deploy, and no relinked network computes its tiers."""
        from repro.net import topology

        bfs_calls = []
        relinked = []
        bfs, with_readers = topology._bfs_tiers, topology.Network.with_readers

        def counted_bfs(*args):
            bfs_calls.append(1)
            return bfs(*args)

        def recorded(self, readers):
            relinked.append(with_readers(self, readers))
            return relinked[-1]

        monkeypatch.setattr(topology, "_bfs_tiers", counted_bfs)
        monkeypatch.setattr(topology.Network, "with_readers", recorded)
        metrics = run_scenario(
            trajectory="uav", power_threshold_dbm=-22.0, n_tags=2000,
            n_operations=3, seed=0,
        ).metrics()
        assert metrics["completion_rate"] == 0.0
        assert metrics["relinks_total"] == len(relinked) > 0
        assert len(bfs_calls) == 1
        assert all(net._tiers is None for net in relinked)
