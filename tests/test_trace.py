"""Tests for repro.sim.trace — session event tracing."""

import json
import pickle

import pytest

from repro.core.session import CCMConfig, run_session
from repro.protocols.transport import frame_picks
from repro.sim.trace import SessionTracer


class TestTracerBasics:
    def test_emit_and_query(self):
        tracer = SessionTracer()
        tracer.emit("frame", 1, transmitters=5)
        tracer.emit("frame", 2, transmitters=3)
        tracer.emit("checking", 2, reader_heard=False)
        assert len(tracer.of_kind("frame")) == 2
        assert tracer.of_kind("checking")[0]["data"]["reader_heard"] is False

    def test_rounds(self):
        tracer = SessionTracer()
        assert tracer.rounds() == 0
        tracer.emit("round_start", 1)
        tracer.emit("round_start", 2)
        assert tracer.rounds() == 2

    def test_first_delivery_round(self):
        tracer = SessionTracer()
        tracer.emit("frame", 1, bits_new_at_reader=0)
        tracer.emit("frame", 2, bits_new_at_reader=4)
        assert tracer.first_delivery_round() == 2

    def test_first_delivery_none(self):
        tracer = SessionTracer()
        tracer.emit("frame", 1, bits_new_at_reader=0)
        assert tracer.first_delivery_round() is None

    def test_event_json(self):
        tracer = SessionTracer()
        tracer.emit("frame", 3, transmitters=7)
        line = tracer.to_ndjson().rstrip("\n")
        assert json.loads(line) == {
            "kind": "frame", "round": 3, "transmitters": 7,
        }
        assert '"kind": "frame"' in line
        assert '"round": 3' in line

    def test_reserved_payload_keys_rejected(self):
        tracer = SessionTracer()
        with pytest.raises(ValueError, match="envelope"):
            tracer.emit("frame", 1, kind="smuggled")
        with pytest.raises(ValueError, match="envelope"):
            tracer.emit("frame", 1, round=9)
        assert tracer.events == []

    def test_events_are_log_records(self):
        tracer = SessionTracer()
        tracer.emit("frame", 2, transmitters=1)
        tracer.emit("checking", 2, reader_heard=True)
        assert tracer.events == [
            {"seq": 0, "kind": "frame", "round": 2,
             "data": {"transmitters": 1}},
            {"seq": 1, "kind": "checking", "round": 2,
             "data": {"reader_heard": True}},
        ]
        assert tracer.events == tracer.log.window(0)[0]


class TestNdjsonRoundtrip:
    def test_roundtrip(self):
        tracer = SessionTracer()
        tracer.emit("round_start", 1)
        tracer.emit("frame", 1, transmitters=2, bits_new_at_reader=1)
        text = tracer.to_ndjson()
        back = SessionTracer.from_ndjson(text)
        assert len(back.events) == 2
        assert back.of_kind("frame")[0]["data"]["transmitters"] == 2

    def test_empty_tracer(self):
        assert SessionTracer().to_ndjson() == ""

    def test_pickle_round_trip(self, star_network):
        tracer = SessionTracer()
        run_session(
            star_network, [0, 1, 2, 3, 4], config=CCMConfig(frame_size=8),
            tracer=tracer,
        )
        back = pickle.loads(pickle.dumps(tracer))
        assert back.to_ndjson() == tracer.to_ndjson() != ""
        assert back.summary() == tracer.summary()
        back.emit("session_end", 9, rounds=9, clean=True, busy_slots=0)
        assert back.events[-1]["seq"] == len(tracer.events)

    def test_file_export(self, tmp_path):
        tracer = SessionTracer()
        tracer.emit("session_end", 1, rounds=1, clean=True, busy_slots=0)
        path = tmp_path / "trace.ndjson"
        tracer.to_ndjson(path)
        assert "session_end" in path.read_text()


class TestSessionIntegration:
    def test_traced_session_chain(self, line_network):
        tracer = SessionTracer()
        picks = [-1, -1, -1, -1, 0]  # tier-5 tag only
        result = run_session(
            line_network, picks, config=CCMConfig(frame_size=8), tracer=tracer
        )
        assert tracer.rounds() == result.rounds == 5
        # The lone bit arrives in round 5.
        assert tracer.first_delivery_round() == 5
        ends = tracer.of_kind("session_end")
        assert ends[-1]["data"]["clean"] is True
        assert ends[-1]["data"]["busy_slots"] == 1

    def test_summary_renders(self, star_network):
        tracer = SessionTracer()
        run_session(
            star_network, [0, 1, 2, 3, 4], config=CCMConfig(frame_size=8),
            tracer=tracer,
        )
        text = tracer.summary()
        assert "round" in text
        assert "session:" in text

    def test_summary_includes_checking_only_rounds(self):
        # The final silent checking frame has no frame event; its round
        # must still appear in the digest.
        tracer = SessionTracer()
        tracer.emit("round_start", 1)
        tracer.emit("frame", 1, transmitters=3, bits_new_at_reader=2)
        tracer.emit("checking", 1, slots_executed=2, reader_heard=True)
        tracer.emit("checking", 2, slots_executed=4, reader_heard=False)
        lines = tracer.summary().splitlines()
        round_2 = [ln for ln in lines if ln.strip().startswith("2")]
        assert round_2, "round 2 (checking only) missing from summary"
        assert "4" in round_2[0] and "False" in round_2[0]

    def test_indicator_events_track_silencing(self, star_network):
        tracer = SessionTracer()
        run_session(
            star_network, [0, 1, 2, 3, 4], config=CCMConfig(frame_size=8),
            tracer=tracer,
        )
        silenced = [
            e["data"]["silenced_total"] for e in tracer.of_kind("indicator")
        ]
        assert silenced == sorted(silenced)  # monotone accumulation
        assert silenced[-1] == 5

    def test_untraced_session_identical(self, small_network):
        picks = frame_picks(small_network.tag_ids, 64, 1.0, seed=1)
        a = run_session(small_network, picks, config=CCMConfig(frame_size=64))
        b = run_session(
            small_network, picks, config=CCMConfig(frame_size=64),
            tracer=SessionTracer(),
        )
        assert a.bitmap == b.bitmap
        assert a.total_slots == b.total_slots
