"""The four closed-loop workloads, each with its own output checks.

Every workload is driven by one caller that issues the next op only
after the previous one returned.  A workload builds its inputs in
:meth:`Workload.setup`, runs :meth:`Workload.warmup` before any timing,
then :meth:`Workload.loop` until a deadline, recording each op's
interval and whether its output passed the per-op check.
:meth:`Workload.verify` runs the checks that need recomputation (an
oracle engine, a repeat, a direct in-process run) after the timed loop.

All program inputs derive from the workload seed through :func:`derive`;
the program only sees the generated values.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import datetime
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Set, Tuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))

#: The seed whose results are pinned in ``digests.json``.
DEFAULT_SEED = 1


def derive(seed: int, label: str, index: int = 0) -> int:
    """A 32-bit input seed for one use of the workload seed."""
    raw = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(raw[:4], "little")


def digest(value: Any) -> str:
    """SHA-256 of canonical JSON (sorted keys, exact float repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def committed_digests() -> Dict[str, str]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(metrics: Dict[str, float]) -> bool:
    return bool(metrics) and all(
        isinstance(v, (int, float)) and math.isfinite(v)
        for v in metrics.values()
    )


class Workload:
    """Shared op bookkeeping; subclasses supply the inputs and checks."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        #: (start, end) of every timed op, in issue order
        self.ops: List[Tuple[float, float]] = []
        #: indices into ``ops`` whose output failed a check
        self.bad: Set[int] = set()
        #: calibration kernel times: before the first op, then after each
        self.refs: List[float] = []
        #: seconds each op's kernel waited for the process to go idle
        self.settles: List[float] = []
        #: peak RSS read once ``rss_at_op`` ops are done (None: not yet)
        self.rss_mb: Optional[float] = None
        #: a :class:`tracing.Tracer` while the traced loop runs
        self.tracer = None
        self._warming = False

    #: read the peak RSS after this many timed ops instead of at the end
    #: (for a workload whose program keeps memory per op, so that the
    #: figure does not grow with the number of ops a run completes)
    rss_at_op: Optional[int] = None

    @property
    def pinned(self) -> bool:
        """True when results must equal the committed digests."""
        return self.seed == DEFAULT_SEED and self.size == "bench"

    # -- op bookkeeping --------------------------------------------------------

    def begin_op(self) -> float:
        if not self.refs and not self._warming:
            self.refs.append(calibrate.measure())
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        return time.perf_counter()

    def end_op(self, start: float, ok: bool) -> int:
        """Close the op that began at ``start``; returns its index."""
        end = time.perf_counter()
        if self._warming:
            if not ok:
                raise RuntimeError(f"{self.name}: a warm-up op failed its check")
            return -1
        self.ops.append((start, end))
        if not ok:
            self.bad.add(len(self.ops) - 1)
        if len(self.ops) == self.rss_at_op:
            self.rss_mb = peak_rss_mb()
        self.settles.append(calibrate.quiesce())
        self.refs.append(calibrate.measure())
        return len(self.ops) - 1

    def fail(self, index: int, why: str) -> None:
        print(f"[perfbench] {self.name} op {index}: {why}", file=sys.stderr)
        self.bad.add(index)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        pass

    #: untimed ops run by :meth:`warmup`
    warmup_ops = 2

    def warmup(self) -> None:
        self._warming = True
        try:
            self.loop(None, ops=self.warmup_ops)
        finally:
            self._warming = False

    def loop(self, deadline: Optional[float], ops: int = 0) -> None:
        """Issue ops until ``deadline`` (or exactly ``ops`` warm-up ops)."""
        raise NotImplementedError

    def verify(self) -> None:
        pass

    def extra_metrics(self, first: int) -> Dict[str, float]:
        """Per-op values for the traced ops ``first..``, measured here."""
        return {}

    def close(self) -> None:
        pass


def _more(deadline: Optional[float], done: int, ops: int) -> bool:
    if deadline is None:
        return done < ops
    return time.perf_counter() < deadline


# -- paper_sweep ---------------------------------------------------------------


class PaperSweep(Workload):
    """``experiments.master.run`` at bench scale; one op per (r, trial) cell."""

    name = "paper_sweep"

    def setup(self) -> None:
        from repro.experiments import paperconfig as cfg

        if self.size == "bench":
            self.scale = cfg.BENCH_SCALE
        else:
            # Full n: the section 4 shapes need it.  Fewer cells instead.
            self.scale = dataclasses.replace(
                cfg.BENCH_SCALE, n_trials=1, tag_ranges=(2.0, 4.0)
            )
        self.reps = 0
        #: (op index, metrics) of every cell of the first timed sweep
        self.first_rep: List[Tuple[int, Dict[str, float]]] = []

    def warmup(self):
        """One trial at the cheapest and the dearest range."""
        from repro.experiments import master
        from repro.sim.plan import RunPlan

        scale = dataclasses.replace(
            self.scale, n_trials=1, base_seed=derive(self.seed, "warmup"),
            tag_ranges=(self.scale.tag_ranges[0], self.scale.tag_ranges[-1]),
        )
        cells = []
        master.run(
            scale, plan=RunPlan(),
            on_trial_done=lambda k, elapsed_s, m: cells.append(self._cell_ok(m)),
        )
        if not all(cells):
            raise RuntimeError(f"{self.name}: a warm-up op failed its check")

    def _cell_ok(self, m: Optional[Dict[str, float]]) -> bool:
        return (
            m is not None
            and _finite(m)
            and m["sicp_collected"] == m["reachable"]
            and 0 < m["gmle_ccm_slots"] < m["sicp_slots"]
            and 0 < m["trp_ccm_slots"] < m["sicp_slots"]
        )

    @staticmethod
    def shapes_hold(fig4: Dict[str, List[float]], sent: Dict[str, List[float]]) -> bool:
        """DESIGN.md section 4 on one sweep's aggregates."""
        for ccm in ("gmle_ccm", "trp_ccm"):
            slots = fig4[ccm]
            if any(c >= s for c, s in zip(slots, fig4["sicp"])):
                return False
            if any(b > a for a, b in zip(slots, slots[1:])):
                return False
            if any(c >= s for c, s in zip(sent[ccm], sent["sicp"])):
                return False
        return True

    def loop(self, deadline, ops=0):
        from repro.experiments import master
        from repro.sim.plan import RunPlan

        while time.perf_counter() < deadline:
            rep = self.reps
            self.reps += 1
            scale = dataclasses.replace(
                self.scale, base_seed=derive(self.seed, "sweep", rep)
            )
            cells: List[int] = []
            cell_metrics: List[Dict[str, float]] = []
            start = [self.begin_op()]

            def on_done(k, elapsed_s, metrics):
                idx = self.end_op(start[0], self._cell_ok(metrics))
                cells.append(idx)
                cell_metrics.append(metrics)
                start[0] = self.begin_op()

            try:
                result = master.run(scale, plan=RunPlan(), on_trial_done=on_done)
            except Exception:  # noqa: BLE001 - a failed op, not a crash
                traceback.print_exc()
                cells.append(self.end_op(start[0], False))
                result = None
            if result is None or not self.shapes_hold(
                result.fig4_execution_time(), result.table3_avg_sent()
            ):
                for idx in cells:
                    self.fail(idx, "DESIGN section 4 shapes do not hold")
            if rep == 0:
                self.first_rep = list(zip(cells, cell_metrics))
                if self.pinned and digest(cell_metrics) != committed_digests()[self.name]:
                    for idx in cells:
                        self.fail(idx, "cell digest differs from the committed one")

    def verify(self):
        """Recompute one sampled cell of the first sweep and compare."""
        from repro.experiments.common import PaperTrial
        from repro.sim.rng import derive_seed
        from repro.sim.runner import trial_seed

        if not self.first_rep:
            return
        pick = derive(self.seed, "sample") % len(self.first_rep)
        idx, observed = self.first_rep[pick]
        n = self.scale.n_trials
        point, k = divmod(pick, n)
        base = derive_seed(derive(self.seed, "sweep", 0), 0x5EE9, point) % (2**32)
        trial = PaperTrial(self.scale.tag_ranges[point], self.scale.n_tags)
        if trial(k, trial_seed(base, k)) != observed:
            self.fail(idx, "sampled cell differs on recomputation")


# -- lossy_campaign ------------------------------------------------------------


class LossyCampaign(Workload):
    """``Campaign`` over ``SessionBatchTrial`` on a lossy channel, B = 1.

    Campaigns cycle through several topologies built in set-up: session
    time and memory differ between topologies, and one topology per run
    would make its draw the run-to-run spread.
    """

    name = "lossy_campaign"
    chunk = 8
    topologies = 4

    def setup(self):
        from repro.experiments.common import SessionBatchTrial
        from repro.net.topology import PaperDeployment, paper_network

        n, f = (2000, 1671) if self.size == "bench" else (200, 64)
        self.trials = []
        for i in range(self.topologies):
            topology_seed = derive(self.seed, "topology", i)
            network = paper_network(
                6.0, n_tags=n, seed=topology_seed,
                deployment=PaperDeployment(n_tags=n),
            )
            self.trials.append(SessionBatchTrial(
                tag_range=6.0, n_tags=n, frame_size=f, loss=0.2,
                topology_seed=topology_seed, network=network,
            ))
        self.campaigns = 0
        #: (op index, trial object, campaign base seed, trial index,
        #: metrics) per op
        self.results: List[Tuple[int, Any, int, int, Dict[str, float]]] = []

    @staticmethod
    def _trial_ok(m):
        return (
            m is not None
            and _finite(m)
            and m["rounds"] >= 1
            and m["slots"] > 0
            and m["busy_slots"] > 0
        )

    def loop(self, deadline, ops=0):
        from repro.sim.parallel import Campaign
        from repro.sim.plan import RunPlan

        done = 0
        while _more(deadline, done, ops):
            if self._warming:
                trial = self.trials[0]
                base, n_trials = derive(self.seed, "warmup"), ops
            else:
                trial = self.trials[self.campaigns % self.topologies]
                base, n_trials = derive(self.seed, "campaign", self.campaigns), self.chunk
                self.campaigns += 1
            start = [self.begin_op()]
            count = [0]

            def on_done(k, elapsed_s, metrics):
                idx = self.end_op(start[0], self._trial_ok(metrics))
                if idx >= 0:
                    self.results.append((idx, trial, base, k, metrics))
                count[0] += 1
                start[0] = self.begin_op()

            try:
                outcome = Campaign(
                    trial, n_trials, base, plan=RunPlan(),
                    on_trial_done=on_done,
                ).run()
            except Exception:  # noqa: BLE001 - a failed op, not a crash
                traceback.print_exc()
                self.end_op(start[0], False)
                count[0] += 1
            else:
                if not outcome.ok:
                    print(outcome.failures[0].traceback, file=sys.stderr)
            done += count[0]

    def verify(self):
        """Recompute one sampled trial on the ``bigint`` oracle engine."""
        from repro.sim.runner import trial_seed

        if not self.results:
            return
        idx, trial, base, k, observed = self.results[
            derive(self.seed, "sample") % len(self.results)
        ]
        oracle = dataclasses.replace(trial, engine="bigint")
        if oracle(k, trial_seed(base, k)) != observed:
            self.fail(idx, "sampled trial differs from the bigint oracle")


# -- serve_mixed ---------------------------------------------------------------


def _utc(stamp: str) -> float:
    return datetime.datetime.fromisoformat(stamp.replace("Z", "+00:00")).timestamp()


class ServeMixed(Workload):
    """An in-process ``ServiceApp`` and one client; every job is a sweep
    with one stored point (8 hits) and one new point (8 misses).

    Jobs cycle through several topologies: session cost differs between
    topologies, and one topology per run would make that the run-to-run
    spread.  The first job on each topology stores its first point, so
    those jobs are the warm-up.

    Every job must cost the same however many jobs came before it, or a
    faster program would be judged on a different mix.  The new points
    of consecutive jobs are ``step`` apart: enough for a fresh cache key,
    too little to change which tags participate.  The service keeps
    every finished job in memory, so the peak RSS is read after a fixed
    number of jobs that every run completes.
    """

    name = "serve_mixed"
    n_trials = 8
    topologies = 8
    warmup_ops = topologies
    #: participation distance between consecutive jobs' new points
    step = 1e-7
    rss_at_op = 150

    def setup(self):
        from repro.serve.app import ServiceApp
        from repro.serve.client import ServiceClient
        from repro.store.cache import ResultStore

        n = 200 if self.size == "bench" else 50
        self.params = {
            "tag_range": 6.0,
            "n_tags": n,
            "frame_size": 128,
            "loss": 0.0,
            "engine": "packed",
        }
        self.topology_seeds = [
            derive(self.seed, "topology", i) for i in range(self.topologies)
        ]
        self.base_seed = derive(self.seed, "base")
        self.p0 = 0.49 + (derive(self.seed, "participation") % 200) * 1e-4
        self.jobs = 0
        #: (op index, job number, axis values, final job record) per op;
        #: the record keeps only its result's digest and its timestamps
        self.records: List[Tuple[int, int, List[float], Dict[str, Any]]] = []
        self.rejected = 0
        self.store_dir = os.path.join(self.workdir, f"serve-store-{os.getpid()}")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.app = ServiceApp(ResultStore(self.store_dir), job_workers=1)
        started = threading.Event()
        self._error: List[BaseException] = []

        async def serve():
            from repro.obs import set_registry

            # As ``ServiceApp.serve_forever`` does, minus signal handlers
            # (which only the main thread may install).
            previous = set_registry(self.app.registry)
            try:
                self._aloop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                self.port = await self.app.start()
                started.set()
                await self._stop.wait()
                await self.app.shutdown()
            finally:
                set_registry(previous)

        def run():
            try:
                asyncio.run(serve())
            except BaseException as exc:  # noqa: BLE001 - reported by setup
                self._error.append(exc)
                started.set()

        self._thread = threading.Thread(target=run, name="perfbench-serve")
        self._thread.start()
        if not started.wait(30) or self._error:
            raise RuntimeError(f"service failed to start: {self._error}")
        self.client = ServiceClient(f"http://127.0.0.1:{self.port}", timeout_s=60)

    def trial_params(self, k: int) -> Dict[str, Any]:
        return dict(
            self.params,
            topology_seed=self.topology_seeds[k % self.topologies],
            participation=self.p0,
        )

    def spec(self, k: int) -> Tuple[List[float], Dict[str, Any]]:
        from repro.serve.jobs import JOB_SCHEMA

        values = [self.p0, round(self.p0 + self.step * (k + 1), 9)]
        return values, {
            "schema": JOB_SCHEMA,
            "kind": "sweep",
            "trial": {
                "type": "repro.experiments.common.SessionBatchTrial",
                "params": self.trial_params(k),
            },
            "n_trials": self.n_trials,
            "base_seed": self.base_seed,
            "plan": None,
            "parameter": "participation",
            "values": values,
        }

    def _record_ok(self, record, first_job: bool) -> bool:
        result = record.get("result") or {}
        aggs = result.get("aggregates") or []
        return (
            record.get("state") == "done"
            and record.get("cache_hits") == (0 if first_job else self.n_trials)
            and record.get("trials_done") == 2 * self.n_trials
            and len(aggs) == 2
            and all(a["slots"]["count"] == self.n_trials for a in aggs)
        )

    def loop(self, deadline, ops=0):
        from repro.serve.client import ServiceError

        done = 0
        while _more(deadline, done, ops):
            k = self.jobs
            self.jobs += 1
            values, doc = self.spec(k)
            start = self.begin_op()
            record: Optional[Dict[str, Any]] = None
            try:
                # The job runs on the service's worker thread while this
                # span is open, so its spans nest under it.  The POST
                # round trip is timed apart, not as a span: the job may
                # start before the response arrives.
                with self.span("serve.request"):
                    posted = time.perf_counter()
                    job_id = self.client.submit(doc)["id"]
                    if self.tracer is not None:
                        self.tracer.count(
                            "serve.submit_s", time.perf_counter() - posted
                        )
                    for _ in self.client.events(job_id, timeout_s=60):
                        pass
                with self.span("serve.result"):
                    record = self.client.job(job_id)
            except ServiceError as exc:
                if exc.status == 429:
                    self.rejected += 1
                print(f"[perfbench] {exc}", file=sys.stderr)
            except Exception:  # noqa: BLE001 - a failed op, not a crash
                traceback.print_exc()
            ok = record is not None and self._record_ok(
                record, k < self.topologies
            )
            idx = self.end_op(start, ok)
            if idx >= 0 and record is not None:
                self.records.append((idx, k, values, {
                    "result": digest(record["result"]),
                    **{key: record[key] for key in (
                        "submitted_utc", "started_utc", "finished_utc",
                    )},
                }))
            done += 1

    def verify(self):
        """Every job's aggregates equal a direct in-process sweep."""
        from repro.experiments.common import SessionBatchTrial
        from repro.sim.plan import RunPlan
        from repro.sim.results import sweep_to_dict
        from repro.sim.runner import sweep

        # The stored point repeats in every job on a topology: run it once.
        memo: Dict[Tuple[int, float, int, int], Dict[str, float]] = {}

        def factory(params):
            def point(value):
                trial = SessionBatchTrial(**dict(params, participation=value))

                def run(k, seed):
                    key = (params["topology_seed"], value, k, seed)
                    if key not in memo:
                        memo[key] = trial(k, seed)
                    return memo[key]

                return run

            return point

        for idx, k, values, record in self.records:
            direct = sweep(
                "participation", values, factory(self.trial_params(k)),
                n_trials=self.n_trials, base_seed=self.base_seed,
                plan=RunPlan(),
            )
            if digest(sweep_to_dict(direct)) != record["result"]:
                self.fail(idx, "served aggregates differ from a direct sweep")

    def extra_metrics(self, first):
        waits, runs = [], []
        for idx, _, _, record in self.records:
            if idx < first:
                continue
            submitted = _utc(record["submitted_utc"])
            started = _utc(record["started_utc"])
            waits.append(started - submitted)
            runs.append(_utc(record["finished_utc"]) - started)
        n = max(len(self.ops) - first, 1)
        return {
            "serve.queue_wait_s": sum(waits) / n,
            "serve.job_run_s": sum(runs) / n,
            "serve.rejected": self.rejected / n,
        }

    def close(self):
        if self._thread.is_alive():
            self._aloop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop")
        shutil.rmtree(self.store_dir, ignore_errors=True)


# -- scenario_uav --------------------------------------------------------------


class ScenarioUAV(Workload):
    """``run_scenario`` with a UAV reader and link-budget power cycling."""

    name = "scenario_uav"

    def setup(self):
        self.n_tags = 2000 if self.size == "bench" else 200
        self.count = 0
        #: (op index, scenario seed, metrics) per op
        self.results: List[Tuple[int, int, Dict[str, float]]] = []

    def run_one(self, seed: int) -> Dict[str, float]:
        import repro.scenario.run as scenario_run

        result = scenario_run.run_scenario(
            trajectory="uav", power_threshold_dbm=-22.0,
            n_tags=self.n_tags, n_operations=3, seed=seed,
        )
        return result.metrics()

    @staticmethod
    def _metrics_ok(m):
        return (
            _finite(m)
            and m["operations"] == 3
            and m["slots_total"] > 0
            and m["relinks_total"] > 0
            and 0.0 < m["powered_fraction_mean"] <= 1.0
        )

    def loop(self, deadline, ops=0):
        done = 0
        while _more(deadline, done, ops):
            if self._warming:
                seed = derive(self.seed, "warmup", done)
            else:
                seed = derive(self.seed, "scenario", self.count)
                self.count += 1
            start = self.begin_op()
            metrics = None
            try:
                metrics = self.run_one(seed)
            except Exception:  # noqa: BLE001 - a failed op, not a crash
                traceback.print_exc()
            idx = self.end_op(start, metrics is not None and self._metrics_ok(metrics))
            if idx >= 0 and metrics is not None:
                self.results.append((idx, seed, metrics))
                if idx == 0 and self.pinned and digest(metrics) != committed_digests()[self.name]:
                    self.fail(idx, "metrics digest differs from the committed one")
            done += 1

    def verify(self):
        """A re-run of one sampled seed gives identical metrics."""
        if not self.results:
            return
        idx, seed, observed = self.results[
            derive(self.seed, "sample") % len(self.results)
        ]
        if self.run_one(seed) != observed:
            self.fail(idx, "sampled scenario differs on re-run")

    def extra_metrics(self, first):
        picked = [m for idx, _, m in self.results if idx >= first]
        n = max(len(picked), 1)
        return {
            "scenario.powered_frac": sum(m["powered_fraction_mean"] for m in picked) / n,
            "scenario.sim_s": sum(m["duration_s"] for m in picked) / n,
        }


WORKLOADS = {
    cls.name: cls for cls in (PaperSweep, LossyCampaign, ServeMixed, ScenarioUAV)
}
