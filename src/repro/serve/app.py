"""The ``repro serve`` application: routes, lifecycle, graceful drain.

Wires the :class:`~repro.serve.http.HTTPServer` transport to the
:class:`~repro.serve.jobs.JobManager` queue:

========  ==========================  =========================================
method    path                        behaviour
========  ==========================  =========================================
POST      ``/v1/jobs``                submit a ``repro-job-v1`` document;
                                      202 + job record, 400 on a bad spec,
                                      429 when the queue is full
GET       ``/v1/jobs``                all job records (newest last)
GET       ``/v1/jobs/<id>``           one job's record (status + aggregates)
GET       ``/v1/jobs/<id>/events``    NDJSON event stream: replay from
                                      ``?since=<seq>`` then follow live until
                                      the job finishes
DELETE    ``/v1/jobs/<id>``           cancel (trial-boundary for running jobs)
GET       ``/metrics``                Prometheus text exposition
GET       ``/healthz``                ``{"status": "ok"|"draining", ...}``
========  ==========================  =========================================

Lifecycle: :meth:`ServiceApp.serve_forever` installs a live
:class:`~repro.obs.metrics.MetricsRegistry` (so campaign counters show
up in ``/metrics``), recovers unfinished jobs from the store, and runs
until SIGTERM/SIGINT — on which intake returns 503, running jobs are
interrupted at their next trial boundary (their namespaced checkpoint
journals make the restart resume bit-identical), job records are
persisted, and the process exits cleanly.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import AsyncIterator, Optional

from repro.obs import MetricsRegistry, render_prometheus, set_registry
from repro.serve.http import (
    HTTPError,
    HTTPServer,
    Request,
    Response,
    StreamResponse,
)
from repro.serve.jobs import (
    DEFAULT_EVENT_RETENTION,
    JobManager,
    JobSpec,
    QueueFull,
    UnknownJob,
)
from repro.store.cache import ResultStore

__all__ = ["ServiceApp"]

#: How long an events stream waits on the live tail per poll; bounds how
#: late a disconnected client is noticed, not event latency (waiters are
#: woken immediately on append).
_EVENT_POLL_S = 0.5


class ServiceApp:
    """One service instance: an HTTP transport over one job manager."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 32,
        job_workers: int = 1,
        event_retention: int = DEFAULT_EVENT_RETENTION,
    ):
        self.manager = JobManager(
            store,
            max_queue=max_queue,
            workers=job_workers,
            event_retention=event_retention,
        )
        self.server = HTTPServer(self.handle, host=host, port=port)
        self._shutdown = asyncio.Event()
        #: The server-wide registry behind ``/metrics``.  Held explicitly
        #: because the *installed* registry is the job's own while a job
        #: runs (its snapshot merges in when it ends); rendering
        #: ``get_registry()`` would show only that job mid-run.
        self.registry = MetricsRegistry()

    @property
    def store(self) -> ResultStore:
        return self.manager.store

    # -- routing ---------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return self._healthz(request)
        if path == "/metrics":
            return self._metrics(request)
        if path == "/v1/jobs":
            if request.method == "POST":
                return self._submit(request)
            if request.method == "GET":
                return self._list_jobs(request)
            raise HTTPError(405, f"{request.method} not allowed on {path}")
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job_id = rest[: -len("/events")]
                if request.method != "GET":
                    raise HTTPError(405, "events are GET-only")
                return self._events(request, job_id)
            if "/" in rest:
                raise HTTPError(404, f"no route {path!r}")
            if request.method == "GET":
                return self._job(request, rest)
            if request.method == "DELETE":
                return self._cancel(request, rest)
            raise HTTPError(405, f"{request.method} not allowed on {path}")
        raise HTTPError(404, f"no route {path!r}")

    # -- endpoints -------------------------------------------------------------

    def _healthz(self, request: Request) -> Response:
        draining = self.manager.draining
        return Response(
            body={
                "status": "draining" if draining else "ok",
                "draining": draining,
                "jobs": len(self.manager.list()),
                "store": str(self.store.root),
            }
        )

    def _metrics(self, request: Request) -> Response:
        return Response(
            body=render_prometheus(self.registry),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _submit(self, request: Request) -> Response:
        if self.manager.draining:
            raise HTTPError(503, "service is draining; not accepting jobs")
        try:
            spec = JobSpec.from_json(request.json())
        except ValueError as exc:
            raise HTTPError(400, f"bad job spec: {exc}")
        try:
            job = self.manager.submit(spec)
        except QueueFull as exc:
            response = Response(status=429, body={"error": str(exc)})
            response.headers["Retry-After"] = "1"
            return response
        return Response(status=202, body=job.to_dict())

    def _list_jobs(self, request: Request) -> Response:
        return Response(
            body={"jobs": [job.to_dict() for job in self.manager.list()]}
        )

    def _job(self, request: Request, job_id: str) -> Response:
        try:
            job = self.manager.get(job_id)
        except UnknownJob:
            raise HTTPError(404, f"no job {job_id!r}")
        return Response(body=job.to_dict())

    def _cancel(self, request: Request, job_id: str) -> Response:
        try:
            job = self.manager.cancel(job_id)
        except UnknownJob:
            raise HTTPError(404, f"no job {job_id!r}")
        return Response(body=job.to_dict())

    def _events(self, request: Request, job_id: str) -> StreamResponse:
        try:
            job = self.manager.get(job_id)
        except UnknownJob:
            raise HTTPError(404, f"no job {job_id!r}")
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            raise HTTPError(400, "since must be an integer sequence number")
        return StreamResponse(chunks=self._event_chunks(job, since))

    @staticmethod
    async def _event_chunks(job, since: int) -> AsyncIterator[bytes]:
        """Replay retained events from ``since``, then follow the tail.

        When ``since`` predates the job's bounded event retention, the
        stream opens with one explicit ``{"kind": "truncated", ...}``
        marker naming the first sequence number still retained — a
        client that fell behind sees the gap instead of a silent skip.
        """
        loop = asyncio.get_running_loop()
        records, truncated = job.events.window(since)
        if truncated:
            marker = {
                "kind": "truncated",
                "requested_since": since,
                "first_seq": job.events.first_seq,
                "dropped": job.events.dropped,
            }
            yield (json.dumps(marker, sort_keys=True) + "\n").encode()
        seq = since
        for record in records:
            seq = record["seq"] + 1
            yield (json.dumps(record, sort_keys=True) + "\n").encode()
        while True:
            records = await loop.run_in_executor(
                None, job.events.wait, seq, _EVENT_POLL_S
            )
            for record in records:
                seq = record["seq"] + 1
                yield (json.dumps(record, sort_keys=True) + "\n").encode()
            if job.events.closed and not job.events.window(seq)[0]:
                return

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> int:
        """Recover persisted jobs, start the workers, bind the socket."""
        recovered = self.manager.recover()
        if recovered:
            print(
                f"[serve] recovered {len(recovered)} unfinished job(s): "
                + ", ".join(recovered),
                file=sys.stderr,
            )
        self.manager.start()
        return await self.server.start()

    def request_shutdown(self) -> None:
        """Ask the serving loop to drain and exit (signal-handler safe)."""
        self._shutdown.set()

    async def shutdown(self) -> None:
        """Graceful drain: stop intake, interrupt jobs, persist, stop."""
        self._shutdown.set()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.manager.drain)
        await self.server.close()

    async def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT, then drain and return."""
        previous = set_registry(self.registry)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        try:
            port = await self.start()
            print(
                f"[serve] listening on http://{self.server.host}:{port} "
                f"(store {self.store.root})",
                flush=True,
            )
            await self._shutdown.wait()
            await self.shutdown()
            print("[serve] drained; exiting", file=sys.stderr)
        finally:
            set_registry(previous)
