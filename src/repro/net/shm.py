"""Zero-copy shared topology for process-pool campaigns.

A paper-scale :class:`~repro.net.topology.Network` is dominated by its
CSR adjacency (tens of MB at n = 10,000) — re-pickling it into every
worker task turns campaign dispatch into an IPC benchmark.  This module
publishes a network's arrays once into one POSIX shared-memory segment;
workers receive only a tiny picklable :class:`TopologyHandle` (segment
name + array specs) and attach by name, mapping the same physical pages
read-only.

Lifecycle
---------
* :meth:`SharedTopology.publish` (parent) copies the arrays in and owns
  the segment; closing the owner unlinks it.
* :meth:`SharedTopology.attach` (worker) maps an existing segment; the
  module-level :func:`attach_cached` memoizes attachments per process so
  a worker maps each topology once across all its tasks.
* Reference counts guard double-close; :func:`SharedTopology.cleanup`
  force-unlinks a leaked segment by name (e.g. after a worker crash).
* On platforms without ``multiprocessing.shared_memory`` (or when a
  segment cannot be attached), callers fall back to rebuilding the
  topology — :func:`shared_memory_available` reports support.

Python's ``resource_tracker`` would unlink an attached segment when the
*worker* exits (it cannot know the parent still owns it), so worker-side
attachment unregisters the mapping from the tracker — the documented
workaround for the owner/borrower split the stdlib does not model.
"""

from __future__ import annotations

import atexit
import secrets
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.net.topology import Network, Reader

try:  # pragma: no cover - present on all supported platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SharedTopology",
    "TopologyHandle",
    "attach_cached",
    "shared_memory_available",
]

#: Network array fields published into the segment, in layout order.
#: Readers and the tag range are scalars/small tuples and travel inside
#: the handle itself.
_ARRAY_FIELDS: Tuple[str, ...] = (
    "positions",
    "tag_ids",
    "indptr",
    "indices",
    "tiers",
    "reader_distance",
)


def shared_memory_available() -> bool:
    """Whether this platform supports ``multiprocessing.shared_memory``."""
    return _shared_memory is not None


@dataclass(frozen=True)
class TopologyHandle:
    """A picklable reference to a published topology.

    ``specs`` records ``(field, shape, dtype, offset)`` per array so an
    attaching process can reconstruct the exact views without touching
    the publishing process.
    """

    name: str
    specs: Tuple[Tuple[str, Tuple[int, ...], str, int], ...]
    readers: Tuple[Reader, ...]
    tag_range: float


def _untrack(shm) -> None:
    """Stop the resource tracker from unlinking a borrowed segment."""
    try:  # pragma: no cover - defensive: tracker internals are private
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _retrack(shm) -> None:
    """Re-register a segment just before unlinking it.

    ``SharedMemory.unlink`` unconditionally *unregisters* from the
    tracker; since every mapping here is untracked on open, registering
    first keeps the tracker's bookkeeping balanced (an unbalanced
    unregister raises KeyError inside the tracker daemon).
    """
    try:  # pragma: no cover - defensive: tracker internals are private
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass


class SharedTopology:
    """One published (or attached) shared-memory topology segment."""

    def __init__(
        self,
        shm,
        handle: TopologyHandle,
        network: Network,
        owner: bool,
    ):
        self._shm = shm
        self.handle = handle
        self.network = network
        self.owner = owner
        self._refs = 1
        self._closed = False

    # -- construction --------------------------------------------------------

    @classmethod
    def publish(
        cls, network: Network, *, name: Optional[str] = None
    ) -> "SharedTopology":
        """Copy ``network``'s arrays into a new segment this process owns."""
        if _shared_memory is None:
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use the serial fallback"
            )
        specs = []
        offset = 0
        arrays = {}
        for fieldname in _ARRAY_FIELDS:
            arr = np.ascontiguousarray(getattr(network, fieldname))
            offset = (offset + 7) & ~7  # 8-byte-align every array
            specs.append(
                (fieldname, tuple(arr.shape), arr.dtype.str, offset)
            )
            arrays[fieldname] = arr
            offset += arr.nbytes
        total = max(1, offset)
        if name is None:
            name = f"repro-topo-{secrets.token_hex(8)}"
        shm = _shared_memory.SharedMemory(create=True, size=total, name=name)
        # Opt out of the resource tracker entirely (both here and on
        # attach): with a forked tracker daemon the owner's and the
        # borrowers' register/unregister messages would race each other
        # into KeyErrors, and with spawn the borrower's tracker would
        # unlink the owner's segment on worker exit.  Lifetime is managed
        # explicitly instead: owner close/atexit unlinks, and
        # :meth:`cleanup` handles segments leaked by a crash.
        _untrack(shm)
        for fieldname, shape, dtype, off in specs:
            src = arrays[fieldname]
            dst = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            dst[...] = src
        handle = TopologyHandle(
            name=shm.name,
            specs=tuple(specs),
            readers=tuple(network.readers),
            tag_range=float(network.tag_range),
        )
        shared_net = cls._network_from(shm, handle)
        topo = cls(shm, handle, shared_net, owner=True)
        _OWNED.append(topo)
        return topo

    @classmethod
    def attach(cls, handle: TopologyHandle) -> "SharedTopology":
        """Map an existing segment by name (worker side)."""
        if _shared_memory is None:
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use the serial fallback"
            )
        shm = _shared_memory.SharedMemory(name=handle.name)
        _untrack(shm)
        return cls(shm, handle, cls._network_from(shm, handle), owner=False)

    @staticmethod
    def _network_from(shm, handle: TopologyHandle) -> Network:
        views = {}
        for fieldname, shape, dtype, off in handle.specs:
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            view.flags.writeable = False
            views[fieldname] = view
        return Network(
            positions=views["positions"],
            tag_ids=views["tag_ids"],
            readers=list(handle.readers),
            tag_range=handle.tag_range,
            indptr=views["indptr"],
            indices=views["indices"],
            reader_distance=views["reader_distance"],
            tier1_mask=views["tiers"] == 1,
            _tiers=views["tiers"],
        )

    # -- refcounted lifecycle ------------------------------------------------

    def acquire(self) -> "SharedTopology":
        """Take an extra reference (released by a matching :meth:`close`)."""
        if self._closed:
            raise ValueError("shared topology is closed")
        self._refs += 1
        return self

    def close(self) -> None:
        """Drop one reference; the last drop unmaps (and unlinks if owner)."""
        if self._closed:
            return
        self._refs -= 1
        if self._refs > 0:
            return
        self._closed = True
        # The Network's array views alias shm.buf; break the reference
        # so the buffer can actually be released.
        self.network = None
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - platform cleanup races
            pass
        if self.owner:
            self.unlink()

    def unlink(self) -> None:
        """Unlink the segment name now (owner-side, idempotent)."""
        _retrack(self._shm)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            _untrack(self._shm)

    @staticmethod
    def cleanup(name: str) -> bool:
        """Force-unlink a (possibly leaked) segment by name.

        Returns True if a segment was removed, False if none existed —
        the janitor a campaign driver runs after a worker crash.
        """
        if _shared_memory is None:
            return False
        try:
            shm = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        # Opening registered the name; unlink() will unregister it —
        # balanced, so no extra (un)track calls here.
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - lost a race
            _untrack(shm)
            return False
        return True

    def __enter__(self) -> "SharedTopology":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Segments this process published; atexit unlinks whatever the owner
#: forgot to close (the tracker is opted out, so this is the safety net).
_OWNED: list = []

#: Per-process attachment cache: a worker maps each published topology
#: once and reuses the mapping across every task it executes.
_ATTACH_CACHE: Dict[str, SharedTopology] = {}


def attach_cached(handle: TopologyHandle) -> Network:
    """Attach (or reuse this process's attachment of) ``handle``.

    Raises whatever :meth:`SharedTopology.attach` raises when the
    segment is gone — callers treat that as "rebuild locally".
    """
    topo = _ATTACH_CACHE.get(handle.name)
    if topo is None or topo._closed:
        topo = SharedTopology.attach(handle)
        _ATTACH_CACHE[handle.name] = topo
    return topo.network


def _close_all() -> None:  # pragma: no cover - interpreter shutdown
    for topo in list(_ATTACH_CACHE.values()):
        topo.close()
    _ATTACH_CACHE.clear()
    for topo in _OWNED:
        topo.close()
    _OWNED.clear()


atexit.register(_close_all)
