"""A power-aware wrapper around any slot-level :class:`Channel`.

:class:`ScenarioChannel` composes with an inner channel (perfect, lossy,
or any custom model) and applies a *powered mask*: an unpowered tag's
transmissions are removed before the inner channel sees them, and an
unpowered tag hears nothing (its radio is down).  With no mask set the
wrapper delegates verbatim — inputs, outputs, and the inner channel's RNG
draw stream are untouched.  (The scenario engine applies its per-round
mask inside the vectorized kernel, which masks exactly the same rows, so
a masked wrapper consumes the same draws.)

RNG note: the ``repro-channel-rng-v1`` contract consumes draws only for
*set bits* of the transmit masks, so masking a tag's transmissions to
zero removes its draws deterministically — the scenario draw order is a
pure function of (seed, config), not of wall-clock or iteration order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.net.channel import Channel

__all__ = ["ScenarioChannel"]


class ScenarioChannel(Channel):
    """Wrap ``inner`` with a mutable powered-tag mask.

    :meth:`set_active` changes the mask (``None`` means every tag is
    powered).  The wrapper works with any engine that drives the channel
    interface — e.g.
    ``run_session(..., channel=ScenarioChannel(PerfectChannel()))`` runs
    on the bigint engine and, with no mask set, reproduces the unwrapped
    channel bit-for-bit.
    """

    def __init__(
        self, inner: Channel, active: Optional[np.ndarray] = None
    ) -> None:
        self.inner = inner
        self.active: Optional[np.ndarray] = None
        if active is not None:
            self.set_active(active)

    def set_active(self, mask: Optional[np.ndarray]) -> None:
        """Set (or clear, with ``None``) the powered-tag mask."""
        self.active = None if mask is None else np.asarray(mask, dtype=bool)

    # -- capability flags ---------------------------------------------------

    @property
    def supports_packed(self) -> bool:  # type: ignore[override]
        return bool(getattr(self.inner, "supports_packed", False))

    # is_perfect stays False (the base default): auto-routing must keep
    # wrapped channels on channel-driven paths, never the silent slot-major
    # fast path that bypasses propagate() entirely.

    # -- big-int interface --------------------------------------------------

    def propagate(
        self,
        transmit: Sequence[int],
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        transmit = self._mask_transmit_list(transmit)
        heard = self.inner.propagate(transmit, indptr, indices, rng)
        if self.active is not None:
            heard = [
                h if powered else 0
                for h, powered in zip(heard, self.active.tolist())
            ]
        return heard

    def reader_senses(
        self,
        transmit: Sequence[int],
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        return self.inner.reader_senses(
            self._mask_transmit_list(transmit), tier1, rng
        )

    # -- packed interface ---------------------------------------------------

    def propagate_packed(
        self,
        transmit: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        transmit = self._mask_transmit_words(transmit)
        heard = self.inner.propagate_packed(transmit, indptr, indices, rng)
        if self.active is not None:
            heard = heard.copy()
            heard[~self.active] = 0
        return heard

    def reader_senses_packed(
        self,
        transmit: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        return self.inner.reader_senses_packed(
            self._mask_transmit_words(transmit), tier1, rng
        )

    # -- helpers ------------------------------------------------------------

    def _mask_transmit_list(self, transmit: Sequence[int]) -> Sequence[int]:
        if self.active is None:
            return transmit
        return [
            m if powered else 0
            for m, powered in zip(transmit, self.active.tolist())
        ]

    def _mask_transmit_words(self, transmit: np.ndarray) -> np.ndarray:
        if self.active is None:
            return transmit
        masked = transmit.copy()
        masked[~self.active] = 0
        return masked

    def __repr__(self) -> str:
        gated = (
            "all-powered"
            if self.active is None
            else f"{int(self.active.sum())}/{self.active.size} powered"
        )
        return f"ScenarioChannel({self.inner!r}, {gated})"
