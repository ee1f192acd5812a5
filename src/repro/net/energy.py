"""Per-tag energy accounting.

The paper measures energy indirectly as *bits sent per tag* and *bits
received per tag* (Sec. VI-A), noting that RX and TX costs on transceivers
of the CC1120 class are of the same order, so the received-bit count
dominates.  :class:`EnergyLedger` counts exactly those two quantities for
every tag; :class:`TransceiverProfile` optionally converts them to joules.

Counting rules (also documented in DESIGN.md §6):

* a transmitted data/checking slot adds 1 bit to ``bits_sent``;
* a listened (carrier-sensed) slot adds 1 bit to ``bits_received`` whether
  or not anything was heard — idle listening is the dominant RX cost;
* a received indicator-vector broadcast adds f bits (the reader ships it in
  ⌈f/96⌉ 96-bit slots, Sec. III-D);
* baselines add 96 bits per transmitted/overheard tag ID;
* a powered-down tag accrues *zero* bits — the scenario engine's kernel
  masks a sleeping tag's adds before they reach the ledger (a sleeping
  radio neither transmits nor carrier-senses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

ArrayLike = Union[np.ndarray, list]

#: Length of a tag ID in bits (EPC Gen2, Sec. IV-C uses 96-bit IDs).
ID_BITS = 96


@dataclass(frozen=True)
class TransceiverProfile:
    """Energy cost per bit in TX and RX mode.

    Defaults approximate a CC1120-class low-power transceiver at 1.2 kbps
    and 3 V: both modes draw tens of milliwatts, i.e. the *same order of
    magnitude*, which is the paper's justification for treating received
    bits as the dominant term.  The absolute values only matter for the
    joules view; every reproduced table is in bits.
    """

    tx_joules_per_bit: float = 2.5e-5
    rx_joules_per_bit: float = 5.5e-5

    def __post_init__(self) -> None:
        if self.tx_joules_per_bit < 0 or self.rx_joules_per_bit < 0:
            raise ValueError("energy per bit must be non-negative")

    def energy(self, bits_sent: float, bits_received: float) -> float:
        """Total joules for the given bit counts."""
        return (
            bits_sent * self.tx_joules_per_bit
            + bits_received * self.rx_joules_per_bit
        )


class EnergyLedger:
    """Counts bits sent and received for each of ``n_tags`` tags."""

    def __init__(self, n_tags: int):
        if n_tags < 0:
            raise ValueError("n_tags must be non-negative")
        self.n_tags = n_tags
        self.bits_sent = np.zeros(n_tags, dtype=np.float64)
        self.bits_received = np.zeros(n_tags, dtype=np.float64)

    # -- recording ----------------------------------------------------------

    def add_sent(self, tag: int, bits: float) -> None:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self.bits_sent[tag] += bits

    def add_received(self, tag: int, bits: float) -> None:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self.bits_received[tag] += bits

    def add_sent_bulk(self, bits: ArrayLike) -> None:
        """Add a per-tag array of sent bits (one entry per tag)."""
        arr = np.asarray(bits, dtype=np.float64)
        if arr.shape != (self.n_tags,):
            raise ValueError("bulk update must have one entry per tag")
        if np.any(arr < 0):
            raise ValueError("bits must be non-negative")
        self.bits_sent += arr

    def add_received_bulk(self, bits: ArrayLike) -> None:
        arr = np.asarray(bits, dtype=np.float64)
        if arr.shape != (self.n_tags,):
            raise ValueError("bulk update must have one entry per tag")
        if np.any(arr < 0):
            raise ValueError("bits must be non-negative")
        self.bits_received += arr

    def add_received_to_all(self, bits: float, mask: np.ndarray = None) -> None:
        """Add the same received-bit count to every (or every masked) tag —
        e.g. an indicator-vector broadcast heard by the whole field."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if mask is None:
            self.bits_received += bits
        else:
            mask = np.asarray(mask, dtype=bool)
            self.bits_received[mask] += bits

    def merge(self, other: "EnergyLedger") -> None:
        """Accumulate another ledger (e.g. across sessions) in place."""
        if other.n_tags != self.n_tags:
            raise ValueError("ledgers cover different tag populations")
        self.bits_sent += other.bits_sent
        self.bits_received += other.bits_received

    # -- summaries (the four tables' statistics) -----------------------------

    def max_sent(self) -> float:
        """Table I's statistic."""
        return float(self.bits_sent.max()) if self.n_tags else 0.0

    def max_received(self) -> float:
        """Table II's statistic."""
        return float(self.bits_received.max()) if self.n_tags else 0.0

    def avg_sent(self) -> float:
        """Table III's statistic."""
        return float(self.bits_sent.mean()) if self.n_tags else 0.0

    def avg_received(self) -> float:
        """Table IV's statistic."""
        return float(self.bits_received.mean()) if self.n_tags else 0.0

    def summary(self) -> Dict[str, float]:
        """All four table statistics, keyed by a stable name."""
        return {
            "max_sent": self.max_sent(),
            "max_received": self.max_received(),
            "avg_sent": self.avg_sent(),
            "avg_received": self.avg_received(),
        }

    def load_balance_ratio(self) -> float:
        """max/avg received bits — ≈1 means a load-balanced protocol
        (Sec. VI-B.2's closing observation about CCM)."""
        avg = self.avg_received()
        return self.max_received() / avg if avg > 0 else 0.0

    def total_energy(self, profile: TransceiverProfile) -> float:
        """Whole-network energy in joules under ``profile``."""
        return profile.energy(
            float(self.bits_sent.sum()), float(self.bits_received.sum())
        )

    def per_tag_energy(self, profile: TransceiverProfile) -> np.ndarray:
        return (
            self.bits_sent * profile.tx_joules_per_bit
            + self.bits_received * profile.rx_joules_per_bit
        )

    def grouped_means(
        self, labels: np.ndarray
    ) -> Dict[int, "tuple[float, float]"]:
        """Mean (sent, received) bits per tag, grouped by integer label.

        Typical use: pass ``network.tiers`` to get per-tier energy — the
        quantity the paper's Eqs. (11)–(13) predict per tier.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.n_tags,):
            raise ValueError("labels must have one entry per tag")
        out: Dict[int, "tuple[float, float]"] = {}
        for label in np.unique(labels):
            mask = labels == label
            out[int(label)] = (
                float(self.bits_sent[mask].mean()),
                float(self.bits_received[mask].mean()),
            )
        return out

    def __repr__(self) -> str:
        return (
            f"EnergyLedger(n_tags={self.n_tags}, "
            f"avg_sent={self.avg_sent():.1f}, avg_received={self.avg_received():.1f})"
        )
