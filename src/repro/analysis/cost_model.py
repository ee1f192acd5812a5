"""Closed-form CCM cost model — Eqs. (3) and (11)–(13) of Sec. IV-C.

Predicts, without simulation, a tag's expected communication overhead in a
CCM session as a function of its tier k, assuming the uniform-density
annulus layout of the paper's analysis.  The reproduction uses it two ways:

* the analysis-vs-simulation experiment checks that the simulator and the
  paper's math agree on trends and magnitudes;
* the table predictors weight the per-tier values by tier ring areas to
  produce network-wide averages and maxima next to the measured ones.

Notation follows the paper: f (frame size), p (participation probability,
1 for TRP), ρ (density), (R, r', r) (ranges), K (tiers), L_c (checking
frame length), χ(n') = f(1 − (1 − 1/f)^n') (occupied slots among n'
random picks, Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.geometry import (
    TierGeometry,
    geometric_num_tiers,
    lens_area,
    tier_ring_area,
)
from repro.net.timing import SlotCount, eq3_execution_time, indicator_vector_slots


def chi(n_picks: float, frame_size: int) -> float:
    """χ(n') of Eq. (4): expected number of distinct slots n' tags pick."""
    if n_picks < 0:
        raise ValueError("n_picks must be non-negative")
    f = float(frame_size)
    return f * (1.0 - (1.0 - 1.0 / f) ** n_picks)


@dataclass(frozen=True)
class CCMCostModel:
    """Expected per-tag CCM session cost under the Sec. IV-C geometry.

    ``participation`` is p (GMLE's sampling probability; 1.0 for TRP —
    Sec. V-C notes the TRP analysis is GMLE's with p = 1).
    """

    frame_size: int
    participation: float
    density: float
    reader_to_tag: float  # R
    tag_to_reader: float  # r'
    tag_range: float  # r

    def __post_init__(self) -> None:
        if self.frame_size <= 0:
            raise ValueError("frame_size must be positive")
        if not 0.0 < self.participation <= 1.0:
            raise ValueError("participation must be in (0, 1]")

    @property
    def n_tiers(self) -> int:
        return geometric_num_tiers(
            self.reader_to_tag, self.tag_to_reader, self.tag_range
        )

    @property
    def checking_frame_length(self) -> int:
        return 2 * self.n_tiers

    def _geometry(self, tier: int) -> TierGeometry:
        return TierGeometry(
            density=self.density,
            reader_to_tag=self.reader_to_tag,
            tag_to_reader=self.tag_to_reader,
            tag_range=self.tag_range,
            tier=tier,
            n_tiers=self.n_tiers,
        )

    # -- union sizes ----------------------------------------------------------

    def _union_size(self, geo: TierGeometry, i_tag: int, j_reader: int) -> float:
        """|Γ_i ∪ Γ'_j| generalised to distinct hop counts (the set
        difference in Eq. 12 needs |Γ_{i−1} ∪ Γ'_{i−1}| − |Γ_{i−2} ∪ Γ'_{i−1}|)."""
        gamma = geo.gamma_size(i_tag) if i_tag >= 0 else 0.0
        gamma_p = geo.gamma_prime_size(j_reader)
        if i_tag <= 0:
            return gamma + gamma_p
        overlap = lens_area(
            i_tag * self.tag_range,
            geo.reader_disk_radius(j_reader),
            geo.tag_distance,
        )
        return max(gamma + gamma_p - self.density * overlap, 0.0)

    # -- Eq. (11): reception --------------------------------------------------

    def monitor_slots(self, tier: int) -> float:
        """N_r — expected slots a tier-k tag spends receiving/monitoring.

        Σ_{i=0}^{K−1} f(1 − 1/f)^(p·|Γ_i ∪ Γ'_i|) + K⌈f/96⌉ + K·L_c.
        (The paper prints the summand as p·f(...)^...; its own derivation —
        monitored slots = f − χ(p|Γ_i ∪ Γ'_i|) — gives the form used here.)
        """
        geo = self._geometry(tier)
        f = float(self.frame_size)
        k_total = self.n_tiers
        base = 1.0 - 1.0 / f
        total = 0.0
        for i in range(k_total):
            union = geo.gamma_union_size(i)
            total += f * base ** (self.participation * union)
        total += k_total * indicator_vector_slots(self.frame_size)
        total += k_total * self.checking_frame_length
        return total

    def received_bits(self, tier: int) -> float:
        """Expected received *bits* under the ledger's counting rules:
        monitored data slots (1 bit each) + f bits per indicator broadcast
        + checking-frame listening (1 bit per slot)."""
        geo = self._geometry(tier)
        f = float(self.frame_size)
        k_total = self.n_tiers
        base = 1.0 - 1.0 / f
        total = 0.0
        for i in range(k_total):
            union = geo.gamma_union_size(i)
            total += f * base ** (self.participation * union)
        total += k_total * f  # indicator vector payloads
        total += k_total * self.checking_frame_length
        return total

    # -- Eqs. (12)/(13): transmission -------------------------------------------

    def transmit_slots_round(self, tier: int, round_index: int) -> float:
        """N_{s,i} of Eq. (12) for round i (1-based)."""
        if round_index < 1:
            raise ValueError("round_index is 1-based")
        p = self.participation
        if round_index == 1:
            return p
        geo = self._geometry(tier)
        i = round_index
        union_prev = geo.gamma_union_size(i - 1)
        # |Γ_{i−1} − Γ_{i−2} − Γ'_{i−1}| via inclusion of the smaller union.
        newly = self._union_size(geo, i - 1, i - 1) - self._union_size(
            geo, i - 2, i - 1
        )
        mu = p * max(newly, 0.0)
        return chi(mu, self.frame_size) * (
            1.0 - chi(p * union_prev, self.frame_size) / self.frame_size
        )

    def transmit_slots(self, tier: int, checking_upper_bound: str = "K") -> float:
        """N_s of Eq. (13).

        The paper's text takes K as the checking-frame transmission upper
        bound while the displayed equation says K·L_c; ``checking_upper_bound``
        selects ``"K"`` (default, the text) or ``"K*Lc"`` (the equation).
        """
        total = sum(
            self.transmit_slots_round(tier, i) for i in range(1, self.n_tiers + 1)
        )
        if checking_upper_bound == "K":
            total += self.n_tiers
        elif checking_upper_bound == "K*Lc":
            total += self.n_tiers * self.checking_frame_length
        else:
            raise ValueError("checking_upper_bound must be 'K' or 'K*Lc'")
        return total

    def sent_bits(self, tier: int) -> float:
        """Expected sent bits (every transmission slot carries one bit)."""
        return self.transmit_slots(tier)

    # -- Eq. (3): execution time -----------------------------------------------

    def execution_time(self) -> SlotCount:
        return eq3_execution_time(
            self.n_tiers, self.frame_size, self.checking_frame_length
        )

    # -- network-level aggregation ----------------------------------------------

    def tier_weights(self) -> List[float]:
        """Fraction of tags expected in each tier (ring-area weighted)."""
        areas = [
            tier_ring_area(
                k, self.reader_to_tag, self.tag_to_reader, self.tag_range
            )
            for k in range(1, self.n_tiers + 1)
        ]
        total = sum(areas)
        if total <= 0:
            raise ArithmeticError("degenerate geometry: zero total ring area")
        return [a / total for a in areas]

    def predict_energy_table(self) -> Dict[str, float]:
        """The four table statistics, predicted analytically."""
        weights = self.tier_weights()
        sent = [self.sent_bits(k) for k in range(1, self.n_tiers + 1)]
        received = [self.received_bits(k) for k in range(1, self.n_tiers + 1)]
        return {
            "avg_sent": sum(w * s for w, s in zip(weights, sent)),
            "max_sent": max(sent),
            "avg_received": sum(w * rcv for w, rcv in zip(weights, received)),
            "max_received": max(received),
        }
