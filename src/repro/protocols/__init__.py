"""System-level protocols over networked tags.

* :mod:`repro.protocols.transport` — the frame-transport abstraction that
  separates protocol logic from how bitmaps reach the reader (traditional
  single-hop, CCM, multi-reader CCM).
* :mod:`repro.protocols.gmle` — GMLE cardinality estimation (Sec. IV).
* :mod:`repro.protocols.trp` — TRP missing-tag detection (Sec. V).
* :mod:`repro.protocols.sicp` / :mod:`repro.protocols.cicp` — the
  ID-collection baselines (Sec. VI-A).
"""

from repro.protocols.cicp import CICPResult, collect_ids_contention, run_cicp
from repro.protocols.gmle import (
    FrameObservation,
    GMLEProtocol,
    GMLEResult,
    OPTIMAL_LOAD,
    fisher_information,
    gmle_frame_size,
    mle_estimate,
    normal_quantile,
    relative_halfwidth,
)
from repro.protocols.sicp import (
    SICPParams,
    SICPResult,
    SpanningTree,
    build_tree,
    collect_ids,
    run_sicp,
)
from repro.protocols.identification import (
    IdentificationResult,
    IterativeIdentification,
)
from repro.protocols.lof import (
    LoFProtocol,
    LoFResult,
    geometric_pick,
    lof_estimate,
    lof_picks,
)
from repro.protocols.search import (
    SearchResult,
    TagSearchProtocol,
    false_positive_probability,
    optimal_hash_count,
    search_frame_size,
)
from repro.protocols.transport import (
    CCMTransport,
    FrameOutcome,
    FrameTransport,
    MultiReaderCCMTransport,
    TraditionalTransport,
    frame_picks,
    ideal_bitmap,
    search_slots,
)
from repro.protocols.trp import (
    TRPProtocol,
    TRPResult,
    detection_probability,
    trp_frame_size,
)

__all__ = [
    "CICPResult",
    "collect_ids_contention",
    "run_cicp",
    "FrameObservation",
    "GMLEProtocol",
    "GMLEResult",
    "OPTIMAL_LOAD",
    "fisher_information",
    "gmle_frame_size",
    "mle_estimate",
    "normal_quantile",
    "relative_halfwidth",
    "SICPParams",
    "SICPResult",
    "SpanningTree",
    "build_tree",
    "collect_ids",
    "run_sicp",
    "IdentificationResult",
    "IterativeIdentification",
    "LoFProtocol",
    "LoFResult",
    "geometric_pick",
    "lof_estimate",
    "lof_picks",
    "SearchResult",
    "TagSearchProtocol",
    "false_positive_probability",
    "optimal_hash_count",
    "search_frame_size",
    "CCMTransport",
    "FrameOutcome",
    "FrameTransport",
    "MultiReaderCCMTransport",
    "TraditionalTransport",
    "frame_picks",
    "ideal_bitmap",
    "search_slots",
    "TRPProtocol",
    "TRPResult",
    "detection_probability",
    "trp_frame_size",
]
