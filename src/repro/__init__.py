"""repro - Collision-resistant Communication Model for state-free networked tags.

A full reproduction of Liu et al., "Collision-resistant Communication Model
for State-free Networked Tags" (IEEE ICDCS 2019): the CCM session engine
(Algorithm 1), the GMLE and TRP applications layered on it, the SICP/CICP
ID-collection baselines, the paper's closed-form cost model, and the
simulation substrate (geometric deployments, asymmetric-range topology,
slot-level channel, energy/time accounting) everything runs on.

Quick start::

    from repro import CCMConfig, paper_network, run_session, TagHasher

    net = paper_network(tag_range=6.0, seed=7)
    hasher = TagHasher(seed=42)
    picks = [hasher.slot_of(int(t), 1671) for t in net.tag_ids]
    result = run_session(net, picks, config=CCMConfig(frame_size=1671))
    print(f"{result.bitmap.popcount()} busy slots in {result.rounds} rounds")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.analysis import CCMCostModel, TierGeometry, geometric_num_tiers
from repro.core import (
    ENGINE_NAMES,
    Bitmap,
    CCMConfig,
    MultiReaderResult,
    RoundStats,
    SessionResult,
    SessionTracer,
    default_checking_frame_length,
    run_multireader_session,
    run_session,
    union,
)
from repro.net import (
    EnergyLedger,
    LossyChannel,
    Network,
    PerfectChannel,
    Point,
    Reader,
    SlotCount,
    SlotTiming,
    TransceiverProfile,
    paper_network,
    uniform_disk,
)
from repro.protocols import (
    CCMTransport,
    GMLEProtocol,
    MultiReaderCCMTransport,
    SICPParams,
    TraditionalTransport,
    TRPProtocol,
    gmle_frame_size,
    run_cicp,
    run_sicp,
    trp_frame_size,
)
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    metrics_to_ndjson,
    render_profile,
    render_prometheus,
    use_registry,
    write_manifest_alongside,
)
from repro.sim import (
    Campaign,
    ExecutorConfig,
    TagHasher,
    TrialFailure,
    run_trials,
    sweep,
)
from repro.scenario import (
    LinkBudget,
    ReaderTrajectory,
    ScenarioConfig,
    ScenarioResult,
    make_trajectory,
    run_scenario,
)

__version__ = "1.8.0"

__all__ = [
    "CCMCostModel",
    "TierGeometry",
    "geometric_num_tiers",
    "Bitmap",
    "CCMConfig",
    "MultiReaderResult",
    "RoundStats",
    "SessionResult",
    "SessionTracer",
    "ENGINE_NAMES",
    "default_checking_frame_length",
    "run_multireader_session",
    "run_session",
    "union",
    "EnergyLedger",
    "LossyChannel",
    "Network",
    "PerfectChannel",
    "Point",
    "Reader",
    "SlotCount",
    "SlotTiming",
    "TransceiverProfile",
    "paper_network",
    "uniform_disk",
    "CCMTransport",
    "GMLEProtocol",
    "MultiReaderCCMTransport",
    "SICPParams",
    "TraditionalTransport",
    "TRPProtocol",
    "gmle_frame_size",
    "run_cicp",
    "run_sicp",
    "trp_frame_size",
    "MetricsRegistry",
    "RunManifest",
    "metrics_to_ndjson",
    "render_profile",
    "render_prometheus",
    "use_registry",
    "write_manifest_alongside",
    "TagHasher",
    "Campaign",
    "ExecutorConfig",
    "TrialFailure",
    "run_trials",
    "sweep",
    "LinkBudget",
    "ReaderTrajectory",
    "ScenarioConfig",
    "ScenarioResult",
    "make_trajectory",
    "run_scenario",
    "__version__",
]
