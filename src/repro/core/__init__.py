"""CCM core: bitmaps, the Algorithm-1 session engines, multi-reader combine.

This subpackage is the paper's primary contribution.  Typical use::

    from repro.core import CCMConfig, run_session
    from repro.net import paper_network
    from repro.sim import TagHasher

    net = paper_network(tag_range=6.0, seed=1)
    hasher = TagHasher(seed=42)
    picks = [hasher.slot_of(int(tid), 1671) for tid in net.tag_ids]
    result = run_session(net, picks, config=CCMConfig(frame_size=1671))
    print(result.bitmap.popcount(), "busy slots in", result.rounds, "rounds")

Sessions run on one of two engines (``engine="packed"``, the vectorized
kernel at B = 1; ``engine="bigint"``, the scalar big-int oracle; default
``"auto"``; see :data:`ENGINE_NAMES`); see :mod:`repro.core.engine` for
the oracle and :mod:`repro.core.batch` for the kernel, which also runs B
whole sessions per numpy call.
"""

from repro.core.bitmap import Bitmap, union
from repro.core.multireader import MultiReaderResult, run_multireader_session
from repro.core.reliability import RobustCollectResult, robust_collect
from repro.core.session import (
    ENGINE_NAMES,
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
    run_session,
)
from repro.core.batch import (
    BATCH_RNG_CONTRACT,
    batch_trial_rngs,
    run_session_batch,
)
from repro.sim.trace import SessionTracer

__all__ = [
    "Bitmap",
    "union",
    "CCMConfig",
    "ENGINE_NAMES",
    "RoundStats",
    "SessionResult",
    "SessionTracer",
    "default_checking_frame_length",
    "run_session",
    "run_session_batch",
    "BATCH_RNG_CONTRACT",
    "batch_trial_rngs",
    "RobustCollectResult",
    "robust_collect",
    "MultiReaderResult",
    "run_multireader_session",
]
