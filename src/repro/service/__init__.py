"""Client/server profiling service.

The paper's DSspy streams access events from the instrumented program
to a separate analysis process over an asynchronous channel; this
package is that separation for the reproduction.  A long-running
:class:`ProfilingDaemon` accepts length-prefixed binary event streams
from many concurrent clients, keeps one :class:`Session` per client,
and analyzes incrementally with :class:`StreamingUseCaseEngine` — a
windowed fold that converges to the exact batch
:class:`~repro.usecases.UseCaseEngine` report.

Producer side, :class:`RemoteChannel` drops into the existing
collector/channel seam: same hot path as
:class:`~repro.events.batching.BatchingChannel`, network I/O on the
drainer thread, transparent reconnect-and-retransmit on failure.
"""

from .client import (
    BackoffPolicy,
    RemoteChannel,
    ServiceClient,
    fetch_snapshot,
    fetch_stats,
    parse_address,
)
from .daemon import ProfilingDaemon
from .durability import (
    FutureFormatError,
    RecoveredSession,
    SessionJournal,
    SessionScan,
    engine_from_dict,
    engine_to_dict,
    merge_engine_dicts,
    merge_engines,
    recover_session,
    recover_session_dir,
    scan_session_dir,
    walk_state_dir,
)
from .governor import (
    RESOURCE_ERRNOS,
    AdmissionStage,
    RateMeter,
    RealFS,
    ResourceGovernor,
    ResourcePressure,
    is_resource_error,
)
from .fleet import (
    FleetCoordinator,
    FleetSupervisor,
    ResultCache,
    fleet_run,
    rebalance_state_dir,
)
from .migrate import (
    DowngradeError,
    STATE_VERSION,
    migrate_session_dir,
    migrate_state_dir,
)
from .protocol import (
    MAX_EVENTS_PER_FRAME,
    MAX_FRAME_BYTES,
    PROTOCOL_FEATURES,
    PROTOCOL_MIN_SUPPORTED,
    PROTOCOL_VERSION,
    FrameDecoder,
    MessageType,
    ProtocolError,
    RetryAfterError,
    decode_events,
    decode_json,
    encode_events,
    encode_frame,
    encode_json,
    negotiate_version,
    parse_version_offer,
    recv_frame,
    version_offer,
)
from .router import SessionRouter, shard_for
from .session import Session, SessionState
from .streaming import StreamingUseCaseEngine

__all__ = [
    "AdmissionStage",
    "BackoffPolicy",
    "DowngradeError",
    "FleetCoordinator",
    "FleetSupervisor",
    "FrameDecoder",
    "FutureFormatError",
    "MAX_EVENTS_PER_FRAME",
    "MAX_FRAME_BYTES",
    "MessageType",
    "PROTOCOL_FEATURES",
    "PROTOCOL_MIN_SUPPORTED",
    "PROTOCOL_VERSION",
    "STATE_VERSION",
    "ProfilingDaemon",
    "ProtocolError",
    "RESOURCE_ERRNOS",
    "RateMeter",
    "RealFS",
    "RecoveredSession",
    "RemoteChannel",
    "ResourceGovernor",
    "ResourcePressure",
    "ResultCache",
    "RetryAfterError",
    "ServiceClient",
    "Session",
    "SessionJournal",
    "SessionRouter",
    "SessionScan",
    "SessionState",
    "StreamingUseCaseEngine",
    "decode_events",
    "decode_json",
    "encode_events",
    "encode_frame",
    "encode_json",
    "engine_from_dict",
    "engine_to_dict",
    "fetch_snapshot",
    "fetch_stats",
    "fleet_run",
    "is_resource_error",
    "migrate_session_dir",
    "migrate_state_dir",
    "negotiate_version",
    "parse_address",
    "parse_version_offer",
    "merge_engine_dicts",
    "merge_engines",
    "rebalance_state_dir",
    "recover_session",
    "recover_session_dir",
    "recv_frame",
    "scan_session_dir",
    "shard_for",
    "version_offer",
    "walk_state_dir",
]
