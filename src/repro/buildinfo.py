"""Single source of truth for "what build is this?".

Mixed fleets are diagnosable only if every surface — ``dsspy
--version``, STATS, checkpoints — reports the *same* blob: package
version, wire-protocol version range and on-disk format versions.
Keep additions here (not scattered per-command) so the compat-matrix
job and the runbook have one schema to read.
"""

from __future__ import annotations

from typing import Any


def build_info() -> dict[str, Any]:
    """Version/format identity of this build, JSON-ready."""
    from . import __version__
    from .service.durability import CHECKPOINT_VERSION, JOURNAL_VERSION
    from .service.protocol import PROTOCOL_MIN_SUPPORTED, PROTOCOL_VERSION

    return {
        "package": __version__,
        "proto": PROTOCOL_VERSION,
        "proto_min": PROTOCOL_MIN_SUPPORTED,
        "journal_format": JOURNAL_VERSION,
        "checkpoint_format": CHECKPOINT_VERSION,
        # Read by no line of this build.  The previous main commit's
        # ``dsspy sessions`` indexes build['kernel'] in a newer daemon's
        # STATS, so the key goes in the first change whose previous
        # commit no longer reads it (docs/operations.md, compat window).
        "kernel": "python",
    }


def format_build_info(info: dict[str, Any] | None = None) -> str:
    """One-line human rendering (``dsspy --version``)."""
    info = info if info is not None else build_info()
    return (
        f"dsspy {info['package']} "
        f"(proto {info['proto_min']}-{info['proto']}, "
        f"journal v{info['journal_format']}, "
        f"checkpoint v{info['checkpoint_format']})"
    )


__all__ = ["build_info", "format_build_info"]
