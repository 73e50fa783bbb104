"""End-to-end DSspy benchmark with per-layer attribution (see README.md)."""
