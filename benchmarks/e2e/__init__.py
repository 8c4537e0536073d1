"""End-to-end and per-layer benchmark of the reproduction (see README.md)."""
