"""Operational scripts (an importable package)."""
