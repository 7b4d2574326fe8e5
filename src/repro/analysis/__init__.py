"""Comparison, sweep and rendering utilities over the core analytics."""
