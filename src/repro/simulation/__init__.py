"""Cycle-level Monte-Carlo simulation of multiple bus multiprocessors."""
