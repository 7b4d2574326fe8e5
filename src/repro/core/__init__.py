"""Core analytical machinery: request models and closed-form bandwidth.

This subpackage implements the paper's primary contribution — the
hierarchical requesting model and the effective-memory-bandwidth closed
forms for every bus-memory connection scheme (eqs. 1-12).
"""
