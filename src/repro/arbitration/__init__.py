"""Two-stage arbitration substrate (Section II-A).

Stage one: per-module random N-user/1-server arbiters.  Stage two: a
scheme-specific bus assignment policy.
:func:`~repro.arbitration.bus_arbiter.assignment_for` builds the
stage-two policy matching a topology, which is how the simulator stays
faithful to the paper's arbitration for every connection scheme.
"""
