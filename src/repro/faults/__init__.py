"""Static bus fault injection, degraded-mode analysis and availability."""

from repro.faults.analysis import (
    DegradationPoint,
    analytic_degraded_bandwidth,
    degradation_curve,
    simulated_degraded_bandwidth,
    verify_fault_tolerance_degree,
)
from repro.faults.availability import (
    AvailabilityPoint,
    availability_curve,
    conditional_degraded_bandwidth,
    expected_bandwidth_under_failures,
    scheme_availability_curves,
)
from repro.faults.injection import DegradedNetwork, fail_buses

__all__ = [
    "DegradedNetwork",
    "fail_buses",
    "verify_fault_tolerance_degree",
    "analytic_degraded_bandwidth",
    "simulated_degraded_bandwidth",
    "DegradationPoint",
    "degradation_curve",
    "AvailabilityPoint",
    "conditional_degraded_bandwidth",
    "expected_bandwidth_under_failures",
    "availability_curve",
    "scheme_availability_curves",
]
