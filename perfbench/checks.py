"""Answer checks, made apart from the program.

The closed forms below are the benchmark's own transcription of the
paper's eqs. (2)-(9) — the program's code is not used to judge the
program's answers.  The one exception is the sweep-sim check, which by
design compares Monte-Carlo records against the program's exact
enumeration (``repro.core.exact``), a different algorithm from the one
that produced them.
"""

from __future__ import annotations

import math

#: Slack for float comparisons between two evaluations of one formula.
EPS = 1e-9
#: A simulated record may sit this many standard errors from the exact
#: value.  The batch-means error estimate has 19 degrees of freedom, so
#: its tails are wider than a normal's; 8 keeps false alarms below one
#: in ten million cells while a wrong model (errors of tenths) fails.
SWEEP_SIGMAS = 8.0


class WrongAnswer(AssertionError):
    """An answer the program returned is wrong."""


# ----------------------------------------------------------------------
# Eqs. (2)-(9), uniform and two-level hierarchical request models
# ----------------------------------------------------------------------


def x_uniform(n: int, m: int, r: float) -> float:
    """Eq. (2) under the uniform model: P(a module is requested)."""
    return 1.0 - (1.0 - r / m) ** n


def x_hier(n: int, r: float, clusters: int = 4,
           fractions=(0.6, 0.3, 0.1)) -> float:
    """Eq. (2) under the paper's two-level model (N x N): a processor
    sends 0.6 of its requests to its favourite module, 0.3 spread over
    the rest of its cluster and 0.1 over the other clusters."""
    k = n // clusters
    own, cluster, other = (f * r for f in fractions)
    miss = (1.0 - own) * (1.0 - cluster / (k - 1)) ** (k - 1)
    miss *= (1.0 - other / (n - k)) ** (n - k)
    return 1.0 - miss


def full(m: int, b: int, x: float) -> float:
    """Eq. (4): ``M X - sum_{i>B} (i - B) C(M, i) X^i (1 - X)^(M - i)``."""
    excess = sum(
        (i - b) * math.comb(m, i) * x ** i * (1.0 - x) ** (m - i)
        for i in range(b + 1, m + 1)
    )
    return m * x - excess


def single(m: int, b: int, x: float) -> float:
    """Eq. (6) with ``M/B`` modules on each bus."""
    return b * (1.0 - (1.0 - x) ** (m // b))


def partial(m: int, b: int, x: float, groups: int = 2) -> float:
    """Eq. (9): ``g`` independent full networks of ``M/g`` x ``B/g``."""
    return groups * full(m // groups, b // groups, x)


def crossbar(m: int, x: float) -> float:
    return m * x


_OWN_EQS = {
    "full": lambda m, b, x: full(m, b, x),
    "single": single,
    "partial": lambda m, b, x: partial(m, b, x),
    "crossbar": lambda m, b, x: crossbar(m, x),
}


def _close(a: float, b: float, tol: float = EPS) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ----------------------------------------------------------------------
# Per-response checks
# ----------------------------------------------------------------------


def _values(request, body: dict) -> dict[int, float]:
    """``{B: value}`` of one success envelope, after checking it echoes
    the question that was asked."""
    if body.get("ok") is not True:
        raise WrongAnswer(f"not a success envelope: {body}")
    result = body["result"]
    payload = request.payload
    for field in ("scheme", "N", "r"):
        if result[field] != payload[field]:
            raise WrongAnswer(
                f"{request.path} {payload}: answered {field}={result[field]}"
            )
    if request.is_sweep:
        return {int(b): float(v) for b, v in result["values"].items()}
    return {int(result["B"]): float(result["bandwidth"])}


def check_hot(request, body: dict, tolerance: float) -> None:
    """query-hot: every value matches the printed table cell."""
    values = _values(request, body)
    expect = request.expect
    if not request.is_sweep:
        expect = {request.payload["B"]: expect}
    if set(values) != set(expect):
        raise WrongAnswer(
            f"{request.payload}: answered bus counts {sorted(values)}"
        )
    for b, printed in expect.items():
        if abs(values[b] - printed) > tolerance:
            raise WrongAnswer(
                f"{request.payload} B={b}: {values[b]:.6f} vs printed "
                f"{printed} (tolerance {tolerance})"
            )


def check_cold(request, body: dict) -> None:
    """query-cold: bounds, monotonicity, the crossbar limit and eqs. 2-9."""
    payload = request.payload
    values = _values(request, body)
    scheme, n, m, r = payload["scheme"], payload["N"], payload["M"], payload["r"]
    asked = payload["B"] if request.is_sweep else [payload["B"]]
    if set(values) != set(asked):
        raise WrongAnswer(f"{payload}: answered bus counts {sorted(values)}")
    for b, value in values.items():
        ceiling = min(m, n * r) if scheme == "crossbar" else min(b, m, n * r)
        if not -EPS <= value <= ceiling + EPS:
            raise WrongAnswer(
                f"{payload} B={b}: {value} outside [0, {ceiling}]"
            )
    ordered = [values[b] for b in sorted(values)]
    if any(later < earlier - EPS for earlier, later in zip(ordered, ordered[1:])):
        raise WrongAnswer(f"{payload}: sweep decreases in B: {ordered}")
    if "classes" in payload or "tenure" in payload or scheme == "custom":
        return
    x = x_uniform(n, m, r) if payload["model"] == "unif" else x_hier(n, r)
    if scheme == "full" and m in values:
        if not _close(values[m], crossbar(m, x)):
            raise WrongAnswer(
                f"{payload}: full B=M gives {values[m]}, crossbar "
                f"{crossbar(m, x)}"
            )
    if payload["model"] == "unif" and scheme in _OWN_EQS:
        for b, value in values.items():
            own = _OWN_EQS[scheme](m, b, x)
            if not _close(value, own):
                raise WrongAnswer(
                    f"{payload} B={b}: {value} vs eqs. 2-9 {own}"
                )


def check_sweep_records(records: list, exact: dict, cycles: int) -> None:
    """sweep-sim: each record in [0, min(B, M)] and within
    ``SWEEP_SIGMAS`` standard errors of exact enumeration.

    ``exact`` maps ``(B, r, model)`` to the exact bandwidth.  The
    standard error is the record's 95 % half-width / 1.96, floored at
    one event in ``cycles`` so a cell that never saw a conflict is not
    held to zero error.
    """
    for record in records:
        b, m, value = record["B"], record["M"], record["bandwidth"]
        if not -EPS <= value <= min(b, m) + EPS:
            raise WrongAnswer(f"record {record} outside [0, {min(b, m)}]")
        reference = exact[(b, record["r"], record["model"])]
        se = max(record["ci95"] / 1.96, 1.0 / cycles)
        if abs(value - reference) > SWEEP_SIGMAS * se:
            raise WrongAnswer(
                f"record {record}: exact enumeration gives {reference:.6f}, "
                f"{abs(value - reference) / se:.1f} standard errors away"
            )
