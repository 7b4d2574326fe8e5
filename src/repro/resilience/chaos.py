"""Deterministic, seeded fault injection for hardening the stack.

A :class:`FaultPlan` is a declarative list of :class:`FaultRule`\\ s —
"on the 2nd dispatch to site ``fabric.dispatch``, kill the worker";
"corrupt every 5th frame written at ``fabric.wire.encode``"; "delay
``service.engine`` calls by 20ms with probability 0.1".  Whether a rule
fires is a *pure function* of ``(site, plan seed, nth call at that
site)`` — the same sha256-hash construction as
:class:`repro.resilience.RetryPolicy` jitter — so a chaos run replays
byte-identically: same injection sequence, same breaker transitions,
same final results.

Injection sites are pre-registered call-outs in production code::

    chaos.inject("fabric.dispatch", worker=node)   # sync paths
    await chaos.ainject("service.engine")          # asyncio paths

With no plan installed both are a module-global ``None`` check and an
immediate return — zero overhead, guarded by the service benchmark.
With a plan installed, ``delay`` rules sleep and ``error`` rules raise
:class:`~repro.exceptions.ChaosError` inside ``inject`` itself;
site-interpreted kinds (``corrupt_frame``, ``kill_worker``) are
returned as the kind string for the site to enact, because only the
site knows how (flip bytes in the encoded frame, SIGKILL the child
process).

Plans load from JSON files (``repro-serve --chaos-plan FILE``,
``repro-fabric --chaos-plan FILE``)::

    {"seed": 42,
     "rules": [
       {"site": "fabric.dispatch", "kind": "kill_worker", "calls": [2]},
       {"site": "service.engine", "kind": "delay", "delay_ms": 20,
        "every": 3},
       {"site": "fabric.wire.encode", "kind": "corrupt_frame",
        "probability": 0.2}]}

Every firing is counted as ``chaos.injected{site=, kind=}`` and logged
as a seq-numbered, timestamp-free ``chaos.injection`` event, so the
injection sequence itself is part of the diffable run manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.exceptions import ChaosError, ConfigurationError
from repro.obs.metrics import get_registry

__all__ = [
    "FaultRule",
    "FaultPlan",
    "install_plan",
    "uninstall_plan",
    "active_plan",
    "chaos_plan",
    "inject",
    "ainject",
    "KINDS",
    "SITES",
]

#: Injection kinds understood by the harness.  ``delay`` and ``error``
#: are enacted inside :func:`inject`; the rest are returned to the site.
KINDS = frozenset({"delay", "error", "corrupt_frame", "kill_worker"})

#: Registered injection sites (documentation + plan validation).
SITES = frozenset(
    {
        "service.engine",
        "service.http",
        "service.batch",
        "fabric.dispatch",
        "fabric.wire.encode",
    }
)


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One deterministic injection rule.

    Exactly one trigger must be given:

    * ``calls`` — explicit 1-based call indices at the site;
    * ``every`` — fire on every ``every``-th call;
    * ``probability`` — fire when the hash of ``(seed, site, n)`` lands
      below the threshold (deterministic per plan seed).

    ``max_fires`` optionally caps the total number of firings.
    """

    site: str
    kind: str
    calls: tuple[int, ...] = ()
    every: int = 0
    probability: float = 0.0
    delay_ms: float = 0.0
    message: str = ""
    max_fires: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown chaos site {self.site!r}; registered sites: "
                f"{sorted(SITES)}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown chaos kind {self.kind!r}; known kinds: "
                f"{sorted(KINDS)}"
            )
        triggers = sum(
            (bool(self.calls), self.every > 0, self.probability > 0)
        )
        if triggers != 1:
            raise ConfigurationError(
                f"rule at site {self.site!r} must set exactly one of "
                f"calls/every/probability, got {triggers}"
            )
        if any(n < 1 for n in self.calls):
            raise ConfigurationError(
                f"calls must be 1-based positive indices, got {self.calls}"
            )
        if self.every < 0:
            raise ConfigurationError(
                f"every must be >= 0, got {self.every}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.kind == "delay" and self.delay_ms <= 0:
            raise ConfigurationError(
                f"delay rule at {self.site!r} needs delay_ms > 0, got "
                f"{self.delay_ms}"
            )
        if self.delay_ms < 0:
            raise ConfigurationError(
                f"delay_ms must be >= 0, got {self.delay_ms}"
            )
        if self.max_fires < 0:
            raise ConfigurationError(
                f"max_fires must be >= 0, got {self.max_fires}"
            )

    def fires(self, seed: int, call_index: int) -> bool:
        """Pure decision: does this rule fire on ``call_index`` (1-based)?"""
        if self.calls:
            return call_index in self.calls
        if self.every:
            return call_index % self.every == 0
        digest = hashlib.sha256(
            f"{seed}:{self.site}:{call_index}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return unit < self.probability


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, validated set of :class:`FaultRule`\\ s."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(
                f"plan seed must be an integer, got {self.seed!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from parsed JSON, with typed validation errors."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"chaos plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "rules"}
        if unknown:
            raise ConfigurationError(
                f"unknown chaos plan keys: {sorted(unknown)}"
            )
        raw_rules = data.get("rules", [])
        if not isinstance(raw_rules, list):
            raise ConfigurationError("chaos plan 'rules' must be a list")
        rule_fields = {f.name for f in dataclasses.fields(FaultRule)}
        rules = []
        for i, raw in enumerate(raw_rules):
            if not isinstance(raw, dict):
                raise ConfigurationError(
                    f"chaos rule #{i} must be an object"
                )
            extra = set(raw) - rule_fields
            if extra:
                raise ConfigurationError(
                    f"chaos rule #{i} has unknown keys: {sorted(extra)}"
                )
            kwargs = dict(raw)
            if "calls" in kwargs:
                kwargs["calls"] = tuple(kwargs["calls"])
            rules.append(FaultRule(**kwargs))
        return cls(seed=data.get("seed", 0), rules=tuple(rules))

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        """Load and validate a JSON plan file."""
        text = Path(path).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"chaos plan {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)


class _ChaosController:
    """Active plan plus per-site call counters (thread-safe)."""

    __slots__ = ("plan", "_lock", "_counts", "_fired", "_log")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._log: list[dict[str, object]] = []

    def visit(self, site: str) -> tuple[FaultRule | None, int]:
        """Count one call at ``site``; return the firing rule, if any.

        At most one rule fires per call: the first matching rule in plan
        order wins, keeping the injection sequence a pure function of
        the plan.
        """
        with self._lock:
            n = self._counts.get(site, 0) + 1
            self._counts[site] = n
            for index, rule in enumerate(self.plan.rules):
                if rule.site != site:
                    continue
                if rule.max_fires and self._fired.get(index, 0) >= rule.max_fires:
                    continue
                if rule.fires(self.plan.seed, n):
                    self._fired[index] = self._fired.get(index, 0) + 1
                    entry = {"site": site, "kind": rule.kind, "call": n}
                    self._log.append(entry)
                    return rule, n
            return None, n

    def injections(self) -> list[dict[str, object]]:
        """Ordered record of every firing (for the manifest)."""
        with self._lock:
            return [dict(entry) for entry in self._log]


_active: _ChaosController | None = None


def install_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` process-wide (replacing any previous plan)."""
    global _active
    _active = _ChaosController(plan)


def uninstall_plan() -> None:
    """Deactivate chaos injection (restores the zero-overhead path)."""
    global _active
    _active = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or ``None``."""
    controller = _active
    return controller.plan if controller is not None else None


def active_injections() -> list[dict[str, object]]:
    """Ordered injections of the active plan (empty when disabled)."""
    controller = _active
    return controller.injections() if controller is not None else []


@contextmanager
def chaos_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for a ``with`` block, restoring the prior state."""
    global _active
    previous = _active
    install_plan(plan)
    try:
        yield plan
    finally:
        _active = previous


def _enact(
    rule: FaultRule, site: str, call_index: int, slept: bool
) -> str | None:
    registry = get_registry()
    registry.increment("chaos.injected", site=site, kind=rule.kind)
    # The event field is ``fault`` (not ``kind``): ``kind`` is the event
    # *name* slot in the registry's record_event signature.
    registry.record_event(
        "chaos.injection", site=site, fault=rule.kind, call=call_index
    )
    if rule.kind == "delay":
        if not slept:
            time.sleep(rule.delay_ms / 1000.0)
        return "delay"
    if rule.kind == "error":
        raise ChaosError(
            rule.message
            or f"chaos-injected error at {site} (call #{call_index})"
        )
    return rule.kind


def inject(site: str) -> str | None:
    """Synchronous injection call-out at ``site``.

    Returns ``None`` (no rule fired), ``"delay"`` (already slept), or a
    site-interpreted kind string; raises
    :class:`~repro.exceptions.ChaosError` for ``error`` rules.  With no
    plan installed this is one global load and a compare.
    """
    controller = _active
    if controller is None:
        return None
    rule, n = controller.visit(site)
    if rule is None:
        return None
    return _enact(rule, site, n, slept=False)


async def ainject(site: str) -> str | None:
    """Asyncio variant of :func:`inject`: delays use ``asyncio.sleep``
    so an injected stall never blocks the event loop."""
    controller = _active
    if controller is None:
        return None
    rule, n = controller.visit(site)
    if rule is None:
        return None
    if rule.kind == "delay":
        import asyncio

        await asyncio.sleep(rule.delay_ms / 1000.0)
        return _enact(rule, site, n, slept=True)
    return _enact(rule, site, n, slept=False)
