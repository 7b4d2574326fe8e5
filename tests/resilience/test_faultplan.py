"""The chaos-injection DSL: validation, pure firing decisions, replay.

The acceptance property: whether a rule fires is a pure function of
``(site, plan seed, nth call at that site)``, so installing the same
plan twice and replaying the same call sequence yields byte-identical
injection logs.
"""

import json

import pytest

from repro.exceptions import ChaosError, ConfigurationError
from repro.obs.manifest import build_manifest
from repro.obs.metrics import telemetry
from repro.resilience import chaos
from repro.resilience.chaos import FaultPlan, FaultRule, chaos_plan


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    chaos.uninstall_plan()


class TestRuleValidation:
    def test_unknown_site_and_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos site"):
            FaultRule(site="nope", kind="delay", every=1, delay_ms=1)
        with pytest.raises(ConfigurationError, match="unknown chaos site"):
            FaultRule(
                site="surfaces.refresh", kind="delay", every=1, delay_ms=1
            )
        with pytest.raises(ConfigurationError, match="unknown chaos kind"):
            FaultRule(site="service.engine", kind="nope", every=1)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            FaultRule(site="service.engine", kind="error")
        with pytest.raises(ConfigurationError, match="exactly one"):
            FaultRule(
                site="service.engine", kind="error", every=2, calls=(1,)
            )

    def test_delay_rule_needs_positive_delay(self):
        with pytest.raises(ConfigurationError, match="delay_ms"):
            FaultRule(site="service.engine", kind="delay", every=1)

    def test_calls_must_be_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            FaultRule(site="service.engine", kind="error", calls=(0,))

    def test_plan_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown chaos plan"):
            FaultPlan.from_dict({"sede": 1})
        with pytest.raises(ConfigurationError, match="unknown keys"):
            FaultPlan.from_dict(
                {"rules": [{"site": "service.engine", "kind": "error",
                            "every": 1, "color": "red"}]}
            )

    def test_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 7,
            "rules": [
                {"site": "fabric.dispatch", "kind": "kill_worker",
                 "calls": [2]},
            ],
        }))
        plan = FaultPlan.from_file(path)
        assert plan.seed == 7
        assert plan.rules[0].calls == (2,)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.from_file(bad)


class TestFiringDecisions:
    def test_calls_trigger_is_exact(self):
        rule = FaultRule(site="service.engine", kind="error", calls=(2, 5))
        fired = [n for n in range(1, 8) if rule.fires(0, n)]
        assert fired == [2, 5]

    def test_every_trigger_is_modular(self):
        rule = FaultRule(site="service.engine", kind="error", every=3)
        fired = [n for n in range(1, 10) if rule.fires(0, n)]
        assert fired == [3, 6, 9]

    def test_probability_trigger_is_seed_deterministic(self):
        rule = FaultRule(
            site="service.engine", kind="error", probability=0.3
        )
        draws_a = [rule.fires(42, n) for n in range(1, 200)]
        draws_b = [rule.fires(42, n) for n in range(1, 200)]
        draws_c = [rule.fires(43, n) for n in range(1, 200)]
        assert draws_a == draws_b
        assert draws_a != draws_c
        # The hashed draw really lands near the requested probability.
        assert 0.15 < sum(draws_a) / len(draws_a) < 0.45


class TestInjection:
    def test_no_plan_is_a_no_op(self):
        assert chaos.inject("service.engine") is None
        assert chaos.active_plan() is None
        assert chaos.active_injections() == []

    def test_error_rule_raises_chaos_error(self):
        plan = FaultPlan(rules=(
            FaultRule(site="service.engine", kind="error", calls=(2,),
                      message="injected"),
        ))
        with chaos_plan(plan):
            assert chaos.inject("service.engine") is None  # call 1
            with pytest.raises(ChaosError, match="injected"):
                chaos.inject("service.engine")  # call 2

    def test_site_interpreted_kinds_returned_as_strings(self):
        plan = FaultPlan(rules=(
            FaultRule(site="fabric.wire.encode", kind="corrupt_frame",
                      every=2),
        ))
        with chaos_plan(plan):
            assert chaos.inject("fabric.wire.encode") is None
            assert chaos.inject("fabric.wire.encode") == "corrupt_frame"

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(rules=(
            FaultRule(site="service.engine", kind="corrupt_frame", every=1),
            FaultRule(site="service.engine", kind="error", every=1),
        ))
        with chaos_plan(plan):
            assert chaos.inject("service.engine") == "corrupt_frame"

    def test_max_fires_caps_a_rule(self):
        plan = FaultPlan(rules=(
            FaultRule(site="service.engine", kind="corrupt_frame",
                      every=1, max_fires=2),
        ))
        with chaos_plan(plan):
            kinds = [chaos.inject("service.engine") for _ in range(4)]
        assert kinds == ["corrupt_frame", "corrupt_frame", None, None]

    def test_sites_count_independently(self):
        plan = FaultPlan(rules=(
            FaultRule(site="service.engine", kind="corrupt_frame",
                      calls=(2,)),
        ))
        with chaos_plan(plan):
            chaos.inject("service.http")  # does not advance engine count
            assert chaos.inject("service.engine") is None
            assert chaos.inject("service.engine") == "corrupt_frame"

    def test_async_injection_raises_too(self):
        import asyncio

        plan = FaultPlan(rules=(
            FaultRule(site="service.http", kind="error", calls=(1,)),
        ))

        async def scenario():
            with chaos_plan(plan):
                with pytest.raises(ChaosError):
                    await chaos.ainject("service.http")

        asyncio.run(scenario())


class TestReplay:
    def test_same_plan_replays_byte_identical_injections(self):
        plan = FaultPlan(seed=9, rules=(
            FaultRule(site="service.engine", kind="corrupt_frame",
                      probability=0.4),
            FaultRule(site="fabric.dispatch", kind="kill_worker",
                      probability=0.2),
        ))
        logs = []
        for _ in range(2):
            with chaos_plan(plan):
                for _ in range(50):
                    chaos.inject("service.engine")
                    chaos.inject("fabric.dispatch")
                logs.append(chaos.active_injections())
        assert logs[0] == logs[1]
        assert logs[0], "the probability rules must fire at least once"

    def test_injections_land_in_metrics_and_manifest(self):
        plan = FaultPlan(rules=(
            FaultRule(site="service.engine", kind="corrupt_frame",
                      calls=(1,)),
        ))
        with telemetry() as registry:
            with chaos_plan(plan):
                chaos.inject("service.engine")
        manifest = build_manifest(registry)["chaos"]
        assert manifest["by_site"] == {"service.engine": 1}
        assert manifest["by_kind"] == {"corrupt_frame": 1}
        assert manifest["injections"] == [
            {"site": "service.engine", "kind": "corrupt_frame", "call": 1}
        ]
