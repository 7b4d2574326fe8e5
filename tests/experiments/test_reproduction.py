"""Integration tests: every paper table reproduces at printed precision.

These are the acceptance tests of the whole reproduction: each paper
table's transcribed cells must match our closed forms within the
tolerance of the paper's two-decimal printing.
"""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import EXPERIMENTS, run_experiment


@pytest.mark.parametrize(
    "experiment_id",
    ["table1", "table2", "table3", "table4", "table5", "table6", "figures"],
)
def test_experiment_reproduces_paper(experiment_id):
    result = run_experiment(experiment_id)
    assert result.n_compared > 0
    assert result.all_within_tolerance(), "\n".join(
        f"{m.cell}: computed {m.computed:.4f} vs paper {m.paper:.4f}"
        for m in result.mismatches()
    )


def test_table2_compares_many_cells():
    result = run_experiment("table2")
    # Table II has 36 grid rows x 2 models minus illegible cells, plus
    # 6 crossbar cells; we must compare the large majority.
    assert result.n_compared >= 70


def test_table2_records_cover_full_grid():
    result = run_experiment("table2")
    full_records = [r for r in result.records if r["scheme"] == "full"]
    assert len(full_records) == (8 + 12 + 16) * 2


def test_rendered_tables_contain_anchor_values():
    result = run_experiment("table2")
    assert "5.97" in result.rendered  # N=8 crossbar row
    assert "11.78" in result.rendered  # N=16 crossbar row


def test_claims_all_pass():
    result = run_experiment("claims")
    failures = [r for r in result.records if not r["passed"]]
    assert not failures, failures


def test_summary_strings():
    result = run_experiment("table1")
    assert "OK" in result.summary()
    assert run_experiment("claims").summary().endswith("no paper cells")


def test_unknown_experiment_raises():
    with pytest.raises(ExperimentError, match="unknown experiment"):
        run_experiment("table99")


def test_availability_experiment_anchored_at_zero_failures():
    result = run_experiment("availability", n_cycles=300)
    assert result.summary().endswith("no paper cells")
    zero_p = [r for r in result.records if r["p"] == 0.0]
    assert {r["scheme"] for r in zero_p} == {
        "full", "partial", "single", "kclass"
    }
    # EBW(0) retains exactly the healthy bandwidth for every scheme.
    assert all(r["retained"] == pytest.approx(1.0, abs=1e-4) for r in zero_p)


def test_registry_complete():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table3", "table4", "table5", "table6",
        "figures", "claims", "validation", "ablation", "nxm",
        "resubmission", "approximation", "availability", "arbitration",
        "structures",
    }


def test_arbitration_experiment_covers_all_schemes_and_disciplines():
    result = run_experiment("arbitration", n_cycles=400)
    assert result.summary().endswith("no paper cells")
    assert {r["scheme"] for r in result.records} == {
        "full", "partial", "single", "kclass", "crossbar"
    }
    assert {r["discipline"] for r in result.records} == {
        "rr", "strict", "wrr", "proc"
    }
    # Two classes per (scheme, discipline) row group, every metric finite.
    assert len(result.records) == 5 * 4 * 2
    for record in result.records:
        assert record["sim"] >= 0.0
        assert record["analytic"] >= 0.0
        assert 0.0 <= record["acceptance"] <= 1.0
    # Within each scheme, strict priority weakly favors class 0 over the
    # class-blind round-robin analytic split.
    for scheme in ("full", "crossbar"):
        by = {
            (r["discipline"], r["class"]): r["analytic"]
            for r in result.records
            if r["scheme"] == scheme
        }
        assert by[("strict", 0)] >= by[("rr", 0)] - 1e-9
