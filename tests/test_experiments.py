"""Every exhibit builds and carries sane content (small settings)."""

import pytest

from repro import api
from repro.api import Exhibit, ExperimentContext, RunSettings
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

# One shared tiny context: every exhibit runs off the same three short
# simulations, so the whole module stays fast.
_SMALL = RunSettings(horizon_ms=12.0, warmup_ms=30.0, seed=3)

# figure11 and the ablations run their own extra simulations; the
# cheap ones are exercised here, the multi-machine ones separately.
_FAST_IDS = [
    e for e in EXPERIMENTS
    if e != "figure11" and not e.startswith("ablation-")
]
_ABLATION_IDS = [e for e in EXPERIMENTS if e.startswith("ablation-")]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(_SMALL)


class TestRegistry:
    def test_all_paper_exhibits_present(self):
        from repro.experiments.registry import PAPER_EXPERIMENTS

        expected = {f"table{i}" for i in range(1, 13)} | {
            f"figure{i}" for i in range(1, 12)
        }
        assert set(PAPER_EXPERIMENTS) == expected

    def test_ablations_registered(self):
        from repro.experiments.registry import ABLATION_EXPERIMENTS

        assert set(ABLATION_EXPERIMENTS) == {
            "ablation-layout", "ablation-blockops", "ablation-affinity",
            "ablation-runqueues", "oracle-scale", "tr-distributions",
        }

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(ValueError):
            get_experiment("table99")


@pytest.mark.parametrize("exhibit_id", _FAST_IDS)
def test_exhibit_builds_and_renders(ctx, exhibit_id):
    exhibit = run_experiment(exhibit_id, ctx)
    assert isinstance(exhibit, Exhibit)
    assert exhibit.rows, exhibit_id
    text = exhibit.to_text()
    assert exhibit_id in text
    # Every row matches the declared column count.
    for row in exhibit.rows:
        assert len(row) == len(exhibit.columns)


class TestExhibitContent:
    def test_table1_has_paper_and_measured(self, ctx):
        exhibit = run_experiment("table1", ctx)
        sources = [row[1] for row in exhibit.rows]
        assert sources.count("paper") == 3
        assert sources.count("measured") == 3

    def test_table3_sizes_match_paper(self, ctx):
        exhibit = run_experiment("table3", ctx)
        for row in exhibit.rows:
            assert row[1] == row[2], f"size mismatch for {row[0]}"

    def test_table2_all_classes_observed(self, ctx):
        exhibit = run_experiment("table2", ctx)
        observed = {row[0]: row[2] for row in exhibit.rows}
        for cls in ("cold", "dispos", "uncached"):
            assert observed[cls] == "yes"

    def test_figure4_shares_sum_bounded(self, ctx):
        exhibit = run_experiment("figure4", ctx)
        for row in exhibit.rows:
            assert 0 <= row[5] <= 100.0  # I-total as % of all OS misses

    def test_figure6_base_relative_is_one(self, ctx):
        exhibit = run_experiment("figure6", ctx)
        for row in exhibit.rows:
            if row[1] == 64 and row[2] == 1:
                assert row[3] == pytest.approx(1.0)

    def test_table9_components_bounded_by_total(self, ctx):
        exhibit = run_experiment("table9", ctx)
        for row in exhibit.rows:
            if row[1] != "measured":
                continue
            total, instr, migration, blockops, rest = row[2:]
            assert instr + migration + blockops + rest == pytest.approx(
                total, rel=0.05
            )

    def test_table10_cached_below_uncached(self, ctx):
        exhibit = run_experiment("table10", ctx)
        for row in exhibit.rows:
            if row[1] == "measured":
                assert row[3] < row[2]

    def test_figure10_shares_bounded(self, ctx):
        exhibit = run_experiment("figure10", ctx)
        for row in exhibit.rows:
            assert 0.0 <= row[3] <= 100.0

    def test_cli_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure11" in out


@pytest.mark.slow
@pytest.mark.parametrize("exhibit_id", _ABLATION_IDS)
def test_ablation_builds(ctx, exhibit_id):
    exhibit = run_experiment(exhibit_id, ctx)
    assert exhibit.rows
    assert exhibit.to_text()


@pytest.mark.slow
def test_layout_ablation_reduces_dispos(ctx):
    exhibit = run_experiment("ablation-layout", ctx)
    rows = exhibit.row_dict()
    default_dispos = rows["OS I-misses (Dispos)"][1]
    optimized_dispos = rows["OS I-misses (Dispos)"][2]
    assert optimized_dispos <= default_dispos


@pytest.mark.slow
def test_figure11_contention_grows():
    from repro.experiments.figure11 import contention_series

    series = contention_series(
        seed=3, cpu_counts=(2, 6), horizon_ms=10.0, warmup_ms=25.0
    )
    # Runqlk contention grows with CPU count (the paper's conclusion).
    assert series["runqlk"][1] >= series["runqlk"][0]


# The exhibits that build their own Simulation instead of calling ctx.run.
_PRIVATE_RUN_IDS = (
    "ablation-layout", "ablation-blockops", "ablation-affinity",
    "ablation-runqueues", "oracle-scale",
)


@pytest.mark.slow
def test_private_runs_honour_context_settings(monkeypatch):
    """Every Simulation the private-run exhibits build carries the
    context's engine settings, not the defaults."""
    from repro.experiments.figure11 import contention_series
    from repro.sim._session import Simulation

    tiers = []
    original = Simulation.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        tiers.append(self.fidelity)

    monkeypatch.setattr(Simulation, "__init__", spy)
    ctx = ExperimentContext(
        RunSettings(horizon_ms=2.0, warmup_ms=6.0, seed=3, fidelity="mixed")
    )
    for exhibit_id in _PRIVATE_RUN_IDS:
        tiers.clear()
        run_experiment(exhibit_id, ctx)
        assert tiers and set(tiers) == {"mixed"}, exhibit_id
    # figure11's exhibit window is fixed at 40/250 ms; drive its sweep
    # directly at a short one.
    tiers.clear()
    contention_series(
        seed=3, cpu_counts=(2,), horizon_ms=2.0, warmup_ms=6.0, ctx=ctx
    )
    assert tiers == ["mixed"]


def test_note_private_run_keeps_only_checked_runs(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    window = dict(horizon_ms=1.0, warmup_ms=4.0, seed=3)
    ctx = ExperimentContext(RunSettings(**window))
    plain = api.run("pmake", **window)
    checked = api.run("pmake", check=True, **window)
    assert ctx.note_private_run(plain) is plain
    assert ctx.note_private_run(checked) is checked
    assert ctx.all_runs() == [checked]
