"""Every exhibit builds and carries sane content (small settings)."""

import pytest

from repro.api import Exhibit, ExperimentContext, RunSettings
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

# One shared tiny context: every exhibit runs off the same three short
# simulations, so the whole module stays fast.
_SMALL = RunSettings(horizon_ms=12.0, warmup_ms=30.0, seed=3)

# The ablations run their own extra simulations; the cheap ones are
# exercised here, the multi-machine ones separately.
_FAST_IDS = [e for e in EXPERIMENTS if not e.startswith("ablation-")]
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


def test_exhibit_pins_cover_every_exhibit():
    """benchmarks/exhibit_pins.json pins every registered exhibit at
    each setting it is rebuilt at."""
    import json
    from pathlib import Path

    pins = Path(__file__).resolve().parent.parent / "benchmarks" / "exhibit_pins.json"
    digests = json.loads(pins.read_text())["digests"]
    assert sorted(digests) == ["cpus8", "default", "mixed"]
    for setting, by_exhibit in digests.items():
        assert sorted(by_exhibit) == sorted(EXPERIMENTS), setting


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
        ExperimentContext(RunSettings(horizon_ms=10.0, warmup_ms=25.0, seed=3)),
        cpu_counts=(2, 6),
    )
    # Runqlk contention grows with CPU count (the paper's conclusion).
    assert series["runqlk"][1] >= series["runqlk"][0]


@pytest.mark.parametrize("machine, column", [("4d340", "4cpu"), ("cpus8", "8cpu")])
def test_figure11_point_is_the_figure_scaling_run(machine, column):
    """A figure11 point whose geometry is a preset is figure-scaling's
    run of that preset: same window, same run queues, same cells."""
    from repro.analysis.lockstats import CONTENDED_LOCKS

    ctx = ExperimentContext(RunSettings(horizon_ms=2.0, warmup_ms=5.0, machine=machine))
    figure11 = run_experiment("figure11", ctx)
    scaling = run_experiment("figure-scaling", ctx)
    assert [row[0] for row in figure11.rows] == list(CONTENDED_LOCKS)
    cells = [row[figure11.columns.index(column)] for row in figure11.rows]
    preset_row = scaling.row_dict()[machine]
    assert any(cells)
    assert cells == [
        preset_row[scaling.columns.index(f"{lock}/ms")] for lock in CONTENDED_LOCKS
    ]


# The exhibits that simulate variants through ctx.private_run.
_PRIVATE_RUN_IDS = (
    "ablation-layout", "ablation-blockops", "ablation-affinity",
    "ablation-runqueues", "oracle-scale", "figure11",
)
# The tuning field each tuned variant ablates.
_ABLATED_FIELDS = {
    "ablation-blockops": {"blockop_cache_bypass", "blockop_prefetch"},
    "ablation-affinity": {"affinity_scheduling"},
    "ablation-runqueues": {"num_run_queues"},
}


@pytest.mark.slow
def test_private_runs_honour_context_settings(monkeypatch):
    """Every Simulation the private-run exhibits build carries the
    context's engine settings, not the defaults: its tier, its machine
    geometry (at the run's own CPU count for a ``cpus=`` point), and a
    tuning that differs from ``default_tuning()`` only in the ablated
    field."""
    import dataclasses

    from repro.experiments.figure11 import CPU_COUNTS
    from repro.machines import MACHINES
    from repro.sim._session import Simulation, default_tuning

    built = []
    original = Simulation.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append((self, kwargs))

    monkeypatch.setattr(Simulation, "__init__", spy)
    ctx = ExperimentContext(RunSettings(
        horizon_ms=2.0, warmup_ms=6.0, seed=3, fidelity="mixed",
        machine="cpus8",
    ))
    cpus8 = MACHINES["cpus8"].params

    def check(exhibit_id):
        assert built, exhibit_id
        for sim, kwargs in built:
            assert sim.fidelity == "mixed", exhibit_id
            assert sim.params == dataclasses.replace(
                cpus8, num_cpus=sim.params.num_cpus, network_cpu=None
            ), exhibit_id
            if "tuning" in kwargs:
                base = default_tuning(sim.workload.name, "cpus8")
                changed = {
                    field.name for field in dataclasses.fields(base)
                    if getattr(kwargs["tuning"], field.name)
                    != getattr(base, field.name)
                }
                assert len(changed) == 1, (exhibit_id, changed)
                assert changed <= _ABLATED_FIELDS[exhibit_id], exhibit_id
        return [sim.params.num_cpus for sim, kwargs in built]

    for exhibit_id in _PRIVATE_RUN_IDS:
        built.clear()
        run_experiment(exhibit_id, ctx)
        points = check(exhibit_id)
        # figure11's cpus= points span its CPU counts; every other run
        # (ablation-runqueues' cpus=8 points too) is the 8-CPU context's.
        if exhibit_id == "figure11":
            assert points == list(CPU_COUNTS)
        else:
            assert set(points) == {8}, exhibit_id


def test_private_run_keeps_only_checked_runs(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    window = dict(horizon_ms=1.0, warmup_ms=4.0, seed=3)
    plain = ExperimentContext(RunSettings(**window))
    assert plain.private_run("pmake").check_report is None
    assert plain.private_runs == []
    ctx = ExperimentContext(RunSettings(check=True, **window))
    checked = ctx.private_run("pmake")
    assert checked.check_report is not None
    assert ctx.private_runs == [(checked, None)]


def test_failed_build_keeps_only_base_runs(monkeypatch):
    """A build, failed or not, leaves the context holding the runs it
    held before plus the base runs at its settings; the failed exhibit
    is not memoized."""
    from repro.experiments import table7

    ctx = ExperimentContext(RunSettings(horizon_ms=1.0, warmup_ms=4.0, seed=3))

    def failing_build(ctx):
        ctx.report("pmake")
        ctx.report("pmake", seed=4)
        raise RuntimeError("derivation failed")

    monkeypatch.setattr(table7, "build", failing_build)
    with pytest.raises(RuntimeError, match="derivation failed"):
        ctx.exhibit("table7")
    assert set(ctx._runs) == {("pmake", ctx.settings)}
    assert ctx.exhibit_cache == {}


def test_only_base_module_builds_a_simulation():
    """Experiments simulate through ExperimentContext (ctx.run, or
    ctx.private_run for a variant no run key names), so each setting is
    applied in one place: no other module imports or calls Simulation."""
    import ast
    from pathlib import Path

    import repro.experiments

    offenders = []
    for path in sorted(Path(repro.experiments.__file__).parent.glob("*.py")):
        if path.name == "_base.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                func = node.func
                names = [getattr(func, "id", getattr(func, "attr", None))]
            else:
                continue
            if "Simulation" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_base_module_keeps_exhibits():
    """One exhibit path: in the package, only ExperimentContext
    (experiments/_base.py) reads or writes the exhibit memo
    (``exhibit_cache``), probes or stores an exhibit entry (keyed by
    ``RunCache.exhibit_key``) or calls an experiment module's
    ``build(ctx)``; the CLI, the pool, the service and the charts go
    through ``ctx.exhibit``, ``ctx.lookup_exhibit``,
    ``ctx.build_exhibit`` and ``ctx.keep_exhibit``."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name == "experiments/_base.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "exhibit_cache":
                offenders.append(f"{name}:{node.lineno} exhibit_cache")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                # A layout plan's build() takes nothing; an exhibit's
                # takes the context.
                if attr == "exhibit_key" or (
                    attr == "build" and (node.args or node.keywords)
                ):
                    offenders.append(f"{name}:{node.lineno} {attr}()")
    assert offenders == []
