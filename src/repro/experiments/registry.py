"""Registry mapping exhibit ids to experiment modules."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments import (
    ablation_affinity, ablation_blockops, ablation_layout,
    ablation_runqueues, figure_skew, oracle_scale, scaling,
    tr_distributions,
    figure1, figure2, figure3, figure4, figure5, figure6, figure7,
    figure8, figure9, figure10, figure11,
    table1, table2, table3, table4, table5, table6, table7, table8,
    table9, table10, table11, table12, validate_fidelity,
)
from repro.experiments._base import Exhibit, ExperimentContext

# The paper's exhibits.
PAPER_EXPERIMENTS: Dict[str, object] = {
    module.EXHIBIT_ID: module
    for module in (
        table1, figure1, figure2, figure3, table2, figure4, figure5,
        figure6, figure7, figure8, table3, table4, table5, table6,
        table7, table8, figure9, table9, figure10, table10, table11,
        table12, figure11,
    )
}

# The optimizations the paper proposes but leaves unevaluated, carried
# out as ablations.
ABLATION_EXPERIMENTS: Dict[str, object] = {
    module.EXHIBIT_ID: module
    for module in (
        ablation_layout, ablation_blockops, ablation_affinity,
        ablation_runqueues, oracle_scale, tr_distributions,
    )
}

# Self-validation exhibits: not paper content, but reproduction
# infrastructure proving its own error bounds (the fidelity tiers).
VALIDATION_EXPERIMENTS: Dict[str, object] = {
    module.EXHIBIT_ID: module for module in (validate_fidelity,)
}

# Extensions past the measured machine: sweeps over the repro.machines
# preset ladder and the server workloads' tuning knobs, probing the
# paper's scaling predictions under traffic it never saw.
EXTENSION_EXPERIMENTS: Dict[str, object] = {
    module.EXHIBIT_ID: module for module in (scaling, figure_skew)
}

EXPERIMENTS: Dict[str, object] = {
    **PAPER_EXPERIMENTS, **ABLATION_EXPERIMENTS, **VALIDATION_EXPERIMENTS,
    **EXTENSION_EXPERIMENTS,
}

# Short CLI/service spellings for exhibit ids. Resolution happens before
# any cache I/O, so an alias and its canonical id share cache entries
# and serve byte-identical payloads.
ALIASES: Dict[str, str] = {
    "scaling": scaling.EXHIBIT_ID,
    "skew": figure_skew.EXHIBIT_ID,
}


def resolve_exhibit_id(exhibit_id: str) -> str:
    """Canonical exhibit id, mapping registered aliases through."""
    return ALIASES.get(exhibit_id, exhibit_id)


def exhibit_metadata(exhibit_id: str) -> Dict[str, object]:
    """Machine-readable description of one registered exhibit.

    This is the exhibit *registry* view (title, kind, chart support) —
    static facts a service can list without building anything. Row data
    comes from :func:`run_experiment`.
    """
    module = get_experiment(exhibit_id)
    exhibit_id = resolve_exhibit_id(exhibit_id)
    if exhibit_id.startswith("table"):
        kind = "table"
    elif exhibit_id.startswith("figure"):
        kind = "figure"
    elif exhibit_id.startswith("ablation"):
        kind = "ablation"
    else:
        kind = "extra"
    doc = (module.__doc__ or "").strip().splitlines()
    return {
        "id": exhibit_id,
        "title": getattr(module, "TITLE", exhibit_id),
        "kind": kind,
        "paper": exhibit_id in PAPER_EXPERIMENTS,
        "has_chart": getattr(module, "chart", None) is not None,
        "description": doc[0] if doc else "",
    }


def list_exhibit_metadata() -> List[Dict[str, object]]:
    """Metadata for every registered exhibit, in registry order."""
    return [exhibit_metadata(exhibit_id) for exhibit_id in EXPERIMENTS]


def get_experiment(exhibit_id: str):
    try:
        return EXPERIMENTS[resolve_exhibit_id(exhibit_id)]
    except KeyError:
        raise ValueError(
            f"unknown exhibit {exhibit_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    exhibit_id: str, ctx: Optional[ExperimentContext] = None
) -> Exhibit:
    """Build one exhibit (creating a context if none is shared).

    Built exhibits are cached on the context, so charts and repeated
    requests do not repeat the expensive sweeps. When the context has a
    persistent :class:`~repro.sim.runcache.RunCache`, finished exhibit
    tables are also kept on disk — this is what lets warm
    ``repro-experiments run all`` invocations skip even the private
    simulations the ablation exhibits run outside the shared context.
    """
    if ctx is None:
        ctx = ExperimentContext()
    exhibit_id = resolve_exhibit_id(exhibit_id)
    if exhibit_id not in ctx.exhibit_cache:
        get_experiment(exhibit_id)  # reject unknown ids before cache I/O
        exhibit = ctx.load_cached_exhibit(exhibit_id)
        if exhibit is None:
            return build_experiment(exhibit_id, ctx)
        ctx.exhibit_cache[exhibit_id] = exhibit
    return ctx.exhibit_cache[exhibit_id]


def build_experiment(exhibit_id: str, ctx: ExperimentContext) -> Exhibit:
    """Build one exhibit and keep it on ``ctx`` and on disk, without
    probing the disk cache first (for callers whose probe missed)."""
    exhibit = get_experiment(exhibit_id).build(ctx)
    ctx.store_cached_exhibit(exhibit_id, exhibit)
    ctx.exhibit_cache[exhibit_id] = exhibit
    return exhibit


def render_chart(exhibit_id: str, ctx: ExperimentContext) -> Optional[str]:
    """The exhibit's ASCII figure, if its module draws one."""
    module = get_experiment(exhibit_id)
    chart = getattr(module, "chart", None)
    if chart is None:
        return None
    return chart(ctx)
