"""One module per paper exhibit (table/figure), plus a registry and CLI.

Each experiment builds its exhibit from fresh (or context-cached)
simulations and returns an :class:`~repro.experiments._base.Exhibit`
holding measured rows next to the paper's reported values.

Run them all::

    python -m repro.experiments run all

or a single one::

    python -m repro.experiments run table1
"""

from repro.experiments._base import Exhibit, ExperimentContext, RunSettings

__all__ = [
    "Exhibit",
    "ExperimentContext",
    "RunSettings",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
]


def __getattr__(name: str):
    # The registry imports every experiment module: load it on first
    # use, so that importing the package (every run-cache load imports
    # RunSettings from it) imports no experiment.
    if name in ("EXPERIMENTS", "get_experiment", "run_experiment"):
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
