"""``python -m repro`` — the experiments CLI.

The same entry point as the ``repro`` / ``repro-experiments`` console
scripts, for checkouts that run via ``PYTHONPATH=src`` without
installing the package::

    python -m repro run scaling --machine cpus16 --check
"""

import sys

from repro.experiments.cli import main

if __name__ == "__main__":
    sys.exit(main())
