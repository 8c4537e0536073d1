"""Check every exhibit's output against its committed digest.

    python3 benchmarks/exhibit_pins.py           # rebuild and compare
    python3 benchmarks/exhibit_pins.py --write   # re-record the pins

Run from the repository root. Builds ``run all --horizon-ms 2
--warmup-ms 5 --seed 7 --no-cache --format json`` once per setting (the
defaults, ``--machine cpus8`` and ``--fidelity mixed``) in a child
interpreter with every ``REPRO_*`` variable unset, and hashes each
exhibit's columns and rows with the e2e benchmark's ``exhibit_digest``.
Exits 1 naming each exhibit and setting whose digest differs from
``exhibit_pins.json``; editing that file is how a change says an
exhibit's output moved on purpose. The pins were recorded on Python
3.11; other versions are not known to give the same digests.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "benchmarks", "exhibit_pins.json")
BUILD = (
    "run", "all", "--horizon-ms", "2", "--warmup-ms", "5", "--seed", "7",
    "--no-cache", "--jobs", "1", "--format", "json",
)
SETTINGS = {
    "default": (),
    "cpus8": ("--machine", "cpus8"),
    "mixed": ("--fidelity", "mixed"),
}


def build_digests(extra) -> dict:
    """Exhibit id -> digest of one ``run all`` build."""
    from benchmarks.e2e.workloads import exhibit_digest
    from repro.experiments._base import Exhibit

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *BUILD, *extra],
        cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
    ).stdout
    return {
        entry["exhibit_id"]: exhibit_digest(Exhibit.from_dict(entry))
        for entry in json.loads(out)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/exhibit_pins.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--write", action="store_true",
                        help=f"re-record {os.path.relpath(PINS, ROOT)}")
    args = parser.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    python = ".".join(platform.python_version_tuple()[:2])
    built = {name: build_digests(extra) for name, extra in SETTINGS.items()}
    if args.write:
        with open(PINS, "w") as handle:
            json.dump({"python": python, "digests": built}, handle, indent=1)
            handle.write("\n")
        return 0
    with open(PINS) as handle:
        pins = json.load(handle)
    if pins["python"] != python:
        print(f"note: pins recorded on Python {pins['python']}, "
              f"checking on {python}", file=sys.stderr)
    differ = 0
    for setting in SETTINGS:
        want, got = pins["digests"].get(setting, {}), built[setting]
        for exhibit in sorted(set(want) | set(got)):
            if want.get(exhibit) != got.get(exhibit):
                differ += 1
                print(f"exhibit {exhibit} at {setting}: pinned "
                      f"{want.get(exhibit)}, built {got.get(exhibit)}",
                      file=sys.stderr)
    total = sum(map(len, built.values()))
    print(f"{total} exhibit digests at {len(SETTINGS)} settings, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
