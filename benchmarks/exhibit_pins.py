"""Check every exhibit's output and the run cache's stored bytes against
their committed digests.

    python3 benchmarks/exhibit_pins.py           # rebuild and compare
    python3 benchmarks/exhibit_pins.py --write   # re-record the pins

Run from the repository root. Builds ``run all --horizon-ms 2
--warmup-ms 5 --seed 7 --no-cache --format json`` once per setting (the
defaults, ``--machine cpus8`` and ``--fidelity mixed``) in a child
interpreter with every ``REPRO_*`` variable unset, and hashes each
exhibit's columns and rows with the e2e benchmark's ``exhibit_digest``.
A second child stores pmake, multpgm and oracle at 5 ms after 30 ms,
seed 7, into fresh run caches, detailed and mixed, and hashes the nine
files they write: three detailed ``{run, report}`` entries, three mixed
ones and three seam checkpoints. Checked runs are left out, because
lockdep stores ``file:line`` acquisition sites, which any edit to a
kernel file moves. Exits 1 naming each exhibit and setting, and each
stored entry, whose digest differs from ``exhibit_pins.json``; editing
that file is how a change says an output or a stored byte moved on
purpose. The pins were recorded on Python 3.11; other versions are not
known to give the same digests.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

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
STORED_RUNS = ("pmake", "multpgm", "oracle")
STORED_WINDOW = {"horizon_ms": 5.0, "warmup_ms": 30.0, "seed": 7}
# File-name prefix in the cache -> what the entry holds.
STORED_KINDS = {"run": "{run, report}", "ckpt": "seam checkpoint"}


def _child(argv) -> bytes:
    """stdout of a child interpreter with every ``REPRO_*`` unset."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, check=True,
        stdout=subprocess.PIPE,
    ).stdout


def build_digests(extra) -> dict:
    """Exhibit id -> digest of one ``run all`` build."""
    from benchmarks.e2e.workloads import exhibit_digest
    from repro.experiments._base import Exhibit

    out = _child(["-m", "repro.experiments", *BUILD, *extra])
    return {
        entry["exhibit_id"]: exhibit_digest(Exhibit.from_dict(entry))
        for entry in json.loads(out)
    }


def store_entries() -> dict:
    """Entry name -> sha256 and size of each file the stored runs write.

    Runs in the child: each workload and fidelity gets a fresh cache, so
    a mixed build's two files are told apart by their prefix.
    """
    from repro.sim.runcache import RunCache, load_or_run

    entries = {}
    for workload in STORED_RUNS:
        for fidelity in ("detailed", "mixed"):
            sim_kwargs = {} if fidelity == "detailed" else {"fidelity": fidelity}
            with tempfile.TemporaryDirectory() as cache_dir:
                load_or_run(RunCache(cache_dir), workload,
                            sim_kwargs=sim_kwargs, **STORED_WINDOW)
                for name in sorted(os.listdir(cache_dir)):
                    with open(os.path.join(cache_dir, name), "rb") as handle:
                        blob = handle.read()
                    kind = STORED_KINDS[name.split("-", 1)[0]]
                    entries[f"{workload} {fidelity} {kind}"] = {
                        "sha256": hashlib.sha256(blob).hexdigest(),
                        "bytes": len(blob),
                    }
    return entries


def build_stored() -> dict:
    out = _child(["-c", "import json, benchmarks.exhibit_pins as pins; "
                        "print(json.dumps(pins.store_entries()))"])
    return json.loads(out)


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
    stored = build_stored()
    if args.write:
        with open(PINS, "w") as handle:
            json.dump({"python": python, "digests": built, "stored": stored},
                      handle, indent=1)
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
    want = pins.get("stored", {})
    stored_differ = 0
    for entry in sorted(set(want) | set(stored)):
        if want.get(entry) != stored.get(entry):
            stored_differ += 1
            print(f"stored entry {entry}: pinned {_describe(want.get(entry))}, "
                  f"built {_describe(stored.get(entry))}", file=sys.stderr)
    print(f"{len(stored)} stored entries, {stored_differ} differ")
    return 1 if differ or stored_differ else 0


def _describe(entry) -> str:
    return "nothing" if entry is None else f"{entry['sha256']} ({entry['bytes']:,} B)"


if __name__ == "__main__":
    sys.exit(main())
