"""The perf-trajectory gate (``benchmarks/compare.py``): host normalization."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

MEDIANS = {f"test_bench_{i}": 0.1 * (i + 1) for i in range(5)}


def _write(path: Path, medians, python=None) -> str:
    payload = {"benchmarks": [
        {"name": name, "stats": {"median": value}}
        for name, value in medians.items()
    ]}
    if python is not None:
        payload["machine_info"] = {"python_version": python}
    path.write_text(json.dumps(payload))
    return str(path)


def _gate(tmp_path, base, cand, *args):
    return compare.main([
        _write(tmp_path / "base.json", base),
        _write(tmp_path / "cand.json", cand),
        *args,
    ])


class TestHostNormalization:
    def test_two_large_gains_flag_nothing(self, tmp_path, capsys):
        """Two entries 2x faster, the rest unchanged: under a mean-based
        normalizer the unchanged ones would look slower."""
        cand = dict(MEDIANS)
        cand["test_bench_0"] /= 2
        cand["test_bench_1"] /= 2
        assert _gate(tmp_path, MEDIANS, cand) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" not in out
        assert out.count("improved") == 2

    def test_uniform_host_factor_cancels(self, tmp_path, capsys):
        slower_host = {name: value * 1.8 for name, value in MEDIANS.items()}
        assert _gate(tmp_path, MEDIANS, slower_host) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_one_entry_regressing_fails(self, tmp_path, capsys):
        cand = {name: value * 1.8 for name, value in MEDIANS.items()}
        cand["test_bench_3"] *= 1.5
        assert _gate(tmp_path, MEDIANS, cand) == 1
        out = capsys.readouterr().out
        assert out.count("REGRESSION") == 1
        assert "test_bench_3" in out.split("REGRESSION")[0].splitlines()[-1]

    @pytest.mark.parametrize("absolute", [False, True])
    def test_ratios(self, absolute):
        base = {"a": 1.0, "b": 2.0, "c": 4.0}
        cand = {"a": 2.0, "b": 4.0, "c": 16.0}
        got = compare.ratios(base, cand, sorted(base), absolute=absolute)
        assert got == ({"a": 2.0, "b": 2.0, "c": 4.0} if absolute
                       else {"a": 1.0, "b": 1.0, "c": 2.0})


class TestPythonVersion:
    """Timings recorded on different interpreters do not compare: the
    collector's heuristics and the interpreter's speed both change."""

    def _gate(self, tmp_path, base_python, cand_python):
        return compare.main([
            _write(tmp_path / "base.json", MEDIANS, base_python),
            _write(tmp_path / "cand.json", MEDIANS, cand_python),
        ])

    def test_other_minor_version_is_refused(self, tmp_path, capsys):
        assert self._gate(tmp_path, "3.11.7", "3.12.1") == 2
        err = capsys.readouterr().err
        assert "3.11.7" in err and "3.12.1" in err

    def test_other_patch_release_is_compared(self, tmp_path, capsys):
        assert self._gate(tmp_path, "3.11.7", "3.11.10") == 0
        assert "OK: no benchmark regressed" in capsys.readouterr().out
