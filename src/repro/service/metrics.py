"""Prometheus-style plain-text metrics, stdlib only.

The service's observability surface is one ``GET /metrics`` endpoint in
the standard text exposition format (``# HELP`` / ``# TYPE`` headers,
``name{label="value"} 1234`` samples). Three instrument kinds cover
everything the server measures:

- :class:`Counter` — monotonically increasing event counts, optionally
  split by label values (request paths, response codes, job outcomes);
- :class:`Gauge` — point-in-time values (queue depth, busy workers),
  either set explicitly or read from a callback at render time;
- :class:`LabeledGauge` — gauges split by label values (one series per
  engine fidelity tier);
- :class:`Histogram` — cumulative-bucket latency distributions with
  ``_bucket`` / ``_sum`` / ``_count`` series.

Everything is process-local and single-threaded by design: the asyncio
event loop is the only writer, so no locks are needed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Latency buckets (seconds): sub-millisecond warm hits through
# multi-minute cold simulations.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0,
)


def _format_value(value: float) -> str:
    """Integers render bare; floats keep their repr (Prometheus accepts
    both, and bare integers keep counter output stable for tests)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(value)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class Counter:
    """Monotonic counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0)

    def total(self) -> float:
        return sum(self._values.values())

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def samples(self) -> List[str]:
        if not self._values:
            # An instrument that never fired still renders one zero
            # sample (label-less instruments only) so dashboards and the
            # CI grep can rely on the series existing.
            if not self.label_names:
                return [f"{self.name} 0"]
            return []
        lines = []
        for key in sorted(self._values):
            labels = dict(zip(self.label_names, key))
            lines.append(
                f"{self.name}{_format_labels(labels)} "
                f"{_format_value(self._values[key])}"
            )
        return lines


class Gauge:
    """Point-in-time value; ``callback`` wins over :meth:`set`."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        callback: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.help_text = help_text
        self.callback = callback
        self._value: float = 0

    def set(self, value: float) -> None:
        self._value = value

    def value(self) -> float:
        if self.callback is not None:
            return self.callback()
        return self._value

    def samples(self) -> List[str]:
        return [f"{self.name} {_format_value(self.value())}"]


class LabeledGauge:
    """Point-in-time values split by label values.

    The plain :class:`Gauge` covers the label-less case; this covers
    series keyed by label values (``set`` creates a series per distinct
    label tuple).
    """

    kind = "gauge"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str]):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[self._key(labels)] = value

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0)

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def samples(self) -> List[str]:
        lines = []
        for key in sorted(self._values):
            labels = dict(zip(self.label_names, key))
            lines.append(
                f"{self.name}{_format_labels(labels)} "
                f"{_format_value(self._values[key])}"
            )
        return lines


class Histogram:
    """Cumulative-bucket histogram (Prometheus convention)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        self._bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self._bucket_counts[i] += 1

    def samples(self) -> List[str]:
        lines = []
        # observe() increments every bucket whose bound covers the value,
        # so the stored counts are already cumulative.
        for upper, count in zip(self.buckets, self._bucket_counts):
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(upper)}"}} {count}'
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{self.name}_sum {_format_value(round(self.sum, 9))}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


class MetricsRegistry:
    """Ordered collection of instruments with one text renderer."""

    def __init__(self):
        self._instruments: List[object] = []

    def counter(self, name, help_text, label_names=()) -> Counter:
        return self._add(Counter(name, help_text, label_names))

    def gauge(self, name, help_text, callback=None) -> Gauge:
        return self._add(Gauge(name, help_text, callback))

    def labeled_gauge(self, name, help_text, label_names) -> LabeledGauge:
        return self._add(LabeledGauge(name, help_text, label_names))

    def histogram(self, name, help_text, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._add(Histogram(name, help_text, buckets))

    def _add(self, instrument):
        if any(i.name == instrument.name for i in self._instruments):
            raise ValueError(f"duplicate metric {instrument.name!r}")
        self._instruments.append(instrument)
        return instrument

    def render(self) -> str:
        """The full exposition document, trailing newline included."""
        lines: List[str] = []
        for instrument in self._instruments:
            samples = instrument.samples()
            if not samples:
                continue
            lines.append(f"# HELP {instrument.name} {instrument.help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"
