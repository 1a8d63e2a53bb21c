"""In-memory span recording and the self-time arithmetic.

A span is one call into a layer: its name, start and end (``perf_counter_ns``),
the span that was open when it began (its parent), and the encounter it
belongs to (``-1`` outside any encounter). Spans are appended to flat
columns while the workload runs and are only written out afterwards, so
recording costs one list lookup and a few array appends per call.

A span's *self time* is its duration minus the time its direct child spans
cover. Spans nest strictly (a child starts after and ends before its
parent), so the children's durations never overlap and their sum is the
covered time.
"""

from __future__ import annotations

import gzip
import pathlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

#: Parent index of a span opened with no span open.
NO_PARENT = -1


class Tracer:
    """Span columns plus named counters for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.encounter = array("i")
        self._open: List[int] = []
        #: Encounter id stamped on every span begun from now on.
        self.encounter_id = -1
        self.counters: Counter = Counter()

    def current(self) -> str:
        """Name of the innermost open span, or ``""``."""
        if not self._open:
            return ""
        return self.names[self.name_id[self._open[-1]]]

    def begin(self, name: str, now_ns: int) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self._name_ids[name] = name_id
            self.names.append(name)
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else NO_PARENT)
        self.start.append(now_ns)
        self.end.append(now_ns)
        self.encounter.append(self.encounter_id)
        self._open.append(index)
        return index

    def finish(self, index: int, now_ns: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._open.pop()
        self.end[index] = now_ns

    def __len__(self) -> int:
        return len(self.name_id)

    def span_names(self) -> List[str]:
        return [self.names[i] for i in self.name_id]

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write every span as gzipped TSV (one row per span)."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(target, "wt", encoding="utf-8") as out:
            out.write("index\tname\tparent\tstart_ns\tend_ns\tencounter\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.encounter[i]}\n"
                )
        return target


@dataclass
class LayerTimes:
    """Per span name: call count, total (inclusive) and self time in ns."""

    count: Counter = field(default_factory=Counter)
    total_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)

    @property
    def self_sum_ns(self) -> int:
        return sum(self.self_ns.values())


def layer_times(
    names: Sequence[str],
    parent: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
) -> LayerTimes:
    """Aggregate spans by name; self time = duration minus children's."""
    durations = [e - s for s, e in zip(start, end)]
    covered = [0] * len(durations)
    for index, parent_index in enumerate(parent):
        if parent_index != NO_PARENT:
            covered[parent_index] += durations[index]
    times = LayerTimes()
    for name, duration, child_time in zip(names, durations, covered):
        times.count[name] += 1
        times.total_ns[name] += duration
        times.self_ns[name] += duration - child_time
    return times


def tracer_layer_times(tracer: Tracer) -> LayerTimes:
    return layer_times(tracer.span_names(), tracer.parent, tracer.start, tracer.end)

