"""Turn a scenario into the directive schedule a live swarm replays.

The discrete-event emulator owns three event kinds — day-boundary user
reassignments, message injections, and encounters — ordered by
``(time, priority band, scheduling order)``. A live swarm replays the very
same events as timed directives over its control channels, so parity with
the emulator rests on this module reproducing that order *exactly*:

* the step list is built in the emulator's scheduling order (assignments
  sorted by day, injections in workload order, encounters in trace order)
  and stable-sorted by ``(time, priority)`` — identical to the engine's
  ``(time, priority, sequence)`` heap order;
* the encounter role coin (which side initiates the first sync) is drawn
  from ``random.Random(encounter_order_seed)`` once per encounter *in
  replay order*, matching the emulator's single draw per executed
  encounter on the fault-free path the live swarm runs.

Anything that would make the draws diverge (fault injection) is rejected
by the swarm before it starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.emulation.encounters import SECONDS_PER_DAY
from repro.emulation.engine import EventPriority
from repro.experiments.scenario import Scenario


@dataclass
class ScheduleStep:
    """One timed directive in a swarm replay.

    ``kind`` is ``assign`` (payload: ``{node: [users]}``), ``inject``
    (payload: source/destination/body), ``encounter`` (``first`` is
    the coordinator and the first sync's *source*; ``budget`` the
    per-encounter item cap, None for unlimited), or ``lifecycle``
    (payload: the churn event's kind/node/partner/amnesiac — the
    orchestrator kills, restarts, or hands off the named replica).
    """

    time: float
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    first: Optional[str] = None
    second: Optional[str] = None
    budget: Optional[int] = None


def build_schedule(
    scenario: Scenario, extra_days: int = 0
) -> Tuple[List[ScheduleStep], float]:
    """The scenario's full directive schedule, plus the experiment end time.

    Returns the steps in exact emulator execution order, with encounter
    roles already resolved (``first`` initiates and sources the first
    sync).
    """
    config = scenario.config
    emulator = scenario.emulator
    assignments = emulator.assignments
    raw: List[Tuple[float, int, int, ScheduleStep]] = []
    sequence = 0

    for day in sorted(assignments):
        day_map = assignments[day]
        raw.append(
            (
                day * SECONDS_PER_DAY,
                int(EventPriority.CONTROL),
                sequence,
                ScheduleStep(
                    time=day * SECONDS_PER_DAY,
                    kind="assign",
                    payload={
                        "addresses": {
                            node: sorted(users)
                            for node, users in day_map.items()
                        }
                    },
                ),
            )
        )
        sequence += 1
    churn_schedule = scenario.churn_schedule
    if churn_schedule is not None:
        # Same band and relative order as Emulator.schedule_all: lifecycle
        # events ride the CONTROL band, queued after the day assignments.
        for event in churn_schedule.events:
            raw.append(
                (
                    event.time,
                    int(EventPriority.CONTROL),
                    sequence,
                    ScheduleStep(
                        time=event.time,
                        kind="lifecycle",
                        payload={
                            "kind": event.kind,
                            "node": event.node,
                            "partner": event.partner,
                            "amnesiac": event.amnesiac,
                        },
                    ),
                )
            )
            sequence += 1
    for injection in scenario.injections:
        raw.append(
            (
                injection.time,
                int(EventPriority.INJECT),
                sequence,
                ScheduleStep(
                    time=injection.time,
                    kind="inject",
                    payload={
                        "source": injection.source,
                        "destination": injection.destination,
                        "body": injection.body,
                    },
                ),
            )
        )
        sequence += 1
    for encounter in scenario.trace:
        raw.append(
            (
                encounter.time,
                int(EventPriority.ENCOUNTER),
                sequence,
                ScheduleStep(
                    time=encounter.time,
                    kind="encounter",
                    first=encounter.a,
                    second=encounter.b,
                    budget=emulator._encounter_budget(encounter),
                ),
            )
        )
        sequence += 1

    raw.sort(key=lambda entry: entry[:3])
    steps = [step for _, _, _, step in raw]

    # Resolve encounter roles with the emulator's coin, in its draw order.
    rng = random.Random(config.encounter_order_seed)
    for step in steps:
        if step.kind != "encounter":
            continue
        order = rng.random() < 0.5
        if not order:
            step.first, step.second = step.second, step.first

    last_day = max(
        [encounter.day for encounter in scenario.trace]
        + list(assignments.keys())
        + [0]
    )
    end_time = (last_day + 1 + extra_days) * SECONDS_PER_DAY
    return steps, end_time
