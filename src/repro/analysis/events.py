"""Structured event log: typed protocol records for trace-level checking.

The trace recorder (:mod:`repro.sim.trace`) collects ``(time, value)``
series for plotting; this module records *what happened* -- typed records
of every send, ACK, timeout, idle restart, delivery, and scheduler
decision, each carrying the inputs the decision was made from.  The
temporal property checker (:mod:`repro.analysis.check`) and the reference
oracles (:mod:`repro.analysis.reference`) consume these logs to verify
the paper's semantics, not just endpoint metrics.

The record types are defined next to the model's instrumentation pointer
in :mod:`repro.sim.probe` and re-exported here.  An installed
:class:`EventLog` sits in the probe's ``log`` slot, so protocol layers
reach it with one pointer test when logging is off.  Enable a fresh log
with :func:`start` / :func:`stop`, or the :func:`recording` context
manager::

    from repro.analysis import events

    with events.recording() as log:
        run_bulk(spec)
    decisions = log.of_kind(events.EcfDecision)
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional, Type, TypeVar

from repro.sim import probe as _probe
from repro.sim.probe import (  # noqa: F401  (re-exported: the records' public path)
    AckProcessed,
    Delivered,
    EcfDecision,
    Event,
    FastRetransmit,
    IdleReset,
    MinRttDecision,
    Reinjection,
    RtoFired,
    SegmentSent,
    next_uid,
)

E = TypeVar("E", bound=Event)

#: Registry of every concrete record type by its ``kind`` name; the wire
#: format of ``to_dict`` / :func:`event_from_dict`.  Exporters iterate
#: this to stay exhaustive, and the round-trip tests assert it is.
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.__name__: cls
    for cls in (
        SegmentSent,
        AckProcessed,
        RtoFired,
        FastRetransmit,
        IdleReset,
        Delivered,
        Reinjection,
        EcfDecision,
        MinRttDecision,
    )
}


def event_from_dict(data: Dict[str, Any]) -> Event:
    """Rebuild a typed record from its ``to_dict`` form (lossless).

    JSON has no tuples, so :class:`MinRttDecision.available` comes back
    as nested lists and is re-frozen here; everything else round-trips
    as-is.

    >>> event_from_dict(Delivered(t=1.5, recv_uid=7, dsn=0,
    ...                           payload=1448, delay=0.25).to_dict())
    Delivered(t=1.5, recv_uid=7, dsn=0, payload=1448, delay=0.25)
    """
    kind = data.get("kind")
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown event kind: {kind!r}")
    payload = {k: v for k, v in data.items() if k != "kind"}
    if cls is MinRttDecision:
        payload["available"] = tuple(
            (int(sf_id), float(srtt)) for sf_id, srtt in payload["available"]
        )
    return cls(**payload)


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------
class EventLog:
    """Append-only store of typed event records.

    Parameters
    ----------
    capacity:
        Optional bound on retained events; once full the *oldest* records
        are dropped and counted in :attr:`dropped`.  Capped logs are for
        interactive inspection -- the property checker refuses partial
        logs by default, since a missing record can fake a violation.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        """Append one record (dropping the oldest when at capacity)."""
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def of_kind(self, kind: Type[E]) -> List[E]:
        """All records of one type, in emission order."""
        return [e for e in self._events if type(e) is kind]

    def events(self) -> List[Event]:
        """All records, in emission order."""
        return list(self._events)

    def tail(self, n: int) -> List[Event]:
        """The most recent ``n`` records (all of them if ``n`` exceeds
        the current length), in emission order."""
        if n <= 0:
            return []
        if n >= len(self._events):
            return list(self._events)
        return list(self._events)[-n:]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds: Dict[str, int] = {}
        for event in self._events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return f"EventLog(n={len(self._events)}, dropped={self.dropped}, kinds={kinds})"


def start(capacity: Optional[int] = None) -> EventLog:
    """Install (and return) a fresh active log, replacing any current one."""
    log = EventLog(capacity=capacity)
    _probe.install("log", log)
    return log


def stop() -> Optional[EventLog]:
    """Deactivate logging; returns the log that was active, if any."""
    log: Optional[EventLog] = _probe.install("log", None)
    return log


def active() -> bool:
    """True while an event log is installed."""
    return _probe.installed("log") is not None


@contextmanager
def recording(capacity: Optional[int] = None) -> Iterator[EventLog]:
    """Event-log a block of code; restores the previous log on exit."""
    with _probe.window("log", EventLog(capacity=capacity)) as log:
        yield log
