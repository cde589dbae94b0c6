"""The probe: the simulation model's one instrumentation interface.

The model layers report to analysis tools through this module and
nothing else.  It holds what the model can report -- the typed protocol
records, each carrying the inputs its decision was made from, and
:func:`next_uid` for the objects they name -- and who is listening:
five slots (``checks``, ``log``, ``profiler``, ``perf``, ``flight``),
each holding at most one tool.

Per-event sites test one pointer, :data:`PROBE`, which is ``None``
unless the sanitizer (``checks``), an event log (``log``) or the
profiler is installed::

    probe = _probe.PROBE
    if probe is not None and probe.log is not None:
        probe.log.emit(_probe.SegmentSent(...))

Construction-time tools never touch that path: ``Simulator``, ``Link``,
``Scheduler`` and ``TraceRecorder`` call :func:`adopt` once when built,
and the probe hands the object to the ``adopt(kind, obj)`` method of
every open perf, flight or profiler window.  See "The probe" in
``docs/architecture.md``.

This module imports nothing from the package: every model layer and
every tool imports it.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, Optional, Tuple, TypeVar

_T = TypeVar("_T")

_UIDS = itertools.count(1)


def next_uid() -> int:
    """Process-unique id for record subjects (subflows, receivers, ...).

    Records from several simultaneous connections (or sequential
    connections reusing subflow ids, as the web workload does) therefore
    never alias in one log.
    """
    return next(_UIDS)


def env_flag(name: str) -> bool:
    """True when environment variable ``name`` switches a tool on.

    A flag is off when unset or when its stripped, lower-cased value is
    ``""``, ``"0"``, ``"false"`` or ``"no"``; any other value is on.
    """
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no")


# ----------------------------------------------------------------------
# Record types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Event:
    """Base record: every event carries its simulated timestamp."""

    t: float

    @property
    def kind(self) -> str:
        return type(self).__name__

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            data[f.name] = getattr(self, f.name)
        return data


@dataclass(frozen=True)
class SegmentSent(Event):
    """A data segment left a subflow (original or retransmission)."""

    sf_uid: int
    sf_id: int
    seq: int
    dsn: int
    payload: int
    retransmitted: bool
    cwnd: float
    in_flight: int


@dataclass(frozen=True)
class AckProcessed(Event):
    """A newly acknowledged segment was absorbed by the sender.

    ``cwnd``, ``in_recovery``, and ``backoff`` are the values *after* the
    full ACK processing pass (controller action, recovery bookkeeping,
    loss detection), which is what the temporal properties reason about.
    """

    sf_uid: int
    sf_id: int
    seq: int
    rtt_sampled: bool
    cwnd: float
    in_recovery: bool
    backoff: float


@dataclass(frozen=True)
class RtoFired(Event):
    """A retransmission timeout actually expired (not a lazy re-arm)."""

    sf_uid: int
    sf_id: int
    backoff_before: float
    backoff_after: float
    rto: float
    outstanding: int


@dataclass(frozen=True)
class FastRetransmit(Event):
    """Dupack-driven loss recovery started (one per recovery episode)."""

    sf_uid: int
    sf_id: int
    seq: int
    recovery_point: int


@dataclass(frozen=True)
class IdleReset(Event):
    """RFC 5681 idle restart collapsed a subflow's window to IW."""

    sf_uid: int
    sf_id: int
    idle: float
    rto: float
    old_cwnd: float
    new_cwnd: float
    ssthresh: float


@dataclass(frozen=True)
class Delivered(Event):
    """The receiver handed one in-order chunk to the application."""

    recv_uid: int
    dsn: int
    payload: int
    delay: float


@dataclass(frozen=True)
class Reinjection(Event):
    """The meta layer re-sent a DSN on another subflow."""

    conn: str
    dsn: int
    payload: int
    from_sf: int
    to_sf: int
    cause: str  # "rto" or "opportunistic"


@dataclass(frozen=True)
class EcfDecision(Event):
    """One full evaluation of ECF's Algorithm 1 (fast subflow was full).

    Records every input the two inequalities read, the actual threshold
    the implementation computed, and the waiting state before and after,
    so the decision can be replayed offline by the reference model.
    ``decision`` is ``"wait"`` (send nothing, wait for the fast subflow)
    or ``"slow"`` (send on the second-fastest subflow).
    """

    sched_uid: int
    decision: str
    fastest_uid: int
    fastest_sf: int
    second_uid: int
    second_sf: int
    k_segments: float
    cwnd_f: float
    cwnd_s: float
    rtt_f: float
    rtt_s: float
    delta: float
    beta: float
    use_second_inequality: bool
    waiting_before: bool
    waiting_after: bool
    n_rounds: float
    threshold: float
    #: True when a twin-run fork overrode Algorithm 1's outcome for this
    #: decision (the logged ``decision`` is the forced one).
    forced: bool = False


@dataclass(frozen=True)
class MinRttDecision(Event):
    """One minRTT pick among the currently available subflows."""

    sched_uid: int
    chosen_sf: Optional[int]
    available: Tuple[Tuple[int, float], ...]  # (sf_id, srtt) pairs


# ----------------------------------------------------------------------
# The pointer and the slots behind it
# ----------------------------------------------------------------------
class Probe:
    """The per-event tools installed right now (any of them may be None).

    Rebuilt on every :func:`install`, never mutated, so a reference bound
    at the top of ``Simulator.run`` stays consistent for the whole run.
    """

    __slots__ = ("checks", "log", "profiler")

    def __init__(self, checks: Any, log: Any, profiler: Any) -> None:
        self.checks = checks
        self.log = log
        self.profiler = profiler


#: The per-event pointer: ``None`` unless ``checks``, ``log`` or
#: ``profiler`` holds a tool.  Sites read it through the module
#: (``_probe.PROBE``) so an install takes effect everywhere at once.
PROBE: Optional[Probe] = None

#: The tool in each slot, or ``None``.
_SLOTS: Dict[str, Any] = dict.fromkeys(("checks", "log", "profiler", "perf", "flight"))

#: Installed tools that receive :func:`adopt`, in slot order.
_ADOPTERS: Tuple[Any, ...] = ()


def install(slot: str, tool: Any) -> Any:
    """Put ``tool`` in ``slot`` (``None`` empties it); returns the tool
    it replaced.  Raises ``KeyError`` for an unknown slot."""
    global PROBE, _ADOPTERS
    previous = _SLOTS[slot]
    _SLOTS[slot] = tool
    checks, log, profiler = _SLOTS["checks"], _SLOTS["log"], _SLOTS["profiler"]
    if checks is None and log is None and profiler is None:
        PROBE = None
    else:
        PROBE = Probe(checks, log, profiler)
    _ADOPTERS = tuple(
        _SLOTS[name] for name in ("perf", "flight", "profiler") if _SLOTS[name] is not None
    )
    return previous


def installed(slot: str) -> Any:
    """The tool currently in ``slot``, or ``None``."""
    return _SLOTS[slot]


@contextmanager
def window(slot: str, tool: _T) -> Iterator[_T]:
    """Install ``tool`` in ``slot`` for the body; the previous tool comes
    back on exit, normal or not."""
    previous = install(slot, tool)
    try:
        yield tool
    finally:
        install(slot, previous)


def adopt(kind: str, obj: Any) -> None:
    """Hand a newly built model object to every open window."""
    for adopter in _ADOPTERS:
        adopter.adopt(kind, obj)
