"""Scheduler interface and shared helpers.

A scheduler instance belongs to exactly one connection (several keep
per-connection state such as ECF's ``waiting`` flag), is attached via
:meth:`Scheduler.attach`, and is consulted by
:meth:`repro.mptcp.connection.MptcpConnection.try_send` each time a segment
could be assigned.

Contract:

* :meth:`select` must return a subflow for which ``can_send()`` is true,
  or ``None`` meaning "send nothing now and wait for an ACK event".
* Returning ``None`` while *no* data is in flight anywhere would deadlock
  the connection; the provided schedulers never wait unless the subflow
  they are waiting for has segments in flight (so ACKs are coming).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.sim import probe as _probe
from repro.tcp.subflow import CWND_EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow


class Scheduler:
    """Base class for MPTCP path schedulers."""

    name = "base"

    __slots__ = ("conn", "uid", "decisions", "waits")

    #: Snapshot contract for checkpoint/fork (audited by RPR915).
    STATE_FIELDS = ("conn", "uid", "decisions", "waits")

    def __init__(self) -> None:
        self.conn: Optional["MptcpConnection"] = None
        self.uid = _probe.next_uid()
        self.decisions = 0
        self.waits = 0
        _probe.adopt("scheduler", self)

    def attach(self, conn: "MptcpConnection") -> None:
        """Bind this scheduler instance to its connection."""
        if self.conn is not None and self.conn is not conn:
            raise RuntimeError(
                f"scheduler {self.name!r} is already attached to another "
                "connection; create one scheduler per connection"
            )
        self.conn = conn

    # ------------------------------------------------------------------
    # Helpers shared by implementations
    # ------------------------------------------------------------------
    @staticmethod
    def available_subflows(conn: "MptcpConnection") -> List["Subflow"]:
        """Established subflows that can accept a new segment now.

        Inlines :meth:`Subflow.can_send` with ``sim.now`` read once.
        """
        now = conn.sim.now
        return [
            sf
            for sf in conn.subflows
            if now >= sf.established_at
            and not sf._retx_queue
            and sf._in_flight + 1 <= sf.cwnd + CWND_EPS
        ]

    @staticmethod
    def established_subflows(conn: "MptcpConnection") -> List["Subflow"]:
        """Established subflows, regardless of window space."""
        now = conn.sim.now
        return [sf for sf in conn.subflows if now >= sf.established_at]

    @staticmethod
    def fastest(subflows: List["Subflow"]) -> Optional["Subflow"]:
        """Smallest-SRTT subflow (ties broken by subflow id).

        Subflows whose RTT estimate is non-finite (a path in an outage
        reports an ``inf`` transit estimate, and NaN would make ``min``
        ordering-dependent) are excluded; if no subflow has a finite
        estimate there is no meaningful "fastest" and None is returned.

        One pass, equivalent to ``min`` keyed on ``(srtt_or_default(),
        sf_id)``: a later subflow replaces the best only if strictly
        smaller, so the first minimum wins.
        """
        best: Optional["Subflow"] = None
        best_rtt = 0.0
        for sf in subflows:
            rtt = sf.rtt.srtt
            if rtt is None:
                rtt = sf._default_rtt
            if not math.isfinite(rtt):
                continue
            if best is None or rtt < best_rtt or (rtt == best_rtt and sf.sf_id < best.sf_id):
                best = sf
                best_rtt = rtt
        return best

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        """Choose the subflow for the next segment (or None to wait)."""
        raise NotImplementedError

    def duplicate_targets(
        self, conn: "MptcpConnection", chosen: "Subflow"
    ) -> List["Subflow"]:
        """Extra subflows that should carry a *copy* of the segment.

        Most schedulers never duplicate; the redundant scheduler overrides
        this to trade bandwidth for latency.  Every returned subflow must
        satisfy ``can_send()``.
        """
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
