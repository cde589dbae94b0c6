"""Coupled congestion control (LIA, RFC 6356 / Wischik et al. NSDI'11).

The MPTCP default.  In congestion avoidance, for each ACK on subflow *i*::

    cwnd_i += min(alpha / cwnd_total, 1 / cwnd_i)

with::

    alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2

The coupling is the mechanism behind the paper's Section 3.2 observation:
when an idle reset collapses the fast subflow's CWND, the coupled increase
(shared ``alpha`` across subflows) grows it back slowly, so one reset hurts
the fast path for many RTTs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tcp.cc.base import CongestionController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.subflow import Subflow

#: RTT assumed for a subflow before its first measurement.
DEFAULT_RTT = 0.1


class CoupledController(CongestionController):
    """RFC 6356 linked-increase algorithm."""

    name = "coupled"

    __slots__ = ()

    def alpha(self) -> float:
        """The LIA aggressiveness factor over all registered subflows."""
        return self._alpha(sum([sf.cwnd for sf in self._subflows]))

    def _alpha(self, total_cwnd: float) -> float:
        """:meth:`alpha` given the total CWND (summed by the caller).

        The total stays a ``sum()``: Python 3.12's ``sum()`` of floats
        is compensated, so a hand loop would round differently with three
        or more subflows.
        """
        if total_cwnd <= 0:
            return 1.0
        best = 0.0
        denom = 0.0
        for sf in self._subflows:
            rtt = sf.rtt.srtt
            if rtt is None:
                rtt = DEFAULT_RTT
            cwnd = sf.cwnd
            ratio = cwnd / (rtt * rtt)
            if ratio > best:
                best = ratio
            denom += cwnd / rtt
        if denom <= 0:
            return 1.0
        return total_cwnd * best / (denom * denom)

    def ca_increase(self, subflow: "Subflow") -> float:
        total_cwnd = sum([sf.cwnd for sf in self._subflows])
        if total_cwnd <= 0:
            return 1.0 / max(subflow.cwnd, 1.0)
        coupled = self._alpha(total_cwnd) / total_cwnd
        uncoupled = 1.0 / max(subflow.cwnd, 1.0)
        return min(coupled, uncoupled)
