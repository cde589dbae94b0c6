"""Scheduler registry: construct a fresh scheduler instance by name.

Schedulers carry per-connection state (ECF's hysteresis flag, DAPS's
schedule), so the registry always returns a *new* instance.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet

from repro.core.base import Scheduler
from repro.core.blest import BlestScheduler
from repro.core.daps import DapsScheduler
from repro.core.ecf import EcfScheduler
from repro.core.extras import (
    PrimaryOnlyScheduler,
    RedundantScheduler,
    RoundRobinScheduler,
)
from repro.core.minrtt import MinRttScheduler

def _make_mpdash() -> Scheduler:
    # Imported lazily: apps.dash depends on core, not the reverse.
    from repro.apps.dash.mpdash import MpDashScheduler

    return MpDashScheduler()


def _make_fixture(name: str) -> Callable[..., Scheduler]:
    # Imported lazily: the fixtures live in repro.analysis, which would
    # otherwise cycle back into core at import time.
    def factory(**params: Any) -> Scheduler:
        from repro.analysis import fixtures

        cls = {
            "ecf-nowait": fixtures.NoWaitEcfScheduler,
            "ecf-noineq2": fixtures.NoSecondInequalityEcfScheduler,
            "ecf-invbeta": fixtures.LateHalvingEcfScheduler,
        }[name]
        return cls(**params)

    return factory


_FACTORIES: Dict[str, Callable[..., Scheduler]] = {
    "minrtt": MinRttScheduler,
    "default": MinRttScheduler,
    "ecf": EcfScheduler,
    "blest": BlestScheduler,
    "daps": DapsScheduler,
    "roundrobin": RoundRobinScheduler,
    "redundant": RedundantScheduler,
    "primary": PrimaryOnlyScheduler,
    "mpdash": _make_mpdash,
    # Seeded-violation fixtures for the checking layer (repro.analysis):
    # constructible by name for `repro check --scheduler ...`, but kept
    # out of SCHEDULER_NAMES so sweeps never enumerate them.
    "ecf-nowait": _make_fixture("ecf-nowait"),
    "ecf-noineq2": _make_fixture("ecf-noineq2"),
    "ecf-invbeta": _make_fixture("ecf-invbeta"),
}

#: Canonical user-facing scheduler names.  ("mpdash" additionally needs an
#: :class:`~repro.apps.dash.mpdash.MpDashPathManager` wired to the player;
#: the streaming runner does this automatically.)
SCHEDULER_NAMES = (
    "minrtt", "ecf", "blest", "daps", "roundrobin", "redundant", "primary",
    "mpdash",
)


def registered_schedulers() -> FrozenSet[str]:
    """Every name ``build(SchedulerSpec.of(name))`` resolves.

    Includes the seeded-violation fixture names; ``SCHEDULER_NAMES`` is
    the user-facing subset sweeps enumerate.
    """
    return frozenset(_FACTORIES)
