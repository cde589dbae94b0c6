"""Per-layer measurement from outside the program: spans and a ledger.

:class:`Tracer` wraps public entry points of each layer (class methods
and module functions) for the length of a ``with tracer.installed():``
block and records one span per call -- name, start, end, parent -- in
memory.  A span's self time is its duration minus the time its direct
child spans cover.

:func:`count_work` is the work-count ledger: it runs one pass under
``cProfile`` (the C implementation of the ``sys.setprofile`` hook) and
``repro.perf.counters.collecting()``, and turns Python call counts
grouped by ``repro.<module>`` and the engine, link and scheduler
counters into per-hop ratios.  Every number it returns is a
deterministic function of the pass's inputs.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import json
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro
from repro import CampaignStore, MptcpConnection, MptcpReceiver, Scheduler, Simulator
from repro.experiments.exec import ResultCache
from repro.experiments.spec import spec_hash
from repro.net.link import Link
from repro.perf.counters import collecting
from repro.sim import snapshot
from repro.tcp.subflow import Subflow

clock = time.perf_counter

#: ``(span name, owner class, method name)`` for every traced method.
TRACED_METHODS: List[Tuple[str, type, str]] = [
    ("sim.run", Simulator, "run"),
    ("net.send", Link, "send"),
    ("tcp.handle_ack", Subflow, "handle_ack"),
    ("tcp.send_segment", Subflow, "send_segment"),
    ("mptcp.try_send", MptcpConnection, "try_send"),
    ("mptcp.on_data", MptcpReceiver, "on_data"),
    ("exec.cache_get", ResultCache, "get"),
    ("exec.cache_put", ResultCache, "put"),
    ("service.add_jobs", CampaignStore, "add_jobs"),
    ("service.claim", CampaignStore, "claim"),
    ("service.mark_done", CampaignStore, "mark_done"),
    ("service.record_journal", CampaignStore, "record_journal"),
]

#: ``(span name, function)`` for every traced module-level function.
TRACED_FUNCTIONS: List[Tuple[str, Callable[..., Any]]] = [
    ("exec.spec_hash", spec_hash),
    ("snapshot.capture", snapshot.capture),
    ("snapshot.restore", snapshot.restore),
]

SPAN_NAMES = [name for name, _, _ in TRACED_METHODS] + ["core.select"] + [
    name for name, _ in TRACED_FUNCTIONS
]

#: Layers whose Python calls the ledger reports per packet-hop.
LEDGER_LAYERS = ("sim", "net", "tcp", "core", "mptcp", "apps",
                 "experiments", "service", "obs")


def _scheduler_classes() -> List[type]:
    """Every loaded scheduler class that defines its own ``select``."""
    import repro.apps.dash.mpdash  # noqa: F401  (registers MpDashScheduler)

    found, todo = [], [Scheduler]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Scheduler and "select" in vars(cls):
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


@contextmanager
def _patched_method(cls: type, name: str, replacement: Callable[..., Any]) -> Iterator[None]:
    real = vars(cls)[name]
    setattr(cls, name, replacement)
    try:
        yield
    finally:
        setattr(cls, name, real)


@contextmanager
def patched_function(real: Callable[..., Any], replacement: Callable[..., Any]) -> Iterator[None]:
    """Replace ``real`` in every ``repro`` module that bound it by name."""
    sites = [
        (module, attr)
        for mod_name, module in list(sys.modules.items())
        if mod_name == "repro" or mod_name.startswith("repro.")
        for attr, value in list(vars(module).items())
        if value is real
    ]
    for module, attr in sites:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, real)


class Tracer:
    """In-memory spans around the layers' public entry points."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per call, in call order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.cache_hits = 0

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.cache_hits = 0

    def _wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        stack = self._stack
        counts_hits = name == "exec.cache_get"

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = tracer.spans
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counts_hits and result is not None:
                tracer.cache_hits += 1
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        with ExitStack() as stack:
            for name, cls, attr in TRACED_METHODS:
                stack.enter_context(
                    _patched_method(cls, attr, self._wrap(name, vars(cls)[attr]))
                )
            for cls in _scheduler_classes():
                stack.enter_context(
                    _patched_method(cls, "select", self._wrap("core.select", vars(cls)["select"]))
                )
            for name, func in TRACED_FUNCTIONS:
                stack.enter_context(patched_function(func, self._wrap(name, func)))
            yield self

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls": n, "self_s": seconds}}`` for every name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


# ----------------------------------------------------------------------
# Work-count ledger
# ----------------------------------------------------------------------


def _world_counters(world: Dict[str, Any]) -> Dict[str, int]:
    """Lifetime counters of a restored world's engine, links and scheduler."""
    sim = world["sim"]
    counts = {"events": sim.events_processed, "stale_pops": sim.stale_pops,
              "packets_in": 0, "delivered": 0, "dropped": 0,
              "decisions": 0, "waits": 0}
    conn = world.get("conn")
    if conn is not None:
        links = {id(link): link for sf in conn.subflows
                 for link in (sf.path.forward, sf.path.reverse)}
        for link in links.values():
            counts["packets_in"] += link.stats.packets_in
            counts["delivered"] += link.stats.packets_delivered
            counts["dropped"] += link.stats.packets_dropped
        counts["decisions"] = conn.scheduler.decisions
        counts["waits"] = conn.scheduler.waits
    return counts


def _layer_of(filename: str, root: str) -> str:
    if not filename.startswith(root):
        return ""
    head = filename[len(root):].lstrip("/").split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


def count_work(run: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """Run ``run()`` once under the ledger; returns its result and raw counts.

    Forked worlds are built by ``snapshot.restore``, not by constructors,
    so ``collecting()`` never adopts them: their engine, link and
    scheduler work is added as the change in their counters between
    restore and the end of the pass.
    """
    restored: List[Tuple[Dict[str, Any], Dict[str, int]]] = []
    real_restore = snapshot.restore

    def restore_and_note(snap: Any) -> Dict[str, Any]:
        world = real_restore(snap)
        restored.append((world, _world_counters(world)))
        return world

    profile = cProfile.Profile()
    with patched_function(real_restore, restore_and_note), collecting() as collector:
        profile.enable()
        try:
            result = run()
        finally:
            profile.disable()
    snap = collector.snapshot()
    counts = {"events": snap.events_dispatched, "stale_pops": snap.stale_pops,
              "packets_in": snap.packets_in, "delivered": snap.packets_delivered,
              "dropped": snap.packets_dropped, "decisions": snap.scheduler_decisions,
              "waits": snap.scheduler_waits}
    for world, before in restored:
        after = _world_counters(world)
        for key in counts:
            counts[key] += after[key] - before[key]

    root = str(Path(repro.__file__).resolve().parent)
    send_segment = Subflow.send_segment.__code__
    counts["segments"] = 0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a C function
            continue
        layer = _layer_of(code.co_filename, root)
        if not layer:
            continue
        counts["calls.total"] = counts.get("calls.total", 0) + entry.callcount
        counts[f"calls.{layer}"] = counts.get(f"calls.{layer}", 0) + entry.callcount
        if code is send_segment:
            counts["segments"] = entry.callcount
    return result, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger_metrics(counts: Dict[str, int]) -> Dict[str, float]:
    """The ledger's per-layer metrics from :func:`count_work`'s raw counts."""
    hops = counts["delivered"]
    metrics = {
        "sim.events_per_hop": _ratio(counts["events"], hops),
        "sim.stale_pop_ratio": _ratio(counts["stale_pops"],
                                      counts["events"] + counts["stale_pops"]),
        "net.drop_ratio": _ratio(counts["dropped"], counts["packets_in"]),
        "core.select_per_segment": _ratio(counts["decisions"], counts["segments"]),
        "core.wait_ratio": _ratio(counts["waits"], counts["decisions"]),
    }
    for layer in LEDGER_LAYERS + ("total",):
        metrics[f"{layer}.py_calls_per_hop"] = _ratio(counts.get(f"calls.{layer}", 0), hops)
    return metrics
