"""The benchmark's four workloads: inputs from a seed, one pass, checks.

Every workload is a closed loop run from one process: a *pass* is the
workload's fixed work for its seed, and the next pass starts when the
previous one ends.  A pass returns a :class:`PassResult` holding the
canonical-JSON digest of everything it simulated, per-operation host
latencies for its main phase, and the output checks that failed.

Only public ``repro`` APIs are called.  The two timestamp hooks this
module installs (the campaign runner's ``on_outcome`` callback and a
wrapper around ``repro.experiments.twin.fork``) sit on public entry
points and record nothing but ``perf_counter`` readings.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List

from repro.apps.bulk import BulkDownloadSpec
from repro.experiments import twin
from repro.experiments.runner import StreamingRunConfig
from repro.experiments.spec import canonical_json, run_spec
from repro.net.profiles import lte_config, wifi_config
from repro.obs.journal import read_journal
from repro.service import CampaignRunner, CampaignStore, InlineBackendConfig
from repro.workloads.web import WebBrowsingSpec, cnn_like_page

clock = time.perf_counter

#: dash_hetero: the paper's headline heterogeneous regime (Figs 2, 9-14).
DASH_WIFI_MBPS, DASH_LTE_MBPS, DASH_VIDEO_S = 0.7, 8.6, 60.0

#: web_page: the Fig 20-21 setting.  Page seeds are fixed and the
#: workload seed shuffles each page's object order (the browser queue
#: order): page weight varies by 10-18% (interquartile range) between
#: random draws of eight pages, which would swamp any regression bound,
#: while shuffles keep engine events within 0.5% across seeds.
WEB_WIFI_MBPS, WEB_LTE_MBPS, WEB_PAGES = 1.0, 10.0, 8

#: campaign_drain: tiny bulk downloads, alternating ECF/minRTT.
CAMPAIGN_JOBS, CAMPAIGN_SIZE = 200, 16_000

#: twin_regret: one bulk download forked at its first decisions; the
#: checkpoint interval makes ``capture`` run about 17 times per report.
TWIN_SIZE, TWIN_FORKS, TWIN_CHECKPOINT_EVERY = 512_000, 40, 100


def digest(payload: Any) -> str:
    """sha256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _result_dicts(results: List[Any]) -> List[Dict[str, Any]]:
    return [{k: v for k, v in r.to_dict().items() if k != "perf"} for r in results]


@dataclass
class PassResult:
    """One pass of a workload's fixed work."""

    digest: str
    #: Host milliseconds per operation of the main phase.
    op_ms: List[float]
    #: Host seconds of the main phase (``len(op_ms) / phase_s`` = ops/s).
    phase_s: float
    failures: List[str] = field(default_factory=list)
    #: Workload-specific host timings, reported as named outputs.
    extra: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    #: What one operation is, for the report.
    op: str
    make_inputs: Callable[[int], Any]
    build_first_world: Callable[[Any, str], None]
    run_pass: Callable[[Any, str], PassResult]
    #: Checks run once per run, outside the timed passes.
    final_checks: Callable[[Any, str], List[str]] = lambda inputs, workdir: []
    #: Tail percentile reported for the operation latency, where ten
    #: samples lie beyond it.
    tail_pct: int = 95


def _seeded(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _timed_runs(specs: List[Any]) -> tuple:
    results, op_ms = [], []
    start = clock()
    for spec in specs:
        t0 = clock()
        results.append(run_spec(spec))
        op_ms.append((clock() - t0) * 1e3)
    return results, op_ms, clock() - start


# ----------------------------------------------------------------------
# dash_hetero
# ----------------------------------------------------------------------


def dash_inputs(seed: int) -> List[StreamingRunConfig]:
    rng = _seeded("dash_hetero", seed)
    return [StreamingRunConfig(
        scheduler="ecf", wifi_mbps=DASH_WIFI_MBPS, lte_mbps=DASH_LTE_MBPS,
        video_duration=DASH_VIDEO_S, seed=rng.randrange(2**31),
    )]


def dash_first_world(specs: List[StreamingRunConfig], workdir: str) -> None:
    # A zero-length run builds paths, connection, HTTP session and player.
    run_spec(dataclasses.replace(specs[0], time_limit=0.0))


def dash_pass(specs: List[StreamingRunConfig], workdir: str) -> PassResult:
    results, op_ms, phase_s = _timed_runs(specs)
    failures = []
    for spec, result in zip(specs, results):
        chunks = result.metrics.chunks
        expected = int(round(spec.video_duration / spec.chunk_duration))
        if not result.finished:
            failures.append("dash: session did not finish")
        if sorted(c.index for c in chunks) != list(range(expected)):
            failures.append(f"dash: {len(chunks)} of {expected} chunks downloaded")
        if sum(result.payload_by_interface.values()) < sum(c.size for c in chunks):
            failures.append("dash: fewer payload bytes sent than chunk bytes")
    return PassResult(digest(_result_dicts(results)), op_ms, phase_s, failures)


# ----------------------------------------------------------------------
# web_page
# ----------------------------------------------------------------------


def web_inputs(seed: int) -> List[WebBrowsingSpec]:
    rng = _seeded("web_page", seed)
    paths = (wifi_config(WEB_WIFI_MBPS), lte_config(WEB_LTE_MBPS))
    specs = []
    for page_seed in range(WEB_PAGES):
        sizes = list(cnn_like_page(seed=2014 + page_seed).object_sizes)
        rng.shuffle(sizes)
        specs.append(WebBrowsingSpec(
            scheduler="ecf", path_configs=paths, seed=page_seed,
            object_sizes=tuple(sizes),
        ))
    return specs


def web_first_world(specs: List[WebBrowsingSpec], workdir: str) -> None:
    run_spec(dataclasses.replace(specs[0], timeout=0.0))


def web_pass(specs: List[WebBrowsingSpec], workdir: str) -> PassResult:
    results, op_ms, phase_s = _timed_runs(specs)
    failures = []
    for spec, result in zip(specs, results):
        objects = len(spec.object_sizes)
        if not (result.complete and result.total_objects == objects
                and len(result.object_completion_times) == objects):
            failures.append(
                f"web: {result.objects_completed} of {objects} objects completed"
            )
        if result.page_load_time <= 0:
            failures.append("web: no page load time")
    return PassResult(digest(_result_dicts(results)), op_ms, phase_s, failures)


# ----------------------------------------------------------------------
# campaign_drain
# ----------------------------------------------------------------------


def campaign_inputs(seed: int) -> List[BulkDownloadSpec]:
    rng = _seeded("campaign_drain", seed)
    return [BulkDownloadSpec(
        scheduler="ecf" if i % 2 == 0 else "minrtt",
        path_configs=(wifi_config(round(rng.uniform(0.3, 4.0), 3)), lte_config(8.6)),
        size=CAMPAIGN_SIZE, seed=rng.randrange(2**31),
    ) for i in range(CAMPAIGN_JOBS)]


def campaign_first_world(specs: List[BulkDownloadSpec], workdir: str) -> None:
    with CampaignStore(os.path.join(workdir, "setup.db")) as store:
        CampaignRunner(store, "setup", backend=InlineBackendConfig(),
                       cache_dir=os.path.join(workdir, "setup-cache"))
    twin.build_world(specs[0])


def _drain(specs: List[BulkDownloadSpec], workdir: str, phase: str, cache: str) -> tuple:
    """Submit, drain and fetch ``specs`` into a fresh store; per-job gaps."""
    stamps: List[float] = []
    journal = os.path.join(workdir, f"{phase}.jsonl")
    with CampaignStore(os.path.join(workdir, f"{phase}.db")) as store:
        runner = CampaignRunner(
            store, phase, backend=InlineBackendConfig(), cache_dir=cache,
            journal=journal, on_outcome=lambda outcome: stamps.append(clock()),
        )
        start = clock()
        runner.submit(specs)
        drain_start = clock()
        counts = runner.drain()
        results = runner.fetch(specs)
        phase_s = clock() - start
    gaps = [(b - a) * 1e3 for a, b in zip([drain_start] + stamps, stamps)]
    statuses = [r["status"] for r in read_journal(journal) if r.get("record") == "job"]
    return results, gaps, phase_s, counts, statuses


def campaign_pass(specs: List[BulkDownloadSpec], workdir: str) -> PassResult:
    # A fresh directory per pass, never deleted: deleting hundreds of files
    # makes the file system's discards slow down later SQLite commits.
    work = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
    cache = os.path.join(work, "cache")
    cold, cold_ms, cold_s, cold_counts, cold_status = _drain(specs, work, "cold", cache)
    warm, warm_ms, warm_s, warm_counts, warm_status = _drain(specs, work, "warm", cache)
    n = len(specs)
    failures = []
    for phase, counts in (("cold", cold_counts), ("warm", warm_counts)):
        if counts.get("done") != n or sum(counts.values()) != n:
            failures.append(f"campaign: {phase} drain ended with {counts}")
    if cold_status != ["executed"] * n:
        failures.append("campaign: cold journal has records other than 'executed'")
    if warm_status != ["cached"] * n:
        failures.append("campaign: warm journal has records other than 'cached'")
    cold_dicts = _result_dicts(cold)
    if _result_dicts(warm) != cold_dicts:
        failures.append("campaign: warm results differ from cold results")
    for spec, result in zip(specs, cold):
        if result.size != spec.size or sum(result.payload_by_path.values()) < spec.size:
            failures.append("campaign: a download sent fewer bytes than requested")
            break
        if not result.completion_time > 0:
            failures.append("campaign: a download has no completion time")
            break
    return PassResult(
        digest(cold_dicts), cold_ms, cold_s, failures,
        extra={"cached_job_ms": warm_ms, "cold_phase_s": [cold_s],
               "warm_phase_s": [warm_s]},
    )


# ----------------------------------------------------------------------
# twin_regret
# ----------------------------------------------------------------------


def twin_inputs(seed: int) -> BulkDownloadSpec:
    rng = _seeded("twin_regret", seed)
    return BulkDownloadSpec(
        scheduler="ecf", path_configs=(wifi_config(1.0), lte_config(8.6)),
        size=TWIN_SIZE, seed=rng.randrange(2**31),
    )


def twin_first_world(spec: BulkDownloadSpec, workdir: str) -> None:
    twin.build_world(spec)


@contextmanager
def _fork_stamps() -> Iterator[List[float]]:
    """Record when ``twin_report`` starts each counterfactual fork."""
    stamps: List[float] = []
    real = twin.fork

    @functools.wraps(real)
    def stamped(*args: Any, **kwargs: Any) -> Any:
        stamps.append(clock())
        return real(*args, **kwargs)

    twin.fork = stamped
    try:
        yield stamps
    finally:
        twin.fork = real


def twin_pass(spec: BulkDownloadSpec, workdir: str) -> PassResult:
    with _fork_stamps() as stamps:
        report = twin.twin_report(
            spec, checkpoint_every=TWIN_CHECKPOINT_EVERY, max_decisions=TWIN_FORKS
        )
        end = clock()
    fork_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:] + [end])]
    failures = []
    if report["decisions_replayed"] != TWIN_FORKS or len(stamps) != TWIN_FORKS:
        failures.append(
            f"twin: {report['decisions_replayed']} of {TWIN_FORKS} forks replayed"
        )
    baseline = report["baseline"]
    if sum(baseline["payload_by_path"].values()) < spec.size:
        failures.append("twin: straight run sent fewer bytes than requested")
    if not all(r["completion_time"] > 0 for r in report["regret"]):
        failures.append("twin: a counterfactual did not complete")
    phase_s = end - stamps[0] if stamps else 0.0
    return PassResult(digest(report), fork_ms, phase_s, failures)


def twin_checks(spec: BulkDownloadSpec, workdir: str) -> List[str]:
    """The straight run, the report baseline and a fork replay agree."""
    straight = twin.result_digest(run_spec(spec))
    proof = twin.verify_fork_equivalence(spec, checkpoint_every=TWIN_CHECKPOINT_EVERY)
    failures = []
    if not proof["ok"]:
        failures.append("twin: fork-equivalence replay digest differs")
    if proof["baseline_digest"] != straight:
        failures.append("twin: recorded run differs from the straight run_spec run")
    return failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dash_hetero", "60 s video", dash_inputs, dash_first_world, dash_pass),
        Workload("web_page", "page load", web_inputs, web_first_world, web_pass),
        Workload("campaign_drain", "cold-phase job", campaign_inputs,
                 campaign_first_world, campaign_pass),
        Workload("twin_regret", "counterfactual fork", twin_inputs, twin_first_world,
                 twin_pass, twin_checks, tail_pct=90),
    )
}
