"""Tests for the perf layer: counters, bench matrix, executor integration,
and the byte-identity guarantee over the hot-path optimizations."""

import cProfile
import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.analysis import events, sanitize
from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.experiments.spec import attach_perf, canonical_json
from repro.net.profiles import lte_config, wifi_config
from repro.obs import flight
from repro.perf import counters as perf
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    WORKLOADS,
    compare,
    current_rev,
    report_to_dict,
    run_bench,
    run_workload,
)
from repro.perf.profiler import profiling
from repro.sim import probe
from repro.sim.engine import Simulator
from repro.workloads.web import WebBrowsingSpec, cnn_like_page, run_web

SMALL_BULK = BulkDownloadSpec(
    scheduler="ecf",
    path_configs=(wifi_config(1.0), lte_config(8.6)),
    size=128_000,
    seed=1,
)


class TestCollector:
    def test_no_collection_by_default(self):
        assert probe.installed("perf") is None
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()  # nothing to assert beyond "untouched hot path works"

    def test_collecting_adopts_simulators_built_inside(self):
        with perf.collecting() as collector:
            sim = Simulator()
            for i in range(5):
                sim.schedule(1.0 + i, lambda: None)
            sim.run()
        snap = collector.snapshot()
        assert snap.events_dispatched == 5
        assert snap.timers_scheduled == 5
        assert snap.sim_time == 5.0

    def test_objects_outside_window_not_adopted(self):
        sim = Simulator()  # built before the window opens
        with perf.collecting() as collector:
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert collector.snapshot().events_dispatched == 0

    def test_windows_nest_and_restore(self):
        def one_event():
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()

        with perf.collecting() as outer:
            with perf.collecting() as inner:
                one_event()
            assert outer.snapshot().events_dispatched == 0  # the innermost wins
            one_event()
        one_event()
        assert inner.snapshot().events_dispatched == 1
        assert outer.snapshot().events_dispatched == 1  # back after the inner exits
        assert probe.installed("perf") is None

    def test_window_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with perf.collecting():
                raise RuntimeError("boom")
        assert probe.installed("perf") is None

    def test_perf_window_keeps_the_bare_hot_path(self, sanitizer_off):
        with perf.collecting():
            assert probe.PROBE is None

    def test_full_run_populates_every_counter_family(self):
        result, record = perf.measure(run_bulk, SMALL_BULK)
        snap = record.counters
        assert snap.events_dispatched > 0
        assert snap.timers_scheduled >= snap.events_dispatched
        assert snap.packets_in > 0
        assert snap.packets_delivered > 0
        assert snap.bytes_delivered >= SMALL_BULK.size
        assert snap.scheduler_decisions > 0
        assert record.events == snap.events_dispatched
        assert record.wall_s > 0
        assert record.sim_s == snap.sim_time > 0
        assert result.completion_time > 0

    def test_counters_are_deterministic(self):
        _, first = perf.measure(run_bulk, SMALL_BULK)
        _, second = perf.measure(run_bulk, SMALL_BULK)
        assert first.counters == second.counters

    def test_record_to_dict_shape(self):
        _, record = perf.measure(run_bulk, SMALL_BULK)
        data = record.to_dict()
        assert set(data) == {"wall_s", "sim_s", "events", "events_per_wall_s", "counters"}
        assert data["events"] == record.events
        json.dumps(data)  # JSON-serializable throughout


class TestPerfEnabled:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv(perf.ENV_VAR, raising=False)
        assert not perf.perf_enabled()
        monkeypatch.setenv(perf.ENV_VAR, "0")
        assert not perf.perf_enabled()
        monkeypatch.setenv(perf.ENV_VAR, "1")
        assert perf.perf_enabled()


class TestAttachPerf:
    def test_attach_and_wire_round_trip(self):
        result, record = perf.measure(run_bulk, SMALL_BULK)
        attach_perf(result, record.to_dict())
        data = result.to_dict()
        assert data["perf"]["events"] == record.events
        rebuilt = type(result).from_dict(data)
        assert rebuilt.perf == data["perf"]

    def test_wire_format_unchanged_without_perf(self):
        result = run_bulk(SMALL_BULK)
        assert "perf" not in result.to_dict()

    def test_rejects_objects_without_perf_field(self):
        with pytest.raises(TypeError):
            attach_perf(object(), {"events": 1})


class TestExecutorIntegration:
    def test_repro_perf_attaches_record(self, monkeypatch, tmp_path):
        from repro.experiments.exec import run_specs

        monkeypatch.setenv(perf.ENV_VAR, "1")
        [result] = run_specs([SMALL_BULK], cache_dir=tmp_path)
        assert result.perf is not None
        assert result.perf["events"] > 0
        assert result.perf["counters"]["packets_delivered"] > 0

    def test_cache_entries_stay_perf_free(self, monkeypatch, tmp_path):
        from repro.experiments.exec import run_specs

        monkeypatch.setenv(perf.ENV_VAR, "1")
        [first] = run_specs([SMALL_BULK], cache_dir=tmp_path)
        assert first.perf is not None
        # The hit must rebuild from a deterministic (perf-free) entry.
        [second] = run_specs([SMALL_BULK], cache_dir=tmp_path)
        assert second.perf is None
        assert canonical_json(second.to_dict()) == canonical_json(
            run_bulk(SMALL_BULK).to_dict()
        )

    def test_disabled_by_default(self, monkeypatch, tmp_path):
        from repro.experiments.exec import run_specs

        monkeypatch.delenv(perf.ENV_VAR, raising=False)
        [result] = run_specs([SMALL_BULK], cache_dir=tmp_path)
        assert result.perf is None


class TestBench:
    def test_matrix_runs_all_workloads(self):
        records = run_bench(scale=0.02)
        assert set(records) == set(WORKLOADS)
        for name, record in records.items():
            assert record.events > 0, name
            assert record.sim_s > 0, name
            assert record.wall_s > 0, name

    def test_report_schema(self):
        record = run_workload("bulk", scale=0.02)
        report = report_to_dict({"bulk": record}, rev="abc1234", scale=0.02)
        assert report["schema_version"] == BENCH_SCHEMA_VERSION
        assert report["rev"] == "abc1234"
        entry = report["workloads"]["bulk"]
        assert set(entry) == {"wall_s", "sim_s", "events", "events_per_wall_s", "counters"}
        json.dumps(report)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_workload("nope", scale=1.0)
        with pytest.raises(ValueError):
            run_workload("bulk", scale=0.0)
        with pytest.raises(ValueError):
            run_workload("bulk", scale=0.02, repeat=0)

    def test_repeat_keeps_deterministic_counters(self):
        once = run_workload("bulk", scale=0.02)
        best = run_workload("bulk", scale=0.02, repeat=3)
        assert best.events == once.events
        assert best.counters == once.counters

    def test_current_rev_is_short_string(self):
        rev = current_rev()
        assert isinstance(rev, str) and rev
        assert "/" not in rev and "\n" not in rev


class TestCompare:
    BASE = {"workloads": {"bulk": {"events_per_wall_s": 100_000.0}}}

    def test_no_complaint_within_tolerance(self):
        report = {"workloads": {"bulk": {"events_per_wall_s": 80_000.0}}}
        assert compare(report, self.BASE, tolerance=0.30) == []

    def test_detects_regression(self):
        report = {"workloads": {"bulk": {"events_per_wall_s": 60_000.0}}}
        complaints = compare(report, self.BASE, tolerance=0.30)
        assert len(complaints) == 1 and "bulk" in complaints[0]

    def test_new_workloads_not_compared(self):
        report = {"workloads": {"brand_new": {"events_per_wall_s": 1.0}}}
        assert compare(report, self.BASE) == []

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            compare(self.BASE, self.BASE, tolerance=1.5)


class TestByteIdentity:
    """The hot-path optimizations must not change a single output byte.

    The digests were captured from the pre-optimization tree; any engine,
    link, packet, or scheduler change that alters event order or results
    shows up here as a digest mismatch.
    """

    def _cases(self):
        paths = (wifi_config(1.0), lte_config(8.6))
        page = cnn_like_page()
        return {
            "bulk_ecf": (run_bulk, BulkDownloadSpec(
                scheduler="ecf", path_configs=paths, size=256_000, seed=3)),
            "bulk_minrtt": (run_bulk, BulkDownloadSpec(
                scheduler="minrtt", path_configs=paths, size=256_000, seed=3)),
            "dash_ecf": (run_streaming, StreamingRunConfig(
                scheduler="ecf", wifi_mbps=4.2, lte_mbps=8.6,
                video_duration=12.0, seed=3)),
            "dash_minrtt": (run_streaming, StreamingRunConfig(
                scheduler="minrtt", wifi_mbps=0.7, lte_mbps=8.6,
                video_duration=12.0, seed=3)),
            "dash_4sf": (run_streaming, StreamingRunConfig(
                scheduler="ecf", wifi_mbps=4.2, lte_mbps=8.6,
                video_duration=10.0, seed=3, subflows_per_interface=2)),
            "web_ecf": (run_web, WebBrowsingSpec(
                scheduler="ecf", path_configs=paths, seed=3,
                object_sizes=page.object_sizes[:24])),
        }

    def test_golden_digests_match(self, golden_digests):
        for name, (runner, spec) in self._cases().items():
            result = runner(spec)
            digest = hashlib.sha256(
                canonical_json(result.to_dict()).encode()
            ).hexdigest()
            assert digest == golden_digests[name], (
                f"{name}: output diverged from the pre-optimization golden"
            )

    def test_perf_collection_does_not_perturb_results(self):
        """Measuring a run must not change its outcome."""
        runner, spec = self._cases()["bulk_ecf"]
        plain = canonical_json(runner(spec).to_dict())
        measured, _record = perf.measure(runner, spec)
        assert canonical_json(measured.to_dict()) == plain


class TestAllToolsAtOnce:
    """Every tool on at once changes no result and no record.

    The sanitizer and the profiler send ``Simulator.run`` down its probed
    loop, so this is the proof that the bare and probed loops agree.
    """

    def test_golden_digests_and_event_log_unchanged(self, golden_digests):
        for name, (runner, spec) in TestByteIdentity()._cases().items():
            with events.recording() as alone:
                runner(spec)
            was_on = sanitize.enabled()
            sanitize.enable()
            try:
                with perf.collecting() as collector, flight.flight() as recorder, \
                        profiling() as prof, events.recording() as log:
                    result = runner(spec)
            finally:
                if not was_on:
                    sanitize.disable()
            digest = hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest()
            assert digest == golden_digests[name], name
            assert len(log) > 0
            assert _uid_free(log) == _uid_free(alone), name
            assert collector.snapshot().events_dispatched > 0
            assert recorder.counters().events_dispatched > 0
            assert prof.report()["runs"] > 0


def _uid_free(log):
    """Records with each process-unique uid renumbered by first appearance,
    so two runs of one spec compare record for record."""
    renumber = {}
    out = []
    for event in log:
        record = event.to_dict()
        for key, value in record.items():
            if key.endswith("uid"):
                record[key] = renumber.setdefault(value, len(renumber))
        out.append(record)
    return out


class TestWorkCount:
    """Python calls per packet-hop on the golden ``dash_ecf`` run.

    A deterministic work count, so a ceiling catches a hot-path
    regression that wall time on a noisy host would hide.  The count is
    Python-version dependent (3.12 inlines comprehensions, PEP 709), so
    this is an upper bound, not an exact figure: 27.6 calls per hop
    measured on Python 3.11, plus about 8% headroom.
    """

    CEILING = 30.0

    def test_repro_calls_per_link_delivery(self, sanitizer_off):
        # Count the plain hot path, also where the suite runs with
        # REPRO_SANITIZE=1 (the sanitizer adds several calls per hop).
        runner, spec = TestByteIdentity()._cases()["dash_ecf"]
        profile = cProfile.Profile()
        with perf.collecting() as collector:
            profile.enable()
            try:
                runner(spec)
            finally:
                profile.disable()
        hops = collector.snapshot().packets_delivered
        root = Path(repro.__file__).resolve().parent
        calls = sum(
            entry.callcount
            for entry in profile.getstats()
            if not isinstance(entry.code, str)  # C functions
            and root in Path(entry.code.co_filename).resolve().parents
        )
        assert hops > 1000
        assert calls / hops <= self.CEILING, (
            f"{calls / hops:.1f} repro calls per link delivery "
            f"(ceiling {self.CEILING})"
        )


@pytest.fixture
def sanitizer_off():
    """Switch the sanitizer off for one test (``REPRO_SANITIZE=1`` runs)."""
    was_on = sanitize.enabled()
    sanitize.disable()
    try:
        yield
    finally:
        if was_on:
            sanitize.enable()


@pytest.fixture(scope="module")
def golden_digests():
    path = Path(__file__).parent / "data" / "golden_perf_digests.json"
    return json.loads(path.read_text())
