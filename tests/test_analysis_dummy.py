"""Tests for the analysis helpers and the dummy (controller-benchmark) middlebox."""

import pytest

from repro.analysis import (
    CDF,
    ActivitySampler,
    compare_ids_outputs,
    compare_log_entries,
    compare_monitor_statistics,
    format_mapping,
    format_series,
    format_table,
    operation_windows,
)
from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.middleboxes import IDS, DummyMiddlebox, PassiveMonitor
from repro.net import Simulator, tcp_packet


class TestCDF:
    def test_quantiles_and_probabilities(self):
        cdf = CDF.from_samples(range(1, 101))
        assert cdf.at(50) == pytest.approx(0.5)
        assert cdf.quantile(0.9) == pytest.approx(90.1, abs=1.0)
        assert cdf.exceeding(90) == pytest.approx(0.1)

    def test_empty_cdf(self):
        cdf = CDF.from_samples([])
        assert cdf.at(10) == 0.0
        assert cdf.quantile(0.5) == 0.0
        assert cdf.series() == []

    def test_series_is_monotone(self):
        cdf = CDF.from_samples([5, 1, 3, 2, 4])
        series = cdf.series(points=5)
        values = [value for value, _ in series]
        probabilities = [probability for _, probability in series]
        assert values == sorted(values)
        assert probabilities == sorted(probabilities)


class TestLogComparison:
    def test_identical_multisets(self):
        comparison = compare_log_entries(["a", "b", "b"], ["b", "a", "b"])
        assert comparison.identical
        assert comparison.matching == 3

    def test_differences_reported_both_ways(self):
        comparison = compare_log_entries(["a", "b"], ["b", "c"])
        assert not comparison.identical
        assert comparison.only_in_reference == ["a"]
        assert comparison.only_in_candidate == ["c"]
        assert comparison.differences == 2

    def test_compare_ids_outputs_identical_for_same_traffic(self):
        sim = Simulator()
        reference, candidate = IDS(sim, "ref"), IDS(sim, "cand")
        from repro.traffic import enterprise_cloud_trace

        trace = enterprise_cloud_trace(http_flows=8, other_flows=3, duration=5.0, seed=40)
        for record in trace:
            reference.process_packet(record.to_packet())
            candidate.process_packet(record.to_packet())
        reference.finalize()
        candidate.finalize()
        result = compare_ids_outputs(reference, [candidate])
        assert result["conn_log"].identical
        assert result["http_log"].identical

    def test_compare_monitor_statistics_detects_mismatch(self):
        sim = Simulator()
        reference, candidate = PassiveMonitor(sim, "ref"), PassiveMonitor(sim, "cand")
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 80)
        reference.process_packet(packet)
        assert compare_monitor_statistics(reference, [candidate])  # mismatch reported
        candidate.process_packet(packet)
        assert compare_monitor_statistics(reference, [candidate]) == {}


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table("Title", ["col", "value"], [["a", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert lines[0] == "== Title =="
        assert "col" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_series_and_mapping(self):
        assert "== S ==" in format_series("S", [(1, 2)], x_label="x", y_label="y")
        assert "metric" in format_mapping("M", {"a": 1})

    def test_float_formatting(self):
        text = format_table("T", ["v"], [[0.000012345], [12345.6]])
        assert "e-05" in text and "e+04" in text.lower() or "1.235e" in text


class TestActivitySampler:
    def test_samples_counters_over_time(self):
        sim = Simulator()
        monitor = PassiveMonitor(sim, "mon")
        sampler = ActivitySampler(sim, [monitor], interval=0.01)
        sampler.start(duration=0.1)
        for index in range(20):
            packet = tcp_packet("10.0.0.1", "192.0.2.1", 1000, 80, b"x")
            sim.schedule(0.005 * index, monitor.receive, packet, 1)
        sim.run()
        series = sampler.series["mon"]
        assert len(series.samples) >= 10
        assert series.samples[-1].packets_received == 20
        rates = series.rates()
        assert any(rate > 0 for _, rate, _, _ in rates)

    def test_operation_windows_extraction(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1))
        nb = NorthboundAPI(controller)
        src = DummyMiddlebox(sim, "src", chunk_count=20)
        dst = DummyMiddlebox(sim, "dst")
        controller.register(src)
        controller.register(dst)
        handle = nb.move_internal("src", "dst", None)
        sim.run_until(handle.finalized)
        windows = operation_windows(controller.stats.records)
        assert len(windows) == 1
        window = windows[0]
        assert window.op_type == "moveInternal"
        assert window.completed_at > window.started_at
        assert window.finalized_at >= window.completed_at
        assert window.chunks == 40  # 20 supporting + 20 reporting chunks


class TestDummyMiddlebox:
    def test_populate_creates_fixed_size_chunks(self):
        dummy = DummyMiddlebox(Simulator(), "dummy", chunk_count=50)
        assert len(dummy.support_store) == 50
        assert len(dummy.report_store) == 50

    def test_flow_keys_are_distinct(self):
        dummy = DummyMiddlebox(Simulator(), "dummy", chunk_count=500)
        keys = {dummy.flow_key_for(index) for index in range(500)}
        assert len(keys) == 500

    def test_generate_reprocess_event_reaches_sink(self):
        dummy = DummyMiddlebox(Simulator(), "dummy", chunk_count=5)
        events = []
        dummy.set_event_sink(events.append)
        dummy.generate_reprocess_event(0)
        assert len(events) == 1 and events[0].is_reprocess

    def test_generate_events_at_rate(self):
        sim = Simulator()
        dummy = DummyMiddlebox(sim, "dummy", chunk_count=10)
        events = []
        dummy.set_event_sink(events.append)
        scheduled = dummy.generate_events_at_rate(100.0, 0.5)
        sim.run()
        assert scheduled == 50
        assert len(events) == 50

    def test_move_between_dummies_transfers_all_chunks(self):
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1))
        nb = NorthboundAPI(controller)
        src = DummyMiddlebox(sim, "src", chunk_count=100)
        dst = DummyMiddlebox(sim, "dst")
        controller.register(src)
        controller.register(dst)
        record = sim.run_until(nb.move_internal("src", "dst", None).completed)
        assert record.chunks_transferred == 200
        assert len(dst.support_store) == 100
