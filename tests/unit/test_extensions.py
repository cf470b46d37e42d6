"""Unit tests for the extension experiments."""


from repro.evaluation.extensions import (
    adaptation_extension,
    mobility_extension,
    multi_edge_extension,
    pathloss_extension,
    session_extension,
)


class TestMobilityExtension:
    def test_latency_grows_with_speed(self):
        result = mobility_extension()
        latencies = [float(row[2]) for row in result.rows]
        assert latencies[0] < latencies[-1]

    def test_stationary_device_pays_no_handoff(self):
        result = mobility_extension(speeds_m_per_s=(0.0, 10.0))
        assert float(result.rows[0][1]) == 0.0
        assert float(result.rows[1][1]) > 0.0

    def test_to_text_contains_headline(self):
        result = mobility_extension(speeds_m_per_s=(0.0, 5.0))
        assert "handoff" in result.to_text()


class TestPathlossExtension:
    def test_throughput_decreases_with_distance(self):
        result = pathloss_extension()
        throughputs = [float(row[1]) for row in result.rows]
        assert throughputs == sorted(throughputs, reverse=True)
        assert throughputs[0] > throughputs[-1]

    def test_transmission_latency_increases_with_distance(self):
        result = pathloss_extension()
        transmissions = [float(row[2]) for row in result.rows]
        assert transmissions[-1] > transmissions[0]


class TestMultiEdgeExtension:
    def test_remote_inference_speeds_up_with_servers(self):
        result = multi_edge_extension(max_servers=4)
        remote = [float(row[1]) for row in result.rows]
        assert remote == sorted(remote, reverse=True)
        assert remote[-1] < remote[0]

    def test_end_to_end_gain_is_bounded(self):
        result = multi_edge_extension(max_servers=4)
        totals = [float(row[2]) for row in result.rows]
        # Encoding/transmission dominate, so the total shrinks by far less
        # than the per-segment speedup.
        assert (totals[0] - totals[-1]) / totals[0] < 0.5


class TestSessionExtension:
    def test_session_extension_reports_key_metrics(self):
        result = session_extension(n_frames=60, seed=5)
        text = result.to_text()
        assert "p99 latency" in text
        assert "battery life" in text
        assert len(result.rows) == 7


class TestAdaptationExtension:
    def test_adaptation_extension_compares_controllers(self):
        result = adaptation_extension(n_epochs=40, seed=5)
        text = result.to_text()
        assert "greedy-sweep" in text
        assert "static[" in text
        assert len(result.rows) == 4

    def test_headline_reports_quality_lift(self):
        result = adaptation_extension(n_epochs=40, seed=5)
        assert "quality" in result.headline
