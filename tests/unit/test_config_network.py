"""Unit tests for the network / sensor / handoff configuration."""

import math

import pytest

from repro import units
from repro.batch import OperatingPoint, evaluate_points
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import (
    MAX_ABS_DB,
    MAX_DISTANCE_M,
    MAX_HANDOFF_LATENCY_MS,
    MAX_POWER_W,
    MIN_BANDWIDTH_MHZ,
    MIN_CARRIER_FREQUENCY_GHZ,
    MIN_PROPAGATION_SPEED_M_PER_S,
    MIN_SENSOR_RATE_HZ,
    MIN_THROUGHPUT_MBPS,
    HandoffConfig,
    NetworkConfig,
    SensorConfig,
)
from repro.core.framework import XRPerformanceModel
from repro.exceptions import ConfigurationError
from repro.fleet.contention import ContentionModel


class TestSensorConfig:
    def test_generation_period(self):
        sensor = SensorConfig(name="s", generation_frequency_hz=200.0)
        assert sensor.generation_period_ms == pytest.approx(5.0)

    def test_default_arrival_rate_equals_generation_rate(self):
        sensor = SensorConfig(name="s", generation_frequency_hz=120.0)
        assert sensor.effective_arrival_rate_hz == pytest.approx(120.0)

    def test_explicit_arrival_rate_wins(self):
        sensor = SensorConfig(
            name="s", generation_frequency_hz=120.0, arrival_rate_hz=60.0
        )
        assert sensor.effective_arrival_rate_hz == pytest.approx(60.0)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ConfigurationError):
            SensorConfig(name="s", generation_frequency_hz=0.0)


class TestHandoffConfig:
    def test_disabled_by_default(self):
        assert not HandoffConfig().enabled

    def test_probability_must_be_fraction(self):
        with pytest.raises(ConfigurationError):
            HandoffConfig(handoff_probability=1.5)

    def test_cell_radius_positive(self):
        with pytest.raises(ConfigurationError):
            HandoffConfig(cell_radius_m=0.0)


class TestNetworkConfig:
    def test_default_has_three_sensors(self, network):
        assert len(network.sensors) == 3

    def test_sensor_names_must_be_unique(self):
        sensors = (
            SensorConfig(name="dup", generation_frequency_hz=10.0),
            SensorConfig(name="dup", generation_frequency_hz=20.0),
        )
        with pytest.raises(ConfigurationError, match="unique"):
            NetworkConfig(sensors=sensors)

    def test_total_sensor_arrival_rate(self, network):
        expected = sum(s.generation_frequency_hz for s in network.sensors)
        assert network.total_sensor_arrival_rate_hz == pytest.approx(expected)

    def test_edge_propagation_delay(self, network):
        assert network.propagation_delay_ms(network.edge_distance_m) == pytest.approx(
            units.propagation_delay_ms(network.edge_distance_m)
        )

    def test_with_throughput(self, network):
        assert network.with_throughput(50.0).throughput_mbps == pytest.approx(50.0)

    def test_rejects_zero_throughput(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(throughput_mbps=0.0)

    def test_empty_sensor_population_allowed(self):
        assert NetworkConfig(sensors=()).sensors == ()
        assert NetworkConfig(sensors=()).total_sensor_arrival_rate_hz == 0.0


def _sensor(**changes):
    return (SensorConfig(**{"name": "s", "generation_frequency_hz": 100.0, **changes}),)


class TestNetworkBounds:
    @pytest.mark.parametrize(
        "build, field",
        [
            # Unbounded, a remote analyze() raised a bare ZeroDivisionError
            # on the first three while evaluate_points returned inf totals,
            (lambda: NetworkConfig(throughput_mbps=5e-324), "throughput_mbps"),
            (lambda: NetworkConfig(edge_distance_m=math.inf), "edge_distance_m"),
            (
                lambda: NetworkConfig(
                    handoff=HandoffConfig(enabled=True, handoff_latency_ms=math.inf)
                ),
                "handoff_latency_ms",
            ),
            # in local mode too on this one,
            (
                lambda: NetworkConfig(propagation_speed_m_per_s=5e-324),
                "propagation_speed_m_per_s",
            ),
            # both paths reported infinite energy on the next two,
            (lambda: NetworkConfig(radio_tx_power_w=math.inf), "radio_tx_power_w"),
            (
                lambda: NetworkConfig(handoff=HandoffConfig(enabled=True, power_w=math.inf)),
                "power_w",
            ),
            # a local analyze() was finite but evaluate_points raised here,
            (
                lambda: NetworkConfig(enable_path_loss=True, path_loss_exponent=1e300),
                "path_loss_exponent",
            ),
            # the totals were NaN here, an OverflowError was raised here,
            (lambda: NetworkConfig(enable_path_loss=True, tx_power_dbm=math.nan), "tx_power_dbm"),
            (lambda: NetworkConfig(enable_path_loss=True, tx_power_dbm=1e300), "tx_power_dbm"),
            # the path-loss model raised a ModelDomainError here,
            (lambda: NetworkConfig(enable_path_loss=True, edge_distance_m=0.0), "edge_distance_m"),
            # and a link budget of 0 Mbps, within every field's own bounds,
            # split the paths as path_loss_exponent=1e300 did.
            (
                lambda: NetworkConfig(
                    enable_path_loss=True, path_loss_exponent=10.0, edge_distance_m=1e6
                ),
                "path_loss_exponent",
            ),
        ],
    )
    def test_values_that_broke_the_model_are_rejected(self, build, field):
        with pytest.raises(ConfigurationError, match=field):
            build()

    @pytest.mark.parametrize(
        "network",
        [
            NetworkConfig(throughput_mbps=MIN_THROUGHPUT_MBPS),
            NetworkConfig(edge_distance_m=MAX_DISTANCE_M),
            NetworkConfig(propagation_speed_m_per_s=MIN_PROPAGATION_SPEED_M_PER_S),
            NetworkConfig(
                handoff=HandoffConfig(
                    enabled=True, handoff_latency_ms=MAX_HANDOFF_LATENCY_MS, power_w=MAX_POWER_W
                ),
                radio_tx_power_w=MAX_POWER_W,
            ),
            NetworkConfig(sensors=_sensor(generation_frequency_hz=MIN_SENSOR_RATE_HZ)),
            NetworkConfig(sensors=_sensor(distance_m=MAX_DISTANCE_M)),
            NetworkConfig(
                enable_path_loss=True,
                tx_power_dbm=MAX_ABS_DB,
                carrier_frequency_ghz=MIN_CARRIER_FREQUENCY_GHZ,
            ),
            NetworkConfig(enable_path_loss=True, bandwidth_mhz=MIN_BANDWIDTH_MHZ),
        ],
    )
    @pytest.mark.parametrize("mode", [ExecutionMode.LOCAL, ExecutionMode.REMOTE])
    def test_bounds_analyze_to_the_same_finite_totals_in_both_paths(self, network, mode):
        app = ApplicationConfig().with_mode(mode)
        report = XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze(app, network)
        batch = evaluate_points([OperatingPoint(app=app, network=network)])
        assert math.isfinite(report.total_latency_ms)
        assert math.isfinite(report.total_energy_mj)
        assert batch.total_latency_ms[0] == pytest.approx(report.total_latency_ms, rel=1e-9)
        assert batch.total_energy_mj[0] == pytest.approx(report.total_energy_mj, rel=1e-9)

    def test_bounds_admit_a_10k_user_fleets_contended_share(self):
        share = ContentionModel(network=NetworkConfig()).network_for(10_000)
        assert MIN_THROUGHPUT_MBPS < share.throughput_mbps < 0.02


class TestWorkloadAndSweep:
    def test_sweep_points_count(self, quick_sweep):
        assert quick_sweep.n_points == len(list(quick_sweep.points()))

    def test_paper_sweep_is_5_by_3(self):
        from repro.config.workload import SweepConfig

        sweep = SweepConfig.paper_default()
        assert sweep.n_points == 15

    def test_workload_required_frequency(self, aoi_workload):
        assert aoi_workload.required_update_frequency_hz == pytest.approx(200.0)

    def test_workload_distance_length_mismatch_rejected(self):
        from repro.config.workload import WorkloadConfig

        with pytest.raises(ConfigurationError):
            WorkloadConfig(sensor_frequencies_hz=(10.0, 20.0), sensor_distances_m=(1.0,))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"horizon_ms": math.inf}, "horizon_ms"),
            ({"horizon_ms": math.nan}, "horizon_ms"),
            (
                {"sensor_frequencies_hz": (math.inf,), "sensor_distances_m": (1.0,)},
                "sensor_frequencies_hz",
            ),
            (
                {"sensor_frequencies_hz": (1e300,), "sensor_distances_m": (1.0,)},
                "sensor_frequencies_hz",
            ),
        ],
    )
    def test_workload_rejects_what_the_emulation_cannot_list(self, overrides, field):
        # The AoI emulation lists every packet: an infinite horizon used to
        # overflow and a huge rate never returned.
        from repro.config.workload import WorkloadConfig

        with pytest.raises(ConfigurationError, match=field):
            WorkloadConfig(**overrides)

    def test_workload_packet_bound_is_inclusive(self):
        from repro.config.workload import MAX_WORKLOAD_PACKETS, WorkloadConfig

        # A 1 kHz sensor over MAX_WORKLOAD_PACKETS ms generates exactly the
        # bound's packets, which is allowed; one more millisecond's worth is not.
        WorkloadConfig(
            sensor_frequencies_hz=(1e3,),
            sensor_distances_m=(1.0,),
            horizon_ms=MAX_WORKLOAD_PACKETS,
        )
        with pytest.raises(ConfigurationError, match="packets"):
            WorkloadConfig(
                sensor_frequencies_hz=(1e3,),
                sensor_distances_m=(1.0,),
                horizon_ms=MAX_WORKLOAD_PACKETS + 1.0,
            )
