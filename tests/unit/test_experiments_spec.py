"""Unit tests for the declarative scenario specs (repro.experiments.spec)."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    ScenarioSpec,
    ScenarioSuite,
    bundled_suite,
    load_specs,
    load_suite,
    toml_available,
)

requires_toml = pytest.mark.skipif(
    not toml_available(), reason="needs tomllib (Python >= 3.11) or tomli"
)


def _rich_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="cosim_rich",
        kind="cosim",
        description="every optional field populated",
        device="XR2",
        edge="EDGE-AGX",
        mode="remote",
        seed=11,
        app={"frame_side_px": 400.0, "cpu_freq_ghz": 1.5},
        network={"throughput_mbps": 120.0},
        params={
            "trace": "step",
            "epochs": 12,
            "users": 8,
            "controller": "greedy",
            "n_edges": 2,
            "shards": 2,
            "deadline_ms": 650.0,
            "max_iterations": 6,
        },
        expected={"deadline_miss_rate": 0.0},
        tolerances={"deadline_miss_rate": 1e-9, "total_energy_j": 0.01},
    )


class TestRoundTrip:
    def test_dict_round_trip_is_bit_equal(self):
        spec = _rich_spec()
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.to_dict() == spec.to_dict()

    def test_defaults_round_trip(self):
        spec = ScenarioSpec(name="plain", kind="analyze")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = _rich_spec()
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"scenarios": [spec.to_dict()]}))
        (loaded,) = load_specs(path)
        assert loaded == spec
        assert loaded.to_dict() == spec.to_dict()

    def test_json_bare_list_and_single_object(self, tmp_path):
        spec = ScenarioSpec(name="one", kind="sweep")
        as_list = tmp_path / "list.json"
        as_list.write_text(json.dumps([spec.to_dict()]))
        as_object = tmp_path / "object.json"
        as_object.write_text(json.dumps(spec.to_dict()))
        assert load_specs(as_list) == [spec]
        assert load_specs(as_object) == [spec]

    @requires_toml
    def test_toml_file_round_trip(self, tmp_path):
        path = tmp_path / "suite.toml"
        path.write_text(
            "\n".join(
                [
                    "[[scenario]]",
                    'name = "adapt_toml"',
                    'kind = "adapt"',
                    'device = "XR1"',
                    "seed = 3",
                    "[scenario.params]",
                    'trace = "drift"',
                    "epochs = 20",
                    'controller = "ewma"',
                    "[scenario.expected]",
                    "deadline_miss_rate = 0.0",
                    "[scenario.tolerances]",
                    "deadline_miss_rate = 1e-9",
                ]
            )
        )
        (spec,) = load_specs(path)
        assert spec.name == "adapt_toml"
        assert spec.params["trace"] == "drift"
        assert spec.tolerances == {"deadline_miss_rate": 1e-9}
        # TOML -> spec -> dict -> spec is bit-equal.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @requires_toml
    def test_toml_and_json_forms_load_identically(self, tmp_path):
        spec = _rich_spec()
        json_path = tmp_path / "suite.json"
        json_path.write_text(json.dumps([spec.to_dict()]))
        lines = ["[[scenario]]"]
        for key in ("name", "kind", "description", "device", "edge", "mode"):
            lines.append(f'{key} = "{getattr(spec, key)}"')
        lines.append(f"seed = {spec.seed}")
        for table in ("app", "network", "params", "expected", "tolerances"):
            lines.append(f"[scenario.{table}]")
            for key, value in getattr(spec, table).items():
                rendered = f'"{value}"' if isinstance(value, str) else repr(value)
                lines.append(f"{key} = {rendered}")
        toml_path = tmp_path / "suite.toml"
        toml_path.write_text("\n".join(lines))
        assert load_specs(toml_path) == load_specs(json_path)


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "x", "kind": "analyze", "speed": 9000})

    def test_missing_name_and_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            ScenarioSpec.from_dict({"kind": "analyze"})
        with pytest.raises(ConfigurationError, match="missing"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_bad_kind_device_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ScenarioSpec(name="x", kind="simulate")
        with pytest.raises(ConfigurationError, match="device"):
            ScenarioSpec(name="x", kind="analyze", device="PIXEL9")
        with pytest.raises(ConfigurationError, match="mode"):
            ScenarioSpec(name="x", kind="analyze", mode="quantum")

    def test_param_allowlist_is_per_kind(self):
        ScenarioSpec(name="ok", kind="fleet", params={"users": 4})
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            ScenarioSpec(name="x", kind="analyze", params={"users": 4})
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            ScenarioSpec(name="x", kind="sweep", params={"trace": "burst"})

    def test_fixed_tuning_values_are_not_parameters(self):
        # The cosim's relaxation weight and the link's shadowing are fixed:
        # a scenario that sets them fails instead of running without them.
        with pytest.raises(ConfigurationError, match="unknown parameter 'damping'"):
            ScenarioSpec(name="x", kind="cosim", params={"damping": 0.5})
        with pytest.raises(ConfigurationError, match="shadowing_sigma_db"):
            ScenarioSpec(name="x", kind="analyze", network={"shadowing_sigma_db": 6.0})

    def test_param_values_validated(self):
        with pytest.raises(ConfigurationError, match="trace"):
            ScenarioSpec(name="x", kind="adapt", params={"trace": "tsunami"})
        with pytest.raises(ConfigurationError, match="users"):
            ScenarioSpec(name="x", kind="fleet", params={"users": 0})
        with pytest.raises(ConfigurationError, match="epoch_ms"):
            ScenarioSpec(name="x", kind="adapt", params={"epoch_ms": -1.0})
        with pytest.raises(ConfigurationError, match="frame_sides_px"):
            ScenarioSpec(name="x", kind="sweep", params={"frame_sides_px": []})
        with pytest.raises(ConfigurationError, match="mixed_devices"):
            ScenarioSpec(name="x", kind="fleet", params={"mixed_devices": ["PIXEL9"]})
        with pytest.raises(ConfigurationError, match="controller"):
            ScenarioSpec(name="x", kind="adapt", params={"controller": "oracle"})

    @pytest.mark.parametrize(
        "kind, key",
        [
            ("adapt", "epoch_ms"),
            ("cosim", "epoch_ms"),
            ("adapt", "deadline_ms"),
            ("cosim", "deadline_ms"),
            ("fleet", "slo_ms"),
        ],
    )
    def test_nan_positive_numbers_rejected(self, kind, key):
        # NaN passed ``value <= 0``: an adapt scenario then ran with NaN
        # energy and the cosim failed late with "5 x nan ms vs 5 x nan ms".
        with pytest.raises(ConfigurationError, match=key):
            ScenarioSpec(name="x", kind=kind, params={key: float("nan")})

    @pytest.mark.parametrize("key", ["frame_sides_px", "cpu_freqs_ghz"])
    def test_nan_sweep_axis_rejected(self, key):
        # A NaN axis value used to run to status "ok" with NaN metrics.
        with pytest.raises(ConfigurationError, match=key):
            ScenarioSpec(name="x", kind="sweep", params={key: [float("nan"), 2.0]})

    def test_infinite_deadline_and_slo_allowed(self):
        ScenarioSpec(name="ok", kind="adapt", params={"deadline_ms": float("inf")})
        ScenarioSpec(name="ok", kind="fleet", params={"slo_ms": float("inf")})

    def test_static_cosim_controller_rejected(self):
        # The co-simulation has no index to pin a static controller to; the
        # runner used to build StaticBaseline() and abort the whole run on
        # its TypeError.  The single-user runtime replays the best static.
        ScenarioSpec(name="ok", kind="adapt", params={"controller": "static"})
        with pytest.raises(ConfigurationError, match="controller"):
            ScenarioSpec(name="x", kind="cosim", params={"controller": "static"})

    def test_objective_validated_for_adapt_and_cosim(self):
        for kind in ("adapt", "cosim"):
            ScenarioSpec(name="ok", kind=kind, params={"objective": "energy"})
            with pytest.raises(ConfigurationError, match="objective"):
                ScenarioSpec(name="x", kind=kind, params={"objective": "bogus"})

    def test_boolean_params_must_be_booleans(self):
        # The runner's bool(...) would turn both strings on.
        ScenarioSpec(name="ok", kind="fleet", params={"plan_capacity": False})
        with pytest.raises(ConfigurationError, match="plan_capacity"):
            ScenarioSpec(name="x", kind="fleet", params={"plan_capacity": "no"})
        for kind in ("analyze", "fleet", "adapt", "cosim"):
            ScenarioSpec(name="ok", kind=kind, params={"include_aoi": True})
            with pytest.raises(ConfigurationError, match="include_aoi"):
                ScenarioSpec(name="x", kind=kind, params={"include_aoi": "false"})
            with pytest.raises(ConfigurationError, match="include_aoi"):
                ScenarioSpec(name="x", kind=kind, params={"include_aoi": 1})

    def test_app_and_network_overrides_checked_against_config_fields(self):
        ScenarioSpec(name="ok", kind="analyze", app={"cpu_freq_ghz": 2.5})
        with pytest.raises(ConfigurationError, match="app override"):
            ScenarioSpec(name="x", kind="analyze", app={"cpu_frequency": 2.5})
        with pytest.raises(ConfigurationError, match="network override"):
            ScenarioSpec(name="x", kind="analyze", network={"bandwidth": 80.0})
        # Nested sub-configs are deliberately not declarative.
        with pytest.raises(ConfigurationError, match="app override"):
            ScenarioSpec(name="x", kind="analyze", app={"encoder": {}})

    def test_seed_and_tolerances_validated(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ScenarioSpec(name="x", kind="analyze", seed=-1)
        with pytest.raises(ConfigurationError, match="seed"):
            ScenarioSpec(name="x", kind="analyze", seed=1.5)
        with pytest.raises(ConfigurationError, match="tolerance"):
            ScenarioSpec(name="x", kind="analyze", tolerances={"m": -0.1})
        with pytest.raises(ConfigurationError, match="must be a number"):
            ScenarioSpec(name="x", kind="analyze", expected={"m": "fast"})

    def test_unsupported_suffix_and_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_specs(tmp_path / "nope.json")
        path = tmp_path / "suite.yaml"
        path.write_text("scenario: {}")
        with pytest.raises(ConfigurationError, match="suffix"):
            load_specs(path)


class TestSuite:
    def test_duplicate_names_rejected(self):
        spec = ScenarioSpec(name="twin", kind="analyze")
        with pytest.raises(ConfigurationError, match="twin"):
            ScenarioSuite(name="s", specs=(spec, spec))

    def test_select_preserves_suite_order(self):
        suite = ScenarioSuite(
            name="s",
            specs=tuple(
                ScenarioSpec(name=f"s{i}", kind="analyze") for i in range(4)
            ),
        )
        selected = suite.select(["s3", "s0"])
        assert [spec.name for spec in selected] == ["s0", "s3"]

    def test_select_unknown_scenario_raises(self):
        suite = ScenarioSuite(name="s", specs=(ScenarioSpec(name="a", kind="analyze"),))
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            suite.select(["b"])

    def test_spec_hash_tracks_content(self):
        a = ScenarioSuite(name="s", specs=(ScenarioSpec(name="a", kind="analyze"),))
        same = ScenarioSuite(name="other", specs=(ScenarioSpec(name="a", kind="analyze"),))
        different = ScenarioSuite(
            name="s", specs=(ScenarioSpec(name="a", kind="analyze", seed=1),)
        )
        assert a.spec_hash() == same.spec_hash()  # name is metadata, not content
        assert a.spec_hash() != different.spec_hash()

    def test_load_suite_directory_sorted(self, tmp_path):
        (tmp_path / "20_b.json").write_text(
            json.dumps([ScenarioSpec(name="b", kind="analyze").to_dict()])
        )
        (tmp_path / "10_a.json").write_text(
            json.dumps([ScenarioSpec(name="a", kind="analyze").to_dict()])
        )
        suite = load_suite(tmp_path)
        assert [spec.name for spec in suite] == ["a", "b"]
        assert suite.name == tmp_path.name

    def test_load_suite_empty_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no .toml/.json"):
            load_suite(tmp_path)


@requires_toml
class TestBundledSuite:
    def test_loads_and_covers_every_kind(self):
        suite = bundled_suite()
        assert len(suite) >= 12
        kinds = {spec.kind for spec in suite}
        assert kinds == {"analyze", "sweep", "fleet", "adapt", "cosim"}

    def test_names_unique_and_hash_stable(self):
        assert bundled_suite().spec_hash() == bundled_suite().spec_hash()

    def test_round_trips(self):
        for spec in bundled_suite():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
