"""Unit tests for the fleet population generators."""

import numpy as np
import pytest

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.exceptions import ConfigurationError, UnknownDeviceError
from repro.fleet.population import (
    FleetPopulation,
    UserProfile,
    homogeneous,
    mixed_devices,
)


class TestUserProfile:
    def test_default_app_is_remote_object_detection(self):
        user = UserProfile(name="u1")
        assert user.app.inference.mode is ExecutionMode.REMOTE
        assert user.wants_offload

    def test_local_profile_does_not_want_offload(self):
        app = ApplicationConfig.object_detection_default()
        user = UserProfile(name="u1", app=app)
        assert not user.wants_offload

    def test_unknown_device_rejected(self):
        with pytest.raises(UnknownDeviceError):
            UserProfile(name="u1", device="PIXEL9")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            UserProfile(name="")


class TestHomogeneous:
    def test_size_and_unique_names(self):
        population = homogeneous(10, device="XR2")
        assert population.n_users == 10
        assert len({user.name for user in population}) == 10
        assert {user.device for user in population} == {"XR2"}

    def test_all_users_share_the_app(self):
        population = homogeneous(5)
        apps = {user.app for user in population}
        assert len(apps) == 1

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigurationError):
            homogeneous(0)


class TestMixedGenerators:
    def test_mixed_devices_round_robin(self):
        population = mixed_devices(7, devices=("XR1", "XR3"))
        assert [user.device for user in population] == ["XR1", "XR3"] * 3 + ["XR1"]

    def test_mixed_devices_needs_devices(self):
        with pytest.raises(ConfigurationError):
            mixed_devices(4, devices=())

    def test_duplicate_names_rejected(self):
        user = UserProfile(name="dup")
        with pytest.raises(ConfigurationError):
            FleetPopulation(users=(user, user))

    @pytest.mark.parametrize(
        "generate",
        [homogeneous, mixed_devices],
        ids=["homogeneous", "mixed_devices"],
    )
    def test_fractional_fleet_size_rejected(self, generate):
        with pytest.raises(ConfigurationError, match="n_users must be an integer"):
            generate(2.5)
        assert generate(np.int64(3)).n_users == 3

