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
    with_mode,
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
        assert population.device_counts == {"XR2": 10}

    def test_all_users_share_the_app(self):
        population = homogeneous(5)
        apps = {user.app for user in population}
        assert len(apps) == 1

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigurationError):
            homogeneous(0)

    def test_subset(self):
        population = homogeneous(8)
        assert population.subset(3).n_users == 3
        with pytest.raises(ConfigurationError):
            population.subset(9)


class TestMixedGenerators:
    def test_mixed_devices_round_robin(self):
        population = mixed_devices(7, devices=("XR1", "XR3"))
        assert population.device_counts == {"XR1": 4, "XR3": 3}

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


class TestWithMode:
    def test_replaces_every_users_mode(self):
        population = with_mode(homogeneous(3), ExecutionMode.LOCAL)
        assert all(
            user.app.inference.mode is ExecutionMode.LOCAL for user in population
        )
