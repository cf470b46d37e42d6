"""User-population generators for fleet-scale analyses.

The paper analyses one XR device; a deployment serves many.  This module
describes *who* is on the network: a :class:`FleetPopulation` is an ordered
collection of :class:`UserProfile` entries (device + application
configuration per user), and the generators below build the standard
populations the fleet analyzer and capacity planner sweep over —
homogeneous fleets and mixed-device fleets drawn from the Table I
catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.validation import ensure_integer
from repro.devices.catalog import get_device
from repro.exceptions import ConfigurationError


def _default_app() -> ApplicationConfig:
    return ApplicationConfig.object_detection_default().with_mode(ExecutionMode.REMOTE)


@dataclass(frozen=True)
class UserProfile:
    """One user of the fleet: a device running an application configuration.

    Attributes:
        name: unique user identifier within the population.
        device: XR device catalog name (validated against Table I).
        app: the user's application configuration; its inference mode is the
            user's *preferred* placement, which admission control may
            override.
    """

    name: str
    device: str = "XR1"
    app: ApplicationConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("user name must not be empty")
        get_device(self.device)  # raises UnknownDeviceError for bad names
        if self.app is None:
            object.__setattr__(self, "app", _default_app())

    @property
    def wants_offload(self) -> bool:
        """Whether the profile's preferred placement uses the edge tier."""
        return self.app.inference.mode is not ExecutionMode.LOCAL

    @property
    def frame_rate_fps(self) -> float:
        """The user's frame capture rate."""
        return self.app.frame_rate_fps


@dataclass(frozen=True)
class FleetPopulation:
    """An ordered, immutable collection of fleet users.

    Attributes:
        users: the user profiles, in arrival order.
    """

    users: Tuple[UserProfile, ...]

    def __post_init__(self) -> None:
        names = [user.name for user in self.users]
        if len(names) != len(set(names)):
            raise ConfigurationError("user names must be unique within a population")

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[UserProfile]:
        return iter(self.users)

    @property
    def n_users(self) -> int:
        """Number of users in the population."""
        return len(self.users)



# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def homogeneous(
    n_users: int,
    device: str = "XR1",
    app: Optional[ApplicationConfig] = None,
) -> FleetPopulation:
    """``n_users`` identical users on one device model, named ``user-0000`` onwards.

    Args:
        n_users: fleet size.
        device: device catalog name shared by every user.
        app: shared application configuration; defaults to the paper's
            object-detection pipeline, offloaded.
    """
    n_users = ensure_integer("n_users", n_users)
    if n_users <= 0:
        raise ConfigurationError(f"fleet size must be > 0, got {n_users}")
    shared_app = app if app is not None else _default_app()
    return FleetPopulation(
        users=tuple(
            UserProfile(name=f"user-{index:04d}", device=device, app=shared_app)
            for index in range(n_users)
        )
    )


def mixed_devices(
    n_users: int,
    devices: Sequence[str] = ("XR1", "XR2", "XR6"),
    app: Optional[ApplicationConfig] = None,
) -> FleetPopulation:
    """``n_users`` users cycling round-robin through several device models."""
    n_users = ensure_integer("n_users", n_users)
    if n_users <= 0:
        raise ConfigurationError(f"fleet size must be > 0, got {n_users}")
    if not devices:
        raise ConfigurationError("mixed_devices needs at least one device name")
    shared_app = app if app is not None else _default_app()
    return FleetPopulation(
        users=tuple(
            UserProfile(
                name=f"user-{index:04d}",
                device=devices[index % len(devices)],
                app=shared_app,
            )
            for index in range(n_users)
        )
    )
