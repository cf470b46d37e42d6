"""Backend registry and name-based resolution (env-overridable)."""

from __future__ import annotations

import os
from typing import Dict, Tuple, Type, Union

from repro.exceptions import ConfigurationError
from repro.exec.backend import ExecutionBackend
from repro.exec.pools import ProcessPoolBackend
from repro.exec.serial import SerialBackend

#: Environment variable naming the backend when the caller passes none.
EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"

#: The backend used when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "process"

#: Registered backend classes keyed by name.  A future distributed
#: backend plugs in here as one more entry — call sites resolve by name
#: and never construct executors directly.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
}


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted (for CLI choices and errors)."""
    return tuple(sorted(BACKENDS))


def resolve_backend(
    name: Union[str, ExecutionBackend, None] = None,
) -> ExecutionBackend:
    """An :class:`ExecutionBackend` instance for ``name``.

    Resolution order: an explicit ``name`` (an already-built backend
    instance passes through untouched, so tests can inject pool
    factories), then the :data:`EXEC_BACKEND_ENV` environment variable,
    then :data:`DEFAULT_BACKEND`.

    Raises:
        ConfigurationError: ``name`` (or the env override) is not a
            registered backend.
    """
    if isinstance(name, ExecutionBackend):
        return name
    if name is None:
        name = os.environ.get(EXEC_BACKEND_ENV, "").strip() or DEFAULT_BACKEND
    key = name.strip().lower()
    if key not in BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{', '.join(backend_names())} (callers may also set "
            f"{EXEC_BACKEND_ENV})"
        )
    return BACKENDS[key]()
