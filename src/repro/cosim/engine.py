"""Closed-loop co-simulation: an adaptive fleet that shapes its own channel.

PRs 1–3 built three layers that had never been composed: the fleet layer
(:mod:`repro.fleet`) freezes every user at a static operating point, and the
adaptive runtime (:mod:`repro.adaptive`) drives a single user against an
*exogenous* condition trace.  This engine closes the loop: every user in a
:class:`~repro.fleet.population.FleetPopulation` runs an adaptive
:class:`~repro.adaptive.controllers.Controller`, while the shared Wi-Fi
contention (:class:`~repro.fleet.contention.ContentionModel`) and the edge
GPU queueing (:class:`~repro.fleet.edge_scheduler.EdgeScheduler`) are
recomputed **from the controllers' own placement decisions** every control
epoch.

Fixed point per epoch
---------------------
Decisions determine load; load determines the conditions decisions are made
under.  Each epoch therefore runs a bounded best-response iteration: the
previous epoch's decisions seed a load estimate, every controller re-decides
against the implied (contended throughput, edge wait) conditions, and the
loop repeats until the decision vector stops changing or the iteration
budget is exhausted.  The endogenous quantities fed to the controllers are
relaxed between iterations (by :data:`DAMPING`) to tame decision flapping;
the *charged* outcomes always use the exact loads implied by the final
decisions.  Every epoch's convergence flag and iteration count are recorded
on the :class:`~repro.cosim.results.CosimReport` — an adversarial fleet
whose best responses cycle is reported, not hidden.

Because ``decide`` may run several times per epoch, every controller must
advance from the same epoch-start state in each round.  The engine takes
that state as a value once per epoch (:meth:`Controller.state
<repro.adaptive.controllers.Controller.state>`) and restores it before each
``decide``; a controller without ``state``/``restore`` is rejected when the
simulation is built.  Classes that replay one trace object see one
exogenous condition per epoch, so the endogenous conditions are built once
per (epoch, trace, offloader count), and a round's damped conditions once
per trace; the decision rounds and the charging step share them.

Equivalence classes
-------------------
Users sharing ``(device, app, controller, trace)`` see identical conditions
and make identical decisions, so the engine simulates one representative
controller per class and multiplies: a 10k-user homogeneous fleet costs the
same controller work as a single user.  Loads and charges are computed per
*slot* — one per offloading (class, edge) pair of the round-robin deal plus
one per local class.  Dealing users onto edges is O(users), but fleets
revisit few offloading patterns, so the deal is cached per pattern
(:data:`DEAL_CACHE_SIZE`).  Each cached deal keeps a table of the loads
computed on it (:data:`LOADS_TABLE_SIZE`), keyed by the classes' arrival
rates and service times and the alive edges' service scales — everything
the loads and the classes' decision waits depend on — so a best-response
round that revisits a decision vector costs two lookups, and only a new key
pays one accumulation per edge and one tagged wait per slot.  Per-user
totals are charged per *group*: the users who sat in the same slot in every
deal charged so far.  An epoch adds one value per group, and splits the
groups only when it charges a deal that has not refined them yet — one sort
of the users, once per deal key.  Only two kinds of per-epoch value still
reduce over every user: the fleet's mean latency and total energy, whose
last bit NumPy's pairwise summation fixes, and, in a fleet of more than one
class, the per-class means.

Candidate evaluation goes through the vectorized batch engine
(:class:`repro.batch.ConditionedPoints`), compiled once per simulation: every
distinct candidate block — one per ``(device, app)`` when the candidates
are defaulted, or the one explicit list — joins a single compiled set, and
each class's :class:`~repro.adaptive.runtime.ControlContext` sweeps its
block of it.  A condition key that any class pre-warms or sweeps live is
evaluated once, for every block, and is a memo hit for all classes from
then on.  A block's slice of the set equals what a set of its own would
return, bit for bit.  The arrival, service and frame arrays are likewise
built once per block.

The damped rounds hand the controllers a new throughput every round, so
most of their keys are off the pre-warmed trace.  Each epoch therefore
starts by replaying the previous epoch's rounds — each round's offloader
count, whether it was the verification round, and the traces whose round
conditions a class swept — on the new epoch's conditions, and evaluates
the keys they predict that no memo holds in one batch
(:meth:`CoSimulation._prefetch`, counted as ``cosim.prefetch.keys``).  The
rounds then sweep as before: a predicted key is a memo hit, a wrong
prediction costs only its extra rows, and a key the replay missed is
evaluated live.  Since a memo row holds the same bits whatever batch
filled it, no report changes.  Fleets whose controllers never sweep the
conditions they are handed (hysteresis, static) evaluate nothing ahead.

Degeneracies
------------
* ``N == 1``: contention leaves the channel untouched and a sole tenant
  waits zero, so the run reduces to :meth:`repro.adaptive.runtime
  .AdaptiveRuntime.run` and the class report equals its
  :class:`AdaptationReport` field for field.
* every controller a :class:`~repro.adaptive.controllers.StaticBaseline`
  pinned to the users' own operating point: decisions never move, the loop
  converges immediately, and the per-epoch fleet aggregates reproduce
  :meth:`repro.fleet.analyzer.FleetAnalyzer.analyze` bit for bit (same
  contended throughput; the loads and waits of one definition,
  :func:`repro.fleet.edge_scheduler.edge_loads` and
  :meth:`~repro.fleet.edge_scheduler.EdgeScheduler.tenant_wait_ms`).
"""

from __future__ import annotations

import copy
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.adaptive.controllers import Controller
from repro.adaptive.runtime import (
    AdaptationReport,
    CandidateEvaluation,
    ControlContext,
    EpochOutcome,
    _CandidateBlocks,
    _condition_key,
    _Key,
    build_adaptation_report,
    default_candidates,
)
from repro.adaptive.traces import ConditionTrace, EpochConditions
from repro.batch.grid import OperatingPoint
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.validation import ensure_integer
from repro.core.framework import XRPerformanceModel
from repro.cosim.results import CosimReport, ShardedCosimReport
from repro.devices.resolve import EdgeLike, resolve_edge_spec
from repro.exceptions import ConfigurationError
from repro.exec import resolve_backend
from repro.faults.report import fault_outcome
from repro.faults.schedule import EpochFaultState, FaultInjector, FaultSchedule
from repro.fleet.contention import ContentionModel
from repro.fleet.edge_scheduler import EdgeScheduler, edge_loads
from repro.fleet.population import FleetPopulation, UserProfile
from repro.fleet.results import percentile_method

#: Per-user controller specification: one shared template instance, a
#: mapping from user name to controller, or a factory called per user.
ControllerLike = Union[
    Controller,
    Mapping[str, Controller],
    Callable[[UserProfile], Controller],
]

#: Per-user exogenous trace specification, mirroring :data:`ControllerLike`.
TraceLike = Union[
    ConditionTrace,
    Mapping[str, ConditionTrace],
    Callable[[UserProfile], ConditionTrace],
]


class CosimControlContext(ControlContext):
    """A :class:`ControlContext` whose sweeps carry the fleet's edge wait.

    The engine sets :attr:`decision_wait_ms` before every controller
    decision; offloading candidates are then charged that wait on top of
    their closed-form latency (plus the radio-idle energy of waiting), so
    deadline-first selection sees the queueing the rest of the fleet causes.
    A wait of zero returns the memoized base evaluation object untouched —
    the fast path that keeps the ``N == 1`` degeneracy bit-exact.

    Every sweep also appends its memo key to :attr:`swept_keys`, a log the
    engine clears before each decision and reads after it, to learn whether
    the controller swept the conditions it was handed.
    """

    def __init__(self, *args, radio_idle_power_w: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offload_mask = np.asarray(
            [
                point.app.inference.mode is not ExecutionMode.LOCAL
                for point in self.candidates
            ]
        )
        self.radio_idle_power_w = float(radio_idle_power_w)
        #: Edge queueing delay applied to offloading candidates during the
        #: current decision (set by the co-sim engine each iteration).
        self.decision_wait_ms = 0.0
        #: Memo keys swept since the engine last cleared the log.
        self.swept_keys: List[_Key] = []

    def sweep(self, conditions: EpochConditions) -> CandidateEvaluation:
        self.swept_keys.append(self._key(conditions))
        base = super().sweep(conditions)
        wait = self.decision_wait_ms
        if wait == 0.0:
            return base
        if math.isinf(wait):
            # A saturated edge has no steady state: offloading candidates
            # are infinitely late, and no waiting energy is charged (the
            # same convention as the fleet analyzer).
            latency = np.where(self.offload_mask, math.inf, base.latency_ms)
            energy = base.energy_mj
        else:
            latency = np.where(
                self.offload_mask, base.latency_ms + wait, base.latency_ms
            )
            energy = np.where(
                self.offload_mask,
                base.energy_mj + self.radio_idle_power_w * wait,
                base.energy_mj,
            )
        return CandidateEvaluation(
            latency_ms=latency, energy_mj=energy, min_roi=base.min_roi
        )


@dataclass
class _UserClass:
    """One equivalence class: users that are simulated by a single proxy."""

    name: str
    device: str
    app: ApplicationConfig
    template: Controller
    trace: ConditionTrace
    user_indices: List[int] = field(default_factory=list)
    context: CosimControlContext = None  # type: ignore[assignment]
    controller: Controller = None  # type: ignore[assignment]
    arrival_per_ms: np.ndarray = None  # type: ignore[assignment]
    service_ms: np.ndarray = None  # type: ignore[assignment]
    frames_per_epoch: np.ndarray = None  # type: ignore[assignment]
    service_ref_ms: float = 1.0
    outcomes: List[EpochOutcome] = field(default_factory=list)

    @property
    def n_users(self) -> int:
        return len(self.user_indices)


#: Round-robin deals a simulation keeps (least recently used evicted first).
#: A deal holds O(users) indices, so the bound caps its memory.  The
#: benchmarked cosim fleets revisit 2 to 4 offloading patterns per
#: simulation (a greedy fleet past cell capacity alternates between two of
#: them within each epoch); 8 holds that working set twice over.
DEAL_CACHE_SIZE = 8

#: Loads a deal's table keeps (least recently used evicted first).  An entry
#: is O(edges + slots + classes), and the table goes when its deal is
#: evicted.  The benchmarked cosim fleets compute loads for at most 4
#: (rate, service, service-scale) keys per deal; 8 holds that twice over.
LOADS_TABLE_SIZE = 8

#: Weight of the new value when a best-response round relaxes the endogenous
#: throughput and wait toward the previous round's (1.0 would be the
#: undamped best response).  The reported equilibrium of a fleet whose
#: classes differ depends on it, so it is fixed rather than tuned.
DAMPING = 0.5


class _Round(NamedTuple):
    """One decision round of an epoch's best-response solve.

    Attributes:
        n_offloaded: offloaders of the loads the round decided under.
        exact: whether it was the verification round, which hands the
            classes the exact endogenous throughput instead of a damped one.
        swept: the traces whose round conditions a class swept, in class
            order.
    """

    n_offloaded: int
    exact: bool
    swept: Tuple[int, ...]


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only because a cache shares it."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _Deal:
    """The round-robin deal of one offloading pattern onto the alive edges.

    Users sit in *slots*: one per offloading ``(class, edge)`` pair, in
    class-then-edge order, then one local slot per class that does not
    offload.  Every slot holds at least one user, and all users of a slot
    see the same wait, latency and energy.

    Attributes:
        key: the deal's cache key, ``(offload pattern bytes, alive edges)``.
        n_offloaded: users whose class offloads.
        edge_classes: ``(edge, classes)`` for every alive edge that received
            tenants; ``classes`` lists its tenants' class indices in deal
            (population) order, which fixes the load accumulation order.
        pairs: the offloading ``(class, edge)`` slots.  With every edge
            dead each offloading class gets one placeholder ``(class, 0)``.
        slot_class: class index of every slot.
        slot_of_user: slot index of every user.
        slot_count: users per slot.
    """

    key: tuple
    n_offloaded: int
    edge_classes: Tuple[Tuple[int, np.ndarray], ...]
    pairs: Tuple[Tuple[int, int], ...]
    slot_class: np.ndarray
    slot_of_user: np.ndarray
    slot_count: np.ndarray


@dataclass
class _EpochLoads:
    """Exact fleet loads implied by one decision vector.

    ``slot_wait_ms`` is the edge wait of every slot of the deal: slot ``i <
    len(deal.pairs)`` holds the tagged wait of pair ``deal.pairs[i]``, and
    the local slots after them hold 0.  ``decision_wait_ms`` holds every
    class's :meth:`CoSimulation._decision_wait` under these loads; it is
    filled once, when the loads are computed.  Loads are cached and shared,
    so their arrays are read-only.
    """

    deal: _Deal
    edge_rate: np.ndarray
    edge_busy: np.ndarray
    slot_wait_ms: np.ndarray
    decision_wait_ms: List[float] = field(default_factory=list)

    @property
    def n_offloaded(self) -> int:
        """Users whose class offloads."""
        return self.deal.n_offloaded


class _UserGroups:
    """Per-user running totals, kept once per group of users charged alike.

    A group is a set of users that sat in the same slot in every deal charged
    so far.  Each of its users took exactly the additions the group took, in
    epoch order, so expanding the group totals through :attr:`of_user` gives
    every user's totals bit for bit.  Charging a deal that has not refined the
    groups yet splits them, and each new group inherits its parent's totals:
    one sort of the users, O(users log users), once per deal key.  Every other
    charge costs O(groups).  A deal is remembered by its cache key, not its
    ``id``, because an evicted deal's id can be reused.
    """

    def __init__(self, n_users: int) -> None:
        #: Group index of every user.
        self.of_user = np.zeros(n_users, dtype=np.intp)
        #: Each group's first user, in population order.
        self.first_user = np.zeros(1, dtype=np.intp)
        #: Epochs each group's users missed the deadline in.
        self.miss = np.zeros(1)
        #: Sum of each group's per-epoch latencies (ms).
        self.latency_sum = np.zeros(1)
        #: Energy each group's users spent (J).
        self.energy_j = np.zeros(1)
        self._refined: set = set()

    def charge(
        self,
        deal: _Deal,
        slot_missed: np.ndarray,
        slot_latency_ms: np.ndarray,
        slot_energy_j: np.ndarray,
    ) -> None:
        """Add one epoch's per-slot charges to every group's totals."""
        if deal.key not in self._refined:
            self._refined.add(deal.key)
            n_slots = deal.slot_class.size
            keys, self.first_user, self.of_user = np.unique(
                self.of_user * n_slots + deal.slot_of_user,
                return_index=True,
                return_inverse=True,
            )
            parent = keys // n_slots
            self.miss = self.miss[parent]
            self.latency_sum = self.latency_sum[parent]
            self.energy_j = self.energy_j[parent]
        slot = deal.slot_of_user[self.first_user]
        self.miss += slot_missed[slot]
        self.latency_sum += slot_latency_ms[slot]
        self.energy_j += slot_energy_j[slot]


def percentiles_from_counts(
    values: np.ndarray, counts: np.ndarray, qs: Sequence[float], method: str
) -> Tuple[float, ...]:
    """``np.percentile(np.repeat(values, counts), q, method=method)`` per ``q``.

    Reads the order statistics straight off the sorted (value, count)
    pairs instead of expanding them.  ``method`` is ``"linear"`` (NumPy's
    default: interpolate between the order statistics around
    ``(n - 1) * q / 100``, in NumPy's ``_lerp`` operation order) or
    ``"lower"`` (the order statistic at ``floor((n - 1) * q / 100)``), with
    ``n = sum(counts)``; either reproduces NumPy bit for bit.  Counts must
    be positive and values must not be NaN.
    """
    order = np.argsort(values)
    ordered = values[order]
    # ends[i]: expanded index one past the run of the i-th smallest value.
    ends = np.cumsum(counts[order])
    n = int(ends[-1])

    def statistic(index: int) -> float:
        return ordered[np.searchsorted(ends, index, side="right")]

    results = []
    for q in qs:
        virtual = (n - 1) * (q / 100)
        if method == "lower":
            results.append(float(statistic(math.floor(virtual))))
            continue
        # At the top NumPy clamps both neighbours to the last element, where
        # the interpolation weight no longer matters.
        below = min(math.floor(virtual), n - 1)
        above = min(below + 1, n - 1)
        gamma = virtual - below
        low, high = statistic(below), statistic(above)
        diff = high - low
        value = high - diff * (1 - gamma) if gamma >= 0.5 else low + diff * gamma
        results.append(float(value))
    return tuple(results)


class CoSimulation:
    """Closed-loop co-simulation of an adaptive multi-user XR fleet.

    Args:
        population: the fleet's users.
        controller: controller specification — a single template instance
            (deep-copied per equivalence class), a mapping from user name to
            controller, or a factory called once per user.  Users given the
            *same* controller object (and device, app, trace) form one
            equivalence class and are simulated by a single proxy; a factory
            returning fresh instances therefore opts a user out of sharing.
        trace: exogenous per-user condition timeline(s) — the channel each
            user would see absent the rest of the fleet (fading, mobility
            handoffs, non-fleet contenders).  Same sharing semantics as
            ``controller``.  All traces must agree on epoch count/length.
        edge: edge server model shared by the ``n_edges`` servers.
        n_edges: number of identical edge servers behind the cell.
        network: base network configuration of the shared channel; its
            Wi-Fi contention is fed back from the offload count.
        deadline_ms: per-frame end-to-end latency budget.
        objective: candidate-selection objective inside each class.
        candidates: explicit operating points shared by every class; None
            derives :func:`~repro.adaptive.runtime.default_candidates` from
            each class's device/app.
        include_aoi: forwarded to the simulation's compiled candidate set.
        max_iterations: best-response iteration budget per epoch (>= 2 so a
            fixed point can be verified).  Between iterations the endogenous
            throughput/wait are relaxed by :data:`DAMPING`; charged outcomes
            always use undamped final loads.
        faults: optional :class:`~repro.faults.schedule.FaultSchedule`
            injected into the closed loop — dead edges leave the
            round-robin deal, brownouts and straggler windows inflate the
            affected edges' service times, and link degradation scales the
            exogenous channel before contention; controllers see the
            faulted conditions and react.  The report then carries a
            :class:`~repro.faults.report.FaultOutcome` with per-window miss
            rates and time-to-recover.  ``None`` (the default) is bit-exact
            with the pre-fault engine.
    """

    def __init__(
        self,
        population: FleetPopulation,
        controller: ControllerLike,
        trace: TraceLike,
        *,
        edge: EdgeLike = "EDGE-AGX",
        n_edges: int = 1,
        network: Optional[NetworkConfig] = None,
        deadline_ms: float = 700.0,
        objective: str = "quality",
        candidates: Optional[Sequence[OperatingPoint]] = None,
        include_aoi: bool = True,
        max_iterations: int = 8,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        n_edges = ensure_integer("n_edges", n_edges)
        if n_edges < 1:
            raise ConfigurationError(f"need at least one edge server, got {n_edges}")
        max_iterations = ensure_integer("max_iterations", max_iterations)
        if max_iterations < 2:
            raise ConfigurationError(
                f"max_iterations must be >= 2 to verify a fixed point, "
                f"got {max_iterations}"
            )
        self.population = (
            population
            if isinstance(population, FleetPopulation)
            else FleetPopulation(users=tuple(population))
        )
        if not len(self.population):
            raise ConfigurationError("the co-simulation needs at least one user")
        self.edge = resolve_edge_spec(edge)
        if self.edge is None:
            raise ConfigurationError("edge must name an edge server, got None")
        self.n_edges = n_edges
        self.network = network if network is not None else NetworkConfig()
        self.contention = ContentionModel(network=self.network)
        self.scheduler = EdgeScheduler()
        self.deadline_ms = float(deadline_ms)
        self.objective = objective
        self.include_aoi = include_aoi
        self.max_iterations = max_iterations
        self.faults = faults
        # Validates edge targets against the pool up front and memoizes the
        # per-epoch composed states.
        self._injector = (
            FaultInjector(faults, n_edges) if faults is not None else None
        )

        self._n_users = len(self.population)
        self._models: Dict[object, XRPerformanceModel] = {}
        self._share_cache: Dict[int, float] = {}
        self._all_edges = tuple(range(n_edges))
        self._deals: "OrderedDict[tuple, Tuple[_Deal, OrderedDict]]" = OrderedDict()
        self._classes, self._class_of_user = self._build_classes(controller, trace, candidates)
        self._user_arrays = [
            np.asarray(cls.user_indices, dtype=np.intp) for cls in self._classes
        ]
        # Classes that replay one trace object see one exogenous condition per
        # epoch, so the solve builds every condition once per distinct trace.
        self._traces = list({id(cls.trace): cls.trace for cls in self._classes}.values())
        trace_index = {id(trace): index for index, trace in enumerate(self._traces)}
        self._trace_of_class = [trace_index[id(cls.trace)] for cls in self._classes]
        #: The previous epoch's decision rounds (see :meth:`_prefetch`).
        self._trajectory: List[_Round] = []

    # -- construction ---------------------------------------------------------

    @staticmethod
    def _resolver(spec, kind: str) -> Callable[[UserProfile], object]:
        """Per-user resolution of a controller or trace spec, classified once.

        A mapping is looked up by user name and a factory (a callable that is
        neither a controller nor a trace) is called per user; any other spec
        is one object shared by every user.
        """
        if isinstance(spec, Mapping):

            def lookup(user: UserProfile):
                try:
                    return spec[user.name]
                except KeyError:
                    raise ConfigurationError(
                        f"no {kind} given for user {user.name!r}"
                    ) from None

            return lookup
        if callable(spec) and not isinstance(spec, (ConditionTrace, Controller)):
            return spec
        return lambda user: spec

    def _model_for(self, device) -> XRPerformanceModel:
        key = device if isinstance(device, str) else id(device)
        model = self._models.get(key)
        if model is None:
            model = XRPerformanceModel(device=device, edge=self.edge)
            self._models[key] = model
        return model

    def _build_classes(
        self,
        controller: ControllerLike,
        trace: TraceLike,
        candidates: Optional[Sequence[OperatingPoint]],
    ) -> Tuple[List[_UserClass], np.ndarray]:
        classes: List[_UserClass] = []
        class_of_user = np.empty(self._n_users, dtype=np.intp)
        key_to_index: Dict[tuple, int] = {}
        # Equal apps share a class.  Hashing an app walks its nested
        # configuration, so each app object is hashed once; the population
        # keeps every app alive, so its id is stable for this loop.
        app_of_id: Dict[int, int] = {}
        app_index: Dict[ApplicationConfig, int] = {}
        controller_of = self._resolver(controller, "controller")
        trace_of = self._resolver(trace, "trace")
        for index, user in enumerate(self.population):
            user_controller = controller_of(user)
            user_trace = trace_of(user)
            if not isinstance(user_trace, ConditionTrace):
                raise ConfigurationError(
                    f"cannot interpret {user_trace!r} as a condition trace"
                )
            app = app_of_id.get(id(user.app))
            if app is None:
                app = app_of_id[id(user.app)] = app_index.setdefault(
                    user.app, len(app_index)
                )
            key = (user.device, app, id(user_controller), id(user_trace))
            cls_index = key_to_index.get(key)
            if cls_index is None:
                cls_index = len(classes)
                key_to_index[key] = cls_index
                classes.append(
                    _UserClass(
                        name=f"{user.device}/{getattr(user_controller, 'name', 'controller')}"
                        f"#{cls_index}",
                        device=user.device,
                        app=user.app,
                        template=user_controller,
                        trace=user_trace,
                    )
                )
            classes[cls_index].user_indices.append(index)
            class_of_user[index] = cls_index
        reference = classes[0].trace
        for cls in classes:
            for method in ("state", "restore"):
                if not callable(getattr(cls.template, method, None)):
                    name = getattr(cls.template, "name", type(cls.template).__name__)
                    raise ConfigurationError(
                        f"controller {name!r} has no {method}() method; the "
                        "co-simulation re-runs decide from a state()/restore() "
                        "snapshot of each epoch"
                    )
            if (
                cls.trace.n_epochs != reference.n_epochs
                or cls.trace.epoch_ms != reference.epoch_ms
            ):
                raise ConfigurationError(
                    "all class traces must share the same epoch count and length; "
                    f"got {cls.trace.n_epochs} x {cls.trace.epoch_ms} ms vs "
                    f"{reference.n_epochs} x {reference.epoch_ms} ms"
                )
        # One block per (device, app) when the candidates are defaulted, else
        # the one explicit list.  The fused set reports min_roi only if every
        # block has AoI; they always agree here, because every defaulted block
        # is built on self.network.
        block_of: Dict[tuple, int] = {}
        blocks: List[Tuple[OperatingPoint, ...]] = []
        class_blocks: List[int] = []
        for cls in classes:
            key = (cls.device, cls.app) if candidates is None else ()
            if key not in block_of:
                block_of[key] = len(blocks)
                blocks.append(
                    tuple(candidates)
                    if candidates is not None
                    else default_candidates(
                        device=cls.device, edge=self.edge, app=cls.app, network=self.network
                    )
                )
            class_blocks.append(block_of[key])
        shared = self._blocks = _CandidateBlocks(blocks, include_aoi=self.include_aoi)
        block_arrays = [self._block_arrays(block, reference.epoch_ms) for block in blocks]
        for cls, index in zip(classes, class_blocks):
            cls.context = CosimControlContext(
                candidates=blocks[index],
                deadline_ms=self.deadline_ms,
                objective=self.objective,
                include_aoi=self.include_aoi,
                radio_idle_power_w=self.network.radio_idle_power_w,
                block=(shared, index),
            )
            (
                cls.arrival_per_ms,
                cls.service_ms,
                cls.service_ref_ms,
                cls.frames_per_epoch,
            ) = block_arrays[index]
            cls.context.prewarm(cls.trace)
        return classes, class_of_user

    def _block_arrays(
        self, candidates: Tuple[OperatingPoint, ...], epoch_ms: float
    ) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """Per-candidate arrival rate, edge service time and frames per epoch.

        Returns ``(arrival_per_ms, service_ms, service_ref_ms,
        frames_per_epoch)``; ``service_ref_ms`` is the shortest offloading
        service time (1.0 when no candidate offloads).
        """
        offloads = [point.app.inference.mode is not ExecutionMode.LOCAL for point in candidates]
        service = np.zeros(len(candidates))
        for i, point in enumerate(candidates):
            if offloads[i]:
                # The per-frame edge busy time the fleet analyzer charges:
                # the remote-inference segment (Eqs. 13-15).
                latency = self._model_for(point.device).latency_model
                compute = latency.client_compute(point.app)
                service[i] = latency.remote_inference_ms(
                    point.app,
                    compute,
                    latency.edge_compute(compute),
                    latency.encoding_numerator(point.app),
                )
        offloading = service[np.asarray(offloads)]
        return (
            np.asarray([point.app.frame_rate_fps / 1e3 for point in candidates]),
            service,
            float(offloading.min()) if offloading.size else 1.0,
            np.asarray([epoch_ms / point.app.frame_period_ms for point in candidates]),
        )

    # -- endogenous conditions ------------------------------------------------

    def _share(self, n_offloaded: int) -> float:
        share = self._share_cache.get(n_offloaded)
        if share is None:
            share = self.contention.per_user_throughput_mbps(n_offloaded)
            self._share_cache[n_offloaded] = share
        return share

    def _endogenous(self, base: EpochConditions, n_offloaded: int) -> EpochConditions:
        """Fold the fleet's contention into one user's exogenous conditions.

        The effective throughput is the binding constraint of the user's own
        channel (fading, mobility, background stations) and the fleet's fair
        contended share: ``min(exogenous, share(n_offloaded))``.  With at
        most one offloader the exogenous conditions pass through untouched —
        the ``N == 1`` degeneracy — and when the fleet share binds the value
        equals :meth:`ContentionModel.per_user_throughput_mbps` exactly,
        which is what the static-fleet degeneracy relies on.
        """
        if n_offloaded <= 1:
            return base
        share = self._share(n_offloaded)
        if share >= base.throughput_mbps:
            return base
        return replace(base, throughput_mbps=share, n_contenders=n_offloaded)

    @staticmethod
    def _damp(previous: Optional[float], new: float) -> float:
        if previous is None or previous == new or math.isinf(new) or math.isinf(previous):
            return new
        return DAMPING * new + (1.0 - DAMPING) * previous

    def _round_throughputs(
        self,
        conditions: Sequence[EpochConditions],
        previous: Sequence[Optional[float]],
        exact: bool,
    ) -> List[float]:
        """The throughput each trace's classes decide against in one round.

        ``conditions`` are the traces' endogenous conditions under the round's
        loads and ``previous`` the throughputs the round before handed over
        (None in the first round).  The verification round (``exact``) hands
        over the exact throughput; any other round damps it toward the
        previous one.
        """
        if exact:
            return [current.throughput_mbps for current in conditions]
        return [
            self._damp(before, current.throughput_mbps)
            for before, current in zip(previous, conditions)
        ]

    # -- loads ----------------------------------------------------------------

    def _deal(
        self, offload_c: np.ndarray, alive: Tuple[int, ...]
    ) -> Tuple[_Deal, "OrderedDict[tuple, _EpochLoads]"]:
        """The (cached) round-robin deal of an offloading pattern.

        Returns the deal and its loads table (see :meth:`_loads`).  The table
        lives in the deal's cache entry, not in the deal the loads point
        back to, so evicting the entry frees both at once.
        """
        key = (offload_c.tobytes(), alive)
        entry = self._deals.get(key)
        registry = telemetry.get()
        if registry.enabled:
            registry.add(
                "cosim.deal_cache.misses" if entry is None else "cosim.deal_cache.hits"
            )
        if entry is None:
            entry = (self._build_deal(key, offload_c, alive), OrderedDict())
            self._deals[key] = entry
            if len(self._deals) > DEAL_CACHE_SIZE:
                self._deals.popitem(last=False)
        else:
            self._deals.move_to_end(key)
        return entry

    def _build_deal(
        self, key: tuple, offload_c: np.ndarray, alive: Tuple[int, ...]
    ) -> _Deal:
        """Deal the offloading classes' users round-robin onto ``alive``.

        Offloaders are dealt in population order: the ``k``-th goes to
        ``alive[k % len(alive)]``.  With no edge alive every offloader of a
        class shares a placeholder edge-0 slot.
        """
        class_of_user = self._class_of_user
        n_classes = len(self._classes)
        offloaders = np.flatnonzero(offload_c[class_of_user])
        offloader_classes = class_of_user[offloaders]
        n_alive = len(alive)
        columns = alive if n_alive else (0,)
        column = np.arange(offloaders.size, dtype=np.intp) % len(columns)
        occupied = np.zeros((n_classes, len(columns)), dtype=bool)
        occupied[offloader_classes, column] = True
        pairs = tuple((int(c), columns[j]) for c, j in np.argwhere(occupied))
        pair_slot = np.full(occupied.shape, -1, dtype=np.intp)
        pair_slot[occupied] = np.arange(len(pairs), dtype=np.intp)
        local = np.flatnonzero(~offload_c)
        local_slot = np.full(n_classes, -1, dtype=np.intp)
        local_slot[local] = len(pairs) + np.arange(local.size, dtype=np.intp)
        slot_of_user = local_slot[class_of_user]
        slot_of_user[offloaders] = pair_slot[offloader_classes, column]
        slot_class = np.concatenate(
            [np.asarray([c for c, _ in pairs], dtype=np.intp), local]
        )
        edge_classes = tuple(
            (alive[j], _read_only(offloader_classes[j::n_alive]))
            for j in range(min(n_alive, offloaders.size))
        )
        return _Deal(
            key=key,
            n_offloaded=int(offloaders.size),
            edge_classes=edge_classes,
            pairs=pairs,
            slot_class=_read_only(slot_class),
            slot_of_user=_read_only(slot_of_user),
            slot_count=_read_only(np.bincount(slot_of_user, minlength=slot_class.size)),
        )

    def _loads(
        self,
        decisions: Sequence[Optional[int]],
        fault_state: Optional[EpochFaultState] = None,
    ) -> _EpochLoads:
        """Edge loads, per-slot waits and decision waits of a decision vector.

        Users whose chosen candidate offloads are dealt round-robin onto the
        edge servers in population order.  The loads and waits then come
        from the definition ``FleetAnalyzer.analyze`` uses:
        :func:`~repro.fleet.edge_scheduler.edge_loads` adds each edge's
        tenants in deal order and scales the sum by the edge's service
        scale, and :meth:`EdgeScheduler.tenant_wait_ms
        <repro.fleet.edge_scheduler.EdgeScheduler.tenant_wait_ms>` charges
        every (class, edge) slot the tagged M/G/1 wait of the *other*
        tenants' load — ``inf`` when the edge's aggregate load is unstable.

        Under a fault state, dead edges leave the round-robin deal (the
        survivors absorb the load), and a brownout or straggler window sets
        a surviving edge's service scale.  With every edge dead, offloaders
        wait forever.  A scale of exactly 1.0 leaves every float untouched,
        so the no-fault path is bit-identical to the pre-fault engine.

        The loads depend only on the deal, the classes' arrival rates and
        service times and the alive edges' service scales, so the deal's
        table (:data:`LOADS_TABLE_SIZE` entries) keeps them per such key: a
        round that revisits a decision vector costs one deal lookup and one
        table lookup.
        """
        classes = self._classes
        offload_c = np.asarray(
            [
                decision is not None and bool(cls.context.offload_mask[decision])
                for cls, decision in zip(classes, decisions)
            ]
        )
        rate_c = np.asarray(
            [
                cls.arrival_per_ms[decision] if offloads else 0.0
                for cls, decision, offloads in zip(classes, decisions, offload_c)
            ]
        )
        service_c = np.asarray(
            [
                cls.service_ms[decision] if offloads else 0.0
                for cls, decision, offloads in zip(classes, decisions, offload_c)
            ]
        )
        if fault_state is None:
            alive, scales = self._all_edges, ()
        else:
            alive = fault_state.alive_edges
            scales = tuple(fault_state.service_scale(edge) for edge in alive)
        deal, table = self._deal(offload_c, alive)
        key = (rate_c.tobytes(), service_c.tobytes(), scales)
        loads = table.get(key)
        registry = telemetry.get()
        if registry.enabled:
            registry.add(
                "cosim.loads_cache.misses" if loads is None else "cosim.loads_cache.hits"
            )
        if loads is not None:
            table.move_to_end(key)
            return loads
        edge_scale = [
            fault_state.service_scale(edge) if fault_state is not None else 1.0
            for edge in range(self.n_edges)
        ]
        tenants_by_edge = [np.empty(0, dtype=np.intp)] * self.n_edges
        for edge_index, tenants in deal.edge_classes:
            tenants_by_edge[edge_index] = tenants
        edge_rate, edge_busy = edge_loads(rate_c, service_c, tenants_by_edge, edge_scale)
        slot_wait = np.zeros(deal.slot_class.size)
        for slot, (cls_index, edge_index) in enumerate(deal.pairs):
            # With every edge down, offloaded frames never complete.
            slot_wait[slot] = (
                self.scheduler.tenant_wait_ms(
                    float(service_c[cls_index]),
                    float(edge_rate[edge_index]),
                    float(edge_busy[edge_index]),
                    float(rate_c[cls_index]),
                    edge_scale[edge_index],
                )
                if alive
                else math.inf
            )
        loads = _EpochLoads(
            deal=deal,
            edge_rate=_read_only(edge_rate),
            edge_busy=_read_only(edge_busy),
            slot_wait_ms=_read_only(slot_wait),
        )
        loads.decision_wait_ms.extend(
            self._decision_wait(cls_index, loads, fault_state)
            for cls_index in range(len(classes))
        )
        table[key] = loads
        if len(table) > LOADS_TABLE_SIZE:
            table.popitem(last=False)
        return loads

    def _decision_wait(
        self,
        cls_index: int,
        loads: _EpochLoads,
        fault_state: Optional[EpochFaultState] = None,
    ) -> float:
        """The edge wait class ``cls_index`` should decide against.

        A class currently offloading sees the worst wait across the edges
        its users occupy (conservative when round robin splits the class).
        A class currently local sees the wait a marginal tenant would face
        on the least-loaded edge given everyone else's load — zero on an
        idle deployment, so the single-user degeneracy is unaffected.
        Under a fault state dead edges are out of bounds for the marginal
        tenant (infinite wait when every edge is dead), and the tenant's
        reference service time is scaled like the loads are.
        """
        n_pairs = len(loads.deal.pairs)
        waits = loads.slot_wait_ms[:n_pairs][loads.deal.slot_class[:n_pairs] == cls_index]
        if waits.size:
            return float(waits.max())
        if fault_state is not None:
            if fault_state.n_edges_alive == 0:
                return math.inf
            masked_busy = np.where(
                np.asarray(fault_state.edge_capacity) > 0.0,
                loads.edge_busy,
                math.inf,
            )
            edge_index = int(np.argmin(masked_busy))
        else:
            edge_index = int(np.argmin(loads.edge_busy))
        return self.scheduler.tenant_wait_ms(
            self._classes[cls_index].service_ref_ms,
            float(loads.edge_rate[edge_index]),
            float(loads.edge_busy[edge_index]),
            scale=fault_state.service_scale(edge_index) if fault_state is not None else 1.0,
        )

    # -- the epoch loop -------------------------------------------------------

    def _decide_round(
        self,
        epoch: int,
        conditions: Sequence[EpochConditions],
        throughput_mbps: Sequence[float],
        snapshots: Sequence[object],
        wait_ms: Sequence[float],
    ) -> Tuple[List[int], Tuple[int, ...]]:
        """One synchronized decision round under the given per-trace conditions.

        ``conditions`` are the traces' endogenous conditions under the
        round's loads; a (damped) ``throughput_mbps`` that differs replaces
        their throughput, once per trace.  ``wait_ms`` holds each class's
        wait.  Every controller is first restored to its epoch-start state
        value in ``snapshots``: the fixed-point search may call ``decide``
        several times per epoch, but controller state must advance exactly
        once per epoch.

        Returns the decisions and the traces whose handed conditions some
        class swept (:attr:`CosimControlContext.swept_keys`), in class order.
        """
        handed = [
            current
            if throughput == current.throughput_mbps
            else replace(current, throughput_mbps=throughput)
            for current, throughput in zip(conditions, throughput_mbps)
        ]
        decisions: List[int] = []
        swept: List[int] = []
        for cls_index, cls in enumerate(self._classes):
            trace = self._trace_of_class[cls_index]
            current = handed[trace]
            cls.controller.restore(snapshots[cls_index])
            cls.context.decision_wait_ms = wait_ms[cls_index]
            log = cls.context.swept_keys
            log.clear()
            index = int(cls.controller.decide(epoch, current, cls.context))
            if not 0 <= index < cls.context.n_candidates:
                raise ConfigurationError(
                    f"controller {cls.controller.name!r} chose candidate "
                    f"{index}, but only {cls.context.n_candidates} exist"
                )
            if log and trace not in swept and cls.context._key(current) in log:
                swept.append(trace)
            decisions.append(index)
        return decisions, tuple(swept)

    def _prefetch(self, conditions_under: Callable[[int], List[EpochConditions]]) -> None:
        """Evaluate, in one call, the keys the previous epoch's rounds predict.

        Replays :attr:`_trajectory` on this epoch's conditions: each round's
        offloader count gives the traces' endogenous conditions
        (``conditions_under``), :meth:`_round_throughputs` the throughput the
        round would hand over, and every trace a class swept in that round
        gives one key.  The keys no memo holds are evaluated in one batch.
        The rounds then sweep as before: a predicted key is a memo hit, and
        a key the replay missed is evaluated live.  A memo row holds the same
        bits whatever batch filled it, so no answer changes.
        """
        keys: List[_Key] = []
        throughput: List[Optional[float]] = [None] * len(self._traces)
        for n_offloaded, exact, swept in self._trajectory:
            conditions = conditions_under(n_offloaded)
            throughput = self._round_throughputs(conditions, throughput, exact)
            keys.extend(
                _condition_key(throughput[trace], conditions[trace].handoff_probability)
                for trace in swept
            )
        n_fresh = self._blocks.evaluate_missing(keys)
        registry = telemetry.get()
        if n_fresh and registry.enabled:
            registry.add("cosim.prefetch.keys", n_fresh)

    def run(self) -> CosimReport:
        """Drive the closed loop over every epoch, in epoch order."""
        with telemetry.get().span(
            "cosim.run",
            users=self._n_users,
            epochs=self._classes[0].trace.n_epochs,
            classes=len(self._classes),
        ):
            return self._run()

    def _run(self) -> CosimReport:
        classes = self._classes
        n_users = self._n_users
        n_epochs = classes[0].trace.n_epochs
        epoch_ms = classes[0].trace.epoch_ms
        for cls in classes:
            cls.controller = copy.deepcopy(cls.template)
            cls.context.decision_wait_ms = 0.0
            cls.controller.reset(cls.context)
            cls.outcomes = []
        self._prev_decisions: List[Optional[int]] = [None] * len(classes)
        self._trajectory = []
        # The fleet's mean quality under every final decision vector so far.
        self._mean_quality: Dict[Tuple[int, ...], float] = {}

        groups = _UserGroups(n_users)
        series: Dict[str, list] = {
            name: []
            for name in (
                "converged",
                "iterations",
                "offload_fraction",
                "miss_fraction",
                "p50",
                "p95",
                "p99",
                "mean_latency",
                "total_energy",
                "mean_energy",
                "mean_quality",
                "max_rho",
                "availability",
            )
        }
        sample_values: List[np.ndarray] = []
        sample_counts: List[np.ndarray] = []
        for epoch in range(n_epochs):
            self._run_epoch(epoch, groups, series, sample_values, sample_counts)

        registry = telemetry.get()
        if registry.enabled:
            registry.add("cosim.user_groups", groups.first_user.size)

        class_reports: List[AdaptationReport] = []
        user_switches = np.zeros(n_users, dtype=int)
        for cls, user_array in zip(classes, self._user_arrays):
            report = build_adaptation_report(
                cls.controller.name,
                cls.trace,
                cls.context,
                cls.frames_per_epoch,
                cls.outcomes,
            )
            class_reports.append(report)
            user_switches[user_array] = report.switch_count
        user_miss = groups.miss[groups.of_user]
        user_latency_sum = groups.latency_sum[groups.of_user]
        user_energy_j = groups.energy_j[groups.of_user]

        # Every user-epoch latency, as (value, count) pairs of the slots.
        sample_latency = np.concatenate(sample_values)
        # At N == 1 no queueing exists, every sample is finite, and the
        # plain linear path preserves the AdaptationReport degeneracy.
        method = percentile_method(sample_latency)
        fleet_p50, fleet_p95, fleet_p99 = percentiles_from_counts(
            sample_latency, np.concatenate(sample_counts), (50, 95, 99), method
        )
        return CosimReport(
            n_users=n_users,
            n_epochs=n_epochs,
            epoch_ms=epoch_ms,
            deadline_ms=self.deadline_ms,
            n_edges=self.n_edges,
            max_iterations=self.max_iterations,
            class_names=tuple(cls.name for cls in classes),
            class_sizes=tuple(cls.n_users for cls in classes),
            class_reports=tuple(class_reports),
            converged=tuple(series["converged"]),
            iterations=tuple(series["iterations"]),
            offload_fraction=tuple(series["offload_fraction"]),
            miss_fraction=tuple(series["miss_fraction"]),
            p50_latency_ms=tuple(series["p50"]),
            p95_latency_ms=tuple(series["p95"]),
            p99_latency_ms=tuple(series["p99"]),
            mean_latency_ms=tuple(series["mean_latency"]),
            total_energy_mj=tuple(series["total_energy"]),
            mean_energy_mj=tuple(series["mean_energy"]),
            mean_quality=tuple(series["mean_quality"]),
            max_edge_utilization=tuple(series["max_rho"]),
            user_names=tuple(user.name for user in self.population),
            user_miss_rate=tuple((user_miss / n_epochs).tolist()),
            user_mean_latency_ms=tuple((user_latency_sum / n_epochs).tolist()),
            user_energy_j=tuple(user_energy_j.tolist()),
            user_switch_count=tuple(user_switches.tolist()),
            deadline_miss_rate=float(np.sum(user_miss) / (n_users * n_epochs)),
            fleet_p50_latency_ms=fleet_p50,
            fleet_p95_latency_ms=fleet_p95,
            fleet_p99_latency_ms=fleet_p99,
            total_energy_j=float(np.sum(user_energy_j)),
            mean_quality_overall=float(np.mean(series["mean_quality"])),
            switch_count=int(np.sum(user_switches)),
            epoch_availability=tuple(series["availability"]),
            faults=fault_outcome(self.faults, self.n_edges, series["miss_fraction"]),
        )

    def _solve(
        self, epoch: int, fault_state: Optional[EpochFaultState]
    ) -> Tuple[List[int], _EpochLoads, List[EpochConditions], bool, int]:
        """The best-response fixed point of one epoch.

        Returns the final decisions, their exact (undamped) loads and the
        classes' endogenous conditions under them, whether the fixed point
        was verified, and the iterations spent.  Conditions and throughputs
        are kept per distinct trace, and each class reads its trace's.
        """
        classes = self._classes
        base = [trace[epoch] for trace in self._traces]
        if fault_state is not None:
            # Link degradation reshapes the exogenous channel *before*
            # contention; edge-side faults act through the loads below.
            base = [fault_state.apply_to_conditions(c) for c in base]
        snapshots = [cls.controller.state() for cls in classes]
        # Per-trace endogenous conditions by offloader count, shared by the
        # prefetch, the decision rounds and the charging step.
        endogenous: Dict[int, List[EpochConditions]] = {}

        def conditions_under(n_offloaded: int) -> List[EpochConditions]:
            if n_offloaded not in endogenous:
                endogenous[n_offloaded] = [
                    self._endogenous(exogenous, n_offloaded) for exogenous in base
                ]
            return endogenous[n_offloaded]

        self._prefetch(conditions_under)
        trajectory: List[_Round] = []
        decisions: List[Optional[int]] = list(self._prev_decisions)
        prev_wait: List[Optional[float]] = [None] * len(classes)
        prev_thr: List[Optional[float]] = [None] * len(self._traces)
        converged = False
        iterations = 0
        loads: Optional[_EpochLoads] = None
        # Whether `loads` was computed for the current `decisions` vector
        # (lets the charging step skip a recomputation).
        loads_current = False
        registry = telemetry.get()
        n_blends = 0

        while iterations < self.max_iterations:
            iterations += 1
            loads = self._loads(decisions, fault_state)
            loads_current = True
            conditions = conditions_under(loads.n_offloaded)
            exact_wait = loads.decision_wait_ms
            exact_thr = self._round_throughputs(conditions, prev_thr, exact=True)
            used_wait = [
                self._damp(previous, exact)
                for previous, exact in zip(prev_wait, exact_wait)
            ]
            used_thr = self._round_throughputs(conditions, prev_thr, exact=False)
            if registry.enabled:
                n_blends += sum(
                    used != exact for used, exact in zip(used_wait, exact_wait)
                )
                n_blends += sum(
                    used_thr[trace] != exact_thr[trace] for trace in self._trace_of_class
                )
            prev_wait, prev_thr = used_wait, used_thr
            new_decisions, swept = self._decide_round(
                epoch, conditions, used_thr, snapshots, used_wait
            )
            trajectory.append(_Round(loads.n_offloaded, False, swept))
            if new_decisions != decisions:
                decisions = new_decisions
                loads_current = False
                continue
            if used_wait == exact_wait and used_thr == exact_thr:
                # The stable decisions were made against their own exact
                # implied conditions: a genuine best-response fixed point.
                converged = True
                break
            # Decisions are stable only under the *damped* conditions, which
            # may be a relaxation artifact (e.g. a blended throughput parked
            # inside a hysteresis dead band).  Spend one iteration verifying
            # against the exact implied conditions before declaring a fixed
            # point.
            if iterations >= self.max_iterations:
                break
            iterations += 1
            verification, swept = self._decide_round(
                epoch, conditions, exact_thr, snapshots, exact_wait
            )
            trajectory.append(_Round(loads.n_offloaded, True, swept))
            prev_wait, prev_thr = list(exact_wait), exact_thr
            if verification == decisions:
                converged = True
                break
            decisions = verification
            loads_current = False
        self._prev_decisions = decisions
        # Rounds after the last one anybody swept predict no key.
        while trajectory and not trajectory[-1].swept:
            trajectory.pop()
        self._trajectory = trajectory

        if registry.enabled:
            registry.add("cosim.epochs")
            if converged:
                registry.add("cosim.epochs_converged")
            else:
                registry.add("cosim.epochs_unconverged")
                if not loads_current:
                    # The budget ran out with decisions still moving in the
                    # final round: a best-response cycle, not a stable-but-
                    # unverified point.
                    registry.add("cosim.epochs_oscillating")
            registry.add("cosim.best_response_iterations", iterations)
            registry.add("cosim.damping_blends", n_blends)
            registry.record("cosim.iterations_per_epoch", iterations)
            if fault_state is not None and fault_state.any_fault:
                registry.add("faults.epochs_faulted")
                registry.add(
                    "faults.edges_dead",
                    fault_state.n_edges - fault_state.n_edges_alive,
                )

        # Charge outcomes with the exact (undamped) loads of the final
        # decisions — the realised regime, self-consistent when converged.
        # Every converged exit leaves `loads` computed for exactly this
        # decision vector; only budget-exhausted exits need a recomputation.
        if not loads_current:
            loads = self._loads(decisions, fault_state)
        final = conditions_under(loads.n_offloaded)
        final_conditions = [final[trace] for trace in self._trace_of_class]
        return decisions, loads, final_conditions, converged, iterations

    def _run_epoch(
        self,
        epoch: int,
        groups: _UserGroups,
        series: Dict[str, list],
        sample_values: List[np.ndarray],
        sample_counts: List[np.ndarray],
    ) -> None:
        classes = self._classes
        n_users = self._n_users
        fault_state = (
            self._injector.state(epoch) if self._injector is not None else None
        )
        decisions, loads, final_conditions, converged, iterations = self._solve(
            epoch, fault_state
        )
        n_classes = len(classes)
        latency_c = np.empty(n_classes)
        energy_c = np.empty(n_classes)
        quality_c = np.empty(n_classes)
        frames_c = np.empty(n_classes)
        roi_c: List[Optional[float]] = [None] * n_classes
        for cls_index, cls in enumerate(classes):
            cls.context.decision_wait_ms = 0.0
            evaluation = cls.context.sweep(final_conditions[cls_index])
            index = decisions[cls_index]
            latency_c[cls_index] = evaluation.latency_ms[index]
            energy_c[cls_index] = evaluation.energy_mj[index]
            quality_c[cls_index] = cls.context.quality[index]
            frames_c[cls_index] = cls.frames_per_epoch[index]
            if evaluation.min_roi is not None:
                roi_c[cls_index] = float(evaluation.min_roi[index])

        # Charge every slot once and the per-user totals once per group.
        deal = loads.deal
        slot_class = deal.slot_class
        slot_wait = loads.slot_wait_ms
        slot_latency = latency_c[slot_class] + slot_wait
        wait_energy = np.where(
            np.isinf(slot_wait), 0.0, self.network.radio_idle_power_w * slot_wait
        )
        slot_energy = energy_c[slot_class] + wait_energy
        slot_missed = slot_latency > self.deadline_ms
        groups.charge(
            deal, slot_missed, slot_latency, slot_energy * frames_c[slot_class] / 1e3
        )
        # The reductions whose last bit NumPy's pairwise summation fixes
        # still take the per-user arrays.
        latency_user = slot_latency[deal.slot_of_user]
        energy_user = slot_energy[deal.slot_of_user]
        mean_latency = float(np.mean(latency_user))
        total_energy = float(np.sum(energy_user))
        # np.mean is exactly the sum divided by the count.
        mean_energy = total_energy / n_users
        if n_classes == 1:
            # The class holds every user, in population order: its means are
            # the fleet's.
            class_means = [(mean_latency, mean_energy)]
        else:
            class_means = [
                (float(np.mean(latency_user[users])), float(np.mean(energy_user[users])))
                for users in self._user_arrays
            ]
        decision_key = tuple(decisions)
        mean_quality = self._mean_quality.get(decision_key)
        if mean_quality is None:
            mean_quality = float(np.mean(quality_c[self._class_of_user]))
            self._mean_quality[decision_key] = mean_quality

        method = percentile_method(slot_latency)
        percentiles = percentiles_from_counts(
            slot_latency, deal.slot_count, (50, 95, 99), method
        )
        series["converged"].append(converged)
        series["iterations"].append(iterations)
        series["offload_fraction"].append(loads.n_offloaded / n_users)
        series["miss_fraction"].append(int(deal.slot_count[slot_missed].sum()) / n_users)
        for name, value in zip(("p50", "p95", "p99"), percentiles):
            series[name].append(value)
        series["mean_latency"].append(mean_latency)
        series["total_energy"].append(total_energy)
        series["mean_energy"].append(mean_energy)
        series["mean_quality"].append(mean_quality)
        series["max_rho"].append(float(loads.edge_busy.max()))
        series["availability"].append(
            fault_state.availability if fault_state is not None else 1.0
        )
        sample_values.append(slot_latency)
        sample_counts.append(deal.slot_count)

        for cls_index, (cls, (class_latency, class_energy)) in enumerate(
            zip(classes, class_means)
        ):
            outcome = EpochOutcome(
                epoch=epoch,
                index=decisions[cls_index],
                latency_ms=class_latency,
                energy_mj=class_energy,
                quality=float(quality_c[cls_index]),
                deadline_missed=class_latency > self.deadline_ms,
                min_roi=roi_c[cls_index],
            )
            cls.controller.observe(epoch, final_conditions[cls_index], outcome)
            cls.outcomes.append(outcome)


# ---------------------------------------------------------------------------
# Sharded entry point
# ---------------------------------------------------------------------------


def _run_shard(payload: tuple) -> Tuple[CosimReport, Optional[dict]]:
    """Run one shard; optionally capture its telemetry snapshot.

    ``capture`` makes the shard record into a *fresh* registry (restored
    afterwards) whether it runs in a pool worker or in-process during the
    serial fallback — the merged parent-side snapshot is identical either
    way, which keeps the fallback bit-compatible.
    """
    population, controller, trace, kwargs, capture = payload
    if not capture:
        return CoSimulation(population, controller, trace, **kwargs).run(), None
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        report = CoSimulation(population, controller, trace, **kwargs).run()
    return report, registry.snapshot()


def run_cosim(
    population: FleetPopulation,
    controller: ControllerLike,
    trace: TraceLike,
    *,
    n_shards: int = 1,
    backend: Optional[str] = None,
    **kwargs,
) -> Union[CosimReport, ShardedCosimReport]:
    """Run a co-simulation, optionally sharded across independent cells.

    With ``n_shards == 1`` this is exactly ``CoSimulation(...).run()``.
    Otherwise the population is partitioned round-robin into ``n_shards``
    independent cells — each with its own Wi-Fi channel and ``n_edges``
    edge servers — and the shards fan out through the execution backend
    named by ``backend`` (default: ``REPRO_EXEC_BACKEND``, then the
    hardened process pool; see :func:`repro.exec.resolve_backend`):
    unpicklable specifications fall back to in-process execution, and a
    shard whose worker crashes or exceeds the backend's task timeout
    (``REPRO_EXEC_TIMEOUT_S``) is re-executed serially while completed
    shards keep their results.
    Shards are deterministic and merged in shard order, so every backend
    and every recovery path produces a result bit-identical to the
    all-serial run.
    """
    n_shards = ensure_integer("n_shards", n_shards)
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    population = (
        population
        if isinstance(population, FleetPopulation)
        else FleetPopulation(users=tuple(population))
    )
    if n_shards == 1:
        return CoSimulation(population, controller, trace, **kwargs).run()
    if n_shards > len(population):
        raise ConfigurationError(
            f"cannot split {len(population)} users into {n_shards} shards"
        )
    registry = telemetry.get()
    capture = registry.enabled
    payloads = [
        (
            FleetPopulation(users=population.users[shard::n_shards]),
            controller,
            trace,
            kwargs,
            capture,
        )
        for shard in range(n_shards)
    ]
    with registry.span("cosim.run_sharded", users=len(population), shards=n_shards):
        results = resolve_backend(backend).map_tasks(
            _run_shard,
            payloads,
            max_workers=n_shards,
            label="exec",
        )
        with registry.span("cosim.merge_shards", shards=n_shards):
            # Shard snapshots merge in shard order (associative, so any
            # grouping agrees on every deterministic field).
            for _, snapshot in results:
                if snapshot is not None:
                    registry.merge_snapshot(snapshot)
            return ShardedCosimReport.from_shards(
                tuple(report for report, _ in results)
            )
