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
relaxed between iterations (``damping``) to tame decision flapping; the
*charged* outcomes always use the exact loads implied by the final
decisions.  Every epoch's convergence flag and iteration count are recorded
on the :class:`~repro.cosim.results.CosimReport` — an adversarial fleet
whose best responses cycle is reported, not hidden.

Equivalence classes
-------------------
Users sharing ``(device, app, controller, trace)`` see identical conditions
and make identical decisions, so the engine simulates one representative
controller per class and multiplies: a 10k-user homogeneous fleet costs the
same controller work as a single user.  Loads and charges are computed per
*slot* — one per offloading (class, edge) pair of the round-robin deal plus
one per local class.  Dealing users onto edges is O(users), but fleets
revisit few offloading patterns, so the deal is cached per pattern
(:data:`DEAL_CACHE_SIZE`) and a best-response iteration that reuses one does
one accumulation per edge and one tagged wait per slot; per-user arrays are
only gathered from slot values once per epoch, for the charged means and
sums.  Candidate evaluation inside each class goes through the vectorized
batch engine (:class:`repro.batch.ConditionedPoints`) via the pre-warmed
:class:`~repro.adaptive.runtime.ControlContext` sweep cache.

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
  contended throughput, same per-edge accumulation order, same tagged
  M/G/1 waits).
"""

from __future__ import annotations

import copy
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.adaptive.controllers import Controller
from repro.adaptive.runtime import (
    AdaptationReport,
    CandidateEvaluation,
    ControlContext,
    EpochOutcome,
    build_adaptation_report,
    default_candidates,
)
from repro.adaptive.traces import ConditionTrace, EpochConditions
from repro.batch.grid import OperatingPoint
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.framework import XRPerformanceModel
from repro.cosim.results import CosimReport, ShardedCosimReport
from repro.exceptions import ConfigurationError
from repro.exec import resolve_backend
from repro.faults.report import fault_outcome
from repro.faults.schedule import EpochFaultState, FaultInjector, FaultSchedule
from repro.fleet.contention import ContentionModel
from repro.fleet.edge_scheduler import EdgeScheduler
from repro.fleet.population import FleetPopulation, UserProfile
from repro.simulation.des import EventScheduler

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

    def sweep(self, conditions: EpochConditions) -> CandidateEvaluation:
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


@dataclass(frozen=True)
class _Deal:
    """The round-robin deal of one offloading pattern onto the alive edges.

    Users sit in *slots*: one per offloading ``(class, edge)`` pair, in
    class-then-edge order, then one local slot per class that does not
    offload.  Every slot holds at least one user, and all users of a slot
    see the same wait, latency and energy.

    Attributes:
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
    the local slots after them hold 0.
    """

    deal: _Deal
    edge_rate: np.ndarray
    edge_busy: np.ndarray
    slot_wait_ms: np.ndarray

    @property
    def n_offloaded(self) -> int:
        """Users whose class offloads."""
        return self.deal.n_offloaded


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
        network: base network configuration of the shared channel.
        contention: Wi-Fi contention model fed back from the offload count
            (defaults to one wrapping ``network``).
        scheduler: edge GPU queueing model.
        deadline_ms: per-frame end-to-end latency budget.
        objective: candidate-selection objective inside each class.
        candidates: explicit operating points shared by every class; None
            derives :func:`~repro.adaptive.runtime.default_candidates` from
            each class's device/app.
        coefficients / complexity_mode / include_aoi: forwarded to the batch
            evaluation contexts.
        max_iterations: best-response iteration budget per epoch (>= 2 so a
            fixed point can be verified).
        damping: relaxation factor in (0, 1] applied to the endogenous
            throughput/wait between iterations (1.0 = undamped best
            response).  Charged outcomes always use undamped final loads.
        prewarm: pre-fill each class's sweep cache for its exogenous trace
            with one batched call.
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
        edge: Union[str, EdgeServerSpec] = "EDGE-AGX",
        n_edges: int = 1,
        network: Optional[NetworkConfig] = None,
        contention: Optional[ContentionModel] = None,
        scheduler: Optional[EdgeScheduler] = None,
        deadline_ms: float = 700.0,
        objective: str = "quality",
        candidates: Optional[Sequence[OperatingPoint]] = None,
        coefficients: Optional[CoefficientSet] = None,
        complexity_mode: str = "paper",
        include_aoi: bool = True,
        max_iterations: int = 8,
        damping: float = 0.5,
        prewarm: bool = True,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if n_edges < 1:
            raise ConfigurationError(f"need at least one edge server, got {n_edges}")
        if max_iterations < 2:
            raise ConfigurationError(
                f"max_iterations must be >= 2 to verify a fixed point, "
                f"got {max_iterations}"
            )
        if not 0.0 < damping <= 1.0:
            raise ConfigurationError(f"damping must be in (0, 1], got {damping}")
        self.population = (
            population
            if isinstance(population, FleetPopulation)
            else FleetPopulation(users=tuple(population))
        )
        self.edge = edge
        self.n_edges = n_edges
        self.network = network if network is not None else NetworkConfig()
        self.contention = (
            contention if contention is not None else ContentionModel(network=self.network)
        )
        self.scheduler = scheduler if scheduler is not None else EdgeScheduler()
        self.deadline_ms = float(deadline_ms)
        self.objective = objective
        self.coefficients = (
            coefficients if coefficients is not None else CoefficientSet.paper()
        )
        self.complexity_mode = complexity_mode
        self.include_aoi = include_aoi
        self.max_iterations = int(max_iterations)
        self.damping = float(damping)
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
        self._deals: "OrderedDict[Tuple[bytes, Tuple[int, ...]], _Deal]" = OrderedDict()
        self._classes, self._class_of_user = self._build_classes(
            controller, trace, candidates, prewarm
        )
        self._user_arrays = [
            np.asarray(cls.user_indices, dtype=np.intp) for cls in self._classes
        ]

    # -- construction ---------------------------------------------------------

    @staticmethod
    def _resolve(spec, user: UserProfile, kind: str):
        if isinstance(spec, Mapping):
            try:
                return spec[user.name]
            except KeyError:
                raise ConfigurationError(
                    f"no {kind} given for user {user.name!r}"
                ) from None
        if isinstance(spec, ConditionTrace):
            return spec
        if callable(spec) and not isinstance(spec, Controller):
            return spec(user)
        return spec

    def _model_for(self, device) -> XRPerformanceModel:
        key = device if isinstance(device, str) else id(device)
        model = self._models.get(key)
        if model is None:
            model = XRPerformanceModel(
                device=device,
                edge=self.edge,
                coefficients=self.coefficients,
                complexity_mode=self.complexity_mode,
            )
            self._models[key] = model
        return model

    def _build_classes(
        self,
        controller: ControllerLike,
        trace: TraceLike,
        candidates: Optional[Sequence[OperatingPoint]],
        prewarm: bool,
    ) -> Tuple[List[_UserClass], np.ndarray]:
        classes: List[_UserClass] = []
        class_of_user = np.empty(self._n_users, dtype=np.intp)
        key_to_index: Dict[tuple, int] = {}
        for index, user in enumerate(self.population):
            user_controller = self._resolve(controller, user, "controller")
            user_trace = self._resolve(trace, user, "trace")
            if not isinstance(user_trace, ConditionTrace):
                raise ConfigurationError(
                    f"cannot interpret {user_trace!r} as a condition trace"
                )
            key = (user.device, user.app, id(user_controller), id(user_trace))
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
            if (
                cls.trace.n_epochs != reference.n_epochs
                or cls.trace.epoch_ms != reference.epoch_ms
            ):
                raise ConfigurationError(
                    "all class traces must share the same epoch count and length; "
                    f"got {cls.trace.n_epochs} x {cls.trace.epoch_ms} ms vs "
                    f"{reference.n_epochs} x {reference.epoch_ms} ms"
                )
        for cls in classes:
            cls_candidates = (
                tuple(candidates)
                if candidates is not None
                else default_candidates(
                    device=cls.device, edge=self.edge, app=cls.app, network=self.network
                )
            )
            cls.context = CosimControlContext(
                candidates=cls_candidates,
                deadline_ms=self.deadline_ms,
                objective=self.objective,
                coefficients=self.coefficients,
                complexity_mode=self.complexity_mode,
                include_aoi=self.include_aoi,
                radio_idle_power_w=self.network.radio_idle_power_w,
            )
            cls.arrival_per_ms = np.asarray(
                [point.app.frame_rate_fps / 1e3 for point in cls_candidates]
            )
            service = np.zeros(len(cls_candidates))
            for i, point in enumerate(cls_candidates):
                if cls.context.offload_mask[i]:
                    # The same per-frame edge busy time the fleet analyzer
                    # charges (memoized per device model).
                    service[i] = self._model_for(
                        point.device
                    ).latency_model.remote_inference_ms(point.app)
            cls.service_ms = service
            offloading = service[cls.context.offload_mask]
            cls.service_ref_ms = float(offloading.min()) if offloading.size else 1.0
            cls.frames_per_epoch = np.asarray(
                [
                    cls.trace.epoch_ms / point.app.frame_period_ms
                    for point in cls_candidates
                ]
            )
            if prewarm:
                cls.context.prewarm(cls.trace)
        return classes, class_of_user

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

    def _damp(self, previous: Optional[float], new: float) -> float:
        if (
            previous is None
            or previous == new
            or self.damping >= 1.0
            or math.isinf(new)
            or math.isinf(previous)
        ):
            return new
        return self.damping * new + (1.0 - self.damping) * previous

    # -- loads ----------------------------------------------------------------

    def _deal(self, offload_c: np.ndarray, alive: Tuple[int, ...]) -> _Deal:
        """The (cached) round-robin deal of an offloading pattern."""
        key = (offload_c.tobytes(), alive)
        deal = self._deals.get(key)
        if deal is None:
            deal = self._build_deal(offload_c, alive)
            self._deals[key] = deal
            if len(self._deals) > DEAL_CACHE_SIZE:
                self._deals.popitem(last=False)
        else:
            self._deals.move_to_end(key)
        return deal

    def _build_deal(self, offload_c: np.ndarray, alive: Tuple[int, ...]) -> _Deal:
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
            (alive[j], offloader_classes[j::n_alive])
            for j in range(min(n_alive, offloaders.size))
        )
        return _Deal(
            n_offloaded=int(offloaders.size),
            edge_classes=edge_classes,
            pairs=pairs,
            slot_class=slot_class,
            slot_of_user=slot_of_user,
            slot_count=np.bincount(slot_of_user, minlength=slot_class.size),
        )

    def _loads(
        self,
        decisions: Sequence[Optional[int]],
        fault_state: Optional[EpochFaultState] = None,
    ) -> _EpochLoads:
        """Edge loads and per-slot waits implied by a decision vector.

        Replicates ``FleetAnalyzer.analyze`` operation for operation: users
        whose chosen candidate offloads are dealt round-robin onto the edge
        servers in population order, each edge's offered load accumulates in
        that order (``np.cumsum`` over the edge's tenant classes preserves
        the scalar addition order), and every (class, edge) slot's wait is
        the tagged M/G/1 wait of the *other* tenants' load — ``inf`` when
        the edge's aggregate load is unstable.

        Under a fault state, dead edges leave the round-robin deal (the
        survivors absorb the load) and each surviving edge's busy fraction
        and waits are scaled by its effective service multiplier
        (brownout/straggler).  With every edge dead, offloaders wait
        forever.  A scale of exactly 1.0 leaves every float untouched, so
        the no-fault path is bit-identical to the pre-fault engine.
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
        alive = fault_state.alive_edges if fault_state is not None else self._all_edges
        deal = self._deal(offload_c, alive)
        edge_rate = np.zeros(self.n_edges)
        edge_busy = np.zeros(self.n_edges)
        for edge_index, tenants in deal.edge_classes:
            scale = (
                fault_state.service_scale(edge_index) if fault_state is not None else 1.0
            )
            rate_u = rate_c[tenants]
            edge_rate[edge_index] = np.cumsum(rate_u)[-1]
            edge_busy[edge_index] = np.cumsum(rate_u * service_c[tenants])[-1] * scale
        slot_wait = np.zeros(deal.slot_class.size)
        for slot, (cls_index, edge_index) in enumerate(deal.pairs):
            if not alive:
                # Every edge is down: offloaded frames never complete.
                slot_wait[slot] = math.inf
                continue
            scale = (
                fault_state.service_scale(edge_index) if fault_state is not None else 1.0
            )
            own_rate = float(rate_c[cls_index])
            own_service = float(service_c[cls_index])
            own_busy = own_rate * own_service * scale
            if edge_busy[edge_index] >= 1.0:
                wait = math.inf
            else:
                background = max(edge_rate[edge_index] - own_rate, 0.0)
                background_busy = max(edge_busy[edge_index] - own_busy, 0.0)
                wait = self.scheduler.tagged_waiting_time_ms(
                    own_service * scale,
                    background,
                    background_busy / background if background > 0.0 else None,
                )
            slot_wait[slot] = wait
        return _EpochLoads(
            deal=deal, edge_rate=edge_rate, edge_busy=edge_busy, slot_wait_ms=slot_wait
        )

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
        if loads.edge_busy[edge_index] >= 1.0:
            return math.inf
        rate = float(loads.edge_rate[edge_index])
        if rate <= 0.0:
            return 0.0
        scale = (
            fault_state.service_scale(edge_index) if fault_state is not None else 1.0
        )
        return self.scheduler.tagged_waiting_time_ms(
            self._classes[cls_index].service_ref_ms * scale,
            rate,
            float(loads.edge_busy[edge_index]) / rate,
        )

    # -- the epoch loop -------------------------------------------------------

    def _decide_round(
        self,
        epoch: int,
        base: Sequence[EpochConditions],
        snapshots: Sequence[Controller],
        loads: _EpochLoads,
        wait_ms: Sequence[float],
        throughput_mbps: Sequence[float],
    ) -> List[int]:
        """One synchronized decision round under the given per-class conditions.

        Every controller is restored from its epoch-start snapshot first:
        the fixed-point search may call ``decide`` several times per epoch,
        but controller state must advance exactly once per epoch.
        """
        decisions: List[int] = []
        for cls_index, cls in enumerate(self._classes):
            conditions = self._endogenous(base[cls_index], loads.n_offloaded)
            if throughput_mbps[cls_index] != conditions.throughput_mbps:
                conditions = replace(
                    conditions, throughput_mbps=throughput_mbps[cls_index]
                )
            cls.controller = copy.deepcopy(snapshots[cls_index])
            cls.context.decision_wait_ms = wait_ms[cls_index]
            index = int(cls.controller.decide(epoch, conditions, cls.context))
            if not 0 <= index < cls.context.n_candidates:
                raise ConfigurationError(
                    f"controller {cls.controller.name!r} chose candidate "
                    f"{index}, but only {cls.context.n_candidates} exist"
                )
            decisions.append(index)
        return decisions

    def run(self) -> CosimReport:
        """Drive the closed loop over every epoch on the shared DES clock."""
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

        user_miss = np.zeros(n_users)
        user_latency_sum = np.zeros(n_users)
        user_energy_j = np.zeros(n_users)
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

        def step(scheduler: EventScheduler) -> None:
            epoch = len(series["converged"])
            self._run_epoch(
                epoch,
                scheduler.now_ms,
                user_miss,
                user_latency_sum,
                user_energy_j,
                series,
                sample_values,
                sample_counts,
            )
            if epoch + 1 < n_epochs:
                scheduler.schedule_in(epoch_ms, step)

        clock = EventScheduler()
        clock.schedule_at(0.0, step)
        clock.run(max_events=n_epochs + 1)

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

        # Every user-epoch latency, as (value, count) pairs of the slots.
        sample_latency = np.concatenate(sample_values)
        # Saturated-fleet samples are infinite; linear interpolation would
        # produce inf - inf = nan, so fall back to order statistics exactly
        # like FleetReport.  At N == 1 no queueing exists, every sample is
        # finite, and the plain linear path preserves the AdaptationReport
        # degeneracy.
        method = "linear" if np.isfinite(sample_latency).all() else "lower"
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
            user_miss_rate=tuple(float(v) for v in user_miss / n_epochs),
            user_mean_latency_ms=tuple(float(v) for v in user_latency_sum / n_epochs),
            user_energy_j=tuple(float(v) for v in user_energy_j),
            user_switch_count=tuple(int(v) for v in user_switches),
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

    def _run_epoch(
        self,
        epoch: int,
        now_ms: float,
        user_miss: np.ndarray,
        user_latency_sum: np.ndarray,
        user_energy_j: np.ndarray,
        series: Dict[str, list],
        sample_values: List[np.ndarray],
        sample_counts: List[np.ndarray],
    ) -> None:
        classes = self._classes
        fault_state = (
            self._injector.state(epoch) if self._injector is not None else None
        )
        base = [cls.trace[epoch] for cls in classes]
        if fault_state is not None:
            # Link degradation reshapes the exogenous channel *before*
            # contention; edge-side faults act through the loads below.
            base = [fault_state.apply_to_conditions(c) for c in base]
        snapshots = [copy.deepcopy(cls.controller) for cls in classes]
        decisions: List[Optional[int]] = list(self._prev_decisions)
        prev_wait: List[Optional[float]] = [None] * len(classes)
        prev_thr: List[Optional[float]] = [None] * len(classes)
        converged = False
        iterations = 0
        loads: Optional[_EpochLoads] = None
        # Whether `loads` was computed for the current `decisions` vector
        # (lets the charging step below skip a recomputation).
        loads_current = False
        registry = telemetry.get()
        n_blends = 0

        while iterations < self.max_iterations:
            iterations += 1
            loads = self._loads(decisions, fault_state)
            loads_current = True
            exact_wait = [
                self._decision_wait(cls_index, loads, fault_state)
                for cls_index in range(len(classes))
            ]
            exact_thr = [
                self._endogenous(base[cls_index], loads.n_offloaded).throughput_mbps
                for cls_index in range(len(classes))
            ]
            used_wait = [
                self._damp(previous, exact)
                for previous, exact in zip(prev_wait, exact_wait)
            ]
            used_thr = [
                self._damp(previous, exact)
                for previous, exact in zip(prev_thr, exact_thr)
            ]
            if registry.enabled:
                n_blends += sum(
                    used != exact for used, exact in zip(used_wait, exact_wait)
                )
                n_blends += sum(
                    used != exact for used, exact in zip(used_thr, exact_thr)
                )
            prev_wait, prev_thr = used_wait, used_thr
            new_decisions = self._decide_round(
                epoch, base, snapshots, loads, used_wait, used_thr
            )
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
            verification = self._decide_round(
                epoch, base, snapshots, loads, exact_wait, exact_thr
            )
            prev_wait, prev_thr = list(exact_wait), list(exact_thr)
            if verification == decisions:
                converged = True
                break
            decisions = verification
            loads_current = False
        self._prev_decisions = decisions

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
        n_classes = len(classes)
        latency_c = np.empty(n_classes)
        energy_c = np.empty(n_classes)
        quality_c = np.empty(n_classes)
        frames_c = np.empty(n_classes)
        roi_c: List[Optional[float]] = [None] * n_classes
        final_conditions: List[EpochConditions] = []
        for cls_index, cls in enumerate(classes):
            conditions = self._endogenous(base[cls_index], loads.n_offloaded)
            final_conditions.append(conditions)
            cls.context.decision_wait_ms = 0.0
            evaluation = cls.context.sweep(conditions)
            index = decisions[cls_index]
            latency_c[cls_index] = evaluation.latency_ms[index]
            energy_c[cls_index] = evaluation.energy_mj[index]
            quality_c[cls_index] = cls.context.quality[index]
            frames_c[cls_index] = cls.frames_per_epoch[index]
            if evaluation.min_roi is not None:
                roi_c[cls_index] = float(evaluation.min_roi[index])

        # Charge every slot once, then gather the per-user arrays the
        # per-user accumulators and the per-epoch means and sums need.
        deal = loads.deal
        slot_class = deal.slot_class
        slot_wait = loads.slot_wait_ms
        slot_latency = latency_c[slot_class] + slot_wait
        wait_energy = np.where(
            np.isinf(slot_wait), 0.0, self.network.radio_idle_power_w * slot_wait
        )
        slot_energy = energy_c[slot_class] + wait_energy
        slot_of_user = deal.slot_of_user
        latency_user = slot_latency[slot_of_user]
        energy_user = slot_energy[slot_of_user]
        missed_user = latency_user > self.deadline_ms

        user_miss += missed_user
        user_latency_sum += latency_user
        user_energy_j += (slot_energy * frames_c[slot_class] / 1e3)[slot_of_user]

        method = "linear" if np.isfinite(slot_latency).all() else "lower"
        percentiles = percentiles_from_counts(
            slot_latency, deal.slot_count, (50, 95, 99), method
        )
        series["converged"].append(converged)
        series["iterations"].append(iterations)
        series["offload_fraction"].append(loads.n_offloaded / self._n_users)
        series["miss_fraction"].append(float(np.mean(missed_user)))
        for name, value in zip(("p50", "p95", "p99"), percentiles):
            series[name].append(value)
        series["mean_latency"].append(float(np.mean(latency_user)))
        series["total_energy"].append(float(np.sum(energy_user)))
        series["mean_energy"].append(float(np.mean(energy_user)))
        series["mean_quality"].append(float(np.mean(quality_c[self._class_of_user])))
        series["max_rho"].append(float(loads.edge_busy.max()))
        series["availability"].append(
            fault_state.availability if fault_state is not None else 1.0
        )
        sample_values.append(slot_latency)
        sample_counts.append(deal.slot_count)

        for cls_index, (cls, user_array) in enumerate(
            zip(classes, self._user_arrays)
        ):
            mean_latency = float(np.mean(latency_user[user_array]))
            outcome = EpochOutcome(
                epoch=epoch,
                time_ms=now_ms,
                index=decisions[cls_index],
                latency_ms=mean_latency,
                energy_mj=float(np.mean(energy_user[user_array])),
                quality=float(quality_c[cls_index]),
                deadline_missed=mean_latency > self.deadline_ms,
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
    # Thread-local activation: correct in a process worker, a thread
    # worker, and the in-process serial fallback alike.
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        report = CoSimulation(population, controller, trace, **kwargs).run()
    return report, registry.snapshot()


def run_cosim(
    population: FleetPopulation,
    controller: ControllerLike,
    trace: TraceLike,
    *,
    n_shards: int = 1,
    shard_timeout_s: Optional[float] = None,
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
    shard whose worker crashes or exceeds ``shard_timeout_s`` is
    re-executed serially while completed shards keep their results.
    Shards are deterministic and merged in shard order, so every backend
    and every recovery path produces a result bit-identical to the
    all-serial run.
    """
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
            timeout_s=shard_timeout_s,
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
