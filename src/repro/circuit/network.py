"""Minimal linear RC network solver — the SPICE substitute.

The DRAM column is modeled as a lumped network of capacitive nodes joined
by resistors, with ideal voltage sources behind series resistances
(drivers).  Within one operation *phase* (precharge, charge-share, sense,
write, ...) the switch states are constant, so the network is linear and
the node voltages obey::

    C dV/dt = -G V + s

with ``C`` the diagonal capacitance matrix, ``G`` the conductance Laplacian
(including driver conductances on the diagonal) and ``s`` the driver
current injections.  The exact transient over a phase of duration ``t`` is
computed with the augmented matrix exponential::

    [V(t)]   [exp(t * [A  b])]  [V(0)]
    [ 1  ] = [       [0  0] ]   [ 1  ]      A = -C^-1 G,  b = C^-1 s

which is robust even when ``G`` is singular (fully floating nodes simply
hold their charge).  Node counts are tiny (~15), so this is fast enough for
the thousands of operating points a ``(R_def, U)`` sweep needs.

Because the network is linear, the transient map is *affine in the initial
state*: ``V(t) = Phi V(0) + phi`` where the propagator ``(Phi, phi)``
depends only on the phase topology ``(C, G, s, duration)`` — not on the
voltages it is applied to.  A ``(R_def, U)`` sweep re-enters the same phase
configurations thousands of times with different initial states, so
:meth:`Network.run` factors into "build a canonical phase signature → look
up or compute the propagator → apply it", with the propagators held in a
process-global LRU (:func:`propagator_cache_info`,
:func:`propagator_cache_clear`, ``solver.propagator_hits/misses``
telemetry).  :meth:`Network.run_batch` applies one propagator to many
initial-state columns as a single matrix-matrix product, and
:class:`NetworkEnsemble` stacks such products across defect resistances —
a whole ``(R_def, U)`` tile then costs one stacked solve per phase.  See
``docs/PERFORMANCE.md``.

A resistance of :data:`OPEN` (infinite) removes an edge entirely; ``0`` is
clamped to a small positive value to keep the system well conditioned.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import SolverDivergenceError

__all__ = [
    "OPEN",
    "GuardPolicy",
    "GuardConfig",
    "Network",
    "NetworkEnsemble",
    "GridResult",
    "PropagatorCacheInfo",
    "propagator_cache_info",
    "propagator_cache_clear",
    "propagator_cache_configure",
    "ensemble_cache_info",
    "ensemble_cache_clear",
    "ensemble_cache_configure",
    "solver_guards_configure",
    "solver_guards_info",
]

#: Sentinel resistance meaning "no connection".
OPEN = math.inf

#: Resistances below this are clamped (ideal wires handled as merges).
_R_MIN = 1e-3

#: Edges with conductance below this are dropped as effectively open.
_G_MIN = 1e-15


class GuardPolicy(Enum):
    """What happens when a numerical guard rail trips (``docs/ROBUSTNESS.md``).

    * ``RAISE`` — the trip propagates as a
      :class:`~repro.errors.SolverDivergenceError` (the default);
    * ``QUARANTINE`` — the solver still raises, but the *analysis* layer
      catches the error and records the grid point as quarantined instead
      of killing the survey;
    * ``FALLBACK`` — the solver first retries the phase as
      ``fallback_substeps`` shorter sub-phases (better-conditioned series
      evaluation); only if the recomputed result still trips does the
      error propagate.
    """

    RAISE = "raise"
    QUARANTINE = "quarantine"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class GuardConfig:
    """Numerical guard-rail configuration of the RC solver.

    The cheap post-phase checks (``nan_checks``: NaN/Inf and
    voltage-rail bounds) are on by default — a passive RC network's node
    voltages provably stay within the convex hull of the initial node
    voltages and the driver levels, so ``rail_margin`` volts beyond that
    hull is unambiguous divergence.  The stiffness/condition estimate on
    ``G`` (``condition_checks``) costs a little per propagator build and
    is opt-in.
    """

    nan_checks: bool = True
    condition_checks: bool = False
    policy: GuardPolicy = GuardPolicy.RAISE
    rail_margin: float = 0.5
    condition_limit: float = 1e12
    fallback_substeps: int = 4


_GUARDS = GuardConfig()


def solver_guards_configure(
    nan_checks: Optional[bool] = None,
    condition_checks: Optional[bool] = None,
    policy: Optional[GuardPolicy] = None,
    rail_margin: Optional[float] = None,
    condition_limit: Optional[float] = None,
    fallback_substeps: Optional[int] = None,
) -> None:
    """Reconfigure the process-global solver guard rails.

    Workers configure themselves from the :class:`AnalyzerSpec` they
    rebuild, so a policy set here does not cross process boundaries by
    itself (see ``repro.parallel``).
    """
    global _GUARDS
    updates = {}
    if nan_checks is not None:
        updates["nan_checks"] = bool(nan_checks)
    if condition_checks is not None:
        updates["condition_checks"] = bool(condition_checks)
    if policy is not None:
        updates["policy"] = GuardPolicy(policy)
    if rail_margin is not None:
        if rail_margin < 0:
            raise ValueError("rail_margin must be non-negative")
        updates["rail_margin"] = float(rail_margin)
    if condition_limit is not None:
        if condition_limit <= 0:
            raise ValueError("condition_limit must be positive")
        updates["condition_limit"] = float(condition_limit)
    if fallback_substeps is not None:
        if fallback_substeps < 2:
            raise ValueError("fallback_substeps must be >= 2")
        updates["fallback_substeps"] = int(fallback_substeps)
    _GUARDS = replace(_GUARDS, **updates)


def solver_guards_info() -> GuardConfig:
    """The current process-global guard configuration (a frozen copy)."""
    return _GUARDS


#: Test/chaos seam: when set, called as ``hook(v_t, info)`` on every solve
#: result *before* the guard checks, and may return a corrupted array —
#: this is how ``repro.inject`` proves the guards fire.  ``info`` carries
#: ``{"batch": bool, "n_nodes": int, "n_lanes": int}``; grid solves add
#: ``{"grid": True, "member": int, "member_r": float}`` and call the hook
#: once per ensemble member with that member's ``(n_nodes, n_lanes)``
#: block of real lanes (a padded stack's filler lanes are never shown).
_FAULT_HOOK: Optional[Callable[[np.ndarray, dict], np.ndarray]] = None


def _install_solver_fault_hook(
    hook: Optional[Callable[[np.ndarray, dict], np.ndarray]]
) -> None:
    """Install (or clear, with ``None``) the solver fault-injection hook."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


@dataclass
class _Driver:
    node: int
    voltage: float
    resistance: float


class PropagatorCacheInfo(NamedTuple):
    """Propagator-cache statistics (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int
    evictions: int = 0


class _PropagatorCache:
    """Process-global LRU of phase propagators, keyed by phase signature.

    The cached value is a pure function of the key: propagators are always
    computed from the *canonical* (sorted) edge/driver arrangement the key
    encodes, so a hit returns bit-identical results no matter which
    insertion order, process, or warm-up history produced the entry.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        hit_counter: str = "solver.propagator_hits",
        miss_counter: str = "solver.propagator_misses",
        eviction_counter: str = "solver.propagator_evictions",
    ) -> None:
        self._data: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self.maxsize = maxsize
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._hit_counter = hit_counter
        self._miss_counter = miss_counter
        self._eviction_counter = eviction_counter

    def lookup(self, key: tuple) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if not self.enabled:
            return None
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            telemetry.count(self._miss_counter)
            return None
        self._data.move_to_end(key)
        self.hits += 1
        telemetry.count(self._hit_counter)
        return value

    def store(self, key: tuple, value: Tuple[np.ndarray, np.ndarray]) -> None:
        if not self.enabled or self.maxsize == 0:
            return
        while len(self._data) >= self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            telemetry.count(self._eviction_counter)
        self._data[key] = value

    def evict(self, key: tuple) -> None:
        """Drop one entry (no-op if absent); used when a guard trips."""
        if self._data.pop(key, None) is not None:
            self.evictions += 1
            telemetry.count(self._eviction_counter)

    def info(self) -> PropagatorCacheInfo:
        return PropagatorCacheInfo(
            self.hits, self.misses, self.maxsize, len(self._data),
            self.evictions,
        )

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def configure(
        self,
        maxsize: Optional[int] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        if maxsize is not None:
            if maxsize < 0:
                raise ValueError("maxsize must be non-negative")
            self.maxsize = maxsize
            while len(self._data) > maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        if enabled is not None:
            self.enabled = bool(enabled)


_PROPAGATORS = _PropagatorCache()

#: Stacked ``(Phi, phi)`` blocks for whole ensembles, keyed by the shared
#: topology plus the tuple of per-member configurations.  Entries are
#: assembled *through* the scalar cache (see
#: :meth:`NetworkEnsemble._propagators`), so the two caches can never
#: disagree on a member's propagator bits.
_ENSEMBLES = _PropagatorCache(
    maxsize=1024,
    hit_counter="solver.ensemble_hits",
    miss_counter="solver.ensemble_misses",
    eviction_counter="solver.ensemble_evictions",
)


def propagator_cache_info() -> PropagatorCacheInfo:
    """Hit/miss/size statistics of the process-global propagator cache."""
    return _PROPAGATORS.info()


def propagator_cache_clear() -> None:
    """Drop every cached propagator and zero the statistics.

    Also drops the ensemble (stacked-propagator) cache: its entries are
    assembled from scalar-cache values, and timing comparisons expect a
    single "cold" switch.
    """
    _PROPAGATORS.clear()
    _ENSEMBLES.clear()


def propagator_cache_configure(
    maxsize: Optional[int] = None, enabled: Optional[bool] = None
) -> None:
    """Resize or enable/disable the propagator cache (for tests/benchmarks).

    Disabling does not drop existing entries; re-enabling reuses them.
    """
    _PROPAGATORS.configure(maxsize=maxsize, enabled=enabled)


def ensemble_cache_info() -> PropagatorCacheInfo:
    """Hit/miss/size statistics of the stacked-propagator ensemble cache."""
    return _ENSEMBLES.info()


def ensemble_cache_clear() -> None:
    """Drop every cached ensemble propagator stack and zero the statistics."""
    _ENSEMBLES.clear()


def ensemble_cache_configure(
    maxsize: Optional[int] = None, enabled: Optional[bool] = None
) -> None:
    """Resize or enable/disable the ensemble cache (for tests/benchmarks)."""
    _ENSEMBLES.configure(maxsize=maxsize, enabled=enabled)


class Network:
    """A lumped RC network with per-phase resistor/driver configuration.

    Typical usage::

        net = Network()
        bl = net.add_node("bl", c=300e-15, v=1.65)
        cell = net.add_node("cell", c=30e-15, v=3.3)
        net.connect(bl, cell, r=8e3)          # access transistor on
        net.drive(bl, v=1.65, r=2e3)          # precharge device
        net.run(5e-9)                          # simulate the phase
        net.clear_phase()                      # drop resistors and drivers

    Node capacitances and voltages persist across phases; resistors and
    drivers are per-phase and must be re-declared after
    :meth:`clear_phase`.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._caps: List[float] = []
        self._volts: List[float] = []
        self._edges: List[Tuple[int, int, float]] = []
        self._drivers: List[_Driver] = []

    # -- topology -------------------------------------------------------------

    def add_node(self, name: str, c: float, v: float = 0.0) -> int:
        """Add a capacitive node and return its index."""
        if name in self._index:
            raise ValueError(f"duplicate node name {name!r}")
        if c <= 0:
            raise ValueError(f"node {name!r} must have positive capacitance")
        idx = len(self._names)
        self._names.append(name)
        self._index[name] = idx
        self._caps.append(c)
        self._volts.append(v)
        return idx

    def node_index(self, name: str) -> int:
        return self._index[name]

    @property
    def node_names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    # -- state ---------------------------------------------------------------

    def voltage(self, node) -> float:
        """Voltage of a node (by index or name)."""
        return self._volts[self._resolve(node)]

    def set_voltage(self, node, v: float) -> None:
        """Force a node voltage (used to initialize floating voltages)."""
        self._volts[self._resolve(node)] = float(v)

    def voltages(self) -> Dict[str, float]:
        return dict(zip(self._names, self._volts))

    def state_vector(self) -> np.ndarray:
        """The node voltages as an array (column order = node indices)."""
        return np.asarray(self._volts, dtype=float)

    def _resolve(self, node) -> int:
        if isinstance(node, str):
            return self._index[node]
        return int(node)

    # -- per-phase configuration ------------------------------------------------

    def connect(self, a, b, r: float) -> None:
        """Join two nodes with a resistor; ``r=OPEN`` is a no-op."""
        ia, ib = self._resolve(a), self._resolve(b)
        if ia == ib:
            raise ValueError("cannot connect a node to itself")
        if not math.isfinite(r):
            return
        self._edges.append((ia, ib, max(r, _R_MIN)))

    def drive(self, node, v: float, r: float) -> None:
        """Attach an ideal source of value ``v`` behind series ``r``."""
        if not math.isfinite(r):
            return
        self._drivers.append(_Driver(self._resolve(node), float(v), max(r, _R_MIN)))

    def clear_phase(self) -> None:
        """Remove all resistors and drivers (keep node voltages)."""
        self._edges.clear()
        self._drivers.clear()

    # -- propagators ---------------------------------------------------------------

    def _phase_signature(self, duration: float) -> tuple:
        """Canonical, hashable encoding of the current phase topology.

        Two phase configurations that build the same electrical system get
        the same signature regardless of the order ``connect``/``drive``
        were called in: edges are orientation-normalized and sorted,
        drivers are sorted.  Node capacitances are part of the key because
        they scale the system matrix.
        """
        edges = tuple(
            sorted(
                (ia, ib, r) if ia < ib else (ib, ia, r)
                for ia, ib, r in self._edges
            )
        )
        drivers = tuple(
            sorted((d.node, d.voltage, d.resistance) for d in self._drivers)
        )
        return (len(self._names), tuple(self._caps), edges, drivers, duration)

    @staticmethod
    def _augmented_matrix(key: tuple) -> np.ndarray:
        """The scaled ``(n+1, n+1)`` augmented system matrix of a signature.

        Shared by the scalar and ensemble engines so both exponentiate
        byte-identical inputs.
        """
        n, caps, edges, drivers, duration = key
        g = np.zeros((n, n))
        s = np.zeros(n)
        for ia, ib, r in edges:
            cond = 1.0 / r
            if cond < _G_MIN:
                continue
            g[ia, ia] += cond
            g[ib, ib] += cond
            g[ia, ib] -= cond
            g[ib, ia] -= cond
        for node, voltage, resistance in drivers:
            cond = 1.0 / resistance
            if cond < _G_MIN:
                continue
            g[node, node] += cond
            s[node] += cond * voltage
        inv_c = 1.0 / np.asarray(caps)
        a = -g * inv_c[:, None]
        b = s * inv_c
        if _GUARDS.condition_checks:
            # cond(G) is legitimately infinite for floating nodes, so the
            # usable stiffness proxy is the spread of the *nonzero* decay
            # rates |diag(A)|.  Advisory only: counts, never raises.
            rates = np.abs(np.diag(a))
            rates = rates[rates > 0]
            if rates.size >= 2 and rates.max() / rates.min() > _GUARDS.condition_limit:
                telemetry.count("solver.guard_ill_conditioned")
        # Augmented exponential: handles singular G (floating nodes) exactly.
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = a * duration
        aug[:n, n] = b * duration
        return aug

    @staticmethod
    def _augmented_stack(keys: Sequence[tuple]) -> np.ndarray:
        """Stacked twin of :meth:`_augmented_matrix` for keys of one size.

        Slice ``j`` is bit-identical to ``_augmented_matrix(keys[j])``:
        every element receives the same contributions in the same order
        as in the scalar loop (per edge ``(ia, ia)``, ``(ib, ib)``, then
        the two off-diagonals; drivers after all edges).  ``np.add.at``
        applies repeated indices one after another in index order, and
        ``x + (-c)`` rounds exactly like ``x - c``.
        """
        count, n = len(keys), keys[0][0]
        g = np.zeros((count, n, n))
        s = np.zeros((count, n))
        edges = [edge for key in keys for edge in key[2]]
        if edges:
            e = np.array(edges, dtype=float)
            member = np.repeat(np.arange(count), [len(key[2]) for key in keys])
            cond = 1.0 / e[:, 2]
            keep = ~(cond < _G_MIN)
            ia = e[keep, 0].astype(np.intp)
            ib = e[keep, 1].astype(np.intp)
            c = cond[keep]
            np.add.at(
                g,
                (
                    np.repeat(member[keep], 4),
                    np.stack((ia, ib, ia, ib), axis=1).ravel(),
                    np.stack((ia, ib, ib, ia), axis=1).ravel(),
                ),
                np.stack((c, c, -c, -c), axis=1).ravel(),
            )
        drivers = [drv for key in keys for drv in key[3]]
        if drivers:
            d = np.array(drivers, dtype=float)
            member = np.repeat(np.arange(count), [len(key[3]) for key in keys])
            cond = 1.0 / d[:, 2]
            keep = ~(cond < _G_MIN)
            node = d[keep, 0].astype(np.intp)
            c = cond[keep]
            np.add.at(g, (member[keep], node, node), c)
            np.add.at(s, (member[keep], node), c * d[keep, 1])
        inv_c = 1.0 / np.array([key[1] for key in keys], dtype=float)
        a = -g * inv_c[:, :, None]
        b = s * inv_c
        if _GUARDS.condition_checks:
            for rates in np.abs(np.diagonal(a, axis1=1, axis2=2)):
                rates = rates[rates > 0]
                if rates.size >= 2 and rates.max() / rates.min() > _GUARDS.condition_limit:
                    telemetry.count("solver.guard_ill_conditioned")
        durations = np.array([key[4] for key in keys], dtype=float)
        aug = np.zeros((count, n + 1, n + 1))
        aug[:, :n, :n] = a * durations[:, None, None]
        aug[:, :n, n] = b * durations[:, None]
        return aug

    @staticmethod
    def _compute_propagator(key: tuple) -> Tuple[np.ndarray, np.ndarray]:
        """Build ``(Phi, phi)`` from a phase signature (a pure function)."""
        n = key[0]
        exp = _expm(Network._augmented_matrix(key))
        phi = exp[:n, :n].copy()
        offset = exp[:n, n].copy()
        phi.setflags(write=False)
        offset.setflags(write=False)
        return phi, offset

    def _propagator(self, duration: float) -> Tuple[np.ndarray, np.ndarray]:
        """The phase map ``V -> Phi V + phi``, via the process-global LRU."""
        key = self._phase_signature(duration)
        cached = _PROPAGATORS.lookup(key)
        if cached is not None:
            return cached
        value = self._compute_propagator(key)
        phi, offset = value
        if np.isfinite(phi).all() and np.isfinite(offset).all():
            # A non-finite propagator must never enter the cache: every
            # later application would silently diverge from a cache hit.
            _PROPAGATORS.store(key, value)
        elif _GUARDS.nan_checks:
            raise SolverDivergenceError(
                "nan", "computed propagator is non-finite", duration=duration
            )
        return value

    @classmethod
    def cache_info(cls) -> PropagatorCacheInfo:
        """Statistics of the process-global propagator cache."""
        return _PROPAGATORS.info()

    @classmethod
    def cache_clear(cls) -> None:
        """Drop the process-global propagator cache."""
        _PROPAGATORS.clear()

    # -- guard rails ---------------------------------------------------------------

    def _apply_once(
        self, duration: float, v0: np.ndarray, batch: bool
    ) -> np.ndarray:
        """One propagator application, routed through the fault-hook seam."""
        phi, offset = self._propagator(duration)
        v_t = phi @ v0 + (offset if v0.ndim == 1 else offset[:, None])
        if _FAULT_HOOK is not None:
            n_lanes = 1 if v0.ndim == 1 else v0.shape[1]
            info = {"batch": batch, "n_nodes": v0.shape[0], "n_lanes": n_lanes}
            v_t = np.asarray(_FAULT_HOOK(v_t, info), dtype=float)
        return v_t

    def _check_result(
        self, v0: np.ndarray, v_t: np.ndarray
    ) -> Optional[Tuple[str, str, dict]]:
        """``None`` if ``v_t`` passes the NaN/rail guards, else the trip.

        The rail bound is the physics, not a heuristic: a passive RC
        network's node voltages stay within the convex hull of the initial
        node voltages and the driver levels, so anything ``rail_margin``
        volts beyond that hull is unambiguous divergence.
        """
        finite = np.isfinite(v_t)
        if not finite.all():
            rows = np.unique(np.argwhere(~finite)[:, 0])
            bad = ",".join(self._names[int(i)] for i in rows)
            return "nan", "non-finite node voltage", {"nodes": bad}
        v0m = v0 if v0.ndim == 2 else v0[:, None]
        vtm = v_t if v_t.ndim == 2 else v_t[:, None]
        lo = v0m.min(axis=0)
        hi = v0m.max(axis=0)
        drivers = [d.voltage for d in self._drivers]
        if drivers:
            lo = np.minimum(lo, min(drivers))
            hi = np.maximum(hi, max(drivers))
        margin = _GUARDS.rail_margin
        below = vtm < lo - margin
        above = vtm > hi + margin
        if below.any() or above.any():
            overshoot = np.where(above, vtm - (hi + margin), 0.0)
            overshoot = np.maximum(overshoot, np.where(below, (lo - margin) - vtm, 0.0))
            rows = np.unique(np.argwhere(below | above)[:, 0])
            bad = ",".join(self._names[int(i)] for i in rows)
            return (
                "rail",
                "node voltage escaped the source/initial-state hull",
                {"nodes": bad, "overshoot_v": round(float(overshoot.max()), 6)},
            )
        return None

    def _on_trip(self, guard: str, duration: float) -> None:
        telemetry.count("solver.guard_trips")
        telemetry.count(f"solver.guard_{guard}")
        # Never leave the propagator behind a tripped solve in the cache.
        _PROPAGATORS.evict(self._phase_signature(duration))

    def _try_substeps(self, duration: float, v0: np.ndarray) -> Optional[np.ndarray]:
        """FALLBACK recompute: the phase as ``k`` shorter sub-phases.

        A smaller ``duration`` shrinks the scaled matrix norm, so the
        Taylor series in :func:`_expm` is better conditioned.  Returns
        ``None`` if the recomputed result still fails the guards.
        """
        k = _GUARDS.fallback_substeps
        try:
            phi, offset = self._propagator(duration / k)
        except SolverDivergenceError:
            return None
        off = offset if v0.ndim == 1 else offset[:, None]
        v = v0
        for _ in range(k):
            v = phi @ v + off
        if _GUARDS.nan_checks and self._check_result(v0, v) is not None:
            return None
        telemetry.count("solver.guard_fallbacks")
        return v

    def _guarded_apply(
        self, duration: float, v0: np.ndarray, batch: bool
    ) -> np.ndarray:
        guards = _GUARDS
        try:
            v_t = self._apply_once(duration, v0, batch)
        except SolverDivergenceError as err:
            self._on_trip(err.guard, duration)
            if guards.policy is GuardPolicy.FALLBACK:
                v_sub = self._try_substeps(duration, v0)
                if v_sub is not None:
                    return v_sub
            raise
        if not guards.nan_checks:
            return v_t
        trip = self._check_result(v0, v_t)
        if trip is None:
            return v_t
        guard, message, context = trip
        self._on_trip(guard, duration)
        if guards.policy is GuardPolicy.FALLBACK:
            v_sub = self._try_substeps(duration, v0)
            if v_sub is not None:
                return v_sub
        raise SolverDivergenceError(guard, message, duration=duration, **context)

    # -- simulation ---------------------------------------------------------------

    def run(self, duration: float) -> Dict[str, float]:
        """Advance the network by ``duration`` seconds; return node voltages."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        n = len(self._names)
        if n == 0 or duration == 0:
            return self.voltages()
        if telemetry.enabled():
            telemetry.count("solver.settles")
            telemetry.observe("solver.nodes", n)
        if not self._edges and not self._drivers:
            # Fully floating phase: every node holds its charge exactly.
            telemetry.count("solver.floating_skips")
            return self.voltages()
        v_t = self._guarded_apply(duration, np.asarray(self._volts), batch=False)
        self._volts = [float(x) for x in v_t]
        return self.voltages()

    def run_batch(self, duration: float, v0_matrix) -> np.ndarray:
        """Advance many initial states through one phase in lock-step.

        ``v0_matrix`` has one row per node and one column per batch lane;
        the result has the same shape.  The network's own node voltages are
        left untouched: batch state lives with the caller.  One propagator
        lookup serves the whole batch — many lanes cost a single
        matrix-matrix product instead of one solve per lane.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        v0 = np.array(v0_matrix, dtype=float)
        if v0.ndim != 2 or v0.shape[0] != len(self._names):
            raise ValueError(
                f"v0_matrix must be (n_nodes, n_lanes); got {v0.shape} "
                f"for {len(self._names)} nodes"
            )
        if v0.shape[0] == 0 or duration == 0:
            return v0
        if telemetry.enabled():
            telemetry.count("solver.batch_settles")
            telemetry.observe("solver.batch_lanes", v0.shape[1])
        if not self._edges and not self._drivers:
            telemetry.count("solver.floating_skips")
            return v0
        return self._guarded_apply(duration, v0, batch=True)


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with Pade-free Taylor.

    scipy.linalg.expm would also do; a local implementation keeps the hot
    path dependency-free and fast for the small (<20x20) matrices we use.
    The convergence check against ``norm(result)`` is guarded by a running
    triangle-inequality upper bound (``1 + sum(norm(term))``), so the true
    norm is only computed when the cheap bound says the series may already
    have converged — the break decisions (and therefore the result bits)
    are identical to checking the true norm every term.
    """
    norm = np.linalg.norm(m, ord=np.inf)
    if norm == 0:
        return np.eye(m.shape[0])
    # Scale so the Taylor series converges quickly.
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1)
    scaled = m / (2.0 ** squarings)
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    buf = np.empty_like(scaled)
    result_norm_ub = 1.0
    for k in range(1, 18):
        np.matmul(term, scaled, out=buf)
        buf /= k
        term, buf = buf, term
        result += term
        term_norm = np.linalg.norm(term, ord=np.inf)
        result_norm_ub += term_norm
        if term_norm < 1e-16 * result_norm_ub and term_norm < (
            1e-16 * np.linalg.norm(result, ord=np.inf)
        ):
            break
    for _ in range(squarings):
        np.matmul(result, result, out=buf)
        result, buf = buf, result
    return result


def _expm_stack(ms: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a ``(N, n, n)`` stack, slice-for-slice
    bit-identical to ``[_expm(m) for m in ms]``.

    Scaling, the Taylor recurrence, and the convergence test are all
    elementwise or slice-local, so running them on the stacked array
    performs the exact same float operations per slice as the scalar
    routine — members just march in lock-step.  Each member keeps its own
    scaling exponent and its own break decision: a converged member
    leaves the Taylor stack (mirroring the scalar early ``break``) and is
    multiplied no further, and the exact result norm is taken only for
    members whose running bound already passes, as in :func:`_expm`.
    The stack is sorted by squaring count, most first, so every squaring
    step squares a leading slice.
    """
    ms = np.asarray(ms, dtype=float)
    count, n = ms.shape[0], ms.shape[1]
    if count == 0:
        return np.empty_like(ms)
    norms = _inf_norms(ms)
    squarings = np.zeros(count, dtype=int)
    for i, norm in enumerate(norms):
        if norm > 0:
            squarings[i] = max(0, int(math.ceil(math.log2(norm))) + 1)
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    result = np.broadcast_to(np.eye(n), ms.shape).copy()
    # Positions (in sorted order) still in the Taylor loop; norm == 0
    # slices are exactly the identity and never enter it.
    live = np.flatnonzero(norms[order] > 0)
    scaled = ms[order[live]] / (2.0 ** squarings[live])[:, None, None]
    acc = result[live]
    term = acc.copy()
    result_norm_ub = np.ones(live.size)
    for k in range(1, 18):
        if not live.size:
            break
        term = np.matmul(term, scaled)
        term /= k
        acc += term
        term_norm = _inf_norms(term)
        result_norm_ub += term_norm
        maybe = np.flatnonzero(term_norm < 1e-16 * result_norm_ub)
        if not maybe.size:
            continue
        done = maybe[term_norm[maybe] < 1e-16 * _inf_norms(acc[maybe])]
        if not done.size:
            continue
        result[live[done]] = acc[done]
        keep = np.ones(live.size, dtype=bool)
        keep[done] = False
        live, acc, term, scaled, result_norm_ub = (
            live[keep], acc[keep], term[keep], scaled[keep],
            result_norm_ub[keep],
        )
    result[live] = acc
    for step in range(int(squarings[0])):
        head = result[:np.count_nonzero(squarings > step)]
        head[...] = np.matmul(head, head)
    out = np.empty_like(result)
    out[order] = result
    return out


def _inf_norms(ms: np.ndarray) -> np.ndarray:
    """Per-slice infinity norm of a stack: max absolute row sum, the same
    reduction ``np.linalg.norm(m, ord=inf)`` performs on one slice."""
    return np.abs(ms).sum(axis=2).max(axis=1)


class GridResult(NamedTuple):
    """Result of :meth:`NetworkEnsemble.run_grid`/``run_grid_array``.

    ``voltages`` is the full ``(n_members, n_nodes, n_lanes)`` stack.
    Members listed in ``tripped`` (member index → guard name) hold
    unusable values and must be discarded: the ensemble never recovers a
    member in place — it reports the trip and lets the caller demote the
    member to the scalar path, which stays the bit-exact oracle
    (including its FALLBACK substep recovery).
    """

    voltages: Any
    tripped: Dict[int, str]


class NetworkEnsemble:
    """``N`` same-topology networks differing only in a few resistances.

    Wraps a host :class:`Network` (the topology and capacitance donor)
    and stacks ``n_members`` phase configurations: resistors and drivers
    common to every member are declared once with
    :meth:`connect`/:meth:`drive`, member-specific ones (the defect
    resistance, per-member sense-amp rails) for every member at once with
    :meth:`connect_members`/:meth:`drive_members`.

    :meth:`run_grid` advances every member's ``(n_nodes, n_lanes)`` state
    block through one phase with a single stacked matmul.  Member
    propagators are resolved *through* the scalar propagator cache — the
    grid and scalar engines share one source of truth and therefore stay
    bit-identical — and the assembled ``(N, n, n)`` stack is memoized in
    the ensemble cache (:func:`ensemble_cache_info`) unless
    ``stacked_cache`` is off.  Members whose propagators miss are built
    as one stack (:meth:`Network._augmented_stack`) and exponentiated
    together via :func:`_expm_stack`.
    """

    def __init__(
        self, host: Network, n_members: int, member_meta=None,
        member_lanes: Optional[Sequence[Sequence[int]]] = None,
        stacked_cache: bool = True,
    ) -> None:
        if n_members < 0:
            raise ValueError("n_members must be non-negative")
        if member_meta is not None and len(member_meta) != n_members:
            raise ValueError("member_meta must have one entry per member")
        if member_lanes is not None and len(member_lanes) != n_members:
            raise ValueError("member_lanes must have one entry per member")
        self._host = host
        self.n_members = int(n_members)
        #: Opaque per-member values surfaced to the fault hook as
        #: ``info["member_r"]`` (the grid engine passes defect R values).
        self._member_meta = member_meta
        #: Per-member original lane indices surfaced to the fault hook as
        #: ``info["lanes"]`` — the grid engine forks members by sense-amp
        #: state, so a member's columns are a *subset* of the sweep's U
        #: lanes and injectors need the mapping to target one point.
        self._member_lanes = member_lanes
        #: Whether assembled stacks go through the ensemble cache; off,
        #: only the scalar propagator cache is consulted.
        self._stacked_cache = stacked_cache
        # Edges are stored orientation-normalized (ia < ib), as they
        # appear in a phase signature.
        self._shared_edges: List[Tuple[int, int, float]] = []
        self._shared_drivers: List[Tuple[int, float, float]] = []
        self._member_edges: List[List[Tuple[int, int, float]]] = [
            [] for _ in range(self.n_members)
        ]
        self._member_drivers: List[List[Tuple[int, float, float]]] = [
            [] for _ in range(self.n_members)
        ]
        self._configured = False
        # Per-instance propagator memo: a caller that replays the same
        # (frozen) configuration skips even the signature computation.
        # Any mutation invalidates it (and the guard-hull cache below).
        self._prop_memo: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        self._rail_hull: Optional[Tuple[float, np.ndarray, np.ndarray]] = None

    # -- per-phase configuration ----------------------------------------------

    def connect(self, a, b, r: float) -> None:
        """Join two nodes with a resistor in *every* member."""
        edge = self._make_edge(a, b, r)
        if edge is not None:
            self._shared_edges.append(edge)
            self._mutated()

    def drive(self, node, v: float, r: float) -> None:
        """Attach a driver to *every* member."""
        drv = self._make_driver(node, v, r)
        if drv is not None:
            self._shared_drivers.append(drv)
            self._mutated()

    def connect_members(self, a, b, rs) -> None:
        """Join two nodes in each member, member ``m`` through ``rs[m]``.

        An ``OPEN`` entry leaves its member unconnected; small values are
        clamped as :meth:`Network.connect` does.
        """
        ia, ib = self._host._resolve(a), self._host._resolve(b)
        if ia == ib:
            raise ValueError("cannot connect a node to itself")
        if ia > ib:
            ia, ib = ib, ia
        added = False
        for edges, r in zip(self._member_edges, self._per_member(rs)):
            if math.isfinite(r):
                edges.append((ia, ib, max(r, _R_MIN)))
                added = True
        if added:
            self._mutated()

    def drive_members(self, node, volts, rs) -> None:
        """Attach a driver of level ``volts[m]`` behind ``rs[m]`` to each
        member ``m`` (``volts`` may be one level for all); an ``OPEN``
        entry leaves its member undriven."""
        i = self._host._resolve(node)
        added = False
        for drivers, v, r in zip(
            self._member_drivers, self._per_member(volts), self._per_member(rs)
        ):
            if math.isfinite(r):
                drivers.append((i, float(v), max(r, _R_MIN)))
                added = True
        if added:
            self._mutated()

    def clear_phase(self) -> None:
        """Remove all shared and member resistors/drivers."""
        self._shared_edges.clear()
        self._shared_drivers.clear()
        for edges in self._member_edges:
            edges.clear()
        for drivers in self._member_drivers:
            drivers.clear()
        self._mutated()
        self._configured = False

    def _mutated(self) -> None:
        self._configured = True
        self._prop_memo.clear()
        self._rail_hull = None

    def _per_member(self, values) -> list:
        """One float per member from a per-member sequence or a scalar."""
        if np.ndim(values) == 0:
            return [float(values)] * self.n_members
        values = np.asarray(values, dtype=float).tolist()
        if len(values) != self.n_members:
            raise ValueError(
                f"{len(values)} values for {self.n_members} members"
            )
        return values

    def _make_edge(self, a, b, r: float) -> Optional[Tuple[int, int, float]]:
        # Same semantics as Network.connect: OPEN is a no-op, small r is
        # clamped — the member signatures must match what a merged scalar
        # Network would produce.
        ia, ib = self._host._resolve(a), self._host._resolve(b)
        if ia == ib:
            raise ValueError("cannot connect a node to itself")
        if not math.isfinite(r):
            return None
        r = max(r, _R_MIN)
        return (ia, ib, r) if ia < ib else (ib, ia, r)

    def _make_driver(self, node, v: float, r: float) -> Optional[Tuple[int, float, float]]:
        if not math.isfinite(r):
            return None
        return (self._host._resolve(node), float(v), max(r, _R_MIN))

    # -- propagators ----------------------------------------------------------

    def _member_keys(self, duration: float) -> tuple:
        """Every member's *scalar* phase signature.

        Member ``m``'s key is identical to what
        :meth:`Network._phase_signature` returns for a Network configured
        with that member's shared + specific edges/drivers — the
        coherence contract with the scalar cache.  The tuple of member
        keys is also the ensemble's own cache key: it pins the whole
        configuration down exactly.
        """
        host = self._host
        nn = len(host._names)
        caps = tuple(host._caps)
        shared_e = self._shared_edges
        shared_d = self._shared_drivers
        return tuple(
            (nn, caps, tuple(sorted(shared_e + edges_m)),
             tuple(sorted(shared_d + drivers_m)), duration)
            for edges_m, drivers_m in zip(self._member_edges, self._member_drivers)
        )

    def _propagators(
        self, duration: float
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, str]]:
        """``(Phi_stack, phi_stack, bad)`` for the current configuration.

        ``bad`` maps members whose freshly computed propagator came out
        non-finite (they must be demoted; their stack rows are zeroed so
        they cannot poison the batched matmul).  Cache coherence: member
        values are first looked up in the scalar cache; misses are
        computed (as one stack when several miss at once) and stored back
        as compact copies, so a scalar solve of the same phase later hits
        the identical bits.
        """
        memo = self._prop_memo.get(duration)
        if memo is not None:
            return memo[0], memo[1], {}
        member_keys = self._member_keys(duration)
        key = (member_keys,)
        cached = _ENSEMBLES.lookup(key) if self._stacked_cache else None
        if cached is not None:
            phis, offs = cached
            self._prop_memo[duration] = (phis, offs)
            return phis, offs, {}
        n = len(self._host._names)
        phis = np.empty((self.n_members, n, n))
        offs = np.empty((self.n_members, n))
        missing: List[int] = []
        for m, mkey in enumerate(member_keys):
            value = _PROPAGATORS.lookup(mkey)
            if value is None:
                missing.append(m)
            else:
                phis[m], offs[m] = value
        bad: Dict[int, str] = {}
        all_finite = True
        if missing:
            if len(missing) == 1:
                # A lone miss goes through the scalar builder verbatim.
                exps = _expm(Network._augmented_matrix(member_keys[missing[0]]))[None]
            else:
                exps = _expm_stack(
                    Network._augmented_stack([member_keys[m] for m in missing])
                )
            # Rows [:n] hold Phi and phi; the augmentation row is [0 ... 0 1].
            finite = np.isfinite(exps[:, :n]).all(axis=(1, 2))
            phis[missing] = exps[:, :n, :n]
            offs[missing] = exps[:, :n, n]
            for m, ok in zip(missing, finite.tolist()):
                if ok:
                    # Same never-cache-non-finite rule as
                    # Network._propagator.  Copies, not views: a cached
                    # member must not keep the whole stack alive.
                    phi = phis[m].copy()
                    offset = offs[m].copy()
                    phi.setflags(write=False)
                    offset.setflags(write=False)
                    _PROPAGATORS.store(member_keys[m], (phi, offset))
                else:
                    all_finite = False
                    if _GUARDS.nan_checks:
                        bad[m] = "nan"
                        phis[m] = 0.0
                        offs[m] = 0.0
        phis.setflags(write=False)
        offs.setflags(write=False)
        if all_finite:
            if self._stacked_cache:
                _ENSEMBLES.store(key, (phis, offs))
            self._prop_memo[duration] = (phis, offs)
        return phis, offs, bad

    # -- simulation -----------------------------------------------------------

    def run_grid(self, duration: float, v0_stack) -> GridResult:
        """Advance all members' state blocks through one phase at once.

        ``v0_stack`` has shape ``(n_members, n_nodes, n_lanes)``.  The
        result block of every member is bit-identical to what
        :meth:`Network.run_batch` would produce for that member's merged
        configuration (and therefore label-identical to per-lane
        :meth:`Network.run`).  Guard rails are evaluated per member;
        tripping members are reported in :attr:`GridResult.tripped`
        rather than raising, so one pathological point never serializes
        its tile.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        v0 = np.array(v0_stack, dtype=float)
        n = len(self._host._names)
        if v0.ndim != 3 or v0.shape[0] != self.n_members or v0.shape[1] != n:
            raise ValueError(
                "v0_stack must be (n_members, n_nodes, n_lanes); got "
                f"{v0.shape} for {self.n_members} members x {n} nodes"
            )
        if self.n_members == 0 or n == 0 or duration == 0:
            return GridResult(v0, {})
        out, tripped = self._advance_stack(duration, v0)
        return GridResult(np.asarray(out), tripped)

    def run_grid_array(
        self, duration: float, v0_stack: np.ndarray,
        widths: Optional[np.ndarray] = None,
    ) -> GridResult:
        """Hot twin of :meth:`run_grid`: takes the ``(M, n, L)`` stack as-is
        (possibly a strided view of the caller's point pool) and returns the
        advanced stack without copies or per-block validation.

        ``widths`` marks a padded stack — the grid engine's forked phases,
        whose members carry different lane counts: member ``m`` has
        ``widths[m]`` real lanes and its remaining lanes repeat its last
        real one.  Each member's real lanes come out bit-identical to
        :meth:`Network.run_batch` over exactly those lanes.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if self.n_members == 0 or v0_stack.size == 0 or duration == 0:
            return GridResult(v0_stack, {})
        out, tripped = self._advance_stack(duration, v0_stack, widths)
        return GridResult(out, tripped)

    def _advance_stack(
        self, duration: float, v0_stack: np.ndarray,
        widths: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Dict[int, str]]:
        """The one solve path: a batched matmul over the ``(M, n, L)`` stack.

        np.matmul on a 3-D stack runs the identical GEMM per slice, and a
        lane's GEMM result does not depend on how many lanes sit beside
        it, so the bits match per-member 2-D products (and therefore
        :meth:`Network.run_batch`) exactly.  The one exception is a
        single lane: BLAS solves it as a matrix-vector product, which
        rounds differently, so one-lane members of a padded stack are
        solved again as a one-lane stack.
        """
        n = len(self._host._names)
        n_members, n_lanes = self.n_members, v0_stack.shape[2]
        if telemetry.enabled():
            telemetry.count("solver.grid_settles")
            telemetry.count("solver.grid_member_settles", n_members)
            telemetry.observe(
                "solver.grid_lanes",
                n_members * n_lanes if widths is None else int(widths.sum()),
            )
        if not self._configured:
            # Fully floating phase: every node holds its charge exactly.
            telemetry.count("solver.floating_skips")
            return v0_stack, {}
        phis, offs, bad = self._propagators(duration)
        # Node-major storage: the guards reduce over the node axis, which
        # is fast when it is the outermost one, and a caller's flat
        # (n_nodes, points) pool reshapes from it without a copy.
        nodes_first = np.empty((n, n_members, n_lanes))
        out = nodes_first.transpose(1, 0, 2)
        np.matmul(phis, v0_stack, out=out)
        nodes_first += offs.T[:, :, None]
        if widths is not None and n_lanes > 1:
            lone = np.flatnonzero(widths == 1)
            if lone.size:
                # Broadcast over the padding: it repeats the real lane.
                out[lone] = (
                    np.matmul(phis[lone], v0_stack[lone, :, :1])
                    + offs[lone, :, None]
                )
        if _FAULT_HOOK is not None:
            for m in range(n_members):
                if m in bad:
                    continue
                w = n_lanes if widths is None else int(widths[m])
                info = {
                    "batch": True,
                    "grid": True,
                    "member": m,
                    "n_nodes": n,
                    "n_lanes": w,
                }
                if self._member_meta is not None:
                    info["member_r"] = self._member_meta[m]
                if self._member_lanes is not None:
                    info["lanes"] = tuple(int(l) for l in self._member_lanes[m])
                out[m, :, :w] = np.asarray(
                    _FAULT_HOOK(out[m, :, :w], info), dtype=float
                )
                # The padding repeats the (possibly corrupted) last real
                # lane, so the guards below see real values only.
                out[m, :, w:] = out[m, :, w - 1:w]
        tripped: Dict[int, str] = {}
        for m, guard in bad.items():
            tripped[m] = guard
            self._count_trip(guard)
        if not _GUARDS.nan_checks:
            return out, tripped
        # The NaN/rail decisions of Network._check_result, from
        # per-(member, lane) extrema over the nodes: each lane's hull is
        # its own initial extrema and its member's driver levels, widened
        # by the margin — min(a, b) - m == min(a - m, b - m) exactly, since
        # rounding is monotonic.
        margin = _GUARDS.rail_margin
        rail_lo, rail_hi = self._rail_bounds(margin)
        omn = np.minimum.reduce(out, axis=1)
        omx = np.maximum.reduce(out, axis=1)
        lo = np.minimum.reduce(v0_stack, axis=1)
        lo -= margin
        np.minimum(lo, rail_lo, out=lo)
        hi = np.maximum.reduce(v0_stack, axis=1)
        hi += margin
        np.maximum(hi, rail_hi, out=hi)
        # Strict comparisons fail on NaN and on ±inf, so passing them
        # clears both guards at once; classify only after a failure.
        if ((omn > lo) & (omx < hi)).all():
            return out, tripped
        finite = np.isfinite(omn).all(axis=1) & np.isfinite(omx).all(axis=1)
        railed = ((omn < lo) | (omx > hi)).any(axis=1)
        member_keys = None
        for m in range(n_members):
            if m in tripped:
                continue
            if not finite[m]:
                guard = "nan"
            elif railed[m]:
                guard = "rail"
            else:
                continue
            tripped[m] = guard
            self._count_trip(guard)
            # Never leave the propagator behind a tripped solve cached —
            # neither the member's scalar entry nor the stacked block.
            if member_keys is None:
                member_keys = self._member_keys(duration)
                _ENSEMBLES.evict((member_keys,))
                self._prop_memo.pop(duration, None)
            _PROPAGATORS.evict(member_keys[m])
        return out, tripped

    def _rail_bounds(self, margin: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-member ``(min driver - margin, max driver + margin)`` as
        ``(M, 1)`` columns, cached until a mutation.

        Members without any driver get ``(+inf, -inf)`` so they extend no
        hull at all.
        """
        bounds = self._rail_hull
        if bounds is None or bounds[0] != margin:
            shared_v = [v for _, v, _ in self._shared_drivers]
            vlo = np.full(self.n_members, np.inf)
            vhi = np.full(self.n_members, -np.inf)
            for m, drivers in enumerate(self._member_drivers):
                volts = shared_v + [v for _, v, _ in drivers]
                if volts:
                    vlo[m] = min(volts)
                    vhi[m] = max(volts)
            bounds = self._rail_hull = (
                margin, (vlo - margin)[:, None], (vhi + margin)[:, None],
            )
        return bounds[1], bounds[2]

    @staticmethod
    def _count_trip(guard: str) -> None:
        telemetry.count("solver.guard_trips")
        telemetry.count(f"solver.guard_{guard}")
