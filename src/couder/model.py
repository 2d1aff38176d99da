"""Core domain types, validation, and path enumeration.

A fabric is a set of N pods interconnected through M optical circuit
switches.  The fixed pod-to-switch fiber striping is the *physical*
topology; circuit settings realize a pod-to-pod *logical* topology.
Routing uses direct (1-hop) and 2-hop inter-pod paths only.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import InvalidInputError

#: Absolute tolerance for all numeric invariant checks (LP solver precision).
TOL = 1e-6


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhysicalTopology:
    """Pod/OCS fabric: port striping and uniform link bandwidth.

    ``egress_ports[m][i]`` / ``ingress_ports[m][i]`` give the number of
    egress/ingress fibers connecting pod i to switch m.  Bandwidth is a
    single scalar in Gbps per logical link.
    """

    num_pods: int
    num_ocs: int
    egress_ports: np.ndarray  # (M, N) ints
    ingress_ports: np.ndarray  # (M, N) ints
    link_bandwidth: float = 1.0

    def __post_init__(self):
        if self.num_pods < 2:
            raise InvalidInputError("need at least 2 pods")
        if self.num_ocs < 1:
            raise InvalidInputError("need at least 1 circuit switch")
        if not 0 < self.link_bandwidth < np.inf:  # False for NaN too
            raise InvalidInputError("link bandwidth must be positive and"
                                    " finite")
        eg = np.asarray(self.egress_ports, dtype=int)
        ig = np.asarray(self.ingress_ports, dtype=int)
        if eg.shape != (self.num_ocs, self.num_pods) or ig.shape != eg.shape:
            raise InvalidInputError(
                f"port matrices must be {self.num_ocs}x{self.num_pods}"
            )
        if (eg < 0).any() or (ig < 0).any():
            raise InvalidInputError("port counts must be nonnegative")
        # Every circuit pairs one pod-egress with one pod-ingress, so the
        # totals must balance switch by switch.
        if not np.array_equal(eg.sum(axis=1), ig.sum(axis=1)):
            raise InvalidInputError(
                "per-switch egress and ingress port totals must match"
            )
        object.__setattr__(self, "egress_ports", _freeze(eg))
        object.__setattr__(self, "ingress_ports", _freeze(ig))

    @property
    def egress_radix(self) -> np.ndarray:
        """Per-pod total egress links, r_eg (derived, never stored)."""
        return self.egress_ports.sum(axis=0)

    @property
    def ingress_radix(self) -> np.ndarray:
        """Per-pod total ingress links, r_ig (derived, never stored)."""
        return self.ingress_ports.sum(axis=0)


@dataclass(frozen=True)
class TrafficMatrix:
    """N x N nonnegative demand in Gbps; the diagonal must be exactly 0."""

    demand: np.ndarray
    timestamp: Optional[float] = None

    def __post_init__(self):
        d = np.asarray(self.demand, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError("demand must be a square matrix")
        if not np.isfinite(d).all():
            raise InvalidInputError("demand entries must be finite")
        if (d < 0).any():
            raise InvalidInputError("demand entries must be nonnegative")
        if np.diagonal(d).any():
            # Self-demand is rejected rather than dropped to surface data errors.
            raise InvalidInputError("demand diagonal must be exactly zero")
        object.__setattr__(self, "demand", _freeze(d))

    @property
    def num_pods(self) -> int:
        return self.demand.shape[0]

    @property
    def total(self) -> float:
        return float(self.demand.sum())


@dataclass(frozen=True)
class TmSequence:
    """Ordered list of same-size traffic matrices plus aggregation metadata."""

    matrices: tuple
    aggregation_window: float = 1.0

    def __post_init__(self):
        mats = tuple(self.matrices)
        if not mats:
            raise InvalidInputError("sequence must contain at least one matrix")
        n = mats[0].num_pods
        if any(t.num_pods != n for t in mats):
            raise InvalidInputError("all matrices must share the same pod count")
        stamps = [t.timestamp for t in mats if t.timestamp is not None]
        if stamps and len(stamps) < len(mats):
            raise InvalidInputError("timestamps must be on every matrix or on"
                                    " none")
        if not all(isinstance(s, numbers.Real) and not isinstance(s, bool)
                   and math.isfinite(s) for s in stamps):
            raise InvalidInputError("timestamps must be finite numbers")
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise InvalidInputError("timestamps must be strictly increasing")
        if self.aggregation_window <= 0:
            raise InvalidInputError("aggregation window must be positive")
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    @property
    def num_pods(self) -> int:
        return self.matrices[0].num_pods

    def times(self) -> np.ndarray:
        """Timestamps, synthesized as index * window when there are none."""
        if self.matrices[0].timestamp is not None:
            return np.array([t.timestamp for t in self.matrices], dtype=float)
        return np.arange(len(self.matrices), dtype=float) * self.aggregation_window

    def stacked(self) -> np.ndarray:
        """All demands as a (len, N, N) array."""
        return np.stack([t.demand for t in self.matrices])


@dataclass(frozen=True)
class FractionalTopology:
    """Real-valued pod-to-pod link counts d_ij (zero diagonal)."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError("d must be a square matrix")
        if not np.isfinite(d).all() or (d < -TOL).any():
            raise InvalidInputError("d entries must be finite and nonnegative")
        if np.abs(np.diagonal(d)).max(initial=0.0) > TOL:
            raise InvalidInputError("d diagonal must be zero")
        object.__setattr__(self, "d", _freeze(np.clip(d, 0.0, None)))

    @property
    def num_pods(self) -> int:
        return self.d.shape[0]


def check_fractional(phys: PhysicalTopology, topo: FractionalTopology,
                     tol: float = TOL) -> list:
    """Degree-bound violations of a fractional topology; empty list means ok."""
    if topo.num_pods != phys.num_pods:
        raise InvalidInputError("pod count mismatch")
    out = []
    rows = topo.d.sum(axis=1)
    cols = topo.d.sum(axis=0)
    for i in range(phys.num_pods):
        if rows[i] > phys.egress_radix[i] + tol:
            out.append((i, "egress"))
        if cols[i] > phys.ingress_radix[i] + tol:
            out.append((i, "ingress"))
    return out


@dataclass(frozen=True)
class IntegerTopology:
    """Per-switch integer circuit counts x[m][i][j]; X = sum over switches."""

    x: np.ndarray  # (M, N, N) ints

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 3 or x.shape[1] != x.shape[2]:
            raise InvalidInputError("x must be an M x N x N tensor")
        if not np.issubdtype(x.dtype, np.integer):
            xi = np.rint(x).astype(int)
            if np.abs(xi - x).max(initial=0.0) > TOL:
                raise InvalidInputError("x entries must be integers")
            x = xi
        if (x < 0).any():
            raise InvalidInputError("x entries must be nonnegative")
        object.__setattr__(self, "x", _freeze(x.astype(int)))

    @property
    def num_ocs(self) -> int:
        return self.x.shape[0]

    @property
    def num_pods(self) -> int:
        return self.x.shape[1]

    @property
    def X(self) -> np.ndarray:
        """Logical topology: pod-to-pod link counts aggregated over switches."""
        return self.x.sum(axis=0)


@dataclass(frozen=True, order=True)
class Path:
    """A direct (via=None) or 2-hop inter-pod path."""

    src: int
    dst: int
    via: Optional[int] = None

    def __post_init__(self):
        if self.src == self.dst:
            raise InvalidInputError("path endpoints must differ")
        if self.via is not None and self.via in (self.src, self.dst):
            raise InvalidInputError("intermediate pod must differ from endpoints")

    def links(self) -> tuple:
        """Ordered (a, b) links traversed by this path."""
        if self.via is None:
            return ((self.src, self.dst),)
        return ((self.src, self.via), (self.via, self.dst))


@dataclass(frozen=True)
class RoutingWeights:
    """Per-path split fractions, and nothing else: the throughput mu and
    sensitivity bound beta of a plan live on ``FractionalSolution``.

    ``weights`` is a read-only copy of the mapping given, so the arrays
    ``arrays`` builds once per pod count stay true to it.
    """

    weights: Mapping  # Path -> weight in [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           MappingProxyType(dict(self.weights)))
        object.__setattr__(self, "_dense", {})

    def arrays(self, num_pods: int):
        """Dense views: (N,N) direct weights and (N,N,N) [src,dst,via]
        weights, read-only, built at the first call for ``num_pods``."""
        dense = self._dense.get(num_pods)
        if dense is None:
            direct = np.zeros((num_pods, num_pods))
            via = np.zeros((num_pods, num_pods, num_pods))
            for p, w in self.weights.items():
                if p.via is None:
                    direct[p.src, p.dst] = w
                else:
                    via[p.src, p.dst, p.via] = w
            direct.flags.writeable = via.flags.writeable = False
            dense = self._dense[num_pods] = (direct, via)
        return dense


def enumerate_paths(num_pods: int) -> dict:
    """All candidate paths keyed by ordered pod pair.

    Each pair (i, j) gets its direct path first, then one 2-hop path per
    intermediate pod in ascending order: N-1 paths per pair.
    """
    if num_pods < 2:
        raise InvalidInputError("need at least 2 pods")
    out = {}
    for i in range(num_pods):
        for j in range(num_pods):
            if i == j:
                continue
            paths = [Path(i, j)]
            paths.extend(Path(i, j, k) for k in range(num_pods)
                         if k != i and k != j)
            out[(i, j)] = paths
    return out


def validate(phys: PhysicalTopology, topo: IntegerTopology) -> list:
    """Per-switch port-budget violations as (switch, pod, side) tuples.

    An empty list means the circuit settings are physically realizable.
    """
    if topo.num_ocs != phys.num_ocs or topo.num_pods != phys.num_pods:
        raise InvalidInputError("topology shape does not match the fabric")
    out = []
    eg_load = topo.x.sum(axis=2)  # (M, N): egress links used per pod per switch
    ig_load = topo.x.sum(axis=1)  # (M, N): ingress links used per pod per switch
    for m in range(phys.num_ocs):
        for i in range(phys.num_pods):
            if eg_load[m, i] > phys.egress_ports[m, i]:
                out.append((m, i, "egress"))
            if ig_load[m, i] > phys.ingress_ports[m, i]:
                out.append((m, i, "ingress"))
    return out
