"""Core domain types, validation, and the path tables.

A fabric is a set of N pods interconnected through M optical circuit
switches.  The fixed pod-to-switch fiber striping is the *physical*
topology; circuit settings realize a pod-to-pod *logical* topology.
Routing uses direct (1-hop) and 2-hop inter-pod paths only.

A routing is one array, ``RoutingWeights.omega``: one weight per path in
``_tables`` column order, each pair's weights summing to one, turned into
link loads by ``RoutingWeights.loads`` for planning and evaluation alike.
Port and circuit counts are integers: a count more than ``TOL`` from one
is rejected, never truncated.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidInputError

#: Absolute tolerance for all numeric invariant checks (LP solver precision).
TOL = 1e-6


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


def _counts(a, what: str) -> np.ndarray:
    """``a`` as an int array; an entry more than ``TOL`` from an integer,
    or not below 2**62 in size, raises InvalidInputError naming ``what``."""
    a = np.asarray(a)
    if a.dtype.kind != "i":
        a = a.astype(float)
        whole = np.rint(a)
        if not ((np.abs(a) < 2.0 ** 62).all()
                and (np.abs(whole - a) <= TOL).all()):
            raise InvalidInputError(f"{what} must be integers")
        a = whole
    return a.astype(int)


def demand_scale(demand: np.ndarray) -> float:
    """The largest power of two at or below ``demand``'s largest entry (1
    if none is positive): ``demand`` over it lies in [0, 2), and the
    division is exact while the quotient is a normal float."""
    top = float(demand.max(initial=0.0))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0 else 1.0


@dataclass(frozen=True)
class PhysicalTopology:
    """Pod/OCS fabric: port striping and uniform link bandwidth.

    ``egress_ports[m][i]`` / ``ingress_ports[m][i]`` give the number of
    egress/ingress fibers connecting pod i to switch m.  Bandwidth is a
    single scalar per logical link, in the unit of the demand.
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
        eg = _counts(self.egress_ports, "port counts")
        ig = _counts(self.ingress_ports, "port counts")
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
    """N x N nonnegative demand in the bandwidth's unit; zero diagonal."""

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
        if not 0 < self.aggregation_window < math.inf:  # False for NaN too
            raise InvalidInputError("aggregation window must be positive and"
                                    " finite")
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


@dataclass(frozen=True)
class IntegerTopology:
    """Per-switch integer circuit counts x[m][i][j]; X = sum over switches."""

    x: np.ndarray  # (M, N, N) ints

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 3 or x.shape[1] != x.shape[2]:
            raise InvalidInputError("x must be an M x N x N tensor")
        x = _counts(x, "x entries")
        if (x < 0).any():
            raise InvalidInputError("x entries must be nonnegative")
        if np.diagonal(x, axis1=1, axis2=2).any():
            # A circuit from a pod to itself would spend two ports on nothing.
            raise InvalidInputError("x diagonal must be zero: no circuit"
                                    " from a pod to itself")
        object.__setattr__(self, "x", _freeze(x))

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


class _Tables(NamedTuple):
    """Index tables of every path and link among ``n`` pods.

    Links and pairs share one index: the position in ``pairs``, the
    row-major order of a matrix's off-diagonal entries.  Paths run in
    column order: pairs order, and per pair its direct path, then one
    2-hop path per intermediate pod in ascending order.  So pair q owns
    paths q (n - 1) .. (q + 1) (n - 1) - 1, the first of them direct.
    """

    pairs: tuple
    pair_src: np.ndarray  # (pairs,)
    pair_dst: np.ndarray
    paths: tuple
    path_pair: np.ndarray  # (paths,)
    path_links: np.ndarray  # (paths, 2); a direct path's one link twice
    # Each (path, link) hop, path-major, each path's links in order.
    hop_path: np.ndarray
    hop_link: np.ndarray
    # Each (link, path) crossing, link-major; per link the direct path,
    # then the paths with it as first hop, then as second hop.
    cross_link: np.ndarray
    cross_path: np.ndarray


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """The read-only ``_Tables`` of ``n`` pods, built once per process."""
    if n < 2:
        raise InvalidInputError("need at least 2 pods")
    per = n - 1
    pairs = tuple((i, j) for i in range(n) for j in range(n) if i != j)
    # Each path as (src, dst, via), via -1 on a direct path.
    src, dst, via = np.array([(i, j, k) for i, j in pairs for k in (
        -1, *(k for k in range(n) if k not in (i, j)))]).T
    paths = tuple(Path(i, j, None if k < 0 else k)
                  for i, j, k in zip(*(a.tolist() for a in (src, dst, via))))
    direct = via < 0

    def link(a, b):
        return a * per + b - (b > a)

    first = np.where(direct, link(src, dst), link(src, via))
    links = np.stack([first, np.where(direct, first, link(via, dst))], 1)
    hop_path, hop = np.nonzero(np.stack([np.ones_like(direct), ~direct], 1))
    hop_link = links[hop_path, hop]
    # Per link: the direct path, then first hops, then second hops.
    cross = np.lexsort((hop_path, hop + ~direct[hop_path], hop_link))
    return _Tables(pairs, _freeze(src[::per]), _freeze(dst[::per]), paths,
                   _freeze(np.repeat(np.arange(len(pairs)), per)),
                   _freeze(links), _freeze(hop_path), _freeze(hop_link),
                   _freeze(hop_link[cross]), _freeze(hop_path[cross]))


@dataclass(frozen=True, eq=False)
class RoutingWeights:
    """A routing: ``omega``, a read-only copy of the array given, holds one
    weight per path of ``num_pods`` pods in ``_tables`` column order, as
    the stage LPs solve them.  Each pair's weights split its demand and
    sum to one; a plan's mu and beta live on ``FractionalSolution``.
    """

    num_pods: int
    omega: np.ndarray  # (paths,)

    def __post_init__(self):
        num_paths = len(_tables(self.num_pods).paths)
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (num_paths,):
            raise InvalidInputError(f"{self.num_pods} pods take {num_paths}"
                                    f" path weights, not {omega.shape}")
        object.__setattr__(self, "omega", _freeze(omega))

    @classmethod
    def of(cls, weights: Mapping, num_pods: int) -> "RoutingWeights":
        """The routing with weight ``weights[p]`` on each path p given and
        0 on every other path; a path outside the pods raises KeyError."""
        paths = _tables(num_pods).paths
        column = dict(zip(paths, range(len(paths))))
        omega = np.zeros(len(paths))
        omega[[column[p] for p in weights]] = list(weights.values())
        return cls(num_pods, omega)

    @classmethod
    def normalized(cls, num_pods: int, w: np.ndarray,
                   floor: float = 0.0) -> "RoutingWeights":
        """Each pair's split in proportion to ``w``, one value per path,
        summed per pair in path order; a pair whose sum is at most
        ``floor`` goes direct, and a weight below 0 is stored as 0."""
        per = num_pods - 1
        pair = _tables(num_pods).path_pair
        total = np.bincount(pair, w, len(pair) // per)[pair]
        omega = np.divide(w, total, out=np.zeros(len(w)), where=total > floor)
        omega[::per][total[::per] <= floor] = 1.0
        return cls(num_pods, np.maximum(omega, 0.0))

    @property
    def weights(self) -> Mapping:
        """A read-only ``{Path: w}`` view of the positive weights, in path
        order."""
        paths = _tables(self.num_pods).paths
        return MappingProxyType({paths[k]: float(self.omega[k])
                                 for k in np.flatnonzero(self.omega > 0)})

    def loads(self, demand: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """(K, links) link loads of the (K, N, N) demands ``demand`` routed
        at ``scale`` times their size, links in ``_tables`` order.  Each
        link adds its flows k-major, then by path, then by hop; a path of
        zero weight adds an exact 0.
        """
        t = _tables(self.num_pods)
        K, num_links = len(demand), len(t.pairs)
        pair = demand[:, t.pair_src, t.pair_dst]
        flow = self.omega * scale * pair[:, t.path_pair]
        index = np.arange(K)[:, None] * num_links + t.hop_link
        return np.bincount(index.ravel(), flow[:, t.hop_path].ravel(),
                           K * num_links).reshape(K, num_links)


def validate(phys: PhysicalTopology, topo: IntegerTopology) -> list:
    """Per-switch port-budget violations as (switch, pod, side) tuples.

    An empty list means the circuit settings are physically realizable.
    """
    if topo.num_ocs != phys.num_ocs or topo.num_pods != phys.num_pods:
        raise InvalidInputError("topology shape does not match the fabric")
    # (M, N, 2): whether a pod's egress, then ingress, links on a switch
    # exceed its ports; argwhere lists them switch by switch, pod by pod.
    over = np.stack([topo.x.sum(axis=2) > phys.egress_ports,
                     topo.x.sum(axis=1) > phys.ingress_ports], axis=-1)
    return [(m, i, ("egress", "ingress")[side])
            for m, i, side in np.argwhere(over).tolist()]
