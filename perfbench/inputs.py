"""Seeded input generators of the benchmark.

The traffic synthesizers live here, not in ``couder.traffic``, so that a
change to the program's own synthesizer cannot change a workload.  Every
generator takes a ``numpy.random.Generator`` and returns plain arrays; the
workloads wrap them in the program's types.

The seed picks which pod plays which part and draws the noise, but the
shape of the gravity family is fixed: its pod masses are fixed quantiles
dealt to the pods at random.  On a uniformly striped fabric two seeds thus
give traffic of one kind, and the plan quality a run reports does not
hinge on how skewed one draw was.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

#: Matrices per synthetic day (30-minute aggregation).
DAY = 48
#: Peak-hour offered load as a share of the fabric's total link capacity.
PEAK_LOAD = 0.5
#: Lognormal sigma of the gravity family's pod masses.
MASS_SIGMA = 1.0
#: Lognormal sigma of the per-entry, per-step noise.
NOISE_SIGMA = 0.3


def striping(n: int, m: int, ports: int) -> tuple:
    """Uniform striping: every pod has ``ports`` egress and ingress fibers
    to each switch."""
    h = np.full((m, n), ports, dtype=int)
    return h, h.copy()


def _diurnal(steps: int, phase: float) -> np.ndarray:
    t = np.arange(steps) / DAY
    return 0.6 + 0.4 * np.sin(2 * np.pi * (t + phase))


def _scale_days(mats: np.ndarray, capacity: float) -> np.ndarray:
    """Scale so that the busiest matrix offers PEAK_LOAD of the capacity."""
    return mats * (PEAK_LOAD * capacity / mats.sum(axis=(1, 2)).max())


def gravity_days(rng: np.random.Generator, n: int, capacity: float,
                 days: int = 1) -> np.ndarray:
    """Skewed gravity traffic: T_ij ~ w_i w_j, a diurnal swing and
    lognormal per-entry noise.  The masses w are the n evenly spaced
    quantiles of a lognormal, dealt to the pods at random.
    Shape (days*DAY, n, n)."""
    steps = days * DAY
    z = [NormalDist().inv_cdf((k + 0.5) / n) for k in range(n)]
    w = np.exp(MASS_SIGMA * np.array(z))
    w = w[rng.permutation(n)]
    base = np.outer(w, w)
    level = _diurnal(steps, rng.uniform())
    noise = rng.lognormal(0.0, NOISE_SIGMA, (steps, n, n))
    mats = level[:, None, None] * base[None] * noise
    for t in mats:
        np.fill_diagonal(t, 0.0)
    return _scale_days(mats, capacity)


def storage_days(rng: np.random.Generator, n: int, capacity: float,
                 days: int = 1) -> np.ndarray:
    """Sparse compute<->storage traffic: half the pods compute, half
    storage, dealt at random; compute pod k writes to and reads from
    storage pods k and k+1 only (cyclically), with lognormal pair volumes,
    the diurnal swing and per-entry noise of the gravity family.
    Shape (days*DAY, n, n)."""
    steps = days * DAY
    half = n // 2
    pods = rng.permutation(n)
    compute, storage = pods[:half], pods[half:]
    base = np.zeros((n, n))
    for k, c in enumerate(compute):
        for s in (storage[k % half], storage[(k + 1) % half]):
            base[c, s] = rng.lognormal(0.0, MASS_SIGMA)
            base[s, c] = rng.lognormal(0.0, MASS_SIGMA)
    level = _diurnal(steps, rng.uniform())
    noise = rng.lognormal(0.0, NOISE_SIGMA, (steps, n, n))
    return _scale_days(level[:, None, None] * base[None] * noise, capacity)


def saturated_target(rng: np.random.Generator, eg: np.ndarray, ig: np.ndarray,
                     fill: float = 0.95) -> np.ndarray:
    """Random fractional topology d* scaled to ``fill`` of every pod's
    egress and ingress degree: the degree-saturated input a throughput
    optimum hands to rounding."""
    n = eg.shape[1]
    r_eg = eg.sum(axis=0).astype(float)
    r_ig = ig.sum(axis=0).astype(float)
    d = rng.uniform(0.2, 3.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    for _ in range(60):
        d *= (fill * r_eg / d.sum(axis=1))[:, None]
        cols = d.sum(axis=0)
        over = cols > fill * r_ig
        d[:, over] *= (fill * r_ig[over] / cols[over])[None, :]
    return d
