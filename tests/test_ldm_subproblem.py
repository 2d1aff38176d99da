"""The per-switch LDM subproblem against exhaustive search of its window."""

import numpy as np
import pytest

from helpers import (brute_force_window_max, random_window_instance,
                     window_subproblem, window_utility)


@pytest.mark.parametrize("n,seed", [(3, s) for s in range(20)]
                         + [(4, s) for s in range(20, 30)])
def test_matches_exhaustive_window(n, seed):
    rng = np.random.default_rng(seed)
    h, p_net, x_hat, ingress, egress = random_window_instance(rng, n)
    x = window_subproblem(h, p_net, x_hat, ingress, egress)
    assert x.dtype.kind == "i"
    assert (np.diag(x) == 0).all()
    assert (x >= np.maximum(x_hat - 1, 0)).all() and (x <= x_hat + 1).all()
    assert (x.sum(axis=1) <= egress).all()
    assert (x.sum(axis=0) <= ingress).all()
    best = brute_force_window_max(h, p_net, x_hat, ingress, egress)
    assert window_utility(x, h, p_net) == pytest.approx(best, abs=1e-6)


@pytest.mark.parametrize("n", [3, 4])
def test_zero_gain_ties_form_every_link(n):
    # Every unit has gain 2h + 1 - 2 + p_net = 0 exactly, so only the tie
    # reward toward more links decides; a perfect matching has n links.
    ones = np.ones(n, dtype=int)
    x = window_subproblem(np.ones((n, n)), -np.ones((n, n)),
                          np.zeros((n, n), dtype=int), ones, ones)
    assert x.sum() == n
