import itertools

import numpy as np
import pytest

from couder import lp, round as rounding
from couder.errors import InvalidInputError, UnboundedThroughputError
from couder.model import (FractionalTopology, IntegerTopology,
                          PhysicalTopology, TrafficMatrix, validate)
from couder.optimize import recompute_routing, solve_maxmin_throughput
from couder.round import (_brackets, _complete, _goodness, _repair,
                          _stranded, ldm_round)
from couder.traffic import CriticalSet
from helpers import (has_short_path, held_lp, hetero_fabric, loop_complete,
                     loop_ldm_round, loop_switch_subproblem, make_fabric,
                     random_criticals, random_fabric, random_fractional,
                     random_window_instance, window_subproblem,
                     zero_radix_fabric)


class TestLdmRound:
    def test_integer_feasible_input_is_reproduced(self):
        phys = make_fabric(3, 1, 4)
        d = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]], dtype=float)
        report = ldm_round(phys, FractionalTopology(d), tau_max=10)
        np.testing.assert_array_equal(report.topo.X, d.astype(int))
        assert report.violation_ratio == 0.0
        assert report.goodness == 6

    def test_two_identical_switches_split_even_demand(self):
        # Even integer demand that fits exactly when halved per switch; an
        # assignment with zero violations exists by construction and the
        # dual method must find one.
        phys = make_fabric(3, 2, 2)
        d = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]], dtype=float)
        per_switch = (d / 2).astype(int)
        assert (per_switch.sum(axis=1) <= phys.egress_ports[0]).all()
        report = ldm_round(phys, FractionalTopology(d), tau_max=20)
        assert report.violation_ratio == 0.0
        np.testing.assert_array_equal(report.topo.X, d.astype(int))

    @pytest.mark.parametrize("seed", range(20))
    def test_hard_constraints_always_hold(self, seed):
        rng = np.random.default_rng(seed)
        phys = random_fabric(rng, int(rng.integers(3, 6)),
                             int(rng.integers(1, 4)))
        d_star = random_fractional(rng, phys)
        report = ldm_round(phys, d_star, tau_max=15)
        assert validate(phys, report.topo) == []

    def test_best_solution_tracked_across_iterations(self):
        rng = np.random.default_rng(77)
        phys = random_fabric(rng, 4, 2)
        d_star = random_fractional(rng, phys)
        short = ldm_round(phys, d_star, tau_max=1)
        long = ldm_round(phys, d_star, tau_max=30)
        assert long.goodness >= short.goodness

    def test_violation_ratio_consistent_with_goodness(self):
        rng = np.random.default_rng(78)
        phys = random_fabric(rng, 4, 2)
        report = ldm_round(phys, random_fractional(rng, phys), tau_max=10)
        n = phys.num_pods
        assert report.violation_ratio == pytest.approx(
            (n * (n - 1) - report.goodness) / (n * (n - 1)))

    def test_rejects_invalid_fractional(self):
        phys = make_fabric(3, 1, 2)
        overfull = np.array([[0, 3, 3], [1, 0, 1], [1, 1, 0]], dtype=float)
        with pytest.raises(InvalidInputError):
            ldm_round(phys, FractionalTopology(overfull), tau_max=5)

    def test_rejects_negative_iteration_count(self):
        phys = make_fabric(3, 1, 2)
        d = np.full((3, 3), 1.0) - np.eye(3)
        with pytest.raises(InvalidInputError):
            ldm_round(phys, FractionalTopology(d), tau_max=-1)

    @pytest.mark.parametrize("tau", [0, 50])
    def test_2_pow_50_ports_each_way(self, tau):
        # One pair each way, each with every port of its pod: the
        # completion pass grants all 2**50 links of a pair at once.  The
        # one-link move window meets no bracket of 2**50, so the best
        # iterate stays the empty one; its completion after iteration 1
        # meets both brackets and links both pods, so LDM stops there.
        q = 2 ** 50
        d = np.array([[0.0, q], [q, 0.0]])
        report = ldm_round(make_fabric(2, 1, q), FractionalTopology(d), tau)
        assert report.topo.x.tolist() == [[[0, q], [q, 0]]]
        assert report.goodness == 2
        assert report.iterations_run == min(tau, 1)

    def test_stops_once_the_completion_is_full_and_linked(self):
        # Degree-saturated targets on an evenly striped 8-pod fabric, as
        # the benchmark rounds them.  The repaired completion of iteration
        # 1's best iterate meets every bracket and gives every pod pair a
        # direct link or a 2-hop path, so LDM stops there.
        phys = make_fabric(8, 4, 4)
        rng = np.random.default_rng(61)
        for _ in range(16):
            report = ldm_round(phys, random_fractional(rng, phys), 50)
            assert (report.iterations_run, report.goodness) == (1, 8 * 7)
            X = report.topo.X
            for i, j in itertools.permutations(range(8), 2):
                assert has_short_path(X, i, j), (i, j)


class TestGreedyRound:
    """The greedy baseline: ``ldm_round`` at zero iterations, the
    completion pass from an empty assignment."""

    def test_integer_feasible_input_matches(self):
        phys = make_fabric(3, 1, 4)
        d = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]], dtype=float)
        report = ldm_round(phys, FractionalTopology(d), 0)
        np.testing.assert_array_equal(report.topo.X, d.astype(int))
        assert report.violation_ratio == 0.0

    def test_early_switch_saturation_starves_cold_pair(self):
        # Switch 0 is the only one able to serve (2, 1), but greedy spends
        # its single pod-1 ingress port on the lexicographically earlier
        # (0, 1), which switch 1 could have carried instead.
        phys = PhysicalTopology(
            3, 2,
            np.array([[1, 0, 1], [1, 0, 0]]),
            np.array([[0, 1, 1], [0, 1, 0]]))
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        d[2, 1] = 1.0
        report = ldm_round(phys, FractionalTopology(d), 0)
        assert validate(phys, report.topo) == []
        assert report.topo.X[0, 1] == 1
        assert report.topo.X[2, 1] == 0  # starved below its floor
        assert report.violation_ratio == pytest.approx(1 / 6)
        # The dual method untangles the same instance completely.
        fixed = ldm_round(phys, FractionalTopology(d), tau_max=30)
        assert fixed.violation_ratio == 0.0

    @pytest.mark.parametrize("seed", range(20, 35))
    def test_hard_constraints_always_hold(self, seed):
        rng = np.random.default_rng(seed)
        phys = random_fabric(rng, int(rng.integers(3, 6)),
                             int(rng.integers(1, 4)))
        report = ldm_round(phys, random_fractional(rng, phys), 0)
        assert validate(phys, report.topo) == []

    def test_never_overshoots_ceiling_by_more_than_residual_rule(self):
        # Greedy only assigns while residual demand is positive, so each
        # pair gets at most ceil(d) links.
        rng = np.random.default_rng(99)
        phys = random_fabric(rng, 4, 3)
        d_star = random_fractional(rng, phys)
        report = ldm_round(phys, d_star, 0)
        assert (report.topo.X <= np.ceil(d_star.d - 1e-9) + 0).all()
        assert report.iterations_run == 0


class TestCompletion:
    # A stage-3 d* whose rows 1 and 3 are thin (about 0.1 per pair): every
    # bracket [0, 1] there is met with X = 0, so a rounder that stops at
    # the first all-good assignment leaves those pods with one link each
    # and pairs (1, 0), (1, 2), (3, 0), (3, 2) without any path.
    THIN_ROWS = np.array([[0, 2.96, 0.104, 2.936],
                          [0.105, 0, 0.104, 0.104],
                          [0.104, 2.936, 0, 2.96],
                          [0.107, 0.104, 0.104, 0]])

    @pytest.mark.parametrize("tau", [50, 0], ids=["ldm", "greedy"])
    def test_thin_rows_leave_no_pair_stranded(self, tau):
        phys = make_fabric(4, 2, 3)
        report = ldm_round(phys, FractionalTopology(self.THIN_ROWS), tau)
        assert validate(phys, report.topo) == []
        assert report.goodness == 12
        X = report.topo.X
        for i, j in itertools.permutations(range(4), 2):
            assert has_short_path(X, i, j), (i, j)

    @pytest.mark.parametrize("seed", range(12))
    def test_no_switch_can_add_a_link_below_ceiling(self, seed):
        rng = np.random.default_rng(400 + seed)
        make = random_fabric if seed % 2 else hetero_fabric
        phys = make(rng, int(rng.integers(3, 6)), int(rng.integers(1, 4)))
        # Low fills leave rows far below the port budgets, where a rounder
        # that stops early would strand ports.
        d_star = random_fractional(rng, phys,
                                   fill=float(rng.uniform(0.05, 0.95)))
        _, c_plus = _brackets(d_star.d)
        off_diag = ~np.eye(phys.num_pods, dtype=bool)
        for report in (ldm_round(phys, d_star, tau_max=15),
                       ldm_round(phys, d_star, 0)):
            assert validate(phys, report.topo) == []
            X = report.topo.X
            assert (X <= c_plus).all()
            for m in range(phys.num_ocs):
                eg_left = phys.egress_ports[m] - report.topo.x[m].sum(axis=1)
                ig_left = phys.ingress_ports[m] - report.topo.x[m].sum(axis=0)
                addable = ((eg_left[:, None] > 0) & (ig_left[None, :] > 0)
                           & (X < c_plus) & off_diag)
                assert not addable.any(), m

    @pytest.mark.parametrize("seed", range(8))
    def test_pass_keeps_ports_and_never_lowers_goodness(self, seed):
        # Start from an arbitrary port-feasible assignment, including pairs
        # above their ceiling, and complete it toward an unrelated d*.
        rng = np.random.default_rng(500 + seed)
        phys = hetero_fabric(rng, int(rng.integers(3, 6)),
                             int(rng.integers(1, 4)))
        n, M = phys.num_pods, phys.num_ocs
        x = np.zeros((M, n, n), dtype=int)
        for m in range(M):
            eg_left = phys.egress_ports[m].copy()
            ig_left = phys.ingress_ports[m].copy()
            for _ in range(int(rng.integers(0, 3 * n))):
                i, j = rng.choice(n, size=2, replace=False)
                if eg_left[i] > 0 and ig_left[j] > 0:
                    x[m, i, j] += 1
                    eg_left[i] -= 1
                    ig_left[j] -= 1
        d = random_fractional(rng, phys,
                              fill=float(rng.uniform(0.05, 0.95))).d
        c_minus, c_plus = _brackets(d)
        done = _complete(phys, d, x, c_plus)
        assert validate(phys, IntegerTopology(done)) == []
        assert (done.sum(axis=0) <= c_plus).all()
        off = ~np.eye(n, dtype=bool)
        lo, hi = c_minus[off], c_plus[off]
        assert _goodness(done.sum(axis=0)[off], lo, hi) \
            >= _goodness(x.sum(axis=0)[off], lo, hi)


class TestRepair:
    """``_repair`` after ``_complete``: moves within a switch raise pairs
    below their floor, then give stranded pod pairs a 1- or 2-hop path."""

    @pytest.mark.parametrize("seed", range(36))
    def test_keeps_ports_ceilings_goodness_and_paths(self, seed):
        # Random, heterogeneous and zero-radix fabrics, from the empty
        # assignment and from random port-feasible ones.
        rng = np.random.default_rng(700 + seed)
        n, M = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        if seed % 3 == 2:
            phys = zero_radix_fabric(rng, n, M)
        else:
            make = random_fabric if seed % 3 else hetero_fabric
            phys = make(rng, n, M, qmin=1, qmax=4)
        d = random_fractional(rng, phys,
                              fill=float(rng.uniform(0.3, 1.0))).d
        c_minus, c_plus = _brackets(d)
        off = ~np.eye(n, dtype=bool)
        starts = [np.zeros((M, n, n), dtype=int)]
        for m in range(M):
            x = np.zeros((M, n, n), dtype=int)
            eg_left = phys.egress_ports[m].copy()
            ig_left = phys.ingress_ports[m].copy()
            for _ in range(int(rng.integers(0, 3 * n))):
                i, j = rng.choice(n, size=2, replace=False)
                if eg_left[i] > 0 and ig_left[j] > 0:
                    x[m, i, j] += 1
                    eg_left[i] -= 1
                    ig_left[j] -= 1
            starts.append(x)
        for start in starts:
            done = _complete(phys, d, start, c_plus)
            kept = done.copy()
            fixed = _repair(phys, d, done, c_minus, c_plus)
            np.testing.assert_array_equal(done, kept)
            assert validate(phys, IntegerTopology(fixed)) == []
            X, Y = done.sum(axis=0), fixed.sum(axis=0)
            assert (Y <= c_plus).all()
            assert _goodness(Y[off], c_minus[off], c_plus[off]) \
                >= _goodness(X[off], c_minus[off], c_plus[off])
            assert _stranded(Y).sum() <= _stranded(X).sum()
        greedy = ldm_round(phys, FractionalTopology(d), 0).topo.x
        np.testing.assert_array_equal(
            greedy, _repair(phys, d, _complete(phys, d, starts[0], c_plus),
                            c_minus, c_plus))

    def test_2_pow_50_ports_starved_pair_is_raised(self):
        # Three pods on three switches, q = 2**49 links on four pairs, so
        # pod 2 has 2**50 + 2 egress ports.  The completion leaves (2, 0)
        # one link below its floor, with every egress port of pod 2 on
        # switch 1 in use and ingress ports of pod 0 idle there.  The
        # repair turns a link 2 -> 1 on switch 1, a link above the floor
        # of (2, 1), into 2 -> 0; the refill gives (2, 1) its link back on
        # switch 2 and the freed ingress port to (0, 1).
        q = 2 ** 49
        y = np.zeros((3, 3, 3), dtype=np.int64)
        y[0, 0, 1], y[0, 2, 0] = 1, 2
        y[1, 0, 1], y[1, 0, 2], y[1, 1, 0], y[1, 2, 0] = 1, q, 1, q
        y[2, 1, 2], y[2, 2, 1] = q, q
        phys = PhysicalTopology(3, 3, y.sum(axis=2), y.sum(axis=1))
        assert phys.egress_radix.max() == 2 ** 50 + 2
        d = np.array([[0, 1.25, q - 0.5], [0.875, 0, q - 0.875],
                      [q + 2, q - 0.5, 0]])
        c_minus, c_plus = _brackets(d)
        done = _complete(phys, d, np.zeros_like(y), c_plus)
        assert (done.sum(axis=0) < c_minus).sum() == 1
        for tau in (0, 50):
            report = ldm_round(phys, FractionalTopology(d), tau)
            assert validate(phys, report.topo) == []
            assert report.goodness == 6
            assert report.iterations_run == min(tau, 1)
            assert ((c_minus <= report.topo.X)
                    & (report.topo.X <= c_plus)).all()


def band_instance(rng: np.random.Generator):
    """A fabric with 1 to 3, 8 or 39 ports per pod per switch and a skewed
    d* within its degrees, on a third of the draws floored to halves so
    that residuals tie exactly."""
    make = hetero_fabric if rng.random() < 0.5 else random_fabric
    phys = make(rng, int(rng.integers(2, 8)), int(rng.integers(1, 5)),
                qmin=1, qmax=int(rng.choice([3, 8, 39])))
    d = random_fractional(rng, phys, fill=float(rng.uniform(0.05, 1.0))).d
    d = d * rng.uniform(0.2, 1.0, d.shape) ** 2
    if rng.random() < 1 / 3:
        d = np.floor(2 * d) / 2
    return phys, FractionalTopology(d)


class TestBandFill:
    """``_complete`` grants whole bands of residuals at once and
    ``helpers.loop_complete`` one link per pass; the links they grant are
    the same."""

    def test_same_result_as_the_loop_from_any_start(self):
        # Starts are empty or random port-feasible assignments, several
        # links per cell, often above the ceilings.
        rng = np.random.default_rng(1234)
        for _ in range(300):
            phys, d_star = band_instance(rng)
            n, M = phys.num_pods, phys.num_ocs
            x = np.zeros((M, n, n), dtype=int)
            for m in range(M * int(rng.integers(0, 2))):
                eg_left = phys.egress_ports[m].copy()
                ig_left = phys.ingress_ports[m].copy()
                for _ in range(int(rng.integers(0, 6 * n))):
                    i, j = rng.choice(n, size=2, replace=False)
                    top = min(eg_left[i], ig_left[j])
                    if top > 0:
                        k = int(rng.integers(1, top + 1))
                        x[m, i, j] += k
                        eg_left[i] -= k
                        ig_left[j] -= k
            c_plus = _brackets(d_star.d)[1]
            np.testing.assert_array_equal(
                _complete(phys, d_star.d, x, c_plus),
                loop_complete(phys, d_star.d, x, c_plus))

    def test_ldm_iterates_complete_as_the_loop(self, monkeypatch):
        # Every completion ldm_round makes, at zero iterations and after a
        # few, against the loop on the same start.  At zero iterations the
        # report is the repair of the per-link greedy rounder's, bit for
        # bit.  A run completes each best iterate once, at most one per
        # iteration, and reports the repair of the last completion it
        # made.  A run that stops after its first iteration may complete
        # only the empty iterate; these 100 runs complete 46 non-empty
        # ones.
        starts, done = [], []
        complete = rounding._complete

        def check(phys, d, x, c_plus):
            got = complete(phys, d, x, c_plus)
            np.testing.assert_array_equal(got, loop_complete(phys, d, x,
                                                             c_plus))
            starts.append(x)
            done.append(got)
            return got

        monkeypatch.setattr(rounding, "_complete", check)
        rng = np.random.default_rng(4321)
        nonempty = 0
        for _ in range(100):
            phys, d_star = band_instance(rng)
            n, M = phys.num_pods, phys.num_ocs
            c_minus, c_plus = _brackets(d_star.d)
            greedy = ldm_round(phys, d_star, 0)
            assert len(starts) == 1 and not starts[0].any()
            ref = rounding._report(
                _repair(phys, d_star.d,
                        loop_complete(phys, d_star.d,
                                      np.zeros((M, n, n), dtype=int),
                                      c_plus), c_minus, c_plus),
                c_minus, c_plus, 0)
            np.testing.assert_array_equal(greedy.topo.x, ref.topo.x)
            assert (greedy.goodness, greedy.iterations_run) \
                == (ref.goodness, 0)
            starts.clear()
            done.clear()
            report = ldm_round(phys, d_star, int(rng.integers(1, 11)))
            assert 1 <= len(starts) <= report.iterations_run
            assert len({x.tobytes() for x in starts}) == len(starts)
            np.testing.assert_array_equal(
                report.topo.x,
                _repair(phys, d_star.d, done[-1], c_minus, c_plus))
            nonempty += sum(x.any() for x in starts)
            starts.clear()
            done.clear()
        assert nonempty > 40


class TestPairVectorLoop:
    @pytest.mark.parametrize("seed", range(43))
    def test_same_result_as_matrix_loop(self, monkeypatch, seed):
        # The pair-vector loop keeps running totals and hands HiGHS each
        # subproblem as arrays built per visit; the matrix loop in helpers
        # re-sums every switch after each visit and goes through
        # scipy.sparse and colwise_highs_lp.  With the same subproblem
        # options both must walk the same iterates.  Seeds 40-42 round as
        # the benchmark's round-saturated workload does: d* at 95 % of every
        # degree of an evenly striped 8-pod fabric with 4 switches, where
        # every visit ends with every port budget binding.
        rng = np.random.default_rng(900 + seed)
        if seed >= 40:
            phys = make_fabric(8, 4, 4)
        else:
            fabric = hetero_fabric if seed % 2 else random_fabric
            phys = fabric(rng, 4 + seed % 5, 2 + seed % 3, qmin=1, qmax=5)
        d_star = random_fractional(rng, phys)
        binding = []
        solve = rounding._solve_switch

        def record(budget_rows, two_h1, p_net, x_hat, ports):
            x = solve(budget_rows, two_h1, p_net, x_hat, ports)
            usage = np.bincount(budget_rows.ravel(), x.repeat(2), len(ports))
            binding.append((usage == ports).all())
            return x

        monkeypatch.setattr(rounding, "_solve_switch", record)
        got = ldm_round(phys, d_star, tau_max=30)
        if seed >= 40:
            assert len(binding) == got.iterations_run * 4 and all(binding)
        ref = loop_ldm_round(phys, d_star, tau_max=30)
        np.testing.assert_array_equal(got.topo.x, ref.topo.x)
        assert got.goodness == ref.goodness
        assert got.iterations_run == ref.iterations_run

    def test_highs_holds_the_reference_subproblem(self, monkeypatch):
        # The subproblem model handed over as arrays is, once HiGHS holds
        # it, the one built over n x n matrices through scipy.sparse, and
        # both solve under the LDM subproblem's family options.
        sent = []
        run = lp._run_highs

        def record(model, options, *args, **kwargs):
            sent.append((model, options))
            return run(model, options, *args, **kwargs)

        monkeypatch.setattr(lp, "_run_highs", record)
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 8):
            for _ in range(5):
                instance = random_window_instance(rng, n)
                window_subproblem(*instance)
                loop_switch_subproblem(*instance)
        assert len(sent) == 40
        for (got, got_opts), (ref, ref_opts) in zip(sent[::2], sent[1::2]):
            assert held_lp(got) == held_lp(ref)
            assert got_opts is ref_opts is lp._FAMILY_OPTIONS[
                "ldm-subproblem"]

    def test_presolve_reduces_no_subproblem_on_uniform_striping(
            self, monkeypatch):
        # Why presolve is off: on degree-saturated targets over uniformly
        # striped 8-pod fabrics, as the benchmark rounds, HiGHS presolve
        # removes nothing from any per-switch subproblem, yet costs time.
        # Such targets stop after one iteration, so 30 of them give at
        # least 120 subproblems.
        models = []
        run = lp._run_highs

        def record(model, *args, **kwargs):
            models.append(model)
            return run(model, *args, **kwargs)

        monkeypatch.setattr(lp, "_run_highs", record)
        rng = np.random.default_rng(31)
        phys = make_fabric(8, 4, 4)
        for _ in range(30):
            ldm_round(phys, random_fractional(rng, phys), tau_max=10)
        monkeypatch.undo()
        assert len(models) >= 30 * 4
        presolve_on = lp._highs_options(solver="simplex", **lp._HIGHS_TIGHT)
        for model in models:
            solver = lp._highs._Highs()
            solver.passOptions(presolve_on)
            solver.passModel(*model)
            solver.run()
            assert solver.getModelPresolveStatus() \
                == lp._highs.HighsPresolveStatus.kNotReduced


def exhaustive_lagrangian_max(phys, c_minus, c_plus, p_plus, p_minus):
    """Brute-force maximizer of the Lagrangian over all feasible x (M=1)."""
    n = phys.num_pods
    h = np.minimum(phys.egress_ports[0][:, None], phys.ingress_ports[0][None, :])
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    best_val, best_x = -np.inf, None
    ranges = [range(int(h[i, j]) + 1) for (i, j) in cells]
    for combo in itertools.product(*ranges):
        x = np.zeros((n, n), dtype=int)
        for (i, j), v in zip(cells, combo):
            x[i, j] = v
        if (x.sum(axis=1) > phys.egress_ports[0]).any():
            continue
        if (x.sum(axis=0) > phys.ingress_ports[0]).any():
            continue
        util = -((x - h) ** 2)
        np.fill_diagonal(util, 0)
        val = util.sum() \
            - (p_plus * (x - c_plus)).sum() + (p_minus * (x - c_minus)).sum()
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


class TestSubgradientIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_inequality_against_nearby_duals(self, seed):
        rng = np.random.default_rng(200 + seed)
        phys = make_fabric(3, 1, 1)
        d = rng.uniform(0, 1.5, (3, 3))
        np.fill_diagonal(d, 0.0)
        c_minus, c_plus = _brackets(d)
        p_plus = rng.uniform(0, 2, (3, 3))
        p_minus = rng.uniform(0, 2, (3, 3))
        np.fill_diagonal(p_plus, 0.0)
        np.fill_diagonal(p_minus, 0.0)
        g_hat, x_hat = exhaustive_lagrangian_max(phys, c_minus, c_plus,
                                                 p_plus, p_minus)
        sub_plus = c_plus - x_hat
        sub_minus = x_hat - c_minus
        for _ in range(20):
            q_plus = np.clip(p_plus + rng.uniform(-0.5, 0.5, (3, 3)), 0, None)
            q_minus = np.clip(p_minus + rng.uniform(-0.5, 0.5, (3, 3)), 0,
                              None)
            np.fill_diagonal(q_plus, 0.0)
            np.fill_diagonal(q_minus, 0.0)
            g_q, _ = exhaustive_lagrangian_max(phys, c_minus, c_plus, q_plus,
                                               q_minus)
            rhs = (sub_plus * (q_plus - p_plus)).sum() \
                + (sub_minus * (q_minus - p_minus)).sum()
            assert g_q - g_hat >= rhs - 1e-9


class TestOptimalityGap:
    """The throughput rounding gives up, 1 - mu_int / mu*, with mu_int
    recomputed on the rounded X by ``recompute_routing``.  Rounding keeps
    the port budgets, so X is a feasible d of the joint stage-1 LP and
    mu_int never exceeds mu*."""

    def test_zero_gap_for_integral_input(self):
        phys = make_fabric(3, 1, 4)
        d = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]], dtype=float)
        crit = CriticalSet((TrafficMatrix(d * 0.7),))
        report = ldm_round(phys, FractionalTopology(d), tau_max=10)
        mu_star = solve_maxmin_throughput(phys, crit).mu
        mu_int = recompute_routing(phys, report.topo, crit).mu
        assert mu_int == pytest.approx(mu_star, rel=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_gap_in_unit_interval(self, seed):
        rng = np.random.default_rng(300 + seed)
        phys = random_fabric(rng, 4, 2, qmin=2, qmax=5)
        crit = random_criticals(rng, 4, 2, scale=3.0)
        d_star = random_fractional(rng, phys)
        mu_star = solve_maxmin_throughput(phys, crit).mu
        for report in (ldm_round(phys, d_star, 15),
                       ldm_round(phys, d_star, 0)):
            mu_int = recompute_routing(phys, report.topo, crit).mu
            assert 0.0 < mu_int <= mu_star * (1.0 + 1e-9)

    def test_all_zero_criticals_are_unbounded(self):
        phys = make_fabric(3, 1, 2)
        d = np.full((3, 3), 1.0) - np.eye(3)
        report = ldm_round(phys, FractionalTopology(d), 0)
        crit = CriticalSet((TrafficMatrix(np.zeros((3, 3))),))
        with pytest.raises(UnboundedThroughputError):
            recompute_routing(phys, report.topo, crit)


class TestPairedComparison:
    def test_ldm_no_worse_on_most_seeds(self):
        # Small smoke version of the acceptance sweep.
        rng = np.random.default_rng(42)
        wins = ties = losses = 0
        for _ in range(15):
            phys = random_fabric(rng, int(rng.integers(3, 5)), 2)
            d_star = random_fractional(rng, phys)
            ldm = ldm_round(phys, d_star, tau_max=25)
            greedy = ldm_round(phys, d_star, 0)
            if ldm.violation_ratio < greedy.violation_ratio - 1e-12:
                wins += 1
            elif ldm.violation_ratio <= greedy.violation_ratio + 1e-12:
                ties += 1
            else:
                losses += 1
        assert wins + ties >= 13
