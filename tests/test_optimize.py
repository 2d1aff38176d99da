import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from couder import lp
from couder.errors import (InfeasibleRoutingError, InternalError,
                           InvalidInputError, UnboundedThroughputError)
from couder.model import (IntegerTopology, Path, PhysicalTopology,
                          TrafficMatrix)
from couder.optimize import (BETA_TOL, MU_SLACK, _StageBuilder, _tables,
                             _throughput_model,
                             compute_path_capacity,
                             desensitize, minimize_ahc, recompute_routing,
                             run_pipeline, solve_maxmin_throughput)
from couder.round import greedy_round
from couder.evaluate import evaluate_static, sensitivity_map
from couder.traffic import CriticalSet
from helpers import (LoopStageBuilder, assert_same_model, bisect_beta,
                     convex_combination, feasible_at_beta, held_lp,
                     hetero_fabric, loop_capacity_model, loop_stage_model,
                     make_fabric, random_criticals, random_fabric,
                     random_fractional, random_mesh_topology,
                     record_highs_models)

GRID = np.arange(0.0, 2.0001, 0.05)


def n2_instance():
    phys = make_fabric(2, 1, 4)
    t = np.array([[0.0, 8.0], [8.0, 0.0]])
    return phys, CriticalSet((TrafficMatrix(t),))


def n3_instance():
    phys = make_fabric(3, 1, 2)
    t = np.zeros((3, 3))
    t[0, 1] = 4.0
    return phys, CriticalSet((TrafficMatrix(t),))


def oracle_step3_direct_weight(beta: float):
    """0.05-grid brute force for the single-demand N=3 instance.

    The six link counts reduce exactly to three grid dimensions: with the
    trades u = d_bc and v = d_ca fixed, every remaining count is monotone
    beneficial and capped by one row and one column budget, so it sits at
    its unique maximum: d_ac = min(2-d_ab, 2-u), d_cb = min(2-d_ab, 2-v),
    d_ba = min(2-u, 2-v).  Coverage of a pair needs weight 1 within the
    sensitivity caps; the demanded pair also obeys its load constraints.
    """
    g = GRID
    DAB, U, V = np.meshgrid(g, g, g, indexing="ij")
    DAC = np.minimum(2 - DAB, 2 - U)
    DCB = np.minimum(2 - DAB, 2 - V)
    DBA = np.minimum(2 - U, 2 - V)
    cov = beta * (DBA + np.minimum(U, V)) >= 1 - 1e-9
    cov &= beta * (U + np.minimum(DBA, DAC)) >= 1 - 1e-9
    cov &= beta * (V + np.minimum(DCB, DBA)) >= 1 - 1e-9
    cov &= beta * (DAC + np.minimum(DAB, U)) >= 1 - 1e-9
    cov &= beta * (DCB + np.minimum(V, DAB)) >= 1 - 1e-9
    wmax = np.minimum(1.0, np.minimum(beta * DAB, DAB / 2.0))
    via_cap = min(beta, 0.5) * np.minimum(DAC, DCB)
    ok = cov & (1.0 - wmax <= via_cap + 1e-9)
    if not ok.any():
        return None
    return float(np.where(ok, wmax, -1.0).max())


class TestMaxminThroughput:
    def test_n2_closed_form(self):
        phys, crit = n2_instance()
        sol = solve_maxmin_throughput(phys, crit)
        assert sol.mu == pytest.approx(0.5, abs=1e-6)
        assert sol.d.d[0, 1] == pytest.approx(4.0, abs=1e-6)
        assert sol.d.d[1, 0] == pytest.approx(4.0, abs=1e-6)

    def test_n3_ingress_bound_vs_grid(self):
        phys, crit = n3_instance()
        sol = solve_maxmin_throughput(phys, crit)
        # Grid oracle: only d_ab and m = min(d_ac, d_cb) matter, coupled by
        # the row-a and column-b budgets; mu = (d_ab + m) / demand.
        best = max((dab + m) / 4.0
                   for dab in GRID for m in GRID if dab + m <= 2 + 1e-9)
        assert sol.mu == pytest.approx(best, abs=1e-6)
        assert sol.mu == pytest.approx(0.5, abs=1e-6)

    def test_duplicate_criticals_match_single(self):
        rng = np.random.default_rng(0)
        phys = make_fabric(4, 2, 3)
        crit1 = random_criticals(rng, 4, 1, scale=6.0)
        crit3 = CriticalSet(crit1.matrices * 3)
        a = solve_maxmin_throughput(phys, crit1)
        b = solve_maxmin_throughput(phys, crit3)
        assert a.mu == pytest.approx(b.mu, rel=1e-9)

    def test_all_zero_criticals_unbounded(self):
        phys = make_fabric(3, 1, 2)
        crit = CriticalSet((TrafficMatrix(np.zeros((3, 3))),))
        with pytest.raises(UnboundedThroughputError):
            solve_maxmin_throughput(phys, crit)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        phys = make_fabric(5, 2, 4)
        crit = random_criticals(rng, 5, 3)
        sol = solve_maxmin_throughput(phys, crit)
        sums = {}
        for p, w in sol.omega.weights.items():
            sums[(p.src, p.dst)] = sums.get((p.src, p.dst), 0.0) + w
        assert len(sums) == 20
        assert all(abs(s - 1.0) <= 1e-9 for s in sums.values())


class TestDesensitize:
    def test_n2_closed_form_beta(self):
        phys, crit = n2_instance()
        sol = desensitize(phys, crit, 0.5)
        assert 0.25 - 1e-9 <= sol.beta <= 0.25 * (1 + 2e-3)

    def test_n2_binary_search_matches_fine_grid(self):
        # 1e-3-resolution scan over beta: the smallest feasible value.
        phys, crit = n2_instance()
        sol = desensitize(phys, crit, 0.5)
        feasible = [b for b in np.arange(0.2, 0.32, 1e-3)
                    if b * 4.0 >= 1.0 - 1e-12]  # single path: w=1 <= b*d*bw
        assert sol.beta == pytest.approx(min(feasible), abs=2e-3)

    def test_n3_beta_matches_grid_scan(self):
        phys, crit = n3_instance()
        sol = desensitize(phys, crit, 0.5)
        scan = [b for b in np.arange(0.4, 0.6, 1e-3)
                if oracle_step3_direct_weight(b) is not None]
        assert sol.beta == pytest.approx(min(scan), rel=2e-3)

    def test_relabeling_invariance(self):
        # Uniform demand on a symmetric fabric: beta identical under any
        # pod relabeling.
        phys = make_fabric(4, 1, 3)
        t = np.full((4, 4), 2.0)
        np.fill_diagonal(t, 0.0)
        crit = CriticalSet((TrafficMatrix(t),))
        mu = solve_maxmin_throughput(phys, crit).mu
        base = desensitize(phys, crit, mu).beta
        perm = [3, 1, 0, 2]
        crit_p = CriticalSet((TrafficMatrix(t[np.ix_(perm, perm)]),))
        assert desensitize(phys, crit_p, mu).beta == pytest.approx(base,
                                                                   rel=1e-6)

    def test_scaled_demand_same_beta(self):
        rng = np.random.default_rng(2)
        phys = make_fabric(4, 2, 3)
        crit = random_criticals(rng, 4, 2, scale=4.0)
        mu = solve_maxmin_throughput(phys, crit).mu
        halved = CriticalSet(tuple(TrafficMatrix(t.demand / 2) for t in crit))
        a = desensitize(phys, crit, mu)
        b = desensitize(phys, halved, 2 * mu)
        assert a.beta == pytest.approx(b.beta, rel=1e-9)

    def test_beta_not_worse_than_stage1_sensitivity(self):
        rng = np.random.default_rng(3)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 3)
        s1 = solve_maxmin_throughput(phys, crit)
        sen1 = sensitivity_map(s1.d, s1.omega, phys.link_bandwidth)
        s2 = desensitize(phys, crit, s1.mu)
        assert s2.beta <= sen1[np.isfinite(sen1)].max() * (1 + 2e-3) + 1e-12


def record_solves(monkeypatch) -> list:
    """The models ``lp.solve`` is given from now on, in order."""
    models = []
    real = lp.solve

    def recording(model):
        models.append(model)
        return real(model)

    monkeypatch.setattr(lp, "solve", recording)
    return models


def within_tol(a: float, b: float) -> bool:
    """Two stage-2 results that each end within BETA_TOL of the same
    smallest feasible beta differ by at most BETA_TOL of the larger."""
    return abs(a - b) <= BETA_TOL * max(a, b)


def rounded_instance(seed: int, fabric):
    rng = np.random.default_rng(500 + seed)
    phys = fabric(rng, 4, 2, qmin=2, qmax=6)
    crit = random_criticals(rng, 4, 2)
    topo = greedy_round(phys, random_fractional(rng, phys)).topo
    return phys, crit, topo


class TestStage2Bracket:
    @pytest.mark.parametrize("fabric", [random_fabric, hetero_fabric])
    def test_fixed_topology_one_lp_matches_bisection(self, monkeypatch,
                                                     fabric):
        for seed in range(6):
            phys, crit, topo = rounded_instance(seed, fabric)
            X = topo.X.astype(float)
            mu = solve_maxmin_throughput(phys, crit, _fixed=X).mu
            oracle = bisect_beta(phys, crit, mu, fixed=X)
            models = record_solves(monkeypatch)
            beta = desensitize(phys, crit, mu, _fixed=X).beta
            assert beta <= oracle * (1 + 1e-7)
            assert within_tol(beta, oracle)
            assert [m.name for m in models] == ["desensitize"]
            monkeypatch.undo()

    @pytest.mark.parametrize("fabric", [random_fabric, hetero_fabric])
    def test_recompute_stage3_feasible_at_exact_fixed_beta(self, fabric):
        # Stage 3 of recompute_routing runs with mu and beta both at their
        # LP optima, so it has no slack in either; it must still solve.
        for seed in range(6):
            phys, crit, topo = rounded_instance(seed, fabric)
            X = topo.X.astype(float)
            b = phys.link_bandwidth
            mu = solve_maxmin_throughput(phys, crit, _fixed=X).mu
            beta = desensitize(phys, crit, mu, _fixed=X).beta
            routed = recompute_routing(phys, topo, crit)
            assert routed.mu == pytest.approx(mu, rel=1e-9)
            assert routed.beta == pytest.approx(beta, rel=1e-9)
            assert sensitivity_map(topo, routed.omega, b).max() \
                <= beta * (1 + 1e-6)
            for t in crit:
                rec = evaluate_static(topo, routed.omega, t, b)
                assert rec.mlu <= 1.0 / mu + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_beta_above_radix_bound_and_matches_unit_bracket(self,
                                                                   seed):
        rng = np.random.default_rng(600 + seed)
        fabric = random_fabric if seed % 2 else hetero_fabric
        phys = fabric(rng, 4, 2, qmin=2, qmax=5)
        crit = random_criticals(rng, 4, 2)
        mu = solve_maxmin_throughput(phys, crit).mu
        radix = min(phys.egress_radix.min(), phys.ingress_radix.min())
        bound = 1.0 / (phys.link_bandwidth * radix)
        builder = LoopStageBuilder(phys, crit)
        beta = desensitize(phys, crit, mu).beta
        assert beta >= bound
        assert not feasible_at_beta(builder, mu, bound * (1 - 1e-3))
        assert within_tol(beta, bisect_beta(phys, crit, mu))

    def test_n2_lower_bracket_is_optimal_after_one_lp(self, monkeypatch):
        phys, crit = n2_instance()
        models = record_solves(monkeypatch)
        sol = desensitize(phys, crit, 0.5)
        assert sol.beta == 0.25
        assert [m.name for m in models] == ["desensitize"]

    def test_joint_newton_reuses_one_model(self, monkeypatch):
        rng = np.random.default_rng(7)
        phys = make_fabric(4, 2, 3)
        crit = random_criticals(rng, 4, 2)
        mu = solve_maxmin_throughput(phys, crit).mu
        models = record_solves(monkeypatch)
        desensitize(phys, crit, mu)
        assert len(models) > 1
        assert all(m is models[0] for m in models)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_bound_above_cap_raises(self, fixed):
        phys = make_fabric(3, 1, 2, bandwidth=1e-7)
        X = np.ones((3, 3)) - np.eye(3)
        t = np.ones((3, 3)) - np.eye(3)
        crit = CriticalSet((TrafficMatrix(t),))
        with pytest.raises(InternalError):
            desensitize(phys, crit, 1e-12, _fixed=X if fixed else None)

    def test_fixed_topology_infeasible_mu_raises(self):
        phys = make_fabric(3, 1, 2)
        X = np.ones((3, 3)) - np.eye(3)
        t = np.ones((3, 3)) - np.eye(3)
        crit = CriticalSet((TrafficMatrix(t),))
        mu = solve_maxmin_throughput(phys, crit, _fixed=X).mu
        with pytest.raises(InternalError):
            desensitize(phys, crit, 2 * mu, _fixed=X)


def record_stage2(monkeypatch) -> list:
    """(gamma, F, slope) of each solve of the joint stage-2 model."""
    steps = []
    real = lp.solve

    def recording(model):
        sol = real(model)
        if model.name == "desensitize":
            # mu is the joint model's last column.
            steps.append((model.scale, sol.x[-1], sol.slope))
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    return steps


def joint_instances():
    """The fabrics and criticals of the stage-2 bracket tests."""
    for fabric in (random_fabric, hetero_fabric):
        for seed in range(6):
            phys, crit, _ = rounded_instance(seed, fabric)
            yield phys, crit
    for seed in range(4):
        rng = np.random.default_rng(600 + seed)
        fabric = random_fabric if seed % 2 else hetero_fabric
        phys = fabric(rng, 4, 2, qmin=2, qmax=5)
        yield phys, random_criticals(rng, 4, 2)


class TestStage2Newton:
    def test_overshoot_onto_plateau_keeps_beta_within_tol(self, monkeypatch):
        # A Newton step lands on the plateau F = mu* here; accepting it
        # leaves beta 0.18 % above the smallest feasible one.
        rng = np.random.default_rng(926)
        phys = hetero_fabric(rng, 7, 2, qmin=2, qmax=6)
        crit = random_criticals(rng, 7, 3)
        mu = solve_maxmin_throughput(phys, crit).mu
        steps = record_stage2(monkeypatch)
        beta = desensitize(phys, crit, mu).beta
        monkeypatch.undo()
        assert any(F >= mu * (1 - MU_SLACK) and slope * gamma <= MU_SLACK * F
                   for gamma, F, slope in steps[:-1])
        assert within_tol(beta, bisect_beta(phys, crit, mu))

    def test_probe_below_newton_overshoot_closes_bracket(self, monkeypatch):
        # F is convex just below the root here, so Newton steps overshoot
        # onto the plateau by a little; without the probe just below each
        # overshoot, stage 2 took 18 LPs, and the bisection 13.
        rng = np.random.default_rng(1030)
        phys = hetero_fabric(rng, 5, 2, qmin=2, qmax=6)
        crit = random_criticals(rng, 5, 3)
        mu = solve_maxmin_throughput(phys, crit).mu
        steps = record_stage2(monkeypatch)
        beta = desensitize(phys, crit, mu).beta
        monkeypatch.undo()
        assert len(steps) <= 13
        assert within_tol(beta, bisect_beta(phys, crit, mu))

    def test_stage3_solves_at_stage2_output(self):
        for phys, crit in joint_instances():
            mu = solve_maxmin_throughput(phys, crit).mu
            s2 = desensitize(phys, crit, mu)
            assert mu * (1 - 3 * MU_SLACK) <= s2.mu < mu
            s3 = minimize_ahc(phys, crit, s2.mu, s2.beta)
            assert sensitivity_map(s3.d, s3.omega, phys.link_bandwidth).max() \
                <= s2.beta * (1 + 1e-6)

    @pytest.mark.parametrize("ports", [3, 5, 6, 7])
    def test_beta_never_below_radix_bound(self, ports):
        # N = 2 attains the radix bound 1 / ports; gamma / F must not round
        # below it for any demand.
        phys = make_fabric(2, 1, ports)
        for t in np.linspace(1.3, 9.7, 25):
            demand = np.array([[0.0, t], [t, 0.0]])
            crit = CriticalSet((TrafficMatrix(demand),))
            mu = solve_maxmin_throughput(phys, crit).mu
            assert desensitize(phys, crit, mu).beta >= 1.0 / ports


class TestMinimizeAhc:
    def test_n2_all_direct(self):
        phys, crit = n2_instance()
        sol = minimize_ahc(phys, crit, 0.5, 0.25)
        assert sol.omega.weight(Path(0, 1)) == pytest.approx(1.0, abs=1e-9)
        rec = evaluate_static(sol.d, sol.omega, crit.matrices[0], 1.0)
        assert rec.ahc == pytest.approx(1.0, abs=1e-9)

    def test_single_pair_ample_ports(self):
        phys = make_fabric(4, 1, 8)
        t = np.zeros((4, 4))
        t[0, 3] = 2.0
        crit = CriticalSet((TrafficMatrix(t),))
        # Without a sensitivity cap the direct path alone is optimal.
        sol = run_pipeline(phys, crit, desensitized=False)
        assert sol.omega.weight(Path(0, 3)) == pytest.approx(1.0, abs=1e-6)
        rec = evaluate_static(sol.d, sol.omega, crit.matrices[0], 1.0)
        assert rec.ahc == pytest.approx(1.0, abs=1e-6)
        # At the fully minimized sensitivity bound the direct weight is
        # deliberately capped: spreading is the point of desensitizing.
        capped = run_pipeline(phys, crit, desensitized=True)
        assert capped.omega.weight(Path(0, 3)) < 1.0 - 1e-6

    def test_n3_objective_matches_grid_oracle(self):
        phys, crit = n3_instance()
        mu = solve_maxmin_throughput(phys, crit).mu
        beta = desensitize(phys, crit, mu).beta
        sol = minimize_ahc(phys, crit, mu, beta)
        lp_objective = sol.omega.weight(Path(0, 1)) * 4.0
        oracle = 4.0 * oracle_step3_direct_weight(beta)
        assert lp_objective == pytest.approx(oracle, abs=5e-2)

    def test_throughput_never_degraded(self):
        rng = np.random.default_rng(4)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 3)
        sol = run_pipeline(phys, crit)
        # mu is a hard constraint in stages 2-3: every critical scaled by mu
        # still routes within the final link counts.
        for t in crit:
            scaled = TrafficMatrix(t.demand * sol.mu)
            rec = evaluate_static(sol.d, sol.omega, scaled, 1.0)
            assert rec.mlu <= 1.0 + 1e-9

    def test_sensitivity_cap_respected(self):
        rng = np.random.default_rng(5)
        phys = make_fabric(4, 2, 4)
        crit = random_criticals(rng, 4, 2)
        sol = run_pipeline(phys, crit)
        sen = sensitivity_map(sol.d, sol.omega, phys.link_bandwidth)
        assert sen[np.isfinite(sen)].max() <= sol.beta + 1e-6


class TestLemma2Property:
    def test_bounded_demand_keeps_guarantee(self):
        rng = np.random.default_rng(6)
        phys = make_fabric(5, 2, 4)
        crit = random_criticals(rng, 5, 3, scale=8.0)
        sol = run_pipeline(phys, crit)
        bound = 1.0 / sol.mu + 1e-5
        for _ in range(50):
            t = convex_combination(rng, crit)
            rec = evaluate_static(sol.d, sol.omega, t, phys.link_bandwidth)
            assert rec.mlu <= bound

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        phys = make_fabric(4, 2, [3, 4, 2, 5])
        crit = random_criticals(rng, 4, 3, scale=5.0)
        sol = run_pipeline(phys, crit)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        phys_p = PhysicalTopology(4, 2, phys.egress_ports[:, inv],
                                  phys.ingress_ports[:, inv], 1.0)
        crit_p = CriticalSet(tuple(
            TrafficMatrix(t.demand[np.ix_(inv, inv)]) for t in crit))
        sol_p = run_pipeline(phys_p, crit_p)
        assert sol_p.mu == pytest.approx(sol.mu, rel=1e-9)
        assert sol_p.beta == pytest.approx(sol.beta, rel=1e-9)
        np.testing.assert_allclose(sol_p.d.d[np.ix_(perm, perm)], sol.d.d,
                                   atol=1e-7)


class TestRecomputeRouting:
    def test_integral_fractional_topology_keeps_mu_and_beta(self):
        phys, crit = n2_instance()
        sol = run_pipeline(phys, crit)
        x = np.rint(sol.d.d).astype(int)[None, :, :]
        routed = recompute_routing(phys, IntegerTopology(x), crit)
        assert routed.mu == pytest.approx(sol.mu, rel=1e-6)
        assert routed.beta == pytest.approx(sol.beta, rel=1e-6)

    def test_uniform_mesh_uniform_demand_closed_form(self):
        n, links_per_pair, t_rate = 4, 3, 2.0
        x = np.full((n, n), links_per_pair)
        np.fill_diagonal(x, 0)
        phys = make_fabric(n, 1, links_per_pair * (n - 1))
        t = np.full((n, n), t_rate)
        np.fill_diagonal(t, 0.0)
        crit = CriticalSet((TrafficMatrix(t),))
        routed = recompute_routing(phys, IntegerTopology(x[None]), crit)
        assert routed.mu == pytest.approx(links_per_pair / t_rate, rel=1e-6)

    def test_disconnected_pair_raises(self):
        phys = make_fabric(3, 1, 2)
        x = np.zeros((1, 3, 3), dtype=int)
        x[0, 1, 2] = 1  # pod 0 fully cut off
        t = np.zeros((3, 3))
        t[0, 1] = 1.0
        crit = CriticalSet((TrafficMatrix(t),))
        with pytest.raises(InfeasibleRoutingError) as err:
            recompute_routing(phys, IntegerTopology(x), crit)
        assert err.value.mu == 0.0

    def test_infeasible_when_budget_violated(self):
        phys = make_fabric(2, 1, 1)
        x = np.full((1, 2, 2), 5)
        np.fill_diagonal(x[0], 0)
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            recompute_routing(phys, IntegerTopology(x),
                              CriticalSet((TrafficMatrix(t),)))


def sparse_instance(seed: int, n: int, fixed: bool):
    """A fabric, criticals with zero entries and, when ``fixed``, a link
    count matrix with zero links; pairs left without a path by it carry
    no demand, so they fall back to their direct path."""
    rng = np.random.default_rng(900 + seed)
    fabric = hetero_fabric if seed % 2 else random_fabric
    phys = fabric(rng, n, 2, qmin=2, qmax=5)
    demand = np.stack([t.demand for t in random_criticals(rng, n, 3)])
    demand *= rng.random(demand.shape) < 0.6
    X = None
    if fixed:
        X = rng.integers(0, 3, size=(n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(X, 0)
        X = X.astype(float)
        linked = X > 0
        routed = linked | ((linked.astype(int) @ linked.astype(int)) > 0)
        demand *= routed
    demand[:, 0, 1] = 1.0  # never all zero
    if fixed:
        X[0, 1] = max(X[0, 1], 1.0)
    return phys, CriticalSet(tuple(TrafficMatrix(t) for t in demand)), X


def stage_models(monkeypatch, phys, crit, X):
    """{stage: (model solved last, mu, beta)} of stages 1, 2 and 3 run in
    a row, at the mu and beta each was given."""
    models = record_solves(monkeypatch)
    s1 = solve_maxmin_throughput(phys, crit, _fixed=X)
    s2 = desensitize(phys, crit, s1.mu, _fixed=X)
    s3 = minimize_ahc(phys, crit, s2.mu, s2.beta, _fixed=X)
    monkeypatch.undo()
    by_name = {m.name: m for m in models}
    stage1 = "maxmin-throughput" if X is None else "fixed-throughput"
    return {"1": (by_name[stage1], None, None),
            "2": (by_name["desensitize"], s1.mu, by_name["desensitize"].scale),
            "3": (by_name["minimize-ahc"], s3.mu, s3.beta)}


class TestStageModels:
    """The index-array builder against the loop builder in helpers."""

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_stage_matches_loop_builder(self, monkeypatch, n, fixed):
        for seed in range(2):
            phys, crit, X = sparse_instance(seed, n, fixed)
            for stage, (model, mu, beta) in stage_models(
                    monkeypatch, phys, crit, X).items():
                ref = loop_stage_model(stage, phys, crit, X, mu, beta)
                assert_same_model(model, ref)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_highs_holds_the_reference_model(self, monkeypatch, n, fixed):
        # Every LP of the three stages, each stage-2 Newton re-solve on one
        # model included: HiGHS holds, bit for bit, the model built
        # column-wise from one sparse matrix per relation and part.
        for seed in range(2):
            phys, crit, X = sparse_instance(seed, n, fixed)
            pairs = record_highs_models(monkeypatch)
            s1 = solve_maxmin_throughput(phys, crit, _fixed=X)
            s2 = desensitize(phys, crit, s1.mu, _fixed=X)
            minimize_ahc(phys, crit, s2.mu, s2.beta, _fixed=X)
            monkeypatch.undo()
            assert len(pairs) >= 3
            for sent, ref in pairs:
                assert held_lp(sent) == held_lp(ref)

    def test_stage2_resolves_hold_the_reference_model(self, monkeypatch):
        # One stage-2 model re-solved at several caps gamma.
        phys, crit, _ = sparse_instance(0, 6, False)
        builder = _StageBuilder(phys, crit)
        model = _throughput_model(builder, "desensitize")
        builder.add_sensitivity_constraints(model)
        pairs = record_highs_models(monkeypatch)
        for gamma in (0.05, 0.2, 0.1, 1.0):
            model.scale = gamma
            assert lp.solve(model).optimal
        monkeypatch.undo()
        assert len(pairs) == 4
        held = [held_lp(sent) for sent, _ in pairs]
        assert held == [held_lp(ref) for _, ref in pairs]
        assert len({h[-1] for h in held}) == 4

    def test_instances_have_fallback_pairs_and_empty_load_rows(self):
        fallback = empty_row = False
        for n in range(2, 9):
            for seed, fixed in ((0, False), (1, False), (0, True), (1, True)):
                phys, crit, X = sparse_instance(seed, n, fixed)
                ref = LoopStageBuilder(phys, crit, X)
                fallback |= bool(ref.fallback_pairs)
                for paths in ref.crossing.values():
                    usable = [p for p in paths if p in
                              ref.pair_paths.get((p.src, p.dst), ())]
                    for t in ref.demand:
                        empty_row |= all(t[p.src, p.dst] == 0
                                         for p in usable)
        assert fallback and empty_row

    def test_tables_are_read_only_and_cached(self):
        t = _tables(5)
        assert _tables(5) is t
        for name, value in t._asdict().items():
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[0] = 0
            else:
                assert isinstance(value, tuple), name

    def test_builders_on_different_topologies_share_nothing(self):
        phys, crit, X1 = sparse_instance(0, 6, True)
        _, _, X2 = sparse_instance(1, 6, True)
        crit2 = CriticalSet(tuple(TrafficMatrix(t * (X2 > 0))
                                  for t in crit.stacked()))
        assert not np.array_equal(X1 > 0, X2 > 0)
        first = _StageBuilder(phys, crit, X1)
        second = _StageBuilder(phys, crit2, X2)
        for builder, c, X in ((first, crit, X1), (second, crit2, X2),
                              (first, crit, X1)):
            model = builder.new_model("desensitize", 1.0)
            builder.add_split_constraints(model)
            builder.add_load_constraints(model, 0.5)
            builder.add_sensitivity_constraints(model)
            model.set_objective("min", [builder.stage_col], [1.0])
            assert_same_model(model,
                              loop_stage_model("2", phys, c, X, mu=0.5))


class TestPathCapacity:
    def test_one_hop_exact(self):
        rng = np.random.default_rng(8)
        X = random_mesh_topology(rng, 5, 6)
        topo = IntegerTopology(X[None])
        n = 5
        expected = X.sum() / (n * (n - 1))
        assert compute_path_capacity(topo, 1) == pytest.approx(expected)

    def test_two_hop_matches_disjoint_decomposition(self):
        rng = np.random.default_rng(9)
        X = random_mesh_topology(rng, 5, 6)
        topo = IntegerTopology(X[None])
        n = 5
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                total += X[i, j] + sum(min(X[i, k], X[k, j])
                                       for k in range(n) if k not in (i, j))
        assert compute_path_capacity(topo, 2) == pytest.approx(
            total / (n * (n - 1)), rel=1e-9)

    def test_monotone_in_hop_budget(self):
        rng = np.random.default_rng(10)
        X = random_mesh_topology(rng, 6, 8)
        topo = IntegerTopology(X[None])
        caps = [compute_path_capacity(topo, h) for h in (1, 2, 3, 4)]
        assert caps == sorted(caps)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_four_hops_is_max_flow(self, n):
        # Among n <= 5 pods every simple path has at most 4 hops, so the
        # pair capacity is the pair's maximum flow.
        for seed in range(20):
            rng = np.random.default_rng([n, seed])
            X = rng.integers(0, 3, size=(n, n))
            np.fill_diagonal(X, 0)
            graph = csr_array(X.astype(np.int32))
            flows = [maximum_flow(graph, i, j).flow_value
                     for i in range(n) for j in range(n) if i != j]
            assert compute_path_capacity(IntegerTopology(X[None]), 4) == \
                pytest.approx(np.mean(flows), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_models_match_loop_builder(self, monkeypatch, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            X = rng.integers(0, 3, size=(n, n)) * (rng.random((n, n)) < 0.7)
            np.fill_diagonal(X, 0)
            for H in (2, 3, 4):
                models = record_solves(monkeypatch)
                compute_path_capacity(IntegerTopology(X[None]), H)
                monkeypatch.undo()
                refs = [loop_capacity_model(X.astype(float), i, j, H)
                        for i in range(n) for j in range(n) if i != j]
                refs = [ref for ref in refs if ref is not None]
                assert len(models) == len(refs)
                for model, ref in zip(models, refs):
                    assert model.name == ref.name
                    assert_same_model(model, ref)

    def test_bad_hop_budget_rejected(self):
        topo = IntegerTopology(np.zeros((1, 3, 3), dtype=int))
        with pytest.raises(InvalidInputError):
            compute_path_capacity(topo, 5)
