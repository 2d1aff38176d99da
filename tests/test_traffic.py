import numpy as np
import pytest

from couder import lp
from couder.errors import InvalidInputError
from couder.model import TmSequence, TrafficMatrix
from couder.traffic import (BurstSpec, CriticalSet, check_bounded,
                            boundability_curve, extract_critical,
                            gen_burst_tms, gen_storage_tms)
from helpers import (assert_same_model, held_lp, loop_check_bounded,
                     random_criticals, random_tm, record_highs_models)


def seq_of(demands, window=1.0):
    return TmSequence(tuple(TrafficMatrix(d) for d in demands),
                      aggregation_window=window)


class TestExtractCritical:
    def test_identical_matrices_any_k(self):
        t = np.zeros((3, 3))
        t[0, 1] = 5.0
        seq = seq_of([t] * 10)
        for k in (1, 2, 4):
            crit = extract_critical(seq, k, seed=1)
            assert len(crit) == k
            for c in crit:
                np.testing.assert_array_equal(c.demand, t)

    def test_k1_is_entrywise_max(self):
        rng = np.random.default_rng(0)
        seq = seq_of([random_tm(rng, 4).demand for _ in range(12)])
        crit = extract_critical(seq, 1, seed=0)
        np.testing.assert_allclose(crit.matrices[0].demand,
                                   seq.stacked().max(axis=0))

    def test_two_separated_clouds(self):
        # Two point clouds far apart: any correct 2-means run must split them,
        # so the criticals are the per-cloud component-wise maxima.
        rng = np.random.default_rng(42)
        base_a = random_tm(rng, 4, scale=10.0).demand + 5.0
        base_b = random_tm(rng, 4, scale=10.0).demand + 2000.0
        np.fill_diagonal(base_a, 0.0)
        np.fill_diagonal(base_b, 0.0)
        cloud = []
        for base in (base_a, base_b):
            for _ in range(20):
                jitter = rng.uniform(-1.0, 1.0, size=(4, 4))
                t = np.clip(base + jitter, 0.0, None)
                np.fill_diagonal(t, 0.0)
                cloud.append(t)
        seq = seq_of(cloud)
        crit = extract_critical(seq, 2, seed=7)
        labels = np.array(crit.cluster_assignment)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        demands = seq.stacked()
        for c in range(2):
            np.testing.assert_allclose(
                crit.matrices[c].demand if labels[0] == c or labels[20] == c
                else None,
                demands[labels == c].max(axis=0))

    def test_members_dominated_exactly(self):
        rng = np.random.default_rng(5)
        seq = seq_of([random_tm(rng, 5).demand for _ in range(30)])
        crit = extract_critical(seq, 4, seed=3)
        for idx, t in enumerate(seq):
            c = crit.cluster_assignment[idx]
            assert (t.demand <= crit.matrices[c].demand).all()

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        seq = seq_of([random_tm(rng, 4).demand for _ in range(15)])
        a = extract_critical(seq, 3, seed=11)
        b = extract_critical(seq, 3, seed=11)
        assert a.cluster_assignment == b.cluster_assignment
        np.testing.assert_array_equal(a.stacked(), b.stacked())

    def test_k_bounds(self):
        seq = seq_of([np.zeros((2, 2))] * 3)
        with pytest.raises(InvalidInputError):
            extract_critical(seq, 0)
        with pytest.raises(InvalidInputError):
            extract_critical(seq, 4)


class TestCheckBounded:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.t1 = random_tm(rng, 4, 10.0)
        self.t2 = random_tm(rng, 4, 10.0)
        self.crit = extract_critical(seq_of([self.t1.demand, self.t2.demand]),
                                     2, seed=0)

    def test_vertex_is_bounded(self):
        res = check_bounded(self.crit.matrices[0], self.crit, "exact")
        assert res.bounded
        assert res.slack <= 1e-6

    def test_explicit_convex_witness(self):
        demand = 0.5 * self.crit.matrices[0].demand \
            + 0.3 * self.crit.matrices[1].demand
        res = check_bounded(TrafficMatrix(demand), self.crit, "exact")
        assert res.bounded
        assert res.lambdas.sum() <= 1.0 + 1e-6

    def test_scaling_beyond_one_unbounded(self):
        t = TrafficMatrix(np.array([[0.0, 4.0], [1.0, 0.0]]))
        crit = extract_critical(seq_of([t.demand]), 1, seed=0)
        doubled = TrafficMatrix(2 * t.demand)
        res = check_bounded(doubled, crit, "dominated")
        assert not res.bounded
        assert res.slack > 1e-6

    def test_exact_implies_dominated(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = rng.dirichlet([1, 1]) * rng.uniform(0, 1)
            demand = lam[0] * self.crit.matrices[0].demand \
                + lam[1] * self.crit.matrices[1].demand
            t = TrafficMatrix(demand)
            if check_bounded(t, self.crit, "exact").bounded:
                assert check_bounded(t, self.crit, "dominated").bounded

    def test_dominated_is_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            lam = rng.dirichlet([1, 1])
            demand = lam[0] * self.crit.matrices[0].demand \
                + lam[1] * self.crit.matrices[1].demand
            t = TrafficMatrix(demand)
            assert check_bounded(t, self.crit, "dominated").bounded
            smaller = TrafficMatrix(demand * rng.uniform(0, 1, demand.shape)
                                    * (demand > 0))
            assert check_bounded(smaller, self.crit, "dominated").bounded

    def test_dominated_accepts_below_exact_rejects(self):
        half = TrafficMatrix(0.5 * self.crit.matrices[0].demand
                             + 0.1 * self.crit.matrices[1].demand)
        shrunk = TrafficMatrix(half.demand * 0.9)
        assert check_bounded(shrunk, self.crit, "dominated").bounded


    @pytest.mark.parametrize("mode", ["exact", "dominated"])
    def test_witness_matches_loop_builder(self, monkeypatch, mode):
        # One add_rows block must hand HiGHS the rows the per-row builder
        # did, so the witness is the same to the bit.
        models = []
        real = lp.solve

        def recording(model):
            models.append(model)
            return real(model)

        monkeypatch.setattr(lp, "solve", recording)
        rng = np.random.default_rng(11)
        for n, k in ((2, 1), (4, 3), (6, 5), (8, 5)):
            crit = random_criticals(rng, n, k)
            mask = rng.random((k, n, n)) < 0.7
            crit = CriticalSet(tuple(TrafficMatrix(t * m) for t, m
                                     in zip(crit.stacked(), mask)))
            for t in (random_tm(rng, n), TrafficMatrix(
                    0.4 * crit.matrices[0].demand)):
                res = check_bounded(t, crit, mode)
                lambdas, slack, ref = loop_check_bounded(t, crit, mode)
                assert_same_model(models[0], ref)
                assert res.lambdas.tobytes() == lambdas.tobytes()
                assert res.slack == slack
                models.clear()

    @pytest.mark.parametrize("mode", ["exact", "dominated"])
    def test_highs_holds_the_reference_model(self, monkeypatch, mode):
        pairs = record_highs_models(monkeypatch)
        rng = np.random.default_rng(12)
        for n, k in ((2, 1), (4, 3), (8, 5)):
            crit = random_criticals(rng, n, k)
            mask = rng.random((k, n, n)) < 0.6
            crit = CriticalSet(tuple(TrafficMatrix(t * m) for t, m
                                     in zip(crit.stacked(), mask)))
            for t in (random_tm(rng, n), TrafficMatrix(np.zeros((n, n)))):
                check_bounded(t, crit, mode)
        assert len(pairs) == 6
        for sent, ref in pairs:
            assert held_lp(sent) == held_lp(ref)

    @pytest.mark.parametrize("mode", ["exakt", "Exact", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(InvalidInputError):
            check_bounded(self.crit.matrices[0], self.crit, mode)


class TestBoundabilityCurve:
    def test_constant_sequence_fraction_after_warmup(self):
        t = np.zeros((3, 3))
        t[1, 2] = 7.0
        seq = seq_of([t] * 8)
        curve = boundability_curve(seq, 2, [2.0, 4.0, 9.0])
        # Only the first matrix lacks history; larger windows never hurt.
        fractions = [f for _, f in curve]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(7 / 8)

    def test_empty_history_counts_zero(self):
        t = np.zeros((2, 2))
        seq = seq_of([t] * 3, window=10.0)
        curve = boundability_curve(seq, 1, [1.0])
        assert curve[0][1] == 0.0

    @pytest.mark.parametrize("window", [10.0, 0.5])
    def test_unknown_mode_rejected(self, window):
        # Also when no matrix has history, so no membership test runs.
        seq = seq_of([np.ones((2, 2)) - np.eye(2)] * 3)
        with pytest.raises(InvalidInputError):
            boundability_curve(seq, 1, [window], mode="exakt")

    def test_requires_sorted_windows(self):
        seq = seq_of([np.zeros((2, 2))] * 2)
        with pytest.raises(InvalidInputError):
            boundability_curve(seq, 1, [5.0, 1.0])
        with pytest.raises(InvalidInputError):
            boundability_curve(seq, 1, [])


class TestGenStorage:
    def test_block_structure(self):
        seq = gen_storage_tms(6, 5, seed=1)
        half = 3
        for t in seq:
            d = t.demand
            assert (d[half:, half:] == 0).all()  # storage <-> storage
            assert (d[:half, :half] == 0).all()  # compute <-> compute
            for c in range(half):
                row = d[c, half:]
                assert np.allclose(row, row[0])  # uniform write spread
                col = d[half:, c]
                assert np.allclose(col, col[0])  # uniform read spread

    def test_demand_spread_matches_total(self):
        seq = gen_storage_tms(8, 3, seed=2, demand_range=(4.0, 4.0))
        d = seq[0].demand
        assert d[0, 4] == pytest.approx(4.0 / 4)

    def test_deterministic(self):
        a = gen_storage_tms(6, 4, seed=33)
        b = gen_storage_tms(6, 4, seed=33)
        np.testing.assert_array_equal(a.stacked(), b.stacked())

    def test_odd_pods_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_storage_tms(5, 2)
        with pytest.raises(InvalidInputError):
            gen_storage_tms(2, 2)


class TestGenBurst:
    def test_zero_factor_equals_base(self):
        rng = np.random.default_rng(6)
        seq = seq_of([random_tm(rng, 3).demand for _ in range(5)])
        base = seq.stacked().max(axis=0)
        for _, t in gen_burst_tms(seq, 0.0, 1):
            np.testing.assert_allclose(t.demand, base)

    def test_counts_for_four_pods(self):
        rng = np.random.default_rng(7)
        seq = seq_of([random_tm(rng, 4).demand for _ in range(4)])
        singles = gen_burst_tms(seq, 1.0, 1)
        assert len(singles) == 12
        both = gen_burst_tms(seq, 1.0, 2)
        assert len(both) == 12 + 66

    def test_identical_pair_sequence_zero_sigma(self):
        t = random_tm(np.random.default_rng(8), 3).demand
        seq = seq_of([t, t])
        for _, burst in gen_burst_tms(seq, 4.0, 1):
            np.testing.assert_allclose(burst.demand, t)

    def test_burst_dominates_base(self):
        rng = np.random.default_rng(9)
        seq = seq_of([random_tm(rng, 3).demand for _ in range(6)])
        base = seq.stacked().max(axis=0)
        for _, t in gen_burst_tms(seq, 2.5, 2):
            assert (t.demand >= base - 1e-12).all()

    def test_negative_factor_rejected(self):
        seq = seq_of([np.zeros((3, 3))] * 2)
        with pytest.raises(InvalidInputError):
            gen_burst_tms(seq, -1.0)

    def test_burst_spec_validates(self):
        base = TrafficMatrix(np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):
            BurstSpec(base, np.zeros((3, 3)), 1.0, (((0, 0),)))
