import itertools
import re
import warnings

import numpy as np
import pytest

from couder.errors import InvalidInputError
from couder.model import TmSequence, TrafficMatrix, demand_scale
from couder.traffic import (CriticalSet, _kmeans, check_bounded,
                            extract_critical, gen_burst_tms, gen_storage_tms)
from helpers import (random_criticals, random_tm, record_highs,
                     record_highs_models)


def seq_of(demands, window=1.0):
    return TmSequence(tuple(TrafficMatrix(d) for d in demands),
                      aggregation_window=window)


def labels_of(seq: TmSequence, k: int, seed: int) -> np.ndarray:
    """The cluster of each matrix, as ``extract_critical`` clusters them."""
    flat = seq.stacked().reshape(len(seq), -1)
    return _kmeans(flat / demand_scale(flat), k, seed)


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
        labels = labels_of(seq, 2, 7)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        demands = seq.stacked()
        for c in range(2):
            np.testing.assert_allclose(crit.matrices[c].demand,
                                       demands[labels == c].max(axis=0))

    def test_members_dominated_exactly(self):
        rng = np.random.default_rng(5)
        seq = seq_of([random_tm(rng, 5).demand for _ in range(30)])
        crit = extract_critical(seq, 4, seed=3)
        for t, c in zip(seq, labels_of(seq, 4, 3)):
            assert (t.demand <= crit.matrices[c].demand).all()

    def test_each_point_is_nearest_its_cluster_mean(self):
        # Lloyd's iterations stop at a fixed point: against the means of
        # the clusters returned, each point's own cluster is the nearest.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            points = rng.lognormal(size=(40, 12))
            k = 2 + seed % 4
            labels = _kmeans(points, k, seed)
            means = np.array([points[labels == c].mean(axis=0)
                              for c in range(k)])
            dist = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
            np.testing.assert_allclose(dist[np.arange(len(points)), labels],
                                       dist.min(axis=1), rtol=1e-12)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        seq = seq_of([random_tm(rng, 4).demand for _ in range(15)])
        a = extract_critical(seq, 3, seed=11)
        b = extract_critical(seq, 3, seed=11)
        np.testing.assert_array_equal(labels_of(seq, 3, 11),
                                      labels_of(seq, 3, 11))
        np.testing.assert_array_equal(a.stacked(), b.stacked())

    @pytest.mark.parametrize("scale", [2.0 ** 530, 1e160, 1e-160, 3.7])
    def test_clusters_do_not_depend_on_the_unit(self, scale):
        # Near 1e160 the squared distances overflowed, and k-means++ then
        # drew its seeds from NaN probabilities.
        rng = np.random.default_rng(12)
        days = np.concatenate([gen_storage_tms(6, 12, 3).stacked(),
                               [random_tm(rng, 6).demand for _ in range(12)]])
        crit = extract_critical(seq_of(days), 3, seed=0)
        scaled = extract_critical(seq_of(days * scale), 3, seed=0)
        assert (scaled.stacked() == crit.stacked() * scale).all()

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
        res = check_bounded(self.crit.matrices[0], self.crit)
        assert res.bounded
        assert res.slack <= 1e-6

    def test_explicit_convex_witness(self):
        demand = 0.5 * self.crit.matrices[0].demand \
            + 0.3 * self.crit.matrices[1].demand
        res = check_bounded(TrafficMatrix(demand), self.crit)
        assert res.bounded
        assert res.lambdas.sum() <= 1.0 + 1e-6

    def test_scaling_beyond_one_unbounded(self):
        t = TrafficMatrix(np.array([[0.0, 4.0], [1.0, 0.0]]))
        crit = extract_critical(seq_of([t.demand]), 1, seed=0)
        doubled = TrafficMatrix(2 * t.demand)
        res = check_bounded(doubled, crit)
        assert not res.bounded
        assert res.slack > 1e-6

    def test_dominated_is_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            lam = rng.dirichlet([1, 1])
            demand = lam[0] * self.crit.matrices[0].demand \
                + lam[1] * self.crit.matrices[1].demand
            t = TrafficMatrix(demand)
            assert check_bounded(t, self.crit).bounded
            smaller = TrafficMatrix(demand * rng.uniform(0, 1, demand.shape)
                                    * (demand > 0))
            assert check_bounded(smaller, self.crit).bounded

    @pytest.mark.parametrize("scale", [2.0 ** k for k in (-40, -20, 20, 40)]
                             + [10.0 ** k for k in range(-6, 7)])
    def test_verdict_does_not_depend_on_the_demand_unit(self, scale):
        # t and the criticals scaled together: each verdict is the one at
        # scale 1, and the slack scales along.  Twice an all-ones critical
        # must not read bounded at scale 1e-6, nor that critical times
        # 1 + 1e-9 unbounded at scale 1e3.
        ones = np.ones((4, 4)) - np.eye(4)
        crit = random_criticals(np.random.default_rng(5), 5, 3).stacked()
        cases = [([ones], 2.0 * ones, False),
                 ([ones], (1 + 1e-9) * ones, True),
                 ([ones], (1 + 1e-5) * ones, False),
                 (crit, 0.5 * crit[0] + 0.4 * crit[1], True),
                 (crit, 0.6 * crit[0] + 0.6 * crit[2], False)]
        for mats, demand, bounded in cases:
            res, ref = (check_bounded(
                TrafficMatrix(s * demand),
                CriticalSet(tuple(TrafficMatrix(s * c) for c in mats)))
                for s in (scale, 1.0))
            assert res.bounded == ref.bounded == bounded
            assert res.slack == pytest.approx(scale * ref.slack, rel=1e-6,
                                              abs=1e-9 * scale)

    def test_matrix_past_the_float_range_in_the_criticals_unit(self):
        # 1e10 over the criticals' sigma of about 1e-300 overflows: an
        # input error, without a RuntimeWarning on the way.
        ones = np.ones((4, 4)) - np.eye(4)
        crit = CriticalSet((TrafficMatrix(1e-300 * ones),))
        with pytest.raises(InvalidInputError, match="float range"):
            check_bounded(TrafficMatrix(1e10 * ones), crit)

    def test_right_hand_side_past_the_solver_range_is_named(self):
        # 1e21 times the critical puts a right-hand side past HiGHS's
        # infinite bound of 1e20, and no coefficient is above 1: the input
        # error names the right-hand side, not a coefficient.
        ones = np.ones((4, 4)) - np.eye(4)
        crit = CriticalSet((TrafficMatrix(ones),))
        with pytest.raises(InvalidInputError,
                           match="every right-hand side must be below 1e"):
            check_bounded(TrafficMatrix(1e21 * ones), crit)

    def test_dominated_accepts_below_exact_rejects(self):
        half = TrafficMatrix(0.5 * self.crit.matrices[0].demand
                             + 0.1 * self.crit.matrices[1].demand)
        shrunk = TrafficMatrix(half.demand * 0.9)
        assert check_bounded(shrunk, self.crit).bounded

    def test_every_check_solves_cold(self, monkeypatch):
        # The model is built once per critical set and solved cold for each
        # matrix, so a check does not hinge on the checks before it.
        calls = record_highs(monkeypatch)
        rng = np.random.default_rng(13)
        crit = random_criticals(rng, 4, 3)
        tms = [random_tm(rng, 4) for _ in range(3)]
        first = [check_bounded(t, crit).lambdas.tobytes() for t in tms]
        again = [check_bounded(t, crit).lambdas.tobytes()
                 for t in reversed(tms)]
        assert [basis for basis, _ in calls] == [None] * 6
        assert again[::-1] == first

    def test_highs_holds_the_reference_model(self, monkeypatch):
        pairs = record_highs_models(monkeypatch)
        rng = np.random.default_rng(12)
        for n, k in ((2, 1), (4, 3), (8, 5)):
            crit = random_criticals(rng, n, k)
            mask = rng.random((k, n, n)) < 0.6
            crit = CriticalSet(tuple(TrafficMatrix(t * m) for t, m
                                     in zip(crit.stacked(), mask)))
            for t in (random_tm(rng, n), TrafficMatrix(np.zeros((n, n)))):
                check_bounded(t, crit)
        assert len(pairs) == 6
        for sent, ref in pairs:
            assert sent == ref


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

    @pytest.mark.parametrize("hi", [np.inf, np.nan])
    def test_non_finite_demand_range_rejected(self, hi):
        # numpy's uniform raised OverflowError on an infinite range.
        with pytest.raises(InvalidInputError, match=r"demand range \[1, "):
            gen_storage_tms(4, 2, demand_range=(1.0, hi))


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

    @pytest.mark.parametrize("factor", [np.inf, np.nan, 1e308])
    def test_non_finite_burst_rejected_without_warning(self, factor):
        # An infinite factor times a zero sigma is NaN, and 1e308 times
        # sigma passes the float range: either one a numpy RuntimeWarning
        # before the factor was checked.
        rng = np.random.default_rng(11)
        seq = seq_of([random_tm(rng, 3).demand for _ in range(3)]
                     + [np.zeros((3, 3))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError,
                               match=re.escape(f"burst factor {factor:g} ")):
                gen_burst_tms(seq, factor)

    def test_sigma_of_huge_demands_stays_in_range(self):
        # std of 0 and 1e155 squares a deviation past the float range; over
        # the demands' scale it does not.  A burst that itself passes the
        # range is still refused.
        off = np.ones((2, 2)) - np.eye(2)
        seq = seq_of([0.0 * off, 1e155 * off])
        base = 1e155 * off
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(t.demand.tobytes() == base.tobytes()
                       for _, t in gen_burst_tms(seq, 0.0, 1))
            for burst_set, t in gen_burst_tms(seq, 1.0, 1):
                (pair,) = burst_set
                assert t.demand[pair] == pytest.approx(
                    1e155 * (1 + np.sqrt(0.5)), rel=1e-15)
            with pytest.raises(InvalidInputError,
                               match="past the float range"):
                gen_burst_tms(seq_of([0.0 * off, 1e308 * off]), 2.0, 1)

    def test_burst_spec_validates(self):
        seq = seq_of([np.zeros((3, 3))] * 2)
        for pairs in (0, 3):
            with pytest.raises(InvalidInputError):
                gen_burst_tms(seq, 1.0, pairs)
        with pytest.raises(InvalidInputError):
            gen_burst_tms(seq_of([np.zeros((3, 3))]), 1.0)

    @pytest.mark.parametrize("max_pairs", [1, 2])
    def test_exact_values_in_order(self, max_pairs):
        # Single pairs row-major, then pairs of them (a < b); each matrix is
        # the max plus factor * sigma (ddof = 1) on its burst pairs only.
        rng = np.random.default_rng(10)
        seq = seq_of([random_tm(rng, 4).demand for _ in range(5)])
        base = seq.stacked().max(axis=0)
        sigma = seq.stacked().std(axis=0, ddof=1)
        singles = [(i, j) for i in range(4) for j in range(4) if i != j]
        sets = [(p,) for p in singles]
        if max_pairs == 2:
            sets += list(itertools.combinations(singles, 2))
        bursts = gen_burst_tms(seq, 1.75, max_pairs)
        assert [burst_set for burst_set, _ in bursts] == sets
        for burst_set, t in bursts:
            want = base.copy()
            for i, j in burst_set:
                want[i, j] = base[i, j] + 1.75 * sigma[i, j]
            assert t.demand.tobytes() == want.tobytes()
            assert (sigma[tuple(zip(*burst_set))] > 0).all()
