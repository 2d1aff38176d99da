import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couder.errors import InvalidInputError
from couder.model import (IntegerTopology, Path, PhysicalTopology,
                          RoutingWeights, TmSequence, TrafficMatrix,
                          enumerate_paths, validate)
from helpers import make_fabric


class TestEnumeratePaths:
    def test_two_pods_direct_only(self):
        paths = enumerate_paths(2)
        assert paths[(0, 1)] == [Path(0, 1)]
        assert paths[(1, 0)] == [Path(1, 0)]

    def test_three_pods(self):
        paths = enumerate_paths(3)
        assert paths[(0, 1)] == [Path(0, 1), Path(0, 1, 2)]
        assert all(len(v) == 2 for v in paths.values())

    def test_eight_pods_count(self):
        paths = enumerate_paths(8)
        assert len(paths) == 56
        assert all(len(v) == 7 for v in paths.values())
        assert sum(len(v) for v in paths.values()) == 392

    def test_order_direct_first_then_ascending(self):
        paths = enumerate_paths(5)[(3, 1)]
        assert paths[0] == Path(3, 1)
        assert [p.via for p in paths[1:]] == [0, 2, 4]

    def test_rejects_single_pod(self):
        with pytest.raises(InvalidInputError):
            enumerate_paths(1)

    @given(st.integers(min_value=2, max_value=7), st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_closed_under_relabeling(self, n, rnd):
        perm = list(range(n))
        rnd.shuffle(perm)
        base = enumerate_paths(n)
        relabeled = {
            (perm[i], perm[j]): {
                Path(perm[p.src], perm[p.dst],
                     None if p.via is None else perm[p.via])
                for p in ps}
            for (i, j), ps in base.items()}
        assert relabeled == {k: set(v) for k, v in base.items()}

    @given(st.integers(min_value=2, max_value=30))
    def test_path_count_formula(self, n):
        paths = enumerate_paths(n)
        assert all(len(v) == n - 1 for v in paths.values())


class TestValidate:
    def test_all_zero_is_ok(self):
        phys = make_fabric(3, 2, 2)
        topo = IntegerTopology(np.zeros((2, 3, 3), dtype=int))
        assert validate(phys, topo) == []

    def test_single_switch_overload(self):
        phys = PhysicalTopology(2, 1, np.array([[2, 2]]), np.array([[2, 2]]))
        x = np.zeros((1, 2, 2), dtype=int)
        x[0, 0, 1] = 3
        report = validate(phys, IntegerTopology(x))
        assert (0, 0, "egress") in report
        assert (0, 1, "ingress") in report

    def test_aggregate_across_switches_ok(self):
        phys = make_fabric(2, 2, 1)
        x = np.zeros((2, 2, 2), dtype=int)
        x[0, 0, 1] = 1
        x[1, 0, 1] = 1
        assert validate(phys, IntegerTopology(x)) == []

    def test_dimension_mismatch(self):
        phys = make_fabric(3, 2, 2)
        with pytest.raises(InvalidInputError):
            validate(phys, IntegerTopology(np.zeros((1, 3, 3), dtype=int)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_valid_topology_respects_radix(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 4, 3
        phys = make_fabric(n, m, rng.integers(1, 5, size=n))
        x = np.zeros((m, n, n), dtype=int)
        for sw in range(m):
            eg = phys.egress_ports[sw].copy()
            ig = phys.ingress_ports[sw].copy()
            for _ in range(20):
                i, j = rng.integers(n, size=2)
                if i != j and eg[i] > 0 and ig[j] > 0:
                    x[sw, i, j] += 1
                    eg[i] -= 1
                    ig[j] -= 1
        topo = IntegerTopology(x)
        assert validate(phys, topo) == []
        assert (topo.X.sum(axis=1) <= phys.egress_radix).all()
        assert (topo.X.sum(axis=0) <= phys.ingress_radix).all()


class TestPhysicalTopology:
    def test_unbalanced_switch_rejected(self):
        with pytest.raises(InvalidInputError):
            PhysicalTopology(2, 1, np.array([[2, 2]]), np.array([[1, 2]]))

    def test_negative_ports_rejected(self):
        with pytest.raises(InvalidInputError):
            PhysicalTopology(2, 1, np.array([[-1, 3]]), np.array([[1, 1]]))

    @pytest.mark.parametrize("bandwidth", [np.nan, 0.0, -1.0, np.inf])
    def test_rejects_bad_bandwidth(self, bandwidth):
        with pytest.raises(InvalidInputError, match="bandwidth"):
            make_fabric(3, 1, 2, bandwidth)

    def test_asymmetric_striping_allowed(self):
        # Egress and ingress port counts may differ per pod as long as each
        # switch's totals pair up.
        phys = PhysicalTopology(2, 1, np.array([[3, 1]]), np.array([[1, 3]]))
        assert phys.egress_radix.tolist() == [3, 1]
        assert phys.ingress_radix.tolist() == [1, 3]

    def test_radix_is_derived(self):
        phys = make_fabric(3, 4, [2, 3, 1])
        assert phys.egress_radix.tolist() == [8, 12, 4]

    def test_arrays_frozen(self):
        phys = make_fabric(2, 1, 2)
        with pytest.raises(ValueError):
            phys.egress_ports[0, 0] = 9


class TestTrafficMatrix:
    def test_self_demand_rejected(self):
        t = np.ones((3, 3))
        with pytest.raises(InvalidInputError):
            TrafficMatrix(t)

    def test_negative_rejected(self):
        t = np.zeros((2, 2))
        t[0, 1] = -1
        with pytest.raises(InvalidInputError):
            TrafficMatrix(t)

    def test_nonfinite_rejected(self):
        t = np.zeros((2, 2))
        t[0, 1] = np.inf
        with pytest.raises(InvalidInputError):
            TrafficMatrix(t)

    def test_demand_frozen(self):
        t = TrafficMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            t.demand[0, 1] = 5.0


class TestTmSequence:
    def test_timestamps_must_increase(self):
        a = TrafficMatrix(np.zeros((2, 2)), timestamp=1.0)
        b = TrafficMatrix(np.zeros((2, 2)), timestamp=1.0)
        with pytest.raises(InvalidInputError):
            TmSequence((a, b))

    @pytest.mark.parametrize("stamps", [
        (0.0, None), (None, 1.0), (0.0, None, 2.0), (np.nan,), (np.inf,),
        ("1",), ([1.0],), (True,)])
    def test_timestamps_on_every_matrix_or_none_each_finite(self, stamps):
        mats = tuple(TrafficMatrix(np.zeros((2, 2)), timestamp=s)
                     for s in stamps)
        with pytest.raises(InvalidInputError):
            TmSequence(mats)

    def test_mixed_sizes_rejected(self):
        a = TrafficMatrix(np.zeros((2, 2)))
        b = TrafficMatrix(np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):
            TmSequence((a, b))

    def test_times_synthesized_from_window(self):
        seq = TmSequence((TrafficMatrix(np.zeros((2, 2))),) * 3,
                         aggregation_window=2.0)
        assert seq.times().tolist() == [0.0, 2.0, 4.0]


class TestPath:
    def test_via_must_differ(self):
        with pytest.raises(InvalidInputError):
            Path(0, 1, 0)
        with pytest.raises(InvalidInputError):
            Path(0, 0)

    def test_links(self):
        assert Path(0, 2).links() == ((0, 2),)
        assert Path(0, 2, 1).links() == ((0, 1), (1, 2))


class TestRoutingWeights:
    def test_arrays_built_once_as_the_loop_and_read_only(self):
        n = 5
        rng = np.random.default_rng(0)
        weights = {p: float(rng.random())
                   for paths in enumerate_paths(n).values() for p in paths}
        omega = RoutingWeights(weights)
        direct, via = omega.arrays(n)
        again = omega.arrays(n)
        assert again[0] is direct and again[1] is via
        want_direct, want_via = np.zeros((n, n)), np.zeros((n, n, n))
        for p, w in weights.items():
            if p.via is None:
                want_direct[p.src, p.dst] = w
            else:
                want_via[p.src, p.dst, p.via] = w
        assert direct.tobytes() == want_direct.tobytes()
        assert via.tobytes() == want_via.tobytes()
        with pytest.raises(ValueError):
            direct[0, 1] = 0.5
        with pytest.raises(ValueError):
            via[0, 1, 2] = 0.5
        with pytest.raises(TypeError):
            omega.weights[Path(0, 1)] = 0.5
        # The caller's dict is copied, so changing it changes no weight.
        weights[Path(0, 1)] = 0.5
        assert omega.weights.get(Path(0, 1), 0.0) == want_direct[0, 1] != 0.5
        assert omega == RoutingWeights(dict(omega.weights))
