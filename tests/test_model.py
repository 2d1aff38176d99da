import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couder.errors import InvalidInputError
from couder.model import (IntegerTopology, Path, PhysicalTopology,
                          RoutingWeights, TmSequence, TrafficMatrix, _tables,
                          demand_scale, validate)
from helpers import crossing_paths, enumerate_paths, make_fabric


def table_paths(n: int) -> dict:
    """``_tables(n).paths``, the column order of every routing, grouped by
    ordered pair."""
    out = {}
    for p in _tables(n).paths:
        out.setdefault((p.src, p.dst), []).append(p)
    return out


class TestEnumeratePaths:
    """The path order of ``_tables``."""

    def test_two_pods_direct_only(self):
        paths = table_paths(2)
        assert paths[(0, 1)] == [Path(0, 1)]
        assert paths[(1, 0)] == [Path(1, 0)]

    def test_three_pods(self):
        paths = table_paths(3)
        assert paths[(0, 1)] == [Path(0, 1), Path(0, 1, 2)]
        assert all(len(v) == 2 for v in paths.values())

    def test_eight_pods_count(self):
        paths = table_paths(8)
        assert len(paths) == 56
        assert all(len(v) == 7 for v in paths.values())
        assert sum(len(v) for v in paths.values()) == 392

    def test_order_direct_first_then_ascending(self):
        paths = table_paths(5)[(3, 1)]
        assert paths[0] == Path(3, 1)
        assert [p.via for p in paths[1:]] == [0, 2, 4]

    def test_rejects_single_pod(self):
        with pytest.raises(InvalidInputError):
            table_paths(1)

    @given(st.integers(min_value=2, max_value=7), st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_closed_under_relabeling(self, n, rnd):
        perm = list(range(n))
        rnd.shuffle(perm)
        base = table_paths(n)
        relabeled = {
            (perm[i], perm[j]): {
                Path(perm[p.src], perm[p.dst],
                     None if p.via is None else perm[p.via])
                for p in ps}
            for (i, j), ps in base.items()}
        assert relabeled == {k: set(v) for k, v in base.items()}

    @given(st.integers(min_value=2, max_value=30))
    def test_path_count_formula(self, n):
        paths = table_paths(n)
        assert all(len(v) == n - 1 for v in paths.values())

    @pytest.mark.parametrize("n", range(2, 10))
    def test_tables_agree_with_the_loop(self, n):
        t = _tables(n)
        want = enumerate_paths(n)
        assert t.pairs == tuple(want)
        assert t.paths == tuple(p for ps in want.values() for p in ps)
        assert [t.pairs[q] for q in t.path_pair] == [(p.src, p.dst)
                                                     for p in t.paths]
        hops = [(k, ab) for k, p in enumerate(t.paths) for ab in p.links()]
        assert t.hop_path.tolist() == [k for k, _ in hops]
        assert [t.pairs[q] for q in t.hop_link] == [ab for _, ab in hops]
        assert [(t.pairs[a], t.pairs[b]) for a, b in t.path_links] == [
            (p.links()[0], p.links()[-1]) for p in t.paths]
        assert [(t.pairs[q], t.paths[k]) for q, k in zip(
            t.cross_link, t.cross_path)] == [
            (ab, p) for ab, ps in crossing_paths(n).items() for p in ps]


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

    def test_lists_violations_switch_by_switch(self):
        # Switch by switch, pod by pod, egress before ingress: the order a
        # loop over the (M, N) port budgets gives.
        rng = np.random.default_rng(5)
        for _ in range(300):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            eg = rng.integers(0, 4, (m, n))
            phys = PhysicalTopology(n, m, eg, rng.permuted(eg, axis=1))
            x = rng.integers(0, 3, (m, n, n))
            x[:, np.arange(n), np.arange(n)] = 0
            want = []
            for sw in range(m):
                for i in range(n):
                    if x[sw, i].sum() > phys.egress_ports[sw, i]:
                        want.append((sw, i, "egress"))
                    if x[sw, :, i].sum() > phys.ingress_ports[sw, i]:
                        want.append((sw, i, "ingress"))
            assert validate(phys, IntegerTopology(x)) == want

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

    @pytest.mark.parametrize("count", [3.7, 2.5, np.nan, np.inf, 1e300])
    def test_fractional_port_count_rejected_not_truncated(self, count):
        with pytest.raises(InvalidInputError, match="port counts"):
            PhysicalTopology(2, 1, np.array([[count, 3.0]]),
                             np.array([[3.0, 3.0]]))

    def test_integral_float_port_counts_accepted(self):
        phys = PhysicalTopology(2, 1, np.array([[3.0, 1.0]]),
                                np.array([[1.0, 3.0]]))
        assert phys.egress_ports.dtype.kind == "i"
        assert phys.egress_radix.tolist() == [3, 1]


class TestIntegerTopology:
    @pytest.mark.parametrize("cell", [1.5, 0.4, np.nan, -np.inf])
    def test_fractional_circuit_count_rejected(self, cell):
        x = np.zeros((1, 3, 3))
        x[0, 0, 1] = cell
        with pytest.raises(InvalidInputError, match="x entries"):
            IntegerTopology(x)

    def test_counts_within_tolerance_rounded(self):
        x = np.zeros((1, 2, 2))
        x[0, 0, 1] = 2.0 + 1e-9
        assert IntegerTopology(x).x.tolist() == [[[0, 2], [0, 0]]]

    @pytest.mark.parametrize("switch", [0, 1])
    def test_circuit_from_a_pod_to_itself_rejected(self, switch):
        # Pod 1 has spare ports on both switches, so only the diagonal is
        # wrong here.
        phys = PhysicalTopology(3, 2, np.full((2, 3), 2), np.full((2, 3), 2))
        x = np.zeros((2, 3, 3), dtype=int)
        x[:, 0, 2] = 1
        x[switch, 1, 1] = 1
        with pytest.raises(InvalidInputError, match="diagonal"):
            validate(phys, IntegerTopology(x))


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

    @pytest.mark.parametrize("window", [0.0, -1.0, np.nan, np.inf])
    def test_window_not_positive_and_finite_rejected(self, window):
        with pytest.raises(InvalidInputError, match="aggregation window"):
            TmSequence((TrafficMatrix(np.zeros((2, 2))),),
                       aggregation_window=window)


@pytest.mark.parametrize("top, want", [
    (1.0, 1.0), (1.5, 1.0), (2.0, 2.0), (3.9, 2.0), (0.7, 0.5),
    (2.0 ** -1030, 2.0 ** -1030), (1e300, 2.0 ** 996), (0.0, 1.0)])
def test_demand_scale_is_the_power_of_two_at_or_below_the_top(top, want):
    demand = np.zeros((2, 3, 3))
    demand[1, 0, 2] = top
    assert demand_scale(demand) == want


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
    def test_of_places_each_weight_in_column_order_read_only(self):
        n = 5
        rng = np.random.default_rng(0)
        weights = {p: float(rng.random())
                   for paths in enumerate_paths(n).values() for p in paths}
        weights[Path(2, 3, 4)] = 0.0
        omega = RoutingWeights.of(weights, n)
        assert omega.omega.tolist() == [weights[p]
                                        for p in _tables(n).paths]
        # The view holds the positive weights, in path order.
        assert list(omega.weights.items()) == [
            (p, w) for p, w in weights.items() if w > 0]
        with pytest.raises(ValueError):
            omega.omega[0] = 0.5
        with pytest.raises(TypeError):
            omega.weights[Path(0, 1)] = 0.5
        # The caller's array is copied, so changing it changes no weight.
        raw = np.array(omega.omega)
        copy = RoutingWeights(n, raw)
        raw[0] = 0.5
        assert copy.omega.tobytes() == omega.omega.tobytes()
        assert RoutingWeights.of(omega.weights, n).omega.tobytes() \
            == omega.omega.tobytes()

    @pytest.mark.parametrize("bad", [
        lambda: RoutingWeights(3, np.ones(5)),
        lambda: RoutingWeights(1, np.ones(0)),
        lambda: RoutingWeights.of({Path(0, 3): 1.0}, 3),
        lambda: RoutingWeights.of({Path(0, 1, -1): 1.0}, 3)])
    def test_rejects_a_routing_of_another_size(self, bad):
        with pytest.raises((InvalidInputError, KeyError)):
            bad()
