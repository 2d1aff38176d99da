"""An epoch that cannot be re-routed keeps the installed topology."""

import json

import numpy as np
import pytest

from couder import cli, optimize
from couder.errors import InfeasibleRoutingError
from couder.evaluate import ReconfigPolicy, evaluate_static, simulate_reconfig
from couder.model import TmSequence, TrafficMatrix
from helpers import make_fabric, random_tm, write_physical_topology

MESSAGE = "no usable path for demanded pair (1, 0)"


def jittered_sequence(n=4, count=24, seed=0):
    rng = np.random.default_rng(seed)
    base = random_tm(rng, n, 5.0).demand
    mats = []
    for i in range(count):
        t = base * rng.uniform(0.8, 1.2, base.shape)
        np.fill_diagonal(t, 0.0)
        mats.append(TrafficMatrix(t, timestamp=float(i)))
    return TmSequence(tuple(mats), aggregation_window=1.0)


def fail_recompute_on_call(monkeypatch, fail_at):
    """Make the ``fail_at``-th routing recompute raise; record the others."""
    real = optimize.recompute_routing
    calls = []

    def flaky(phys, topo, crit, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise InfeasibleRoutingError(MESSAGE)
        routed = real(phys, topo, crit, **kwargs)
        calls[-1] = (topo, routed)
        return routed

    monkeypatch.setattr(optimize, "recompute_routing", flaky)
    return calls


POLICY = ReconfigPolicy(frequency=8.0, stage_latency=1.0, alpha_pred=0.8,
                        lookback=5.0, k=1)


class TestEpochFallback:
    def test_failed_epoch_keeps_installed_topology(self, monkeypatch):
        phys = make_fabric(4, 2, 4)
        seq = jittered_sequence()
        calls = fail_recompute_on_call(monkeypatch, fail_at=2)
        points, epochs = simulate_reconfig(phys, seq, POLICY, seed=1)
        assert [ep.time for ep in epochs] == [5.0, 13.0, 21.0]
        first, failed, later = epochs
        assert first.error is None and later.error is None
        assert failed.error == MESSAGE
        assert failed.changed_fraction == 0.0 and failed.stages == 0
        assert (failed.mu, failed.beta) == (first.mu, first.beta)
        # Every matrix up to the next epoch still runs on the first install.
        topo, routed = calls[0]
        kept = [p for p in points if p.time < later.time]
        assert [p.time for p in kept] == [float(t) for t in range(5, 21)]
        for p in kept:
            assert p.epoch == 0 and p.stage is None
            expect = evaluate_static(topo.X.astype(float), routed.omega,
                                     seq[int(p.time)], phys.link_bandwidth)
            assert p.record.mlu == expect.mlu
        assert points[-1].time == 23.0

    def test_failed_first_epoch_raises(self, monkeypatch):
        phys = make_fabric(4, 2, 4)
        fail_recompute_on_call(monkeypatch, fail_at=1)
        with pytest.raises(InfeasibleRoutingError, match=r"\(1, 0\)"):
            simulate_reconfig(phys, jittered_sequence(), POLICY, seed=1)

    def test_cli_reports_the_failed_epoch(self, monkeypatch, tmp_path):
        physfile = tmp_path / "phys.json"
        write_physical_topology(str(physfile), make_fabric(4, 2, 4))
        seqfile = tmp_path / "seq.jsonl"
        cli.write_tm_sequence(str(seqfile), jittered_sequence())
        fail_recompute_on_call(monkeypatch, fail_at=2)
        out = tmp_path / "sim.jsonl"
        rc = cli.main(["--k", "1", "--lookback", "5", "simulate",
                       str(physfile), str(seqfile), "--frequency", "8",
                       "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        reconfig = [l for l in lines if l.get("event") == "reconfig"]
        assert [l["error"] for l in reconfig] == [None, MESSAGE, None]
