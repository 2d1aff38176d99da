"""Command-line entry point, file formats, and plot-data emission.

All files are UTF-8 JSON.  Traffic sequences and per-matrix metrics are
JSON Lines (one object per line) so long traces stream; everything else
is a single versioned object.  A critical-set file is ``{"version",
"matrices"}``, one N x N list per critical matrix.  A plan file holds
its routing as an ``omega`` list of ``{"src", "dst", "via", "w"}``, one
entry per path of positive weight in ``model._tables`` order.  A
solution file's ``mu`` must be a positive finite JSON number, not a
bool, and its ``beta`` null (the plan was not desensitized) or such a
number.  Every count in a file must be an integer (pod and switch counts
JSON integers; port and circuit counts within ``model.TOL`` of one), and
each ordered pair's weights must sum to 1 within ``model.TOL``.  The
readers ignore keys outside these formats, such as the ``k``, ``seed``
and ``assignment`` that older critical-set files hold.  A fabric's
``bandwidth_gbps`` may be in any unit, provided every demand is in the
same one.  Exit codes: 0 success, 1 validation error, 2 infeasibility, 3
the LP solver hit an iteration or numerical limit, 4 internal error (an
LP ended in a state its stage rules out, such as no sensitivity bound
below the cap), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import evaluate, optimize, round as rounding, traffic
from .errors import (InfeasibleRoutingError, InternalError,
                     InvalidInputError, SolverLimitError,
                     UnboundedThroughputError)
from .evaluate import ReconfigPolicy
from .model import (TOL, FractionalTopology, IntegerTopology, Path,
                    PhysicalTopology, RoutingWeights, TmSequence,
                    TrafficMatrix, _tables, validate)
from .traffic import CriticalSet

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER_LIMIT = 3
EXIT_INTERNAL = 4
EXIT_USAGE = 64

VERSION = 1


# ---------------------------------------------------------------------------
# File formats


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_json(path: str, objs):
    """The file ``path`` as ``objs``, one compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(_dump(obj) + "\n")


def _load_json(path: str):
    """The JSON value in the file ``path``; a file that is not UTF-8 JSON,
    or holds an integer past Python's 4,300-digit conversion limit,
    raises ``InvalidInputError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise InvalidInputError(f"{path}: not UTF-8 JSON ({exc})")


def _read_object(path: str, parse):
    """``parse`` applied to the version-``VERSION`` JSON object in ``path``.

    A wrong or missing version and a missing or malformed field all raise
    ``InvalidInputError``, never a bare ``KeyError``.
    """
    obj = _load_json(path)
    version = obj.get("version") if isinstance(obj, dict) else None
    if version != VERSION:
        raise InvalidInputError(f"{path}: version {version!r}, expected"
                                f" {VERSION}")
    try:
        return parse(obj)
    except KeyError as exc:
        raise InvalidInputError(f"{path}: missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: malformed field ({exc})")


def write_tm_sequence(path: str, seq: TmSequence):
    _write_json(path, ({"t": float(time), "tm": t.demand.tolist()}
                       for time, t in zip(seq.times(), seq)))


def read_tm_sequence(path: str) -> TmSequence:
    """The sequence in a JSONL file of ``{"tm": [[...]], "t": ...}`` lines.

    A malformed line raises ``InvalidInputError`` naming the path and line.
    ``TmSequence``'s rules hold across a sequence when they hold for each
    pair of neighbours, so each line is checked against the one before.
    """
    mats = []
    # Bytes, so that a line that is not UTF-8 fails in json.loads, on its
    # line number, as a ValueError.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
                t = TrafficMatrix(np.array(obj["tm"], dtype=float),
                                  timestamp=obj.get("t"))
                TmSequence((*mats[-1:], t))
            except KeyError:
                raise InvalidInputError(f"{path}:{lineno}: missing 'tm'")
            except (TypeError, ValueError, InvalidInputError) as exc:
                raise InvalidInputError(f"{path}:{lineno}: malformed line"
                                        f" ({exc})")
            mats.append(t)
    if not mats:
        raise InvalidInputError(f"{path}: empty sequence")
    times = [t.timestamp for t in mats if t.timestamp is not None]
    window = float(np.diff(times).min()) if len(times) > 1 else 1.0
    return TmSequence(tuple(mats), aggregation_window=window)


def read_physical_topology(path: str) -> PhysicalTopology:
    def parse(obj):
        if not all(type(obj[k]) is int for k in ("num_pods", "num_ocs")):
            raise ValueError("num_pods and num_ocs must be integers")
        return PhysicalTopology(obj["num_pods"], obj["num_ocs"],
                                obj["h_eg"], obj["h_ig"],
                                _positive(obj.get("bandwidth_gbps", 1.0),
                                          "link bandwidth"))
    return _read_object(path, parse)


def write_critical_set(path: str, crit: CriticalSet):
    _write_json(path, [{"version": VERSION,
                        "matrices": [t.demand.tolist() for t in crit]}])


def read_critical_set(path: str) -> CriticalSet:
    def parse(obj):
        return CriticalSet(tuple(TrafficMatrix(np.array(m, dtype=float))
                                 for m in obj["matrices"]))
    return _read_object(path, parse)


def _plan_json(sol: optimize.FractionalSolution) -> dict:
    """mu, beta and the weights of a plan, as both plan files hold them."""
    return {"mu": sol.mu, "beta": sol.beta,
            "omega": [{"src": p.src, "dst": p.dst, "via": p.via, "w": w}
                      for p, w in sol.omega.weights.items()]}


def _omega_parse(entries, num_pods: int) -> RoutingWeights:
    """The weights in a plan file's ``omega`` list over ``num_pods`` pods.

    Pod ids must be integers in [0, num_pods), each ``w`` a number in
    [0, 1] (above 1 by at most ``TOL``, an LP vertex's float noise), each
    path listed once, and each ordered pair's weights must sum to 1 within
    ``TOL``; anything else raises ``ValueError``.
    """
    weights = {}
    for e in entries:
        path, w = Path(e["src"], e["dst"], e.get("via")), e["w"]
        if not all(type(v) is int and 0 <= v < num_pods
                   for link in path.links() for v in link):
            raise ValueError(f"omega entry {_dump(e)}: pod ids must be"
                             f" integers in [0, {num_pods})")
        if type(w) not in (int, float) or not 0 <= w <= 1 + TOL:
            raise ValueError(f"omega entry {_dump(e)}: w must be a number"
                             " in [0, 1]")
        if path in weights:
            raise ValueError(f"omega entry {_dump(e)}: path listed twice")
        weights[path] = float(w)
    omega = RoutingWeights.of(weights, num_pods)
    t = _tables(num_pods)
    sums = np.bincount(t.path_pair, omega.omega, len(t.pairs))
    bad = np.flatnonzero(np.abs(sums - 1.0) > TOL)
    if len(bad):
        raise ValueError(f"omega of pair {t.pairs[bad[0]]} sums to"
                         f" {sums[bad[0]]:.9g}, not 1")
    return omega


def write_solution(path: str, sol: optimize.FractionalSolution):
    _write_json(path, [{"version": VERSION, "d": sol.d.d.tolist(),
                        **_plan_json(sol)}])


def _positive(value, name: str) -> float:
    """``value`` as a float if it is a positive finite JSON number, else
    ValueError; an integer beyond the float range is not finite."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        number = math.inf
    if not 0 < number < math.inf:
        raise ValueError(f"{name} must be a positive finite number, not"
                         f" {_dump(value)}")
    return number


def read_solution(path: str) -> optimize.FractionalSolution:
    def parse(obj):
        d = FractionalTopology(np.array(obj["d"], dtype=float))
        beta = obj.get("beta")
        return optimize.FractionalSolution(
            d, _omega_parse(obj["omega"], d.num_pods),
            _positive(obj["mu"], "mu"),
            None if beta is None else _positive(beta, "beta"))
    return _read_object(path, parse)


def write_integer_topology(path: str, topo: IntegerTopology,
                           routed: optimize.FractionalSolution = None):
    """X, and beside it the mu, beta and weights of ``routed``, the plan
    ``optimize.recompute_routing`` made on X, if given."""
    plan = {} if routed is None else _plan_json(routed)
    _write_json(path, [{"version": VERSION, "x": topo.x.tolist(), **plan}])


def read_integer_topology(path: str) -> tuple:
    """(X, the weights ``round`` recomputed on X) of a topology file; the
    weights are None when the file holds none."""
    def parse(obj):
        topo = IntegerTopology(obj["x"])
        if "omega" not in obj:
            return topo, None
        return topo, _omega_parse(obj["omega"], topo.num_pods)
    return _read_object(path, parse)


def write_plot_series(path: str, xs, ys):
    """Two-column text, one (x, y) pair per line, for any plotting tool."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x:.10g} {y:.10g}\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_extract(args) -> int:
    seq = read_tm_sequence(args.tm_file)
    crit = traffic.extract_critical(seq, args.k, args.seed)
    write_critical_set(args.out, crit)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    phys = read_physical_topology(args.phys_file)
    crit = read_critical_set(args.crit_file)
    sol = optimize.run_pipeline(phys, crit,
                                desensitized=not args.no_desensitize)
    write_solution(args.out, sol)
    return EXIT_OK


def _cmd_round(args) -> int:
    phys = read_physical_topology(args.phys_file)
    sol = read_solution(args.solution_file)
    crit = read_critical_set(args.crit_file) if args.crit_file else None
    report = rounding.ldm_round(phys, sol.d, args.ldm_iterations)
    routed = None
    if crit is not None:  # desensitized when the fractional plan was
        routed = optimize.recompute_routing(
            phys, report.topo, crit, desensitized=sol.beta is not None)
    write_integer_topology(args.out, report.topo, routed)
    print(_dump({"goodness": report.goodness,
                 "violation_ratio": report.violation_ratio,
                 "iterations_run": report.iterations_run}))
    return EXIT_OK


def _finite(mlu: float):
    """``mlu`` for a metric line: JSON has no Infinity, so null marks an
    infinite MLU."""
    return None if math.isinf(mlu) else mlu


def _mesh_record(phys: PhysicalTopology, mesh: IntegerTopology,
                 t: TrafficMatrix) -> evaluate.EvalRecord:
    """t on the uniform mesh, routed by the MLU-optimal weights with the
    fewest hops, so its AHC is a property of the mesh and t.  An all-zero
    t goes direct; an unroutable one has an infinite MLU."""
    try:
        omega = optimize.recompute_routing(phys, mesh, CriticalSet((t,)),
                                           desensitized=False).omega
    except UnboundedThroughputError:
        omega = evaluate.direct_only_weights(mesh)
    except InfeasibleRoutingError:
        return evaluate.EvalRecord(math.inf, 2.0, 0.0)
    return evaluate.evaluate_static(mesh, omega, t, phys.link_bandwidth)


def _cmd_evaluate(args) -> int:
    phys = read_physical_topology(args.phys_file)
    seq = read_tm_sequence(args.tm_file)
    b = phys.link_bandwidth

    if args.baseline in ("none", "direct"):
        path = args.topology_file
        if not path:
            raise InvalidInputError(f"baseline {args.baseline} needs"
                                    " --topology")
        topo, omega = read_integer_topology(path)
        try:
            over = validate(phys, topo)
        except InvalidInputError as exc:  # switch or pod count differs
            raise InvalidInputError(f"{path}: {exc}")
        if over:
            raise InvalidInputError(f"{path}: circuits exceed the port"
                                    f" budget of (switch, pod, side)"
                                    f" {over[0]}")
    extra = {}
    if args.baseline == "none":
        if omega is None:
            raise InvalidInputError(f"{path}: no routing weights; run round"
                                    " with the critical-set file")
        sen = evaluate.sensitivity_map(topo, omega, b)
        extra = {"max_sensitivity":
                 float(sen[np.isfinite(sen)].max(initial=0.0))}
    elif args.baseline == "direct":
        omega = evaluate.direct_only_weights(topo)
    elif args.baseline == "vlb":
        topo = evaluate.uniform_mesh(phys)
        omega = evaluate.vlb_weights(topo)

    if args.baseline == "mesh":
        mesh = evaluate.uniform_mesh(phys)
        records = [_mesh_record(phys, mesh, t) for t in seq]
    elif args.baseline == "fattree":
        records = [evaluate.fat_tree_eval(t, phys.egress_radix, b,
                                          args.oversub) for t in seq]
    elif args.baseline == "ideal":
        records = [evaluate.EvalRecord(evaluate.ideal_toe_mlu(phys, t), 1.0,
                                       1.0) for t in seq]
    else:  # none, direct and vlb: fixed weights on a fixed topology
        records = [evaluate.evaluate_static(topo, omega, t, b) for t in seq]

    _write_json(args.out, ({"index": idx, "t": seq[idx].timestamp,
                            "mlu": _finite(rec.mlu), "ahc": rec.ahc,
                            "direct_fraction": rec.direct_fraction,
                            "feasible": rec.feasible, **extra}
                           for idx, rec in enumerate(records)))

    mlus = np.array([rec.mlu for rec in records])
    finite = mlus[np.isfinite(mlus)]
    if len(finite):
        xs = np.sort(finite)
        ccdf = 1.0 - np.arange(1, len(xs) + 1) / len(xs)
        write_plot_series(args.out + ".mlu_ccdf.txt", xs, ccdf)
    ahcs = np.sort([rec.ahc for rec in records])
    pct = np.arange(1, len(ahcs) + 1) / len(ahcs) * 100.0
    write_plot_series(args.out + ".ahc_pct.txt", pct, ahcs)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    phys = read_physical_topology(args.phys_file)
    seq = read_tm_sequence(args.tm_file)
    policy = ReconfigPolicy(frequency=args.frequency,
                            stage_latency=args.stage_latency,
                            alpha_pred=args.alpha_pred,
                            lookback=args.lookback, k=args.k)
    points, epochs = evaluate.simulate_reconfig(
        phys, seq, policy, seed=args.seed, tau_max=args.ldm_iterations)
    _write_json(args.out, [
        *({"event": "reconfig", "t": ep.time,
           "changed_fraction": ep.changed_fraction, "stages": ep.stages,
           "mu": ep.mu, "beta": ep.beta, "error": ep.error} for ep in epochs),
        *({"t": pt.time, "mlu": _finite(pt.record.mlu), "ahc": pt.record.ahc,
           "epoch": pt.epoch, "stage": pt.stage,
           "feasible": pt.record.feasible} for pt in points)])
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.mode == "storage":
        if args.pods is None or args.count is None:
            raise InvalidInputError("storage mode needs --pods and --count")
        seq = traffic.gen_storage_tms(args.pods, args.count, args.seed,
                                      (args.demand_min, args.demand_max))
        write_tm_sequence(args.out, seq)
    else:  # burst
        if not args.tm_file:
            raise InvalidInputError("burst mode needs --tm-file")
        seq = read_tm_sequence(args.tm_file)
        bursts = traffic.gen_burst_tms(seq, args.burst_factor,
                                       args.max_burst_pairs)
        _write_json(args.out, ({"t": float(idx), "tm": t.demand.tolist(),
                                "burst_set": [list(p) for p in burst_set]}
                               for idx, (burst_set, t) in enumerate(bursts)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="couder",
                     description="Robust topology engineering for "
                                 "optical-circuit-switched fabrics")
    parser.add_argument("--k", type=int, default=5,
                        help="critical matrix count")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--lookback", type=float, default=3600.0,
                        help="history window in seconds")
    parser.add_argument("--ldm-iterations", type=int, default=50,
                        dest="ldm_iterations",
                        help="at most this many dual iterations of LDM"
                             " rounding; 0 rounds greedily, largest"
                             " residual first")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="cluster a sequence into criticals")
    p.add_argument("tm_file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("optimize", help="fractional topology + routing")
    p.add_argument("phys_file")
    p.add_argument("crit_file")
    p.add_argument("--out", required=True)
    p.add_argument("--no-desensitize", action="store_true")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("round", help="round onto the switch bank")
    p.add_argument("phys_file")
    p.add_argument("solution_file")
    p.add_argument("crit_file", nargs="?",
                   help="critical set: recompute routing on the rounded"
                        " topology and write it beside X")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("evaluate", help="fluid-model metrics per matrix")
    p.add_argument("phys_file")
    p.add_argument("tm_file")
    p.add_argument("--topology", dest="topology_file",
                   help="integer topology (baselines none/direct); none"
                        " needs the routing round wrote beside X")
    p.add_argument("--baseline", default="none",
                   choices=["none", "mesh", "vlb", "fattree", "direct",
                            "ideal"],
                   help="ideal is the per-matrix topology+routing floor,"
                        " the hose bound max(row sum / (b r_eg), column"
                        " sum / (b r_ig)) over pods")
    p.add_argument("--oversub", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="staged-reconfiguration time series")
    p.add_argument("phys_file")
    p.add_argument("tm_file")
    p.add_argument("--frequency", type=float, required=True)
    p.add_argument("--stage-latency", type=float, default=0.0,
                   dest="stage_latency")
    p.add_argument("--alpha-pred", type=float, default=0.8,
                   dest="alpha_pred")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("synth", help="synthesize traffic sequences")
    p.add_argument("--mode", choices=["storage", "burst"], required=True)
    p.add_argument("--pods", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--demand-min", type=float, default=1.0)
    p.add_argument("--demand-max", type=float, default=100.0)
    p.add_argument("--tm-file")
    p.add_argument("--burst-factor", type=float, default=1.0)
    p.add_argument("--max-burst-pairs", type=int, default=2,
                   choices=[1, 2])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators take no negative seed
            raise InvalidInputError(f"seed must be non-negative, not"
                                    f" {args.seed}")
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"couder: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleRoutingError, UnboundedThroughputError) as exc:
        print(f"couder: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverLimitError as exc:
        print(f"couder: solver limit: {exc}", file=sys.stderr)
        return EXIT_SOLVER_LIMIT
    except InternalError as exc:
        print(f"couder: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
