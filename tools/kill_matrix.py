"""Kill matrix: which Tier-1 tests fail under each seeded mutant of src/.

Each mutant is one exact-string replacement in one file of ``src/couder``,
and the old string must occur there exactly once.  For each mutant the
runner copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml``
into a fresh directory, applies the replacement, runs Tier-1 there with
``--tb=no -rfE`` and a time limit per test, and takes the FAILED and
ERROR ids as the mutant's kills.  An unmutated copy runs first; a test
that fails there is no kill of any mutant.  The matrix is written as
JSON: per mutant its file and the ids it kills.

    python tools/kill_matrix.py --check
    python tools/kill_matrix.py --out matrix.json [--only a,b]
    python tools/kill_matrix.py --compare parent.json change.json

``--check`` only confirms that every old string occurs once.  At most
``JOBS`` copies run at a time.  Tier-1 runs ``tests/`` alone (``testpaths`` in
pyproject.toml), so this script is no part of it.  ``mutmut`` is not a
dependency of the project; the table below is the fixed mutant list.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: What a copy holds; everything the Tier-1 run reads.
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
#: Seconds one test may run before it counts as failed.
TEST_LIMIT = 60
#: Seconds a whole Tier-1 run of one copy may take: the per-test alarm
#: cannot stop a test inside one HiGHS call, which holds the interpreter.
RUN_LIMIT = 1800
#: Copies that run Tier-1 at a time.
JOBS = 2

# (name, file under src/couder, old string, new string).
MUTANTS = [
    # round.py
    ("fill-tiebreak", "round.py",
     "k = np.argmax(residual[i, j])",
     "k = len(i) - 1 - np.argmax(residual[i, j][::-1])"),
    ("skip-repair", "round.py",
     "for floor in (True, False):", "for floor in ():"),
    ("eps-zero", "round.py",
     "eps = min(1e-9, float(steps[steps > 0].min(initial=np.inf)) / 4)",
     "eps = 0.0"),
    ("step-const", "round.py", "step = 1.0 / tau", "step = 1.0"),
    ("ceil-off", "round.py",
     "c_plus = np.ceil(d - _SNAP)", "c_plus = np.ceil(d + _SNAP)"),
    ("moves-order", "round.py",
     "for s in np.argsort(r[src, dst], kind=\"stable\"):",
     "for s in np.argsort(-r[src, dst], kind=\"stable\"):"),
    ("price-sign", "round.py",
     "p_plus = np.maximum(p_plus - step * (hi - totals), 0.0)",
     "p_plus = np.maximum(p_plus + step * (hi - totals), 0.0)"),
    ("band-runs", "round.py",
     "runs = int(min(band.max() - band[band < band.max()].max(),",
     "runs = int(min(band.max() - band[band < band.max()].max() + 1,"),
    ("trim-order", "round.py",
     "before = np.cumsum(x, axis=0) - x",
     "before = np.cumsum(x[::-1], axis=0)[::-1] - x"),
    ("strand-2hop", "round.py",
     "stranded = linked + linked @ linked == 0", "stranded = linked == 0"),
    ("floor-off", "round.py",
     "c_minus = np.floor(d + _SNAP)", "c_minus = np.floor(d - _SNAP)"),
    ("goodness-lt", "round.py",
     "(lo <= totals) & (totals <= hi)", "(lo <= totals) & (totals < hi)"),
    # optimize.py
    ("caps-max", "optimize.py",
     "least = self.capacity[self.tables.path_links[usable]].min(axis=1)",
     "least = self.capacity[self.tables.path_links[usable]].max(axis=1)"),
    ("beta-lo", "optimize.py",
     "return max(gamma / F, beta_lo), F, sol", "return gamma / F, F, sol"),
    ("no-lift", "optimize.py",
     "if beta is not None:\n                hop = ",
     "if False:\n                hop = "),
    ("mu-slack", "optimize.py",
     "builder.solution(best.x, F * (1.0 - MU_SLACK), beta)",
     "builder.solution(best.x, F * (1.0 + MU_SLACK), beta)"),
    ("z-bound", "optimize.py",
     "z = model.add_vars(1, 0.0, mu_star * least_total)[0]",
     "z = model.add_vars(1, 0.0, None)[0]"),
    ("newton-probe", "optimize.py",
     "probe = F >= target and newton", "probe = False"),
    ("load-rows-drop", "optimize.py",
     "k, c = np.nonzero((demand > 0) & ~implied[:, link])",
     "k, c = np.nonzero((demand > 0.01) & ~implied[:, link])"),
    ("implied-ties", "optimize.py",
     "earlier = np.arange(K)[:, None] < np.arange(K)",
     "earlier = np.arange(K)[:, None] != np.arange(K)"),
    ("implied-flip", "optimize.py",
     "(row < demand).ravel()", "(row > demand).ravel()"),
    ("implied-off", "optimize.py",
     "K * num_links) == 0", "K * num_links) < 0"),
    ("implied-later", "optimize.py",
     "covers & (~covers.transpose(1, 0, 2)", "covers & (~covers"),
    ("repeat-keep", "optimize.py",
     "flat.any(axis=1) & ~repeat.any(axis=0)", "flat.any(axis=1)"),
    ("no-load-lift", "optimize.py",
     "omega.loads(self.demand, mu).max(axis=0))", "0.0)"),
    ("direct-le", "optimize.py",
     "lp.GE, np.zeros(len(demand)))", "lp.LE, np.zeros(len(demand)))"),
    ("usable-any", "optimize.py",
     "usable = (room[t.path_links] > 0).all(axis=1)",
     "usable = (room[t.path_links] > 0).any(axis=1)"),
    ("split-ge", "optimize.py",
     "lp.EQ, np.zeros(num_rows))", "lp.GE, np.zeros(num_rows))"),
    ("radix-max", "optimize.py",
     "radix = int(min(builder.phys.egress_radix",
     "radix = int(max(builder.phys.egress_radix"),
    ("chain-warm", "optimize.py", "model.set_basis(None)\n    ", ""),
    # evaluate.py
    ("sens-add", "evaluate.py",
     "np.maximum.at(sen, ", "np.add.at(sen, "),
    ("shares-rem", "evaluate.py",
     "np.minimum(s, after[-1] % stages)",
     "np.maximum(s - stages + after[-1] % stages, 0)"),
    ("fill-level", "evaluate.py",
     "np.flatnonzero(headroom >= level)", "np.flatnonzero(headroom > level)"),
    ("mesh-rem", "evaluate.py",
     "(1 if idx < rem else 0)", "(1 if idx <= rem else 0)"),
    ("vlb-max", "evaluate.py",
     "hop_cap.min(axis=1))", "hop_cap.max(axis=1))"),
    ("dead-free", "evaluate.py",
     "dead = ((cap <= 0) & (load > 0)).any()", "dead = False"),
    ("ahc-hops", "evaluate.py",
     "ahc = 1.0 + (1.0 - direct_fraction)",
     "ahc = 1.0 + (1.0 - direct_fraction) / 2"),
    ("restrict-any", "evaluate.py",
     "live = (cap[t.pair_src, t.pair_dst][t.path_links] > 0).all(axis=1)",
     "live = (cap[t.pair_src, t.pair_dst][t.path_links] > 0).any(axis=1)"),
    ("stages-floor", "evaluate.py",
     "return max(1, math.ceil(p / (1.0 - alpha_pred) - 1e-9))",
     "return max(1, math.floor(p / (1.0 - alpha_pred) - 1e-9))"),
    # lp.py
    ("pad-rows", "lp.py",
     "[_BASIC] * (A.shape[0] - rows))", "[_BASIC] * (A.shape[0] - rows - 1))"),
    ("max-sign", "lp.py",
     "res.slope = -res.slope", "res.slope = res.slope"),
    ("eq-upper", "lp.py",
     "_BOUND_ROWS = {LE: [1], EQ: [0, 1], GE: [0]}",
     "_BOUND_ROWS = {LE: [1], EQ: [1], GE: [0]}"),
    ("scaled-keep", "lp.py",
     "keep = (fixed != 0.0) | (scaled != 0.0)", "keep = fixed != 0.0"),
    ("pad-upper", "lp.py",
     "return [status.kLower if lb > -np.inf else status.kUpper",
     "return [status.kUpper if lb > -np.inf else status.kLower"),
    ("rhs-first", "lp.py",
     "for other in self._blocks[:block])",
     "for other in self._blocks[:block + 1])"),
    ("cold-pricing", "lp.py",
     "simplex_dual_edge_weight_strategy=0)",
     "simplex_dual_edge_weight_strategy=-1)"),
    # traffic.py
    ("kmeans-max", "traffic.py",
     "centroids[c] = points[new_labels == c].mean(axis=0)",
     "centroids[c] = points[new_labels == c].max(axis=0)"),
    ("reseed-near", "traffic.py",
     "stolen = max(candidates, key=lambda i: (own[i], -i))",
     "stolen = min(candidates, key=lambda i: (own[i], -i))"),
    ("storage-swap", "traffic.py",
     "write = rng.uniform(lo, hi)\n            read = rng.uniform(lo, hi)",
     "read = rng.uniform(lo, hi)\n            write = rng.uniform(lo, hi)"),
    ("lambda-sum", "traffic.py",
     "np.ones(K), lp.LE, [1.0])", "np.ones(K), lp.LE, [2.0])"),
    ("rhs-offset", "traffic.py",
     "model.set_rhs(block, demand)", "model.set_rhs(block, demand - 1e-3)"),
    ("crit-mean", "traffic.py",
     "TrafficMatrix(members.max(axis=0))",
     "TrafficMatrix(members.mean(axis=0))"),
    # model.py
    ("scale-exp", "model.py",
     "math.frexp(top)[1] - 1)", "math.frexp(top)[1])"),
    ("validate-axis", "model.py",
     "topo.x.sum(axis=2) > phys.egress_ports",
     "topo.x.sum(axis=1) > phys.egress_ports"),
    ("counts-tol", "model.py",
     "(np.abs(whole - a) <= TOL).all()", "(np.abs(whole - a) <= 0.5).all()"),
    ("defer-zero", "model.py",
     "omega[::per][total[::per] <= floor] = 1.0",
     "omega[::per][total[::per] <= floor] = 0.0"),
    ("cross-order", "model.py",
     "cross = np.lexsort((hop_path, hop + ~direct[hop_path], hop_link))",
     "cross = np.lexsort((hop_path, hop_link))"),
    # cli.py
    ("window-max", "cli.py",
     "window = float(np.diff(times).min())",
     "window = float(np.diff(times).max())"),
    ("round-desens", "cli.py",
     "desensitized=sol.beta is not None)", "desensitized=True)"),
    ("ccdf-off", "cli.py",
     "ccdf = 1.0 - np.arange(1, len(xs) + 1) / len(xs)",
     "ccdf = 1.0 - np.arange(0, len(xs)) / len(xs)"),
    ("inf-null", "cli.py",
     "return None if math.isinf(mlu) else mlu", "return mlu"),
    ("w-range", "cli.py",
     "not 0 <= w <= 1 + TOL:", "not 0 <= w <= 2:"),
]


def _source(root: Path, file: str) -> Path:
    return root / "src" / "couder" / file


def check(root: Path) -> list:
    """The problems with the table against the tree at ``root``: a
    repeated name, or an old string that does not occur exactly once."""
    names = [name for name, *_ in MUTANTS]
    problems = [f"{name}: listed twice" for name in set(names)
                if names.count(name) > 1]
    for name, file, old, new in MUTANTS:
        count = _source(root, file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: old string occurs {count} times in"
                            f" {file}")
        elif old == new:
            problems.append(f"{name}: no change")
    return problems


def _copy(root: Path, dest: Path):
    dest.mkdir(parents=True)
    for part in COPIED:
        src = root / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=shutil.ignore_patterns(
                "__pycache__", "results"))
        else:
            shutil.copy2(src, dest / part)


def _failures(output: str) -> list:
    """The ids of the FAILED and ERROR lines of ``-rfE``'s summary."""
    ids = []
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            ids.append(rest.split(" - ")[0].strip())
    return sorted(set(ids))


def run_tier1(copy: Path) -> tuple:
    """(failed ids, seconds) of Tier-1 in ``copy``, each test stopped
    after ``TEST_LIMIT`` seconds by this module's alarm hook."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(copy / "src"), str(Path(__file__).resolve().parent)]),
        KILL_MATRIX_TEST_LIMIT=str(TEST_LIMIT), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
           "--continue-on-collection-errors", "-p", "no:cacheprovider",
           "-p", "kill_matrix"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=RUN_LIMIT)
        output = proc.stdout + proc.stderr
    except subprocess.TimeoutExpired as exc:
        # The output captured so far, always bytes here.
        output = (exc.stdout or b"").decode(errors="replace") \
            + "\nERROR <run> - whole run past its time limit"
    return _failures(output), round(time.monotonic() - start, 1)


def run_mutant(root: Path, work: Path, mutant) -> dict:
    """Tier-1 on a copy of ``root`` with ``mutant`` applied, which
    ``check`` has shown to occur once."""
    name, file, old, new = mutant
    copy = work / name
    _copy(root, copy)
    path = _source(copy, file)
    path.write_text(path.read_text(encoding="utf-8").replace(old, new),
                    encoding="utf-8")
    failed, seconds = run_tier1(copy)
    shutil.rmtree(copy)
    return {"file": file, "failed": failed, "seconds": seconds}


def build_matrix(root: Path, work: Path, mutants: list) -> dict:
    """Run the unmutated copy, then each mutant, at most ``JOBS`` at a
    time; a mutant's kills leave out what fails unmutated."""
    base = work / "unmutated"
    _copy(root, base)
    baseline, seconds = run_tier1(base)
    shutil.rmtree(base)
    print(f"unmutated: {len(baseline)} failed, {seconds} s", flush=True)
    out = {}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = {pool.submit(run_mutant, root, work, m): m[0]
                   for m in mutants}
        for future in concurrent.futures.as_completed(futures):
            name, res = futures[future], future.result()
            kills = sorted(set(res.pop("failed")) - set(baseline))
            out[name] = dict(res, kills=kills)
            print(f"{name}: {len(kills)} killed, {res['seconds']} s",
                  flush=True)
    return {"baseline_failures": baseline,
            "mutants": {m[0]: out[m[0]] for m in mutants}}


def compare(old: dict, new: dict) -> int:
    """Print the mutants killed in ``old`` and not in ``new``, and the kill
    counts on each side; 1 when some mutant was lost."""
    lost = [name for name, m in old["mutants"].items() if m["kills"]
            and not new["mutants"].get(name, {}).get("kills")]
    for side, matrix in (("old", old), ("new", new)):
        mutants = matrix["mutants"]
        print(f"{side}: {len(mutants)} mutants,"
              f" {sum(bool(m['kills']) for m in mutants.values())} killed")
    for name in new["mutants"]:
        if not old["mutants"].get(name, {}).get("kills") \
                and new["mutants"][name]["kills"]:
            print(f"newly killed: {name}")
    for name in lost:
        print(f"LOST: {name}")
    return 1 if lost else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--only", help="comma-separated mutant names")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the tree to mutate (default: this checkout)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        return compare(old, new)
    problems = check(args.root)
    for problem in problems:
        print(problem)
    if args.check or problems:
        print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
        return 1 if problems else 0
    if args.out is None:
        parser.error("--out is required to build the matrix")
    mutants = MUTANTS
    if args.only:
        wanted = set(args.only.split(","))
        mutants = [m for m in MUTANTS if m[0] in wanted]
        if len(mutants) != len(wanted):
            parser.error(f"unknown mutants: {wanted - {m[0] for m in MUTANTS}}")
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as work:
        matrix = build_matrix(args.root, Path(work), mutants)
    args.out.write_text(json.dumps(matrix, indent=1) + "\n")
    return 0


# Loaded into each Tier-1 run with ``-p kill_matrix``: a test still running
# KILL_MATRIX_TEST_LIMIT seconds after its set-up began fails with
# TimeoutError.

def _alarm(signum, frame):
    raise TimeoutError("test past the kill matrix's time limit")


def pytest_runtest_setup(item):
    limit = int(os.environ.get("KILL_MATRIX_TEST_LIMIT", "0"))
    if limit:
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(limit)


def pytest_runtest_teardown(item):
    signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
