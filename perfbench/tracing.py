"""In-memory spans around the public functions of each ``couder`` layer.

The traced run replaces each function below, in the module it is looked
up from at call time, with a wrapper that records one span: name, start,
end, parent, and a few counts.  Spans stay in memory until the run ends.
A layer's self time is its span's duration minus the time its child spans
cover.  The untimed run installs none of this.
"""

from __future__ import annotations

import importlib
import json
import time

#: (span name, module, attribute) for every wrapped call site.
#: ``lp.highs`` is scipy's ``linprog`` as ``couder.lp`` calls it, and
#: ``circulation.solve`` the circulation solver as ``couder.round`` calls it.
WRAPPED = (
    ("lp.solve", "couder.lp", "solve"),
    ("lp.highs", "couder.lp", "linprog"),
    ("optimize.stage1", "couder.optimize", "solve_maxmin_throughput"),
    ("optimize.desensitize", "couder.optimize", "desensitize"),
    ("optimize.stage3", "couder.optimize", "minimize_ahc"),
    ("optimize.recompute", "couder.optimize", "recompute_routing"),
    ("round.ldm", "couder.round", "ldm_round"),
    ("circulation.solve", "couder.round", "solve_circulation"),
    ("traffic.extract", "couder.traffic", "extract_critical"),
    ("traffic.bounded", "couder.traffic", "check_bounded"),
    ("evaluate.static", "couder.evaluate", "evaluate_static"),
    ("evaluate.optimal_routing", "couder.evaluate", "optimal_routing_mlu"),
    ("evaluate.ideal", "couder.evaluate", "ideal_toe_mlu"),
)

#: Per-layer metrics: name -> unit.  Times and counts are per operation.
PER_LAYER = {
    "lp.solves": "count/op", "lp.solve_s": "s/op", "lp.highs_s": "s/op",
    "lp.assembly_s": "s/op", "lp.iterations": "count/op",
    "lp.rows_max": "count", "lp.cols_max": "count", "lp.nnz_max": "count",
    "optimize.stage1_s": "s/op", "optimize.desensitize_s": "s/op",
    "optimize.desensitize_lps": "count/op", "optimize.stage3_s": "s/op",
    "optimize.recompute_s": "s/op", "optimize.build_s": "s/op",
    "round.ldm_s": "s/op", "round.ldm_iterations": "count/op",
    "circulation.solves": "count/op", "circulation.solve_s": "s/op",
    "traffic.extract_s": "s/op", "traffic.bounded_checks": "count/op",
    "traffic.bounded_s": "s/op",
    "evaluate.static_calls": "count/op", "evaluate.static_s": "s/op",
    "evaluate.optimal_routing_s": "s/op", "evaluate.ideal_s": "s/op",
    "trace.ops_per_min": "1/min",
}


def _linprog_info(args, kwargs, res) -> dict:
    rows = nnz = 0
    for key in ("A_ub", "A_eq"):
        a = kwargs.get(key)
        if a is not None:
            rows += a.shape[0]
            nnz += a.nnz
    return {"nit": int(res.nit), "rows": rows, "cols": len(args[0]),
            "nnz": nnz}


def _ldm_info(args, kwargs, res) -> dict:
    return {"iterations": res.iterations_run}


_INFO = {"lp.highs": _linprog_info, "round.ldm": _ldm_info}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the modules."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, info]
        self._stack = []
        self._saved = []

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def install(self):
        for name, module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, original):
        info = _INFO.get(name)

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                res = original(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, res)
            return res

        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics of the recorded spans, per operation, all but
        ``trace.ops_per_min``, which the caller measures."""
        spans = self.spans
        dur = [end - start for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for k, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[k]
        total, count = {}, {}
        for k, (name, *_rest) in enumerate(spans):
            total[name] = total.get(name, 0.0) + dur[k]
            count[name] = count.get(name, 0) + 1

        def under(k, ancestor):
            k = spans[k][3]
            while k >= 0:
                if spans[k][0] == ancestor:
                    return True
                k = spans[k][3]
            return False

        # A call that raised recorded no info.
        highs = [s[4] for s in spans if s[0] == "lp.highs" and s[4]]
        ldm = [s[4] for s in spans if s[0] == "round.ldm" and s[4]]
        raw = {
            "lp.solves": count.get("lp.solve", 0),
            "lp.solve_s": total.get("lp.solve", 0.0),
            "lp.highs_s": total.get("lp.highs", 0.0),
            "lp.assembly_s": total.get("lp.solve", 0.0)
            - total.get("lp.highs", 0.0),
            "lp.iterations": sum(h["nit"] for h in highs),
            "optimize.stage1_s": total.get("optimize.stage1", 0.0),
            "optimize.desensitize_s": total.get("optimize.desensitize", 0.0),
            "optimize.desensitize_lps": sum(
                1 for k, s in enumerate(spans)
                if s[0] == "lp.solve" and under(k, "optimize.desensitize")),
            "optimize.stage3_s": total.get("optimize.stage3", 0.0),
            "optimize.recompute_s": total.get("optimize.recompute", 0.0),
            "optimize.build_s": sum(dur[k] - child[k]
                                    for k, s in enumerate(spans)
                                    if s[0].startswith("optimize.")),
            "round.ldm_s": total.get("round.ldm", 0.0),
            "round.ldm_iterations": sum(r["iterations"] for r in ldm),
            "circulation.solves": count.get("circulation.solve", 0),
            "circulation.solve_s": total.get("circulation.solve", 0.0),
            "traffic.extract_s": total.get("traffic.extract", 0.0),
            "traffic.bounded_checks": count.get("traffic.bounded", 0),
            "traffic.bounded_s": total.get("traffic.bounded", 0.0),
            "evaluate.static_calls": count.get("evaluate.static", 0),
            "evaluate.static_s": total.get("evaluate.static", 0.0),
            "evaluate.optimal_routing_s":
                total.get("evaluate.optimal_routing", 0.0),
            "evaluate.ideal_s": total.get("evaluate.ideal", 0.0),
        }
        out = {name: value / ops for name, value in raw.items()}
        for key in ("rows", "cols", "nnz"):
            out[f"lp.{key}_max"] = max((h[key] for h in highs), default=0)
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False
