"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` wraps module-level functions and methods of `sperner.*`
in every loaded namespace that holds them (`cli` imports `check_sperner`
and `construct_grouped` by name, `bounds` imports `shadow_cmp`, `ip`
imports `partition_ground`), so a call is seen whichever name it goes
through.  A span is (name, start, end, parent span, operation index); a
span's self time is its duration minus the durations of its direct
children.  Hot helpers get a counting wrapper without a span.
"""

from __future__ import annotations

import sys
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_arcs(counts, args, kwargs, result, exc):
    counts["flows.arcs"] += len(_arg(args, kwargs, 1, "arcs"))


def _count_units(counts, args, kwargs, result, exc):
    if result is not None:
        counts["flows.units"] += result


def _count_stages(counts, args, kwargs, result, exc):
    counts["baranyai.stages"] += len(list(_arg(args, kwargs, 0, "points")))


def _count_reject(counts, args, kwargs, result, exc):
    if isinstance(exc, ValueError):
        counts["construction.plan_rejects"] += 1


def _count_detach(counts, args, kwargs, result, exc):
    if result is False:
        counts["construction.realize_failures"] += 1


def _count_realize_error(counts, args, kwargs, result, exc):
    if type(exc).__name__ == "RealizationError":
        counts["construction.realize_failures"] += 1


def _count_lp_shape(counts, args, kwargs, result, exc):
    lp = args[0]
    counts["simplex.rows"] += len(lp.rows)
    counts["simplex.cols"] += lp.n


def _count_classes(counts, args, kwargs, result, exc):
    if result is not None:
        counts["ip.certificate_classes"] += result.p


def _count_parts(counts, args, kwargs, result, exc):
    system = _arg(args, kwargs, 0, "system")
    counts["verify.parts_checked"] += sum(len(parts) for parts in system.partitions)


def _count_keys(counts, args, kwargs, result, exc):
    arr = _arg(args, kwargs, 0, "arr")
    counts["verify.detecting_keys"] += arr.p * arr.k


# (module, attribute or Class.method, span name, hook called after each call);
# a span name of None makes a count-only wrapper whose last field is the
# counter key.
TARGETS = (
    ("sperner.flows", "feasible_circulation", "flows.circulation", _count_arcs),
    ("sperner.flows", "FlowNet.max_flow", "flows.max_flow", _count_units),
    ("sperner.baranyai", "resolve", "baranyai.resolve", None),
    ("sperner.baranyai", "partition_ground", "baranyai.partition_ground", _count_stages),
    ("sperner.baranyai", "allocate_blocks", "baranyai.allocate_blocks", None),
    ("sperner.construction", "plan_grouped", "construction.plan", _count_reject),
    ("sperner.construction", "construct_grouped", "construction.construct_grouped",
     _count_realize_error),
    ("sperner.construction", "_detach_all", "construction.detach_all", _count_detach),
    ("sperner.construction", "_stage_flow", "construction.stage_flow", None),
    ("sperner.construction", "PartitionSystem.to_text", "construction.sps_io", None),
    ("sperner.construction", "PartitionSystem.from_text", "construction.sps_io", None),
    ("sperner.combinat", "shadow_cmp", "combinat.shadow_cmp", None),
    ("sperner.combinat", "binom_frac", None, "combinat.binom_frac_calls"),
    ("sperner.bounds", "_bound_satisfied", None, "bounds.predicate_evals"),
    ("sperner.bounds", "refined_upper", "bounds.refined_upper", None),
    ("sperner.bounds", "best_grouped_lower", "bounds.grouped_lower", None),
    ("sperner.bounds", "scan_exact", "bounds.scan_exact", None),
    ("sperner.bounds", "scan_small_r", "bounds.scan_small_r", None),
    ("sperner.simplex", "LinearProgram.solve", "simplex.solve", _count_lp_shape),
    ("sperner.ip", "build_instance", "ip.build_instance", None),
    ("sperner.ip", "lp_relax", "ip.lp_relax", None),
    ("sperner.ip", "exact_solve", "ip.exact_solve", None),
    ("sperner.ip", "greedy_solve", "ip.greedy", None),
    ("sperner.ip", "closed_form_solve", "ip.closed_form", None),
    ("sperner.ip", "realize_system", "ip.realize", None),
    ("sperner.ip", "_class_profiles", "ip.class_profiles", None),
    ("sperner.ip", "certificate", "ip.certificate", _count_classes),
    ("sperner.verify", "check_sperner", "verify.check_sperner", _count_parts),
    ("sperner.verify", "check_detecting", "verify.check_detecting", _count_keys),
    ("sperner.verify", "check_certificate", "verify.check_certificate", None),
    ("sperner.verify", "check_partition_system", "verify.check_partition", None),
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(int)
        self.op = -1
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def _span_wrapper(self, fn, name, hook):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self.end(idx)
                if hook is not None:
                    hook(self.counts, args, kwargs, result, exc)
        return traced

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        program = [m for name, m in list(sys.modules.items())
                   if name == "sperner" or name.startswith("sperner.")]
        for modname, attr, name, hook in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._span_wrapper(raw.__func__, name, hook))
                else:
                    new = self._span_wrapper(raw, name, hook)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            new = (self._span_wrapper(orig, name, hook) if name is not None
                   else self._count_wrapper(orig, hook))
            for mod in program:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def take(self):
        """Spans and counts recorded since the last take, then reset."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.stack = [], []
        self.counts.clear()
        return spans, counts


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; plus the
    number of simplex solves made by branch and bound."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    bb = 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - child[i]
        if name == "simplex.solve":
            p = parent
            while p >= 0 and not spans[p][0].startswith("ip."):
                p = spans[p][3]
            if p >= 0 and spans[p][0] == "ip.exact_solve":
                bb += 1
    return {"calls": dict(calls), "incl_s": dict(incl), "self_s": dict(self_s),
            "bb_lp_solves": bb}


# time metric -> span name whose self time it reports
_SELF_TIME = {
    "flows.circulation_s": "flows.circulation", "flows.max_flow_s": "flows.max_flow",
    "baranyai.resolve_s": "baranyai.resolve",
    "baranyai.partition_ground_s": "baranyai.partition_ground",
    "construction.plan_s": "construction.plan",
    "construction.stage_flow_s": "construction.stage_flow",
    "construction.sps_io_s": "construction.sps_io",
    "combinat.shadow_cmp_s": "combinat.shadow_cmp",
    "bounds.refined_upper_s": "bounds.refined_upper",
    "bounds.grouped_lower_s": "bounds.grouped_lower",
    "bounds.scan_exact_s": "bounds.scan_exact",
    "bounds.scan_small_r_s": "bounds.scan_small_r",
    "simplex.solve_s": "simplex.solve",
    "ip.build_instance_s": "ip.build_instance", "ip.lp_relax_s": "ip.lp_relax",
    "ip.exact_solve_s": "ip.exact_solve", "ip.greedy_s": "ip.greedy",
    "ip.closed_form_s": "ip.closed_form", "ip.realize_s": "ip.realize",
    "ip.class_profiles_s": "ip.class_profiles",
    "verify.check_sperner_s": "verify.check_sperner",
    "verify.check_detecting_s": "verify.check_detecting",
    "verify.check_certificate_s": "verify.check_certificate",
    "verify.check_partition_s": "verify.check_partition",
}

_CALLS = {
    "flows.circulations": "flows.circulation",
    "baranyai.resolve_calls": "baranyai.resolve",
    "baranyai.partition_ground_calls": "baranyai.partition_ground",
    "baranyai.allocate_blocks_calls": "baranyai.allocate_blocks",
    "construction.plan_calls": "construction.plan",
    "construction.stage_flows": "construction.stage_flow",
    "construction.detach_attempts": "construction.detach_all",
    "combinat.shadow_cmp_calls": "combinat.shadow_cmp",
    "simplex.solves": "simplex.solve",
    "ip.build_instance_calls": "ip.build_instance",
    "verify.check_sperner_calls": "verify.check_sperner",
}


def layer_metrics(summary: dict, counts: dict) -> dict:
    """The per-layer metrics of one traced pass (times are self times)."""
    out = {}
    for metric, span in _SELF_TIME.items():
        out[metric] = summary["self_s"].get(span, 0.0)
    for metric, span in _CALLS.items():
        out[metric] = summary["calls"].get(span, 0)
    for key in ("flows.arcs", "flows.units", "baranyai.stages",
                "construction.plan_rejects", "construction.realize_failures",
                "combinat.binom_frac_calls", "bounds.predicate_evals",
                "simplex.rows", "simplex.cols", "ip.certificate_classes",
                "verify.parts_checked", "verify.detecting_keys"):
        out[key] = counts.get(key, 0)
    plans = out["construction.plan_calls"]
    out["construction.plan_accept_ratio"] = (
        (plans - out["construction.plan_rejects"]) / plans if plans else 0.0)
    out["ip.bb_lp_solves"] = summary["bb_lp_solves"]
    return out
