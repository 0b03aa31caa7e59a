"""Per-layer metrics derived from one traced pass.

A layer's self time is the time of its spans minus the time of their child
spans. The layers are the package's modules; `special` is too small to time
and counts inside its callers, and scipy counts inside the module that calls
it. Sweep worker threads record no spans, so their time is in
`cli.sweep_ms`, not in `cli.self_ms`.
"""

import collections

from tracer import QGAUSSIAN_CALLS
from workloads import SOLVE_CASES

ROLES = tuple(case[0] for case in SOLVE_CASES)
LAWS = ("gamma", "beta", "betaprime")
CASE_METRICS = (("make_problem_ms", "ms"), ("solve_ms", "ms"), ("outer_steps", "count"),
                ("inner_iters", "count"), ("fun_evals", "count"))

PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("cli.bytes_out", "count"),
    ("cli.sweep_ms", "ms"),
    ("cli.sample_file_call_ms", "ms"),
    ("cli.sample_format_call_ms", "ms"),
    ("qgaussian.calls", "count"),
    ("qgaussian.self_ms", "ms"),
    ("qgaussian.closed_measures_call_us", "us"),
    ("measures.quad_calls", "count"),
    ("measures.integrand_evals", "count"),
    ("measures.self_ms", "ms"),
    ("measures.measure_all_compact_call_ms", "ms"),
    ("measures.measure_all_tail_call_ms", "ms"),
    ("inequalities.checks.closed", "count"),
    ("inequalities.checks.quadrature", "count"),
    ("inequalities.self_ms", "ms"),
    ("inequalities.quad_reuse", "ratio"),
    ("inequalities.check_all_family_op_ms", "ms"),
    ("inequalities.check_all_mixture_op_ms", "ms"),
    ("sampling.draws", "count"),
    ("sampling.sample_ms", "ms"),
    ("sampling.quantile_ms", "ms"),
    ("sampling.directions_ms", "ms"),
    *((f"sampling.{law}.{kind}", "ms") for law in LAWS for kind in ("call_ms", "quantile_call_ms")),
    ("variational.make_problem_ms", "ms"),
    ("variational.solve_ms", "ms"),
    ("variational.outer_steps", "count"),
    ("variational.inner_iters", "count"),
    ("variational.fun_evals", "count"),
    ("variational.objective_ms", "ms"),
    ("variational.optimizer_ms", "ms"),
    *((f"variational.{role}.{name}", unit) for role in ROLES for name, unit in CASE_METRICS),
    ("trace.overhead_s", "s"),
)

# Rows of the ROADMAP baseline table and the metrics that reproduce them.
BASELINE_ROWS = (
    ("closed_measures, per call", ("qgaussian.closed_measures_call_us",)),
    ("measure_all by quadrature: compact / tail",
     ("measures.measure_all_compact_call_ms", "measures.measure_all_tail_call_ms")),
    ("check_all: family member / mixture",
     ("inequalities.check_all_family_op_ms", "inequalities.check_all_mixture_op_ms")),
    ("sample per branch: gamma / beta / beta-prime",
     tuple(f"sampling.{law}.call_ms" for law in LAWS)),
    ("of which betaincinv/gammaincinv", tuple(f"sampling.{law}.quantile_call_ms" for law in LAWS)),
    ("CLI sample to file / of which CLI formatting",
     ("cli.sample_file_call_ms", "cli.sample_format_call_ms")),
    ("CLI sweep", ("cli.sweep_ms",)),
    ("solve per case", tuple(f"variational.{role}.solve_ms" for role in ROLES)),
    ("inner iterations per case", tuple(f"variational.{role}.inner_iters" for role in ROLES)),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def derive(tracer, ops, outcomes, traced_wall: float, untraced_wall: float):
    """Return (metrics, sizes): every PER_LAYER value, and what each baseline row averaged."""
    spans = tracer.spans
    self_times = tracer.self_times()
    layer_self = collections.Counter()
    by_name = collections.defaultdict(list)
    for span, own in zip(spans, self_times):
        layer_self[span.layer] += own
        by_name[span.name].append((span, own))
    counts = tracer.counts

    def durations(name, keep=lambda span: True):
        return [span.duration for span, _ in by_name[name] if keep(span)]

    def law_is(law):
        return lambda span: span.attrs["law"] == law

    def op_of(span):
        return ops[span.op]

    m, sizes = {}, {}
    m["cli.self_ms"] = layer_self["cli"] * 1e3
    m["cli.bytes_out"] = sum(outcome.bytes_out for outcome in outcomes)
    m["cli.sweep_ms"] = sum(durations("cli.cmd_sweep")) * 1e3
    sweeps = [op for op in ops if op.kind == "sweep"]
    points = sum(len(op.info["grid"]) for op in sweeps)
    sizes["cli.sweep_ms"] = f"{len(sweeps)} sweeps, {points} points"
    to_file = [span.duration for span, _ in by_name["cli.main"]
               if op_of(span).kind == "sample" and op_of(span).info["out"]]
    m["cli.sample_file_call_ms"] = _mean(to_file) * 1e3
    sizes["cli.sample_file_call_ms"] = f"{len(to_file)} calls"
    formatting = [own for span, own in by_name["cli.main"] if op_of(span).kind == "sample"]
    m["cli.sample_format_call_ms"] = _mean(formatting) * 1e3
    sizes["cli.sample_format_call_ms"] = f"{len(formatting)} calls"

    m["qgaussian.calls"] = sum(counts[name] for name in QGAUSSIAN_CALLS)
    m["qgaussian.self_ms"] = layer_self["qgaussian"] * 1e3
    closed = durations("cli.closed_measures")
    m["qgaussian.closed_measures_call_us"] = _mean(closed) * 1e6
    sizes["qgaussian.closed_measures_call_us"] = f"{len(closed)} calls, n in 1..3"

    m["measures.quad_calls"] = counts["measures.quad_calls"]
    m["measures.integrand_evals"] = counts["measures.integrand_evals"]
    m["measures.self_ms"] = layer_self["measures"] * 1e3
    for label, keep in (("compact", lambda s: s.attrs["q"] > 1.0),
                        ("tail", lambda s: s.attrs["q"] < 1.0)):
        values = durations("cli.measure_all", keep)
        m[f"measures.measure_all_{label}_call_ms"] = _mean(values) * 1e3
        sizes[f"measures.measure_all_{label}_call_ms"] = f"{len(values)} calls"

    m["inequalities.checks.closed"] = counts["inequalities.checks.closed"]
    m["inequalities.checks.quadrature"] = counts["inequalities.checks.quadrature"]
    m["inequalities.self_ms"] = layer_self["inequalities"] * 1e3
    calls = distinct = 0
    for op_id, keys in tracer.quad_keys.items():
        if ops[op_id].kind.startswith("verify"):
            calls += len(keys)
            distinct += len(set(keys))
    m["inequalities.quad_reuse"] = distinct / calls if calls else 0.0
    per_op = collections.defaultdict(float)
    for span, _ in by_name["cli.check_all"]:
        per_op[span.op] += span.duration
    for label, keep in (("family", lambda op: op.kind == "verify-family"),
                        ("mixture", lambda op: op.info.get("density", "").startswith("mixture:"))):
        values = [t for op_id, t in per_op.items() if keep(ops[op_id]) and outcomes[op_id].ok]
        m[f"inequalities.check_all_{label}_op_ms"] = _mean(values) * 1e3
        sizes[f"inequalities.check_all_{label}_op_ms"] = f"{len(values)} verify --all calls"

    m["sampling.draws"] = counts["sampling.draws"]
    m["sampling.sample_ms"] = sum(durations("cli.sample")) * 1e3
    m["sampling.quantile_ms"] = sum(durations("sampling.radial_quantile")) * 1e3
    m["sampling.directions_ms"] = m["sampling.sample_ms"] - m["sampling.quantile_ms"]
    for law in LAWS:
        calls_of_law = [span for span, _ in by_name["cli.sample"] if span.attrs["law"] == law]
        m[f"sampling.{law}.call_ms"] = _mean(span.duration for span in calls_of_law) * 1e3
        m[f"sampling.{law}.quantile_call_ms"] = _mean(
            durations("sampling.radial_quantile", law_is(law))) * 1e3
        draws = sorted({span.attrs["count"] for span in calls_of_law})
        sizes[f"sampling.{law}.call_ms"] = f"{len(calls_of_law)} calls of {draws} draws"

    m["variational.make_problem_ms"] = sum(durations("cli.make_problem")) * 1e3
    m["variational.solve_ms"] = sum(durations("cli.solve")) * 1e3
    for name in ("outer_steps", "inner_iters", "fun_evals"):
        m[f"variational.{name}"] = counts[f"variational.{name}"]
    m["variational.objective_ms"] = counts["variational.objective_s"] * 1e3
    m["variational.optimizer_ms"] = (sum(durations("optimize.minimize"))
                                     - counts["variational.objective_s"]) * 1e3
    for role in ROLES:
        op_ids = [i for i, op in enumerate(ops) if op.info.get("role") == role]

        def in_case(span, op_ids=op_ids):
            return span.op in op_ids

        m[f"variational.{role}.make_problem_ms"] = sum(durations("cli.make_problem", in_case)) * 1e3
        m[f"variational.{role}.solve_ms"] = sum(durations("cli.solve", in_case)) * 1e3
        for name in ("outer_steps", "inner_iters", "fun_evals"):
            m[f"variational.{role}.{name}"] = sum(
                tracer.op_counts[i][f"variational.{name}"] for i in op_ids)
        info = [ops[i].info for i in op_ids]
        sizes[f"variational.{role}.solve_ms"] = ", ".join(
            f"n={x['n']} q={x['q']} moment={x['moment']} nodes={x['nodes']}" for x in info)

    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m, sizes
