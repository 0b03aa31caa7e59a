"""Spans and counts for the traced run, recorded from outside the program.

`install` replaces the public functions each layer calls, as the calling
module sees them (``qginfo.cli.check_all``, ``qginfo.inequalities.quad_fisher``,
``qginfo.sampling.radial_quantile``, ...), with wrappers that record a span
(name, layer, start, end, parent, op) and count the call. Two module objects
are swapped for proxies instead: ``qginfo.measures.integrate``, whose ``quad``
counts calls and wraps the integrand to count its evaluations, and
``qginfo.variational.optimize``, whose ``minimize`` counts outer steps, inner
iterations and objective evaluations and times the objective. Nothing is
patched while tracing is off, so the untraced run measures the program as is.

Spans are recorded only on the thread that called ``cli.main``. The sweep
pool's worker threads add counts but no spans, so their time is part of the
``cli.sweep`` span that waits for them; with spans on one thread, self times
add up exactly to the time inside ``cli.main``.
"""

import collections
import functools
import threading
import time

import qginfo.cli
import qginfo.inequalities
import qginfo.measures
import qginfo.sampling
import qginfo.variational

class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, layer, start, parent, op, attrs):
        self.name, self.layer, self.start, self.end = name, layer, start, start
        self.parent, self.op, self.attrs = parent, op, attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self.op_counts = collections.defaultdict(collections.Counter)
        self.quad_keys = collections.defaultdict(list)
        self.op = None
        self._lock = threading.Lock()
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._patches: list = []

    def add(self, key: str, amount=1):
        with self._lock:
            self.counts[key] += amount
            self.op_counts[self.op][key] += amount

    def note_quadrature(self, key):
        """Remember one quadrature estimator call of the current op (for reuse ratios)."""
        with self._lock:
            self.quad_keys[self.op].append(key)

    def on_main_thread(self) -> bool:
        return threading.get_ident() == self._main

    def open(self, name: str, layer: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self.op, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self.open("cli.main", "cli")

    def end_op(self, index: int):
        self.close(index)
        self.op = None

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    # -- patching -------------------------------------------------------

    def patch(self, module, attr: str, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def wrap(self, module, attr: str, layer: str, attrs=None, after=None):
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            tracer.add(name)
            if not tracer.on_main_thread():
                result = fn(*args, **kwargs)
            else:
                index = tracer.open(name, layer, attrs(*args, **kwargs) if attrs else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self.patch(module, attr, wrapper)


def _law(q: float) -> str:
    if abs(q - 1.0) < 1e-12:
        return "gamma"
    return "beta" if q > 1.0 else "betaprime"


class _IntegrateProxy:
    """`scipy.integrate` as `qginfo.measures` sees it, with `quad` counted."""

    def __init__(self, tracer: Tracer, real):
        self._tracer, self._real = tracer, real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def quad(self, func, a, b, *args, **kwargs):
        if self._tracer.op is None:
            return self._real.quad(func, a, b, *args, **kwargs)
        evaluations = 0

        def counted(x, *extra):
            nonlocal evaluations
            evaluations += 1
            return func(x, *extra)

        try:
            return self._real.quad(counted, a, b, *args, **kwargs)
        finally:
            self._tracer.add("measures.quad_calls")
            self._tracer.add("measures.integrand_evals", evaluations)


class _OptimizeProxy:
    """`scipy.optimize` as `qginfo.variational` sees it, with `minimize` traced."""

    def __init__(self, tracer: Tracer, real):
        self._tracer, self._real = tracer, real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def minimize(self, fun, x0, *args, **kwargs):
        tracer = self._tracer
        if tracer.op is None or not tracer.on_main_thread():
            return self._real.minimize(fun, x0, *args, **kwargs)
        spent = 0.0
        evaluations = 0

        def timed(x, *extra):
            nonlocal spent, evaluations
            started = time.perf_counter()
            try:
                return fun(x, *extra)
            finally:
                spent += time.perf_counter() - started
                evaluations += 1

        index = tracer.open("optimize.minimize", "variational")
        try:
            result = self._real.minimize(timed, x0, *args, **kwargs)
        finally:
            tracer.close(index)
            tracer.add("variational.objective_s", spent)
            tracer.add("variational.fun_evals", evaluations)
        tracer.add("variational.outer_steps")
        tracer.add("variational.inner_iters", int(result.nit))
        return result


def install(tracer: Tracer):
    """Patch every layer boundary; undo with ``tracer.uninstall()``."""
    cli, ineq, meas = qginfo.cli, qginfo.inequalities, qginfo.measures
    samp, var = qginfo.sampling, qginfo.variational

    def count_routes(reports, *args, **kwargs):
        for report in reports:
            closed = set(report.method_tags.values()) == {meas.CLOSED_FORM}
            tracer.add("inequalities.checks." + ("closed" if closed else "quadrature"))

    def record_quad_key(name):
        def after(result, f, *args, **kwargs):
            tracer.note_quadrature((name, id(f), args, tuple(sorted(kwargs.items()))))
        return after

    def count_draws(batch, params, count, *args, **kwargs):
        tracer.add("sampling.draws", int(count))

    tracer.wrap(cli, "cmd_sweep", "cli.sweep")
    tracer.wrap(cli, "check_all", "inequalities", after=count_routes)
    tracer.wrap(cli, "measure_all", "measures", attrs=lambda f, alpha, q, **kw: {"q": q})
    for attr in ("gaussian_mixture", "table_profile", "uniform_ball"):
        tracer.wrap(cli, attr, "measures")
    for attr in ("closed_measures", "partition_fn", "radial_density"):
        tracer.wrap(cli, attr, "qgaussian")
    tracer.wrap(cli, "sample", "sampling", after=count_draws,
                attrs=lambda params, count, seed: {"law": _law(params.q), "count": count})
    tracer.wrap(cli, "empirical_moment", "sampling")
    for attr in ("make_problem", "solve", "check_proposition1", "extremal_profile"):
        tracer.wrap(cli, attr, "variational")
    for attr in ("quad_Mq", "quad_fisher", "quad_moment", "quad_shannon"):
        tracer.wrap(ineq, attr, "measures", after=record_quad_key(attr))
    for attr in ("closed_Mq", "closed_fisher", "closed_moment_alpha", "entropy_power"):
        tracer.wrap(ineq, attr, "qgaussian")
    tracer.wrap(samp, "radial_quantile", "sampling",
                attrs=lambda params, u: {"law": _law(params.q)})
    for attr in ("closed_fisher", "closed_moment_alpha", "partition_fn"):
        tracer.wrap(var, attr, "qgaussian")
    for attr in ("radial_quantile", "radial_tail_mass"):
        tracer.wrap(var, attr, "sampling")
    tracer.patch(meas, "integrate", _IntegrateProxy(tracer, meas.integrate))
    tracer.patch(var, "optimize", _OptimizeProxy(tracer, var.optimize))


QGAUSSIAN_CALLS = (
    "cli.closed_measures", "cli.partition_fn", "cli.radial_density",
    "inequalities.closed_Mq", "inequalities.closed_fisher", "inequalities.closed_moment_alpha",
    "inequalities.entropy_power",
    "variational.closed_fisher", "variational.closed_moment_alpha", "variational.partition_fn",
)
