"""Command-line front end.

Subcommands: measures (closed-form and/or quadrature measure sets), verify
(inequality reports for a selectable density), sweep (parameter grid to
CSV), sample (reproducible draws to CSV), minimize (variational
solver). Every emitted report embeds the resolved configuration. Exit codes
form a stable contract: 0 success, 2 invalid input, 3 numeric divergence or
non-convergence, 4 inequality violated beyond tolerance. No input ends in a
traceback: every arithmetic failure (overflow, division by zero, divergence)
maps to 3.
"""

import argparse
import csv
import io
import itertools
import json
import math
import os
import signal
import sys
import tempfile
import threading

import numpy as np

from . import validity
from .errors import ConvergenceError, DivergenceError, DomainError
from .inequalities import (
    DEFAULT_EQ_TOL,
    DEFAULT_REL_TOL,
    INEQUALITY_NAMES,
    check_all,
    inapplicable,
)
from .measures import (
    MEASURE_KEYS,
    RadialDensity,
    gaussian_mixture,
    measure_all,
    table_profile,
    uniform_ball,
)
from .qgaussian import (
    QGaussianParams,
    closed_measures,
    partition_fn,
    radial_density,
)
from .sampling import RNG_ALGORITHM, empirical_moment, sample
from .variational import (
    INITS,
    check_proposition1,
    extremal_profile,
    make_problem,
    solve,
)

__all__ = ["main", "cmd_measures", "cmd_verify", "cmd_sweep", "cmd_sample", "cmd_minimize"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DIVERGED = 3
EXIT_VIOLATED = 4

# the family flags, in the order every configuration echo lists them
_FAMILY_FLAGS = ("n", "alpha", "q", "gamma")

# largest sweep grid accepted, counted before any grid list is built
MAX_SWEEP_ROWS = 100_000

# sample rows formatted and written at a time
SAMPLE_BLOCK = 8192

# fewest coordinates (count * n) whose CSV is formatted on two cores: a fork
# costs about 3 ms, while the 2000-draw samples of a session stay serial
FORK_MIN_COORDINATES = 65_536

# characters of the forked worker's rows read back and written at a time
FORK_CHUNK = 1 << 20


def _emit(text, out: str | None):
    """Write text, or an iterable of text chunks in order, to the file out or to stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if out:
        # newline="": csv rows end in \r\n, which must not be translated
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        last = ""
        for last in chunks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, default=float, allow_nan=False)


def _float_items(value):
    """The items of a non-empty list of finite floats as json.dumps writes
    them one level into an indented object, or None for any other value."""
    if type(value) is not list or not value:
        return None
    try:
        text = ",\n    ".join(map(float.__repr__, value))
    except TypeError:  # an item that is not a float
        return None
    # a finite float's repr has no "n"; nan and inf are left to json.dumps to refuse
    return None if "n" in text else text


def _json_text(obj: dict) -> str:
    """The report obj, keyed by strings, as strict JSON with an indent of 2,
    byte for byte as json.dumps writes it.

    json.dumps encodes in Python item by item once it indents; a top-level
    list of finite floats (minimize's grid and profile) is written instead in
    one join of float.__repr__, the form json.dumps gives each such float.
    Any other payload goes to json.dumps whole.
    """
    try:  # strict JSON: a NaN or an infinity in a report is a numeric failure
        joined = {key: _float_items(value) for key, value in obj.items()}
        if not any(joined.values()):
            return _json_dumps(obj)
        members = []
        for key, value in obj.items():
            text = joined[key]
            # json.dumps's text of a nested value, indented one level further
            text = f"[\n    {text}\n  ]" if text else _json_dumps(value).replace("\n", "\n  ")
            members.append(f"{_json_dumps(key)}: {text}")
        return "{\n  " + ",\n  ".join(members) + "\n}"
    except ValueError as exc:
        raise DivergenceError(f"the report holds a non-finite value ({exc})") from None


def _csv_text(config: dict, header, rows, skipped=()) -> str:
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(config, default=float)}\n")
    if skipped:
        buf.write(f"# skipped: {json.dumps(skipped)}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format_rows(block) -> str:
    """CSV rows of a block of points: one repr per cell, then each row's n cells joined."""
    cells = map(repr, block.ravel().tolist())
    return "\r\n".join(map(",".join, zip(*[cells] * block.shape[1]))) + "\r\n"


def _row_blocks(points):
    for start in range(0, len(points), SAMPLE_BLOCK):
        yield _format_rows(points[start:start + SAMPLE_BLOCK])


def _fork_rows(points, sink) -> int:
    """Fork a worker that writes the CSV rows of points to the text file sink; return its pid.

    The worker leaves only through os._exit, with status 0 once every row is
    written, so the stdout or --out buffers it inherited are never flushed twice.
    """
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            sink.writelines(_row_blocks(points))
            sink.flush()
            status = 0
        finally:
            os._exit(status)
    return pid


def _sample_csv(config: dict, points):
    """The sample CSV in chunks: the preamble, then SAMPLE_BLOCK rows at a time.

    Cells are formatted with repr, which is what csv.writer writes for a
    float; no float cell ever needs quoting. A batch of at least
    FORK_MIN_COORDINATES coordinates is formatted on two cores where os.fork
    exists and no other thread runs (a forked worker could find another
    thread's lock held for good): a forked worker formats the rows after the
    SAMPLE_BLOCK boundary nearest the middle into an unlinked temporary file
    while this process formats and yields the rows before it, then the
    worker's text follows in FORK_CHUNK pieces. The text is the same either
    way. The worker is reaped on every path, killed first if the generator
    stops early; a worker that fails raises OSError.
    """
    header = _csv_text(config, [f"x{j + 1}" for j in range(points.shape[1])], ())
    split = SAMPLE_BLOCK * round(len(points) / (2 * SAMPLE_BLOCK))
    if (points.size < FORK_MIN_COORDINATES or split == 0 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        yield header
        yield from _row_blocks(points)
        return
    with tempfile.TemporaryFile("w+", encoding="ascii", newline="") as tail:
        pid = _fork_rows(points[split:], tail)
        try:
            yield header
            yield from _row_blocks(points[:split])
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            raise OSError(f"the worker formatting sample rows {split + 1} to {len(points)} "
                          f"failed (exit code {code})")
        tail.seek(0)
        while chunk := tail.read(FORK_CHUNK):
            yield chunk


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _config(args, params=None, **fields) -> dict:
    """The configuration a report echoes: the subcommand, its params, then fields in order.

    params defaults to the family flags the subcommand parsed.
    """
    if params is None:
        params = {flag: getattr(args, flag) for flag in _FAMILY_FLAGS if hasattr(args, flag)}
    return {"subcommand": args.subcommand, "params": params, **fields}


def _params_from(args) -> QGaussianParams:
    return QGaussianParams(n=args.n, alpha=args.alpha, q=args.q, gamma=args.gamma)


def _gate_flags(params: QGaussianParams):
    # named validity violations surface as invalid input, not as a late crash
    for subject, bound in (("Mq-finiteness violated:", validity.mq_finite),
                           ("Fisher-finiteness violated:", validity.fisher_finite)):
        if why := bound(params.n, params.alpha, params.q):
            raise DomainError(f"{subject} {why}")


def _resolve_density(args) -> RadialDensity:
    spec = args.density
    if spec == "qgaussian":
        return radial_density(_params_from(args))
    if spec.startswith("mixture:"):
        body = spec[len("mixture:"):]
        components = []
        for part in body.split(";"):
            fields = part.split(",")
            if len(fields) != 3:
                raise DomainError(f"mixture component {part!r} must be weight,center,variance")
            w, center, var = (float(v) for v in fields)
            if center != 0.0:
                raise DomainError("mixture centers must be 0 (only radial densities are supported)")
            components.append((w, var))
        return gaussian_mixture(args.n, components, descriptor=spec)
    if spec == "uniform-ball" or spec.startswith("uniform-ball:"):
        radius = 1.0
        if ":" in spec:
            radius = float(spec.split(":", 1)[1])
        return uniform_ball(args.n, radius)
    if spec.startswith("profile:"):
        path = spec[len("profile:"):]
        radii, values = [], []
        with open(path, newline="", encoding="utf-8") as fh:
            rows = (row for row in csv.reader(fh) if row and not row[0].startswith("#"))
            for i, row in enumerate(rows):
                try:
                    r, v = float(row[0]), float(row[1])
                except ValueError:
                    if i == 0:
                        continue  # header line
                    raise DomainError(f"{path} row {row!r} is not numeric: radius,value") from None
                except IndexError:
                    raise DomainError(f"{path} row {row!r} needs two fields: radius,value") from None
                radii.append(r)
                values.append(v)
        return table_profile(args.n, radii, values, descriptor=spec)
    raise DomainError(
        f"unknown density selector {spec!r}; expected qgaussian, mixture:..., "
        "uniform-ball[:radius], or profile:path"
    )


def cmd_measures(args) -> int:
    params = _params_from(args)
    _gate_flags(params)
    config = _config(args, format=args.format, method=args.method)
    payload: dict = {"config": config, "Z": partition_fn(params)}
    if args.method in ("closed", "both"):
        payload["closed"] = closed_measures(params).as_dict()
    if args.method in ("quadrature", "both"):
        payload["quadrature"] = measure_all(radial_density(params), params.alpha, params.q).as_dict()
    if args.method == "both":
        gaps = {}
        for key in MEASURE_KEYS:
            c, e = payload["closed"][key], payload["quadrature"][key]
            gaps[key] = abs(c - e) / max(abs(c), 1e-300)
        payload["max_rel_gap"] = max(gaps.values())
    if args.format == "csv":
        columns = [m for m in ("closed", "quadrature") if m in payload]
        rows = ([key.lower(), *(payload[m][key] for m in columns)] for key in MEASURE_KEYS)
        _emit(_csv_text(config, ["measure", *columns], rows), args.out)
    else:
        _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = tuple(dict.fromkeys(args.ineq or INEQUALITY_NAMES))
    for flag, tol in (("--rel-tol", args.rel_tol), ("--eq-tol", args.eq_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise DomainError(f"{flag} must be finite and >= 0, got {tol}")
    density = _resolve_density(args)
    config = _config(args, format=args.format, density=args.density,
                     tolerances={"rel_tol": args.rel_tol, "eq_tol": args.eq_tol},
                     inequalities=list(names))
    # with no --ineq, whatever applies runs and the rest are skipped with their
    # reasons; a named check that does not apply is an error raised by check_all
    skipped = {} if args.ineq else inapplicable(density, args.alpha, args.q, names)
    reports = check_all(density, args.alpha, args.q, rel_tol=args.rel_tol, eq_tol=args.eq_tol,
                        names=[name for name in names if name not in skipped])
    payload = {
        "config": config,
        "reports": [r.as_dict() for r in reports],
        "skipped": [{"name": name, "reason": reason} for name, reason in skipped.items()],
    }
    if args.format == "csv":
        header = ["name", "lhs", "rhs", "ratio", "deficit", "passes", "equality"]
        rows = ([r.name, r.lhs, r.rhs, r.ratio, r.deficit, r.passes, r.equality] for r in reports)
        _emit(_csv_text(config, header, rows, payload["skipped"]), args.out)
    else:
        _emit(_json_text(payload), args.out)
    if any(not r.passes for r in reports):
        return EXIT_VIOLATED
    return EXIT_OK


def _parse_grid(text: str, integer: bool = False) -> list:
    """Comma list of values and/or start:stop:step ranges (stop inclusive within 1e-9).

    Range point i is start + i*step. A range's point count is checked against
    MAX_SWEEP_ROWS before any point is built.
    """
    values: list[float] = []
    for segment in text.split(","):
        if segment == "":
            continue
        if ":" in segment:
            pieces = segment.split(":")
            if len(pieces) != 3:
                raise DomainError(f"range spec {segment!r} must be start:stop:step")
            start, stop, step = (float(p) for p in pieces)
            if not all(math.isfinite(v) for v in (start, stop, step)):
                raise DomainError(f"range spec {segment!r} must be finite")
            if step <= 0:
                raise DomainError("range step must be positive")
            # compared before flooring: past float range the quotient is infinite
            span = (stop + 1e-9 - start) / step
            if span >= MAX_SWEEP_ROWS:
                raise DomainError(
                    f"range {segment!r} has {span + 1:.3g} points, over {MAX_SWEEP_ROWS}")
            count = math.floor(max(span, -1.0)) + 1
            values.extend(start + i * step for i in range(count))
        else:
            value = float(segment)
            if not math.isfinite(value):
                raise DomainError(f"grid value {segment!r} must be finite")
            values.append(value)
    if integer:
        out = []
        for v in values:
            if not v.is_integer():
                raise DomainError(f"grid value {v} must be an integer")
            out.append(int(v))
        return out
    return values


_SWEEP_DEFICITS = {name: "deficit_" + name.replace("-", "_") for name in INEQUALITY_NAMES}


def _sweep_row(point) -> dict:
    row = dict(zip(_FAMILY_FLAGS, point))
    notes = []
    try:
        params = QGaussianParams(**row)
        _gate_flags(params)
        ms = closed_measures(params)
        row.update({key: getattr(ms, key) for key in MEASURE_KEYS})
        density = radial_density(params)
        skipped = inapplicable(density, params.alpha, params.q)
        notes.extend(f"{name}: {reason}" for name, reason in skipped.items())
        names = [name for name in INEQUALITY_NAMES if name not in skipped]
        for report in check_all(density, params.alpha, params.q, names=names):
            row[_SWEEP_DEFICITS[report.name]] = report.deficit
    except (DomainError, ArithmeticError) as exc:
        notes.append(str(exc))
    row["error"] = "; ".join(notes)
    return row


def cmd_sweep(args) -> int:
    grids = {flag: _parse_grid(getattr(args, flag), integer=flag == "n") for flag in _FAMILY_FLAGS}
    size = math.prod(len(grid) for grid in grids.values())
    if size > MAX_SWEEP_ROWS:
        raise DomainError(f"sweep grid has {size} points, over {MAX_SWEEP_ROWS}")
    if size == 0:
        raise DomainError("sweep grid is empty")
    config = _config(args, params=grids, format="csv")
    rows = [_sweep_row(t) for t in itertools.product(*grids.values())]
    columns = [*_FAMILY_FLAGS, *MEASURE_KEYS, *_SWEEP_DEFICITS.values(), "error"]
    cells = ([row.get(c, "") for c in columns] for row in rows)
    _emit(_csv_text(config, [c.lower() for c in columns], cells), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    params = _params_from(args)
    config = _config(args, format="csv", seed=args.seed, count=args.count, rng=RNG_ALGORITHM)
    # sample() rejects a bad count, seed or size, and non-finite draws, before
    # the output is opened
    batch = sample(params, args.count, args.seed)
    _emit(_sample_csv(config, batch.points), args.out)
    if args.out:
        estimate, se = empirical_moment(batch, params.alpha)
        # where m_alpha is infinite a finite estimate of it means nothing, and
        # the summary stays strict JSON
        if (validity.mq_finite(params.n, params.alpha, params.q)
                or not (math.isfinite(estimate) and math.isfinite(se))):
            estimate = se = None
        print(_json_text({"config": config, "empirical_m_alpha": estimate, "std_error": se}))
    return EXIT_OK


def cmd_minimize(args) -> int:
    problem = make_problem(args.n, args.alpha, args.q, args.moment, num_nodes=args.nodes)
    # a collapsing solve overflows on its way to a non-finite report, which exits 3
    with np.errstate(over="ignore", invalid="ignore"):
        solution = solve(problem, init=args.init)
    lhs, rhs, gap = check_proposition1(solution, problem)
    config = _config(args, format=args.format, moment=args.moment, nodes=args.nodes,
                     init=args.init)
    if args.format == "csv":
        closed = extremal_profile(problem)
        rows = zip(problem.grid.tolist(), solution.u_values.tolist(), closed.tolist())
        # the summary is formatted first, so a non-finite one writes nothing
        summary = _json_text({"objective": solution.objective,
                              "prop1": {"lhs": lhs, "rhs": rhs, "rel_gap": gap}})
        _emit(_csv_text(config, ["r", "u", "closed_form_u"], rows), args.out)
        print(summary)
    else:
        payload = {
            "config": config,
            "grid": problem.grid.tolist(),
            "u_values": solution.u_values.tolist(),
            "objective": solution.objective,
            "multipliers": {"a": solution.multipliers[0], "b": solution.multipliers[1]},
            "constraints": {
                "normalization": solution.constraints_achieved[0],
                "moment": solution.constraints_achieved[1],
            },
            "converged": solution.converged,
            "iterations": solution.iterations,
            "smoothing_eps": solution.smoothing_eps,
            "prop1": {"lhs": lhs, "rhs": rhs, "rel_gap": gap},
        }
        _emit(_json_text(payload), args.out)
    return EXIT_OK


def _add_param_flags(parser):
    parser.add_argument("--n", type=int, default=1, help="dimension")
    parser.add_argument("--alpha", type=float, default=2.0, help="moment/shape exponent")
    parser.add_argument("--q", type=float, default=1.0, help="tail index")
    parser.add_argument("--gamma", type=float, default=1.0, help="scale parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qginfo",
        description="Information measures, inequalities, sampling, and the "
        "variational problem of generalized Gaussian densities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("measures", help="closed-form and/or quadrature measures")
    _add_param_flags(p)
    p.add_argument("--method", choices=("closed", "quadrature", "both"), default="closed")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="evaluate inequality reports on a density")
    _add_param_flags(p)
    p.add_argument("--density", default="qgaussian",
                   help="qgaussian | mixture:w,0,var;... | uniform-ball[:radius] | profile:path")
    selection = p.add_mutually_exclusive_group()
    selection.add_argument("--ineq", action="append", choices=INEQUALITY_NAMES, default=None)
    selection.add_argument("--all", action="store_true",
                           help="the default: run every check that applies, skip the rest")
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p.add_argument("--eq-tol", type=float, default=DEFAULT_EQ_TOL)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="grid sweep of measures and deficits to CSV")
    p.add_argument("--n", default="1", help="grid: value, comma list, or start:stop:step")
    p.add_argument("--alpha", default="2")
    p.add_argument("--q", default="1")
    p.add_argument("--gamma", default="1")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="reproducible draws exported as CSV")
    _add_param_flags(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("minimize", help="solve the constrained Dirichlet problem")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--moment", type=float, required=True, help="prescribed elliptic moment")
    p.add_argument("--nodes", type=int, default=1601)
    p.add_argument("--init", choices=INITS, default="exponential")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # looked up per call, so a command replaced on the module is the one that runs
        return globals()["cmd_" + args.subcommand](args)
    except ValueError as exc:  # DomainError and ZeroDensityError among them
        return _fail(str(exc), EXIT_INVALID)
    except (OverflowError, ZeroDivisionError) as exc:
        # Python's own words ("math range error", "(34, 'Numerical result out of
        # range')") name neither the command nor the failure
        failure = "floating-point overflow" if isinstance(exc, OverflowError) else "division by zero"
        detail = f" ({exc.args[-1]})" if exc.args else ""
        return _fail(f"{args.subcommand}: {failure}{detail}", EXIT_DIVERGED)
    except (ArithmeticError, ConvergenceError) as exc:
        # DivergenceError, or an ArithmeticError the package raised with its own message
        return _fail(str(exc) or type(exc).__name__, EXIT_DIVERGED)
    except OSError as exc:
        return _fail(str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
