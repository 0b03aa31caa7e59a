"""Workload definitions: seeded `qginfo` command lines and why each mix was chosen.

A workload turns a seed into a fixed list of operations (one `cli.main` argv
each, plus what the output check needs to know). The seed changes the values
(tail indices, scales and radii, sweep grids, sampler seeds, call order) but
never the shape of the mix: every pass of a workload runs the same
number of operations of each kind with the same dimensions, so the amount of
work barely moves from seed to seed.
"""

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

INEQUALITIES = ("fisher-moment-entropy", "moment-entropy", "stam", "cramer-rao")
FISHER_BASED = ("fisher-moment-entropy", "stam", "cramer-rao")


@dataclass(frozen=True)
class Op:
    """One `cli.main` call and the facts its output check needs."""

    kind: str
    argv: tuple
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list]
    warmup: Callable[[Path], list]
    min_passes: int


def _strata(rng: random.Random, count: int) -> list:
    """`count` uniforms on [0, 1), one from each of `count` equal strata, in random order.

    Drawing each parameter this way (a Latin hypercube over the repeats of one
    kind of call) keeps the spread of costs in a pass nearly the same for
    every seed.
    """
    order = list(range(count))
    rng.shuffle(order)
    return [(i + rng.random()) / count for i in order]


def _lerp(u: float, lo: float, hi: float, digits: int) -> float:
    return round(lo + (hi - lo) * u, digits)


def _q_side(u: float, side: str) -> float:
    if side == "one":
        return 1.0
    return _lerp(u, 0.86, 0.97, 3) if side == "below" else _lerp(u, 1.03, 1.5, 3)


def _mixture_spec(design: int, repeats: int, components: int) -> str:
    """Centred Gaussian mixture number `design` of a fixed `repeats`-point design.

    The first variance lies in [0.5, 2] and each next one is 2 to 8 times the
    previous, so every ratio stays visibly above 1; weights lie in [0.2, 1].
    The shapes are fixed rather than seeded because they set the quadrature
    work and which mixtures hit the fisher-underflow defect (see checks.py).
    With seeded shapes, a pass's quadrature work moved by 4% and its failing
    calls by 18 to 34 from seed to seed; with this design both stay put.
    """
    var = 0.5 + 1.5 * (design + 0.5) / repeats
    parts = []
    for j in range(components):
        weight = 0.2 + 0.8 * ((3 * design + 5 * j + 1) % repeats + 0.5) / repeats
        parts.append(f"{round(weight, 3)!r},0,{round(var, 4)!r}")
        var *= 2.0 + 6.0 * ((5 * design + 7 * j) % repeats + 0.5) / repeats
    return "mixture:" + ";".join(parts)


def _write_profile_table(path: Path, power: float, scale: float):
    """Tabulate exp(-(r/scale)^power) on [0, R] with R where it falls to e^-36."""
    radius = scale * 36.0 ** (1.0 / power)
    nodes = 400
    lines = ["r,f"]
    for j in range(nodes + 1):
        r = radius * j / nodes
        lines.append(f"{r!r},{math.exp(-((r / scale) ** power))!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _verify(kind: str, n: int, q: float, density: str, alpha: float = 2.0, gamma: float = 1.0,
            **info) -> Op:
    argv = ("verify", "--all", "--n", str(n), "--alpha", repr(alpha), "--q", repr(q),
            "--gamma", repr(gamma), "--density", density)
    return Op(kind, argv, dict(n=n, alpha=alpha, q=q, gamma=gamma, density=density, **info))


def _sample(n: int, alpha: float, q: float, gamma: float, count: int, seed: int,
            out: Path | None = None) -> Op:
    argv = ["sample", "--n", str(n), "--alpha", repr(alpha), "--q", repr(q),
            "--gamma", repr(gamma), "--count", str(count), "--seed", str(seed)]
    if out is not None:
        argv += ["--out", str(out)]
    info = dict(n=n, alpha=alpha, q=q, gamma=gamma, count=count, seed=seed,
                out=None if out is None else str(out))
    return Op("sample", tuple(argv), info)


def _sweep(rng: random.Random) -> Op:
    ns = sorted(rng.sample((1, 2, 3), 2))
    alphas = sorted(rng.sample((1.5, 2.0, 3.0), 2))
    step = rng.choice((0.05, 0.1))
    start = round(rng.uniform(0.85, 1.2), 2)
    qs = [start + i * step for i in range(4)]
    stop = round(qs[-1], 6)
    gamma = round(rng.uniform(0.5, 2.0), 3)
    argv = ("sweep", "--n", ",".join(map(str, ns)), "--alpha", ",".join(map(repr, alphas)),
            "--q", f"{start!r}:{stop!r}:{step!r}", "--gamma", repr(gamma))
    grid = [(n, a, q, gamma) for n in ns for a in alphas for q in qs]
    return Op("sweep", argv, dict(grid=grid))


def build_interactive(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    ops = []
    # 216 off-family mixtures: every (n, components, side of q = 1) on twelve
    # fixed shapes with seeded q. They are three quarters of the calls, so the
    # median call is a mixture check inside their cluster of latencies.
    repeats = 12
    for n in (1, 2, 3):
        for components in (2, 3):
            for side in ("below", "one", "above"):
                for design, uq in enumerate(_strata(rng, repeats)):
                    ops.append(_verify("verify-off", n, _q_side(uq, side),
                                       _mixture_spec(design, repeats, components)))
    # 4 tabulated profiles exp(-(r/s)^p), written here as part of set-up
    for i, (power, n, q) in enumerate(((1.5, 1, 0.95), (3.0, 2, 1.0), (4.0, 3, 1.1),
                                       (3.0, 1, 1.25))):
        path = workdir / f"profile-{i}.csv"
        _write_profile_table(path, power, round(rng.uniform(0.7, 1.5), 3))
        ops.append(_verify("verify-off", n, q, f"profile:{path}"))
    # 9 uniform balls: only moment-entropy applies, the Fisher-based checks are skipped
    for n in (1, 2, 3):
        for side in ("below", "one", "above"):
            radius = round(rng.uniform(0.5, 2.0), 3)
            ops.append(_verify("verify-off", n, _q_side(rng.random(), side),
                               f"uniform-ball:{radius!r}",
                               expect_skipped=FISHER_BASED))
    # 18 family members: equality in all four
    for n in (1, 2, 3):
        for alpha in (1.5, 2.0, 3.0):
            for uq, ug in zip(_strata(rng, 2), _strata(rng, 2)):
                ops.append(_verify("verify-family", n, _lerp(uq, 0.85, 2.0, 3), "qgaussian",
                                   alpha, _lerp(ug, 0.5, 2.0, 3)))
    # 18 closed-versus-quadrature comparisons on compact and power-tail members
    for n in (1, 2, 3):
        for alpha in (1.5, 2.0, 3.0):
            for side in ("below", "above"):
                q = round(rng.uniform(0.85, 0.97), 3) if side == "below" else \
                    round(rng.uniform(1.05, 2.0), 3)
                gamma = round(rng.uniform(0.5, 2.0), 3)
                argv = ("measures", "--method", "both", "--n", str(n), "--alpha", repr(alpha),
                        "--q", repr(q), "--gamma", repr(gamma))
                ops.append(Op("measures", argv, dict(n=n, alpha=alpha, q=q, gamma=gamma)))
    # 6 small sweeps of 16 grid points each
    ops.extend(_sweep(rng) for _ in range(6))
    # 9 small samples to stdout, one per (n, radial law)
    for n in (1, 2, 3):
        for side in ("below", "one", "above"):
            q = round(rng.uniform(0.85, 0.97), 3) if side == "below" else \
                1.0 if side == "one" else round(rng.uniform(1.05, 2.0), 3)
            ops.append(_sample(n, rng.choice((1.5, 2.0, 3.0)), q,
                               round(rng.uniform(0.5, 2.0), 3), 2000, rng.randrange(2**31)))
    rng.shuffle(ops)
    return ops


def warmup_interactive(workdir: Path) -> list:
    path = workdir / "profile-warmup.csv"
    _write_profile_table(path, 3.0, 1.0)
    return [
        _verify("verify-off", 1, 1.0, "mixture:0.5,0,1.0;0.5,0,4.0"),
        _verify("verify-off", 1, 1.0, f"profile:{path}"),
        _verify("verify-family", 2, 1.2, "qgaussian"),
        Op("measures", ("measures", "--method", "both", "--q", "0.9"),
           dict(n=1, alpha=2.0, q=0.9, gamma=1.0)),
        Op("sweep", ("sweep", "--n", "1", "--q", "1.0"), dict(grid=[(1, 2.0, 1.0, 1.0)])),
        _sample(1, 2.0, 1.0, 1.0, 200, 1),
    ]


# 3e5/n draws per call, so every call writes 3e5 coordinates (1.8e5 draws on average)
BULK_COORDINATES = 300_000


def build_bulk_sample(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    beta_q = [_lerp(u, 1.1, 2.0, 3) for u in _strata(rng, 3)]
    betaprime_q = [_lerp(u, 0.85, 0.97, 3) for u in _strata(rng, 3)]
    ops = []
    for i, n in enumerate((1, 2, 3)):
        for q in (1.0, beta_q[i], betaprime_q[i]):
            out = workdir / f"sample-n{n}-q{q!r}.csv"
            ops.append(_sample(n, 2.0, q, round(rng.uniform(0.5, 2.0), 3),
                               BULK_COORDINATES // n, rng.randrange(2**31), out))
    rng.shuffle(ops)
    return ops


def warmup_bulk_sample(workdir: Path) -> list:
    return [_sample(2, 2.0, q, 1.0, 2000, 1, workdir / "warmup.csv") for q in (1.0, 1.3, 0.9)]


# (role, n, q, nodes), all at moment 1. The first four are the criterion-08
# cases; n = 1 runs at 801 nodes because at 201 the n = 1, q = 1 discretisation
# error alone (3.4e-4) exceeds the 1e-4 objective gate. n2_tail is the
# documented solver defect. The moment is not seeded: L-BFGS-B's iteration
# count is a chaotic function of it (13.5k to 18.3k for n = 2 over five seeds),
# which alone spread the pass time by 15% from seed to seed. The seed orders
# the cases.
SOLVE_CASES = (
    ("n1_gauss", 1, 1.0, 801),
    ("n1_compact", 1, 1.5, 801),
    ("n2", 2, 1.2, 201),
    ("n3", 3, 1.1, 201),
    ("n2_tail", 2, 0.9, 201),
)


def _minimize(role: str, n: int, q: float, nodes: int) -> Op:
    argv = ("minimize", "--n", str(n), "--alpha", "2.0", "--q", repr(q), "--moment", "1.0",
            "--nodes", str(nodes))
    return Op("minimize", argv, dict(role=role, n=n, alpha=2.0, q=q, moment=1.0, nodes=nodes))


def build_solve(seed: int, workdir: Path) -> list:
    ops = [_minimize(*case) for case in SOLVE_CASES]
    random.Random(seed).shuffle(ops)
    return ops


def warmup_solve(workdir: Path) -> list:
    return [_minimize("warmup", 1, 1.0, 60)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "interactive",
            "280 short calls like one researcher's script: verify --all on mixtures, profile "
            "tables and uniform balls, family members, measures, sweeps, small samples. "
            "Quadrature blocks here; the solver never runs.",
            build_interactive, warmup_interactive, 2,
        ),
        Workload(
            "bulk-sample",
            "9 sample --out calls of 3e5/n draws, every radial law (gamma, beta, beta-prime) "
            "at n = 1, 2, 3: incomplete-beta/gamma inversion and CSV output block here.",
            build_bulk_sample, warmup_bulk_sample, 2,
        ),
        Workload(
            "solve",
            "minimize on the four criterion-08 cases at reduced nodes plus the n = 2, "
            "q = 0.9 power-tail case, a documented solver defect counted as failed. "
            "The only workload that runs variational.",
            build_solve, warmup_solve, 1,
        ),
    )
}
