"""The two CLI-level workloads: seeded parameter lists and the invocations of one op.

An op is a fixed list of `pearceydet` invocations, each written to its own
output file.  It is made of parts of four kinds (`scan`, `stats`,
`trajectory`, `oracles`), each checked on its own; a workload pairs two
kinds in every op:

* `scan_stats`: a 7-point `scan`, then `moments` and `clt` at one (s, rho).
* `trajectory_oracles`: a `hamiltonian` sweep, then `kernel --oracle all`
  on a 2x2 grid and `chf-verify`.

The parameters of one run are a list of ops drawn from the seed; a run
repeats that list in whole cycles, so the mix of work a run measures does not
depend on how fast the program is.

Each parameter range is cut into as many equal strata as a cycle has ops,
and every op takes one stratum of each parameter (a Latin hypercube).  Which
strata go together is fixed per part kind; the seed moves each value within
the middle half of its stratum.  So every seed covers every range evenly,
and the cost of a cycle, which steps with the Nystrom orders the parameters
need, varies little from one seed to the next.  The op count of a cycle is
odd, so that the median and the tail percentile fall inside a cluster of
like ops rather than between two.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Each range is one where the program's outputs are validated: see README.md.
SCAN_S_MIN, SCAN_S_MAX, SCAN_S_STEPS = 1.0, 12.0, 7
SCAN_GAMMA = (0.05, 0.99)
SCAN_RHO = (-2.0, 2.0)
STATS_S = (4.0, 12.0)
STATS_RHO = (-1.0, 1.0)
TRAJ_S0 = (6.0, 10.0)
# Anchors with theta3(s0; rho) above this lose accuracy without an error
# (see CHANGES.md); the anchor range shrinks to [6, 8] at rho = 2.
TRAJ_THETA3_MAX = 16.0
TRAJ_S_END = 0.5
TRAJ_GAMMA = (0.1, 0.95)
TRAJ_RHO = (-2.0, 2.0)
ORACLE_XY = 6.0
ORACLE_MIN_SEPARATION = 0.5
ORACLE_RHO = (-2.0, 2.0)
CHF_BETA_IM = (0.03, 0.4)

WORKLOADS = {"scan_stats": ("scan", "stats"),
             "trajectory_oracles": ("trajectory", "oracles")}
OPS_PER_CYCLE = 7
JITTER = 0.5


@dataclass(frozen=True)
class Part:
    """One kind of request within an op: its seeded parameters and CLI argument lists."""

    kind: str
    params: dict
    argvs: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Op:
    workload: str
    parts: tuple[Part, ...]

    @property
    def argvs(self) -> tuple[tuple[str, ...], ...]:
        return tuple(argv for part in self.parts for argv in part.argvs)


def _fmt(value: float) -> str:
    return f"{value:.4f}"


class _Draws:
    """Stratified draws: the stratum order from the part kind, the jitter from the seed."""

    def __init__(self, kind: str, seed: int):
        self.design = random.Random(kind)
        self.rng = random.Random(f"{kind}:{seed}")

    def stratified(self, k: int, lo: float, hi: float) -> list[float]:
        strata = list(range(k))
        self.design.shuffle(strata)
        return [float(_fmt(lo + (hi - lo) * (j + 0.5 + JITTER * (self.rng.random() - 0.5)) / k))
                for j in strata]

    def uniform(self, lo: float, hi: float) -> float:
        return float(_fmt(self.rng.uniform(lo, hi)))


def _scan_parts(draws: _Draws, k: int) -> list[Part]:
    gammas = draws.stratified(k, *SCAN_GAMMA)
    rhos = draws.stratified(k, *SCAN_RHO)
    parts = []
    for g, r in zip(gammas, rhos):
        argv = ("scan", "--gamma", _fmt(g), "--rho", _fmt(r),
                "--s-min", _fmt(SCAN_S_MIN), "--s-max", _fmt(SCAN_S_MAX),
                "--s-steps", str(SCAN_S_STEPS))
        parts.append(Part("scan", {"gamma": g, "rho": r}, (argv,)))
    return parts


def _stats_parts(draws: _Draws, k: int) -> list[Part]:
    ss = draws.stratified(k, *STATS_S)
    rhos = draws.stratified(k, *STATS_RHO)
    parts = []
    for s, r in zip(ss, rhos):
        common = ("--s", _fmt(s), "--rho", _fmt(r))
        parts.append(Part("stats", {"s": s, "rho": r},
                          (("moments",) + common, ("clt",) + common)))
    return parts


def anchor_cap(rho: float) -> float:
    """Largest anchor s0 <= 10 with theta3(s0; rho) = (3/4) s0^(4/3) + (rho/2) s0^(2/3) <= 16."""
    t = (-0.5 * rho + math.sqrt(0.25 * rho * rho + 3.0 * TRAJ_THETA3_MAX)) / 1.5
    return min(TRAJ_S0[1], t ** 1.5)


def _trajectory_parts(draws: _Draws, k: int) -> list[Part]:
    shares = draws.stratified(k, 0.0, 1.0)
    gammas = draws.stratified(k, *TRAJ_GAMMA)
    rhos = draws.stratified(k, *TRAJ_RHO)
    parts = []
    for u, g, r in zip(shares, gammas, rhos):
        s0 = float(_fmt(TRAJ_S0[0] + u * (anchor_cap(r) - TRAJ_S0[0])))
        argv = ("hamiltonian", "--gamma", _fmt(g), "--rho", _fmt(r),
                "--s-max", _fmt(s0), "--s-min", _fmt(TRAJ_S_END))
        parts.append(Part("trajectory", {"s0": s0, "gamma": g, "rho": r}, (argv,)))
    return parts


def _oracle_parts(draws: _Draws, k: int) -> list[Part]:
    rhos = draws.stratified(k, *ORACLE_RHO)
    betas = draws.stratified(k, *CHF_BETA_IM)
    parts = []
    for r, b in zip(rhos, betas):
        while True:
            lo, hi = sorted(draws.uniform(-ORACLE_XY, ORACLE_XY) for _ in range(2))
            if hi - lo >= ORACLE_MIN_SEPARATION:
                break
        kernel = ("kernel", "--oracle", "all", "--rho", _fmt(r),
                  "--s-min", _fmt(lo), "--s-max", _fmt(hi), "--s-steps", "2")
        chf = ("chf-verify", "--beta-im", _fmt(b), "--format", "json")
        parts.append(Part("oracles", {"rho": r, "x_lo": lo, "x_hi": hi, "beta_im": b},
                          (kernel, chf)))
    return parts


_BUILDERS = {"scan": _scan_parts, "stats": _stats_parts,
             "trajectory": _trajectory_parts, "oracles": _oracle_parts}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The seeded op list of one cycle; the same seed gives the same list."""
    columns = [_BUILDERS[kind](_Draws(kind, seed), OPS_PER_CYCLE)
               for kind in WORKLOADS[workload]]
    return [Op(workload, parts) for parts in zip(*columns)]
