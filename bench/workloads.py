"""Seeded request generators for the three benchmark workloads.

A request is either a fejerlab CLI argv (run in-process through
``fejerlab.cli.main``) or a ``balance`` call, which no subcommand exposes.
Every option is written as ``--flag=value`` so negative fractions parse and
the checker can read the argv back without argparse.

A workload is an endless stream of *cycles* of a few seconds of work each,
and a run stops at the first cycle boundary after its time is up.  Every
cycle has the same composition: the sizes that set a request's cost (n,
p_max, the number of y0, the precision) are spread evenly over their ranges
from a seeded offset, not drawn independently.  Two seeds therefore give
different requests with nearly the same mix of costs; independent draws
would let the seed move p50, p90 and throughput by more than any change worth
measuring.  Choices that do not change the cost (which y0, which alpha and
beta, the order within a cycle) are drawn at random.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("eq1_sweep", "exact_sweep", "jacobi_explore")

#: The one (alpha, beta) of eq1_sweep; its root ladder is warmed before timing.
EQ1_JACOBI = ("1/3", "1/5")
EQ1_N = (2, 48)
EQ1_FAMILIES = ("chebyshev1", "chebyshev2", "equispaced", "gauss_jacobi")
Y0_POOL = ("0", "1/2", "-1/2", "3/10", "-7/10", "1/3", "-2/9", "5/8", "-9/10", "1/7")

EXACT_N_MAX = 1201


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    kind is the checker's dispatch tag; argv is the CLI argv (for ``balance``
    the single element is n); n is the largest n the request touches, used for
    the size histogram and the repeat share; key identifies the cached state
    the request needs (knot family parameters and precision), or None.
    """

    kind: str
    argv: tuple[str, ...]
    n: int
    key: tuple | None = None


class _Spread:
    """k values at evenly spaced quantiles (j + u) / k of values, per call.

    The offset u starts at a seeded value and moves by the golden ratio from
    call to call (a Kronecker sequence), so successive calls also fill the
    range evenly, even for k = 1.
    """

    def __init__(self, rng: random.Random, values, k: int):
        self.values, self.k, self.u = values, k, rng.random()

    def __call__(self) -> list:
        u, self.u = self.u, (self.u + 0.6180339887498949) % 1.0
        return [self.values[int((j + u) / self.k * len(self.values))] for j in range(self.k)]


def _odds(lo: int, hi: int) -> range:
    return range(lo | 1, hi + 1, 2)


def _n_list(top: int, k: int) -> list[int]:
    """The (up to) k consecutive odd n >= 3 ending at top."""
    return list(_odds(max(3, top - 2 * (k - 1)), top))


def _fresh_jacobi(rng: random.Random) -> tuple[str, str]:
    """A Jacobi (alpha, beta) pair that a run almost never draws twice."""
    def one() -> str:
        q = rng.randint(7, 97)
        return str(Fraction(rng.randint(-q + 1, 3 * q), q))
    return one(), one()


def _eq1_cycles(rng: random.Random, tiny: bool):
    ns = _Spread(rng, range(2, 7) if tiny else range(EQ1_N[0], EQ1_N[1] + 1), 16)
    while True:
        # Sixteen n spread over the range, in four size groups of four.  Each
        # group holds every family once and one 512-bit request (a closed-form
        # family; gauss_jacobi stays at 256 bits so one warmed ladder serves
        # it).  Family, precision, p_max and the y0 count are fixed per rank,
        # so every cycle costs about the same; the seed moves n and the y0.
        shapes = []
        for j, n in enumerate(ns()):
            group, family = j // 4, EQ1_FAMILIES[j % 4]
            bits = 512 if j % 4 == group % 3 else 256
            shapes.append((n, family, 1 + (3 * j) % 8, 1 + (j + group) % 4, bits))
        cycle = []
        for n, family, p_max, k, bits in shapes:
            argv = ["verify-eq1", f"--family={family}", f"--n={n}", f"--p-max={p_max}"]
            argv += [f"--y0={y}" for y in rng.sample(Y0_POOL, k)]
            key = None
            if family == "gauss_jacobi":
                argv += [f"--alpha={EQ1_JACOBI[0]}", f"--beta={EQ1_JACOBI[1]}"]
                key = (family, *EQ1_JACOBI, bits)
            argv.append(f"--precision-bits={bits}")
            cycle.append(Request("verify-eq1", tuple(argv), n, key))
        rng.shuffle(cycle)
        yield cycle


def _exact_cycles(rng: random.Random, tiny: bool):
    singles = _odds(3, 41 if tiny else EXACT_N_MAX)
    holdouts = _odds(43, 61 if tiny else 401)
    verify_n, ps_n = _Spread(rng, singles, 5), _Spread(rng, singles, 2)
    sweep_n = _Spread(rng, _odds(5, 21) if tiny else _odds(21, 201), 1)
    ps_sweep_n = _Spread(rng, _odds(11, 21 if tiny else 151), 2)
    holdout_top = _Spread(rng, holdouts[1:], 3)
    # balance costs ~n^3 (about 1 s at n = 801); a larger top would let a
    # single draw swing a whole run.
    balance_n = _Spread(rng, _odds(21, 41) if tiny else _odds(101, 801), 1)
    while True:
        cycle = []
        for n in verify_n():
            cycle.append(Request("verify-identity", ("verify-identity", f"--n={n}"), n))
        for n in sweep_n():
            cycle.append(Request("verify-identity", ("verify-identity", f"--n-max={n}"), n))
        m_offset = rng.randrange(4)
        for j, n in enumerate(ps_n()):
            m = 1 + (2 * j + m_offset) % 4
            cycle.append(Request("power-sum", ("power-sum", f"--m={m}", f"--n={n}"), n))
        for j, n in enumerate(ps_sweep_n()):
            m = 1 + (2 * j + m_offset + 1) % 4
            cycle.append(Request("power-sum", ("power-sum", f"--m={m}", f"--n-max={n}"), n))
        for m, top in zip(rng.sample((1, 2, 3), 3), holdout_top()):
            train = sorted(rng.sample(_odds(3, 41), 2 * m + 1 + rng.randint(0, 2)))
            holdout = [rng.choice(_odds(holdouts[0], top - 2)), top]
            argv = (
                "conjecture",
                f"--m={m}",
                "--train=" + ",".join(map(str, train)),
                "--holdout=" + ",".join(map(str, holdout)),
            )
            cycle.append(Request("formula", argv, top))
        for n in balance_n():
            cycle.append(Request("balance", (str(n),), n))
        rng.shuffle(cycle)
        yield cycle


#: jacobi_explore's knot dumps of one cycle, as (n, bits).  The four
#: n = 24 dumps are the slowest requests and a sixth of a cycle, so p90 falls
#: inside their group, which the (alpha, beta) draws of a run fill with four
#: samples a cycle, rather than on one sample or between two groups.
JACOBI_KNOTS = ((8, 256), (16, 512), (24, 256), (24, 256), (24, 256), (24, 256))


def _jacobi_cycles(rng: random.Random, tiny: bool):
    knot_shapes = ((4, 256), (5, 512), (6, 256), (7, 256), (8, 256)) if tiny else JACOBI_KNOTS
    tops = _odds(5, 9 if tiny else 13)
    legendre_top, general_top = _Spread(rng, tops, 4), _Spread(rng, tops, 16)
    while True:
        cycle = []
        for n, bits in knot_shapes:
            alpha, beta = _fresh_jacobi(rng)
            argv = (
                "knots",
                "--family=gauss_jacobi",
                f"--n={n}",
                f"--alpha={alpha}",
                f"--beta={beta}",
                f"--precision-bits={bits}",
            )
            cycle.append(Request("knots", argv, n, ("gauss_jacobi", alpha, beta, bits)))
        # Legendre knots at y0 = 0: the parts are rational, so the recognizer
        # fires and explore rebuilds each basis at twice the precision.
        for p, top in zip(range(1, 5), legendre_top()):
            cycle.append(_explore(("0", "0"), p, "0", _n_list(top, 2 + p % 2), 256))
        # General (alpha, beta): irrational parts, no recognition, cold
        # ladders; p cycles, and a third run at 512 bits.
        s_p = rng.randrange(4)
        for j, top in enumerate(general_top()):
            n_list = _n_list(top, 2 + j % 2)
            bits = 512 if j % 3 == 0 else 256
            y0 = rng.choice(Y0_POOL[1:])
            cycle.append(_explore(_fresh_jacobi(rng), 1 + (j + s_p) % 4, y0, n_list, bits))
        rng.shuffle(cycle)
        yield cycle


def _explore(ab: tuple[str, str], p: int, y0: str, n_list: list[int], bits: int) -> Request:
    argv = (
        "conjecture",
        "--family=gauss_jacobi",
        f"--alpha={ab[0]}",
        f"--beta={ab[1]}",
        f"--p={p}",
        f"--y0={y0}",
        "--n-list=" + ",".join(map(str, n_list)),
        f"--precision-bits={bits}",
    )
    return Request("explore", argv, n_list[-1], ("gauss_jacobi", *ab, bits))


_CYCLES = {"eq1_sweep": _eq1_cycles, "exact_sweep": _exact_cycles, "jacobi_explore": _jacobi_cycles}


def iter_cycles(workload: str, seed: int, tiny: bool = False):
    """The endless seeded stream of request cycles of a workload."""
    return _CYCLES[workload](random.Random(f"{workload}:{seed}"), tiny)


def make_requests(workload: str, seed: int, count: int, tiny: bool = False) -> list[Request]:
    """The first count requests of the stream."""
    flat = itertools.chain.from_iterable(iter_cycles(workload, seed, tiny))
    return list(itertools.islice(flat, count))


def warmup_requests(workload: str, tiny: bool = False) -> list[Request]:
    """Untimed requests that fill the caches a workload is meant to find warm.

    eq1_sweep uses one (alpha, beta) throughout, so its Jacobi root ladder is
    built once, to the largest n, before timing starts; the other workloads
    are meant to meet their caches cold.
    """
    if workload != "eq1_sweep":
        return []
    n = 6 if tiny else EQ1_N[1]
    argv = (
        "knots",
        "--family=gauss_jacobi",
        f"--n={n}",
        f"--alpha={EQ1_JACOBI[0]}",
        f"--beta={EQ1_JACOBI[1]}",
        "--precision-bits=256",
    )
    return [Request("knots", argv, n, ("gauss_jacobi", *EQ1_JACOBI, 256))]
