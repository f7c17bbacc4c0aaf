"""Seeded perfbench workloads and the checks on their outputs.

A workload is a list of CLI invocations.  Each invocation carries the config
text the program sees, the exit code it must return, and a check that reads
the files the CLI wrote and returns a list of problems (empty when correct).
The seed only picks among inputs of equal shape (isomorphic pairs, equal word
lengths, equal term counts), so the work per pass does not depend on it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: The fixed CSV schema, spelled out here rather than read from the program.
CSV_HEADER = "experiment,param_hash,index,bound,estimate,residual,support,converged,verdict"

WORKLOADS = ("free-window", "ideal-longword", "torsion-falsify", "certify")

F2_HEADER = "presentation.orders = inf, inf\npresentation.names = a, b\n"


@dataclass(frozen=True)
class Size:
    """Budgets per workload; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    free_J_max: int
    free_J_list: tuple[int, ...]
    free_budgets: str
    ideal_budgets: str
    torsion_J_max: int
    torsion_budgets: str
    pingpong: tuple[int, int, int]  # L, J_max, R
    orbits_R: int
    trace_terms: int


FULL = Size(
    free_J_max=8,
    free_J_list=(1, 2, 4, 8, 12),
    free_budgets="",
    ideal_budgets="budgets.max_iterations = 25\nbudgets.support_cap = 1500\n",
    torsion_J_max=32,
    torsion_budgets="budgets.max_iterations = 60\nbudgets.support_cap = 6000\n",
    pingpong=(8, 4, 6),
    orbits_R=9,
    trace_terms=150,
)

SMOKE = Size(
    free_J_max=3,
    free_J_list=(1, 2, 3),
    free_budgets="budgets.support_cap = 2000\n",
    ideal_budgets="budgets.max_iterations = 5\nbudgets.support_cap = 100\n",
    torsion_J_max=26,
    torsion_budgets="budgets.max_iterations = 20\nbudgets.support_cap = 300\n",
    pingpong=(3, 2, 2),
    orbits_R=3,
    trace_terms=6,
)

SIZES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Invocation:
    label: str
    experiment: str
    config: str
    expected_exit: int
    check: Callable[[Path], list[str]]
    exact: Callable[[int], float] | None = None  # exact norm per row index, if known


# ---------------------------------------------------------------------------
# reading and checking outputs


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def read_rows(csv_path: Path) -> tuple[list[str], list[list[str]]]:
    """Problems with the CSV shape, and its data rows split into fields."""
    if not csv_path.is_file():
        return [f"{csv_path.name}: missing"], []
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{csv_path.name}: header is not exactly {CSV_HEADER!r}"], []
    rows = [line.split(",") for line in lines[1:]]
    bad = [r for r in rows if len(r) != 9]
    return ([f"{csv_path.name}: {len(bad)} rows without 9 fields"] if bad else []), rows


def free_exact(J: int) -> float:
    """Exact norm of the uniform average of J free unitaries (Akemann-Ostrand)."""
    return 1.0 if J == 1 else 2.0 * math.sqrt(J - 1) / J


def bound_gaps(inv: Invocation, csv_path: Path) -> list[float]:
    """(exact - certified) / exact for every row with J >= 2 and a known exact norm."""
    _, rows = read_rows(csv_path)
    return [
        (inv.exact(int(r[2])) - float(r[4])) / inv.exact(int(r[2]))
        for r in rows
        if inv.exact is not None and int(r[2]) >= 2
    ]


def _check_sweep(indices, bound_for, exact=None, verdict="PASS"):
    """Rows exactly at ``indices``, exact bound column, verdicts, and quality."""

    def check(csv_path: Path) -> list[str]:
        problems, rows = read_rows(csv_path)
        if problems:
            return problems
        name = csv_path.name
        got = [int(r[2]) for r in rows]
        if got != list(indices):
            return [f"{name}: row indices {got} != {list(indices)}"]
        for r in rows:
            J, bound, est = int(r[2]), float(r[3]), float(r[4])
            if r[3] != fmt(bound_for(J)):
                problems.append(f"{name}: J={J} bound {r[3]} != {fmt(bound_for(J))}")
            if verdict is not None and r[8] != verdict:
                problems.append(f"{name}: J={J} verdict {r[8]} != {verdict}")
            if verdict == "PASS" and est > bound + 1e-9:
                problems.append(f"{name}: J={J} estimate {est} above bound {bound}")
            if exact is not None and not 0.85 * exact(J) <= est <= exact(J) + 1e-9:
                problems.append(f"{name}: J={J} estimate {est} outside [0.85, 1] x {exact(J)}")
        return problems

    return check


# ---------------------------------------------------------------------------
# seeded inputs


def nielsen_pairs() -> list[tuple[str, str]]:
    """Bases (h, g) of F2 = <a, b> with |h| = 2, |g| = 1.

    Each is the Nielsen image (o g, g) or (g^-1 o, g) of the basis (o, g), so
    the conjugates g^-j h g^j are free and have length 2j + 2 for every pair.
    """
    pairs = []
    for g, o in (("a", "b"), ("b", "a")):
        for gs, ginv in ((g, f"{g}^-1"), (f"{g}^-1", g)):
            for os_ in (o, f"{o}^-1"):
                pairs.append((f"{os_} {gs}", gs))
                pairs.append((f"{ginv} {os_}", gs))
    return pairs


def _random_word(rng: random.Random, max_syllables: int) -> str:
    syl, prev = [], None
    for _ in range(rng.randint(1, max_syllables)):
        name = "b" if prev == "a" else "a" if prev == "b" else rng.choice("ab")
        exp = rng.choice((-2, -1, 1, 2))
        syl.append(name if exp == 1 else f"{name}^{exp}")
        prev = name
    return " ".join(syl)


def _random_coeff(rng: random.Random) -> str:
    # sixteenths are exact in binary and survive the CSV's 12 digits
    re_, im = rng.randint(-32, 32) / 16, rng.choice((-1, 1)) * rng.randint(1, 32) / 16
    return f"{re_}{im:+}j"


def _random_operator(rng: random.Random, terms: int) -> tuple[str, complex]:
    """Operator text with ``terms`` distinct words, one of them ``e``; and its trace."""
    words = {"e"}
    while len(words) < terms:
        words.add(_random_word(rng, 4))
    coeffs = {w: _random_coeff(rng) for w in sorted(words)}
    return "; ".join(f"{c}*{w}" for w, c in coeffs.items()), complex(coeffs["e"])


# ---------------------------------------------------------------------------
# workloads


def free_window(rng: random.Random, size: Size) -> list[Invocation]:
    """Canonical (a, b) panalytic sweep plus the average sweep on a seeded basis."""
    h, g = rng.choice(nielsen_pairs())
    J_list = size.free_J_list
    return [
        Invocation(
            "panalytic-ab",
            "panalytic",
            F2_HEADER + "experiment = panalytic\nelements.h = a\nelements.g = b\n"
            f"budgets.J_max = {size.free_J_max}\n" + size.free_budgets,
            0,
            _check_sweep(range(1, size.free_J_max + 1), lambda J: 2.0 / math.sqrt(J), free_exact),
            free_exact,
        ),
        Invocation(
            "average-nielsen",
            "average",
            F2_HEADER + f"experiment = average\noperator.T = 2*e; 1*{h}\nelements.g = {g}\n"
            f"budgets.J_list = {', '.join(map(str, J_list))}\n" + size.free_budgets,
            0,
            _check_sweep(J_list, lambda J: 2.0 / math.sqrt(J), free_exact),
            free_exact,
        ),
    ]


def ideal_longword(rng: random.Random, size: Size) -> list[Invocation]:
    """Criterion-4 ideal experiment under seeded generator names and a seeded swap.

    Inverting a generator is left out: it changes which words collide under
    the tuple hash, and so the run time, by up to 50%.
    """
    x, y = rng.choice((("a", "b"), ("u", "v"), ("x", "y"), ("p", "q")))
    p, q = (x, y) if rng.random() < 0.5 else (y, x)
    base = _check_sweep(range(1, 18), lambda J: (2.0 / math.sqrt(J)) * 2.0)

    def check(csv_path: Path) -> list[str]:
        problems = base(csv_path)
        summary = csv_path.with_suffix(".txt")
        if "first drops below the threshold at J = 17" not in summary.read_text():
            problems.append(f"{summary.name}: threshold does not close at J = 17")
        return problems

    return [
        Invocation(
            "ideal",
            "ideal",
            f"presentation.orders = inf, inf\npresentation.names = {x}, {y}\n"
            f"experiment = ideal\noperator.T = 2*e; 1*{p}; 1*{q}\n"
            f"elements.k = e\nelements.g = {p} {q}\nbudgets.J_max = 17\n" + size.ideal_budgets,
            0,
            check,
        )
    ]


def _recertify(witness_path: Path, names: tuple[str, str], h: str, g: str) -> list[str]:
    """Re-apply T to the serialized witness and compare with its reported estimate."""
    from actrep.cli import parse_word
    from actrep.dynamics import CoefficientSequence, build_Ta
    from actrep.groups import free_product
    from actrep.operators import StateVector, op_apply
    from actrep.spaces import CayleySpace

    data = json.loads(witness_path.read_text())
    pres = free_product([2, 3], names=names)
    T = build_Ta(parse_word(h, pres), parse_word(g, pres), CoefficientSequence.uniform(data["index"]))
    w = StateVector(
        CayleySpace(pres), {parse_word(x, pres): complex(re_, im) for x, re_, im in data["vector"]}
    )
    ratio = op_apply(T, w).norm() / w.norm()
    problems = []
    if abs(ratio - data["estimate"]) > 1e-9 * abs(data["estimate"]):
        problems.append(f"{witness_path.name}: |Tw|/|w| = {ratio!r} != estimate {data['estimate']!r}")
    if not ratio > data["bound"]:
        problems.append(f"{witness_path.name}: |Tw|/|w| = {ratio!r} does not exceed {data['bound']!r}")
    return problems


def torsion_falsify(rng: random.Random, size: Size) -> list[Invocation]:
    """Z/2*Z/3 panalytic sweep whose conjugates collapse; must end FALSIFIED."""
    s, t = rng.choice((("s", "t"), ("u", "v"), ("x", "y"), ("p", "q")))
    h, g = rng.choice((t, f"{t}^2")), s
    pres = f"presentation.orders = 2, 3\npresentation.names = {s}, {t}\n"
    J_max = size.torsion_J_max
    base = _check_sweep(range(1, J_max + 1), lambda J: 2.0 / math.sqrt(J), verdict=None)

    def check(csv_path: Path) -> list[str]:
        problems = base(csv_path)
        _, rows = read_rows(csv_path)
        hits = [
            r for r in rows
            if r[8] == "FALSIFIED" and float(r[4]) >= 0.4 and float(r[3]) < 0.4
        ]
        if not hits:
            return problems + [f"{csv_path.name}: no FALSIFIED row with estimate >= 0.4 > bound"]
        witness = csv_path.with_suffix(".witness.json")
        if not witness.is_file():
            return problems + [f"{witness.name}: missing"]
        problems += _recertify(witness, (s, t), h, g)
        data = json.loads(witness.read_text())
        first = next(r for r in rows if r[8] == "FALSIFIED")
        if (int(first[2]), first[4]) != (data["index"], fmt(data["estimate"])):
            problems.append(f"{witness.name}: does not match the first FALSIFIED row")
        return problems

    return [
        Invocation(
            "panalytic-z2z3",
            "panalytic",
            pres + f"experiment = panalytic\nelements.h = {h}\nelements.g = {g}\n"
            f"budgets.J_max = {J_max}\n" + size.torsion_budgets,
            1,
            check,
        )
    ]


def orbit_pieces(R: int, m: int) -> int:
    """Orbit pieces of <x^m> (x a generator of F2) on the radius-R ball.

    A ball point is x^k y with y not starting with a power of x; for fixed y
    the exponents |k| <= R - |y| split into min(m, 2(R - |y|) + 1) residue
    classes mod m, each one piece.  There are 2 * 3^(l-1) such y of length l.
    """
    return sum(
        (1 if l == 0 else 2 * 3 ** (l - 1)) * min(m, 2 * (R - l) + 1) for l in range(R + 1)
    )


def certify(rng: random.Random, size: Size) -> list[Invocation]:
    """pingpong, orbits, trace and blowup: every verdict is exact, no norm estimates."""
    L, J, R = size.pingpong
    h, g = rng.choice(nielsen_pairs())
    R_orb, m = size.orbits_R, 2
    x = f"{rng.choice('ab')}^{rng.choice((m, -m))}"
    S_text, _ = _random_operator(rng, size.trace_terms)
    T_text, trace = _random_operator(rng, size.trace_terms)
    N = rng.choice((4, 9, 16, 25))
    t = rng.choice(("t", "t^2"))

    def check_pingpong(csv_path: Path) -> list[str]:
        problems, rows = read_rows(csv_path)
        if problems:
            return problems
        expected = [["0", "0", "0", "true", "PASS"], ["0", "0", "0", "true", "PASS"],
                    [fmt(0.5), "1", "0", "true", "PASS"]]
        got = [[r[3], r[4], r[5], r[7], r[8]] for r in rows]
        if got != expected:
            problems.append(f"{csv_path.name}: rows {got} != {expected}")
        if any(r[6] != str(3 ** L) for r in rows):
            problems.append(f"{csv_path.name}: W_0 word count is not 3^L = {3 ** L}")
        return problems

    def check_orbits(csv_path: Path) -> list[str]:
        problems, rows = read_rows(csv_path)
        if problems:
            return problems
        pieces, points = orbit_pieces(R_orb, m), 2 * 3 ** R_orb - 1
        if len(rows) != pieces:
            problems.append(f"{csv_path.name}: {len(rows)} orbit pieces != {pieces}")
        if sum(int(r[6]) for r in rows) != points:
            problems.append(f"{csv_path.name}: pieces do not cover the {points}-point ball")
        if any(r[8] != "PASS" for r in rows):
            problems.append(f"{csv_path.name}: non-PASS row")
        if f"({points} points)" not in csv_path.with_suffix(".txt").read_text():
            problems.append(f"{csv_path.name}: summary does not report {points} points")
        return problems

    def check_trace(csv_path: Path) -> list[str]:
        problems, rows = read_rows(csv_path)
        if problems:
            return problems
        expected = [[fmt(trace.real), fmt(trace.imag), str(size.trace_terms), "PASS"]]
        got = [[r[4], r[5], r[6], r[8]] for r in rows]
        return [f"{csv_path.name}: rows {got} != {expected}"] if got != expected else []

    def check_blowup(csv_path: Path) -> list[str]:
        problems, rows = read_rows(csv_path)
        if problems:
            return problems
        root = fmt(math.sqrt(N))
        expected = [[str(N), root, root, "0", "1", "PASS"]]
        got = [[r[2], r[3], r[4], r[5], r[6], r[8]] for r in rows]
        return [f"{csv_path.name}: rows {got} != {expected}"] if got != expected else []

    z2z3 = "presentation.orders = 2, 3\npresentation.names = s, t\n"
    return [
        Invocation(
            "pingpong", "pingpong",
            F2_HEADER + f"experiment = pingpong\nelements.h = {h}\nelements.g = {g}\n"
            f"budgets.L = {L}\nbudgets.J_max = {J}\nbudgets.R = {R}\n",
            0, check_pingpong,
        ),
        Invocation(
            "orbits", "orbits",
            F2_HEADER + f"experiment = orbits\nsubgroup = {x}\nbudgets.R = {R_orb}\n",
            0, check_orbits,
        ),
        Invocation(
            "trace", "trace",
            F2_HEADER + f"experiment = trace\noperator.T = {T_text}\noperator.S = {S_text}\n",
            0, check_trace,
        ),
        Invocation(
            "blowup", "blowup",
            z2z3 + f"experiment = blowup\nelements.h = {t}\nelements.g = s\nbudgets.N = {N}\n",
            0, check_blowup,
        ),
    ]


BUILDERS = {
    "free-window": free_window,
    "ideal-longword": ideal_longword,
    "torsion-falsify": torsion_falsify,
    "certify": certify,
}


def build(workload: str, seed: int, size: Size = FULL) -> list[Invocation]:
    """The invocations of one workload; the same seed gives the same inputs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), size)
