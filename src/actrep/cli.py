"""Experiment runner: every engine as a subcommand with deterministic output.

Configs are flat key=value text files (one dotted key per line, ``#`` starts
a comment).  Each run writes its runner's value rows as a fixed-schema CSV
(:func:`write_csv`), prints a plain-text summary, optionally emits a small
SVG chart, and exits 0 on PASS, 1 on FALSIFIED (serializing the falsifying
witness vector alongside the CSV), 2 on INCONCLUSIVE, 3 on configuration or
usage errors, an unwritable output path among them.  A run that writes a
CSV removes every sidecar (summary, witness, chart) that it does not write
itself, so no file an earlier run left at that path outlives it; a budget
overflow writes only the CSV header.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .groups import (
    INFINITE,
    FreeProductPresentation,
    GroupElement,
    reduce,
)
from .operators import (
    FormalOperator,
    NormBudget,
    StateVector,
    triangle_upper_bound,
)
from .spaces import (
    FALSIFIED,
    INCONCLUSIVE,
    PASS,
    BudgetExceededError,
    CayleySpace,
    CayleyWindow,
    orbit_labels,
)
from .dynamics import (
    DEFAULT_SLACK,
    EnvelopeReport,
    EnvelopeRow,
    averaging_decay_report,
    canonical_trace,
    envelope_sweep,
    finite_order_blowup,
    ideal_experiment,
    pingpong_certificate,
    tracial_property_check,
    verify_panalytic,
)

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

CSV_HEADER = "experiment,param_hash,index,bound,estimate,residual,support,converged,verdict"


class ConfigError(ValueError):
    """Unparseable or inconsistent configuration; maps to exit code 3."""


class WordParseError(ValueError):
    """A group word failed to parse under the presentation."""


# ---------------------------------------------------------------------------
# word and operator grammar


def parse_word(text: str, presentation: FreeProductPresentation) -> GroupElement:
    """Parse the canonical rendering: space-separated ``name`` or ``name^int``.

    The token ``e`` is the identity.  parse(render(x)) == x for every x.
    """
    name_to_index = {n: i for i, n in enumerate(presentation.factor_names)}
    raw: list[tuple[int, int]] = []
    for token in text.split():
        if token == "e":
            continue
        name, _, exp_text = token.partition("^")
        if name not in name_to_index:
            raise WordParseError(f"unknown generator {name!r} in {text!r}")
        if _ == "^":
            try:
                exp = int(exp_text)
            except ValueError:
                raise WordParseError(f"malformed exponent {exp_text!r} in {text!r}") from None
        else:
            exp = 1
        raw.append((name_to_index[name], exp))
    return reduce(presentation, raw)


def parse_operator(text: str, presentation: FreeProductPresentation) -> FormalOperator:
    """Parse ``coeff*word; coeff*word; ...`` into a formal operator.

    Coefficients accept any finite value ``complex()`` does ("2", "-0.5",
    "1+2j"); "nan", "inf" and "1e400" raise ConfigError, as do terms of one
    word that sum to a non-finite value.  A bare word means coefficient 1.
    """
    terms: list[tuple[complex, GroupElement]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff_text, star, word_text = chunk.partition("*")
        if star == "*":
            try:
                coeff = complex(coeff_text.strip().replace(" ", ""))
            except ValueError:
                raise WordParseError(f"malformed coefficient {coeff_text!r}") from None
            if not cmath.isfinite(coeff):
                # NaN compares false, so a NaN coefficient would fake a violation
                raise ConfigError(f"non-finite coefficient {coeff_text.strip()!r}")
        else:
            coeff, word_text = 1.0, chunk
        terms.append((coeff, parse_word(word_text.strip(), presentation)))
    op = FormalOperator.from_terms(presentation, terms)
    for g, c in op.coefficients.items():
        if not cmath.isfinite(c):
            raise ConfigError(f"non-finite coefficient sum at word {str(g)!r}")
    return op


# ---------------------------------------------------------------------------
# configuration


@dataclass
class Budgets:
    """The runners' budgets; the estimator's are :class:`NormBudget`'s fields."""

    J_max: int = 8
    J_list: tuple[int, ...] | None = None
    L: int = 6
    R: int = 6
    c_min: float = 0.5
    C: float = 2.0
    N: int = 4


@dataclass
class ExperimentConfig:
    presentation: FreeProductPresentation
    experiment: str
    elements: dict[str, str]
    operators: dict[str, str]
    subgroup: list[str]
    budgets: Budgets
    norm_budget: NormBudget
    output: str | None = None

    def element(self, name: str) -> GroupElement:
        if name not in self.elements:
            raise ConfigError(f"missing required element {name!r} (key elements.{name})")
        return parse_word(self.elements[name], self.presentation)

    def operator(self, name: str) -> FormalOperator:
        if name not in self.operators:
            raise ConfigError(f"missing required operator {name!r} (key operator.{name})")
        return parse_operator(self.operators[name], self.presentation)


def _parse_orders(text: str) -> tuple[int, ...]:
    orders = []
    for part in text.split(","):
        part = part.strip().lower()
        if part in ("inf", "infinite", "0"):
            orders.append(INFINITE)
        else:
            try:
                orders.append(int(part))
            except ValueError:
                raise ConfigError(f"bad factor order {part!r}") from None
    return tuple(orders)


def load_config_lines(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    where: dict[str, int] = {}  # the line of each key
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if eq != "=":
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        if key in where:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given again, first at line {where[key]}")
        raw[key], where[key] = value.strip(), lineno
    return raw


#: The keys without a prefix and their defaults; None marks no default.
_TOP_KEYS = {"presentation.orders": None, "presentation.names": None, "experiment": "",
             "output.path": None}

#: ``budgets.<name>``: the dataclass whose field it sets, and that field's
#: default, which types the value (``start_vector`` comes from ``--seed``).
_BUDGET_FIELDS = {
    f.name: (cls, f.default)
    for cls in (NormBudget, Budgets)
    for f in fields(cls)
    if f.name != "start_vector"
}


def _budget_value(default, text: str):
    """An int, a finite float, or for ``J_list`` (default None) a comma list of ints."""
    if default is None:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    value = type(default)(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def build_config(raw: dict[str, str], source: str = "<config>") -> ExperimentConfig:
    top = {key: raw.get(key, default) for key, default in _TOP_KEYS.items()}
    if top["presentation.orders"] is None:
        raise ConfigError(f"{source}: missing key presentation.orders")
    orders = _parse_orders(top["presentation.orders"])
    names_text = top["presentation.names"]
    if names_text is None:
        names = tuple(chr(ord("a") + i) for i in range(len(orders)))
    else:
        names = tuple(n.strip() for n in names_text.split(","))
    try:
        presentation = FreeProductPresentation(orders, names)
    except ValueError as exc:
        raise ConfigError(f"{source}: bad presentation: {exc}") from None

    experiment = top["experiment"]
    if experiment and experiment not in EXPERIMENTS:
        raise ConfigError(f"{source}: unknown experiment {experiment!r}")

    budgets: dict[type, dict] = {NormBudget: {}, Budgets: {}}
    elements: dict[str, str] = {}
    operators: dict[str, str] = {}
    subgroup: list[str] = []
    for key, value in raw.items():
        if key.startswith("elements."):
            elements[key.split(".", 1)[1]] = value
        elif key.startswith("operator."):
            operators[key.split(".", 1)[1]] = value
        elif key == "subgroup":
            subgroup = [part.strip() for part in value.split(";") if part.strip()]
        elif key.startswith("budgets."):
            name = key.split(".", 1)[1]
            if name not in _BUDGET_FIELDS:
                raise ConfigError(f"{source}: unknown budget key {key!r}")
            cls, default = _BUDGET_FIELDS[name]
            try:
                budgets[cls][name] = _budget_value(default, value)
            except ValueError:
                raise ConfigError(f"{source}: bad value for {key}: {value!r}") from None
        elif key not in _TOP_KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}")
    return ExperimentConfig(
        presentation=presentation,
        experiment=experiment,
        elements=elements,
        operators=operators,
        subgroup=subgroup,
        budgets=Budgets(**budgets[Budgets]),
        norm_budget=NormBudget(**budgets[NormBudget]),
        output=top["output.path"],
    )


def param_hash(raw: dict[str, str], seed: int | None, slack: float) -> str:
    payload = "\n".join(f"{k}={raw[k]}" for k in sorted(raw))
    payload += f"\nseed={seed}\nslack={fmt(slack)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# results


def fmt(x: float) -> str:
    """12 significant digits, period decimal separator, no locale."""
    return format(float(x), ".12g")


@dataclass
class ExperimentResult:
    """A runner's output; each row holds a CSV row's values after ``param_hash``,
    (index, bound, estimate, residual, support, converged, verdict)."""

    rows: list[tuple]
    verdict: str
    summary: list[str]
    witness: EnvelopeRow | None = None


def _witness_payload(experiment: str, row: EnvelopeRow) -> dict:
    vec = row.estimate.witness
    return {
        "experiment": experiment,
        "index": row.J,
        "bound": row.bound,
        "estimate": row.estimate.lower_bound,
        "vector": [
            [x.render(), c.real, c.imag] for x, c in (vec.coefficients.items() if vec else ())
        ],
    }


# ---------------------------------------------------------------------------
# runners


def _norm_budget(config: ExperimentConfig, seed: int | None, symbols) -> NormBudget:
    """The estimator budget; a seed adds a random start vector supported on
    the identity and the given ``symbols``, drawn in that order, which the
    runners pass in T's term order (``panalytic`` passes h and g^-1 h g).

    A row's estimator drops each entry its window cannot hold, after
    growing the window to its limits looking for it (:meth:`CayleyWindow.lookup`).
    No ``panalytic`` row's window holds h, so its J = 1 window in
    ``tests/golden_estimator/panalytic_seeded_line.cfg`` ends at 603 points
    with ``--seed 5`` and at 5 without.
    """
    if seed is None:
        return config.norm_budget
    rng = random.Random(seed)
    points = [config.presentation.identity(), *symbols]
    start = {x: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for x in points}
    return replace(config.norm_budget, start_vector=StateVector(CayleySpace(config.presentation), start))


def _sweep_result(rep: EnvelopeReport, summary: list[str]) -> ExperimentResult:
    """One value row per sweep row; the witness is the first row whose
    certified estimate exceeds its bound plus slack."""
    rows = [
        (
            r.J, r.bound, r.estimate.lower_bound, r.estimate.residual,
            r.estimate.support_size, r.estimate.converged, r.verdict,
        )
        for r in rep.rows
    ]
    first = next((r for r in rep.rows if r.falsified), None)
    return ExperimentResult(rows, rep.verdict, summary, first)


def run_panalytic(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    h = config.element("h")
    g = config.element("g")
    b = config.budgets
    budget = _norm_budget(config, seed, [h, g.inverse() * h * g])
    rep = verify_panalytic(h, g, b.J_max, C=b.C, budget=budget, slack=slack)
    return _sweep_result(rep, [f"panalytic: h={h} g={g} C={fmt(b.C)} J_max={b.J_max}"])


def run_average(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    T = config.operator("T")
    g = config.element("g")
    b = config.budgets
    if b.J_list is None and b.J_max < 1:
        raise ValueError("J_max must be >= 1")
    J_list = list(b.J_list) if b.J_list is not None else list(range(1, b.J_max + 1))
    budget = _norm_budget(config, seed, T.coefficients)
    rep = averaging_decay_report(T, g, J_list, C=b.C, budget=budget, slack=slack)
    summary = [
        f"average: |supp T|={len(T)} g={g} identity coefficient={rep.identity_coefficient}",
        f"off-identity l1 mass: {fmt(rep.off_identity_l1)}",
    ]
    return _sweep_result(rep, summary)


def run_norm(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    T = config.operator("T")
    bound = triangle_upper_bound(T)
    budget = _norm_budget(config, seed, T.coefficients)
    rep = envelope_sweep([0], lambda _: T, lambda _: bound, budget, slack)
    est = rep.rows[0].estimate
    summary = [
        f"norm: certified lower bound {fmt(est.lower_bound)} (l1 upper bound {fmt(bound)})",
        f"iterations={est.iterations} radius={est.radius_hint} converged={est.converged}",
    ]
    return _sweep_result(rep, summary)


def run_trace(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    T = config.operator("T")
    value = canonical_trace(T)
    verdict = PASS
    summary = [f"trace: coefficient at identity = {value}"]
    if "S" in config.operators:
        S = config.operator("S")
        try:
            holds = tracial_property_check(S, T)
        except OverflowError as exc:
            # finite inputs whose products leave float64 decide nothing
            verdict, status = INCONCLUSIVE, f"INCONCLUSIVE ({exc})"
        else:
            verdict, status = (PASS, "holds") if holds else (FALSIFIED, "VIOLATED")
        summary.append(f"tracial property (with operator S): {status}")
    rows = [(0, 0.0, value.real, value.imag, len(T), True, verdict)]
    return ExperimentResult(rows, verdict, summary)


def run_orbits(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    space = CayleySpace(config.presentation)
    gens = [parse_word(text, config.presentation) for text in config.subgroup]
    if not gens:
        raise ConfigError("orbits experiment needs a 'subgroup' key with generator words")
    codes, lens = space.ball_codes(config.budgets.R)
    reps, piece = orbit_labels(config.presentation, gens, codes, lens)
    sizes = np.bincount(piece).tolist()
    rows = [(i, 0.0, float(size), 0.0, size, True, PASS) for i, size in enumerate(sizes)]
    shown = CayleyWindow.decode(config.presentation, codes[reps[:12]], lens[reps[:12]])
    summary = [
        f"orbits: {len(reps)} orbit pieces on the radius-{config.budgets.R} ball "
        f"({len(lens)} points)",
        "representatives: "
        + ", ".join(r.render() for r in shown)
        + ("..." if len(reps) > 12 else ""),
    ]
    return ExperimentResult(rows, PASS, summary)


def run_pingpong(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    h = config.element("h")
    g = config.element("g")
    b = config.budgets
    if b.R < 0:
        # R is only echoed: the action is free, so no ball needs scanning
        raise ValueError("radius must be >= 0")
    rep = pingpong_certificate(h, g, b.L, b.J_max, c_min=b.c_min)
    # (bound, value, holds) of the injectivity, disjointness and displacement checks
    checks = [
        (0.0, float(len(rep.trivial_words)), rep.injectivity_ok),
        (0.0, float(rep.disjointness.collisions), rep.disjointness.disjoint),
        (b.c_min, min(r.displacement / r.n for r in rep.displacement_rows), rep.displacement_ok),
    ]
    rows = [
        (i, bound, value, 0.0, rep.disjointness.words_tested, True, PASS if ok else FALSIFIED)
        for i, (bound, value, ok) in enumerate(checks)
    ]
    summary = [
        f"pingpong: h={h} g={g} L={b.L} J={b.J_max} R={b.R} c_min={fmt(b.c_min)}",
        f"injectivity: {'ok' if rep.injectivity_ok else 'trivial-acting words found'}"
        + (f" ({', '.join(str(w) for w in rep.trivial_words[:3])})" if rep.trivial_words else ""),
        f"translate disjointness: {'ok' if rep.disjointness.disjoint else f'{rep.disjointness.collisions} collisions'}",
        f"displacement growth: {'ok' if rep.displacement_ok else 'sublinear'}",
        "note: PASS is consistency within budgets, not a proof",
    ]
    return ExperimentResult(rows, rep.verdict, summary)


def run_blowup(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    h = config.element("h")
    g = config.element("g")
    N = config.budgets.N
    # the engine raises DomainError unless the norm is exactly sqrt(N)
    res = finite_order_blowup(h, g, N)
    rows = [(N, res.norm, res.norm, 0.0, len(res.operator), True, PASS)]
    summary = [
        f"blowup: h={h} g={g} (order {res.period}) N={N}",
        f"collapsed operator: sqrt(N) * pi({res.collapsed_symbol}), norm {fmt(res.norm)}",
    ]
    return ExperimentResult(rows, PASS, summary)


def run_ideal(config: ExperimentConfig, seed: int | None, slack: float) -> ExperimentResult:
    T = config.operator("T")
    k = config.element("k")
    g = config.element("g")
    b = config.budgets
    budget = _norm_budget(config, seed, T.translate_left(k.inverse()).coefficients)
    rep = ideal_experiment(T, k, g, b.J_max, C=b.C, budget=budget, slack=slack)
    summary = [
        f"ideal: pivot k={k} with coefficient {rep.identity_coefficient}, g={g}, "
        f"threshold |a_k|/2 = {fmt(rep.threshold)}",
        (
            f"decay envelope first drops below the threshold at J = {rep.success_J}"
            if rep.success_J is not None
            else f"decay envelope stays above the threshold through J = {b.J_max}"
        ),
    ]
    return _sweep_result(rep, summary)


RUNNERS = {
    "panalytic": run_panalytic,
    "average": run_average,
    "norm": run_norm,
    "trace": run_trace,
    "orbits": run_orbits,
    "pingpong": run_pingpong,
    "blowup": run_blowup,
    "ideal": run_ideal,
}

EXPERIMENTS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# output artifacts


@contextmanager
def _naming(path: Path):
    """Report an OSError on ``path`` as a usage error that names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None


def write_csv(path: Path, experiment: str, ph: str, rows: list[tuple]) -> None:
    """The header, then each runner row after its ``experiment`` and ``ph``.

    Each distinct float is formatted once per file (an orbits run repeats a
    few values over tens of thousands of rows).  0.0 and -0.0 are one dict
    key but print apart, so a zero is keyed with its sign.
    """
    memo: dict = {}

    def text(x: float) -> str:
        key = x or (x, math.copysign(1.0, x))
        s = memo.get(key)
        if s is None:
            s = memo[key] = fmt(x)
        return s

    lines = [CSV_HEADER] + [
        f"{experiment},{ph},{index},{text(bound)},{text(estimate)},{text(residual)},{support},"
        f"{'true' if converged else 'false'},{verdict}"
        for index, bound, estimate, residual, support, converged, verdict in rows
    ]
    with _naming(path):
        path.write_text("\n".join(lines) + "\n")


def write_svg(path: Path, rows: list[tuple]) -> None:
    """Decorative estimate-vs-bound chart of runner rows; acceptance never needs it."""
    if not rows:
        with _naming(path):
            path.write_text('<svg xmlns="http://www.w3.org/2000/svg" width="480" height="320"/>\n')
        return
    w, h, pad = 480, 320, 40
    xs = [r[0] for r in rows]
    ys = [v for r in rows for v in r[1:3]]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys + [1e-12])
    span_x = (x_hi - x_lo) or 1
    span_y = (y_hi - y_lo) or 1

    def px(x):
        return pad + (w - 2 * pad) * (x - x_lo) / span_x

    def py(y):
        return h - pad - (h - 2 * pad) * (y - y_lo) / span_y

    def polyline(values, color):
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in values)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        polyline([(r[0], r[1]) for r in rows], "#888888"),
        polyline([(r[0], r[2]) for r in rows], "#1f77b4"),
        f'<text x="{pad}" y="{pad - 12}" font-size="12">estimate (blue) vs bound (gray)</text>',
        "</svg>",
    ]
    with _naming(path):
        path.write_text("\n".join(parts) + "\n")


def run(
    config_path: str,
    experiment: str,
    out_path: str | None = None,
    emit_svg: bool = False,
    seed: int | None = None,
    slack: float = DEFAULT_SLACK,
) -> int:
    """Execute one experiment from a config file; returns the exit code."""
    raw_config = load_config_lines(config_path)
    config = build_config(raw_config, config_path)
    if config.experiment and config.experiment != experiment:
        raise ConfigError(
            f"{config_path}: config names experiment {config.experiment!r} "
            f"but {experiment!r} was invoked"
        )
    if not (math.isfinite(slack) and slack >= 0):
        raise ConfigError(f"slack must be finite and >= 0, got {fmt(slack)}")
    ph = param_hash(raw_config, seed, slack)
    out = Path(out_path or config.output or f"{experiment}.csv")

    runner = RUNNERS[experiment]
    tpath, wpath, spath = (out.with_suffix(s) for s in (".txt", ".witness.json", ".svg"))
    if out in (tpath, spath):
        # the summary or the chart would overwrite the CSV
        raise ConfigError(f"{out}: the CSV path must not end in .txt or .svg, the sidecars' suffixes")
    try:
        result = runner(config, seed, slack)
    except BudgetExceededError as exc:
        result = exc
    except (ValueError, OverflowError) as exc:
        # a bad word, a budget out of range or exponents too large in the config
        raise ConfigError(f"{config_path}: {exc}") from None
    for path in (tpath, wpath, spath):
        # a sidecar this run does not write below would be an earlier run's
        with _naming(path):
            path.unlink(missing_ok=True)
    if isinstance(result, BudgetExceededError):
        write_csv(out, experiment, ph, [])
        print(f"budget overflow: {result}", file=sys.stderr)
        print(f"partial csv: {out}")
        return EXIT_INCONCLUSIVE

    summary = result.summary + [f"verdict: {result.verdict}"]
    write_csv(out, experiment, ph, result.rows)
    artifacts = [str(out)]
    with _naming(tpath):
        tpath.write_text("\n".join(summary) + "\n")
    artifacts.append(str(tpath))
    if result.witness is not None:
        payload = _witness_payload(experiment, result.witness)
        with _naming(wpath):
            wpath.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        artifacts.append(str(wpath))
    if emit_svg:
        write_svg(spath, result.rows)
        artifacts.append(str(spath))

    for line in summary:
        print(line)
    print("artifacts: " + ", ".join(artifacts))
    if result.verdict == PASS:
        return EXIT_PASS
    if result.verdict == FALSIFIED:
        return EXIT_FALSIFIED
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with INCONCLUSIVE
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache  # built once: a parser is a reference cycle, which only the collector frees
def _parser() -> _Parser:
    parser = _Parser(
        prog="actrep",
        description="Conjugation-averaging experiments on Cayley-graph action representations.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        # the dests are run()'s parameter names, and the metavars the options' names
        p.add_argument("--config", dest="config_path", metavar="CONFIG", required=True,
                       help="flat key=value config file")
        p.add_argument("--out", dest="out_path", metavar="OUT", default=None, help="CSV output path")
        p.add_argument("--svg", dest="emit_svg", action="store_true", help="also write a small SVG chart")
        p.add_argument("--seed", type=int, default=None, help="randomized-restart seed")
        p.add_argument("--slack", type=float, default=DEFAULT_SLACK, help="falsification slack")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_parser().parse_args(argv))
    try:
        return run(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
