import json
import random
from pathlib import Path

import pytest

from actrep import cli
from actrep.cli import (
    CSV_HEADER,
    EXIT_FALSIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    ConfigError,
    WordParseError,
    build_config,
    load_config_lines,
    main,
    parse_operator,
    parse_word,
    run,
)
from actrep.dynamics import PASS, averaging_decay_report, ideal_experiment
from actrep.groups import INFINITE, free_group, free_product, reduce
from actrep.operators import FormalOperator, op_apply
from actrep.spaces import CayleySpace

GOLDEN = Path(__file__).parent / "golden"

F2 = free_group(2)
A, B = F2.generators()

Z2Z3 = free_product([2, 3], names=("s", "t"))
Z3Z = free_product([3, INFINITE], names=("h", "g"))


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


PANALYTIC_CFG = """
# free case
presentation.orders = inf, inf
presentation.names = a, b
experiment = panalytic
elements.h = a
elements.g = b
budgets.J_max = 4
budgets.max_iterations = 40
budgets.support_cap = 3000
"""


def test_parse_word_examples():
    assert parse_word("e", F2).is_identity
    w = parse_word("a b^-1 a", F2)
    assert w.syllable_count == 3
    assert w == A * B.inverse() * A
    assert parse_word("h^5", Z3Z) == Z3Z.generator(0) ** 2


def test_parse_word_errors():
    with pytest.raises(WordParseError):
        parse_word("c", F2)
    with pytest.raises(WordParseError):
        parse_word("a^x", F2)


def test_word_round_trip_fuzz():
    rng = random.Random(99)
    for pres in (F2, Z2Z3, Z3Z):
        for _ in range(500):
            word = []
            for _ in range(rng.randrange(9)):
                fi = rng.randrange(pres.rank)
                m = pres.factor_orders[fi]
                e = rng.choice([-3, -1, 1, 2]) if m == INFINITE else rng.randrange(1, m)
                word.append((fi, e))
            x = reduce(pres, word)
            assert parse_word(x.render(), pres) == x


def test_parse_operator():
    T = parse_operator("2*e; 1*a; -0.5j*b^-1", F2)
    assert T == FormalOperator(F2, {F2.identity(): 2.0, A: 1.0, B.inverse(): -0.5j})
    assert parse_operator("a b", F2) == FormalOperator(F2, {A * B: 1.0})
    with pytest.raises(WordParseError):
        parse_operator("x*a", F2)


def test_load_config_diagnostics(tmp_path):
    path = write_config(tmp_path, "presentation.orders = inf\nbroken line\n")
    with pytest.raises(ConfigError) as err:
        load_config_lines(path)
    assert ":2:" in str(err.value)


def test_build_config_rejects_unknown_key(tmp_path):
    raw = load_config_lines(
        write_config(tmp_path, "presentation.orders = inf, inf\nmystery = 1\n")
    )
    with pytest.raises(ConfigError):
        build_config(raw)


def test_build_config_rejects_bad_budget(tmp_path):
    raw = load_config_lines(
        write_config(tmp_path, "presentation.orders = inf, inf\nbudgets.J_max = soon\n")
    )
    with pytest.raises(ConfigError):
        build_config(raw)


def test_panalytic_run_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, PANALYTIC_CFG)
    out = tmp_path / "run.csv"
    code = main(["panalytic", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # header + one row per J
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "panalytic"
        assert fields[8] == "PASS"
    assert "verdict: PASS" in capsys.readouterr().out


def test_panalytic_trivial_h_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, PANALYTIC_CFG.replace("elements.h = a", "elements.h = e"))
    code = main(["panalytic", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "h must be nontrivial" in capsys.readouterr().err


def test_experiment_mismatch_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, PANALYTIC_CFG)
    code = main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {cfg}: config names experiment 'panalytic' but 'blowup' was invoked\n"
    )


def test_blowup_run_exact(tmp_path):
    cfg = write_config(
        tmp_path,
        """
presentation.orders = 2, 3
presentation.names = s, t
experiment = blowup
elements.h = t
elements.g = s
budgets.N = 4
""",
    )
    out = tmp_path / "blowup.csv"
    code = main(["blowup", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    row = out.read_text().splitlines()[1].split(",")
    assert row[2] == "4"
    assert row[4] == "2"  # estimate column holds exactly sqrt(4)


def test_falsified_run_writes_witness(tmp_path):
    cfg = write_config(
        tmp_path,
        """
presentation.orders = 2, 3
presentation.names = s, t
experiment = panalytic
elements.h = t
elements.g = s
budgets.J_max = 32
budgets.max_iterations = 40
budgets.support_cap = 3000
""",
    )
    out = tmp_path / "falsify.csv"
    code = main(["panalytic", "--config", cfg, "--out", str(out)])
    assert code == EXIT_FALSIFIED
    payload = json.loads(out.with_suffix(".witness.json").read_text())
    assert payload["estimate"] > payload["bound"]
    assert payload["vector"]
    # the witness is re-checkable: rebuild it and reproduce the estimate
    from actrep.dynamics import CoefficientSequence, build_Ta
    from actrep.operators import StateVector, op_apply
    from actrep.spaces import CayleySpace

    space = CayleySpace(Z2Z3)
    vec = StateVector(
        space,
        {parse_word(entry[0], Z2Z3): complex(entry[1], entry[2]) for entry in payload["vector"]},
    )
    T = build_Ta(
        Z2Z3.generator(1), Z2Z3.generator(0), CoefficientSequence.uniform(payload["index"])
    )
    assert abs(op_apply(T, vec).norm() / vec.norm() - payload["estimate"]) <= 1e-9


def test_average_run(tmp_path):
    cfg = write_config(
        tmp_path,
        """
presentation.orders = inf, inf
presentation.names = a, b
experiment = average
operator.T = 2*e; 1*a
elements.g = b
budgets.J_list = 1, 2, 4
budgets.max_iterations = 40
budgets.support_cap = 3000
""",
    )
    out = tmp_path / "avg.csv"
    assert main(["average", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    lines = out.read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["1", "2", "4"]


def test_norm_trace_orbits_pingpong_runs(tmp_path):
    base = """
presentation.orders = inf, inf
presentation.names = a, b
"""
    norm_cfg = write_config(
        tmp_path, base + "operator.T = 0.5*b^-1 a b; 0.5*b^-2 a b^2\n", "norm.cfg"
    )
    out = tmp_path / "norm.csv"
    assert main(["norm", "--config", norm_cfg, "--out", str(out)]) == EXIT_PASS
    est = float(out.read_text().splitlines()[1].split(",")[4])
    assert 0.95 <= est <= 1.0

    trace_cfg = write_config(
        tmp_path, base + "operator.T = 3*e; 5*a\noperator.S = 1*a\n", "trace.cfg"
    )
    out = tmp_path / "trace.csv"
    assert main(["trace", "--config", trace_cfg, "--out", str(out)]) == EXIT_PASS
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "3"

    orbits_cfg = write_config(tmp_path, base + "subgroup = a\nbudgets.R = 2\n", "orbits.cfg")
    out = tmp_path / "orbits.csv"
    assert main(["orbits", "--config", orbits_cfg, "--out", str(out)]) == EXIT_PASS
    lines = out.read_text().splitlines()
    assert len(lines) > 3

    pp_cfg = write_config(
        tmp_path,
        base + "elements.h = a\nelements.g = b\nbudgets.L = 4\nbudgets.J_max = 4\nbudgets.R = 4\n",
        "pp.cfg",
    )
    out = tmp_path / "pp.csv"
    assert main(["pingpong", "--config", pp_cfg, "--out", str(out)]) == EXIT_PASS


def test_pingpong_degenerate_exit_1(tmp_path):
    cfg = write_config(
        tmp_path,
        """
presentation.orders = 2, 3
presentation.names = s, t
elements.h = t
elements.g = s t
budgets.L = 4
budgets.J_max = 4
budgets.R = 4
""",
    )
    assert main(["pingpong", "--config", cfg, "--out", str(tmp_path / "pp.csv")]) == EXIT_FALSIFIED


def test_ideal_run(tmp_path):
    cfg = write_config(
        tmp_path,
        """
presentation.orders = inf, inf
presentation.names = a, b
experiment = ideal
operator.T = 2*e; 1*a; 1*b
elements.k = e
elements.g = a b
budgets.J_max = 17
budgets.max_iterations = 25
budgets.support_cap = 1500
""",
    )
    out = tmp_path / "ideal.csv"
    code = main(["ideal", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    lines = out.read_text().splitlines()
    assert len(lines) == 18


def test_csv_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, PANALYTIC_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["panalytic", "--config", cfg, "--out", str(out1)])
    main(["panalytic", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_changes_start_but_stays_sound(tmp_path):
    # a random start settles more slowly than the Dirac seed, so give it room
    cfg = write_config(
        tmp_path, PANALYTIC_CFG.replace("budgets.max_iterations = 40", "budgets.max_iterations = 300")
    )
    out = tmp_path / "seeded.csv"
    assert main(["panalytic", "--config", cfg, "--out", str(out), "--seed", "7"]) == EXIT_PASS
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        assert float(fields[4]) <= float(fields[3]) + 1e-9


def test_svg_emission(tmp_path):
    cfg = write_config(tmp_path, PANALYTIC_CFG)
    out = tmp_path / "chart.csv"
    main(["panalytic", "--config", cfg, "--out", str(out), "--svg"])
    svg = out.with_suffix(".svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_missing_config_exit_3(tmp_path, capsys):
    code = main(["panalytic", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


STARVED_AVERAGE_CFG = """
presentation.orders = inf, inf
presentation.names = a, b
experiment = average
operator.T = 2*e; 1*a; 0.5*b
elements.g = b a
budgets.J_max = 5
budgets.max_iterations = 2
budgets.support_cap = 300
"""

STARVED_IDEAL_CFG = """
presentation.orders = inf, inf
presentation.names = a, b
experiment = ideal
operator.T = 2*e; 1*a; 1*b
elements.k = e
elements.g = a b
budgets.J_max = 17
budgets.max_iterations = 2
budgets.support_cap = 300
"""


def _csv_fields(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _library_report(cfg, seed=None):
    config = build_config(load_config_lines(cfg))
    b = config.budgets
    T, g = config.operator("T"), config.element("g")
    if config.experiment == "average":
        budget = cli._norm_budget(config, seed, T.support)
        return averaging_decay_report(T, g, list(range(1, b.J_max + 1)), C=b.C, budget=budget)
    k = config.element("k")
    budget = cli._norm_budget(config, seed, T.translate_left(k.inverse()).support)
    return ideal_experiment(T, k, g, b.J_max, C=b.C, budget=budget)


@pytest.mark.parametrize(
    "text, code, verdicts",
    [
        (STARVED_AVERAGE_CFG, EXIT_INCONCLUSIVE, ["false,INCONCLUSIVE"] * 5),
        (STARVED_IDEAL_CFG, EXIT_PASS, ["false,PASS"] * 17),
    ],
    ids=["average", "ideal"],
)
def test_starved_sweep_row_verdicts(tmp_path, text, code, verdicts):
    # average needs converged estimates for PASS; ideal ignores convergence
    cfg = write_config(tmp_path, text)
    experiment = "average" if "experiment = average" in text else "ideal"
    out = tmp_path / "starved.csv"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == code
    fields = _csv_fields(out)
    assert [",".join(f[7:]) for f in fields] == verdicts
    rep = _library_report(cfg)
    assert [f[8] for f in fields] == [r.verdict for r in rep.rows]


@pytest.mark.parametrize("text", [STARVED_AVERAGE_CFG, STARVED_IDEAL_CFG], ids=["average", "ideal"])
def test_seed_randomizes_average_and_ideal(tmp_path, text):
    text = text.replace("budgets.max_iterations = 2", "budgets.max_iterations = 25")
    text = text.replace("budgets.support_cap = 300", "budgets.support_cap = 1500")
    text = text.replace("budgets.J_max = 17", "budgets.J_max = 4")
    cfg = write_config(tmp_path, text)
    experiment = "average" if "experiment = average" in text else "ideal"
    plain, seeded = tmp_path / "plain.csv", tmp_path / "seeded.csv"
    main([experiment, "--config", cfg, "--out", str(plain)])
    main([experiment, "--config", cfg, "--out", str(seeded), "--seed", "7"])
    plain_est = [f[4] for f in _csv_fields(plain)]
    seeded_rows = _csv_fields(seeded)
    assert [f[4] for f in seeded_rows] != plain_est
    for f in seeded_rows:
        assert float(f[4]) <= float(f[3]) + 1e-9
    # the CLI estimates are the library's, and each re-certifies exactly
    rep = _library_report(cfg, seed=7)
    assert [f[4] for f in seeded_rows] == [cli.fmt(r.estimate.lower_bound) for r in rep.rows]
    for row in rep.rows:
        w = row.estimate.witness
        if w is not None:
            assert op_apply(row.operator, w).norm() / w.norm() == row.estimate.lower_bound


def test_runner_table_covers_experiments_and_is_read_at_call_time(tmp_path, monkeypatch):
    assert set(cli.RUNNERS) == set(cli.EXPERIMENTS)
    calls = []

    def stub(config, seed, slack):
        calls.append((config.experiment, seed, slack))
        return cli.ExperimentResult([], PASS, ["verdict: PASS"])

    monkeypatch.setitem(cli.RUNNERS, "panalytic", stub)
    cfg = write_config(tmp_path, PANALYTIC_CFG)
    assert main(["panalytic", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == EXIT_PASS
    assert calls == [("panalytic", None, 1e-9)]


TORSION_CFG = """
presentation.orders = 2, 3
presentation.names = s, t
experiment = panalytic
elements.h = t
elements.g = s
budgets.J_max = 32
budgets.max_iterations = 60
budgets.support_cap = 6000
"""

PINGPONG_CFG = """
presentation.orders = inf, inf
presentation.names = a, b
experiment = pingpong
elements.h = a
elements.g = b
budgets.L = 4
budgets.J_max = 4
budgets.R = 4
"""


@pytest.mark.parametrize(
    "text, extra",
    [
        (TORSION_CFG, ["--slack", "nan"]),
        (TORSION_CFG, ["--slack", "inf"]),
        (TORSION_CFG, ["--slack=-inf"]),
        (TORSION_CFG + "budgets.C = nan\n", []),
        (TORSION_CFG + "budgets.C = inf\n", []),
        (TORSION_CFG + "budgets.prune_threshold = nan\n", []),
        (TORSION_CFG + "budgets.residual_target = -inf\n", []),
        (PINGPONG_CFG + "budgets.c_min = nan\n", []),
        (PINGPONG_CFG + "budgets.c_min = inf\n", []),
    ],
    ids=[
        "slack-nan", "slack-inf", "slack-minus-inf", "C-nan", "C-inf", "prune-nan",
        "residual-minus-inf", "c_min-nan", "c_min-inf",
    ],
)
def test_non_finite_floats_exit_3(tmp_path, capsys, text, extra):
    # NaN compares false, so a NaN slack or envelope would never falsify
    cfg = write_config(tmp_path, text)
    out = tmp_path / "x.csv"
    experiment = "pingpong" if "pingpong" in text else "panalytic"
    assert main([experiment, "--config", cfg, "--out", str(out), *extra]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--slack", "abc"], "error: argument --slack: invalid float value: 'abc'"),
        # argparse reads -inf as an option, so --slack is left without a value
        (["--slack", "-inf"], "error: argument --slack: expected one argument"),
    ],
    ids=["slack-abc", "slack-minus-inf"],
)
def test_usage_errors_print_argparse_message(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, TORSION_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["panalytic", "--config", cfg, *extra])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.splitlines()[-1] == message


def test_config_errors_name_the_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, TORSION_CFG + "budgets.C = nan\n")
    assert main(["panalytic", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {cfg}: bad value for budgets.C: 'nan'\n"


@pytest.mark.parametrize(
    "experiment, line, message",
    [
        ("panalytic", "budgets.support_cap = 0", "support_cap must be >= 1"),
        ("panalytic", "budgets.support_cap = -3", "support_cap must be >= 1"),
        ("panalytic", "budgets.max_iterations = 0", "max_iterations must be >= 1"),
        ("panalytic", "budgets.J_max = 0", "J_max must be >= 1"),
        ("average", "budgets.J_list = 0, 2", "J must be >= 1"),
        ("pingpong", "budgets.R = -1", "radius must be >= 0"),
        ("average", "budgets.C = -1", "C must be positive"),
        ("ideal", "budgets.C = 0", "C must be positive"),
    ],
)
def test_out_of_range_budgets_exit_3_naming_the_config_file(
    tmp_path, capsys, experiment, line, message
):
    # the estimator and the engines check these ranges, below the config loader;
    # an envelope of C <= 0 would falsify every averaging row
    base = {
        "panalytic": TORSION_CFG,
        "average": STARVED_AVERAGE_CFG,
        "ideal": STARVED_IDEAL_CFG,
        "pingpong": (GOLDEN / "pingpong_pass.cfg").read_text(),
    }[experiment]
    cfg = write_config(tmp_path, base + line + "\n")
    out = tmp_path / "x.csv"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("exponent", [1 << 62, 1 << 60])
def test_int64_overflowing_exponent_exit_3(tmp_path, capsys, exponent):
    # 2^62 leaves int64 as soon as the word is encoded, 2^60 once the window
    # closure could grow it
    cfg = write_config(
        tmp_path,
        PANALYTIC_CFG.replace("elements.h = a", f"elements.h = a^{exponent}"),
    )
    out = tmp_path / "x.csv"
    assert main(["panalytic", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: syllable exponents too large for the integer window")
    assert "Traceback" not in err
    assert not out.exists()


def test_huge_coefficients_exit_3(tmp_path, capsys):
    # the iteration would overflow float64 and run on NaN
    cfg = write_config(
        tmp_path, "presentation.orders = inf, inf\npresentation.names = a, b\n"
        "operator.T = 1e200*a; 1e200*b\n"
    )
    out = tmp_path / "x.csv"
    assert main(["norm", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: coefficients too large for the estimator: sum |a_g| exceeds 2**250\n"
    assert not out.exists()


def test_tiny_coefficients_exit_3(tmp_path, capsys):
    # the iteration's squares would underflow and stop it at a bound near 0
    cfg = write_config(
        tmp_path, "presentation.orders = inf, inf\npresentation.names = a, b\n"
        "operator.T = 1e-170*a; 1e-170*b\n"
    )
    out = tmp_path / "x.csv"
    assert main(["norm", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: coefficients too small for the estimator: sum |a_g| below 2**-250\n"
    assert not out.exists()


def test_pingpong_echoes_radius_without_scanning_a_ball(tmp_path, capsys):
    # the action is free, so the checks never enumerate the radius-R ball,
    # which at R = 40 would be far beyond the ball cap
    cfg = write_config(tmp_path, (GOLDEN / "pingpong_pass.cfg").read_text() + "budgets.R = 40\n")
    out = tmp_path / "pp.csv"
    assert main(["pingpong", "--config", cfg, "--out", str(out)]) == EXIT_PASS

    def without_hash(text):
        return [line.split(",")[:1] + line.split(",")[2:] for line in text.splitlines()]

    assert without_hash(out.read_text()) == without_hash((GOLDEN / "pingpong_pass.csv").read_text())
    assert "pingpong: h=a g=b L=4 J=4 R=40 c_min=0.5" in capsys.readouterr().out


def test_budget_overflow_writes_header_only_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CayleySpace", lambda pres: CayleySpace(pres, ball_cap=5))
    cfg = write_config(
        tmp_path,
        "presentation.orders = inf, inf\nexperiment = orbits\nsubgroup = a\nbudgets.R = 2\n",
    )
    out = tmp_path / "orbits.csv"
    assert main(["orbits", "--config", cfg, "--out", str(out)]) == EXIT_INCONCLUSIVE
    assert out.read_text() == CSV_HEADER + "\n"
    captured = capsys.readouterr()
    assert captured.err.startswith("budget overflow: ")
    assert f"partial csv: {out}" in captured.out
    assert not out.with_suffix(".txt").exists()
