"""Self-test of the perfbench harness; it is not part of the tier-1 suite.

Run from the repository root:

    python3 -m pytest perfbench -q

It checks the deterministic estimator counts that the ROADMAP baseline
quotes for the pair (a, b) at default budgets, the closed forms the checks
rely on, the tracer's self-time arithmetic, and that a tiny run of every
workload emits exactly the metrics named in BENCHMARK.json.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
cli = bench.load_program()

from actrep.cli import parse_word  # noqa: E402
from actrep.groups import free_group  # noqa: E402
from actrep.spaces import CayleySpace, orbit_decompose  # noqa: E402

F2 = free_group(2)


def _traced_estimator_calls(tmp_path, config_text):
    inv = workloads.Invocation("average", "average", config_text, 0, lambda _: [])
    (tmp_path / "average.cfg").write_text(config_text)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        _, results = bench.run_pass(cli, [inv], tmp_path, tmp_path / "out")
    assert results == [0]
    return tracer.estimator_calls(tr)


@pytest.mark.parametrize("h, g", [("a", "b"), workloads.nielsen_pairs()[5]])
def test_baseline_counts_at_default_budgets(tmp_path, h, g):
    # ROADMAP baseline: witness support 121 / 2,624 / 1,464 at J = 4 / 8 / 12
    # inside a window that always fills support_cap = 30,000.  A Nielsen image
    # of (a, b) spans an isomorphic window, so its counts are the same.
    calls = _traced_estimator_calls(
        tmp_path,
        workloads.F2_HEADER
        + f"experiment = average\noperator.T = 2*e; 1*{h}\nelements.g = {g}\n"
        "budgets.J_list = 4, 8, 12\n",
    )
    assert [c["terms"] for c in calls] == [4, 8, 12]
    assert [c["witness_support"] for c in calls] == [121, 2624, 1464]
    assert [c["iterations"] for c in calls] == [12, 15, 39]
    assert calls[1]["closure_applies"] == 30_000 * 16 == 480_000
    assert [c["closure_applies"] // c["union"] for c in calls] == [30_000] * 3


def test_free_exact_matches_akemann_ostrand():
    # ||sum_i a_i lambda(u_i)|| = min_t 2t + sum_i (sqrt(t^2 + |a_i|^2) - t), a_i = 1/J
    for J in (1, 2, 3, 4, 8, 12):
        f = lambda t: 2 * t + J * (math.sqrt(t * t + 1 / J**2) - t)  # noqa: E731
        lo, hi = 0.0, 1.0
        for _ in range(200):  # ternary search on a convex function
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            lo, hi = (lo, m2) if f(m1) <= f(m2) else (m1, hi)
        assert workloads.free_exact(J) == pytest.approx(f(lo), abs=1e-12)


def test_nielsen_pairs_are_bases():
    for h_text, g_text in workloads.nielsen_pairs():
        h, g = parse_word(h_text, F2), parse_word(g_text, F2)
        # h = o g or h = g^-1 o, with {o, g} a basis up to inverses
        o = h * g.inverse() if h.syllables[-1][0] == g.syllables[0][0] else g * h
        assert o.word_length() == g.word_length() == 1
        assert o.syllables[0][0] != g.syllables[0][0]


@pytest.mark.parametrize("R", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_orbit_pieces_closed_form(R, m):
    space = CayleySpace(F2)
    ball = space.enumerate_ball(space.base_point, R)
    assert len(ball) == 2 * 3**R - 1
    dec = orbit_decompose(space, [parse_word(f"b^{m}", F2)], ball)
    assert len(dec.representatives) == workloads.orbit_pieces(R, m)


def test_seeded_inputs():
    for w in workloads.WORKLOADS:
        assert [i.config for i in workloads.build(w, 7)] == [i.config for i in workloads.build(w, 7)]
        assert len({tuple(i.config for i in workloads.build(w, s)) for s in range(12)}) > 1
    for s in range(12):
        assert "elements.h = a\nelements.g = b\n" in workloads.build("free-window", s)[0].config


def test_self_time_subtracts_children(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    monkeypatch.setattr(tracer, "_clock", lambda: next(ticks))
    tr = tracer.Tracer()
    leaf = tr.leaf_span("leaf", lambda: None)
    inner = tr.span("inner", lambda: None)

    def body():
        leaf()
        inner()

    tr.span("outer", body)()
    outer, inner_rec = sorted(tr.spans, key=lambda s: s[0])
    assert (outer[1], outer[2], outer[3], outer[4], outer[5]) == ("outer", 0.0, 10.0, -1, 6.0)
    assert (inner_rec[1], inner_rec[4], inner_rec[3] - inner_rec[2]) == ("inner", outer[0], 4.0)
    assert tr.leaf == {(outer[0], "leaf"): [1, 2.0, 0.0]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(set(names)) == len(names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
