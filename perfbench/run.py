"""perfbench: outside-in benchmark of the actrep CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload free-window --seed 1 --seconds 25 --trace 0

One process drives ``actrep.cli.main`` through the workload's seeded configs
(see ``workloads.py``), on one Python thread with the BLAS pool pinned to one
thread.  ``--trace 0`` times untraced passes and reports the end-to-end
metrics; ``--trace 1`` pairs an untraced pass with a traced one
(``tracer.py``) and reports the per-layer split.  Every output of every pass
is checked.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Work files go to ``.perfbench_out/`` under the
checkout.
"""

import os

# must precede the first numpy import: the reduction order inside
# np.linalg.norm, and so the CSV bytes, depend on the BLAS thread count
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Timed set-up probes per run, after one untimed probe that fills the bytecode cache.
SETUP_PROBES = 9


def load_program():
    """Import ``actrep.cli`` from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "actrep"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program at {pkg}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import actrep.cli

    if Path(actrep.cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported {actrep.cli.__file__}, not the checkout's program")
    return actrep.cli


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(cli, invs, cfg_dir: Path, out_dir: Path, probe=None) -> tuple[float, list]:
    """Run every invocation once; returns the wall time and each exit code or traceback.

    With a ``SpeedProbe``, the reference kernel is sampled during the pass.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    results = []
    sink = io.StringIO()
    with probe.during() if probe else contextlib.nullcontext():
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for inv in invs:
                argv = [inv.experiment, "--config", str(cfg_dir / f"{inv.label}.cfg"),
                        "--out", str(out_dir / f"{inv.label}.csv")]
                try:
                    results.append(cli.main(argv))
                except Exception:  # a crash fails this invocation; the pass goes on
                    results.append(traceback.format_exc())
        dt = time.perf_counter() - t0
    return dt, results


def check_pass(invs, results, out_dir: Path) -> list[list[str]]:
    """Problems per invocation: exit code plus the workload's output checks."""
    report = []
    for inv, code in zip(invs, results):
        if isinstance(code, str):
            report.append([f"{inv.label}: raised\n{code}"])
            continue
        problems = [] if code == inv.expected_exit else [
            f"{inv.label}: exit code {code} != {inv.expected_exit}"
        ]
        try:
            problems += inv.check(out_dir / f"{inv.label}.csv")
        except Exception:
            problems.append(f"{inv.label}: check raised\n{traceback.format_exc()}")
        report.append(problems)
    return report


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())
    }


def measure_setup(inv, cfg_dir: Path) -> tuple[list[float], list[float], list[float]]:
    """Seconds from spawning an interpreter to the first experiment starting.

    Returns the raw durations, the host speed each probe measured right
    after its set-up, and the durations in reference seconds.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           str(cfg_dir / f"{inv.label}.cfg"), inv.experiment]
    raw, speeds = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cfg_dir, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{proc.stderr}")
        t1, host_speed = map(float, proc.stdout.split()[-2:])
        if i:
            raw.append(t1 - t0)
            speeds.append(host_speed)
    return raw, speeds, [d * v for d, v in zip(raw, speeds)]


# ---------------------------------------------------------------------------
# the two modes


class Run:
    """Bookkeeping shared by both modes: attempted/failed counts and problems."""

    def __init__(self, invs):
        self.invs = invs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None
        self.gaps: list[float] = []

    def record(self, report, out_dir: Path, what: str = "outputs of repeated passes") -> None:
        """Count one pass; its outputs must match the first pass's byte for byte."""
        got = digests(out_dir)
        if self.reference is None:
            self.reference = got
        for inv, problems in zip(self.invs, report):
            names = {n for n in self.reference.keys() | got.keys() if n.startswith(inv.label + ".")}
            differ = sorted(n for n in names if self.reference.get(n) != got.get(n))
            if differ:
                problems.append(f"{inv.label}: {what} differ: {', '.join(differ)}")
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += problems
            if inv.exact is not None:
                self.gaps += workloads.bound_gaps(inv, out_dir / f"{inv.label}.csv")


def timed_run(cli, invs, cfg_dir: Path, work: Path, seconds: float):
    run = Run(invs)
    setup_raw, setup_speeds, setup = measure_setup(invs[0], cfg_dir)
    raw, times, speeds = [], [], []
    start = time.perf_counter()
    while True:
        probe = speed.SpeedProbe()
        probe.around()
        dt, results = run_pass(cli, invs, cfg_dir, work / "pass", probe)
        probe.around()
        run.record(check_pass(invs, results, work / "pass"), work / "pass")
        raw.append(dt)
        times.append(probe.reference(dt))
        speeds.append(probe.speed())
        # start another pass only if it should end within the measuring time
        if time.perf_counter() - start + statistics.median(raw) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = [
        f"pass wall times (s): {raw}",
        f"pass times (reference s): {times}",
        f"pass host speeds (x nominal): {speeds}",
        f"setup probes (s): {setup_raw}",
        f"setup host speeds (x nominal): {setup_speeds}",
    ]
    return run, metrics, notes


def traced_run(cli, invs, cfg_dir: Path, work: Path, seconds: float, env: dict):
    run = Run(invs)
    cycles: list[dict] = []
    start = time.perf_counter()
    while True:
        dt_plain, results = run_pass(cli, invs, cfg_dir, work / "pass")
        run.record(check_pass(invs, results, work / "pass"), work / "pass")
        tr = tracer.Tracer()
        with tracer.installed(tr):
            dt_traced, results = run_pass(cli, invs, cfg_dir, work / "pass")
        run.record(check_pass(invs, results, work / "pass"), work / "pass",
                   "traced and untraced outputs")
        layer = tracer.layer_metrics(tr)
        layer["operators.bound_gap"] = (max(run.gaps, default=0.0), "ratio")
        layer["trace.overhead_s"] = (dt_traced - dt_plain, "s")
        if not cycles:
            tr.dump(work / "trace.json", {
                "env": env, "estimator_calls": tracer.estimator_calls(tr),
                "wall_s": {"untraced": dt_plain, "traced": dt_traced},
            })
        cycles.append(layer)
        del tr
        per_cycle = (time.perf_counter() - start) / len(cycles)
        if time.perf_counter() - start + per_cycle > seconds:
            break
    metrics = {
        # median_low keeps counts whole; they are equal in every cycle anyway
        name: (statistics.median_low(c[name][0] for c in cycles), unit)
        for name, (_, unit) in cycles[0].items()
    }
    return run, metrics, [f"traced cycles: {len(cycles)}", f"spans: {work / 'trace.json'}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'smoke' is a tiny run for the self-test")
    args = parser.parse_args(argv)

    cli = load_program()
    env = environment()
    invs = workloads.build(args.workload, args.seed, workloads.SIZES[args.size])
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True)
    for inv in invs:
        (cfg_dir / f"{inv.label}.cfg").write_text(inv.config)

    if args.trace:
        run, metrics, notes = traced_run(cli, invs, cfg_dir, work, args.seconds, env)
    else:
        run, metrics, notes = timed_run(cli, invs, cfg_dir, work, args.seconds)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
         "env": env, "notes": notes, "problems": run.problems, "result": result},
        indent=1,
    ) + "\n")
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_rate = {run.failed / run.attempted!r} ({run.failed} failed / {run.attempted} attempted)")
    if run.gaps:
        print(f"bound_gap = {max(run.gaps)!r} (max (exact - certified) / exact over rows J >= 2)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
