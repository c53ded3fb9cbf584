"""bqbox benchmark: run one CLI workload as a user would, check it, report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Load model: closed loop, one client.  Every CLI run is a fresh process
(a CLI user pays the import on every run), single-threaded (the BLAS/OpenMP
thread variables are pinned to 1), one at a time.  The inputs come from
``--seed`` (workloads.py); the program sees only the generated files.

``--trace 0`` measures, for ``--seconds``, full CLI runs plus a few
set-up-only runs, and reports the medians of

* ``wall_s``      process start to exit, all outputs written;
* ``setup_s``     process start to the first solver or norm call
                  (interpreter, ``bqbox`` import, config and forcing build,
                  initial data, field read);
* ``peak_rss_mb`` peak resident memory of the CLI process.

``--trace 1`` alternates an untraced and a traced run (tracer.py) and
reports the per-layer metrics of the traced runs, with ``trace.overhead_s``
the traced minus the untraced median wall time.

Every full run is checked: exit code 0, the workload's invariants, and,
where the seed has one, the reference outputs under the roundoff budget
(reference.py).  A run that fails any of these counts in ``failed``, and
``failed / attempted`` is the failure share; ``correct`` is false if any
run failed.  Timings come from every run that exited 0.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import layer_metrics, monotonic, share_under  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_RUNS = 3  # set-up-only runs before each full run
LIMIT_S = 170.0  # a benchmark run must end within 180 s, whatever the program does


@dataclass
class CliRun:
    rc: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    record: dict


def environment():
    """The facts a timing depends on, printed with every run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy_present": importlib.util.find_spec("scipy") is not None,
        "thread_pins": THREAD_PINS,
    }


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("BQBOX_")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_cli(workload, config, outdir, mode, run_id, logdir, deadline=None):
    """One ``bqbox`` process through entry.py; wall time and peak RSS from wait4.

    The process is killed (and counts as failed) if it outlives ``deadline``.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    record_path = Path(logdir) / f"{run_id}.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "entry.py"), str(record_path), mode, run_id, "--",
           WORKLOADS[workload].subcommand, "--config", str(config), "--output", str(outdir)]
    with open(Path(logdir) / f"{run_id}.stderr", "wb") as err:
        start = monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        limit = LIMIT_S if deadline is None else max(1.0, deadline - start)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        rec = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        rec = {}  # the process died before writing its record
    end = rec.get("setup_end")
    return CliRun(rc=proc.returncode, wall_s=wall, setup_s=None if end is None else end - start,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, record=rec)


def prepare(workload, seed):
    """Fresh work directory with this seed's inputs; returns (dir, config path)."""
    work = WORK / workload / f"seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work, WORKLOADS[workload].write_inputs(seed, work / "in")


def _hashes(outdir, names):
    return {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in names}


class Checker:
    """Correctness of full runs: exit code, invariants, reference comparison."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.ref = reference.load(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.last = None  # (hashes, comparison) of the last checked run

    def check(self, run, outdir):
        self.attempted += 1
        if run.rc != 0:
            problems = [f"exit code {run.rc}"]
        else:
            try:
                problems = self._outputs(outdir)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable outputs: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def _outputs(self, outdir):
        problems = WORKLOADS[self.workload].check(outdir)
        if problems:
            return problems
        fp = reference.fingerprint(self.workload, outdir)
        cmp = reference.compare(fp, self.ref) if self.ref is not None else None
        self.last = ({f: v["sha256"] for f, v in fp.items()}, cmp)
        if cmp is not None and not cmp["within_budget"]:
            return [f"deviation {cmp['max_deviation']:.3g} at {cmp['worst_column']} "
                    f"exceeds the roundoff budget {reference.BUDGET:g}"]
        return []


def _summary(values):
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = sorted(values)
    n = len(xs)
    high = None
    if n >= 11:
        pct = int(100 * (n - 10) / n)  # at least ten samples lie above this rank
        high = (pct, xs[max(0, -(-pct * n // 100) - 1)])
    return statistics.median(xs), high, n


def _fmt(name, unit, values):
    med, high, n = _summary(values)
    hi = f"p{high[0]} {high[1]:.6g}" if high else "p-high n/a (needs >= 11 samples)"
    return f"  {name:<14} median {med:.6g} {unit}, {hi}, n={n}"


def measure(workload, seed, seconds):
    deadline = monotonic() + LIMIT_S
    work, config = prepare(workload, seed)
    checker = Checker(workload, seed)
    # not counted: compiles the bytecode and fills the page cache, which a user
    # does not pay on every run
    run_cli(workload, config, work / "warm", "setup", "warmup", work, deadline)
    walls, setups, rss, rounds = [], [], [], []
    begin = monotonic()
    # Each round is a few set-up-only runs and one full run, so the set-up
    # samples cover the same stretch of time as the full runs.
    while not rounds or monotonic() - begin + statistics.median(rounds) <= seconds:
        started = monotonic()
        for i in range(SETUP_RUNS):
            run = run_cli(workload, config, work / "setup", "setup", f"setup{len(rounds)}-{i}",
                          work, deadline)
            checker.attempted += 1
            if run.rc != 0 or run.setup_s is None:
                checker.failed += 1
                checker.problems.append(f"set-up run exit code {run.rc}")
            else:
                setups.append(run.setup_s)
        run = run_cli(workload, config, work / "out", "plain", f"run{len(rounds)}", work, deadline)
        checker.check(run, work / "out")
        if run.rc != 0:
            break  # no time to a result: the program did not finish
        walls.append(run.wall_s)
        if run.setup_s is not None:
            setups.append(run.setup_s)
        rss.append(run.peak_rss_mb)
        rounds.append(monotonic() - started)
    print(f"{workload} seed {seed}: {len(walls)} full runs, "
          f"{SETUP_RUNS * len(rounds)} set-up runs")
    metrics = {}
    if walls:
        for name, unit, vals in (("wall_s", "s", walls), ("setup_s", "s", setups),
                                 ("peak_rss_mb", "MB", rss)):
            print(_fmt(name, unit, vals))
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    return checker, metrics


def measure_traced(workload, seed, seconds):
    deadline = monotonic() + LIMIT_S
    work, config = prepare(workload, seed)
    checker = Checker(workload, seed)
    run_cli(workload, config, work / "warm", "setup", "warmup", work, deadline)
    plain_walls, traced_walls, layers = [], [], []
    begin = monotonic()
    while not layers or monotonic() - begin + 2 * statistics.median(traced_walls) <= seconds:
        k = len(layers)
        plain = run_cli(workload, config, work / "plain", "plain", f"plain{k}", work, deadline)
        traced = run_cli(workload, config, work / "traced", "trace", f"traced{k}", work, deadline)
        ok = checker.check(plain, work / "plain") & checker.check(traced, work / "traced")
        names = WORKLOADS[workload].outputs
        if ok and _hashes(work / "plain", names) != _hashes(work / "traced", names):
            checker.failed += 1
            checker.problems.append("traced outputs differ from untraced outputs")
        if plain.rc != 0 or traced.rc != 0:
            break
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        layers.append(layer_metrics(traced.record["trace"], traced.record["import_s"]))
        if k == 0:
            fft_share = share_under(traced.record["trace"], "grid.fft", "duhamel.evolve")
    metrics = {}
    if layers:
        print(f"{workload} seed {seed}: {len(layers)} traced runs")
        for key in layers[0]:
            vals = [m[key] for m in layers]
            unit = "s" if key.endswith("_s") else "bytes" if key.endswith("bytes") else "count"
            if key.endswith(("per_step", "ratio", "per_outer")):
                unit = "ratio"
            metrics[key] = {"value": statistics.median(vals), "unit": unit}
        overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        if layers[0]["duhamel.rhs.calls"]:
            print(f"  RHS calls per nonlinear step {layers[0]['duhamel.rhs.per_step']:.4g}; "
                  f"FFT self time is {fft_share:.1%} of the evolve calls")
    return checker, metrics


def _report_checks(checker):
    share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  failed_share   {share:.6g} ({checker.failed} of {checker.attempted} runs)")
    if checker.last is not None:
        hashes, cmp = checker.last
        for f, h in hashes.items():
            print(f"  output {f}: sha256 {h}")
        if cmp is None:
            print("  reference: none recorded for this seed; invariant checks only")
        else:
            print(f"  reference: bit_identical={cmp['bit_identical']}, max deviation "
                  f"{cmp['max_deviation']:.3g} ({cmp['worst_column']}), "
                  f"budget {reference.BUDGET:g}")
    for p in sorted(set(checker.problems)):
        print(f"  FAILED: {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bqbox" / "cli.py").is_file():
        print(f"bench: no bqbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("environment:", json.dumps(environment(), sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        measure_fn = measure_traced if args.trace else measure
        checker, metrics = measure_fn(name, args.seed, args.seconds)
        _report_checks(checker)
        correct = checker.failed == 0 and bool(metrics)
        if not metrics:
            code = 1  # not one run finished, so there is nothing to report
        print(json.dumps({"correct": correct, "attempted": checker.attempted,
                          "failed": checker.failed, "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
