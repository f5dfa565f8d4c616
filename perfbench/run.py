"""fuzzcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fuzzcalc is imported from ``src/``.
Workloads: taylor-swell, derive-fine, ivp-wide, cli-oneshot, or ``all`` to
run the four one after another.  Each is a closed loop with one client in
one process.  The task list is generated from the seed before the timer
starts and the loop runs whole passes over it until ``--seconds`` have
passed; every result is checked against the crisp oracle in ``oracle.py``.
Every timed task and set-up start is scaled to a reference host speed by
the kernel in ``calibrate.py``, timed just before and after it; the
unscaled wall times are printed too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracer.py``).  Metric names and
units are the ones declared in ``BENCHMARK.json``.  Human-readable lines
come first; the last line of stdout is one JSON object.  Span dumps go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import calibrate
import cli_workload
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("taylor-swell", "derive-fine", "ivp-wide", "cli-oneshot")
TASK_TIMEOUT_S = 60.0
SETUP_REPEATS = 11
CLI_ENV_REPEATS = 5


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task exceeded {TASK_TIMEOUT_S:g} s")


def declared_metrics() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


# -- the closed loop -------------------------------------------------------------


class Loop:
    """Latencies and outcomes of timed tasks.

    A calibrated loop runs ``kernel``, one of the host-speed kernels of
    ``calibrate.py``, before every task and once after the last, so that
    each task's time can be scaled to the reference speed."""

    def __init__(self, kernel=None):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.times: list[float] = []
        self.passed: list[bool] = []
        self.run_kernel = kernel
        self.kernel: list[float] = []

    def calibrate(self) -> None:
        if self.run_kernel is not None:
            self.kernel.append(self.run_kernel())

    def record(self, seconds: float, failure: str | None) -> None:
        self.attempted += 1
        self.wall += seconds
        self.times.append(seconds)
        self.passed.append(failure is None)
        if failure is None:
            self.latencies.append(seconds)
        else:
            self.failed += 1
            if self.failed <= 5:
                print(f"task failed: {failure}", file=sys.stderr)


def checked(check, *args) -> str | None:
    """Run an oracle check; an output it cannot read is a failed task."""
    try:
        return check(*args)
    except Exception as exc:  # a malformed output must not stop the run
        return f"output could not be checked: {type(exc).__name__}: {exc}"


def run_library_task(wl, task, ref, loop: Loop) -> None:
    """Time one call into fuzzcalc; the oracle check runs after the timer."""
    signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
    t0 = perf_counter()
    try:
        output = wl.run(task)
        failure = None
    except Exception as exc:  # every failure mode of a task is counted, not fatal
        output, failure = None, f"{type(exc).__name__}: {exc}"
    finally:
        t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    if failure is None:
        failure = checked(wl.check, task, output, ref)
    loop.record(t1 - t0, failure)


def library_pass(wl, tasks, refs, loop: Loop, tracer=None) -> None:
    for i, (task, ref) in enumerate(zip(tasks, refs)):
        if tracer is not None:
            tracer.task = i
        loop.calibrate()
        run_library_task(wl, task, ref, loop)


def latency_metrics(latencies: list[float], wall: float) -> tuple[dict, float, int]:
    """(metrics, tail percentile, samples beyond the tail) of passed-task
    latencies and the timed wall time."""
    if len(latencies) >= 11:
        tail, pct, beyond = workloads.tail(latencies)
    else:
        tail, pct, beyond = (max(latencies) if latencies else float("nan")), 100.0, 0
    return {
        "tasks_per_s": len(latencies) / wall if wall else 0.0,
        "task_p50_ms": statistics.median(latencies) * 1e3 if latencies else float("nan"),
        "task_tail_ms": tail * 1e3,
    }, pct, beyond


def summary_metrics(loop: Loop) -> dict:
    """Throughput and latencies with every task scaled to the reference host
    speed; the unscaled numbers are printed."""
    scaled = calibrate.scale(loop.times, loop.kernel)
    metrics, pct, beyond = latency_metrics([t for t, ok in zip(scaled, loop.passed) if ok], sum(scaled))
    raw, _, _ = latency_metrics(loop.latencies, loop.wall)
    print(f"task_tail_ms is p{pct:.1f} with {beyond} samples beyond it, {len(loop.latencies)} samples")
    print("unscaled wall time: " + "  ".join(f"{k} {v:.4g}" for k, v in raw.items())
          + f"; host at {statistics.fmean(loop.kernel):.3f} x the reference kernel time"
          + f" ({len(loop.kernel)} kernel samples)")
    return metrics


# -- set-up time -------------------------------------------------------------------


def setup_probe_argv(workload: str, seed: int) -> list[str]:
    if workload == "cli-oneshot":
        return [sys.executable, "-c", "import fuzzcalc.cli; print('ready', flush=True)"]
    return [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median time from starting a fresh interpreter until its first task is
    ready, each start scaled to the reference speed by the start-up kernel
    run just before and after it.  One discarded start first, so that every
    timed start finds the byte-code caches written."""
    times, kernel = [], []
    for _ in range(SETUP_REPEATS + 1):
        kernel.append(calibrate.startup_slowness(env, ROOT))
        t0 = perf_counter()
        proc = subprocess.Popen(setup_probe_argv(workload, seed), cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
        times.append(t1 - t0)
    kernel.append(calibrate.startup_slowness(env, ROOT))
    return statistics.median(calibrate.scale(times, kernel)[1:])


def setup_probe(workload: str, seed: int) -> None:
    workloads.LIBRARY[workload].build(seed)
    print("ready", flush=True)


# -- cli measurements ----------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def cli_environment(env: dict) -> dict:
    """Interpreter start (``python -c pass``) and the import of fuzzcalc.cli
    split by ``python -X importtime``, medians in ms."""
    interp, total, numpy_ms, own = [], [], [], []
    for _ in range(CLI_ENV_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        interp.append((perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fuzzcalc.cli"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        rows = [m.groups() for m in map(_IMPORTTIME.match, proc.stderr.splitlines()) if m]
        ours = [(int(s), int(c), len(ind), name) for s, c, ind, name in rows
                if name == "fuzzcalc" or name.startswith("fuzzcalc.")]
        top = min(depth for _, _, depth, _ in ours)
        total.append(sum(c for _, c, depth, _ in ours if depth == top) / 1e3)
        numpy_ms.append(max((int(c) for _, c, _, name in rows if name == "numpy"), default=0) / 1e3)
        own.append(sum(s for s, _, _, _ in ours) / 1e3)
    return {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(total),
        "cli.import.numpy_ms": statistics.median(numpy_ms),
        "cli.import.fuzzcalc_ms": statistics.median(own),
    }


def cli_subprocess_pass(tasks, env: dict, loop: Loop, walls: list[float] | None = None) -> None:
    for task in tasks:
        loop.calibrate()
        wall, code, out, err = cli_workload.invoke(task["argv"], ROOT, env)
        failure = "timed out" if code is None else checked(cli_workload.check, task, code, out, err)
        loop.record(wall, failure)
        if walls is not None:
            walls.append(wall)


def cli_inprocess_pass(tasks, loop: Loop, tracer=None) -> None:
    import fuzzcalc.cli

    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = fuzzcalc.cli.run(list(task["argv"]))
            except Exception as exc:  # an escaping exception is a traceback for a CLI user
                code = -1
                print(f"Traceback: {type(exc).__name__}: {exc}", file=err)
        wall = perf_counter() - t0
        loop.record(wall, checked(cli_workload.check, task, code, out.getvalue(), err.getvalue()))


def known_defects(env: dict) -> None:
    failing = []
    for task in cli_workload.KNOWN_DEFECTS:
        _, code, out, err = cli_workload.invoke(task["argv"], ROOT, env)
        reason = "timed out" if code is None else checked(cli_workload.check, task, code, out, err)
        if reason:
            failing.append(f"{' '.join(task['argv'][:3])} ...: {reason}")
    print(f"known-defect argvs (outside the timed mix): {len(failing)} of "
          f"{len(cli_workload.KNOWN_DEFECTS)} break the exit-code contract")
    for line in failing:
        print(f"  {line}")


# -- runs ------------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    env = cli_workload.child_env(ROOT)
    if workload == "cli-oneshot":
        kernel = functools.partial(calibrate.startup_slowness, env, ROOT)
    else:
        # 10001-level envelopes make ivp-wide bound by memory traffic, which
        # the narrow kernel alone does not see
        kernel = functools.partial(calibrate.slowness, workloads.LIBRARY[workload].levels > 1000)
    loop = Loop(kernel)
    passes = 0
    if workload == "cli-oneshot":
        os.makedirs(OUT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        try:
            tasks = cli_workload.build(seed, tmp)
            start = perf_counter()
            while passes == 0 or perf_counter() - start < seconds:
                cli_subprocess_pass(tasks, env, loop)
                passes += 1
            loop.calibrate()
            # the largest child: only timed invocations have been waited for so far
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            known_defects(env)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    else:
        wl = workloads.LIBRARY[workload]
        tasks = wl.build(seed)
        refs = [wl.reference(t) for t in tasks]
        run_library_task(wl, tasks[0], refs[0], Loop())  # warm-up, not counted
        start = perf_counter()
        while passes == 0 or perf_counter() - start < seconds:
            library_pass(wl, tasks, refs, loop)
            passes += 1
        loop.calibrate()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"workload {workload}  seed {seed}  passes {passes}  tasks {loop.attempted}"
          f"  failed {loop.failed}  failed_frac {loop.failed / loop.attempted:.4g}")
    metrics = summary_metrics(loop)
    metrics["setup_s"] = measure_setup(workload, seed, env)
    metrics["peak_rss_mb"] = rss_kib / 1024.0
    return loop, metrics


def traced(workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    """Alternate untraced and traced passes; per-layer numbers are per pass
    of the task list, and counts come out identical for a given seed."""
    from tracer import Tracer  # imports inspect; kept out of set-up probes

    env = cli_workload.child_env(ROOT)
    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer()
    loop = Loop()
    plain_times, traced_times, run_ms, wall_ms = [], [], [], []
    tmp = tempfile.mkdtemp(prefix="trace-", dir=OUT)
    try:
        if workload == "cli-oneshot":
            tasks = cli_workload.build(seed, tmp)
            walls: list[float] = []
            cli_subprocess_pass(tasks, env, loop, walls)
            wall_ms = [w * 1e3 for w in walls]

            def plain_pass(lp):
                cli_inprocess_pass(tasks, lp)
                run_ms.extend(w * 1e3 for w in lp.latencies)

            def traced_pass(lp):
                tracer.task = -1
                cli_inprocess_pass(cli_workload.build(seed, tmp), lp, tracer)
        else:
            wl = workloads.LIBRARY[workload]
            tasks = wl.build(seed)
            refs = [wl.reference(t) for t in tasks]
            run_library_task(wl, tasks[0], refs[0], Loop())

            def plain_pass(lp):
                library_pass(wl, tasks, refs, lp)

            def traced_pass(lp):
                tracer.task = -1
                library_pass(wl, wl.build(seed), refs, lp, tracer)

        start = perf_counter()
        while not traced_times or perf_counter() - start < seconds:
            lp = Loop()
            plain_pass(lp)
            plain_times.append(lp.wall)
            loop.attempted += lp.attempted
            loop.failed += lp.failed
            lt = Loop()
            tracer.install()
            try:
                traced_pass(lt)
            finally:
                tracer.uninstall()
            traced_times.append(lt.wall)
            loop.attempted += lt.attempted
            loop.failed += lt.failed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = tracer.layer_metrics(len(traced_times))
    tracer.write(os.path.join(OUT, f"spans-{workload}"))
    metrics = result["metrics"]
    metrics.update(cli_environment(env))
    metrics["cli.wall_ms"] = statistics.median(wall_ms) if wall_ms else 0.0
    metrics["cli.run_ms"] = statistics.median(run_ms) if run_ms else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    total = sum(result["self_s"].values())
    shares = "  ".join(f"{k} {v / total:.1%}" for k, v in result["self_s"].items() if total)
    print(f"workload {workload}  seed {seed}  traced passes {len(traced_times)}"
          f"  tasks {loop.attempted}  failed {loop.failed}")
    print(f"self-time share per layer (traced): {shares}")
    return loop, metrics


def emit(loop: Loop, metrics: dict, declared: dict[str, str]) -> None:
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for name, unit in declared.items():
        print(f"{name:36s} {metrics[name]!r:>24} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fuzzcalc", "__init__.py")):
        print(f"error: no fuzzcalc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            code |= subprocess.call([sys.executable, os.path.abspath(__file__), "--workload", name,
                                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], cwd=ROOT)
        return code

    declared = declared_metrics()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        loop, metrics = traced(args.workload, args.seed, args.seconds)
        emit(loop, metrics, declared["per_layer"])
    else:
        loop, metrics = end_to_end(args.workload, args.seed, args.seconds)
        emit(loop, metrics, declared["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
