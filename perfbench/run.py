"""chordlab benchmark: seeded CLI workloads run in-process, checked, timed.

Usage, from the root of a chordlab checkout:

    python3 perfbench/run.py --workload staged --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: the workload's command list goes
through ``chordlab.cli.main(argv)`` one command after another, pass after
pass, until ``--seconds`` would be exceeded (at least two passes).  Every
report is checked independently (``workloads``/``checks``) and must be
byte-identical to the same command's report in the first pass.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate (at least two of each) and
the metrics are the per-layer ones.

The end-to-end times (``wall_ref_s``, ``setup_s``) are in reference seconds:
each timed piece of work is divided by the calibration loop's time measured
around and inside it, then multiplied by REFERENCE_CALIB_S.  Every per-layer
time, and ``wall_s``, is plain seconds.  NOTES.md explains why.

The process imports chordlab from ``src/`` of the checkout and nowhere else,
starts no threads or processes, and writes only under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench_work"  # relative to ROOT, so reports name stable paths

SETUP_REPEATS = 3
MIN_PASSES = 2
MIN_TRACED_RUN_PASSES = 4  # two traced passes, so their counts can be compared
COMMAND_LIMIT_S = 60.0  # a command running longer is stopped and counted failed
RUN_LIMIT_S = 150.0  # no command runs past this point of the process's life
ADDRESS_SPACE_LIMIT = 3 << 30  # bytes; a runaway allocation fails instead of OOM

CALIBRATION_LOOP = 100_000  # iterations of the calibration loop
REFERENCE_CALIB_S = 0.025  # its time on the reference host (2-CPU Xeon, Python 3.11)
CALIBRATION_EVERY_S = 0.5  # between commands, recalibrate after this much command time
SAMPLE_EVERY_S = 0.1  # inside a command, time a short chunk after this much CPU time
SAMPLE_LOOP = 10_000


class CommandTimeout(BaseException):
    """Raised inside a command that overran its time limit.

    A BaseException, so chordlab's own ``except ChordlabError`` handlers
    cannot swallow it.
    """


class Guard:
    """Stops a running command with SIGALRM once its time limit passes."""

    def __init__(self, started: float, command_limit: float = COMMAND_LIMIT_S):
        self.deadline = started + RUN_LIMIT_S
        self.command_limit = command_limit
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise CommandTimeout

    def limit(self) -> float:
        return min(self.command_limit, self.deadline - time.monotonic())

    @contextlib.contextmanager
    def armed(self, seconds: float):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def calibrate(loops: int = CALIBRATION_LOOP) -> float:
    """Seconds for a fixed pure-Python loop that shares no code with chordlab."""
    start = time.perf_counter()
    table = [0] * 1024
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] += 1
    return time.perf_counter() - start


class Speedometer:
    """Samples the host's speed while timed work runs.

    Every SAMPLE_EVERY_S of CPU time a SIGPROF handler times a short chunk of
    the calibration loop.  The chunks' own time is kept in ``spent`` so the
    caller can take it out of the work's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._on_tick)

    def _on_tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate(SAMPLE_LOOP) * (CALIBRATION_LOOP / SAMPLE_LOOP))
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def inside(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)


def reference_seconds(seconds: float, calibrations) -> float:
    """Work time at the reference speed, given calibrations taken around and in it.

    The samples are spread evenly over the work's time, and the work done in
    each stretch is proportional to 1 / calibration, so the harmonic mean is
    the host's average speed over the work.  A sample slowed by an interrupt
    moves it little.
    """
    return seconds * REFERENCE_CALIB_S / statistics.harmonic_mean(calibrations)


def import_chordlab():
    """Fresh import of chordlab from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "chordlab" or m.startswith("chordlab.")]:
        del sys.modules[name]
    package = importlib.import_module("chordlab")
    importlib.import_module("chordlab.cli")
    if not os.path.abspath(package.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError("chordlab resolved outside this checkout: %s" % package.__file__)
    return package


def setup(workload: str, seed: int, speed: Speedometer):
    """Import chordlab and generate the workload's inputs.

    Returns (package, commands, set-up time in reference seconds).
    """
    before = calibrate()
    start = time.perf_counter()
    with speed.inside():
        work = os.path.join(WORK, workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        package = import_chordlab()
        commands = workloads.WORKLOADS[workload](random.Random(seed), package, work)
    seconds = time.perf_counter() - start - speed.spent
    return package, commands, reference_seconds(seconds, speed.samples + [before, calibrate()])


def run_command(package, command, guard, speed=None):
    """Run one command, sampling the host's speed inside it when ``speed`` is given.

    Returns (seconds, speed samples, exit code or None, stdout, error or None).
    """
    limit = guard.limit()
    if limit <= 0:
        return 0.0, [], None, "", "not started: run time limit reached"
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with guard.armed(limit), speed.inside() if speed else contextlib.nullcontext(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = package.cli.main(list(command.argv))
    except CommandTimeout:
        error = "timed out after %.0f s" % limit
    except SystemExit as exc:
        error = "exited with %r: %s" % (exc.code, err.getvalue().strip()[:200])
    except Exception as exc:  # a crash in one command must not stop the run
        error = "raised %s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start - (speed.spent if speed else 0.0)
    if error is None and code != 0:
        error = "exit code %r: %s" % (code, err.getvalue().strip()[:200])
    return seconds, speed.samples if speed else [], code, out.getvalue(), error


def digest(code, stdout: str, outputs) -> str:
    h = hashlib.sha256(repr(code).encode() + b"\0" + stdout.encode())
    for path in outputs:
        with open(path, "rb") as fh:
            h.update(b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


class Run:
    """Passes over one command list, with the checks and records between them.

    With a Speedometer, untraced passes also record each command's time in
    reference seconds.  Traced runs go without one, so no speed sample runs
    inside a span.
    """

    def __init__(self, package, commands, guard, speed=None):
        self.package = package
        self.commands = commands
        self.guard = guard
        self.speed = speed
        self.digests = [None] * len(commands)  # first pass's digest per command
        self.seconds = {"untraced": [], "traced": []}  # per pass: each command's seconds
        self.ref = []  # per untraced pass: each command's reference seconds
        self.calibration = []
        self.layer_passes = []  # per traced pass: metrics from the tracer
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None) -> float:
        """Run every command once; returns the pass's seconds."""
        facts = {}
        seconds, samples = [], []
        marks = [(0, calibrate())]  # (index of the next command, calibration seconds)
        speed = self.speed if tracer is None else None
        if tracer is not None:
            tracer.install(self.package)
        try:
            for i, command in enumerate(self.commands):
                gc.collect()
                if sum(seconds[marks[-1][0]:]) >= CALIBRATION_EVERY_S:
                    marks.append((i, calibrate()))
                elapsed, inside, code, stdout, error = run_command(
                    self.package, command, self.guard, speed)
                seconds.append(elapsed)
                samples.append(inside)
                self.attempted += 1
                if error is None:
                    error = self._check(i, command, code, stdout, facts)
                if error is not None:
                    self.failures.append("%s %s: %s" % (command.kind, i, error))
        finally:
            if tracer is not None:
                tracer.uninstall()
        marks.append((len(seconds), calibrate()))
        self.calibration.extend(c for _, c in marks)
        self.seconds["untraced" if tracer is None else "traced"].append(seconds)
        if speed is not None:
            self.ref.append([
                reference_seconds(seconds[i], samples[i] + [before, after])
                for (first, before), (end, after) in zip(marks, marks[1:])
                for i in range(first, end)])
        if tracer is not None:
            self.layer_passes.append(tracer.metrics())
        return sum(seconds)

    def failed(self) -> int:
        """Failures, capped at the commands attempted.

        A count that differs between traced passes is a failure of no single
        command, so the raw failure list can outgrow ``attempted``.
        """
        return min(len(self.failures), self.attempted)

    def _check(self, i, command, code, stdout, facts):
        try:
            now = digest(code, stdout, command.outputs)
        except OSError as exc:
            return "output file unreadable: %s" % exc
        if self.digests[i] is None:
            try:
                report = json.loads(stdout)
            except ValueError:
                return "report is not JSON"
            try:
                error = command.check(report, facts)
            except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
                error = "malformed output: %s: %s" % (type(exc).__name__, exc)
            if error is None:
                self.digests[i] = now
            return error
        if now != self.digests[i]:
            return "report or output file differs from the first pass"
        return None


def median_pass(passes) -> float:
    """Sum over the command list of each command's median time across passes."""
    return sum(statistics.median(column) for column in zip(*passes))


def end_to_end(run, setup_times):
    return {
        "wall_ref_s": (median_pass(run.ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(run):
    units = spans.layer_metric_units()
    metrics = {}
    for name, unit in units.items():
        values = [p[name] for p in run.layer_passes]
        # Counts repeat exactly from pass to pass; times take the median.
        metrics[name] = (values[0] if unit != "s" else statistics.median(values), unit)
        if unit != "s" and len(set(values)) > 1:
            run.failures.append("count %s differs between traced passes: %r" % (name, values))
    untraced = run.seconds["untraced"]
    for kind in spans.COMMANDS:
        columns = [col for cmd, col in zip(run.commands, zip(*untraced)) if cmd.kind == kind]
        metrics[kind + "_s"] = (sum(statistics.median(c) for c in columns), "s")
    metrics["wall_s"] = (median_pass(untraced), "s")
    metrics["bench.calib_s"] = (statistics.median(run.calibration), "s")
    metrics["bench.trace_overhead"] = (median_pass(run.seconds["traced"]) / median_pass(untraced),
                                       "ratio")
    metrics["bench.failed_frac"] = (run.failed() / run.attempted, "ratio")
    return metrics


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": model}


def prepare() -> bool:
    """Fix the process environment; False when the checkout has no chordlab sources."""
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "chordlab", "cli.py")):
        return False
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("GRS_LAB_JOBS", None)  # chordlab's default --jobs; never set here
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
    return True


def measure(run: Run, seconds: float, traced: bool) -> int:
    """Passes until the next would end past ``seconds``; returns the pass count.

    A traced run alternates untraced and traced passes, starting untraced.
    The first MIN_PASSES (MIN_TRACED_RUN_PASSES when traced) always run; past
    the guard's deadline their commands fail at once without starting.
    """
    budget_end = time.monotonic() + seconds
    pass_times = []
    min_passes = MIN_TRACED_RUN_PASSES if traced else MIN_PASSES
    while True:
        passes = len(pass_times)
        if passes >= min_passes:
            if time.monotonic() >= run.guard.deadline:
                break
            same_kind = pass_times[passes % 2::2] if traced else pass_times
            if time.monotonic() + statistics.median(same_kind) > budget_end:
                break
        tracer = spans.Tracer() if traced and passes % 2 == 1 else None
        pass_times.append(run.one_pass(tracer))
    return len(pass_times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not prepare():
        print("perfbench: no chordlab sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    speed = Speedometer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        package, commands, seconds = setup(args.workload, args.seed, speed)
        setup_times.append(seconds)
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collector's way, as in a fresh CLI process

    run = Run(package, commands, Guard(started), None if args.trace else speed)
    passes = measure(run, args.seconds, bool(args.trace))
    metrics = per_layer(run) if args.trace else end_to_end(run, setup_times)

    print("# perfbench %s" % json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "commands": len(commands), "wall_s": median_pass(run.seconds["untraced"]),
        "calib_s": statistics.median(run.calibration), **environment()}, sort_keys=True))
    for failure in run.failures[:20]:
        print("# FAIL %s" % failure, file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
