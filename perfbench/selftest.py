"""Smoke self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Builds every workload with tiny inputs, runs one untraced and one traced
pass, and checks that:
- every metric named in BENCHMARK.json is emitted, with its unit;
- no command fails on the tiny inputs;
- the output checks flag a tampered dichotomy witness, pipeline answer and
  certificate, decode answer, fence and mn-search count, and a report that
  differs from the first pass;
- the time guard stops a command that overruns and counts it failed.
Exits 1 on the first problem.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
import time

import run
import spans

TINY = {
    "staged": dict(stages=12, value_range=16, target_edges=0, decode_k=3,
                   exhaustive_stages=8, exhaustive_vertices=0, candidates=2),
    "search": dict(dichotomy_stages=8, dichotomy_p3=0, dichotomy_n=(4, 5), pipeline_stages=6,
                   batch_sizes=(8, 10), candidates=2),
    "enumerate": dict(searches=((4, 6), (5, 5))),
    "lattice": dict(fence_lengths=(5,), random_lattices=2, random_inner=10),
}


def expect(ok, message):
    print("%s %s" % ("ok  " if ok else "FAIL", message))
    if not ok:
        sys.exit(1)


def tiny_run(package, workload):
    work = os.path.join(run.WORK, "selftest", workload)
    os.makedirs(work, exist_ok=True)
    commands = run.workloads.WORKLOADS[workload](random.Random(7), package, work, **TINY[workload])
    bench = run.Run(package, commands, run.Guard(time.monotonic()), run.Speedometer())
    bench.one_pass()
    bench.one_pass(spans.Tracer())
    return bench


def rerun_report(package, bench, kind):
    """(command, parsed report, facts) for the first command of ``kind``, rerun."""
    facts = {}
    for command in bench.commands:
        _, _, _, stdout, error = run.run_command(package, command, bench.guard)
        expect(error is None, "rerun of %s succeeds" % command.kind)
        report = json.loads(stdout)
        if command.kind == kind:
            return command, report, facts
        command.check(report, facts)
    raise LookupError(kind)


def tamper_checks(package, benches):
    command, report, facts = rerun_report(package, benches["search"], "dichotomy")
    bad = copy.deepcopy(report)
    with open(command.argv[command.argv.index("--graph") + 1], encoding="utf-8") as fh:
        host = json.load(fh)
    res = bad["results"]
    if "embedding" in res:
        emb = res["embedding"]["assignment"]
        edges = {tuple(e) for e in host["edges"]}
        emb["a0"] = next(v for v in host["vertices"] if v not in emb.values()
                         and (min(v, emb["b0"]), max(v, emb["b0"])) not in edges)
    else:
        res["path"][-1] = res["path"][0]
    expect(command.check(report, {}) is None, "untouched dichotomy witness passes")
    expect(command.check(bad, {}) is not None, "tampered dichotomy witness is flagged")

    bench = benches["search"]
    for command in (c for c in bench.commands if c.kind == "pipeline"):
        _, _, _, stdout, _ = run.run_command(package, command, bench.guard)
        report = json.loads(stdout)
        if "certificate" in report["results"]:
            break
    else:
        expect(False, "some tiny pipeline host has a homogeneous set")
    expect(command.check(report, {}) is None, "untouched pipeline report passes")
    bad = copy.deepcopy(report)
    res = bad["results"]
    res["outcome"] = "no_homogeneous_set"
    for key in ("certificate", "embedding", "path"):
        res.pop(key, None)
    expect(command.check(bad, {}) is not None,
           "a pipeline claiming no homogeneous set when there is one is flagged")
    bad = copy.deepcopy(report)
    cert = bad["results"]["certificate"]
    cert["color"] = [0, 0] if cert["color"] == "K" else "K"
    expect(command.check(bad, {}) is not None, "tampered pipeline certificate is flagged")

    command, report, facts = rerun_report(package, benches["staged"], "decode")
    bad = copy.deepcopy(report)
    bad["results"]["queries"][0]["decoded"] = not bad["results"]["queries"][0]["decoded"]
    expect(command.check(bad, facts) is not None, "tampered decode answer is flagged")

    command, report, facts = rerun_report(package, benches["lattice"], "lattice_fences")
    bad = copy.deepcopy(report)
    fence = bad["results"]["fence"]
    fence[0], fence[1] = fence[1], fence[0]
    expect(command.check(bad, facts) is not None, "tampered fence is flagged")

    command, report, facts = rerun_report(package, benches["enumerate"], "mn_search")
    expect(command.check(report, facts) is None, "untouched mn-search report passes")
    path = command.argv[command.argv.index("--report") + 1]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["sizes"][-1]["neither"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    bad = copy.deepcopy(report)
    bad["results"] = payload
    expect(command.check(bad, facts) is not None, "tampered mn-search count is flagged")

    bench = benches["lattice"]
    first = bench.commands[0]
    _, _, code, stdout, _ = run.run_command(package, first, bench.guard)
    expect(bench._check(0, first, code, stdout, {}) is None, "identical report matches pass 1")
    expect(bench._check(0, first, code, stdout + " ", {}) is not None,
           "a report differing from pass 1 is flagged")


def guard_check(package):
    work = os.path.join(run.WORK, "selftest", "guard")
    os.makedirs(work, exist_ok=True)
    command = run.workloads.build_enumerate(random.Random(0), package, work,
                                            searches=((4, 8),))[0]
    guard = run.Guard(time.monotonic(), command_limit=0.2)
    start = time.monotonic()
    seconds, _, _, _, error = run.run_command(package, command, guard)
    expect(error is not None and "timed out" in error and time.monotonic() - start < 5,
           "a command past its time limit is stopped and counted failed (%.2f s)" % seconds)


def main() -> int:
    if not run.prepare():
        print("selftest: no chordlab sources to test", file=sys.stderr)
        return 2
    package = run.import_chordlab()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    benches = {}
    for workload in sorted(run.workloads.WORKLOADS):
        bench = benches[workload] = tiny_run(package, workload)
        expect(not bench.failures, "%s: %d commands, no failures %s"
               % (workload, len(bench.commands), bench.failures[:3]))
        emitted = {k: u for k, (_, u) in run.end_to_end(bench, [0.1]).items()}
        expect(emitted == e2e, "%s: end-to-end metrics match BENCHMARK.json" % workload)
        emitted = {k: u for k, (_, u) in run.per_layer(bench).items()}
        expect(emitted == layer, "%s: per-layer metrics match BENCHMARK.json %s"
               % (workload, sorted(set(emitted) ^ set(layer))))
    tamper_checks(package, benches)
    guard_check(package)
    return 0


if __name__ == "__main__":
    sys.exit(main())
