"""One SHA-256 per benchmark command, to show that two checkouts report the same bytes.

Usage, from the root of a chordlab checkout:

    python3 tools/report_digests.py --src OTHER/src --work DIR --seeds 1 2 > other.txt
    python3 tools/report_digests.py --src src --work DIR --seeds 1 2 > this.txt
    diff other.txt this.txt

Each workload of ``perfbench/workloads.py`` is built at each seed under DIR,
and its commands run one after another through ``chordlab.cli.main`` of the
chordlab found in ``--src``.  Reports echo input paths, so DIR must be the
same for both runs; the workloads get relative paths inside it.  Each output
line is ``workload seed index kind digest``: ``perfbench/run.py``'s digest of
the exit code, stdout and stderr, and every file the command declares as
output.  A declared output that is missing stops the tool.

``perfbench/`` is only read: its modules are loaded without writing bytecode.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import random
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_chordlab(src: str):
    """chordlab and its CLI, imported from ``src`` and nowhere else."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    package = importlib.import_module("chordlab")
    importlib.import_module("chordlab.cli")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise ImportError("chordlab resolved outside %s: %s" % (src, package.__file__))
    return package


def command_digest(run, package, command) -> str:
    """Run one command; perfbench's digest of its exit code, stdout plus stderr, and outputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = package.cli.main(list(command.argv))
        except SystemExit as exc:
            code = "exit %r" % (exc.code,)
    return run.digest(code, out.getvalue() + "\0" + err.getvalue(), command.outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory of the checkout to run")
    parser.add_argument("--work", required=True, help="work directory, the same for every run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)

    package = import_chordlab(args.src)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    os.makedirs(args.work, exist_ok=True)
    os.chdir(args.work)
    for name in sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            shutil.rmtree(name, ignore_errors=True)
            os.makedirs(name)
            commands = workloads.WORKLOADS[name](random.Random(seed), package, name)
            for i, command in enumerate(commands):
                print(name, seed, i, command.kind, command_digest(run, package, command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
