"""Command-line entry point; every command prints one JSON run report.

Exit codes: 0 success, 1 when an invariant check fails, 2 on input errors.
Identical inputs produce byte-identical reports; seeded randomness is
recorded in the parameter echo.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import construction, formats, lattices, ramsey
from .errors import ChordlabError, LatticeAxiomError, StructuralError
from .graphs import Pattern, check_traceable

SCHEMA_VERSION = 1


def _echo(args, **parsed) -> dict:
    """The parameter echo: each option as argparse read it, or as ``parsed``
    gives it for an option the command parses further."""
    skip = ("command", "lattice_command")
    return {name: v for name, v in vars(args).items() if name not in skip} | parsed


def _command(args) -> str:
    """The command ``args`` names, ``lattice-<sub>`` for a lattice subcommand."""
    if args.command == "lattice":
        return "lattice-" + args.lattice_command
    return args.command


def _finish(args, parameters: dict, results: dict, checks: list) -> int:
    """Print the report of the command ``args`` ran; the exit code is 0 when
    every check passed, else 1."""
    report = {
        "schema": SCHEMA_VERSION,
        "command": _command(args),
        "parameters": parameters,
        "results": results,
        "checks": [
            {"name": name, "pass": ok, "witness": witness}
            for name, ok, witness in checks
        ],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if all(ok for _, ok, _ in checks) else 1


def parse_f(spec: str):
    """Either an explicit comma list or ``seed:N,len:T`` for a seeded sequence."""
    if spec.startswith("seed:"):
        seed_part, _, len_part = spec[len("seed:"):].partition(",len:")
        try:
            seed, length = int(seed_part), int(len_part)
        except ValueError:
            raise ChordlabError("bad f spec %r; expected seed:N,len:T" % spec)
        return construction.seeded_injective(seed, length), {"seed": seed, "len": length}
    try:  # an empty spec is the empty sequence; an empty token is an error
        values = tuple(int(tok) for tok in spec.split(",")) if spec else ()
    except ValueError:
        raise ChordlabError("bad f spec %r; expected comma-separated naturals" % spec)
    return values, {"values": list(values)}


def parse_query(spec: str):
    """Comma-separated integers, as ``decode --query`` takes them; an empty
    spec is the empty list."""
    try:
        return [int(tok) for tok in spec.split(",")] if spec else []
    except ValueError:
        raise ChordlabError("bad query %r; expected comma-separated integers" % spec)


def parse_pattern(spec: str) -> Pattern:
    try:
        kind, k = spec.split(":", 1)
        return Pattern(kind, int(k))
    except (ValueError, IndexError):
        raise ChordlabError("bad pattern %r; expected A:k or Kkk:k" % spec)


def _embedding_obj(emb):
    return {"pattern": str(emb.pattern), "assignment": emb.assignment}


def _apart(flag: str, path, other_flag: str, other: str) -> None:
    """Refuse a ``flag`` path naming the same file as ``other_flag``'s path."""
    if path and os.path.realpath(path) == os.path.realpath(other):
        raise ChordlabError("%s names the same file as %s: %r" % (flag, other_flag, path))


def cmd_construct(args) -> int:
    _apart("--dot", args.dot, "--out", args.out)
    f, f_echo = parse_f(args.f)
    history = construction.run(f, args.stages)
    final = history.final_graph()
    formats.save_graph(final, args.out)  # streamed row by row; a failed
    if args.dot:  # write leaves neither file behind
        formats.write_parts(args.dot, formats.graph_dot_parts(final), args.out)
    if args.trace_stages:
        for s in range(args.stages + 1):
            print(json.dumps(history.stage_trace(s), sort_keys=True))
    checks = [("traceable", check_traceable(final), None)]
    results = {
        "stages": args.stages,
        "final_k": history.final_k,
        "final_coding": list(history.final_coding),
        "edges": final.edge_count(),
        "out": args.out,
    }
    return _finish(args, _echo(args, f=f_echo), results, checks)


def cmd_verify(args) -> int:
    f, f_echo = parse_f(args.f)
    history = construction.run(f, args.stages)
    witnesses = construction.check_history_lemmas(history)
    checks = []
    for i, name in enumerate(construction.LEMMA_NAMES):
        first = next(
            (
                {"stage": s, "witness": list(stage[i])}
                for s, stage in enumerate(witnesses)
                if stage[i] is not None
            ),
            None,
        )
        checks.append((name, first is None, first))
    law = construction.coding_change_law(history)
    checks.append(("coding-biconditional", law, None))
    if args.exhaustive_chordless:
        ok = construction.history_has_no_chordless4(history)
        checks.append(("no-chordless-4paths", ok, None))
    results = {"stages": args.stages, "final_k": history.final_k}
    return _finish(args, _echo(args, f=f_echo), results, checks)


def cmd_decode(args) -> int:
    f, f_echo = parse_f(args.f)
    pattern = parse_pattern(args.pattern)
    queries = parse_query(args.query)
    history = construction.run(f, args.stages)
    emb = construction.build_decode_context(history, pattern)
    consumed = history.consumed
    rows = []
    first_bad = None
    for k in queries:
        decoded = construction.decode_range(emb, history.f, k)
        truth = k in consumed
        if decoded != truth and first_bad is None:
            first_bad = {"k": k, "decoded": decoded, "in_range": truth}
        rows.append({"k": k, "decoded": decoded, "in_range": truth})
    checks = [("decode-matches-range", first_bad is None, first_bad)]
    results = {
        "pattern": str(pattern),
        "gprime": list(emb.image[: pattern.k]),
        "embedding": _embedding_obj(emb),
        "queries": rows,
    }
    return _finish(args, _echo(args, f=f_echo, query=queries), results, checks)


def cmd_dichotomy(args) -> int:
    _apart("--witness", args.witness, "--graph", args.graph)
    g = formats.load_graph(args.graph)
    witness = ramsey.dichotomy(g, args.n)  # checks its witness before returning it
    results = {"kind": witness.kind}
    if witness.kind == "chordless_path":
        results["path"] = list(witness.path)
    elif witness.kind == "k22":
        results["embedding"] = _embedding_obj(witness.embedding)
    checks = [("witness-valid", True, None)]
    if args.witness:  # through write_parts, so a failed write leaves no file
        text = json.dumps(results, sort_keys=True, indent=2) + "\n"
        formats.write_parts(args.witness, [text])
    return _finish(args, _echo(args), results, checks)


def cmd_mn_search(args) -> int:
    result = ramsey.estimate_min_m(args.n, args.max_size)
    payload = {
        "n": result.n,
        "sizes": [
            {
                "size": c.size,
                "graphs": c.graphs,
                "neither": c.neither,
                "example": [list(e) for e in c.example] if c.example else None,
            }
            for c in result.sizes
        ],
        "empirical_lower_bound": result.empirical_lower_bound,
        "exact_threshold": result.exact_threshold,
    }
    formats.write_parts(args.report, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])
    checks = [("search-complete", True, None)]
    return _finish(args, _echo(args), payload, checks)


def cmd_pipeline(args) -> int:
    g = formats.load_graph(args.graph)
    trace = ramsey.proof_pipeline(g, args.n)  # each witness checked where it is made
    results = {
        "n": trace.n,
        "q": trace.q,
        "outcome": trace.outcome,
        "table_pairs": trace.table_pairs,
        "colors_used": trace.colors_used,
        "notes": trace.notes,
    }
    if trace.certificate is not None:
        color = trace.certificate.color
        results["certificate"] = {
            "subset": list(trace.certificate.subset),
            "color": color if color == ramsey.RESIDUAL else list(color),
        }
    if trace.path is not None:
        results["path"] = list(trace.path)
    if trace.embedding is not None:
        results["embedding"] = _embedding_obj(trace.embedding)
    witnessed = trace.path is not None or trace.embedding is not None
    checks = [("witness-valid" if witnessed else "pipeline-ran", True, None)]
    return _finish(args, _echo(args), results, checks)


def cmd_lattice_verify(args) -> int:
    n, pairs, _ = formats.load_lattice_candidate(args.lattice)
    try:
        lat = lattices.FiniteLattice(n, pairs)
    except LatticeAxiomError as exc:
        failed = {"axiom": exc.axiom, "witness": list(exc.witness)}
        return _finish(args, _echo(args), {"n": n}, [("lattice-axioms", False, failed)])
    checks = [("lattice-axioms", True, None)]
    length3 = lattices.check_length3(lat)
    checks.append(("length-3", length3, None))
    # two atoms under two coatoms contradict the axioms only at length 3, and
    # there FiniteLattice returned only once check_no_double_cover found none
    if length3:
        checks.append(("no-double-cover", True, None))
    results = {"n": n, "atoms": lat.atoms(), "coatoms": lat.coatoms()}
    return _finish(args, _echo(args), results, checks)


def cmd_lattice_fences(args) -> int:
    _apart("--dot", args.dot, "--lattice", args.lattice)
    n, pairs, gens = formats.load_lattice_candidate(args.lattice)
    if gens is None:
        raise ChordlabError("lattice JSON must carry 'generators' for fence search")
    lat = lattices.FiniteLattice(n, pairs)
    fence = lattices.find_fences(lat, gens, args.target)
    if args.dot:  # written only once the search has accepted its input
        formats.write_parts(args.dot, [formats.lattice_to_dot(lat)])
    checks = []
    if fence is None:
        results = {"fence": None}
        checks.append(("fence-found", False, {"target": args.target}))
    else:
        # find_fences returns a fence only once its validate_fence passed
        results = {"fence": list(fence)}
        checks.append(("fence-valid", True, None))
    return _finish(args, _echo(args), results, checks)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one JSON line on stderr, like other input errors."""

    def error(self, message):
        print(json.dumps({"error": message}, sort_keys=True), file=sys.stderr)
        sys.exit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every later
    one; parsing does not change it, so one parser serves every run of a
    process, and no caller may change it either."""
    parser = _Parser(
        prog="chordlab",
        description="Staged graph constructions, the finite K22/chordless-path "
        "dichotomy, and lattice fence extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the staged construction")
    p.add_argument("--f", required=True, help="comma list or seed:N,len:T")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--out", required=True, help="output graph JSON path")
    p.add_argument("--dot", help="also write a DOT rendering")
    p.add_argument("--trace-stages", action="store_true")

    p = sub.add_parser("verify", help="check per-stage invariants of a run")
    p.add_argument("--f", required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--exhaustive-chordless", action="store_true")

    p = sub.add_parser("decode", help="decode value membership from an embedding")
    p.add_argument("--f", required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--pattern", required=True, help="A:k or Kkk:k")
    p.add_argument("--query", required=True, help="comma list of values")

    p = sub.add_parser("dichotomy", help="chordless n-path or K22 copy")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--witness", help="write the witness JSON here")

    p = sub.add_parser("mn-search", help="exact m(n) threshold search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("pipeline", help="table, coloring, homogeneous search, extraction")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)

    lat = sub.add_parser("lattice", help="lattice validation and fence search")
    lat_sub = lat.add_subparsers(dest="lattice_command", required=True)

    p = lat_sub.add_parser("verify", help="axioms, length-3, double-cover scan")
    p.add_argument("--lattice", required=True)

    p = lat_sub.add_parser("fences", help="extract a fence through the tree pipeline")
    p.add_argument("--lattice", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--dot", help="write the Hasse diagram DOT here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse in Python 3.11 reads --x=-- as []
                raise ChordlabError("bad value for --%s" % name.replace("_", "-"))
        # looked up by name on each run, so that a patched cmd_* is what runs
        return globals()["cmd_" + _command(args).replace("-", "_")](args)
    except StructuralError as exc:
        error = str(exc)
        return _finish(args, {}, {"error": error}, [("internal", False, error)])
    except (ChordlabError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
