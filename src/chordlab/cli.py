"""Command-line entry point; every command prints one JSON run report.

Exit codes: 0 success, 1 when an invariant check fails, 2 on input errors.
Identical inputs produce byte-identical reports; seeded randomness is
recorded in the parameter echo.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import construction, formats, lattices, ramsey
from .errors import ChordlabError, StructuralError
from .graphs import Pattern, check_traceable, embedding_is_valid, is_chordless

SCHEMA_VERSION = 1


def _echo(args, **parsed) -> dict:
    """The parameter echo: each option as argparse read it, or as ``parsed``
    gives it for an option the command parses further."""
    skip = ("command", "lattice_command", "func")
    return {name: v for name, v in vars(args).items() if name not in skip} | parsed


def _finish(args, parameters: dict, results: dict, checks: list) -> int:
    """Print the report of the command ``args`` ran (``lattice-<sub>`` for a
    lattice subcommand); the exit code is 0 when every check passed, else 1."""
    command = args.command
    if command == "lattice":
        command += "-" + args.lattice_command
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
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
        try:
            seed_part, len_part = spec.split(",", 1)
            seed = int(seed_part.split(":", 1)[1])
            length = int(len_part.split(":", 1)[1])
        except (ValueError, IndexError):
            raise ChordlabError("bad f spec %r; expected seed:N,len:T" % spec)
        return construction.seeded_injective(seed, length), {"seed": seed, "len": length}
    try:
        values = tuple(int(tok) for tok in spec.split(",") if tok != "")
    except ValueError:
        raise ChordlabError("bad f spec %r; expected comma-separated naturals" % spec)
    return values, {"values": list(values)}


def parse_query(spec: str):
    """Comma-separated integers, as ``decode --query`` takes them."""
    try:
        return [int(tok) for tok in spec.split(",") if tok != ""]
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
    formats.save_graph(final, args.out)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(formats.graph_to_dot(final))
        except OSError:  # a failed run leaves no graph behind, but removes
            # only a regular file: never a device such as /dev/null, nor a symlink
            if os.path.isfile(args.out) and not os.path.islink(args.out):
                os.remove(args.out)
            raise
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
    lemma_report = construction.check_history_lemmas(history)
    checks = []
    for name in construction.LEMMA_NAMES:
        first = next(
            (
                {"stage": report.stage, "witness": list(check.witness)}
                for report in lemma_report.stage_reports
                for check in report.checks
                if check.name == name and not check.passed
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
    ctx = construction.build_decode_context(history, pattern)
    consumed = history.consumed
    rows = []
    first_bad = None
    for k in queries:
        decoded = construction.decode_range(ctx, history.f, k)
        truth = k in consumed
        if decoded != truth and first_bad is None:
            first_bad = {"k": k, "decoded": decoded, "in_range": truth}
        rows.append({"k": k, "decoded": decoded, "in_range": truth})
    checks = [("decode-matches-range", first_bad is None, first_bad)]
    results = {
        "pattern": str(pattern),
        "gprime": list(ctx.gprime),
        "embedding": _embedding_obj(ctx.embedding),
        "queries": rows,
    }
    return _finish(args, _echo(args, f=f_echo, query=queries), results, checks)


def cmd_dichotomy(args) -> int:
    _apart("--witness", args.witness, "--graph", args.graph)
    g = formats.load_graph(args.graph)
    witness = ramsey.dichotomy(g, args.n)
    checks = []
    results = {"kind": witness.kind}
    if witness.kind == "chordless_path":
        ok = is_chordless(g, witness.path)
        results["path"] = list(witness.path)
        checks.append(("witness-valid", ok, None if ok else results["path"]))
    elif witness.kind == "k22":
        ok = embedding_is_valid(g, witness.embedding)
        results["embedding"] = _embedding_obj(witness.embedding)
        checks.append(("witness-valid", ok, None if ok else results["embedding"]))
    else:
        checks.append(("witness-valid", True, None))
    if args.witness:
        with open(args.witness, "w", encoding="utf-8") as fh:
            json.dump(results, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    checks = [("search-complete", True, None)]
    return _finish(args, _echo(args), payload, checks)


def cmd_pipeline(args) -> int:
    g = formats.load_graph(args.graph)
    trace = ramsey.proof_pipeline(g, args.n)
    results = {
        "n": trace.n,
        "q": trace.q,
        "outcome": trace.outcome,
        "table_pairs": trace.table_pairs,
        "colors_used": trace.colors_used,
        "notes": trace.notes,
    }
    checks = []
    if trace.certificate is not None:
        color = trace.certificate.color
        results["certificate"] = {
            "subset": list(trace.certificate.subset),
            "color": color if color == ramsey.RESIDUAL else list(color),
        }
    if trace.path is not None:
        results["path"] = list(trace.path)
        checks.append(("witness-valid", is_chordless(g, trace.path), None))
    if trace.embedding is not None:
        results["embedding"] = _embedding_obj(trace.embedding)
        checks.append(("witness-valid", embedding_is_valid(g, trace.embedding), None))
    if not checks:
        checks.append(("pipeline-ran", True, None))
    return _finish(args, _echo(args), results, checks)


def cmd_lattice_verify(args) -> int:
    n, pairs, _ = formats.load_lattice_candidate(args.lattice)
    axioms = lattices.validate_lattice(n, pairs)
    checks = [
        (
            "lattice-axioms",
            axioms.ok,
            None if axioms.ok else {"axiom": axioms.axiom, "witness": list(axioms.witness)},
        )
    ]
    results = {"n": n}
    if axioms.ok:
        lat = axioms.lattice
        length3 = lattices.check_length3(lat)
        checks.append(("length-3", length3, None))
        # two atoms under two coatoms contradict the axioms only at length 3,
        # so once both checks above pass this one always passes too
        if length3:
            witness = lattices.check_no_double_cover(lat)
            checks.append(
                ("no-double-cover", witness is None, list(witness) if witness else None)
            )
        results["atoms"] = lat.atoms()
        results["coatoms"] = lat.coatoms()
    return _finish(args, _echo(args), results, checks)


def cmd_lattice_fences(args) -> int:
    _apart("--dot", args.dot, "--lattice", args.lattice)
    n, pairs, gens = formats.load_lattice_candidate(args.lattice)
    if gens is None:
        raise ChordlabError("lattice JSON must carry 'generators' for fence search")
    lat = lattices.FiniteLattice(n, pairs)
    fence = lattices.find_fences(lat, gens, args.target)
    if args.dot:  # written only once the search has accepted its input
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(formats.lattice_to_dot(lat))
    checks = []
    if fence is None:
        results = {"fence": None}
        checks.append(("fence-found", False, {"target": args.target}))
    else:
        results = {"fence": list(fence)}
        checks.append(("fence-valid", lattices.validate_fence(lat, fence), None))
    return _finish(args, _echo(args), results, checks)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one JSON line on stderr, like other input errors."""

    def error(self, message):
        print(json.dumps({"error": message}, sort_keys=True), file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check per-stage invariants of a run")
    p.add_argument("--f", required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--exhaustive-chordless", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decode", help="decode value membership from an embedding")
    p.add_argument("--f", required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--pattern", required=True, help="A:k or Kkk:k")
    p.add_argument("--query", required=True, help="comma list of values")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("dichotomy", help="chordless n-path or K22 copy")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--witness", help="write the witness JSON here")
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("mn-search", help="exact m(n) threshold search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_mn_search)

    p = sub.add_parser("pipeline", help="table, coloring, homogeneous search, extraction")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_pipeline)

    lat = sub.add_parser("lattice", help="lattice validation and fence search")
    lat_sub = lat.add_subparsers(dest="lattice_command", required=True)

    p = lat_sub.add_parser("verify", help="axioms, length-3, double-cover scan")
    p.add_argument("--lattice", required=True)
    p.set_defaults(func=cmd_lattice_verify)

    p = lat_sub.add_parser("fences", help="extract a fence through the tree pipeline")
    p.add_argument("--lattice", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--dot", help="write the Hasse diagram DOT here")
    p.set_defaults(func=cmd_lattice_fences)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse in Python 3.11 reads --x=-- as []
                raise ChordlabError("bad value for --%s" % name.replace("_", "-"))
        return args.func(args)
    except StructuralError as exc:
        error = str(exc)
        return _finish(args, {}, {"error": error}, [("internal", False, error)])
    except (ChordlabError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
