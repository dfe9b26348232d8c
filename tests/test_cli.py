"""Command-line interface: reports, exit codes, file outputs, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordlab import construction, formats, lattices, ramsey
from chordlab.cli import main
from chordlab.construction import seeded_injective
from chordlab.errors import InvalidInputError, ResourceLimitError, StructuralError
from chordlab.graphs import K22, Graph, complete_graph, path_graph, pattern_graph
from chordlab.lattices import fence_lattice, spurred_fence_lattice

from oracles import (
    generating_set,
    graph_json_objects,
    graphs,
    random_length3_lattice,
    random_no_c5_host,
    seeded_permutation,
    staged_pipeline_host,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    # reports are pretty-printed; stage traces are single lines before them
    start = out.index("{\n")
    return json.loads(out[start:])


def test_construct_and_verify(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, out = run_cli(
        capsys, "construct", "--f", "5,0", "--stages", "2", "--out", str(out_path)
    )
    assert code == 0
    report = last_json(out)
    assert report["schema"] == 1
    assert report["results"]["final_k"] == 4
    assert report["results"]["final_coding"] == [2, 3, 4]
    g = formats.load_graph(out_path)
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]

    code, out = run_cli(
        capsys, "verify", "--f", "5,0", "--stages", "2", "--exhaustive-chordless"
    )
    assert code == 0
    names = {c["name"]: c["pass"] for c in last_json(out)["checks"]}
    assert names == {
        "greatest": True,
        "codeconnection": True,
        "tracing": True,
        "components": True,
        "goup": True,
        "coding-biconditional": True,
        "no-chordless-4paths": True,
    }


def test_construct_trace_stages(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, out = run_cli(
        capsys,
        "construct", "--f", "5,0", "--stages", "2",
        "--out", str(out_path), "--trace-stages",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith('{"')]
    traces = [json.loads(ln) for ln in lines]
    assert [t["stage"] for t in traces] == [0, 1, 2]
    assert traces[2]["coding"] == [2, 3, 4]


def test_reports_are_byte_identical(tmp_path, capsys):
    args = ("verify", "--f", "seed:9,len:12", "--stages", "12")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def _pinned_lattice_files():
    """A relabelled spurred fence lattice and three seeded random length-3
    lattices, written to the working directory; yields (file name, n)."""
    lat, gens, _ = spurred_fence_lattice(13)
    perm = seeded_permutation(13, lat.n)
    pairs = [(perm[x], perm[y]) for x, y in lat.leq_pairs()]
    inputs = [("spurred13.json", lat.n, pairs, [perm[g] for g in gens])]
    for seed in (6, 9, 27):  # seeds whose trees hold fences of 3 or more
        n, pairs = random_length3_lattice(random.Random(seed))
        gens = generating_set(lattices.FiniteLattice(n, pairs))
        inputs.append(("random%d.json" % seed, n, pairs, gens))
    for name, n, pairs, gens in inputs:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(formats.lattice_to_json(n, pairs, gens))
        yield name, n


def _lattice_report_digests(capsys):
    """SHA-256 of the ``lattice verify`` report and of the ``lattice fences``
    reports at every odd target, with exit codes, per input."""
    digests = {}
    for name, n in _pinned_lattice_files():
        code, out = run_cli(capsys, "lattice", "verify", "--lattice", name)
        digests[name, "verify"] = hashlib.sha256(b"%d\0%s" % (code, out.encode())).hexdigest()
        h = hashlib.sha256()
        for target in range(1, n, 2):
            code, out = run_cli(
                capsys, "lattice", "fences", "--lattice", name, "--target", str(target)
            )
            h.update(b"%d\0%d\0%s\0" % (target, code, out.encode()))
        digests[name, "fences"] = h.hexdigest()
    return digests


# A report's bytes are part of its contract: a digest changes only with a
# deliberate change to what a lattice command reports.
PINNED_LATTICE_REPORTS = {
    ('spurred13.json', 'verify'): "795ec4b0e399bf5bdc6414c14cda2a36a4765c6c49fc115508b007a2e362aae4",
    ('spurred13.json', 'fences'): "ef16575757abc82e1b230132bb0cf2964fd0228fcda72594fa2a2c9a35ae73d8",
    ('random6.json', 'verify'): "12be91d3864ac493d0e98038c600acb43f5fb56ca093dee05683703e49d29624",
    ('random6.json', 'fences'): "e5b50099ccb725afcb128e81f4f1e1565d7a0817930d2b3fa756d5e64225afff",
    ('random9.json', 'verify'): "fd7dc4eaff424dc20d1c8411047221c554c337cd24e6b179581f03050bb35213",
    ('random9.json', 'fences'): "99e59b12239f800daabea452f8270b66c3aa4d36dd0b6eba582f4f748baaa4b2",
    ('random27.json', 'verify'): "ad40f43bd79a78c5b807cf989356eea5f5661b3c6e2b3fc43f87c115d2dfecdb",
    ('random27.json', 'fences'): "e2333d269c380e1c796a2528765c32033dc138b9f4223f5c8879ca9d0d18f82a",
}


def test_lattice_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # reports echo the lattice path, so it is relative and the same every run
    monkeypatch.chdir(tmp_path)
    assert _lattice_report_digests(capsys) == PINNED_LATTICE_REPORTS


def _pipeline_report_digests(capsys):
    """SHA-256 of the ``pipeline`` report, with its exit code, for n = 4, 5
    and 6 on the fixed staged host and on six seeded traceable hosts of 12-20
    vertices with no chordless 5-path, written to the working directory."""
    hosts = [("staged12.json", staged_pipeline_host())]
    for seed in range(6):
        g = random_no_c5_host(random.Random(seed), max_size=20, min_size=12)
        hosts.append(("random%d.json" % seed, g))
    digests = {}
    for name, g in hosts:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(formats.graph_to_json(g))
        for n in (4, 5, 6):
            code, out = run_cli(capsys, "pipeline", "--graph", name, "--n", str(n))
            digests[name, n] = hashlib.sha256(b"%d\0%s" % (code, out.encode())).hexdigest()
    return digests


# Like the lattice reports, a pipeline report changes only with a deliberate
# change to what the command reports.
PINNED_PIPELINE_REPORTS = {
    ('staged12.json', 4): "f0c19838e1be2db41093cd98b20fc440ea1773591fcdc721bd2a256cc4868a4a",
    ('staged12.json', 5): "30cd99a4ba7c1d0e492812f7cadfc2d0393b8e7f2b195924af8f64727417735d",
    ('staged12.json', 6): "3cf25f8ee0c3d7456648598b978fdeaebe2f1f9fc936e8043ab9e0b42e30d24d",
    ('random0.json', 4): "4065b3ffcb3377d6bd122b44baf051f304c15178b3aa466058909791544e5d09",
    ('random0.json', 5): "9db38c3ddd480c7440b09502293dc34ec486e146caf8d74b9743b0896e5086c2",
    ('random0.json', 6): "9a35d3ae78266dea59f8fb033a0d51943e0cfca2852202669facfebc860f6e25",
    ('random1.json', 4): "5586749de941261104de8405438cb3876bbbeb97f9f226e71547c394f2a5f34d",
    ('random1.json', 5): "863780e8298bdc7baca2af6bba70ec74190efd39fefe89da61f557613b57cdb1",
    ('random1.json', 6): "d1ccc8f27b142f3a0851aa07ce988dd92e53b6e86030277582bf3ffd39e89823",
    ('random2.json', 4): "ba4f53cefc82eee73919cefcc2b431526166a10ae657fca66975fd2797246057",
    ('random2.json', 5): "765dd9dd4ee93481acc49904d6828fd9124eb22934a8f637d20a619b6714c01b",
    ('random2.json', 6): "d28bceb07b0f9ea59603291a4a3c9b4806ef33cfab9e8df05fa37b16ba8cf7bd",
    ('random3.json', 4): "f01874430b563658c62b51fad907475b62947a3fdd1d910a1b070e231755903d",
    ('random3.json', 5): "d0e6190a031680c2142b5245eb4bcbc2fb7a0e3d452a988215cad7ee2c983482",
    ('random3.json', 6): "23fe8ace846197e349603d00965051cd6865fac0c70d435c055a296cb9fad41e",
    ('random4.json', 4): "70e90d515263313eae66cb0092da4f82fc7b88acee0bbef7fbd1ed0cc814c3e1",
    ('random4.json', 5): "e2c29b44b9eae4fb2d04da5b207625a097779da6e179cc5f79a8bce4544c49a1",
    ('random4.json', 6): "2520dca3a49dd2605f2a5ae960bc8557f1f09cd85341f917704e137f866d9472",
    ('random5.json', 4): "5023212bc7250820bc4b675e784f2022ecfde2020ea1ef661cfd3c5b8c2d289c",
    ('random5.json', 5): "09f5cfac4583fb0bd2d91ff1e71807ce5c81629d01b19e5a1668331968d157d7",
    ('random5.json', 6): "dc98208bdf46e2294c85c8fcea17be01d1fae4a58526864c3f924a5bac44345f",
}


def test_pipeline_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _pipeline_report_digests(capsys) == PINNED_PIPELINE_REPORTS


def _dichotomy_hosts():
    """Hosts with gaps in their vertex names, one per dichotomy witness kind
    at n = 4, written to the working directory."""
    path = Graph([0, 2, 5, 7, 8, 11],
                 [(0, 2), (2, 5), (5, 7), (7, 8), (8, 11), (2, 7), (0, 5)])
    staged = construction.run(seeded_injective(4, 10), 10).final_graph()
    k22 = Graph.from_rows(staged.rows, [2 * v + 1 for v in staged.vertices])
    # the one 5-vertex host with no chordless 4-path and no K22
    neither = Graph([1, 4, 6, 9, 10], [(1, 4), (1, 6), (4, 6), (6, 9), (6, 10), (9, 10)])
    for name, g in (("path.json", path), ("k22.json", k22), ("neither.json", neither)):
        formats.save_graph(g, name)


def _rederived_report_digests(capsys):
    """SHA-256 of the exit code, stdout and output files of the commands
    whose parameter echo, command name or embedding the CLI derives."""
    _dichotomy_hosts()
    cases = {
        "construct": (["construct", "--f", "seed:3,len:14", "--stages", "12", "--out",
                       "g.json", "--dot", "g.dot", "--trace-stages"], ["g.json", "g.dot"]),
        "verify": (["verify", "--f", "5,0,3,1,2", "--stages", "5"], []),
        "verify-exhaustive": (["verify", "--f", "seed:9,len:12", "--stages", "12",
                               "--exhaustive-chordless"], []),
        "decode-A": (["decode", "--f", "seed:2,len:30", "--stages", "30",
                      "--pattern", "A:4", "--query", "0,1,2,3"], []),
        "decode-Kkk": (["decode", "--f", "seed:2,len:30", "--stages", "30",
                        "--pattern", "Kkk:3", "--query", "2,0,1"], []),
        "mn-search": (["mn-search", "--n", "5", "--max-size", "9", "--report", "mn.json"],
                      ["mn.json"]),
    }
    for kind in ("path", "k22", "neither"):
        cases["dichotomy-" + kind] = (
            ["dichotomy", "--graph", kind + ".json", "--n", "4", "--witness", kind + "-w.json"],
            [kind + "-w.json"])
    digests = {}
    for key, (argv, outputs) in cases.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0, key
        h = hashlib.sha256(b"%d\0%s" % (code, out.encode()))
        for name in outputs:
            with open(name, "rb") as fh:
                h.update(b"\0" + fh.read())
        digests[key] = h.hexdigest()
    return digests


# Like the lattice and pipeline reports, these change only with a deliberate
# change to what the commands report.
PINNED_REDERIVED_REPORTS = {
    "construct": "080a3a9dbe2844b1c5718764890bee58f7b531f605a333197325c4fcff54fcbf",
    "verify": "aeff427eaab3b9457103d3b642582c5d4fdce2243de0713e3942d4c1d3ea4fbb",
    "verify-exhaustive": "389d122fb5b6b5e9acc4ff73cd4772aa86a2888d4a5117b69deb3822ed676a62",
    "decode-A": "e7186640d60fee16b8e77196d9b4afc36b9574f5a5ff61799f1aabeac5fb3767",
    "decode-Kkk": "7a733beb179c2906b999a2755153aee1533ca8249c9066910c610685e2802e87",
    "mn-search": "a4f445d01297aae18f9318f561ec032d623ceeb984c2af68d3e9c073b2988e02",
    "dichotomy-path": "02fefc6832827970c9541d65d7ebdd2c7dbc17b8137b79ac5a5d927d85b2ce1e",
    "dichotomy-k22": "03fd1ac06830525961f804ec066e6cef4f3cc00c82f0cfa5c07904ad1265dc37",
    "dichotomy-neither": "cb3aa0fe0b4c3a2551b0f0ee9d2a486f93b164006f55f003683255765243028f",
}


def test_rederived_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _rederived_report_digests(capsys) == PINNED_REDERIVED_REPORTS


def test_decode_command(capsys):
    code, out = run_cli(
        capsys,
        "decode", "--f", "seed:2,len:30", "--stages", "30",
        "--pattern", "A:4", "--query", "0,1,2,3",
    )
    assert code == 0
    report = last_json(out)
    assert all(q["decoded"] == q["in_range"] for q in report["results"]["queries"])


def test_dichotomy_command(tmp_path, capsys):
    c4 = formats.graph_to_json(
        __import__("chordlab").Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    )
    path = tmp_path / "c4.json"
    path.write_text(c4)
    witness_path = tmp_path / "w.json"
    code, out = run_cli(
        capsys, "dichotomy", "--graph", str(path), "--n", "4",
        "--witness", str(witness_path),
    )
    assert code == 0
    assert last_json(out)["results"]["kind"] == "k22"
    assert json.loads(witness_path.read_text())["kind"] == "k22"


def test_mn_search_command(tmp_path, capsys):
    report_path = tmp_path / "mn.json"
    code, out = run_cli(
        capsys, "mn-search", "--n", "4", "--max-size", "5",
        "--report", str(report_path),
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["empirical_lower_bound"] == 6
    assert payload["sizes"][4]["neither"] == 1


def test_mn_search_with_huge_n_runs_in_host_sized_memory(tmp_path, capsys):
    # no host of at most 3 vertices holds a chordless 10^9-path, so every
    # traceable K22-free host is a neither instance
    code, out = run_cli(
        capsys, "mn-search", "--n", str(10**9), "--max-size", "3",
        "--report", str(tmp_path / "mn.json"),
    )
    assert code == 0
    results = last_json(out)["results"]
    assert [s["neither"] for s in results["sizes"]] == [1, 1, 2]


def test_mn_search_reports_exact_threshold(tmp_path, capsys):
    report_path = tmp_path / "mn.json"
    code, out = run_cli(
        capsys, "mn-search", "--n", "4", "--max-size", "7",
        "--report", str(report_path),
    )
    assert code == 0
    report = last_json(out)
    assert report["schema"] == 1
    assert "jobs" not in report["parameters"]
    assert report["results"]["exact_threshold"] == 6
    assert report["results"]["empirical_lower_bound"] == 6
    assert json.loads(report_path.read_text()) == report["results"]
    with pytest.raises(SystemExit) as exc:
        main(["mn-search", "--n", "4", "--max-size", "7",
              "--report", str(report_path), "--jobs", "2"])
    assert exc.value.code == 2


def assert_input_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


def test_verify_certifies_no_chordless_4path_at_200_stages(capsys):
    code, out = run_cli(
        capsys, "verify", "--f", "seed:7,len:200", "--stages", "200", "--exhaustive-chordless"
    )
    assert code == 0
    checks = {c["name"]: c["pass"] for c in last_json(out)["checks"]}
    assert checks["no-chordless-4paths"] is True


def test_huge_seeded_length_fails_before_allocating(tmp_path, capsys):
    spec = "seed:1,len:%d" % 10**12
    assert_input_error(capsys, ["verify", "--f", spec, "--stages", "2"])
    assert_input_error(capsys, ["construct", "--f", spec, "--stages", "2",
                                "--out", str(tmp_path / "g.json")])
    assert not (tmp_path / "g.json").exists()


def test_oversized_construction_fails_before_building(tmp_path, capsys):
    # 670,787 vertices: refused from f alone, whether seeded or a comma list
    listed = ",".join(str(v) for v in seeded_permutation(1, 2000))
    for spec in ("seed:1,len:2000", listed):
        assert_input_error(capsys, ["verify", "--f", spec, "--stages", "2000"])
        assert_input_error(capsys, ["construct", "--f", spec, "--stages", "2000",
                                    "--out", str(tmp_path / "g.json")])
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("n, max_size", [("0", "5"), ("-1", "5"), ("4", "0")])
def test_mn_search_rejects_bad_bounds(tmp_path, capsys, n, max_size):
    report_path = tmp_path / "mn.json"
    assert_input_error(capsys, [
        "mn-search", "--n", n, "--max-size", max_size, "--report", str(report_path),
    ])
    assert not report_path.exists()


def test_mn_search_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ramsey, "EXTENSION_BUDGET", 1000)
    assert_input_error(capsys, [
        "mn-search", "--n", "7", "--max-size", "16", "--report", str(tmp_path / "mn.json"),
    ])


@pytest.mark.parametrize("text", [
    '{"vertices": ["a"], "edges": []}',
    '{"vertices": [0, 1], "edges": [["0", 1]]}',
    '{"vertices": [0, 1], "edges": [5]}',
    '{"vertices": 3, "edges": []}',
])
def test_dichotomy_rejects_non_integer_graph_json(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert_input_error(capsys, ["dichotomy", "--graph", str(path), "--n", "4"])


def test_pipeline_command(tmp_path, capsys):
    from chordlab.graphs import complete_graph

    path = tmp_path / "k9.json"
    path.write_text(formats.graph_to_json(complete_graph(9)))
    code, out = run_cli(capsys, "pipeline", "--graph", str(path), "--n", "5")
    assert code == 0
    report = last_json(out)
    assert report["results"]["outcome"] == "k22"
    assert report["results"]["certificate"]["color"] == [0, 0]


def test_pipeline_homogeneous_budget_exits_2(tmp_path, capsys, monkeypatch):
    # Every 4-subset of K9 has color (0, 0), so the search takes 0..7 in
    # turn: 8 candidate vertices.
    path = tmp_path / "k9.json"
    path.write_text(formats.graph_to_json(complete_graph(9)))
    argv = ["pipeline", "--graph", str(path), "--n", "5"]
    monkeypatch.setattr(ramsey, "HOMOGENEOUS_BUDGET", 8)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(ramsey, "HOMOGENEOUS_BUDGET", 7)
    assert_input_error(capsys, argv)


def test_pipeline_rejects_an_untraceable_host_like_dichotomy(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"vertices":[0,1,2,3,4],"edges":[[0,1],[1,2],[2,3]]}')
    for command in ("dichotomy", "pipeline"):
        assert main([command, "--graph", str(path), "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "host is not traceable in its stored order"
        }


def test_lattice_commands(tmp_path, capsys):
    lat, gens = fence_lattice(5)
    lat_path = tmp_path / "lat.json"
    formats.save_lattice(lat_path, lat.n, lat.leq_pairs(), gens)
    code, out = run_cli(capsys, "lattice", "verify", "--lattice", str(lat_path))
    assert code == 0
    assert all(c["pass"] for c in last_json(out)["checks"])

    dot_path = tmp_path / "h.dot"
    code, out = run_cli(
        capsys, "lattice", "fences", "--lattice", str(lat_path),
        "--target", "1", "--dot", str(dot_path),
    )
    assert code == 0
    assert last_json(out)["results"]["fence"] is not None
    assert dot_path.read_text().startswith("digraph")

    # a too-long target is a failed check, not a crash
    code, out = run_cli(
        capsys, "lattice", "fences", "--lattice", str(lat_path), "--target", "5"
    )
    assert code == 1


def test_lattice_verify_fails_on_non_lattice(tmp_path, capsys):
    pairs = [(x, x) for x in range(6)]
    pairs += [(0, x) for x in range(1, 6)]
    pairs += [(x, 5) for x in range(5)]
    pairs += [(1, 3), (1, 4), (2, 3), (2, 4)]
    lat_path = tmp_path / "bad.json"
    formats.save_lattice(lat_path, 6, pairs)
    code, out = run_cli(capsys, "lattice", "verify", "--lattice", str(lat_path))
    assert code == 1
    checks = {c["name"]: c for c in last_json(out)["checks"]}
    assert not checks["lattice-axioms"]["pass"]


@pytest.mark.parametrize("argv", [
    ["construct", "--out", "never.json"],
    ["verify"],
    ["decode", "--pattern", "A:1", "--query", "0"],
])
def test_negative_stages_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert_input_error(capsys, argv + ["--f", "0,1,2", "--stages", "-1"])
    assert not (tmp_path / "never.json").exists()


def test_decode_rejects_non_integer_query(capsys):
    assert_input_error(capsys, [
        "decode", "--f", "seed:2,len:30", "--stages", "30",
        "--pattern", "A:4", "--query", "0,a",
    ])


def test_input_errors_exit_2(tmp_path, capsys):
    assert main(["dichotomy", "--graph", str(tmp_path / "nope.json"), "--n", "4"]) == 2
    capsys.readouterr()
    assert main(["construct", "--f", "1,1", "--stages", "2", "--out", "x.json"]) == 2
    capsys.readouterr()
    assert_input_error(capsys, ["dichotomy", "--graph=--", "--n", "4"])
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_usage_errors_are_one_json_line(capsys):
    for argv in (
        ["mn-search", "--n", "abc", "--max-size", "7", "--report", "r.json"],
        ["mn-search", "--n", "4", "--max-size", "7"],
        ["lattice", "fences", "--target", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])


# bottom 0, atoms 1 and 2, their join 3, coatoms 4 and 5 above 3, top 6
TALL = (
    [(x, x) for x in range(7)] + [(0, x) for x in range(1, 7)] + [(x, 6) for x in range(6)]
    + [(1, 3), (2, 3), (3, 4), (3, 5), (1, 4), (1, 5), (2, 4), (2, 5)]
)


def test_lattice_fences_rejects_a_lattice_longer_than_3(tmp_path, capsys):
    lat_path = tmp_path / "tall.json"
    formats.save_lattice(lat_path, 7, TALL, [1, 2, 4, 5])
    code, out = run_cli(capsys, "lattice", "verify", "--lattice", str(lat_path))
    assert code == 1
    checks = {c["name"]: c["pass"] for c in last_json(out)["checks"]}
    assert checks["lattice-axioms"] and not checks["length-3"]
    assert_input_error(capsys, ["lattice", "fences", "--lattice", str(lat_path), "--target", "3"])


# SHA-256 of the Hasse diagram DOT of fence_lattice(5)
FENCE5_DOT = "f7f4f179ac542d7943b7350e2312221d8432a4b8704e164425b8935930610473"


def test_lattice_fences_writes_the_dot_only_once_the_search_accepts(tmp_path, capsys):
    lat, gens = fence_lattice(5)
    lat_path = tmp_path / "lat.json"
    formats.save_lattice(lat_path, lat.n, lat.leq_pairs(), gens)
    tall_path = tmp_path / "tall.json"
    formats.save_lattice(tall_path, 7, TALL, [1, 2, 4, 5])
    dot_path = tmp_path / "x.dot"
    # an even target, and a lattice longer than 3, exit 2 and leave no file
    for path, target in ((lat_path, "4"), (tall_path, "3")):
        assert_input_error(capsys, ["lattice", "fences", "--lattice", str(path),
                                    "--target", target, "--dot", str(dot_path)])
        assert not dot_path.exists()
    # a found fence (exit 0) and a missed one (exit 1) both write the diagram
    for target, code in (("1", 0), ("5", 1)):
        argv = ["lattice", "fences", "--lattice", str(lat_path),
                "--target", target, "--dot", str(dot_path)]
        assert run_cli(capsys, *argv)[0] == code
        assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == FENCE5_DOT
        dot_path.unlink()


# SHA-256 of exit code 0, the report and the graph JSON and DOT files of
# ``construct --f 5,0 --stages 2 --out g.json --dot x.dot``.
CONSTRUCT_DOT_RUN = "e733d40ed127dea6ee426f16f4fbc9e234e151aaebc17ed27b1214810fa1d9fc"


def test_construct_leaves_no_graph_when_the_dot_cannot_be_written(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["construct", "--f", "5,0", "--stages", "2", "--out", "g.json"]
    assert_input_error(capsys, argv + ["--dot", "nodir/x.dot"])
    assert os.listdir() == []
    # an --out that cannot be written is reported first, as before
    assert main(argv[:-1] + ["nodir/g.json", "--dot", "other/x.dot"]) == 2
    assert "nodir/g.json" in json.loads(capsys.readouterr().err)["error"]
    assert os.listdir() == []
    # a symlinked --out is the user's own; it is not removed
    open("target.json", "w").close()
    os.symlink("target.json", "g.json")
    assert_input_error(capsys, argv + ["--dot", "nodir/x.dot"])
    assert os.path.islink("g.json")
    os.remove("g.json")
    os.remove("target.json")
    code, out = run_cli(capsys, *argv, "--dot", "x.dot")
    h = hashlib.sha256(b"%d\0%s" % (code, out.encode()))
    for name in ("g.json", "x.dot"):
        with open(name, "rb") as fh:
            h.update(b"\0" + fh.read())
    assert h.hexdigest() == CONSTRUCT_DOT_RUN


def test_construct_refuses_a_dot_path_that_names_the_out_file(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["construct", "--f", "5,0", "--stages", "2"]
    assert_input_error(capsys, argv + ["--out", "x", "--dot", "x"])
    assert os.listdir() == []
    # the same file under another name, here through a symlink, is refused too
    with open("g.json", "wb") as fh:
        fh.write(b"old bytes")
    os.symlink("g.json", "link")
    assert_input_error(capsys, argv + ["--out", "g.json", "--dot", "link"])
    with open("g.json", "rb") as fh:
        assert fh.read() == b"old bytes"


def test_lattice_fences_refuses_a_dot_path_that_names_its_input(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    lat, gens = fence_lattice(5)
    formats.save_lattice("lat.json", lat.n, lat.leq_pairs(), gens)
    with open("lat.json", "rb") as fh:
        before = fh.read()
    for dot in ("lat.json", os.path.join(str(tmp_path), "lat.json"), "./lat.json"):
        assert_input_error(capsys, ["lattice", "fences", "--lattice", "lat.json",
                                    "--target", "1", "--dot", dot])
        with open("lat.json", "rb") as fh:
            assert fh.read() == before
    assert os.listdir() == ["lat.json"]


def test_dichotomy_refuses_a_witness_path_that_names_its_graph(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "construct", "--f", "5,0,3", "--stages", "3",
                   "--out", "g.json")[0] == 0
    with open("g.json", "rb") as fh:
        before = fh.read()
    for witness in ("g.json", os.path.join(str(tmp_path), "g.json"), "./g.json"):
        assert_input_error(capsys, ["dichotomy", "--graph", "g.json", "--n", "4",
                                    "--witness", witness])
        with open("g.json", "rb") as fh:
            assert fh.read() == before
    assert os.listdir() == ["g.json"]


def test_build_tree_rejects_a_lattice_longer_than_3():
    lat = lattices.FiniteLattice(7, TALL)
    table = lattices.closure_and_rank(lat, [1, 2, 4, 5])  # generates all of TALL
    with pytest.raises(InvalidInputError, match="length-3"):
        lattices.build_tree(lat, table)


def test_lattice_with_huge_n_fails_before_allocating(tmp_path, capsys):
    # n-sized tables would overflow; reflexivity is decided from the pairs alone
    lat_path = tmp_path / "huge.json"
    formats.save_lattice(lat_path, 10**20, [(0, 0)], [0])
    code, out = run_cli(capsys, "lattice", "verify", "--lattice", str(lat_path))
    assert code == 1
    axioms = last_json(out)["checks"][0]
    assert axioms["witness"] == {"axiom": "reflexive", "witness": [1]}
    assert_input_error(capsys, ["lattice", "fences", "--lattice", str(lat_path), "--target", "1"])


def test_lattice_verify_checks_double_cover_only_at_length_3(tmp_path, capsys):
    # in TALL the atoms 1, 2 lie under both coatoms 4, 5, which is legal here
    lat_path = tmp_path / "tall.json"
    formats.save_lattice(lat_path, 7, TALL)
    code, out = run_cli(capsys, "lattice", "verify", "--lattice", str(lat_path))
    assert code == 1
    checks = [(c["name"], c["pass"]) for c in last_json(out)["checks"]]
    assert checks == [("lattice-axioms", True), ("length-3", False)]


def _assert_internal_report(argv, message):
    code, out, err = _run_isolated(argv)
    assert (code, err) == (1, "")
    check = json.loads(out)["checks"][0]
    assert check["name"] == "internal" and not check["pass"]
    assert message in check["witness"]


def test_failed_witness_rechecks_give_an_internal_report(tmp_path, monkeypatch):
    c4 = tmp_path / "c4.json"
    formats.save_graph(Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)]), str(c4))
    k9 = tmp_path / "k9.json"
    formats.save_graph(complete_graph(9), str(k9))
    monkeypatch.setattr(ramsey, "embedding_is_valid", lambda g, emb: False)
    _assert_internal_report(
        ["dichotomy", "--graph", str(c4), "--n", "4"], "invalid embedding"
    )
    monkeypatch.setattr(ramsey, "is_chordless_positions", lambda rows, p: False)
    _assert_internal_report(
        ["pipeline", "--graph", str(k9), "--n", "5"], "not chordless"
    )


def test_lattice_internal_reports_name_the_subcommand(tmp_path, monkeypatch):
    lat, gens, _ = spurred_fence_lattice(5)
    lat_path = tmp_path / "spurred.json"
    formats.save_lattice(lat_path, lat.n, lat.leq_pairs(), gens)

    def fail(*args):
        raise StructuralError("broken")

    monkeypatch.setattr(lattices, "find_fences", fail)
    monkeypatch.setattr(lattices, "check_no_double_cover", fail)
    for sub, extra in (("verify", []), ("fences", ["--target", "3"])):
        code, out, err = _run_isolated(["lattice", sub, "--lattice", str(lat_path)] + extra)
        assert (code, err) == (1, "")
        assert json.loads(out)["command"] == "lattice-" + sub


def test_lattice_fences_tree_budget_exits_2(tmp_path, capsys, monkeypatch):
    lat, gens, _ = spurred_fence_lattice(7)
    table = lattices.closure_and_rank(lat, gens)
    size = len(list(lattices.build_tree(lat, table).nodes()))
    lat_path = tmp_path / "spurred.json"
    formats.save_lattice(lat_path, lat.n, lat.leq_pairs(), gens)
    argv = ["lattice", "fences", "--lattice", str(lat_path), "--target", "5"]
    monkeypatch.setattr(lattices, "MAX_TREE_NODES", size)
    lattices.build_tree(lat, table)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(lattices, "MAX_TREE_NODES", size - 1)
    with pytest.raises(ResourceLimitError):
        lattices.build_tree(lat, table)
    assert_input_error(capsys, argv)


def _run_isolated(argv):
    """Exit code, stdout and stderr of one CLI run, without pytest's capture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_json_line_outcome(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])
    else:
        assert err == ""
        json.loads(out)


def _lattice_documents():
    """Lattice JSON files, well-formed or not, over at most 8 elements, as bytes."""
    element = st.integers(-2, 8)
    anything = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["n", "leq", "generators"]), inner, max_size=3),
        max_leaves=8,
    )

    @st.composite
    def order(draw):
        # bounds around either atoms and coatoms with random covers (length 3,
        # a lattice unless two atoms share two coatoms) or random inner pairs
        # (possibly taller, not always transitive); then at most one defect
        n = draw(st.integers(1, 8))
        inner = range(1, n - 1)
        pairs = {(x, x) for x in range(n)} | {(0, x) for x in range(n)}
        pairs |= {(x, n - 1) for x in range(n)}
        derivable = set()
        if draw(st.booleans()):
            split = draw(st.integers(1, max(1, n - 2)))
            for a in inner[:split - 1]:
                for c in inner[split - 1:]:
                    if draw(st.booleans()):
                        pairs.add((a, c))
            for x in inner:  # meets of two covers above, joins of two below
                if sum(x in (a, c) and 0 < a < c < n - 1 for a, c in pairs) >= 2:
                    derivable.add(x)
        elif n > 2:
            step = st.integers(1, n - 2)
            steps = draw(st.lists(st.tuples(step, step), max_size=8))
            pairs |= {tuple(sorted(p)) for p in steps}
            if draw(st.integers(0, 3)):
                for z in range(n):  # transitive closure
                    pairs |= {(x, y) for x, w in pairs if w == z for v, y in pairs if v == z}
        pairs = sorted(pairs)
        defect = draw(st.sampled_from(["none"] * 4 + ["drop", "stray", "n"]))
        if defect == "drop":
            pairs.remove(draw(st.sampled_from(pairs)))
        elif defect == "stray":
            pairs.append(draw(st.tuples(element, element)))
        obj = {"n": n + (draw(st.sampled_from([-n, -1, 1])) if defect == "n" else 0),
               "leq": [list(p) for p in pairs]}
        gens = draw(st.sampled_from(["underivable"] * 3 + ["all", "some", "wild", "none"]))
        if gens == "underivable":
            obj["generators"] = [x for x in range(n) if x not in derivable]
        elif gens != "none":
            obj["generators"] = (
                list(range(n)) if gens == "all"
                else draw(st.lists(st.integers(0, n - 1) if gens == "some" else element,
                                   max_size=n + 1))
            )
        return obj

    texts = st.one_of(order(), order(), anything).map(json.dumps) | st.text(max_size=20)
    return texts.map(str.encode) | st.binary(max_size=12)


# bottom 0, atoms 1 and 2 under both coatoms 3 and 4, top 5: not a lattice
K22_POSET = (
    [(x, x) for x in range(6)] + [(0, x) for x in range(1, 6)] + [(x, 5) for x in range(5)]
    + [(1, 3), (1, 4), (2, 3), (2, 4)]
)


def _lattice_doc(n, pairs, gens):
    return formats.lattice_to_json(n, pairs, gens).encode()


_FENCE3, _FENCE3_GENS = fence_lattice(3)
_SPURRED7, _SPURRED7_GENS, _ = spurred_fence_lattice(7)


@settings(max_examples=300, deadline=None)
@given(doc=_lattice_documents(), target=st.integers(-3, 9) | st.sampled_from([1, 1, 3]))
@example(doc=_lattice_doc(_FENCE3.n, _FENCE3.leq_pairs(), _FENCE3_GENS), target=1)
@example(doc=_lattice_doc(_SPURRED7.n, _SPURRED7.leq_pairs(), _SPURRED7_GENS), target=5)
@example(doc=_lattice_doc(_FENCE3.n, _FENCE3.leq_pairs(), [1]), target=1)  # does not generate
@example(doc=_lattice_doc(7, TALL, [1, 2, 4, 5]), target=3)  # not length 3
@example(doc=_lattice_doc(6, K22_POSET, range(6)), target=1)  # atoms 1, 2 have no join
@example(doc=b"[" * 100_000, target=1)  # deeper than the JSON parser recurses
def test_lattice_commands_never_crash_on_malformed_json(doc, target):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "lat.json")
        with open(path, "wb") as fh:
            fh.write(doc)
        for argv in (["lattice", "verify", "--lattice", path],
                     ["lattice", "fences", "--lattice", path, "--target", str(target)]):
            _assert_one_json_line_outcome(*_run_isolated(argv))


def _graph_documents():
    """Graph JSON files, well-formed or not, over at most 9 vertices, as bytes."""
    anything = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["vertices", "edges"]), inner, max_size=2),
        max_leaves=8,
    )
    texts = st.one_of(
        graphs().map(formats.graph_to_json),
        st.one_of(graph_json_objects(), graph_json_objects(), anything).map(json.dumps),
        st.text(max_size=20),
    )
    return texts.map(str.encode) | st.binary(max_size=12)


def _graph_doc(g):
    return formats.graph_to_json(g).encode()


@settings(max_examples=300, deadline=None)
@given(doc=_graph_documents(), n=st.integers(-1, 7))
@example(doc=_graph_doc(pattern_graph(K22)), n=4)
@example(doc=_graph_doc(complete_graph(6)), n=5)
@example(doc=_graph_doc(Graph([3, 8, 9, 12], [(3, 8), (8, 9), (9, 12)])), n=4)
@example(doc=b'{"vertices": [0, 1], "edges": [[0, 5], [0, 1], [0, 1]]}', n=4)
@example(doc=b'{"vertices": [-1, 0], "edges": [[0, 3]]}', n=4)
@example(doc=b"\xff\xfe", n=4)  # not UTF-8
@example(doc=b"[" * 100_000, n=4)  # deeper than the JSON parser recurses
@example(doc=_graph_doc(path_graph(1_500)), n=1_200)  # deeper than Python recurses
@example(doc=_graph_doc(complete_graph(12)), n=100_000)  # far more colours than quads
def test_graph_commands_never_crash_on_malformed_json(doc, n):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "graph.json")
        with open(path, "wb") as fh:
            fh.write(doc)
        for command in ("dichotomy", "pipeline"):
            outcome = _run_isolated([command, "--graph", path, "--n", str(n)])
            _assert_one_json_line_outcome(*outcome)


def _f_specs():
    """``--f`` values, well-formed or not; seeded lengths stay small or are
    far above the limit, so that no run allocates much."""
    number = st.integers(-3, 40).map(str) | st.text("0123456789-+_ ", max_size=4)
    length = number | st.just(str(10**12))
    seeded = st.builds("seed:{},len:{}".format, number, length)
    return st.one_of(
        seeded,
        st.lists(number, max_size=5).map(",".join),
        st.lists(st.sampled_from(["seed:", "len:", ",", ":", "3", "-", "x"]),
                 max_size=6).map("".join),
        st.text(max_size=12),
    )


@settings(max_examples=300, deadline=None)
@given(spec=_f_specs())
@example(spec="seed:7,len:%d" % 10**12)
@example(spec="seed:7,len:5")
@example(spec="seed:7")
@example(spec="1,1")
@example(spec="-1,0")
@example(spec="5,0")
@example(spec="--")  # argparse reads --f=-- as an empty list
def test_verify_never_crashes_on_any_f(spec):
    _assert_one_json_line_outcome(*_run_isolated(["verify", "--f=" + spec, "--stages", "2"]))
