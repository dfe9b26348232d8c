"""Each public function and class of a ``src/chordlab`` module, and each
public method and property of a public class, is read by other code there
(``__init__`` aside), or kept for a stated reason.  A method or property is
read only through an attribute (``x.name``): a local variable of the same
name does not count."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "chordlab"
KEPT = {
    "fence_lattice": "stock family: a fence with bounds, whose trees stay shallow",
    "spurred_fence_lattice": "stock family whose trees hold every odd fence length",
    "tower_bound": "the paper's tower bound on m(n), beside the exact thresholds",
    "StagedHistory.state": "perfbench sizes its hosts with `run(f, T).state(T).rows`",
    "BoundedPoset.leq_pairs": "perfbench writes its lattice files from `lat.leq_pairs()`",
}


def _add_reads(node, where, reads):
    reads.update(
        (getattr(sub, "id", getattr(sub, "attr", None)), isinstance(sub, ast.Attribute), where)
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    )


def test_every_public_name_is_read_inside_the_package():
    # a read is a loaded name or attribute, matched by name, outside the
    # name's own definition, and for a method a loaded attribute only; a
    # method's definition is its own, apart from its class; main dispatches
    # the cli.cmd_* handlers by name
    defined, reads = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", None)
            public = isinstance(top, (ast.FunctionDef, ast.ClassDef)) and name[0] != "_"
            if public:
                defined.add((path.stem, name))
            if not isinstance(top, ast.ClassDef):
                _add_reads(top, (path.stem, name), reads)
                continue
            for node in top.decorator_list + top.bases + top.keywords:
                _add_reads(node, (path.stem, name), reads)
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    method = "%s.%s" % (name, node.name)
                    if public and node.name[0] != "_":
                        defined.add((path.stem, method))
                    _add_reads(node, (path.stem, method), reads)
                else:
                    _add_reads(node, (path.stem, name), reads)
    unread = {
        qualified for module, qualified in defined
        if not any(n == qualified.rsplit(".", 1)[-1] and w != (module, qualified)
                   and (attr or "." not in qualified)
                   for n, attr, w in reads)
        and not (module == "cli" and qualified.startswith("cmd_"))
    }
    assert unread == set(KEPT)


def test_each_public_name_has_one_import_path():
    # the package module re-exports nothing: every name is imported from
    # the module that defines it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("chordlab"))
        or isinstance(node, ast.Import) and any(a.name.startswith("chordlab") for a in node.names)
    ]
    assert imports == []
