"""Each public function and class of a ``src/chordlab`` module is read by
other code there (``__init__`` aside), or kept for a stated reason."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "chordlab"
KEPT = {
    "fence_lattice": "stock family: a fence with bounds, whose trees stay shallow",
    "spurred_fence_lattice": "stock family whose trees hold every odd fence length",
    "tower_bound": "the paper's tower bound on m(n), beside the exact thresholds",
}


def test_every_public_name_is_read_inside_the_package():
    # a read is a loaded name or attribute, matched by name, outside the
    # name's own definition; main dispatches the cli.cmd_* handlers by name
    defined, reads = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", None))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and where[1][0] != "_":
                defined.add(where)
            reads.update(
                (getattr(node, "id", getattr(node, "attr", None)), where)
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            )
    unread = {
        name for module, name in defined
        if not any(n == name and w != (module, name) for n, w in reads)
        and not (module == "cli" and name.startswith("cmd_"))
    }
    assert unread == set(KEPT)
