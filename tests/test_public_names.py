"""Every public name of the library is used by the library.

A public module-level name or public method of src/glmstab that no other src/ code
reads is API kept for the tests alone. The scan is by identifier: a name counts as
used when a Name or an attribute of that spelling appears in src/ outside the name's
own definition. The few names kept on purpose are listed in UNUSED_BY_SRC, each with
its reason, and each must still be unused and still have the reader it is kept for.
"""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "glmstab"
BENCH = "the benchmark (perfbench/) reads it"

# Public names no src/ code reads, and why each stays. The benchmark-pinned ones move
# out of src/ with the benchmark change that stops reading them (ROADMAP items 5, 6, 15).
UNUSED_BY_SRC = {
    "glm.run_nonlinear": BENCH,             # small_runs' tanh operation (item 15)
    "problems.tanh_rhs": BENCH,             # the same operation's right-hand side
    "problems.tanh_jac": BENCH,             # ... its Jacobian
    "problems.tanh_reference": BENCH,       # ... and its quadrature reference
    "linalg.qr_positive": BENCH,            # counted as linalg.qr_positive.calls (item 5)
    "spectra.integral_separation_logs": "criterion 8 tests integral separation with it",
}


def _public_definitions(tree):
    """(qualified name, node) of the public module-level names and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def _identifiers(tree):
    """Counter of the names and attribute names read in tree."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute))


def unused_public_names():
    """Qualified names (module.name) of public definitions no other src/ code reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    everywhere = sum(map(_identifiers, trees.values()), collections.Counter())
    unused = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if everywhere[short] == _identifiers(node)[short]:     # read only inside
                unused.append(f"{module}.{name}")
    return sorted(unused)


def test_every_public_name_is_used_by_src():
    assert unused_public_names() == sorted(UNUSED_BY_SRC)


@pytest.mark.parametrize("qualified", sorted(UNUSED_BY_SRC))
def test_kept_names_still_have_their_reader(qualified):
    name = qualified.rsplit(".", 1)[1]
    if UNUSED_BY_SRC[qualified] == BENCH:
        readers = (ROOT / "perfbench").glob("*.py")
    else:
        readers = [ROOT / "tests" / "test_acceptance.py"]
    assert any(name in path.read_text() for path in readers), qualified
