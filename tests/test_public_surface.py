"""The public surface of src/mkg: every public name has a caller in the
package, so a name that only the tests use lives in tests/.

A top-level function or class counts as called where src/mkg reads its
name, bare or as an attribute (`mkg.trace.parse_trace`).  A method or
property counts only where src/mkg reads it as an attribute (`.name`): a
local variable of the same name, such as the gradient `dA` in
`sobolev_energies`, is not a call.  Attributes are matched by name alone,
so a method still counts as called when another object has an attribute
of its name (`.dphi` of a Kinematics and of a StateDerivative, `.value`
of every potential): that is the known limit of this check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mkg"

# public names kept without a caller in src/mkg, each with its reason
ALLOWED = {
    "read_snapshot": "resuming a run from a snapshot (ROADMAP), and "
                     "perfbench's output check",
    "NormSnapshot.as_tuple": "perfbench's 3D probe",
    "LatticeSpec.meshgrid": "perfbench's 3D probe",
    "StateDerivative.dA": "the rate of A as its own array; step_rk4 reads "
                          "E instead, and the tests and perfbench's 3D "
                          "probe read it",
    "sine_gordon": "one of the paper's three potential families; no config "
                   "key selects it yet",
    "toda": "one of the paper's three potential families; no config key "
            "selects it yet",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(trees: dict) -> dict:
    """{qualified name: (file, def node)} for every public top-level function
    and class, and every public method of a top-level class."""
    out = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _DEFS) and not node.name.startswith("_"):
                out[node.name] = (path, node)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS) and not sub.name.startswith("_"):
                        out[f"{node.name}.{sub.name}"] = (path, sub)
    return out


def references(trees: dict) -> tuple[dict, dict]:
    """({name: [(file, line)]} of every bare Name read in the trees, the same
    of every attribute read)."""
    names, attributes = {}, {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((path, node.lineno))
    return names, attributes


def has_caller() -> dict:
    """{qualified public name: whether src/mkg reads it outside its own
    definition} for every public name of src/mkg; a method or property is
    read only as an attribute."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    names, attributes = references(trees)
    out = {}
    for qual, (path, node) in public_definitions(trees).items():
        refs = attributes.get(node.name, [])
        if "." not in qual:
            refs = refs + names.get(node.name, [])
        out[qual] = any(not (p == path and node.lineno <= line <= node.end_lineno)
                        for p, line in refs)
    return out


def test_every_public_name_has_a_caller_in_src():
    called = has_caller()
    assert sorted(q for q, c in called.items() if not c and q not in ALLOWED) == [], (
        "public names that nothing in src/mkg calls: move them to tests/, or "
        "give a reason in ALLOWED")


def test_allowed_names_are_public_and_uncalled():
    called = has_caller()
    assert sorted(q for q in ALLOWED if called.get(q, True)) == [], (
        "ALLOWED names that are gone from src/mkg or now have a caller there: "
        "drop them from ALLOWED")
