"""Every library definition has a caller outside the tests.

A tripwire, not a proof.  It parses `src/onsaw/*.py` and lists every
function and class definition that is not a dunder.  A definition counts as
referenced when its name occurs as a name, an attribute or a string constant
anywhere in `src/onsaw` (its `__init__.py` re-exports aside) or under
`benchmarks/`; string constants cover the attribute names that
`benchmarks/layers.py` wraps.  Names are compared, not bindings: two
definitions that share a name count as one, and a reference to either keeps
both.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "onsaw"

# Definitions that only tests reach, each kept for a stated reason.
ALLOWED = {
    "decode_monomial": "the tests' product reference and the SymPy oracle read"
    " packed keys through it",
    "flip_matrix": "the tests' independent reference for embed_leg on swapped legs",
    "identity": "with kron, the tests' independent reference for embed_leg and"
    " partial_trace",
}


def _definitions() -> dict:
    out: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                out.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    return out


def _references() -> set:
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "benchmarks").rglob("*.py"))
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_library_definition_is_referenced_outside_the_tests():
    refs = _references()
    unreferenced = {
        name: where
        for name, where in _definitions().items()
        if name not in refs and name not in ALLOWED
    }
    assert not unreferenced, f"only tests reach {unreferenced}"


def test_every_allowed_name_is_still_defined():
    assert sorted(set(ALLOWED) - set(_definitions())) == []


def test_every_allowed_name_is_still_unreferenced():
    """An allowed name that gains a library caller leaves `ALLOWED`."""
    assert sorted(set(ALLOWED) & _references()) == []
