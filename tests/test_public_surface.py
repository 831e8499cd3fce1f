"""The library surface: every public top-level function and class in
``src/rpmelab``, and every public method of such a class, is used somewhere
other than its own definition and the package's export list, so code that
only its own unit test reaches does not accumulate."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rpmelab"

# Public names whose only use is a test that takes them as its reference.
TEST_REFERENCES = {
    "backward_diff": "tests/test_grid.py checks D-D+ = Laplacian, the identity criterion 01 rests on",
    "normal_diff": "tests check the discrete no-flux rule on stepped frames and H0^2 embeddings with it",
    "pc_cross_inner": "the one-pair form of the batched cross-grid inner product cauchy_refinement uses",
    "energy_report": "the dense-frame energy reports that verify's streamed sums must equal bitwise",
}


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _survey() -> tuple[dict[str, str], set[str]]:
    """Public top-level definitions and public methods of top-level classes
    (name or class.method -> module), and every name used outside its own
    definition in src/, the acceptance tests or bench/."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = path.stem
                names.discard(stmt.name)
            for sub in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_"):
                    defined[f"{stmt.name}.{sub.name}"] = path.stem
            used |= names
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]:
        used |= _names(ast.parse(path.read_text(encoding="utf-8")))
    return defined, used


def test_every_public_definition_has_a_use_beyond_its_unit_tests():
    defined, used = _survey()
    # a method counts as used wherever an attribute of its name is read
    unused = {key for key in defined if key.rpartition(".")[2] not in used}
    untested = sorted(f"{defined[key]}.{key}" for key in unused - TEST_REFERENCES.keys())
    assert not untested, f"public definitions that only their own tests reach: {untested}"
    stale = sorted(TEST_REFERENCES.keys() - unused)
    assert not stale, f"kept as test references but now used elsewhere or gone: {stale}"
