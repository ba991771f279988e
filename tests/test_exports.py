"""Every name the package exports has a use in the program, its demos or
its benchmark, so API that nothing runs does not build up again."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wbansim"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_names(sources: list[str]) -> set[str]:
    """The names the sources read, as a bare name or an attribute, outside
    the name's own definition and outside type annotations. Imports are not
    uses."""
    used = set()
    for source in sources:
        tree = ast.parse(source)
        skipped = set()  # ids of the nodes that are no use of the name they read
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                skipped.update(id(n) for n in ast.walk(node)
                               if getattr(n, "id", getattr(n, "attr", None)) == node.name)
            for annotation in (getattr(node, "annotation", None),
                               getattr(node, "returns", None)):
                if annotation is not None:
                    skipped.update(id(n) for n in ast.walk(annotation))
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skipped)
    return used


def test_every_export_is_used_outside_its_definition():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = used_names([p.read_text() for p in paths])
    assert [name for name in exported_names() if name not in used] == []


def test_the_check_skips_definitions_annotations_and_imports():
    source = ("from x import imported\n"
              "class Counts:\n    n: int = 0\n    def grow(self) -> 'Counts': return Counts()\n"
              "def cost(c: Counts) -> Counts:\n    return cost(c)\n"
              "def caller():\n    return helper() + mod.attr\n")
    assert used_names([source]) & {"imported", "Counts", "cost"} == set()
    assert {"helper", "attr"} <= used_names([source])
