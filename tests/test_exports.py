"""Every name the package exports, and every public function, class and
method it defines, has a use in the program or its benchmark, so API that
no run needs does not build up again. A use in a demo or a test alone does
not count: a demo shows what the program does, so it calls what the
program calls."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wbansim"
# The one name kept without such a use. The benchmark's tracer wraps the plot
# writer as the attribute ``wbansim.cli.emit_plot_series``, named in a string
# that this check does not read, so ``cli`` imports it for the tracer alone.
WRAPPED_BY_THE_BENCHMARK = {"emit_plot_series"}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def public_definitions() -> list[tuple[str, str]]:
    """(where, name) for each public top-level function and class of the
    package and each public method of those classes; ``where`` reads
    ``module.name`` or ``module.Class.method``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{path.stem}.{node.name}.{m.name}", m.name) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def program_names() -> set[str]:
    """The names the package's modules and the benchmark use, plus
    ``WRAPPED_BY_THE_BENCHMARK``."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return used_names([p.read_text() for p in paths]) | WRAPPED_BY_THE_BENCHMARK


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
    used = program_names()
    assert [name for name in exported_names() if name not in used] == []


def test_every_public_definition_is_used_outside_itself():
    used = program_names()
    assert [where for where, name in public_definitions() if name not in used] == []


def test_the_check_skips_definitions_annotations_and_imports():
    source = ("from x import imported\n"
              "class Counts:\n    n: int = 0\n    def grow(self) -> 'Counts': return Counts()\n"
              "def cost(c: Counts) -> Counts:\n    return cost(c)\n"
              "def caller():\n    return helper() + mod.attr\n")
    assert used_names([source]) & {"imported", "Counts", "cost"} == set()
    assert {"helper", "attr"} <= used_names([source])
