import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "infodrift"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` imports and never reads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_module_uses_each_name_it_imports():
    # __init__.py imports to re-export, so only the other modules are read
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def test_only_the_measures_table_holds_a_measures_units():
    # matrices.MEASURES is the one home of each measure's direction and units:
    # no other module spells a units text that only a measure has, and no call passes units=
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        texts = () if path.name == "matrices.py" else ("dimensionless", "per-step")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in texts:
                found.append(f"{path.stem}: {node.value!r}")
            if isinstance(node, ast.Call) and any(k.arg == "units" for k in node.keywords):
                found.append(f"{path.stem}: units=")
    assert found == []
