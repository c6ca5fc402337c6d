"""Static checks of the program source."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "archopt"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in unused_imports(path)] == []


def reads(tree: ast.AST) -> Counter[str]:
    """How often each name is read in ``tree``: as a loaded name, as an
    attribute, or as a name imported from a module."""
    counts: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            counts.update(alias.name for alias in node.names)
    return counts


def program_trees() -> dict[Path, ast.AST]:
    """The parsed source of the program and of the benchmark."""
    paths = sorted(SRC.rglob("*.py")) + sorted((ROOT / "searchbench").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def test_every_public_definition_is_read():
    # a public top-level function or class that neither the program nor the
    # benchmark reads, outside its own definition, is code only tests run
    trees = program_trees()
    total = sum((reads(tree) for tree in trees.values()), Counter())
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if total[node.name] == reads(node)[node.name]:
                    unread.append(f"{path.name}:{node.lineno}: {node.name}")
    assert unread == []


def is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
    )


def test_every_public_field_is_read():
    # a field of a public dataclass or NamedTuple is read when the program or
    # the benchmark loads it as an attribute or names it in a string (the
    # run-config grid fields are read through getattr); a field only tests
    # read is a value computed for nothing
    trees = program_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and is_record(node):
                for field in node.body:
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                        if field.target.id not in read:
                            unread.append(f"{path.name}:{field.lineno}: {node.name}.{field.target.id}")
    assert unread == []
