"""Structure checks: the module layer order, no assert statements and no
unused imports in the package, the names the demos import, and the qmlp
names README.md cites."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmlp"
# Each module may import only from modules earlier in this list.
LAYERS = ["errors", "fastmath", "quant", "data", "nn", "metrics", "train", "model_io", "cli"]


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_layer_list_names_every_module():
    assert sorted(p.stem for p in _modules()) == sorted(LAYERS)


def test_relative_imports_name_earlier_layers():
    for path in _modules():
        rank = LAYERS.index(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            # "from .nn import x" names nn; "from . import data" names data
            targets = [node.module] if node.module else [a.name for a in node.names]
            for target in targets:
                target = target.split(".")[0]
                assert target in LAYERS[:rank], (
                    f"{path.name} imports .{target}, which is not below it in {LAYERS}"
                )


def test_package_has_no_assert_statements():
    # python -O strips asserts, so none may guard runtime behaviour
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Assert), (
                f"{path.name}:{node.lineno} has an assert statement; raise an "
                f"error from qmlp.errors instead"
            )


def test_every_imported_name_is_read():
    # a deletion can leave its import behind, and no linter runs on the
    # package; __init__ is skipped, as its imports are its exports
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in read, (
                        f"{path.name}:{node.lineno} imports {name}, which it never reads"
                    )


def test_demo_imports_exist():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qmlp":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{path.name} imports {alias.name} from {node.module}, which has no such name"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "qmlp":
                        importlib.import_module(alias.name)



def _resolves(obj, parts):
    if not parts:
        return True
    head, *rest = parts
    if hasattr(obj, head):
        return _resolves(getattr(obj, head), rest)
    # a dataclass field with no class-level default exists only on instances
    return not rest and dataclasses.is_dataclass(obj) and head in {
        f.name for f in dataclasses.fields(obj)
    }


def test_readme_names_resolve():
    # every backticked `module.name`, `qmlp.module.name` or `Class.field` in
    # README.md that starts at a qmlp module or class must resolve, so a
    # deletion or rename fails until the README follows
    modules = {name: importlib.import_module(f"qmlp.{name}") for name in LAYERS}
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__.startswith("qmlp.")
    }
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text))
    checked, missing = 0, []
    for dotted in sorted(cited):
        first, *rest = dotted.removeprefix("qmlp.").split(".")
        owner = modules.get(first, classes.get(first))
        if owner is None:
            continue  # not a qmlp name, e.g. `np.dot`
        checked += 1
        if not _resolves(owner, rest):
            missing.append(dotted)
    assert checked >= 20
    assert not missing, f"README.md cites names qmlp does not have: {missing}"
