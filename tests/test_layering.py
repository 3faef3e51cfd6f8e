"""Structure checks: the module layer order, no assert statements in the
package, and the names the demos import."""

import ast
import importlib
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
