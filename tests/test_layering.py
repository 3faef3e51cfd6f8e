"""Structure checks: the module layer order, no assert statements, no
True/False parameter defaults, no unused imports and no unread private
module names in the package, the names the demos import, and the qmlp
names README.md and the package docstrings cite."""

import ast
import dataclasses
import importlib
import inspect
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


def test_no_parameter_defaults_to_a_boolean():
    # a True/False default is a switch between two behaviours; the caller
    # names the one it wants instead (a dataclass field is a run setting,
    # not a parameter, and is not checked)
    switches = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            switches += [
                f"{path.stem}.{node.name}.{arg.arg}"
                for arg, default in pairs
                if isinstance(default, ast.Constant) and isinstance(default.value, bool)
            ]
    assert not switches, f"parameters with a True/False default: {switches}"


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


def test_every_private_name_is_read():
    # a module-level _name is the package's own; once no code in the package
    # reads it (as a name, an attribute or an import), it is dead
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    defined = set()
    for path, tree in zip(paths, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update(
                f"{path.stem}.{name}" for name in names
                if name.startswith("_") and not name.startswith("__")
            )
    assert len(defined) >= 60
    unread = sorted(d for d in defined if d.split(".")[1] not in read)
    assert not unread, f"module-level private names the package never reads: {unread}"


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


def _qmlp_owners():
    """Every qmlp module by its short name, and every qmlp class by name."""
    modules = {name: importlib.import_module(f"qmlp.{name}") for name in LAYERS}
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__.startswith("qmlp.")
    }
    return {**classes, **modules}


def _unresolved(cited):
    """The dotted names in ``cited`` that start at a qmlp module or class
    (a leading ``qmlp.`` dropped) and do not resolve, and how many started
    there: a name like ``np.dot`` is not counted."""
    owners = _qmlp_owners()
    checked, missing = 0, []
    for dotted in sorted(cited):
        first, *rest = dotted.removeprefix("qmlp.").split(".")
        if first not in owners:
            continue
        checked += 1
        if not _resolves(owners[first], rest):
            missing.append(dotted)
    return checked, missing


def test_readme_names_resolve():
    # every backticked `module.name`, `qmlp.module.name` or `Class.field` in
    # README.md that starts at a qmlp module or class must resolve, so a
    # deletion or rename fails until the README follows
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    checked, missing = _unresolved(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)))
    assert checked >= 20
    assert not missing, f"README.md cites names qmlp does not have: {missing}"


def _docstrings():
    """(module, docstring) for every module, class and function docstring
    in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "qmlp" if path.stem == "__init__" else f"qmlp.{path.stem}"
        )
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield module, doc


def _takes(fn, args):
    """Whether ``fn`` accepts the arguments a docstring writes as ``args``:
    no more positional ones than it has parameters, and only keywords it
    names."""
    params = inspect.signature(fn).parameters
    if any(p.kind is p.VAR_POSITIONAL for p in params.values()):
        return True
    written = [a.strip() for a in args.split(",") if a.strip()]
    keywords = [a.split("=")[0].strip() for a in written if "=" in a]
    return len(written) - len(keywords) <= len(params) and all(k in params for k in keywords)


def test_docstring_names_resolve():
    # every double-backticked ``module.name`` or ``Class.field`` in a
    # package docstring that starts at a qmlp module or class must resolve,
    # as the README's names do; one written as a call, ``name(args)`` (a
    # dotted name, or a function of the docstring's own module), must name
    # arguments the function takes. A docstring that still names a deleted
    # attribute or parameter fails.
    owners = _qmlp_owners()
    cited, calls = set(), []
    for module, doc in _docstrings():
        for name, args in re.findall(r"``([A-Za-z_][\w.]*)(?:\(([^`]*)\))?``", doc):
            first, *rest = name.removeprefix("qmlp.").split(".")
            if rest:
                cited.add(name)
            if args:
                owner = owners.get(first) if rest else module
                for part in rest or [first]:
                    owner = getattr(owner, part, None)
                if callable(owner):
                    calls.append((name, args, owner))
    checked, missing = _unresolved(cited)
    assert checked >= 5
    assert not missing, f"package docstrings cite names qmlp does not have: {missing}"
    assert calls
    wrong = [f"{name}({args})" for name, args, fn in calls if not _takes(fn, args)]
    assert not wrong, f"package docstrings call functions with arguments they do not take: {wrong}"
