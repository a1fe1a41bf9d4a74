import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import graphonsp as gsp


def test_exported_names_resolve():
    # bench/tracing.py getattr()s every __all__ entry, so a name left behind
    # after a deletion would crash a traced run
    modules = [gsp] + [importlib.import_module(f"graphonsp.{m.name}")
                       for m in pkgutil.iter_modules(gsp.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"
    # every public name the package re-exports is the object of that name in
    # its home module, and is listed in the home module's __all__ if it has one
    for name, obj in vars(gsp).items():
        home = sys.modules.get(getattr(obj, "__module__", None) or "")
        if name.startswith("_") or inspect.ismodule(obj) or home is None \
                or not home.__name__.startswith("graphonsp."):
            continue
        assert getattr(home, name, None) is obj, f"{name} does not resolve in {home.__name__}"
        assert name in getattr(home, "__all__", [name]), \
            f"{name} is missing from {home.__name__}.__all__"


def test_no_unused_module_imports():
    # a deletion that leaves its import behind fails here; a name is used
    # when some expression reads it or the module's __all__ lists it
    for path in sorted(Path(gsp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, exported = {}, set()
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = sorted(set(imported) - used - exported)
        assert not unused, f"{path.name}: unused imports " + ", ".join(
            f"{name} (line {imported[name]})" for name in unused)
