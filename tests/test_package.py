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
    # a deletion that leaves its import behind fails here, and so does a
    # module-level private function or constant that no module reads.  An
    # import is used when some expression reads it or the module's __all__
    # lists it; a private name when some module reads it, by name or as an
    # attribute (``core._edges``)
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(gsp.__file__).parent.glob("*.py"))}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        imported, private, exported = {}, {}, set()
        for node in tree.body:
            defined = []
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.FunctionDef):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if "__all__" in defined:
                    exported = set(ast.literal_eval(node.value))
            private.update((d, node.lineno) for d in defined
                           if d.startswith("_") and not d.startswith("__"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = sorted(set(imported) - used - exported)
        assert not unused, f"{name}: unused imports " + ", ".join(
            f"{n} (line {imported[n]})" for n in unused)
        unread = sorted(set(private) - read)
        assert not unread, f"{name}: private names no module reads " + ", ".join(
            f"{n} (line {private[n]})" for n in unread)
