"""Package metadata against the code: the test extra covers what the
tests import, and the public names resolve where they are exported."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import cuspgrowth

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
INIT = Path(cuspgrowth.__file__)
SOURCES = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)


def _top_level_imports(path: Path) -> set[str]:
    """Top-level module names of the absolute imports in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _distribution_name(requirement: str) -> str:
    """The normalized project name of a requirement string."""
    name = re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)
    return re.sub(r"[-_.]+", "_", name).lower()


def test_test_extra_covers_every_third_party_import_of_the_tests():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = {_distribution_name(r)
             for r in project["optional-dependencies"]["test"]}
    local = {p.stem for p in TESTS.glob("*.py")} | {"cuspgrowth"}
    imported = set().union(*(_top_level_imports(p) for p in TESTS.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert sorted(third_party - {"numpy"} - extra) == []


def _modules():
    return [importlib.import_module(f"cuspgrowth.{info.name}")
            for info in pkgutil.iter_modules(cuspgrowth.__path__)]


def _package_imports() -> dict[str, list[str]]:
    """Module name -> the names ``cuspgrowth/__init__.py`` imports from it."""
    imports = {}
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports[node.module] = [alias.name for alias in node.names]
    return imports


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_all_entry_resolves(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("module, names", sorted(_package_imports().items()),
                         ids=sorted(_package_imports()))
def test_package_reexports_only_declared_names(module, names):
    declared = importlib.import_module(f"cuspgrowth.{module}").__all__
    assert [name for name in names if name not in declared] == []


def _classes(annotation) -> list[type]:
    """The classes in a type annotation, generic arguments included."""
    found = [annotation] if isinstance(annotation, type) else []
    for arg in typing.get_args(annotation):
        found += _classes(arg)
    return found


def test_reexported_functions_return_reexported_types():
    # a caller of a re-exported function can name what it gets back
    unexported = []
    for name in dir(cuspgrowth):
        obj = getattr(cuspgrowth, name)
        if not callable(obj) or isinstance(obj, type):
            continue
        for cls in _classes(typing.get_type_hints(obj).get("return")):
            if (cls.__module__.startswith("cuspgrowth.")
                    and getattr(cuspgrowth, cls.__name__, None) is not cls):
                unexported.append(f"{name} -> {cls.__name__}")
    assert unexported == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; a name listed in the
    module's ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # the package's __init__ imports only to re-export, so it is exempt
    assert _unused_imports(path) == []


def _module_private_definitions(path: Path) -> dict[str, int]:
    """Single-underscore names a module defines at its top level, with the
    line of each definition."""
    defined = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def _read_names(path: Path) -> set[str]:
    """Names one file reads: loaded names, attribute names and imported
    names."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_private_definitions():
    # a private definition that nothing reads is a leftover of a deletion
    readers = [p for folder in ("src", "tests", "perfbench")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    read = set().union(*(_read_names(p) for p in readers))
    unread = [f"{path.name}:{line}: {name}"
              for path in sorted(INIT.parent.glob("*.py"))
              for name, line in _module_private_definitions(path).items()
              if name not in read]
    assert unread == []


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, 12-18 ms that every
    # command would pay; a fresh interpreter shows whether any path does
    commands = [["oracle-verify", "--Rcap", "9"], ["cusp-analyze"],
                ["example-run", "--name", "critical-infinite-5.4b"],
                ["example-run", "--name", "exotic-div-5.3b"]]
    script = "\n".join([
        "import sys",
        "from cuspgrowth import cli",
        *(f"cli.main({args + ['--out', str(tmp_path / str(i))]!r})"
          for i, args in enumerate(commands)),
        "print('numpy.ma' in sys.modules)",
    ])
    paths = [str(INIT.parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_catalog_ids_are_named_only_by_the_family_records():
    # each catalog family is defined by one record in profiles._FAMILIES
    # and one in taxonomy._LATTICES; every other reader looks it up
    named = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        keys = {id(key) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                in (["_FAMILIES"], ["_LATTICES"])
                for key in node.value.keys}
        named += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in keys
                  and any(name in node.value for name in cuspgrowth.CATALOG_IDS)]
    assert named == []
