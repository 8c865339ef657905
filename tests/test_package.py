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


# The records whose construction validates stay dataclasses: a
# NamedTuple's _replace and _make skip any __new__ check.  CatalogParams
# stays one because callers override it with dataclasses.replace.  Every
# other record is a NamedTuple: its class generates one method at import,
# where a frozen dataclass generates six.
_DATACLASSES = {
    "CurvatureBounds", "_Envelope", "ProfilePiece", "Profile", "CuspModel",
    "GrowthSeries", "WindowPolicy", "VGammaModel", "Band", "MoebiusElement",
    "LatticeSpec", "CatalogParams",
}


def test_only_validated_records_are_dataclasses():
    found = {cls.__name__ for module in _modules()
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and "__dataclass_fields__" in vars(cls)}
    assert found == _DATACLASSES


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


def test_private_definitions_have_a_reader_in_src():
    # a private definition that only the tests read is a retired path;
    # it belongs next to the tests that keep it as a reference
    read = set().union(*(_read_names(p)
                         for p in sorted((ROOT / "src").rglob("*.py"))))
    test_only = [f"{path.name}:{line}: {name}"
                 for path in sorted(INIT.parent.glob("*.py"))
                 for name, line in _module_private_definitions(path).items()
                 if name not in read]
    assert test_only == []


def _layer_targets() -> set[str]:
    """The names in the ``Layer(module, "function" or "Class.method")``
    targets that the benchmark's traced run wraps."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None)
            == "Layer" for name in node.args[1].value.split(".")}


def test_public_definitions_have_a_reader():
    # a public function or class that neither the package, nor an
    # acceptance criterion, nor the benchmark reads is library surface
    # that only the tests keep; the package's __init__ re-exports and so
    # reads nothing
    readers = [p for p in sorted((ROOT / "src").rglob("*.py"))
               if p.name != INIT.name]
    read = set().union(*(_read_names(p) for p in readers),
                       _read_names(TESTS / "test_acceptance.py"),
                       _layer_targets())
    unread = [f"{path.name}:{node.lineno}: {node.name}"
              for path in SOURCES
              for node in ast.parse(path.read_text(), str(path)).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read]
    assert unread == []


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, 12-18 ms that every
    # command would pay, and numpy.random costs 10-15 ms and 6.8 MB of
    # resident memory; a fresh interpreter shows whether any path does
    commands = [["oracle-verify", "--Rcap", "9"], ["cusp-analyze"],
                ["example-run", "--name", "critical-infinite-5.4b"],
                ["example-run", "--name", "exotic-div-5.3b"]]
    script = "\n".join([
        "import sys",
        "from cuspgrowth import cli",
        *(f"cli.main({args + ['--out', str(tmp_path / str(i))]!r})"
          for i, args in enumerate(commands)),
        "print('numpy.ma' in sys.modules)",
        "print('numpy.random' in sys.modules)",
    ])
    paths = [str(INIT.parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["False", "False"]


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


def _defaulted_parameters(path: Path):
    """(callee, parameter, position, line) of each defaulted parameter of
    a function or method in one file.  The callee is the name a call
    uses: the class for ``__init__``, None for ``__call__``, whose
    instances are called under any name.  The position counts the
    positional arguments a call passes (a method's ``self`` is not
    passed); a keyword-only parameter has none."""
    found = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                skip = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list)
                callee = {"__init__": cls, "__call__": None}.get(node.name,
                                                                 node.name)
                first = len(positional) - len(args.defaults)
                found.extend((callee, arg.arg, first + i - skip, node.lineno)
                             for i, arg in enumerate(positional[first:]))
                found.extend((callee, arg.arg, None, node.lineno)
                             for arg, default in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                             if default is not None)
                visit(node.body, None)

    visit(ast.parse(path.read_text(), str(path)).body, None)
    return found


def _passes(call: ast.Call, parameter: str, position) -> bool:
    """Whether a call may set the parameter: by keyword, through
    ``**``, or positionally (a ``*`` argument reaches any position)."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no call overrides is a constant dressed as a knob;
    # calls are matched to a definition by the name they call
    calls = {}
    for folder in ("src", "tests", "tools", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    every = [call for named in calls.values() for call in named]
    unset = [f"{path.name}:{line}: {callee or '__call__'}({parameter})"
             for path in SOURCES + [INIT]
             for callee, parameter, position, line in _defaulted_parameters(path)
             if not any(_passes(call, parameter, position) for call in
                        (every if callee is None else calls.get(callee, ())))]
    assert unset == []
