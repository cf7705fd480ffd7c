"""What importing the package and running one CLI command load.

`posetbundle` binds its public names on first use, and each CLI command
imports only the modules it runs; both are checked in a fresh
interpreter, since this test process has imported everything already.
`COMMAND_MODULES` is the exact module set of every command, and a
profiler in that interpreter checks that each loaded module ran a
function outside its own module body.  No module and no command loads
`dataclasses`, `inspect`, `argparse`, `gettext` or `locale`, whose
import (`inspect` loads `ast`, `dis` and `tokenize`; an argparse parser
loads `gettext` and `locale`) would cost every command more than most of
them spend on their own work.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import posetbundle
from inputs import INVOCATIONS, write_fixtures

SRC = str(Path(posetbundle.__file__).parents[1])

# The package's public names by home module.
EXPORTS = {
    "cochains": (
        "Cochain0", "Cochain1", "Cochain2", "Cochain3", "Morphism1",
        "are_equivalent", "associated_cocycle", "classify_cocycles",
        "coboundary", "coboundary_from_assignment", "enumerate_cocycles",
        "extend_to_path", "find_morphism",
        "is_cocycle", "is_path_independent", "pushforward", "trivial_cochain1",
    ),
    "connections": (
        "ambrose_singer_reduce", "central_decompose", "construct_from_cochain",
        "construct_nonflat", "curvature", "enumerate_connections", "holonomy",
        "holonomy_conjugacy_check", "induced_cocycle", "is_central",
        "is_connection", "is_flat", "restricted_holonomy", "star_compose",
        "star_inverse",
    ),
    "errors": ("PosetBundleError",),
    "gauge": ("GaugeTransformation", "gauge_act", "gauge_group"),
    "groups": (
        "FiniteGroup", "GroupHom", "InnerAut", "cyclic_group", "hom_compose",
        "symmetric_group", "trivial_group",
    ),
    "paths": (
        "Path", "Presentation", "compose", "count_hom_classes", "deformations",
        "homotopic", "pi1_presentation", "reverse_path",
    ),
    "poset": (
        "Poset", "build_poset", "fundamental_open", "generate", "is_directed",
        "is_pathwise_connected", "is_totally_ordered",
    ),
    "simplicial": (
        "Simplex0", "Simplex1", "Simplex2", "Simplex3", "boundary",
        "degeneracy", "enumerate_simplices", "is_degenerate", "is_inflating",
        "permute2", "reverse",
    ),
}
NAMES = {name for names in EXPORTS.values() for name in names}

# Appended to a fresh interpreter's code: prints which of these it holds.
HEAVY = ("\nprint([m for m in ('dataclasses', 'inspect', 'argparse', "
         "'gettext', 'locale') if m in sys.modules])")


def loaded_after(code, *argv, cwd=None):
    """The `posetbundle` submodules a fresh interpreter holds after
    running `code` with `argv`, and what the code printed."""
    script = (f"import sys\n{code}\nprint(' '.join(sorted("
              "m[12:] for m in sys.modules if m.startswith('posetbundle.'))))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    *printed, modules = out.splitlines()
    return set(modules.split()), "\n".join(printed)


def test_exports_are_the_home_module_objects():
    assert len(NAMES) == 69
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"posetbundle.{module}")
        for name in names:
            assert getattr(posetbundle, name) is getattr(home, name)
    assert NAMES <= set(dir(posetbundle))


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from posetbundle import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        posetbundle.no_such_name


def test_bare_import_loads_no_submodule():
    assert loaded_after("import posetbundle")[0] == set()


def test_no_module_loads_a_heavy_module():
    # Modules are never unloaded, so what one interpreter holds after
    # importing every module covers what each import loads alone.
    names = {m.name for m in pkgutil.iter_modules(posetbundle.__path__)}
    assert len(names) == 12
    modules, printed = loaded_after(
        "".join(f"import posetbundle.{m}\n" for m in sorted(names)) + HEAVY)
    assert modules == names
    assert printed == "[]"


def test_no_module_imports_a_name_only_for_annotations():
    # Under `from __future__ import annotations` an annotation is never
    # evaluated, so such an import would only load a module for nothing.
    for path in sorted(Path(posetbundle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom)
                    and node.module != "__future__" for alias in node.names}
        annotations = [node.annotation for node in ast.walk(tree)
                       if isinstance(node, (ast.arg, ast.AnnAssign))
                       and node.annotation is not None]
        annotations += [node.returns for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef) and node.returns]
        in_annotations = {id(n) for a in annotations for n in ast.walk(a)}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and id(node) not in in_annotations}
        assert imported <= used, (path.name, sorted(imported - used))


def test_from_import_still_reaches_submodules():
    modules, printed = loaded_after(
        "from posetbundle import acceptance\nprint(acceptance.__name__)")
    assert printed == "posetbundle.acceptance"
    assert "acceptance" in modules


# The library modules each command loads besides `cli` and `errors`.
# `paths` is loaded only where the fundamental group is presented,
# `smith` only where it is abelianised, and `groups` only where a group
# file is read.
COMMAND_MODULES = {
    "validate": "frozen poset",
    "gen": "frozen poset",
    "simplices": "frozen poset simplicial",
    "pi1": "frozen paths poset simplicial smith",
    "homotopic": "frozen paths poset simplicial smith",
    "group-validate": "frozen groups",
    "check-cocycle": "cochains frozen groups poset simplicial",
    "dd-check": "cochains frozen groups poset simplicial",
    "classify-cocycles": "cochains frozen groups paths poset simplicial",
    "gauge-group": "cochains frozen gauge groups poset simplicial",
    "curvature": "cochains connections frozen groups poset simplicial",
    "induce": "cochains connections frozen groups poset simplicial",
    "holonomy": "cochains connections frozen groups poset simplicial",
    "nonflat": "cochains connections frozen groups poset simplicial",
    "reduce": "cochains connections frozen groups poset simplicial",
    "gauge-act": "cochains connections frozen gauge groups poset simplicial",
}

# Runs each argv line through `cli.run` and prints the exit codes and the
# `posetbundle` modules that ran a function outside their own module
# body: a module the command loads only to run its body is dead weight.
RUN = """
import contextlib, io
active, ran = [], set()

def profile(frame, event, arg):
    name = frame.f_globals.get("__name__", "")
    if event not in ("call", "return") or not name.startswith("posetbundle."):
        return
    if frame.f_code.co_name == "<module>":
        if event == "call":
            active.append(name)
        else:
            active.pop()
    elif event == "call" and name not in active:
        ran.add(name[12:])

sys.setprofile(profile)
from posetbundle import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = {cli.run(line.split()) for line in sys.argv[1:]}
sys.setprofile(None)
print(*sorted(codes))
print(*sorted(ran))
"""


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("imports")
    write_fixtures(directory)
    return directory


def test_the_table_covers_every_command_but_suite():
    from posetbundle.cli import COMMANDS
    commands = {row[0] for row in COMMANDS} - {"suite"}
    assert set(COMMAND_MODULES) == commands
    assert commands == {i.removeprefix("--format json ").split()[0]
                        for i in INVOCATIONS}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_commands_import_only_what_they_use(fixtures, command):
    lines = [i for i in INVOCATIONS
             if i.removeprefix("--format json ").split()[0] == command]
    modules, printed = loaded_after(RUN, *lines, cwd=fixtures)
    codes, ran = printed.splitlines()
    assert set(codes.split()) <= {"0", "1"}
    assert modules == {"cli", "errors", *COMMAND_MODULES[command].split()}
    assert set(ran.split()) == modules


RUN_ALL = """
import contextlib, io
from posetbundle import cli
with contextlib.redirect_stdout(io.StringIO()):
    with contextlib.redirect_stderr(io.StringIO()):
        codes = {cli.run(line.split()) for line in sys.argv[1:]}
print(sorted(codes))
""" + HEAVY


def test_no_command_loads_a_heavy_module(fixtures):
    # One interpreter runs every invocation, a help and a usage error:
    # what it holds at the end covers what each command loads alone.
    _, printed = loaded_after(RUN_ALL, *INVOCATIONS, "--help", "gen -h",
                              "validate", cwd=fixtures)
    assert printed == "[0, 1, 2]\n[]"
