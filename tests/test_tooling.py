import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverideals
from coverideals import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coverideals"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_no_module_imports_signal():
    # Signal handlers are process-global state: a budget or cap built on them
    # behaves differently off the main thread, and the library promises pure
    # functions.
    assert SOURCES
    for path in SOURCES:
        modules = imported_modules(ast.parse(path.read_text(), str(path)))
        assert not {m for m in modules if m.split(".")[0] == "signal"}, path.name


def test_no_module_imports_dataclasses():
    # The records are namedtuples: dataclass creation pulls in inspect, ast
    # and dis and runs at every import, which the CLI pays on each start.
    assert SOURCES
    for path in SOURCES:
        modules = imported_modules(ast.parse(path.read_text(), str(path)))
        assert "dataclasses" not in modules, path.name


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -S keeps site-packages hooks from importing either on their own
    probe = ("import sys, coverideals.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_every_import_is_standard_library():
    # pyproject.toml declares no dependencies and the README promises none,
    # yet a third-party package that happens to be installed would import
    # fine here; relative imports stay inside the package.
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        absolute = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        absolute |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        outside = {m for m in absolute if m.split(".")[0] not in sys.stdlib_module_names}
        assert not outside, (path.name, outside)


def test_no_module_reads_the_environment():
    # An ambient variable would change verdicts of runs that name no option,
    # and the library promises pure functions of their arguments.
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        reads = [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ]
        reads += [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "os"
            for alias in node.names
            if alias.name in ("environ", "getenv")
        ]
        assert not reads, (path.name, reads)


def test_ranks_pass_through_matrix_rank():
    # matrix_rank is the one traced rank layer; a module calling a kernel
    # directly would rank matrices the benchmark never sees.
    linalg = ast.parse((PACKAGE / "linalg.py").read_text())
    kernels = {
        node.name for node in linalg.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_rank_")
    }
    assert kernels
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not named & kernels, (path.name, named & kernels)


MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def module_level(node: ast.AST):
    """The nodes of a module outside its function and class bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from module_level(child)


def global_state(tree: ast.Module) -> list[str]:
    """Module-level dicts, lists and sets other than ``__all__``, and uses of
    functools.cache or lru_cache, in a parsed module."""
    found = []
    for node in module_level(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            mutable = isinstance(value, MUTABLE_LITERALS) or (
                isinstance(value, ast.Call)
                and ast.unparse(value.func).rsplit(".", 1)[-1] in MUTABLE_CALLS
            )
            if mutable and [ast.unparse(t) for t in targets] != ["__all__"]:
                found.append(ast.unparse(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in ("cache", "lru_cache")]
        elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache") \
                and ast.unparse(node.value) == "functools":
            found.append(ast.unparse(node))
    return found


def test_no_process_global_state():
    # The README promises pure functions and no synchronization: a module
    # level memo or registry would be shared by every caller and thread.
    sample = ast.parse(
        "import functools\nfrom functools import lru_cache\n__all__ = ['f']\n"
        "MEMO = {}\nif True:\n    SEEN: set = set()\nCAP = 3\nNAMES = ('a',)\n"
        "@functools.cache\ndef f():\n    local = []\n"
    )
    assert sorted(global_state(sample)) == [
        "MEMO = {}", "SEEN: set = set()", "functools.cache", "lru_cache"]
    assert SOURCES
    for path in SOURCES:
        assert not global_state(ast.parse(path.read_text(), str(path))), path.name


def test_all_exports_resolve():
    # Every listed name exists, and every public name the package imports is
    # listed, so deleting a function cannot leave a stale export behind.
    for name in coverideals.__all__:
        assert hasattr(coverideals, name), name
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(coverideals.__all__)
    assert len(set(coverideals.__all__)) == len(coverideals.__all__)



def test_every_cli_option_is_read():
    # An option its command never reads accepts any value in silence.  Each
    # subcommand's options must be read as args.<dest> or getattr(args,
    # "<dest>") in its func or in a cli function that func calls.
    tree = ast.parse(inspect.getsource(cli))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name: str, seen: set[str]) -> set[str]:
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        dests = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args":
                dests.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "getattr" and ast.unparse(node.args[0]) == "args":
                    dests.add(node.args[1].value)
                dests |= reads(node.func.id, seen)
        return dests

    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert len(subparsers.choices) == 6
    unread = {}
    for command, parser in subparsers.choices.items():
        declared = {a.dest for a in parser._actions if a.dest != "help"}
        missing = declared - reads(parser.get_default("func").__name__, set())
        if missing:
            unread[command] = sorted(missing)
    assert unread == {}


def names(node: ast.AST, skip: ast.AST = None) -> set[str]:
    """The names ``node`` refers to outside the subtree ``skip``; an
    attribute ``x.a`` adds both "a" and ".a"."""
    if node is skip:
        return set()
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found |= {node.attr, "." + node.attr}
    elif isinstance(node, ast.alias):
        found.add(node.asname or node.name)
    for child in ast.iter_child_nodes(node):
        found |= names(child, skip)
    return found


def test_every_private_helper_is_used():
    # A module-level function or class whose name starts with "_" is no API:
    # it is dead code unless its own module refers to it outside its
    # definition, or a module that imports it by name refers to it outside
    # that import.  The same bare name in any other module is another
    # helper, and tests do not count as users.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    helpers = [
        (module, node) for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert helpers

    def used(module: str, node: ast.AST) -> bool:
        if node.name in names(trees[module], node):
            return True
        return any(
            (alias.asname or alias.name) in names(tree, imported)
            for tree in trees.values() for imported in ast.walk(tree)
            if isinstance(imported, ast.ImportFrom)
            and (imported.level, imported.module) == (1, module)
            for alias in imported.names if alias.name == node.name
        )

    unused = [f"{module}.py:{node.name}" for module, node in helpers if not used(module, node)]
    assert unused == []


def test_every_import_is_used():
    # A name a module imports and never reads is a stale import.  The
    # package's __init__ only re-exports, which test_all_exports_resolve
    # checks; "annotations" is the __future__ switch, read by the compiler.
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bound = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        unused += [f"{path.name}:{name}" for name in sorted(bound - read - {"annotations"})]
    assert unused == []


def readme_library_example() -> str:
    """The Python block under the README's Library heading."""
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    return readme.split("## Library")[1].split("```")[1][len("python"):]


def test_every_public_name_is_used():
    # An export, or a public method of an exported class, that only tests
    # call is API with no user.  Each must be named in the package outside
    # its own definition and __init__.py, or in the README's Library example.
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES
             if path.name != "__init__.py"]
    example = names(ast.parse(readme_library_example()))
    defined = {}  # name -> its top-level definition
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node
            elif isinstance(node, ast.Assign):
                defined.update((ast.unparse(t), node) for t in node.targets)
    wanted = [(name, defined[name]) for name in coverideals.__all__]
    wanted += [
        ("." + node.name, node)
        for cls in coverideals.__all__ if isinstance(defined[cls], ast.ClassDef)
        for node in defined[cls].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unused = [
        name for name, node in wanted
        if name not in example and not any(name in names(tree, node) for tree in trees)
    ]
    assert unused == []


def test_readme_library_example_gives_its_commented_values():
    # Run the example statement by statement, keeping the value of each bare
    # expression, which its comment states.
    namespace: dict = {}
    values = []
    for node in ast.parse(readme_library_example()).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    overall, failing, covers, closed_form, ranks, certificate = values
    assert overall is False and failing == 4
    assert len(covers) == 4 and set(covers) == set(namespace["ideal"].generators)
    assert closed_form is True
    assert ranks == [0, 0, 1]
    assert len(certificate) == 8 and all(type(m) is tuple for m in certificate)


def readme_cli_section() -> str:
    """The README text under the CLI heading, up to the next heading."""
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    return readme.split("## CLI")[1].split("\n## ")[0]


def readme_cli_commands() -> list[tuple[list[str], str]]:
    """(arguments after ``coverideals``, comment) for each line of the shell
    block under the README's CLI heading."""
    block = readme_cli_section().split("```sh")[1].split("```")[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            commands.append((command.split()[1:], comment.strip()))
    return commands


def readme_ideal_files() -> dict[str, str]:
    """{name: text} for each code block under the README's CLI heading whose
    first line is a comment naming an ideal file."""
    files = {}
    for block in readme_cli_section().split("```")[1::2]:
        text = block.partition("\n")[2]
        name = text.split()[1].rstrip(":") if text.startswith("# ") else ""
        if name.endswith(".ideal"):
            files[name] = text
    return files


def test_readme_cli_block_gives_its_commented_outcomes(tmp_path, monkeypatch):
    # Write the ideal files the README gives, then run, in README order,
    # each command whose comment states an outcome, bar the search lines,
    # and check the outcome its comment states.
    files = readme_ideal_files()
    assert sorted(files) == ["squares.ideal", "xy.ideal"]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    runs = []  # (subcommand, exit code, stdout lines)
    for argv, comment in readme_cli_commands():
        if comment and argv[0] != "search":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                runs.append((argv[0], cli.main(argv), out.getvalue().splitlines()))
    assert [name for name, _, _ in runs] == [
        "gens", "gens", "check-cwl", "check-cwl", "betti", "betti",
        "quotients", "quotients", "quotients", "polymatroidal", "polymatroidal",
    ]
    assert [code for _, code, _ in runs] == [0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1]
    (gens_cx, gens_k12, cwl_k4, cwl_cx, betti_cx, betti_xy, quot_k3, quot_k4, _,
     poly_k3, poly_sq) = [lines for _, _, lines in runs]
    assert gens_cx[0].startswith("4 minimal generators")
    assert json.loads(gens_k12[0])["count"] == 36
    assert "componentwise linear" in cwl_k4
    assert "NOT componentwise linear (first failure at degree 4)" in cwl_cx
    assert "  beta[1,6] = 1" in betti_cx
    assert betti_xy == ["coarse Betti numbers over F2:", "  beta[0,2] = 2", "  beta[1,3] = 1"]
    assert [ln for ln in quot_k3 if "step" in ln] == [
        f"  step {k}: colon = <x{k - 1}>" for k in (2, 3, 4)]
    assert sum("step" in ln for ln in quot_k4) == 7
    assert poly_k3 and all(ln.endswith(": exchange holds") for ln in poly_k3)
    assert poly_sq == ["degree 2: FAILS (witness u=x2^2, v=x1^2, i=2)"]


@pytest.mark.parametrize("name", ["complete_cwl", "chordal_sweep", "random_betti"])
def test_traced_pass_fires_the_layers_of_its_workload(name, tmp_path, monkeypatch):
    # The benchmark's traced run fails when a layer a workload lists never
    # fires (a change bypassed its wrapper) or an idle one does.  Seven
    # random ideals reach 15 generators, so both Betti engines run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]
    if name == "random_betti":
        workload = workloads.RandomBetti(count=7)
    items = workload.build(7, tmp_path)
    workload.write_inputs()
    tracer = spans.Tracer()
    tracer.install(coverideals)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            statuses = [cli.main(argv) for argv in items]
    finally:
        tracer.uninstall()
    assert set(statuses) == {workload.exit_code}
    assert workload.layers - tracer.fired() == set()
    assert workload.idle & tracer.fired() == set()


def test_complete_cwl_gate_checks_the_cli_report(monkeypatch):
    # The benchmark's gate accepts check-cwl's own report on K5, t=3 and
    # refuses it with the certificate rotated or cut short, or with its top
    # degree not linear.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").CompleteCwl()
    items = workload.build(0, PERFBENCH)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(items[0]) == 0
    assert workload.check(items, [out.getvalue()]) == {}
    report = json.loads(out.getvalue())
    order, degrees = report["certificate"], report["per_degree"]
    assert degrees[-1]["degree"] == 12
    wrong = [
        dict(report, certificate=order[-1:] + order[:-1]),
        dict(report, certificate=order[1:]),
        dict(report, per_degree=degrees[:-1] + [{"degree": 12, "verdict": "not linear"}]),
    ]
    for bad in wrong:
        assert set(workload.check(items, [json.dumps(bad)])) == {0}, bad
