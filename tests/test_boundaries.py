"""What lies on each side of the package: the oracles stay independent of
it, the benchmark under perfbench/ finds every name it reads, and no
module imports a name it never reads."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from cuckoo_lab import BipartiteGraph, ExactResult, hashing, new_table, synthetic_stream

ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(path):
    """The modules a file imports by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_oracles_import_nothing_from_the_package():
    # an oracle that calls the code it checks would agree with any fault in it
    modules = list(_imported_modules(Path(__file__).parent / "oracles.py"))
    assert modules  # the walk sees the imports that are there
    assert [name for name in modules if name.split(".")[0] == "cuckoo_lab"] == []


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env.pop("CUCKOO_LAB_THREADS", None)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def test_package_imports_only_the_standard_library():
    # the runtime needs nothing but Python (pyproject.toml: dependencies = [])
    paths = sorted((ROOT / "src" / "cuckoo_lab").rglob("*.py"))
    assert len(paths) > 5
    outside = {}
    for path in paths:
        names = [name for name in _imported_modules(path)
                 if name.split(".")[0] not in sys.stdlib_module_names | {"cuckoo_lab"}]
        if names:
            outside[path.name] = names
    assert outside == {}


def test_cli_import_leaves_the_process_pool_unloaded():
    # simulate imports the pool only for a run with more than one worker
    done = _python("-c", "import sys, cuckoo_lab.cli; "
                         "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr[-2000:]


def test_benchmark_finds_every_name_it_reads():
    # the tracer wraps the entry point of every layer by name
    done = _python(
        "-c",
        "from perfbench.tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
    assert done.returncode == 0, done.stderr
    # the attributes perfbench reads of what the package returns
    keys = synthetic_stream(2, 1)
    assert keys.keys == keys  # baselines.py
    assert hashing.bin_choices(keys[0], (1, 2), 1, 2) == (0, 0)  # tracing.py, baselines.py
    table = new_table(1, 2, (1, 2))
    for key in keys:
        table.insert(key)
    # run.py, selftest.py and baselines.py
    assert table.stash_keys() == (keys[1],)
    assert (table.bin_of(keys[0]), table.bin_of(keys[1])) == (0, None)
    assert table.load_stats().stash_size == 1
    assert (table.stats.placed, table.stats.displacements) == (1, 0)
    assert table.lookup(keys[0]).found and table.lookup(keys[1]).found
    assert BipartiteGraph(1, 3, ((0, 1, 2),)).max_left_degree() == 3  # run.py
    assert "terms" in ExactResult.__dataclass_fields__  # run.py
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cuckoo_lab":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)
                           and importlib.util.find_spec(f"{node.module}.{a.name}") is None]
                assert missing == [], (path.name, missing)


def test_benchmark_selftest_passes():
    done = _python(str(ROOT / "perfbench" / "selftest.py"))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def _unread_imports(tree):
    """Names an import binds that the module never reads; a name in the
    module's ``__all__`` counts as read."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # `import a.b` binds `a`
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # perfbench/ is left out: it imports cuckoo_lab.cli for its side effect
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    unread = {}
    for path in paths:
        names = _unread_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}
