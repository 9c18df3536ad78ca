"""Static checks on the package source, standing in for a linter: every name a
module, test or demo imports is read somewhere in that file, every name a
module exports in ``__all__`` is defined there, and every definition and
dataclass or NamedTuple field in the package is used by code that runs, not
only by tests."""

import ast
from pathlib import Path

import pytest

import sgbh

MODULES = sorted(p for p in Path(sgbh.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names ``source`` imports but never reads, skipping ``__all__`` entries
    and names imported on a ``# noqa: F401`` line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.setdefault(alias.asname or alias.name.split(".")[0], alias.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


REPO = Path(__file__).resolve().parents[1]
# the package modules (by file name), then the tests and demos (by path)
IMPORTERS = [(p, p.name) for p in MODULES] + [
    (p, p.relative_to(REPO).as_posix())
    for d in ("tests", "demos")
    for p in sorted((REPO / d).rglob("*.py"))
]


@pytest.mark.parametrize("path", [p for p, _ in IMPORTERS], ids=[i for _, i in IMPORTERS])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def undefined_exports(source):
    """Names in ``source``'s ``__all__`` that no top-level statement binds: a
    def, class, assignment or import."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_checker_flags_an_undefined_export():
    source = (
        "from os import path\nX, Y = 1, 2\n__all__ = ['f', 'g', 'C', 'path', 'Y']\n"
        "def f(): pass\nclass C: pass\n"
    )
    assert undefined_exports(source) == ["g"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_defines_every_name_it_exports(path):
    assert undefined_exports(path.read_text()) == []


def runtime_sources(root, package):
    """The text of each source that runs: the modules of ``package``, and the
    demos and benchmark harness under ``root``, but no test file.  A name that
    only a test reads is not in use."""
    paths = sorted(package.glob("*.py")) + [
        p
        for d in ("demos", "perfbench")
        for p in sorted((root / d).rglob("*.py"))
        if not p.name.startswith("test_")
    ]
    return [p.read_text() for p in paths]


RUNTIME = runtime_sources(REPO, Path(sgbh.__file__).parent)


def source_tree(root, files):
    """Write ``files`` (relative path -> text) under ``root``; return the
    runtime sources of that tree, whose package is ``pkg``."""
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return runtime_sources(root, root / "pkg")


def dataclass_fields(source):
    """(class, field) for each annotated field of a ``@dataclass`` class or a
    ``NamedTuple`` subclass."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and (
            any(
                isinstance(d, ast.Name) and d.id == "dataclass"
                or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                for d in node.decorator_list
            )
            or any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in node.bases)
        ):
            fields += [
                (node.name, s.target.id)
                for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            ]
    return fields


def attribute_reads(source):
    """Every attribute name ``source`` loads, as in ``x.name``."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def unread_fields(modules, readers):
    """``cls.field`` for each dataclass or NamedTuple field in ``modules`` that no source in
    ``readers`` reads as an attribute."""
    reads = set().union(*(attribute_reads(r) for r in readers))
    return [
        f"{cls}.{name}"
        for source in modules
        for cls, name in dataclass_fields(source)
        if name not in reads
    ]


def test_every_dataclass_field_has_a_reader(tmp_path):
    """Each dataclass or NamedTuple field in the package is read as an attribute by the
    package, its demos or its benchmark harness; a field only a test reads is
    state that no run needs.  The check matches names only, so a field shares
    a reader with any attribute of the same name: ``RunConfig.seed`` would
    hide an unread ``seed`` field on another class."""
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "@dataclass\nclass B:\n    z: int\nclass C:\n    w: int\n"
        "class R(NamedTuple):\n    r: int\n    s: int = 0\n"
        "class T(typing.NamedTuple):\n    t: int\n"
        "b.z = a.x + r.r\n"
    )
    assert dataclass_fields(source) == [
        ("A", "x"), ("A", "y"), ("B", "z"), ("R", "r"), ("R", "s"), ("T", "t")
    ]
    assert attribute_reads(source) == {"x", "r", "NamedTuple"}
    readers = source_tree(tmp_path, {"pkg/m.py": source, "tests/test_m.py": "assert a.y == t.t\n"})
    assert unread_fields([source], readers) == ["A.y", "B.z", "R.s", "T.t"]
    assert unread_fields([p.read_text() for p in MODULES], RUNTIME) == []


def definitions(source):
    """(line, name) of each function, class and method ``source`` defines,
    nested ones included and dunders excepted."""
    return [
        (n.lineno, n.name)
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (n.name.startswith("__") and n.name.endswith("__"))
    ]


def uses(source):
    """Every name or attribute ``source`` reads, name it imports and string
    constant (the benchmark harness patches methods by name), outside the
    ``__all__`` list: exporting a name does not use it."""
    found = set()
    nodes = [
        n
        for stmt in ast.parse(source).body
        if not (
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        )
        for n in ast.walk(stmt)
    ]
    for n in nodes:
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            found.update(a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


# definitions no run reaches, kept for readers outside the runtime sources
KEPT_FOR_TESTS = {
    "load_trajectory",  # the only reader of the trajectory.bin that users receive
    "apply_semigroup",  # the semigroup reference of acceptance criterion 1
    "reaction_second_derivative",  # the derivative oracle of acceptance criterion 2
    "reaction_derivative",  # c', the oracle of the linearized step and of r' = c' + gamma
    "gaussian_lp_norm_closed_form",  # the reference that gaussian_lp_norm is tested against
}


def unused_definitions(modules, readers):
    """``file:line name`` for each definition in ``modules`` (file name ->
    source) that no source in ``readers`` uses."""
    found = set().union(*(uses(r) for r in readers))
    return [
        f"{name}:{line} {defined}"
        for name, source in modules.items()
        for line, defined in sorted(definitions(source))
        if defined not in found
    ]


def test_every_definition_has_a_runtime_use(tmp_path):
    """Each function, class and method in the package is used by the package,
    its demos or its benchmark harness; a helper that only tests call, or
    that nothing calls, is code no run needs.  ``KEPT_FOR_TESTS`` names the
    few that stay for a reader outside those sources.  Names match alone, as
    in the dataclass check."""
    source = (
        "from m import f\nclass A:\n    def __init__(self): pass\n    def run(self): pass\n"
        "    def _idle(self): pass\n"
        "def g():\n    def inner(): pass\n    return inner\n"
        "def h(): pass\nx = A().run\nsetattr(A, 'patched', g)\ndef patched(): pass\n"
        "def tested(): pass\n__all__ = ['A', 'g', 'h', 'tested']\n"
    )
    names = {name for _, name in definitions(source)}
    assert names == {"A", "run", "_idle", "g", "inner", "h", "patched", "tested"}
    assert sorted(names - uses(source)) == ["_idle", "h", "tested"]
    readers = source_tree(
        tmp_path,
        {
            "pkg/m.py": source,
            "tests/test_m.py": "from m import tested\ntested()\n",
            "perfbench/test_bench.py": "from m import h\nh()\n",
            "perfbench/probe.py": "patch(A, '_idle')\n",
        },
    )
    assert unused_definitions({"m.py": source}, readers) == ["m.py:9 h", "m.py:13 tested"]
    unused = unused_definitions({p.name: p.read_text() for p in MODULES}, RUNTIME)
    assert [u for u in unused if u.split()[1] not in KEPT_FOR_TESTS] == []
    # and the list names nothing that has since gained a runtime use
    assert sorted({u.split()[1] for u in unused}) == sorted(KEPT_FOR_TESTS)


def _opens_for_writing(call):
    """Whether ``call`` can write a file: ``write_text`` or ``write_bytes``, or
    ``open``/``x.open`` read as ``open(file, mode)`` with a mode that is not a
    string literal of the read-only letters r, b and t (no mode reads)."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > 1:
        mode = call.args[1]
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))


def calls_where(source, matches):
    """``function:line`` of each call in ``source`` for which ``matches(call)``
    holds, named by its innermost enclosing function (``<module>`` at the top
    level)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(f"{where}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_artifact_writer_opens_a_file_for_writing():
    """Every output file goes through ``cli._write_artifacts``, which renames it
    into place and turns a failed write into exit 2; a second writer would
    bypass both.  The package's other ``open`` calls read."""
    source = (
        "def load(p):\n    with open(p) as f, open(p, 'rb') as g, open(p, mode='rt') as h:\n"
        "        return f, g, h\n"
        "def save(p, m):\n    open(p, 'w').close()\n    open(p, mode=m)\n"
        "    def inner():\n        Path(p).write_text('x')\n    io.open(p, 'ab')\n"
        "open('log', 'r+')\n"
    )
    want = ["save:5", "save:6", "inner:8", "save:9", "<module>:10"]
    assert calls_where(source, _opens_for_writing) == want
    writers = [
        f"{p.name}:{w}" for p in MODULES for w in calls_where(p.read_text(), _opens_for_writing)
    ]
    assert writers and all(w.startswith("cli.py:_write_artifacts:") for w in writers), writers


def _synthesises_a_whole_grid(call):
    """Whether ``call`` is ``x.grid_values()`` with no argument, the grid of
    every step of a trajectory at once, (K + 1, n_points) entries."""
    f, given = call.func, call.args + call.keywords
    return isinstance(f, ast.Attribute) and f.attr == "grid_values" and not given


def test_no_module_synthesises_a_whole_trajectory_grid():
    """The stepper reads the reference path in coefficients and synthesises
    its grid one step at a time, so no run holds a (K + 1, n_points) grid."""
    source = (
        "def f(traj, eng, a):\n    traj.grid_values(3)\n    eng.grid_values(a, out=a)\n"
        "    return traj.grid_values()\ntraj.grid_values(k=None)\n"
    )
    assert calls_where(source, _synthesises_a_whole_grid) == ["f:4"]
    whole = [
        f"{p.name}:{c}"
        for p in MODULES
        for c in calls_where(p.read_text(), _synthesises_a_whole_grid)
    ]
    assert whole == []


def byte_copies(source):
    """(line, call) for each call in ``source`` that builds a whole copy of
    bytes, ``bytearray(...)``, ``x.tobytes(...)`` or ``b"".join(...)``, or
    views one, ``np.frombuffer(...)``, which keeps a whole file's bytes alive."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if isinstance(f, ast.Name) and f.id == "bytearray":
            found.append((n.lineno, "bytearray"))
        elif isinstance(f, ast.Attribute) and f.attr == "tobytes":
            found.append((n.lineno, "tobytes"))
        elif (
            isinstance(f, ast.Attribute)
            and f.attr == "join"
            and isinstance(f.value, ast.Constant)
            and isinstance(f.value.value, bytes)
        ):
            found.append((n.lineno, "bytes.join"))
        elif isinstance(f, ast.Attribute) and f.attr == "frombuffer":
            found.append((n.lineno, "frombuffer"))
    return sorted(found)


def test_no_artifact_is_copied_whole_before_it_is_written():
    """The artifact writer takes chunks and byte views, and the loaders read
    into one array, so the package builds no whole copy of a file's bytes; a
    docstring or comment naming the calls does not count."""
    source = (
        'def f(a, parts):\n    """b"".join(parts) is the file."""\n    data = bytearray(8)\n'
        '    x = a.tobytes()\n    y = b"".join(parts)\n    z = np.frombuffer(a, "<f8")\n'
        '    return "".join(map(str, parts))\nbytearray\n'
    )
    assert byte_copies(source) == [
        (3, "bytearray"),
        (4, "tobytes"),
        (5, "bytes.join"),
        (6, "frombuffer"),
    ]
    assert [(p.name, c) for p in MODULES for c in byte_copies(p.read_text())] == []
