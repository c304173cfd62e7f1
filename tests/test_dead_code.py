"""Every function and method defined in `src/clusterdeform` is referenced
somewhere in `src/clusterdeform` outside its own body, or is named in
TEST_ONLY; and every `__slots__` field of a class there is read as an
attribute somewhere there.  The re-exports in `__init__.py` do not count as
references, and neither do references from inside a TEST_ONLY function.

The scan is by name.  A module-level function is reached only by a bare
name: `" ".join(parts)` says nothing of a function `join`.  A method is
reached only as an attribute, and an
attribute that is also a data attribute (a `__slots__` entry or an
assigned attribute) reaches a method only where it is called:
`var.g_vector` reads a `ClusterVariable` slot and says nothing of a method
`Atlas.g_vector`.  A property is read, never called, so every attribute
load of its name counts.

Every backticked name in a docstring or comment there resolves: a bare
identifier to a name of its file or a top-level name of the package, and
`A.B`, A a module or class of the package, to a member of A."""

import ast
import importlib
import inspect
import io
import pathlib
import re
import tokenize
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "clusterdeform"

# Reached only from the tests and the benchmark's case builder, which
# imports mutate.  Every other test-only function lives in the tests, next
# to the oracle or the test that uses it.  Keyed by file and module-level
# function: a method of the same name is still checked.
TEST_ONLY = {("seeds.py", "mutate")}

BENCH = SRC.parent.parent / "perfbench"
BENCH_CASES = BENCH / "cases.py"


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _walk(node, skip):
    """ast.walk that does not enter a function node in skip (by id)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if id(child) not in skip:
            yield from _walk(child, skip)


def _data_attributes(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Store):
                names.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__"
                          for t in node.targets)):
                names.update(e.value for e in ast.walk(node.value)
                             if isinstance(e, ast.Constant))
    return names


def _references(node, data, skip):
    """Counters of the names loaded under node, keyed by how they can be
    reached: "name" for bare names, "attr" for every attribute load,
    "method" for the attribute loads that can reach a method."""
    nodes = list(_walk(node, skip))
    called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    out = {"name": Counter(), "attr": Counter(), "method": Counter()}
    for n in nodes:
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out["name"][n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out["attr"][n.attr] += 1
            out["method"][n.attr] += n.attr not in data or id(n) in called
    return out


def _uses(refs, fn, is_method):
    if not is_method:
        return refs["name"][fn.name]
    if any(isinstance(d, ast.Name) and d.id in ("property", "cached_property")
           for d in fn.decorator_list):
        return refs["attr"][fn.name]
    return refs["method"][fn.name]


def unreferenced(trees, test_only=()):
    """(file, name) of each function or method that nothing outside its
    own body and the test_only functions references.  test_only holds
    (file, name) of module-level functions; a function defined in a class
    or another function is reported as "Outer.name", so it never matches
    one."""
    data = _data_attributes(trees)
    skip = {id(fn) for name, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and (name, fn.name) in test_only}
    refs = {"name": Counter(), "attr": Counter(), "method": Counter()}
    for tree in trees.values():
        for key, count in _references(tree, data, skip).items():
            refs[key].update(count)
    dead = []
    for name, tree in trees.items():
        for parent in ast.walk(tree):
            is_method = isinstance(parent, ast.ClassDef)
            nested = is_method or isinstance(parent, ast.FunctionDef)
            for fn in ast.iter_child_nodes(parent):
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                own = _references(fn, data, skip)
                if _uses(refs, fn, is_method) <= _uses(own, fn, is_method):
                    dead.append((name, "%s.%s" % (parent.name, fn.name)
                                 if nested else fn.name))
    return dead


def test_every_src_function_has_a_src_caller():
    dead = set(unreferenced(_trees(), TEST_ONLY))
    assert sorted(dead - TEST_ONLY) == []
    assert sorted(TEST_ONLY - dead) == [], \
        "take the names with a src caller off TEST_ONLY"


def unread_slots(trees):
    """(file, "Class.slot") of each `__slots__` entry that no attribute
    load anywhere in the trees reads."""
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in node.targets)):
                    unread += [(name, "%s.%s" % (cls.name, e.value))
                               for e in ast.walk(node.value)
                               if isinstance(e, ast.Constant)
                               and e.value not in loaded]
    return unread


def test_every_src_slot_is_read():
    assert unread_slots(_trees()) == []


def test_scan_sees_an_unread_slot():
    """A slot that is only stored, like the `T1Degree.seed_index` that no
    reader ever had, is reported until some attribute load reads it."""
    tree = ast.parse(
        "class D:\n"
        "    __slots__ = ('k', 'seed')\n"
        "    def __init__(self, k, seed):\n"
        "        self.k = k\n"
        "        self.seed = seed\n"
        "def use(d):\n"
        "    return d.k\n")
    assert unread_slots({"m.py": tree}) == [("m.py", "D.seed")]
    tree.body.append(ast.parse("def read(d):\n    return d.seed\n").body[0])
    assert unread_slots({"m.py": tree}) == []


def test_test_only_is_kept_for_the_benchmark():
    """TEST_ONLY names seeds.mutate, because the benchmark's case builder
    imports it from the package."""
    tree = ast.parse(BENCH_CASES.read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "clusterdeform.seeds"
                for alias in node.names}
    assert "mutate" in imported, (
        "perfbench/cases.py no longer imports seeds.mutate: move mutate "
        "into the tests that use it and empty TEST_ONLY")


def _bench_constant(tree, name):
    """The literal value of a module-level assignment `name = ...`."""
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets))


def test_benchmark_bindings_resolve():
    """Everything the benchmark harness binds in the package exists: each
    name a perfbench script imports from it, with the calls a script makes
    to such a name binding to its signature; each module traced_cli wraps;
    and each method it wraps.  A deletion that breaks the harness fails
    here rather than as a failed benchmark run."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(BENCH.glob("*.py"))}
    for name, tree in trees.items():
        bound = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("clusterdeform")):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (name, node.module,
                                                         alias.name)
                    bound[alias.asname or alias.name] = getattr(module,
                                                                alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in bound):
                inspect.signature(bound[node.func.id]).bind(
                    *node.args, **{k.arg: None for k in node.keywords})
    traced = trees["traced_cli.py"]
    for module in _bench_constant(traced, "MODULES"):
        importlib.import_module("clusterdeform." + module)
    methods = _bench_constant(traced, "METHODS")
    assert ("properties", "SemigroupData", "contains") in methods
    for module, cls, meth in methods:
        owner = getattr(importlib.import_module("clusterdeform." + module), cls)
        assert callable(getattr(owner, meth)), (module, cls, meth)


def test_scan_sees_an_uncalled_method_behind_a_slot():
    """A method named like a data attribute is dead until it is called:
    the `Atlas.g_vector` that once had no caller."""
    tree = ast.parse(
        "class V:\n"
        "    __slots__ = ('g',)\n"
        "    def __init__(self, g):\n"
        "        self.g = g\n"
        "class A:\n"
        "    def g(self, v):\n"
        "        return v.g\n"
        "def use(v):\n"
        "    return v.g\n")
    assert unreferenced({"m.py": tree}) == [("m.py", "use"), ("m.py", "A.g")]
    tree.body.append(ast.parse("def call(a):\n    return a.g(1)\n").body[0])
    assert unreferenced({"m.py": tree}) == [("m.py", "use"), ("m.py", "call")]
    assert unreferenced({"m.py": tree}, {("m.py", "call")}) == [
        ("m.py", "use"), ("m.py", "call"), ("m.py", "A.g")]


def test_scan_reaches_a_module_function_only_by_its_bare_name():
    """An attribute of the same name is not a reference: the
    `" ".join(...)` that once kept `simplicial.join` off TEST_ONLY."""
    tree = ast.parse(
        "def join(a, b):\n"
        "    return a + b\n"
        "def words(parts):\n"
        "    return ' '.join(parts)\n"
        "def use(parts):\n"
        "    return words(parts)\n")
    assert unreferenced({"m.py": tree}) == [("m.py", "join"), ("m.py", "use")]
    tree.body.append(ast.parse("def pair(a):\n    return join(a, a)\n").body[0])
    assert unreferenced({"m.py": tree}) == [("m.py", "use"), ("m.py", "pair")]


def test_test_only_does_not_hide_a_method_of_the_same_name():
    """TEST_ONLY names module-level functions: an uncalled method that
    shares the name, like the `ExtendedExchangeMatrix.mutate` that once
    outlived its last caller, is still reported."""
    tree = ast.parse(
        "class M:\n"
        "    def mutate(self, k):\n"
        "        return k\n"
        "def mutate(s, k):\n"
        "    return s.mutate(k)\n")
    only = {("m.py", "mutate")}
    assert set(unreferenced({"m.py": tree}, only)) - only == {
        ("m.py", "M.mutate")}
    tree.body.append(ast.parse("def use(s):\n    return s.mutate(0)\n").body[0])
    assert set(unreferenced({"m.py": tree}, only)) - only == {("m.py", "use")}


def _docs_and_comments(source, tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string


def _slots(body):
    return {e.value for node in body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets)
            for e in ast.walk(node.value) if isinstance(e, ast.Constant)}


def _members(body):
    """The functions, classes and assigned names of a module or class
    body, and its slots."""
    out = _slots(body)
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def _file_names(tree):
    """Every name a file defines, loads or imports, attributes included."""
    out = _slots(n for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for n in node.body)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def unresolved_names(sources):
    """(file, name) of each backticked identifier or `A.B` in a docstring
    or comment of the sources, by file name, that does not resolve.  A
    dotted name whose A is not a module or class of the sources, like
    `univ.base_atlas`, and a backticked span that is no name, like `x*y^2`,
    are not checked."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    owners = {name[:-3]: _members(tree.body) for name, tree in trees.items()}
    top = set(owners).union(*owners.values())
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                attrs = owners.setdefault(cls.name, set())
                attrs |= _members(cls.body)
                attrs.update(n.attr for n in ast.walk(cls)
                             if isinstance(n, ast.Attribute)
                             and isinstance(n.ctx, ast.Store)
                             and isinstance(n.value, ast.Name)
                             and n.value.id == "self")
    out = set()
    for name, tree in trees.items():
        known = _file_names(tree) | top
        for text in _docs_and_comments(sources[name], tree):
            for ref in re.findall(r"`([^`]+)`", text):
                ref = ref.strip()
                if re.fullmatch(r"[A-Za-z_]\w*", ref):
                    if ref not in known:
                        out.add((name, ref))
                elif re.fullmatch(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", ref):
                    owner, attr = ref.split(".")
                    if owner in owners and attr not in owners[owner]:
                        out.add((name, ref))
    return sorted(out)


def test_every_backticked_src_name_resolves():
    assert unresolved_names({path.name: path.read_text()
                             for path in sorted(SRC.glob("*.py"))}) == []


def test_scan_sees_a_stale_backticked_name():
    """A docstring that names a deleted function, like the
    `universal_images` that `deform` once called, or a member its class
    lacks, is reported; a comment counts as well as a docstring."""
    source = (
        "class Atlas:\n"
        "    __slots__ = ('seeds',)\n"
        "    def __init__(self):\n"
        "        self.variables = {}\n"
        "def lift(univ):\n"
        "    \"\"\"Reads `Atlas.seeds`, `Atlas.variables`, `univ.u_rows`,\n"
        "    `x*y^2`, `helper` and `m.lift`; `universal_images`.\"\"\"\n"
        "    # `Atlas.nope`\n"
        "    return univ\n")
    assert unresolved_names({"m.py": source, "n.py": "def helper(): pass\n"}) \
        == [("m.py", "Atlas.nope"), ("m.py", "universal_images")]
