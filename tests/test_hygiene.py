"""No dead code in src/transcheck: every import is used in its module, and
every module-level function, class and method is named in src/ outside its
own definition, or, when README.md's Library section names it as public
API, somewhere in src/, tests/ or perfbench/.  Read with the stdlib ast
module, so comments and docstrings do not count as uses.  A method that
overrides one of a base class (argparse calls _Parser.error) is used by the
base class's callers.  No walker of pi terms or of terms recurses outside
the known call cycles, so a term of any depth is walked: every call cycle of
pi.py, encodings.py, terms.py and finlang.py is a known one, and of terms.py
only the parser is left.  And pi terms are interned, so pi.py keys no
memo by id.  terms.alpha_eq builds no canonical key and does not call
itself.  No module imports dataclasses, whose decorator compiles the
methods of each class it makes when the package is imported.  cli.py
declares each command-line argument in one add_argument call."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "transcheck"


def _parse(paths):
    return {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(), str(p)) for p in paths}


PACKAGE_TREES = _parse(sorted(PACKAGE.glob("*.py")))
ALL_TREES = _parse(sorted(p for d in ("src", "tests", "perfbench")
                          for p in (ROOT / d).rglob("*.py")))


def _mentions(node: ast.AST) -> Counter:
    """Identifiers used under node: names, attributes and imported names."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
    return out


def _definitions(path: str, tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes,
    leaving out dunder methods (the language calls them) and overrides."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            module = importlib.import_module(f"transcheck.{Path(path).stem}")
            bases = getattr(module, node.name).__mro__[1:]
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and not any(hasattr(b, item.name) for b in bases)):
                    yield item


def test_no_unused_imports():
    unused = []
    for path, tree in PACKAGE_TREES.items():
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loads:
                        unused.append(f"{path}: {bound}")
    assert unused == []


def _library_names() -> set[str]:
    """The identifiers in the code spans of the bullet list that follows
    "These public definitions" in README.md's Library section; a mention in
    the prose around it makes nothing public."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    after = section.split("\nThese public definitions", 1)[1]
    bullets = re.search(r"\n\n((?:- .*\n(?:  .*\n)*)+)", after).group(1)
    return {name for span in re.findall(r"`([^`]*)`", bullets)
            for name in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span)}


def test_no_module_imports_dataclasses():
    found = []
    for path, tree in PACKAGE_TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path}: {m}" for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a bare import, in a fresh interpreter, as every command starts
    code = ("import sys, transcheck.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


def test_the_library_names_are_the_bullets():
    public = _library_names()
    assert {"canon_key", "check_compositional", "is_async", "result"} <= public
    # named in the prose after the list only
    assert public.isdisjoint({"complete_compositional", "alpha_eq", "translate"})


def test_public_functions_take_no_private_parameters():
    # a parameter spelled _x is a knob no caller outside the module should
    # turn: reduce_once and explore once took the canon that way
    found = []
    for path, tree in PACKAGE_TREES.items():
        for node in tree.body:
            fns = [node]
            if isinstance(node, ast.ClassDef):
                fns = node.body
            for fn in fns:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or fn.name.startswith("_"):
                    continue
                a = fn.args
                found += [f"{path}: {fn.name}({p.arg})"
                          for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None and p.arg.startswith("_")]
    assert found == []


# parameters no line of their function reads, with the reason each stays;
# the list may only shrink
UNREAD_ALLOWED = {
    "src/transcheck/terms.py: all_names(sig)": "every walker of terms.py takes the signature "
    "first, as free_vars and validate do; collecting names looks up no construct",
}


def test_every_parameter_is_read():
    # image_congruence_closure_1hole once took a source language it never read
    found = set()
    for path, tree in PACKAGE_TREES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            a = fn.args
            found |= {f"{path}: {getattr(fn, 'name', 'lambda')}({p.arg})"
                      for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None and not p.arg.startswith("_") and p.arg not in read}
    assert found == set(UNREAD_ALLOWED)


def test_every_definition_is_used():
    in_src, everywhere = Counter(), Counter()
    for path, tree in ALL_TREES.items():
        mentions = _mentions(tree)
        everywhere += mentions
        if path.startswith("src/"):
            in_src += mentions
    public = _library_names()
    dead = []
    for path, tree in PACKAGE_TREES.items():
        for node in _definitions(path, tree):
            uses = everywhere if node.name in public else in_src
            if uses[node.name] - _mentions(node)[node.name] == 0:
                dead.append(f"{path}: {node.name}")
    assert dead == []


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """The functions of a module, methods and nested functions included, each
    named by its dotted path, with the functions each may call: a name called
    or passed to a call resolves to the innermost function of that name in
    scope, or to a class's __init__; an attribute called resolves to every
    method of that name, and an attribute passed to every such method but
    the properties: a property read counts as no call, passed or not."""
    defs: dict[str, ast.AST] = {}
    methods: dict[str, set[str]] = {}
    properties: set[str] = set()

    def collect(body, prefix: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[prefix + node.name] = node
                if in_class:
                    methods.setdefault(node.name, set()).add(prefix + node.name)
                    if any((getattr(d, "id", None) or getattr(d, "attr", None))
                           in ("property", "cached_property") for d in node.decorator_list):
                        properties.add(prefix + node.name)
                collect(node.body, f"{prefix}{node.name}.", False)
            elif isinstance(node, ast.ClassDef):
                defs[prefix + node.name] = node
                collect(node.body, f"{prefix}{node.name}.", True)

    collect(tree.body, "", False)
    graph = {}
    for path, fn in defs.items():
        if isinstance(fn, ast.ClassDef):
            continue
        scope = path.split(".")
        callees = set()
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            for f in [call.func, *call.args, *(k.value for k in call.keywords)]:
                if isinstance(f, ast.Attribute):
                    named = methods.get(f.attr, set())
                    callees |= named if f is call.func else named - properties
                elif isinstance(f, ast.Name):
                    found = next((".".join(scope[:k] + [f.id]) for k in range(len(scope), -1, -1)
                                  if ".".join(scope[:k] + [f.id]) in defs), None)
                    if found is not None and isinstance(defs[found], ast.ClassDef):
                        found = f"{found}.__init__" if f"{found}.__init__" in defs else None
                    if found is not None:
                        callees.add(found)
        graph[path] = callees
    return graph


def _cycles(graph: dict[str, set[str]]) -> set[str]:
    """The call cycles of a graph, each as its functions joined by ", " in
    sorted order: the functions reachable from themselves, grouped by
    mutual reachability."""
    reach = {}
    for f in graph:
        seen, stack = set(), list(graph[f])
        while stack:
            g = stack.pop()
            if g not in seen:
                seen.add(g)
                stack.extend(graph.get(g, ()))
        reach[f] = seen
    return {", ".join(sorted(g for g in reach[f] if f in reach[g]))
            for f in graph if f in reach[f]}


# the call cycles allowed in the modules that walk terms, with the reason; the
# list may only shrink
_WALKS = "recurses once per node of the term it walks, so a deep term raises RecursionError"
CYCLES_ALLOWED = {
    "src/transcheck/pi.py: subst_names, subst_names.bind": "respells a binder by renaming it "
    "in its body to a name fresh for that body, a call that respells no binder and so does "
    "not call again",
    "src/transcheck/pi.py: _Canon.gather, _Canon.normalize_thread, _Canon.renorm, "
    "_Canon.renorm_thread": "normalizes a continuation inside the thread it follows, one "
    "round per prefix of nesting, so normalizing commands refuse deeply nested terms",
    "src/transcheck/pi.py: _Canon.cont, _Canon.level, _Canon.thread, _Canon.whole, "
    "_Search.best, _Search.key, _Search.leaf, _Search.refine":
    "keys a continuation inside the thread it follows, one round per prefix of nesting",
    "src/transcheck/terms.py: parse_term.term": _WALKS,
    "src/transcheck/finlang.py: denote": _WALKS,
    "src/transcheck/finlang.py: _random_image.go": "draws a random head image of at most "
    "two levels",
}


def test_pi_walkers_do_not_recurse():
    # every call cycle of the term modules is a known one; a self-call check
    # alone missed the canon's cycles through several methods
    cycles = {f"{path}: {cycle}"
              for path in ("src/transcheck/pi.py", "src/transcheck/encodings.py",
                           "src/transcheck/terms.py", "src/transcheck/finlang.py")
              for cycle in _cycles(_call_graph(PACKAGE_TREES[path]))}
    assert cycles == set(CYCLES_ALLOWED)


def test_the_call_graph_finds_cycles_through_methods_and_passed_functions():
    tree = ast.parse("""
def walk(t):
    return list(map(walk, t))

class A:
    def f(self):
        return self.g()

    def g(self):
        return sorted([], key=self.f)

    def h(self):
        return B().run()

class B:
    def __init__(self):
        self.x = helper(0)

    def run(self):
        return 1

def helper(n):
    def inner(m):
        return inner(m - 1) if m else outer()
    return inner(n)

def outer():
    return 0
""")
    assert _cycles(_call_graph(tree)) == {"walk", "A.f, A.g", "helper.inner"}


def test_the_call_graph_reads_a_passed_property_as_a_value():
    # a property passed to a call is read, not called: zip(self._graph.size)
    # inside the property size is no cycle; a method passed, as in
    # map(self.walk, xs) inside walk, is one, and so is a property called
    tree = ast.parse("""
from functools import cached_property

class Graph:
    @property
    def size(self):
        return len(self.nodes)

class View:
    @cached_property
    def size(self):
        return sum(zip(self._graph.size, self.other))

    @property
    def count(self):
        return self.count()

    def walk(self, xs):
        return list(map(self.walk, xs))
""")
    graph = _call_graph(tree)
    assert graph["View.size"] == set()
    assert _cycles(graph) == {"View.count", "View.walk"}


def test_pi_memos_are_not_keyed_by_id():
    calls = [f"line {n.lineno}" for n in ast.walk(PACKAGE_TREES["src/transcheck/pi.py"])
             if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "id"]
    assert calls == []


def test_alpha_eq_walks_both_terms_in_step():
    # comparing two canonical keys built each term's key in full, however
    # early the terms differ, and recursed once per node
    fn = next(n for n in PACKAGE_TREES["src/transcheck/terms.py"].body
              if isinstance(n, ast.FunctionDef) and n.name == "alpha_eq")
    called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
              for n in ast.walk(fn) if isinstance(n, ast.Call)}
    assert called.isdisjoint({"alpha_eq", "_canon_key", "canon_key"})
    assert "_fv" in called


def test_each_command_line_argument_is_declared_once():
    # an argument several commands take sits on one parent parser, so the
    # commands cannot drift apart and a new shared option lands once
    declared = Counter(arg.value for n in ast.walk(PACKAGE_TREES["src/transcheck/cli.py"])
                       if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "add_argument"
                       for arg in n.args if isinstance(arg, ast.Constant))
    assert {"term", "--context", "--boudol", "--budget", "--kind", "--relation"} <= set(declared)
    assert sorted(name for name, n in declared.items() if n > 1) == []
