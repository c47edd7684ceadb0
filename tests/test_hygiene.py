"""No dead code in src/transcheck: every import is used in its module, and
every module-level function, class and method is named somewhere in src/,
tests/ or perfbench/ outside its own definition.  Read with the stdlib ast
module, so comments and docstrings do not count as uses.  A method that
overrides one of a base class (argparse calls _Parser.error) is used by the
base class's callers.  No walker of pi terms recurses, so a term of any
depth is walked.  And pi terms are interned, so pi.py keys no memo by id.
terms.alpha_eq builds no canonical key and does not call itself."""

import ast
import importlib
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


def test_every_definition_is_used():
    everywhere = Counter()
    for tree in ALL_TREES.values():
        everywhere += _mentions(tree)
    dead = []
    for path, tree in PACKAGE_TREES.items():
        for node in _definitions(path, tree):
            if everywhere[node.name] - _mentions(node)[node.name] == 0:
                dead.append(f"{path}: {node.name}")
    assert dead == []


# the functions of the pi modules allowed to call themselves, with the reason
RECURSION_ALLOWED = {
    "src/transcheck/pi.py: subst_names": "respells a binder by renaming it in its body to a "
    "name fresh for that body, a call that respells no binder and so does not call again",
}


def test_pi_walkers_do_not_recurse():
    recursive = set()
    for path in ("src/transcheck/pi.py", "src/transcheck/encodings.py"):
        for fn in ast.walk(PACKAGE_TREES[path]):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and fn.name in (getattr(call.func, "id", None),
                                                              getattr(call.func, "attr", None)):
                    recursive.add(f"{path}: {fn.name}")
    assert recursive == set(RECURSION_ALLOWED)


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
