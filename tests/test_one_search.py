"""One backtracking search in the package, found with ``ast``.

``core._depth_first`` is the only function of ``latcon`` that drives a
search with an explicit stack: a ``while`` loop whose body both appends
to and pops a list that the function builds itself, whatever the loop's
test.  The isomorphism search, the isotone maps and the down-sets hand
their candidates to it instead.  An append through a bound alias
(``push = stack.append``) counts as an append.  A worklist handed in as
an argument, as ``congruence._closure``'s pairs are, is no such stack:
the function does not build it.
"""

import ast
from pathlib import Path

from latcon import core

PACKAGE = Path(core.__file__).resolve().parent

# (module, function) allowed an explicit-stack search
ALLOWED = {("core", "_depth_first")}


def _own_nodes(func):
    """The nodes of ``func``'s body, without those of the functions and
    classes defined inside it, which are checked on their own."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = [node for node in func.body if not isinstance(node, nested)]
    for node in out:
        out.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, nested))
    return out


def _bindings(nodes):
    """``(name, value)`` for each plain assignment among ``nodes``, tuple
    assignments of equal length taken pair by pair."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                yield from ((t.id, v) for t, v in pairs if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.value:
            yield node.target.id, node.value


def _method_of(call, method):
    """The name whose ``method`` attribute ``call`` calls, or None."""
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr == method and isinstance(f.value, ast.Name):
        return f.value.id
    return None


def _stacks(func):
    """The lists built in ``func`` that one of its ``while`` loops both
    appends to and pops."""
    nodes = _own_nodes(func)
    lists, aliases = set(), {}
    for name, value in _bindings(nodes):
        if isinstance(value, (ast.List, ast.ListComp)):
            lists.add(name)
        elif (isinstance(value, ast.Attribute) and value.attr == "append"
              and isinstance(value.value, ast.Name)):
            aliases[name] = value.value.id
    found = set()
    for loop in nodes:
        if not isinstance(loop, ast.While):
            continue
        calls = [n for stmt in loop.body for n in ast.walk(stmt) if isinstance(n, ast.Call)]
        appended = {_method_of(c, "append") for c in calls}
        appended |= {aliases.get(c.func.id) for c in calls if isinstance(c.func, ast.Name)}
        popped = {_method_of(c, "pop") for c in calls}
        found |= lists & appended & popped
    return found


def _searches(modules):
    """``(module, function)`` for each function of ``modules`` with an
    explicit-stack search."""
    return {(name, f.name) for name, tree in modules.items() for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and _stacks(f)}


def test_depth_first_is_the_only_explicit_stack_search():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _searches(modules) == ALLOWED


def test_the_guard_sees_a_search():
    tree = ast.parse(
        "def search(n, images):\n"
        "    stack = [images(0)]\n"
        "    while stack:\n"
        "        if next(stack[-1], None) is None:\n"
        "            stack.pop()\n"
        "        else:\n"
        "            stack.append(images(len(stack)))\n"
        "def aliased(start):\n"
        "    found: list = []\n"
        "    x, todo = 0, [start]\n"
        "    push = todo.append\n"
        "    while len(todo) > x:\n"
        "        found.append(todo.pop())\n"
        "        push(x)\n"
        "def forever(n):\n"
        "    stack = []\n"
        "    while True:\n"
        "        stack.append(n)\n"
        "        while stack and stack[-1] is None:\n"
        "            stack.pop()\n"
        "def outer(n):\n"
        "    def inner():\n"
        "        stack = [n]\n"
        "        while stack:\n"
        "            stack.append(stack.pop() - 1)\n"
        "    return inner\n"
        "def worklist(work):\n"  # handed in, not built here
        "    while work:\n"
        "        work.append(work.pop())\n"
        "def drain(items):\n"  # pops only
        "    rest = [0]\n"
        "    while rest:\n"
        "        rest.pop()\n"
        "def grow(found):\n"  # appends only
        "    seen = [0]\n"
        "    while len(seen) < 9:\n"
        "        seen.append(1)\n"
    )
    assert _searches({"m": tree}) == {("m", "search"), ("m", "aliased"), ("m", "forever"),
                                     ("m", "inner")}
