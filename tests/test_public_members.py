"""No public member without a reader in the library, found with ``ast``.

Every public method or property defined in a class of ``latcon`` must be
read as an attribute somewhere in the package's code outside its own
definition: a member that nothing in the library reads is either dead or
a second way to ask what another member already answers.  A read is
matched by name alone, as ``ast`` cannot tell the class of the object
read.  Docstrings and comments do not count, as a reference there is no
``ast.Attribute``.
``ALLOWED`` names the members kept without such a reader, each with the
reason it stays.
"""

import ast
from pathlib import Path

from latcon import core

PACKAGE = Path(core.__file__).resolve().parent

# (class, member): why it stays without a reader in the package
ALLOWED = {
    ("_Order", "up"): "the documented reader of a principal filter",
    ("_Order", "down"): "the documented reader of a principal ideal",
    ("BrtReport", "ok"): "the report's verdict, which perfbench/workloads.py and the tests read",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _public_members(tree):
    """``(class, member, node)`` for each public method or property
    defined in a class of ``tree``, nested classes included."""
    return [(cls.name, item.name, item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def _reads(node):
    """The attribute names read in ``node``, one entry per
    ``ast.Attribute`` node, keyed by the node's identity."""
    return {id(sub): sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _unread(modules):
    """``(class, member)`` for each public member of ``modules`` that no
    code of ``modules`` reads as an attribute outside its own definition."""
    reads = {}
    for tree in modules.values():
        reads |= _reads(tree)
    out = set()
    for tree in modules.values():
        for cls, name, node in _public_members(tree):
            own = _reads(node)
            if not any(attr == name and key not in own for key, attr in reads.items()):
                out.add((cls, name))
    return out


def test_every_public_member_has_a_reader():
    assert sorted(_unread(_modules()) - set(ALLOWED)) == []


def test_every_allowed_member_exists_and_is_unread():
    # an entry whose member gained a reader or was deleted is stale
    assert _unread(_modules()) >= set(ALLOWED)


def test_the_guard_sees_a_reader():
    tree = ast.parse(
        "class C:\n"
        "    def used(self):\n"
        "        '''Docstrings do not count: x.unread(), x.recursive().'''\n"
        "        return self.recursive()\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "    def unread(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        return 2\n"
        "def f(c):\n"
        "    c.prop = 3\n"
        "    return c.used\n"
    )
    assert _unread({"m": tree}) == {("C", "unread"), ("C", "prop")}
