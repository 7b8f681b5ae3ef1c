"""Every name the package defines is read somewhere in it, or exported.

The scan covers each module-level function, class and constant and each
method under ``src/cnetsched``. A definition counts as read when some module
of the package reads its bare name, as a variable or as an attribute; a name
in ``cnetsched.__all__`` counts too. Dunder names run implicitly and are
skipped. ``EXEMPT`` names the rest, each with why nothing reads it.
"""

import ast
from pathlib import Path

import cnetsched

PACKAGE = Path(cnetsched.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

#: name (bare, or ``Class.method``) -> why it stays although no module reads it
EXEMPT = {
    "_make": "NamedTuple's _replace builds through it",
    "entry_at_or_after": "perfbench/layers.py wraps it by name",
}


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """``(bare, qualified)`` for each module-level definition and each method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            out.append((node.name, node.name))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((item.name, f"{node.name}.{item.name}"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.id, t.id) for t in targets if isinstance(t, ast.Name))
    return [(bare, qual) for bare, qual in out if not bare.startswith("__")]


def reads(tree: ast.Module) -> set[str]:
    """Every bare name the module reads, as a variable or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def dead_names(sources: dict[str, str], exported=(), exempt=()) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set().union(*map(reads, trees.values()))
    keep = read | set(exported) | set(exempt)
    return [
        f"{module}: {qual}"
        for module, tree in trees.items()
        for bare, qual in definitions(tree)
        if bare not in keep and qual not in keep
    ]


def test_the_scan_finds_an_unread_definition_and_keeps_read_exported_and_exempt_ones():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "UNUSED = 4\n"
            "def helper(): return LIMIT\n"
            "class Box:\n"
            "    def __init__(self): self.n = helper()\n"
            "    def size(self): return self.n\n"
            "    def spare(self): pass\n"
            "    def kept(self): pass\n"
        ),
        "b.py": "def public(box): return box.size()\n",
    }
    found = dead_names(sources, exported=["Box", "public"], exempt=["Box.kept"])
    assert found == ["a.py: UNUSED", "a.py: Box.spare"]


def test_every_name_the_package_defines_is_read_or_exported():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_names(sources, cnetsched.__all__, EXEMPT) == []


def test_every_exemption_is_still_needed():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    for name in EXEMPT:
        rest = {k: v for k, v in EXEMPT.items() if k != name}
        assert dead_names(sources, cnetsched.__all__, rest), name
