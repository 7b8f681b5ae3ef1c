"""A record that checks its fields is built unchecked only where its check holds.

``TimeInterval``, ``Slack``, ``StageWindows`` and ``Message`` check their
fields in ``__new__``. Building one through ``tuple.__new__`` (directly, or
through a name bound to it) skips that check. The scan covers every module
under ``src/cnetsched`` and fails on such a build outside the record's own
``__new__``, which builds it after its checks, and outside ``ALLOWED``, whose
entries each say why the check holds there. ``cls`` in a method resolves to
the class that defines it.
"""

import ast
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import cnetsched
from cnetsched.agents import _slack_from
from cnetsched.timebase import HORIZON, Slack

PACKAGE = Path(cnetsched.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

CHECKED = {"TimeInterval", "Slack", "StageWindows", "Message"}

#: ``function: record`` -> why the record's check holds there
ALLOWED = {
    "Message.fanout: Message": (
        "every envelope carries the parts of the first, which the checked constructor built"
    ),
    "_slack_from: Slack": "the seconds are max(0, ...), never negative",
}


def _is_tuple_new(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "tuple"
    )


def unchecked_builds(source: str) -> list[str]:
    """``function: record`` for each ``tuple.__new__`` build of a checked
    record outside the record's own ``__new__``, in source order."""
    tree = ast.parse(source)
    aliases = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_tuple_new(node.value)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    out = []

    def scan(node: ast.AST, where: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                scan(child, child.name, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{owner}.{child.name}" if owner else child.name
                scan(child, qual, owner)
                continue
            if (
                isinstance(child, ast.Call) and child.args
                and (_is_tuple_new(child.func)
                     or isinstance(child.func, ast.Name) and child.func.id in aliases)
                and isinstance(child.args[0], (ast.Name, ast.Attribute))
            ):
                arg = child.args[0]
                record = arg.attr if isinstance(arg, ast.Attribute) else arg.id
                record = owner if record == "cls" else record
                if record in CHECKED and where != f"{record}.__new__":
                    out.append(f"{where}: {record}")
            scan(child, where, owner)

    scan(tree, "<module>", "")
    return out


def test_the_scan_finds_each_unchecked_build_of_a_checked_record():
    source = (
        "new = tuple.__new__\n"
        "class Slack(tuple):\n"
        "    def __new__(cls, s):\n"
        "        return tuple.__new__(cls, (s,))\n"
        "    def twin(cls):\n"
        "        return new(cls, (0,))\n"
        "def leg(a, b):\n"
        "    build = tuple.__new__\n"
        "    return build(TransportLeg, (a,)), build(TimeInterval, (a, b))\n"
        "HALF = tuple.__new__(Slack, (30,))\n"
        "NONE = tuple.__new__(timebase.Slack, (0,))\n"
    )
    assert unchecked_builds(source) == [
        "Slack.twin: Slack", "leg: TimeInterval", "<module>: Slack", "<module>: Slack"
    ]


def test_checked_records_are_built_unchecked_only_where_allowed():
    found = [b for p in MODULES for b in unchecked_builds(p.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(ALLOWED)


_SECONDS = st.integers(0, HORIZON + 10)


@given(
    st.one_of(st.just(HORIZON), _SECONDS),
    _SECONDS,
    st.one_of(st.none(), st.just(HORIZON), _SECONDS),
)
def test_property_slack_from_builds_what_the_checked_constructor_builds(gap_end, nominal_end, cap):
    limit = cap if gap_end >= HORIZON else gap_end if cap is None else min(gap_end, cap)
    want = Slack.UNBOUNDED if limit is None else Slack(max(0, limit - nominal_end))
    got = _slack_from(gap_end, nominal_end, cap)
    assert type(got) is Slack and got == want
