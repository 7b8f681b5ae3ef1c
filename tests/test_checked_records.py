"""A record that checks its fields is built unchecked only where its check
holds, and the records of an offer's promise each have one builder.

``TimeInterval``, ``Slack``, ``StageWindows`` and ``Message`` check their
fields in ``__new__``. Building one through ``tuple.__new__`` (directly, or
through a name bound to it) skips that check. The scan covers every module
under ``src/cnetsched`` and fails on such a build outside the record's own
``__new__``, which builds it after its checks, and outside ``ALLOWED``, whose
entries each say why the check holds there. ``cls`` in a method resolves to
the class that defines it.

A ``Proposal`` and its ``OfferHold`` are the promise a resource makes, and a
``RejectProposal`` is what frees it: each is built, by any call, in the one
function ``BUILDERS`` names.
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


def _record_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def builds(source: str) -> list[tuple[str, str, bool]]:
    """``(function, record, unchecked)`` for each call that may build a
    record, in source order: a call of the record's name or of its
    ``_make`` (``unchecked`` False), or of ``tuple.__new__``, directly or
    through a name bound to it, with the record first (``unchecked`` True).
    A call of a plain function reads as a build of a record of its name."""
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
            if isinstance(child, ast.Call):
                func = child.func
                unchecked = _is_tuple_new(func) or (
                    isinstance(func, ast.Name) and func.id in aliases
                )
                if unchecked:
                    target = child.args[0] if child.args else None
                elif isinstance(func, ast.Attribute) and func.attr == "_make":
                    target = func.value
                else:
                    target = func
                record = _record_name(target) if target is not None else ""
                if record:
                    out.append((where, owner if record == "cls" else record, unchecked))
            scan(child, where, owner)

    scan(tree, "<module>", "")
    return out


def unchecked_builds(source: str) -> list[str]:
    """``function: record`` for each ``tuple.__new__`` build of a checked
    record outside the record's own ``__new__``, in source order."""
    return [
        f"{where}: {record}"
        for where, record, unchecked in builds(source)
        if unchecked and record in CHECKED and where != f"{record}.__new__"
    ]


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


#: record -> ``module.function``, the one place that builds it
BUILDERS = {
    "Proposal": "agents._ResourceAgent._offer",
    "OfferHold": "agents._ResourceAgent._offer",
    "RejectProposal": "protocol.rejects",
}


def test_the_scan_finds_each_build_by_call_make_and_tuple_new():
    source = (
        "import protocol\n"
        "new = tuple.__new__\n"
        "def offer(p):\n"
        "    return Proposal(p), protocol.OfferHold(p), new(Proposal, (p,))\n"
        "class Book:\n"
        "    def drop(self, p):\n"
        "        return RejectProposal._make((p,)), tuple.__new__(protocol.RejectProposal, (p,))\n"
    )
    found = [(where, record, unchecked) for where, record, unchecked in builds(source)
             if record in BUILDERS]
    assert found == [
        ("offer", "Proposal", False), ("offer", "OfferHold", False), ("offer", "Proposal", True),
        ("Book.drop", "RejectProposal", False), ("Book.drop", "RejectProposal", True),
    ]


def test_each_record_of_an_offers_promise_has_one_builder():
    found = {
        f"{record}: {p.stem}.{where}"
        for p in MODULES
        for where, record, _ in builds(p.read_text(encoding="utf-8"))
        if record in BUILDERS
    }
    assert sorted(found) == sorted(f"{record}: {where}" for record, where in BUILDERS.items())


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
