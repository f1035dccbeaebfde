"""Delexicalized dialog-act grammar and its canonical string serialization.

Acts are the semantic currency both agents trade in; the canonical strings
defined here are reused verbatim in schema files, in the `|acts:` markup
suffix, and as the unit of flow-diversity measurement.

An act is a value with one instance each: `make_act` is its only
constructor, so a corpus of thousands of turns holds a few dozen act
objects, and a pickled act is rebuilt as the receiving process's instance.

So an act list is keyed by the identities of its acts, and
`turn_acts_string` builds each list's signature once: markup, metrics, NLG
and export all ask for the same few hundred lists thousands of times. The
key is exact because the interning key holds `api`/`arg`, which the
signature can show. An entry keeps its acts alive, so an id in a live key
is never reused for another act; acts built directly with `DialogAct(...)`
are keyed by their own identities and stay correct.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

USER = "user"
SYSTEM = "system"

END = "END"  # distinguished terminal state for goal transition models

# name -> allowed argument kinds, per side ("intent", "entity", "none")
_USER_ACTS = {
    "inform": ("intent", "entity"),
    "affirm": ("intent", "entity"),
    "deny": ("intent", "entity"),
    "bye": ("none",),
    "repeat": ("none",),
}
_SYSTEM_ACTS = {
    "inform": ("entity",),
    "confirm": ("intent", "entity"),
    "offer": ("intent", "entity"),
    "request": ("entity",),
    "failure": ("intent",),
    "bye": ("none",),
}


class ActError(ValueError):
    pass


@dataclass(frozen=True)
class DialogAct:
    """One delexicalized act, made by `make_act`. `api`/`arg` carry the
    argument role an entity act refers to; they are policy bookkeeping and
    excluded from equality (the canonical string only shows them when a turn
    is ambiguous)."""

    name: str
    side: str
    intent: str | None = None
    entity: str | None = None
    api: str | None = field(default=None, compare=False)
    arg: str | None = field(default=None, compare=False)

    @property
    def arg_kind(self) -> str:
        if self.intent is not None:
            return "intent"
        if self.entity is not None:
            return "entity"
        return "none"

    def __reduce__(self):
        return make_act, (self.name, self.side, self.intent, self.entity, self.api, self.arg)


def make_act(
    name: str,
    side: str,
    intent: str | None = None,
    entity: str | None = None,
    api: str | None = None,
    arg: str | None = None,
) -> DialogAct:
    """The one instance of this act value. Its key holds all six fields,
    `api`/`arg` too, which equality ignores."""
    return _interned_act(name, side, intent, entity, api, arg)


# DialogAct itself behind a cache keyed on its six fields, always passed by
# position. The key space is the schema's act vocabulary; the bound only
# caps a process that reads many schemas.
_interned_act = lru_cache(maxsize=1 << 16)(DialogAct)


def validate_act(act: DialogAct) -> None:
    table = _USER_ACTS if act.side == USER else _SYSTEM_ACTS if act.side == SYSTEM else None
    if table is None:
        raise ActError(f"unknown act side {act.side!r}")
    kinds = table.get(act.name)
    if kinds is None:
        raise ActError(f"act {act.name!r} is not a valid {act.side}-side act")
    if act.arg_kind not in kinds:
        raise ActError(f"{act.side} act {act.name!r} does not take a {act.arg_kind} argument")
    if act.intent is not None and act.entity is not None:
        raise ActError(f"act {act.name!r} carries both an intent and an entity argument")


def act_to_string(act: DialogAct) -> str:
    """Canonical form `name(intent:X)`, `name(entity:T)` or `name()`."""
    if act.intent is not None:
        return f"{act.name}(intent:{act.intent})"
    if act.entity is not None:
        return f"{act.name}(entity:{act.entity})"
    return f"{act.name}()"


def _act_string_with_role(act: DialogAct) -> str:
    if act.entity is not None and act.api is not None and act.arg is not None:
        return f"{act.name}(entity:{act.entity}@{act.api}.{act.arg})"
    return act_to_string(act)


def turn_acts_string(acts: Sequence[DialogAct]) -> str:
    """Comma-join a turn's acts. Entity acts gain an `@api.arg` role suffix
    only when the turn holds same-typed entity acts with different roles."""
    key = tuple([id(a) for a in acts])
    hit = _signatures.get(key)
    if hit is not None:
        return hit[1]
    if len(_signatures) >= _SIGNATURES_MAX:
        del _signatures[next(iter(_signatures))]
    text = _signature(acts)
    _signatures[key] = (tuple(acts), text)
    return text


# act-id tuple -> (those acts, their signature). A corpus repeats a few
# hundred distinct act lists; the entry holds its acts, so no id in a live
# key is reused. The bound is `_interned_act`'s; past it the oldest entry
# goes.
_signatures: dict[tuple[int, ...], tuple[tuple[DialogAct, ...], str]] = {}
_SIGNATURES_MAX = 1 << 16


def _signature(acts: Sequence[DialogAct]) -> str:
    ambiguous: set[str] = set()
    seen_roles: dict[str, set[tuple[str | None, str | None]]] = {}
    for act in acts:
        if act.entity is not None:
            roles = seen_roles.setdefault(act.entity, set())
            roles.add((act.api, act.arg))
            if len(roles) > 1:
                ambiguous.add(act.entity)
    parts = []
    for act in acts:
        if act.entity is not None and act.entity in ambiguous:
            parts.append(_act_string_with_role(act))
        else:
            parts.append(act_to_string(act))
    return ",".join(parts)


# an API or arg name: what act strings and the markup's call lines read back
IDENTIFIER = r"[A-Za-z][A-Za-z0-9_]*"
_ACT_RE = re.compile(
    rf"^(?P<name>[a-z_]+)\((?:(?P<kind>intent|entity):(?P<val>{IDENTIFIER})"
    rf"(?:@(?P<api>{IDENTIFIER})\.(?P<arg>{IDENTIFIER}))?)?\)$"
)


def parse_act(text: str, side: str) -> DialogAct:
    m = _ACT_RE.match(text.strip())
    if m is None:
        raise ActError(f"cannot parse dialog act {text!r}")
    kind = m.group("kind")
    act = make_act(
        name=m.group("name"),
        side=side,
        intent=m.group("val") if kind == "intent" else None,
        entity=m.group("val") if kind == "entity" else None,
        api=m.group("api"),
        arg=m.group("arg"),
    )
    validate_act(act)
    return act


# A corpus repeats a few distinct act lists (bounded by the act vocabulary
# and max_acts_per_turn) thousands of times. `make_act` already shares each
# act; this cache saves the regex parse of a repeated list. A parse that
# raises is not cached.
@lru_cache(maxsize=4096)
def parse_act_list(text: str, side: str) -> tuple[DialogAct, ...]:
    """Parse a comma-joined act list; a blank one holds no acts. Every call
    with the same text returns the same tuple."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_act(part, side) for part in text.split(","))


class MissingActsError(ValueError):
    pass


def sequence_string(dialog) -> str:
    """Whole-dialog act sequence: turn act strings joined in turn order.

    API-call turns carry no acts of their own (the adjacent response
    announces the result); utterance and nlg turns must be annotated, so
    un-annotated seed dialogs are rejected rather than silently skipped.
    """
    parts: list[str] = []
    for n, turn in enumerate(dialog.turns, start=1):
        if not hasattr(turn, "acts"):
            continue
        if not turn.acts:
            raise MissingActsError(
                f"turn {n} carries no dialog acts; "
                "annotate the dialog before computing its act sequence"
            )
        parts.append(turn_acts_string(turn.acts))
    return ",".join(parts)


def value_bearing(acts: Sequence[DialogAct]) -> list[DialogAct]:
    """User acts that carry a surface value (drive slots and spans)."""
    return [a for a in acts if a.name == "inform" and a.entity is not None]


def slot_names_for(type_names: list[str]) -> list[str]:
    """Slot names for an ordered list of entity types: T, T2, T3 on repeats."""
    counts: dict[str, int] = {}
    names = []
    for t in type_names:
        n = counts.get(t, 0) + 1
        counts[t] = n
        names.append(t if n == 1 else f"{t}{n}")
    return names
