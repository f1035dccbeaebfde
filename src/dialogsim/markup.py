"""Line-oriented dialog markup: parsing, linking, and serialization.

One turn per line:

    U-<n>: <text with [surface|var] spans>            [ |acts: <act-seq>]
    S-<n>: call: <Api>(<arg>=<valref>,...) -> <var>
    S-<n>: nlg: <text>                                [ |acts: <act-seq>]

`<valref>` is `$<var>` or a double-quoted literal (literals appear only in
seed dialogs, before linking). Files hold many dialogs separated by blank
lines; `#`-prefixed `key=value` lines carry per-dialog metadata.

In memory a dialog is its metadata plus the list of turn payloads in order:
`UserUtterance`, `ApiCall` or `NlgResponse`. Neither the turn number nor the
side is stored. The number `<n>` is the turn's position plus one, and the
side follows from the type: a `UserUtterance` is a user turn, the others
are system turns.

The text after `call: ` is `str(ApiCall)`, shared with the training export.
Var ids follow `schema.NAME`; API and arg names follow `acts.IDENTIFIER`.

A `ValueRef` is a value with one instance each, made only by `ref` and
`lit`, as `acts.make_act` makes each `DialogAct`: a batch's call lines hold
a few dozen refs, and a pickled ref is rebuilt as the receiving process's
instance.

Turns and spans are immutable records (`NamedTuple`s, with tuples for
`spans` and `acts`), and `ApiCall.bindings` is a dict that nothing writes
after construction. So a corpus, which repeats its own lines, shares them.
`parse_corpus` keeps four memos, all local to one call:

- The whole-line memo maps a line, turn number included, to its entry: for
  a turn line its turn number, its turn and the turn's link part, for a `#`
  line its `(key, value)` pair, or `()` for a comment. A repeated line costs
  one lookup and the turn-number check, which still runs for every line.
- Behind it, the body memo, keyed by the side letter and the body without
  the turn number, parses each distinct body once, so one body at other
  turn numbers is still one turn object.
- The link memo holds the link key of each dialog that linked unchanged.
  The key is what linking reads of the dialog: per turn its link part
  (`_link_part`), which is the spans' `var_id:entity_type` as one string
  for a user turn, the call's identity for a call (the body memo keeps the
  call alive), and `None` for an nlg line. A dialog whose key is in the
  memo is not linked again.
- The facts memo maps the link part of each user turn and call to the
  turn's link facts (`_link_facts`), the `(var, type)` pairs it needs
  bound and those it introduces, made on a link-memo miss, so a corpus
  whose dialogs all hit the link memo makes none.

`_link` is the one linker. It walks a dialog's facts in turn order with
one `types` dict, and only a turn whose needs are not bound at their
types, or that its facts mark unfit, takes the slow branch (`_link_slow`),
which raises the error or types a span by its consuming call. So an error
is raised, at its own line, by every dialog that has it, and a turn typed
by its call belongs to its own dialog alone.

A parse error is never stored either, so every error names its own line.

Generated corpora share their turns where they are made (see `engine`), so
`serialize_corpus` writes each distinct turn object's line body once per
call: a local dict maps `id(turn)` to the body, and the dialogs it was
given keep every turn alive until it returns. `_line_body` is the one home
of the line grammar, and `serialize_dialog` uses it too.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

from .acts import (
    IDENTIFIER,
    USER,
    SYSTEM,
    ActError,
    DialogAct,
    make_act,
    parse_act_list,
    turn_acts_string,
)
from .schema import NAME, OBJECT, SchemaBundle, read_input, var_prefix


class MarkupError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class ValueRef:
    """Either a `$var` reference or a quoted literal, made by `ref` or `lit`."""

    var: str | None = None
    literal: str | None = None

    def __str__(self) -> str:
        if self.var is not None:
            return f"${self.var}"
        return '"%s"' % self.literal

    def __reduce__(self):
        return (ref, (self.var,)) if self.var is not None else (lit, (self.literal,))


# positional-only, so that each value has one cache key
@lru_cache(maxsize=1 << 16)
def ref(var: str, /) -> ValueRef:
    return ValueRef(var=var)


@lru_cache(maxsize=1 << 16)
def lit(value: str, /) -> ValueRef:
    return ValueRef(literal=value)


class EntitySpan(NamedTuple):
    surface: str
    var_id: str
    entity_type: str | None
    start: int
    end: int


class UserUtterance(NamedTuple):
    """One user line. `spans` are in text order, which is also the order of
    the turn's entity-inform acts."""

    text: str
    spans: tuple[EntitySpan, ...] = ()
    acts: tuple[DialogAct, ...] = ()


class ApiCall(NamedTuple):
    api: str
    bindings: dict[str, ValueRef]
    return_var: str

    def __str__(self) -> str:
        args = ",".join(f"{name}={valref}" for name, valref in self.bindings.items())
        return f"{self.api}({args}) -> {self.return_var}"


class NlgResponse(NamedTuple):
    text: str
    acts: tuple[DialogAct, ...] = ()


Turn = UserUtterance | ApiCall | NlgResponse


@dataclass
class Dialog:
    turns: list[Turn] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)


class VarAllocator:
    """Dialog-scoped `<prefix><counter>` var ids, one counter per prefix."""

    def __init__(self):
        self._counters: dict[str, int] = {}

    def new(self, type_name: str) -> str:
        prefix = var_prefix(type_name)
        n = self._counters.get(prefix, 0)
        self._counters[prefix] = n + 1
        return f"{prefix}{n}"


_TURN_RE = re.compile(r"^([US])-(\d+):\s?(.*)$")
_SPAN_RE = re.compile(rf"\[([^\[\]|]+)\|({NAME})\]")
_CALL_RE = re.compile(rf"^call:\s*({IDENTIFIER})\((.*)\)\s*->\s*({NAME})$")
_VAR_REF_RE = re.compile(rf"^\$({NAME})$")
_META_RE = re.compile(r"^#\s*([A-Za-z_][A-Za-z0-9_.-]*)\s*=\s*(.*)$")
# a var id's type prefix: the shortest NAME before the trailing counter
_PREFIX_RE = re.compile(rf"^({NAME}?)\d+$")


def _split_acts_suffix(text: str) -> tuple[str, str | None]:
    if " |acts: " in text:
        body, suffix = text.rsplit(" |acts: ", 1)
        return body, suffix
    return text, None


def _suffix_acts(suffix: str | None, side: str, line_no: int) -> tuple[DialogAct, ...]:
    if suffix is None:
        return ()
    try:
        acts = parse_act_list(suffix, side)
    except ActError as e:
        raise MarkupError(str(e), line_no) from None
    if not acts:
        # `serialize_dialog` writes no suffix for a turn without acts
        raise MarkupError("an |acts: suffix holds no act", line_no)
    return acts


def _parse_user_text(raw: str, line_no: int, bundle: SchemaBundle | None) -> UserUtterance:
    """With a bundle, a span whose var prefix names an entity type is typed
    by it; other spans are left for `_link` to type by the call that
    consumes them."""
    body, acts_suffix = _split_acts_suffix(raw)
    text_parts: list[str] = []
    spans: list[EntitySpan] = []
    pos = 0
    out_len = 0
    for m in _SPAN_RE.finditer(body):
        text_parts.append(body[pos : m.start()])
        out_len += m.start() - pos
        surface, var_id = m.group(1), m.group(2)
        declared = None
        if bundle is not None:
            prefix = _PREFIX_RE.match(var_id)
            declared = bundle.entity_type_for_prefix(prefix.group(1)) if prefix else None
        entity_type = declared.name if declared is not None else None
        spans.append(EntitySpan(surface, var_id, entity_type, out_len, out_len + len(surface)))
        text_parts.append(surface)
        out_len += len(surface)
        pos = m.end()
    text_parts.append(body[pos:])
    text = "".join(text_parts)
    if "[" in text or "]" in text:
        raise MarkupError(f"malformed entity span in {body!r}", line_no)
    return UserUtterance(text, tuple(spans), _suffix_acts(acts_suffix, USER, line_no))


def _parse_valref(token: str, line_no: int) -> ValueRef:
    token = token.strip()
    m = _VAR_REF_RE.match(token)
    if m:
        return ref(m.group(1))
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        inner = token[1:-1]
        if '"' in inner:
            raise MarkupError(f"literal {token!r} contains an embedded quote", line_no)
        return lit(inner)
    raise MarkupError(f"expected $var or quoted literal, got {token!r}", line_no)


def _parse_call(raw: str, line_no: int) -> ApiCall:
    m = _CALL_RE.match(raw)
    if m is None:
        raise MarkupError(f"malformed api call {raw!r}", line_no)
    api, arg_text, return_var = m.group(1), m.group(2).strip(), m.group(3)
    bindings: dict[str, ValueRef] = {}
    if arg_text:
        for part in arg_text.split(","):
            if "=" not in part:
                raise MarkupError(f"malformed call argument {part!r}", line_no)
            name, value = part.split("=", 1)
            name = name.strip()
            if name in bindings:
                raise MarkupError(f"argument {name!r} bound twice", line_no)
            bindings[name] = _parse_valref(value, line_no)
    return ApiCall(api=api, bindings=bindings, return_var=return_var)


def _parse_turn(side: str, body: str, line_no: int, bundle: SchemaBundle | None) -> Turn:
    if side == "U":
        return _parse_user_text(body, line_no, bundle)
    if body.startswith("call:"):
        return _parse_call(body, line_no)
    if body.startswith("nlg:"):
        # serialize_dialog writes `nlg: <text>`; the text may itself start
        # with whitespace, or be empty
        text, acts_suffix = _split_acts_suffix(body.removeprefix("nlg:").removeprefix(" "))
        return NlgResponse(text=text, acts=_suffix_acts(acts_suffix, SYSTEM, line_no))
    raise MarkupError(f"system turn must be 'call:' or 'nlg:', got {body!r}", line_no)


def _parse_dialog_lines(
    numbered: list[tuple[int, str]],
    bundle: SchemaBundle | None,
    lines: dict[str, tuple],
    bodies: dict[str, tuple],
    linked: set[tuple],
    facts: dict[object, tuple],
) -> Dialog:
    """The dialog of one block, read through the caller's memos (see the
    module docstring): `lines` maps a whole line to its entry, `bodies` a
    turn line's side letter plus body to the entry of its first line,
    `linked` holds the link keys of the dialogs that linked unchanged, and
    `facts` maps a link part to its link facts."""
    metadata: dict[str, str] = {}
    turns: list[Turn] = []
    parts: list[object] = []
    for line_no, line in numbered:
        hit = lines.get(line)
        if hit is None:
            if line.startswith("#"):
                hit = _meta(line, lines)
            else:
                hit = lines[line] = _turn_entry(line, line_no, len(turns) + 1, bundle, bodies)
        if len(hit) == 3:
            index, turn, part = hit
            if index != len(turns) + 1:
                raise _out_of_order(index, len(turns) + 1, line_no)
            turns.append(turn)
            parts.append(part)
        elif hit:
            metadata[hit[0]] = hit[1]
    if not turns:
        raise MarkupError("dialog has no turns", numbered[0][0] if numbered else None)
    if not isinstance(turns[0], UserUtterance):
        raise MarkupError("first turn must be user-side", numbered[0][0])
    if bundle is not None:
        key = tuple(parts)
        if key not in linked and _link(turns, parts, bundle, facts, numbered):
            linked.add(key)
    return Dialog(turns=turns, metadata=metadata)


def _meta(line: str, lines: dict[str, tuple]) -> tuple[str, ...]:
    """A `#` line's `(key, value)` pair, or `()` for a comment line."""
    hit = lines.get(line)
    if hit is None:
        m = _META_RE.match(line)
        hit = lines[line] = m.groups() if m else ()
    return hit


def _turn_entry(
    line: str, line_no: int, expected: int, bundle: SchemaBundle | None, bodies: dict[str, tuple]
) -> tuple[int, Turn, object]:
    """A turn line's turn number, its turn and the turn's link part. The
    checks run in the order the line is read, so a line with two faults
    names the first."""
    m = _TURN_RE.match(line)
    if m is None:
        raise MarkupError(f"not a turn line: {line!r}", line_no)
    side, number, body = m.groups()
    try:
        index = int(number)
    except ValueError:  # more digits than `int` reads: far from the expected index
        message = f"turn index of {len(number)} digits out of order (expected {expected})"
        raise MarkupError(message, line_no) from None
    if index != expected:
        raise _out_of_order(index, expected, line_no)
    entry = bodies.get(side + body)
    if entry is None:
        turn = _parse_turn(side, body, line_no, bundle)
        entry = bodies[side + body] = (index, turn, _link_part(turn))
    return entry if entry[0] == index else (index, entry[1], entry[2])


def _out_of_order(index: int, expected: int, line_no: int) -> MarkupError:
    return MarkupError(f"turn index {index} out of order (expected {expected})", line_no)


def _link_part(turn: Turn) -> object:
    """What `_link` reads of a turn, and the key of its link facts: a user
    turn's `var_id:entity_type` per span (`var_id:` when untyped; both are
    `NAME`s), as one string, which the collector does not track; a call's
    identity, which the body memo keeps alive; and nothing of an nlg line."""
    if isinstance(turn, UserUtterance):
        return " ".join([f"{s.var_id}:{s.entity_type or ''}" for s in turn.spans])
    return id(turn) if isinstance(turn, ApiCall) else None


# the needs of an unfit turn: one that no dialog meets, as no var id is empty
_UNFIT = (("", ""),)


def _link_facts(turn: UserUtterance | ApiCall, bundle: SchemaBundle) -> tuple:
    """A user turn's or a call's link facts: the `(var, type)` pairs it
    needs bound, in binding order, and those it introduces, as `(needs,
    intros)`. An unfit turn needs `_UNFIT`, so that `_link` takes its slow
    branch there: a call with an unknown API or arg or a literal of an
    object kind, or a user turn with a span untyped (introduced with type
    `None`) or of an object kind."""
    if isinstance(turn, UserUtterance):
        intros = tuple([(span.var_id, span.entity_type) for span in turn.spans])
        for _, type_name in intros:
            if type_name is None or _object_kind(bundle, type_name):
                return _UNFIT, intros
        return (), intros
    api = bundle.api(turn.api)
    if api is None:
        return _UNFIT, ()
    needs = []
    for arg_name, valref in turn.bindings.items():
        spec = api.arg(arg_name)
        if spec is None or (valref.var is None and _object_kind(bundle, spec.entity_type)):
            return _UNFIT, ()
        if valref.var is not None:
            needs.append((valref.var, spec.entity_type))
    return tuple(needs), ((turn.return_var, api.return_type),)


def _link(
    turns: list[Turn],
    parts: list[object],
    bundle: SchemaBundle,
    facts: dict[object, tuple],
    numbered: list[tuple[int, str]],
) -> bool:
    """Resolve the var references of the dialog of `turns`, whose link parts
    are `parts`, and check every span's type; whether it linked unchanged.
    `facts` maps each link part met before to its link facts. A dialog that
    took the slow branch and did not raise holds a span that is untyped, of
    an object kind or typed by its call, so its spans are checked once the
    walk ends, and an error in a later call comes first. The spans are cut
    from the text in order, so they need no order or surface check. An
    error names the line of its turn in `numbered`, the dialog's block."""
    types: dict[str, str | None] = {}
    unchanged = True
    for n, part in enumerate(parts, start=1):
        if part is None:  # an nlg line, which linking does not read
            continue
        fact = facts.get(part)
        if fact is None:
            fact = facts[part] = _link_facts(turns[n - 1], bundle)
        needs, intros = fact
        for var, type_name in needs:
            if types.get(var) != type_name:
                unchanged = False
                _link_slow(turns, n, types, bundle, numbered)
                break
        for var, type_name in intros:
            if var in types:
                raise _at_turn(numbered, n, f"var {var!r} reintroduced in turn {n}")
            types[var] = type_name
    if unchanged:
        return True
    # by now a span is typed by its var prefix or by the call that consumed it
    for n, turn in enumerate(turns, start=1):
        if not isinstance(turn, UserUtterance):
            continue
        for span in turn.spans:
            if span.entity_type is None:
                message = f"cannot infer entity type for span var {span.var_id!r} in turn {n}"
                raise _at_turn(numbered, n, message)
            if _object_kind(bundle, span.entity_type):
                raise _user_value_error(numbered, n, span.entity_type)
    return False


def _link_slow(
    turns: list[Turn],
    n: int,
    types: dict[str, str | None],
    bundle: SchemaBundle,
    numbered: list[tuple[int, str]],
) -> None:
    """`_link`'s slow branch at turn `n`, whose facts do not hold on
    `types`, the vars bound before it (`None` for an untyped span). A call
    raises its first error in binding order, or types each untyped span it
    consumes, in a copy of the span's turn that replaces it in this dialog
    only. A user turn's spans are checked after the walk."""
    call = turns[n - 1]
    if isinstance(call, UserUtterance):
        return
    api = bundle.api(call.api)
    if api is None:
        raise _at_turn(numbered, n, f"unknown API {call.api!r} in turn {n}")
    for arg_name, valref in call.bindings.items():
        spec = api.arg(arg_name)
        if spec is None:
            raise _at_turn(numbered, n, f"API {call.api} has no argument {arg_name!r} in turn {n}")
        var, type_name = valref.var, spec.entity_type
        if var is None:
            if _object_kind(bundle, type_name):
                raise _user_value_error(numbered, n, type_name)
        elif var not in types:
            raise _at_turn(numbered, n, f"unresolved reference ${var} in turn {n}")
        elif types[var] is None:
            types[var] = type_name
            for at, user in enumerate(turns):
                if isinstance(user, UserUtterance) and any(s.var_id == var for s in user.spans):
                    turns[at] = user._replace(spans=tuple(
                        s._replace(entity_type=type_name) if s.var_id == var else s
                        for s in user.spans
                    ))
                    break
        elif types[var] != type_name:
            raise _at_turn(numbered, n, f"${var} is a {types[var]} but "
                           f"{call.api}.{arg_name} takes {type_name}")


def _object_kind(bundle: SchemaBundle, type_name: str) -> bool:
    et = bundle.entity_type(type_name)
    return et is not None and et.kind == OBJECT


def _user_value_error(numbered: list[tuple[int, str]], n: int, type_name: str) -> MarkupError:
    """A user value, span or call literal, of an object-kind type: golden
    sampling redraws a user value from its type's catalog, and an
    object-kind type has none."""
    message = f"object-kind type {type_name!r} cannot appear as a user value (turn {n})"
    return _at_turn(numbered, n, message)


def _at_turn(numbered: list[tuple[int, str]], n: int, message: str) -> MarkupError:
    """`message` at the line of turn `n` of a block whose other lines are `#` lines."""
    return MarkupError(message, [no for no, line in numbered if not line.startswith("#")][n - 1])


def parse_dialog(text: str, bundle: SchemaBundle | None = None) -> Dialog:
    numbered = [
        (no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()
    ]
    return _parse_dialog_lines(numbered, bundle, {}, {}, set(), {})


def parse_corpus(text: str, bundle: SchemaBundle | None = None) -> list[Dialog]:
    """Dialogs are separated by blank lines. A block made only of `#` lines
    that are not `key=value` metadata is a comment, not a dialog."""
    dialogs = []
    lines: dict[str, tuple] = {}
    bodies: dict[str, tuple] = {}
    linked: set[tuple] = set()
    facts: dict[object, tuple] = {}
    block: list[tuple[int, str]] = []
    # the closing "" ends the last block
    for no, line in enumerate([*text.splitlines(), ""], start=1):
        if line.strip():
            block.append((no, line))
        elif block:
            if not all(row.startswith("#") and not _meta(row, lines) for _, row in block):
                dialogs.append(_parse_dialog_lines(block, bundle, lines, bodies, linked, facts))
            block = []
    return dialogs


def load_corpus(path, bundle: SchemaBundle | None = None) -> list[Dialog]:
    return parse_corpus(read_input(path, MarkupError), bundle)


def _line_body(p: Turn) -> str:
    """A turn's line after its `U-<n>: ` or `S-<n>: ` head."""
    if isinstance(p, UserUtterance):
        text, spans, acts = p
        parts = []
        pos = 0
        for surface, var_id, _, start, end in spans:
            parts.append(text[pos:start])
            parts.append(f"[{surface}|{var_id}]")
            pos = end
        parts.append(text[pos:])
        body = "".join(parts)
    elif isinstance(p, ApiCall):
        return f"call: {p}"
    else:
        body, acts = f"nlg: {p.text}", p.acts
    return f"{body} |acts: {turn_acts_string(acts)}" if acts else body


def _serialize(dialog: Dialog, bodies: dict[int, str]) -> str:
    """`dialog`'s block; `bodies` maps the id of each turn serialized
    before, which the caller keeps alive, to its line body."""
    lines = [f"# {k}={v}" for k, v in dialog.metadata.items()]
    for n, p in enumerate(dialog.turns, start=1):
        body = bodies.get(id(p))
        if body is None:
            body = bodies[id(p)] = _line_body(p)
        lines.append(f"{'U' if isinstance(p, UserUtterance) else 'S'}-{n}: {body}")
    return "\n".join(lines)


def serialize_dialog(dialog: Dialog) -> str:
    return _serialize(dialog, {})


def serialize_corpus(dialogs: list[Dialog]) -> str:
    bodies: dict[int, str] = {}
    return "\n\n".join([_serialize(d, bodies) for d in dialogs]) + "\n"


def annotate_seed_acts(dialog: Dialog, bundle: SchemaBundle) -> Dialog:
    """A new dialog whose seed turns without an explicit `|acts:` gain acts.
    `dialog` is left untouched; the new one shares its other turns and metadata.

    User turns: each API call is attributed to the latest user turn before
    it (inform(intent)); each span informs the argument that consumes it.
    A trailing span-free user turn that triggers nothing is a bye(). System
    nlg turns directly after a call get the API's response-template acts; a
    final nlg line closing the dialog gets bye(). A user or nlg turn that
    none of these rules gives acts raises `MarkupError`.
    """
    consuming: dict[str, tuple[str, str]] = {}
    trigger: dict[int, list[ApiCall]] = {}  # user turn position -> the calls it triggers
    last_user = -1
    for pos, p in enumerate(dialog.turns):
        if isinstance(p, UserUtterance):
            last_user = pos
        elif isinstance(p, ApiCall):
            if last_user >= 0:
                trigger.setdefault(last_user, []).append(p)
            for arg_name, valref in p.bindings.items():
                if valref.var is not None and valref.var not in consuming:
                    consuming[valref.var] = (p.api, arg_name)

    turns = list(dialog.turns)
    for pos, p in enumerate(dialog.turns):
        if isinstance(p, ApiCall) or p.acts:
            continue
        acts: list[DialogAct] | tuple[DialogAct, ...] = []
        if isinstance(p, UserUtterance):
            for call in trigger.get(pos, []):
                acts.append(make_act("inform", USER, intent=call.api))
            for span in p.spans:
                api, arg = consuming.get(span.var_id, (None, None))
                acts.append(make_act("inform", USER, entity=span.entity_type, api=api, arg=arg))
            if not acts and pos == last_user:
                acts.append(make_act("bye", USER))
            rules = "triggers no call, holds no span"
        else:
            prev = dialog.turns[pos - 1] if pos > 0 else None
            if isinstance(prev, ApiCall):
                api = bundle.api(prev.api)
                resp = bundle.response(api.response_template) if api else None
                if resp is not None:
                    acts = resp.acts
            elif pos == len(dialog.turns) - 1:
                acts = [make_act("bye", SYSTEM)]
            rules = "follows no call"
        if not acts:
            name = dialog.metadata.get("id", "without an id")
            raise MarkupError(f"seed {name!r} turn {pos + 1}: it has no acts: it {rules} and "
                              "does not end the dialog")
        turns[pos] = p._replace(acts=tuple(acts))
    return replace(dialog, turns=turns)
