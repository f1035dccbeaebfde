"""Training-data emission: NER tagging, action prediction, argument filling.

Examples are derived purely from the markup, so a corpus file round-trips
into the same training data. Tokenization is whitespace splitting with
leading/trailing punctuation detached into separate tokens.

`export_training` works out what a turn gives its examples once per call
and turn object (`parse_corpus` hands every occurrence of a line one turn,
and a `run_batch` batch, serial or pooled, holds one object per distinct
turn): its context line and that line's JSON, its example's input, labels
and their JSON, and its AP label. Examples of one turn share its token and
tag tuples and its AF labels dict, which nothing writes. Every example of a
dialog shares one context, the dialog's turn lines and their JSON joined,
so an example holds only its turn number `k` and sees the first `k` lines.
`TrainingExample.to_json` writes one JSONL line as `json.dumps` with its
defaults would: the keys `kind`, `context`, `input`, `labels` in that
order, `", "` between items, `": "` after keys, and every string escaped
to ASCII by `json.encoder.encode_basestring_ascii`.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _encode

from .markup import ApiCall, Dialog, EntitySpan, Turn, UserUtterance
from .nlg import TemplateIndex
from .schema import PUNCT, SchemaBundle

Strings = tuple[str, ...]


@dataclass(slots=True)
class _Context:
    """One dialog's context lines and their JSON encodings joined with
    ", "; `joined[:cuts[k]]` is the encoding of `lines[:k]`."""

    lines: list[str]
    joined: str
    cuts: list[int]


@dataclass(slots=True)
class TrainingExample:
    kind: str  # "ner" | "action_prediction" | "argument_filling"
    input: Strings | str
    labels: Strings | str | dict[str, str]
    io_json: str = field(repr=False)  # '"input": ..., "labels": ...'
    shared: _Context = field(repr=False)
    k: int  # the example sees the first k context lines

    @property
    def context(self) -> list[str]:
        return self.shared.lines[: self.k]

    def to_json(self) -> str:
        context = self.shared.joined[: self.shared.cuts[self.k]]
        return f'{{"kind": {_encode(self.kind)}, "context": [{context}], {self.io_json}}}'


def _json(value: Strings | dict[str, str]) -> str:
    if isinstance(value, tuple):
        return "[%s]" % ", ".join(map(_encode, value))
    return "{%s}" % ", ".join(f"{_encode(a)}: {_encode(v)}" for a, v in value.items())


# A corpus repeats a few distinct user texts (1,305 among 6,209 user turns
# of 1,000 self-play dialogs); each is tokenized once.
@lru_cache(maxsize=1 << 14)
def tokenize(text: str) -> tuple[tuple[str, int, int], ...]:
    """(token text, start, end) per token. Every call with the same text
    returns the same tuple."""
    tokens: list[tuple[str, int, int]] = []
    end = 0
    for word in text.split():  # splits where str.isspace is true
        start = text.find(word, end)  # only whitespace lies between
        end = start + len(word)
        if word[0] not in PUNCT and word[-1] not in PUNCT:
            tokens.append((word, start, end))
            continue
        last = end
        while start < last - 1 and text[start] in PUNCT:
            tokens.append((text[start], start, start + 1))
            start += 1
        trailing = []
        while last - 1 > start and text[last - 1] in PUNCT:
            trailing.append((text[last - 1], last - 1, last))
            last -= 1
        tokens.append((text[start:last], start, last))
        tokens.extend(reversed(trailing))
    return tuple(tokens)


def iob_tags(text: str, spans: tuple[EntitySpan, ...]) -> tuple[Strings, Strings]:
    """(tokens, tags) with B-/I-<entity type> marking the tokens that lie
    within a span. `spans` are in text order and do not overlap, as a user
    turn's are, so one pass over the tokens meets them in order."""
    tokens = tokenize(text)
    n = len(tokens)
    tags = ["O"] * n
    k = 0
    for span in spans:
        while k < n and tokens[k][1] < span.start:
            k += 1
        kind = span.entity_type or "value"
        tag = "B-" + kind
        # token ends rise with their starts, so the tokens within the span
        # are the run from k whose ends lie within it
        while k < n and tokens[k][2] <= span.end:
            tags[k] = tag
            tag = "I-" + kind
            k += 1
    return tuple([t[0] for t in tokens]), tuple(tags)


def spans_from_tags(text: str, tokens: Strings, tags: Strings) -> list[tuple[int, int, str]]:
    """Invert iob_tags: contiguous B/I runs back to (start, end, type)."""
    out = []
    current: tuple[int, int, str] | None = None
    for (_, start, end), tag in zip(tokenize(text), tags):
        if tag.startswith("B-"):
            if current:
                out.append(current)
            current = (start, end, tag[2:])
        elif tag.startswith("I-") and current is not None:
            current = (current[0], end, current[2])
        else:
            if current:
                out.append(current)
            current = None
    if current:
        out.append(current)
    return out


def _row(p: Turn, index: TemplateIndex) -> tuple:
    """(p, its context line, the line's JSON, its NER or AF example's fields
    but `shared` and `k`, its AP label, the label's JSON)."""
    if isinstance(p, UserUtterance):
        line, name = f"U: {p.text}", None
        tokens, tags = iob_tags(p.text, p.spans)
        io_json = f'"input": {_json(tokens)}, "labels": {_json(tags)}'
        example = ("ner", tokens, tags, io_json)
    elif isinstance(p, ApiCall):
        line, name = f"S: call: {p}", p.api
        labels = {a: v.var for a, v in p.bindings.items() if v.var is not None}
        io_json = f'"input": {_encode(p.api)}, "labels": {_json(labels)}'
        example = ("argument_filling", p.api, labels, io_json)
    else:
        line, example = f"S: nlg: {p.text}", None
        resp = index.response(p.acts) if p.acts else None
        name = resp.name if resp is not None else None
    return p, line, _encode(line), example, name, None if name is None else _encode(name)


def export_training(
    corpus: Iterable[Dialog], bundle: SchemaBundle | None, index: TemplateIndex
) -> dict[str, list[TrainingExample]]:
    """NER examples for user turns. AP examples for each system action that
    names a schema API or response template; backoff-rendered turns (canned
    offers, requests without a schema response) have no action vocabulary
    entry and are skipped. AF examples map each API call's arg names to the
    in-context var ids they were filled from. `bundle` is not read."""
    examples = {"ner": [], "action_prediction": [], "argument_filling": []}
    ap = examples["action_prediction"]
    # id(turn) -> _row(turn), made at the turn's first occurrence. A row holds
    # its turn, so no id in a live key is reused, even when `corpus` is a
    # generator that drops each dialog after use.
    rows: dict[int, tuple] = {}
    for dialog in corpus:
        shared = _Context([], "", [])
        lines, encoded = shared.lines, []
        previous, previous_json = "", '""'
        for k, p in enumerate(dialog.turns):
            row = rows.get(id(p))
            if row is None:
                row = rows[id(p)] = _row(p, index)
            _, line, line_json, example, name, name_json = row
            if example is not None:
                examples[example[0]].append(TrainingExample(*example, shared, k))
            if name is not None:
                io_json = f'"input": {previous_json}, "labels": {name_json}'
                ap.append(TrainingExample("action_prediction", previous, name, io_json, shared, k))
            lines.append(line)
            encoded.append(line_json)
            previous, previous_json = line, line_json
        shared.joined = ", ".join(encoded)
        shared.cuts = [0, *(end - 2 for end in accumulate(len(e) + 2 for e in encoded))]
    return examples
