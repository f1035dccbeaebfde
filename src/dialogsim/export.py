"""Training-data emission: NER tagging, action prediction, argument filling.

Examples are derived purely from the markup, so a corpus file round-trips
into the same training data. Tokenization is whitespace splitting with
leading/trailing punctuation detached into separate tokens.

Every example of a dialog shares one context: the dialog's turn lines, each
JSON-encoded once, so an example holds only its turn number `k` and sees
the first `k` lines. `TrainingExample.to_json` writes one JSONL line as
`json.dumps` with its defaults would: the keys `kind`, `context`, `input`,
`labels` in that order, `", "` between items, `": "` after keys, and every
string escaped to ASCII by `json.encoder.encode_basestring_ascii`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _encode

from .markup import ApiCall, Dialog, EntitySpan, Turn, UserUtterance
from .nlg import TemplateIndex
from .schema import SchemaBundle

_PUNCT = set(".,!?;:\"'()[]")


@dataclass(slots=True)
class _Context:
    """One dialog's context lines, JSON-encoded once and joined with ", ";
    `joined[:cuts[k]]` is the encoding of `lines[:k]`."""

    lines: list[str]
    joined: str
    cuts: list[int]

    @classmethod
    def of(cls, dialog: Dialog) -> _Context:
        lines = [_turn_line(p) for p in dialog.turns]
        encoded = [_encode(line) for line in lines]
        cuts = [0, *(end - 2 for end in accumulate(len(e) + 2 for e in encoded))]
        return cls(lines, ", ".join(encoded), cuts)


@dataclass(slots=True)
class TrainingExample:
    kind: str  # "ner" | "action_prediction" | "argument_filling"
    input: list[str] | str
    labels: list[str] | str | dict[str, str]
    shared: _Context = field(repr=False)
    k: int  # the example sees the first k context lines

    @property
    def context(self) -> list[str]:
        return self.shared.lines[: self.k]

    def to_json(self) -> str:
        context = self.shared.joined[: self.shared.cuts[self.k]]
        return (
            f'{{"kind": {_encode(self.kind)}, "context": [{context}], '
            f'"input": {_json(self.input)}, "labels": {_json(self.labels)}}}'
        )


def _json(value: str | list[str] | dict[str, str]) -> str:
    if isinstance(value, str):
        return _encode(value)
    if isinstance(value, list):
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
        if word[0] not in _PUNCT and word[-1] not in _PUNCT:
            tokens.append((word, start, end))
            continue
        last = end
        while start < last - 1 and text[start] in _PUNCT:
            tokens.append((text[start], start, start + 1))
            start += 1
        trailing = []
        while last - 1 > start and text[last - 1] in _PUNCT:
            trailing.append((text[last - 1], last - 1, last))
            last -= 1
        tokens.append((text[start:last], start, last))
        tokens.extend(reversed(trailing))
    return tuple(tokens)


def iob_tags(text: str, spans: tuple[EntitySpan, ...]) -> tuple[list[str], list[str]]:
    """(tokens, tags) with B-/I-<entity type> marking span tokens."""
    tokens = tokenize(text)
    tags = ["O"] * len(tokens)
    for span in spans:
        inside = False
        for k, (_, start, end) in enumerate(tokens):
            if start >= span.start and end <= span.end:
                tags[k] = ("I-" if inside else "B-") + (span.entity_type or "value")
                inside = True
    return [t[0] for t in tokens], tags


def spans_from_tags(text: str, tokens: list[str], tags: list[str]) -> list[tuple[int, int, str]]:
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


def _turn_line(p: Turn) -> str:
    if isinstance(p, UserUtterance):
        return f"U: {p.text}"
    if isinstance(p, ApiCall):
        return f"S: call: {p}"
    return f"S: nlg: {p.text}"


def export_training(
    corpus: list[Dialog], bundle: SchemaBundle | None, index: TemplateIndex
) -> dict[str, list[TrainingExample]]:
    """NER examples for user turns. AP examples for each system action that
    names a schema API or response template; backoff-rendered turns (canned
    offers, requests without a schema response) have no action vocabulary
    entry and are skipped. AF examples map each API call's arg names to the
    in-context var ids they were filled from. `bundle` is not read."""
    examples = {"ner": [], "action_prediction": [], "argument_filling": []}
    ner, ap, af = examples.values()
    for dialog in corpus:
        shared = _Context.of(dialog)
        for k, p in enumerate(dialog.turns):
            if isinstance(p, UserUtterance):
                tokens, tags = iob_tags(p.text, p.spans)
                ner.append(TrainingExample("ner", tokens, tags, shared, k))
                continue
            if isinstance(p, ApiCall):
                name = p.api
                labels = {a: v.var for a, v in p.bindings.items() if v.var is not None}
                af.append(TrainingExample("argument_filling", p.api, labels, shared, k))
            elif p.acts:
                resp = index.response(p.acts)
                name = resp.name if resp is not None else None
            else:
                name = None
            if name is not None:
                previous = shared.lines[k - 1] if k else ""
                ap.append(TrainingExample("action_prediction", previous, name, shared, k))
    return examples

