"""Training-data emission: NER tagging, action prediction, argument filling.

Examples are derived purely from the markup, so a corpus file round-trips
into the same training data. Tokenization is whitespace splitting with
leading/trailing punctuation detached into separate tokens.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .acts import turn_acts_string
from .markup import ApiCall, Dialog, EntitySpan, NlgResponse, Turn, UserUtterance
from .nlg import TemplateIndex
from .schema import SchemaBundle

_PUNCT = set(".,!?;:\"'()[]")
_WORD_RE = re.compile(r"\S+")  # `\s` is the same test as str.isspace


@dataclass
class Token:
    text: str
    start: int
    end: int


@dataclass(slots=True)
class TrainingExample:
    kind: str  # "ner" | "action_prediction" | "argument_filling"
    context: list[str]
    input: list[str] | str
    labels: list[str] | str | dict[str, str]

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "context": self.context, "input": self.input, "labels": self.labels}
        )


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for word in _WORD_RE.finditer(text):
        start, end = word.span()
        while start < end - 1 and text[start] in _PUNCT:
            tokens.append(Token(text[start], start, start + 1))
            start += 1
        trailing: list[Token] = []
        while end - 1 > start and text[end - 1] in _PUNCT:
            trailing.append(Token(text[end - 1], end - 1, end))
            end -= 1
        tokens.append(Token(text[start:end], start, end))
        tokens.extend(reversed(trailing))
    return tokens


def iob_tags(text: str, spans: list[EntitySpan]) -> tuple[list[str], list[str]]:
    """(tokens, tags) with B-/I-<entity type> marking span tokens."""
    tokens = tokenize(text)
    tags = ["O"] * len(tokens)
    for span in spans:
        inside = False
        for k, tok in enumerate(tokens):
            if tok.start >= span.start and tok.end <= span.end:
                tags[k] = ("I-" if inside else "B-") + (span.entity_type or "value")
                inside = True
    return [t.text for t in tokens], tags


def spans_from_tags(text: str, tokens: list[str], tags: list[str]) -> list[tuple[int, int, str]]:
    """Invert iob_tags: contiguous B/I runs back to (start, end, type)."""
    positions = tokenize(text)
    out = []
    current: tuple[int, int, str] | None = None
    for tok, tag in zip(positions, tags):
        if tag.startswith("B-"):
            if current:
                out.append(current)
            current = (tok.start, tok.end, tag[2:])
        elif tag.startswith("I-") and current is not None:
            current = (current[0], tok.end, current[2])
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
        args = ",".join(f"{a}={v}" for a, v in p.bindings.items())
        return f"S: call: {p.api}({args}) -> {p.return_var}"
    return f"S: nlg: {p.text}"


def _context_lines(dialog: Dialog) -> list[str]:
    """One context line per turn; turn k's examples see lines[:k]."""
    return [_turn_line(p) for p in dialog.turns]


def ner_examples(dialog: Dialog, lines: list[str] | None = None) -> list[TrainingExample]:
    lines = _context_lines(dialog) if lines is None else lines
    out = []
    for k, p in enumerate(dialog.turns):
        if isinstance(p, UserUtterance):
            tokens, tags = iob_tags(p.text, p.spans)
            out.append(TrainingExample(kind="ner", context=lines[:k], input=tokens, labels=tags))
    return out


def _action_name(p: Turn, index: TemplateIndex) -> str | None:
    if isinstance(p, ApiCall):
        return p.api
    if isinstance(p, NlgResponse) and p.acts:
        return index.response_by_signature.get(turn_acts_string(p.acts))
    return None


def ap_examples(
    dialog: Dialog, index: TemplateIndex, lines: list[str] | None = None
) -> list[TrainingExample]:
    """One example per system action that names a schema API or response
    template; backoff-rendered turns (canned offers, requests without a
    schema response) have no action vocabulary entry and are skipped."""
    lines = _context_lines(dialog) if lines is None else lines
    out = []
    for k, p in enumerate(dialog.turns):
        name = _action_name(p, index)
        if name is not None:
            out.append(
                TrainingExample(
                    kind="action_prediction",
                    context=lines[:k],
                    input=lines[k - 1] if k else "",
                    labels=name,
                )
            )
    return out


def af_examples(dialog: Dialog, lines: list[str] | None = None) -> list[TrainingExample]:
    """Argument sources for each API call: arg name -> in-context var id."""
    lines = _context_lines(dialog) if lines is None else lines
    out = []
    for k, p in enumerate(dialog.turns):
        if isinstance(p, ApiCall):
            labels = {
                arg: valref.var for arg, valref in p.bindings.items() if valref.var is not None
            }
            out.append(
                TrainingExample(
                    kind="argument_filling", context=lines[:k], input=p.api, labels=labels
                )
            )
    return out


def export_training(
    corpus: list[Dialog], bundle: SchemaBundle, index: TemplateIndex
) -> dict[str, list[TrainingExample]]:
    examples = {"ner": [], "action_prediction": [], "argument_filling": []}
    for dialog in corpus:
        lines = _context_lines(dialog)
        examples["ner"].extend(ner_examples(dialog, lines))
        examples["action_prediction"].extend(ap_examples(dialog, index, lines))
        examples["argument_filling"].extend(af_examples(dialog, lines))
    return examples
