"""User goals: extraction from seeds, validity checking, and the two
goal samplers (golden resampling and the first-order Markov chain)."""
from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from random import Random

from .acts import END
from .markup import ApiCall, Dialog, EntitySpan, UserUtterance
from .schema import BUILTIN, Diagnostic, SchemaBundle, read_json

log = logging.getLogger(__name__)


class SamplerError(RuntimeError):
    pass


@dataclass(frozen=True)
class UserValue:
    surface: str
    entity_type: str


@dataclass(frozen=True)
class ReturnRef:
    intent_index: int


Binding = UserValue | ReturnRef


@dataclass
class IntentInstance:
    api: str
    bindings: dict[str, Binding] = field(default_factory=dict)


@dataclass
class UserGoal:
    intents: list[IntentInstance]
    source_seed: str | None = None

    def structure(self) -> tuple:
        """Binding structure with UserValue surfaces stripped; two goals with
        equal structures differ only in user-provided values."""
        out = []
        for intent in self.intents:
            shape = []
            for arg, b in intent.bindings.items():
                shape.append((arg, b.intent_index if isinstance(b, ReturnRef) else "user"))
            out.append((intent.api, tuple(shape)))
        return tuple(out)


@dataclass
class ArgStats:
    occurrences: int = 0
    bound: int = 0
    returns: int = 0


@dataclass
class MarkovGoalModel:
    start: dict[str, float]
    transition: dict[str, dict[str, float]]  # row api -> {api or END: prob}
    binding_stats: dict[str, dict[str, ArgStats]]  # api -> arg -> stats

    def to_json(self) -> str:
        doc = {
            "start": self.start,
            "transition": self.transition,
            "binding_stats": {
                api: {arg: asdict(st) for arg, st in args.items()}
                for api, args in self.binding_stats.items()
            },
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MarkovGoalModel":
        doc = read_json(text, lambda message: SamplerError(f"goal model: {message}"))
        try:
            stats = {
                api: {
                    arg: ArgStats(raw["occurrences"], raw["bound"], raw["returns"])
                    for arg, raw in args.items()
                }
                for api, args in doc["binding_stats"].items()
            }
            start = dict(doc["start"])
            transition = {api: dict(row) for api, row in doc["transition"].items()}
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise SamplerError(f"malformed goal model: {e!r}") from None
        return cls(start=start, transition=transition, binding_stats=stats)

    def check(self, bundle: SchemaBundle) -> None:
        """Raise SamplerError unless sample_markov can walk this model over
        `bundle`: every API it names is defined, every draw has usable
        weights, and every count it divides is consistent."""
        if END in self.start:
            raise SamplerError(f"goal model: 'start' names {END!r}, which begins no intent")
        named = {*self.start, *self.binding_stats, *self.transition}
        named.update(*self.transition.values())
        unknown = sorted(api for api in named - {END} if bundle.api(api) is None)
        if unknown:
            raise SamplerError(f"goal model names APIs the schema does not define: {unknown}")
        # an empty transition row ends the chain; every other draw needs a weight
        bad = [] if usable_weights(self.start) else ["start"]
        bad += [
            f"transition[{api!r}]"
            for api, row in self.transition.items()
            if row and not usable_weights(row)
        ]
        if bad:
            raise SamplerError(f"goal model has no usable weights in {', '.join(bad)}")
        # sample_markov divides these counts: bound by occurrences, returns by bound
        for api, args in self.binding_stats.items():
            for arg, st in args.items():
                ints = all(type(c) is int for c in (st.returns, st.bound, st.occurrences))
                if not (ints and 0 <= st.returns <= st.bound <= st.occurrences):
                    raise SamplerError(
                        f"goal model binding_stats[{api!r}][{arg!r}] needs integer counts "
                        "with 0 <= returns <= bound <= occurrences"
                    )


def extract_goals(seeds: list[Dialog], bundle: SchemaBundle) -> list[UserGoal]:
    """One goal per seed: its API call sequence with ReturnRef bindings
    wherever a call consumed an earlier call's return value."""
    goals = []
    for i, seed in enumerate(seeds):
        name = seed.metadata.get("id", str(i))
        calls = [t for t in seed.turns if isinstance(t, ApiCall)]
        if not calls:
            log.warning("seed %r has no API calls; skipped", name)
            continue
        surfaces: dict[str, EntitySpan] = {}
        for turn in seed.turns:
            if isinstance(turn, UserUtterance):
                for span in turn.spans:
                    surfaces[span.var_id] = span
        return_of = {c.return_var: idx for idx, c in enumerate(calls)}
        intents = []
        for idx, call in enumerate(calls):
            api = bundle.api(call.api)
            bindings: dict[str, Binding] = {}
            for arg_name, valref in call.bindings.items():
                spec = api.arg(arg_name)
                if valref.literal is not None:
                    bindings[arg_name] = UserValue(valref.literal, spec.entity_type)
                elif valref.var in return_of and return_of[valref.var] < idx:
                    bindings[arg_name] = ReturnRef(return_of[valref.var])
                elif valref.var in surfaces:
                    span = surfaces[valref.var]
                    bindings[arg_name] = UserValue(span.surface, span.entity_type)
                else:
                    raise SamplerError(
                        f"seed {name!r}: cannot resolve binding {call.api}.{arg_name}=${valref.var}"
                    )
            intents.append(IntentInstance(api=call.api, bindings=bindings))
        goals.append(UserGoal(intents=intents, source_seed=name))
    return goals


def validate_goal(goal: UserGoal, bundle: SchemaBundle) -> list[Diagnostic]:
    """Empty iff required args are bound, ReturnRefs point backward at a
    type-matching return, and cross-domain sharing uses builtin types only."""
    diags = []

    def err(loc, msg):
        diags.append(Diagnostic(loc, msg))

    if not goal.intents:
        err("goal", "goal has no intents")
        return diags
    for i, intent in enumerate(goal.intents):
        api = bundle.api(intent.api)
        loc = f"intent {i} ({intent.api})"
        if api is None:
            err(loc, "unknown API")
            continue
        for spec in api.args:
            if spec.required and spec.name not in intent.bindings:
                err(loc, f"required arg {spec.name!r} is not bound")
        for arg_name, binding in intent.bindings.items():
            spec = api.arg(arg_name)
            if spec is None:
                err(loc, f"no such arg {arg_name!r}")
                continue
            if isinstance(binding, ReturnRef):
                if not 0 <= binding.intent_index < i:
                    err(loc, f"arg {arg_name!r} references a non-earlier intent")
                    continue
                source = bundle.api(goal.intents[binding.intent_index].api)
                if source.return_type != spec.entity_type:
                    err(
                        loc,
                        f"arg {arg_name!r} takes {spec.entity_type} but intent "
                        f"{binding.intent_index} returns {source.return_type}",
                    )
                elif source.domain != api.domain:
                    et = bundle.entity_type(spec.entity_type)
                    if et is None or et.kind != BUILTIN:
                        err(
                            loc,
                            f"cross-domain sharing of non-builtin type "
                            f"{spec.entity_type!r} (from {source.domain} to {api.domain})",
                        )
            else:
                if binding.entity_type != spec.entity_type:
                    err(
                        loc,
                        f"arg {arg_name!r} takes {spec.entity_type}, "
                        f"got {binding.entity_type}",
                    )
    return diags


def _sample_catalog(bundle: SchemaBundle, type_name: str, rng: Random) -> str:
    catalog = bundle.catalog(type_name)
    if not catalog:
        raise SamplerError(f"entity type {type_name!r} has no catalog to sample from")
    return catalog[rng.randrange(len(catalog))]


def sample_golden(goals: list[UserGoal], bundle: SchemaBundle, rng: Random) -> UserGoal:
    """Uniform (with replacement) seed-goal structure, user values re-drawn
    from the catalogs."""
    if not goals:
        raise SamplerError("no extracted goals to sample from")
    source = goals[rng.randrange(len(goals))]
    intents = []
    for intent in source.intents:
        bindings: dict[str, Binding] = {}
        for arg_name, binding in intent.bindings.items():
            if isinstance(binding, ReturnRef):
                bindings[arg_name] = binding
            else:
                bindings[arg_name] = UserValue(
                    _sample_catalog(bundle, binding.entity_type, rng), binding.entity_type
                )
        intents.append(IntentInstance(api=intent.api, bindings=bindings))
    return UserGoal(intents=intents, source_seed=source.source_seed)


def fit_markov(goals: list[UserGoal]) -> MarkovGoalModel:
    """Maximum-likelihood first-order chain over intent sequences, plus
    per-(api, arg) binding counts. No smoothing: unobserved transitions
    stay at probability zero."""
    if not goals:
        raise SamplerError("cannot fit a goal model from zero goals")
    start_counts: dict[str, int] = {}
    trans_counts: dict[str, dict[str, int]] = {}
    stats: dict[str, dict[str, ArgStats]] = {}
    # args observed bound anywhere, so unbound occurrences count correctly
    for goal in goals:
        for intent in goal.intents:
            arg_stats = stats.setdefault(intent.api, {})
            for arg_name in intent.bindings:
                arg_stats.setdefault(arg_name, ArgStats())
    for goal in goals:
        seq = [intent.api for intent in goal.intents]
        if any(api == END for api in seq):
            raise SamplerError(f"API name {END!r} collides with the terminal state")
        start_counts[seq[0]] = start_counts.get(seq[0], 0) + 1
        for a, b in zip(seq, seq[1:] + [END]):
            row = trans_counts.setdefault(a, {})
            row[b] = row.get(b, 0) + 1
        for intent in goal.intents:
            for arg_name, st in stats[intent.api].items():
                st.occurrences += 1
                binding = intent.bindings.get(arg_name)
                if binding is None:
                    continue
                st.bound += 1
                if isinstance(binding, ReturnRef):
                    st.returns += 1
    n = len(goals)
    start = {api: c / n for api, c in start_counts.items()}
    transition = {
        api: {b: c / sum(row.values()) for b, c in row.items()}
        for api, row in trans_counts.items()
    }
    return MarkovGoalModel(start=start, transition=transition, binding_stats=stats)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def usable_weights(dist: dict) -> bool:
    """True if weighted_choice can draw from `dist`: its weights are numbers
    that convert to finite non-negative floats, with a positive finite total."""
    if not all(map(is_number, dist.values())):
        return False
    try:
        weights = [float(w) for w in dist.values()]
    except OverflowError:  # an integer too large for a float
        return False
    return all(0 <= w < math.inf for w in weights) and 0 < sum(weights) < math.inf


def weighted_choice(rng: Random, dist: dict[str, float]) -> str:
    """One key of `dist`, drawn with probability proportional to its weight."""
    return rng.choices(list(dist), weights=list(dist.values()))[0]


def sample_markov(
    model: MarkovGoalModel,
    bundle: SchemaBundle,
    rng: Random,
    max_len: int = 8,
    max_attempts: int = 100,
) -> UserGoal:
    """Walk the fitted chain until END or max_len, then draw each argument's
    binding variant from the fitted counts. A ReturnRef is only kept when a
    type-compatible earlier intent exists (most recent wins); otherwise the
    arg falls back to a catalog value, or stays unbound if optional.
    Rejection-sampled against validate_goal."""
    if max_len < 1:
        raise SamplerError("max_len must be >= 1")
    for _ in range(max_attempts):
        seq = [weighted_choice(rng, model.start)]
        while len(seq) < max_len:
            row = model.transition.get(seq[-1])
            if not row:
                break
            step = weighted_choice(rng, row)
            if step == END:
                break
            seq.append(step)
        intents: list[IntentInstance] = []
        ok = True
        for i, api_name in enumerate(seq):
            api = bundle.api(api_name)
            arg_stats = model.binding_stats.get(api_name, {})
            bindings: dict[str, Binding] = {}
            for spec in api.args:
                st = arg_stats.get(spec.name)
                if st is None or st.occurrences == 0:
                    bind = spec.required
                    want_return = False
                else:
                    bind = spec.required or rng.random() < st.bound / st.occurrences
                    want_return = bool(st.bound) and rng.random() < st.returns / st.bound
                if not bind:
                    continue
                binding: Binding | None = None
                if want_return:
                    compatible = [
                        j
                        for j in range(i)
                        if bundle.api(intents[j].api).return_type == spec.entity_type
                    ]
                    if compatible:
                        binding = ReturnRef(compatible[-1])
                if binding is None:
                    catalog = bundle.catalog(spec.entity_type)
                    if catalog:
                        binding = UserValue(
                            catalog[rng.randrange(len(catalog))], spec.entity_type
                        )
                    elif not spec.required:
                        continue
                    else:
                        ok = False
                        break
                bindings[spec.name] = binding
            if not ok:
                break
            intents.append(IntentInstance(api=api_name, bindings=bindings))
        if ok:
            goal = UserGoal(intents=intents)
            if not validate_goal(goal, bundle):
                return goal
    raise SamplerError(f"no valid goal found in {max_attempts} attempts")
