"""Interplay loop and batch generation.

run_dialog drives one user/system exchange to completion; run_batch
extracts goals and templates from the seeds once, then generates n
dialogs, each on its own deterministic random substream so batches can be
parallelized (or re-run) without changing a single byte of output.
"""
from __future__ import annotations

import hashlib
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from random import Random

from .goals import (
    MarkovGoalModel,
    UserGoal,
    extract_goals,
    fit_markov,
    is_number,
    sample_golden,
    sample_markov,
    usable_weights,
    validate_goal,
    weighted_choice,
)
from .markup import (
    ApiCall,
    Dialog,
    NlgResponse,
    UserUtterance,
    VarAllocator,
    annotate_seed_acts,
    ref,
)
from .nlg import (
    TemplateIndex,
    build_template_index,
    fill_response_args,
    realize_response,
    realize_system_backoff,
    realize_user,
    sample_response_args,
)
from .schema import SchemaBundle, read_json
from .system_agent import SystemTurnOutput, init_system, next_system_turn
from .user_agent import init_user, next_user_turn

SAMPLERS = ("base", "golden", "markov")
# the keys of a run's statistics: five per self-played dialog, then the
# number of dialogs per sampler
RUN_STATS = ("corrections", "abandonments", "offers_made", "offers_accepted", "truncations",
             *SAMPLERS)


class GenerationError(RuntimeError):
    pass


# the least value of each integer field; None admits any integer
_MINIMUMS = {"n_dialogs": 1, "max_turns": 1, "rng_seed": None, "max_corrections": 0,
             "max_acts_per_turn": 1, "max_len": 1, "max_attempts": 1, "workers": 1}
_PROBABILITIES = ("p_correct", "multi_act_p", "api_failure_rate", "p_offer")


@dataclass
class GenerationConfig:
    n_dialogs: int = 1
    sampler_mix: dict[str, float] = field(
        default_factory=lambda: {"base": 0.0, "golden": 0.4, "markov": 0.6}
    )
    max_turns: int = 40
    rng_seed: int = 0
    p_correct: float = 0.15
    max_corrections: int = 2
    multi_act_p: float = 0.5
    max_acts_per_turn: int = 3
    api_failure_rate: float = 0.05
    p_offer: float = 0.3
    max_len: int = 8
    max_attempts: int = 100
    workers: int = 1

    def validate(self) -> None:
        """Raise GenerationError, naming the field, on the first field of
        the wrong type or out of range."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "sampler_mix":
                want = f"an object of finite, non-negative weights on {SAMPLERS}, summing > 0"
                ok = isinstance(value, dict) and set(value) <= set(SAMPLERS)
                ok = ok and usable_weights(value)
            elif f.name in _PROBABILITIES:
                want = "a number in [0, 1]"
                ok = is_number(value) and 0 <= value <= 1
            else:
                low = _MINIMUMS[f.name]
                want = "an integer" + (f" >= {low}" if low is not None else "")
                ok = type(value) is int and (low is None or value >= low)
            if not ok:
                raise GenerationError(f"config: {f.name!r} must be {want}, got {value!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "GenerationConfig":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise GenerationError(f"config: unknown keys {sorted(unknown)}")
        config = cls(**doc)
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> "GenerationConfig":
        return cls.from_dict(read_json(text, lambda msg: GenerationError(f"config: {msg}")))


@dataclass
class BatchResult:
    dialogs: list[Dialog]
    stats: Counter[str]  # keyed by RUN_STATS


def derive_rng(seed: int, index: int) -> Random:
    """Independent, platform-stable substream for dialog `index`."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


def run_dialog(
    goal: UserGoal,
    bundle: SchemaBundle,
    config: GenerationConfig,
    rng: Random,
    index: TemplateIndex,
    offer_model: MarkovGoalModel | None = None,
    metadata: dict[str, str] | None = None,
) -> tuple[Dialog, dict[str, int]]:
    """Self-play one dialog for a fixed goal. Every emitted turn carries its
    acts; user entity mentions are span-annotated by construction.

    The exchange stops when the system has closed the dialog or the dialog
    holds `config.max_turns` turns, checked after each user turn and each
    system turn. A dialog that stops without a close, or that ran past the
    limit within a system turn, is truncated: it keeps its first
    `max_turns` turns and is marked `truncated`.
    """
    problems = validate_goal(goal, bundle)
    if problems:
        raise GenerationError(f"invalid goal: {problems[0].location}: {problems[0].message}")
    alloc = VarAllocator()
    user = init_user(goal, bundle, rng)
    system = init_system(offer_model)
    dialog = Dialog(metadata=dict(metadata or {}))
    turns = dialog.turns
    view = SystemTurnOutput()
    while not system.closed and len(turns) < config.max_turns:
        uout = next_user_turn(user, view, bundle, config, rng)
        if not uout.acts:
            raise GenerationError("user policy produced an empty turn")
        text, spans = realize_user(uout.acts, uout.values, index, rng, alloc)
        turns.append(UserUtterance(text, spans, uout.acts))
        if len(turns) >= config.max_turns:
            break
        view = next_system_turn(system, uout.acts, spans, bundle, config, rng, alloc)
        for plan in view.nlg:
            call = plan.result
            if call is not None and call.ok:
                bindings = {a: ref(v) for a, v in call.bindings.items()}
                turns.append(ApiCall(call.api, bindings, call.return_var))
            resp, args = plan.response, plan.arg_values
            if resp is None:  # a policy act group: its own values fill a matching response
                resp = index.response(plan.acts)
                args = fill_response_args(resp, plan.acts, plan.backoff_values) if resp else None
            if args is None:
                text = realize_system_backoff(plan.acts, plan.backoff_values)
            else:
                text = realize_response(resp, args, rng)
            turns.append(NlgResponse(text, plan.acts))
    truncated = len(turns) > config.max_turns or not system.closed
    if truncated:
        del turns[config.max_turns :]
        dialog.metadata["truncated"] = "true"
    return dialog, {
        "corrections": len(user.corrected),
        "abandonments": user.abandonments,
        "offers_made": system.offers_made,
        "offers_accepted": system.offers_accepted,
        "truncations": int(truncated),
    }


def run_base_dialog(
    seed: Dialog,
    bundle: SchemaBundle,
    index: TemplateIndex,
    rng: Random,
    metadata: dict[str, str] | None = None,
) -> Dialog:
    """Replay one seed's logical structure: same calls, same acts, with user
    values resampled from catalogs and surface templates re-drawn."""
    alloc = VarAllocator()
    var_map: dict[str, str] = {}
    out = Dialog(metadata=dict(metadata or {}))
    for p in seed.turns:
        if isinstance(p, UserUtterance):
            # each span var is introduced exactly once, so values need no
            # cross-turn consistency map
            surfaces = []
            for span in p.spans:
                value = bundle.draw(span.entity_type, rng)
                surfaces.append(span.surface if value is None else value)
            text, new_spans = realize_user(p.acts, surfaces, index, rng, alloc)
            for old, new in zip(p.spans, new_spans):
                var_map[old.var_id] = new.var_id
            out.turns.append(UserUtterance(text, new_spans, p.acts))
        elif isinstance(p, ApiCall):
            api = bundle.api(p.api)
            new_ret = alloc.new(api.return_type)
            bindings = {}
            for arg, valref in p.bindings.items():
                if valref.var is not None:
                    bindings[arg] = ref(var_map[valref.var])
                else:
                    bindings[arg] = valref
            var_map[p.return_var] = new_ret
            out.turns.append(ApiCall(p.api, bindings, new_ret))
        else:
            resp = index.response(p.acts)
            if resp is not None:
                text = realize_response(resp, sample_response_args(resp, bundle, rng), rng)
            else:
                text = p.text
            out.turns.append(NlgResponse(text, p.acts))
    return out


@dataclass
class BatchContext:
    bundle: SchemaBundle
    seeds: list[Dialog]
    goals: list[UserGoal]
    model: MarkovGoalModel | None
    index: TemplateIndex
    config: GenerationConfig


def prepare_batch(
    bundle: SchemaBundle,
    seeds: list[Dialog],
    config: GenerationConfig,
    model: MarkovGoalModel | None = None,
) -> BatchContext:
    config.validate()
    seeds = [annotate_seed_acts(s, bundle) for s in seeds]
    mix = config.sampler_mix
    needs_goals = mix.get("golden", 0) > 0 or mix.get("markov", 0) > 0
    goals = extract_goals(seeds, bundle)
    if needs_goals and not goals:
        raise GenerationError("golden/markov sampling needs at least one seed with API calls")
    if mix.get("base", 0) > 0 and not seeds:
        raise GenerationError("base sampling needs at least one seed dialog")
    for goal in goals:
        problems = validate_goal(goal, bundle)
        if problems:
            raise GenerationError(f"seed {goal.source_seed!r} yields an invalid goal: "
                                  f"{problems[0].location}: {problems[0].message}")
    if model is not None:
        model.check(bundle)
    elif goals:
        model = fit_markov(goals)
    index = build_template_index(bundle, seeds)
    return BatchContext(
        bundle=bundle, seeds=seeds, goals=goals, model=model, index=index, config=config
    )


def generate_one(ctx: BatchContext, i: int) -> tuple[Dialog, dict[str, int]]:
    rng = derive_rng(ctx.config.rng_seed, i)
    mix = ctx.config.sampler_mix
    sampler = weighted_choice(rng, {s: mix.get(s, 0.0) for s in SAMPLERS})
    metadata = {"sampler": sampler, "dialog": str(i), "rng_seed": str(ctx.config.rng_seed)}
    if sampler == "base":
        pick = rng.randrange(len(ctx.seeds))
        seed = ctx.seeds[pick]
        metadata["source_seed"] = seed.metadata.get("id", str(pick))
        return run_base_dialog(seed, ctx.bundle, ctx.index, rng, metadata), {}
    if sampler == "golden":
        goal = sample_golden(ctx.goals, ctx.bundle, rng)
    else:
        goal = sample_markov(
            ctx.model, ctx.bundle, rng, max_len=ctx.config.max_len,
            max_attempts=ctx.config.max_attempts,
        )
    metadata["goal_len"] = str(len(goal.intents))
    if goal.source_seed is not None:
        metadata["source_seed"] = goal.source_seed
    return run_dialog(
        goal, ctx.bundle, ctx.config, rng, ctx.index, offer_model=ctx.model, metadata=metadata
    )


# dialogs per task sent to a pool worker
CHUNK = 256
_WORKER_CTX: BatchContext | None = None


def _init_worker(ctx: BatchContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_generate(i: int) -> tuple[Dialog, dict[str, int]]:
    return generate_one(_WORKER_CTX, i)


def run_batch(
    bundle: SchemaBundle,
    seeds: list[Dialog],
    config: GenerationConfig,
    model: MarkovGoalModel | None = None,
) -> BatchResult:
    """Generate config.n_dialogs dialogs. Output is a pure function of
    (bundle, seeds, config): the worker count never changes the corpus."""
    ctx = prepare_batch(bundle, seeds, config, model)
    # a worker beyond the chunks of work or the CPUs would sit idle, yet be forked
    chunks = -(-config.n_dialogs // CHUNK)
    workers = min(config.workers, chunks, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            results = list(pool.map(_worker_generate, range(config.n_dialogs), chunksize=CHUNK))
    else:
        results = [generate_one(ctx, i) for i in range(config.n_dialogs)]
    # the per-dialog records stay plain dicts: they cross the process pool,
    # and unpickling a Counter per dialog costs a Python-level __init__
    stats = Counter(dict.fromkeys(RUN_STATS, 0))
    for dialog, dialog_stats in results:
        stats[dialog.metadata["sampler"]] += 1
        stats.update(dialog_stats)
    return BatchResult(dialogs=[dialog for dialog, _ in results], stats=stats)
