"""Interplay loop and batch generation.

run_dialog drives one user/system exchange to completion; run_batch
extracts goals and templates from the seeds once, then generates n
dialogs, each on its own deterministic random substream so batches can be
parallelized (or re-run) without changing a single byte of output.

A base (replay) dialog is played from its seed's replay plan, which the
batch builds at the seed's first replay and keeps in its `BatchContext`.
Everything in a replay that the random stream does not decide is fixed by
the seed: its var ids, its calls, its nlg lines without a response
template, the text of each template of an arg-less response, and the
lookups of catalogs, APIs and response definitions. The plan holds them
once. Per dialog a replay makes only its draws, in turn order, and its
joins.

A batch holds one object per distinct turn, shared where it is made, in
self-play and replay alike: every turn comes from the batch's turn memo,
which its `TemplateIndex` keeps. User turns come from `nlg.realize_user`,
calls from `TemplateIndex.call_turn`, one per (api, bindings, return var),
and nlg lines from `TemplateIndex.nlg_turn`, one per (text, act ids). In
serial and pooled batches alike, `markup.serialize_corpus` writes each
turn's line body once, and the export's row memo meets each once. No
generation code builds a turn past the memo: only `markup`'s parser and
those three call a turn's constructor.

With `workers` > 1, this process is one of the batch's workers: it forks
the others (`run_batch` gives the count), and they and it share the
batch's chunks of `CHUNK` dialogs through one claim counter. A worker
claims the chunk at the front of the unclaimed ones when it is ready to
start it, and this process claims the one at the back. Each worker sends
its chunks over its own pipe, and this process receives whatever is ready
after each chunk it makes. A worker sends each distinct turn it makes
once, and its dialogs as positions in the turns it has sent; this process
maps each turn it receives through `TemplateIndex.share` to the batch's
one object for its value, whichever process made that value first (see
`run_batch`).
"""
from __future__ import annotations

import hashlib
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from multiprocessing.connection import Connection, wait
from multiprocessing.sharedctypes import SynchronizedArray
from random import Random
from typing import NamedTuple

from .acts import DialogAct
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
    Turn,
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
    response_text,
)
from .schema import ResponseTemplateDef, SchemaBundle, draw_from, read_json
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
    return _play_goal(goal, bundle, config, rng, index, offer_model, metadata)


def _play_goal(
    goal: UserGoal,
    bundle: SchemaBundle,
    config: GenerationConfig,
    rng: Random,
    index: TemplateIndex,
    offer_model: MarkovGoalModel | None,
    metadata: dict[str, str] | None,
) -> tuple[Dialog, dict[str, int]]:
    """`run_dialog` on a goal that `validate_goal` accepts."""
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
        user_turn = realize_user(uout.acts, uout.values, index, rng, alloc)
        turns.append(user_turn)
        if len(turns) >= config.max_turns:
            break
        view = next_system_turn(system, uout.acts, user_turn.spans, bundle, config, rng, alloc)
        for plan in view.nlg:
            call = plan.result
            if call is not None and call.ok:
                bindings = {a: ref(v) for a, v in call.bindings.items()}
                turns.append(index.call_turn(call.api, bindings, call.return_var))
            resp, args = plan.response, plan.arg_values
            if resp is None:  # a policy act group: its own values fill a matching response
                resp = index.response(plan.acts)
                args = fill_response_args(resp, plan.acts, plan.backoff_values) if resp else None
            if args is None:
                text = realize_system_backoff(plan.acts, plan.backoff_values)
            else:
                text = realize_response(resp, args, rng)
            turns.append(index.nlg_turn(text, plan.acts))
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


# where a replayed value comes from: a draw from the catalog or, when it
# is empty, the fallback (see `_draw`)
Sources = tuple[tuple[tuple[str, ...], str], ...]


class _UserStep(NamedTuple):
    """A replayed user turn: its acts, one source per seed span, whose
    fallback is the span's surface, and its spans' var ids."""

    acts: tuple[DialogAct, ...]
    sources: Sources
    var_ids: tuple[str, ...]


class _ResponseStep(NamedTuple):
    """A replayed response with args: its acts, its definition, and its
    arg names, each with a source whose fallback is the name."""

    acts: tuple[DialogAct, ...]
    defn: ResponseTemplateDef
    names: tuple[str, ...]
    sources: Sources


def _draw(sources: Sources, rng: Random) -> list[str]:
    values = []
    for catalog, fallback in sources:
        value = draw_from(catalog, rng)
        values.append(fallback if value is None else value)
    return values


# a replay plan step: a turn that takes no draw (a call, or an nlg line
# without a response template), one turn per template of an arg-less
# response, or a step that draws values
Step = ApiCall | NlgResponse | tuple[NlgResponse, ...] | _UserStep | _ResponseStep


def replay_plan(seed: Dialog, bundle: SchemaBundle, index: TemplateIndex) -> tuple[Step, ...]:
    """What every replay of `seed` shares. A replay allocates its var ids
    in one order for a seed, so each span and call gets the same var id in
    every replay, and every call is one shared turn; so is every nlg line
    without a response template (the seed line's value), and each template
    of an arg-less response. The response definitions, the APIs and the
    catalogs are looked up here once."""
    alloc = VarAllocator()
    var_map: dict[str, str] = {}
    steps: list[Step] = []
    for p in seed.turns:
        if isinstance(p, UserUtterance):
            types = index.user_plan(p.acts, len(p.spans)).types
            var_ids = tuple([alloc.new(t) for t in types])
            var_map.update(zip([span.var_id for span in p.spans], var_ids))
            # each span var is introduced exactly once, so values need no
            # cross-turn consistency map
            sources = tuple([(bundle.catalog(s.entity_type), s.surface) for s in p.spans])
            steps.append(_UserStep(p.acts, sources, var_ids))
        elif isinstance(p, ApiCall):
            new_ret = alloc.new(bundle.api(p.api).return_type)
            bindings = {
                arg: valref if valref.var is None else ref(var_map[valref.var])
                for arg, valref in p.bindings.items()
            }
            var_map[p.return_var] = new_ret
            steps.append(index.call_turn(p.api, bindings, new_ret))
        elif (resp := index.response(p.acts)) is None:
            steps.append(index.nlg_turn(p.text, p.acts))
        elif not resp.args:
            steps.append(tuple([index.nlg_turn(response_text(resp, k, {}), p.acts)
                                for k in range(len(resp.split))]))
        else:
            names = tuple([a.name for a in resp.args])
            sources = tuple([(bundle.catalog(a.entity_type), a.name) for a in resp.args])
            steps.append(_ResponseStep(p.acts, resp, names, sources))
    return tuple(steps)


def run_base_dialog(
    plan: tuple[Step, ...],
    index: TemplateIndex,
    rng: Random,
    metadata: dict[str, str] | None = None,
) -> Dialog:
    """Replay one seed from its `replay_plan`: same calls, same acts, with
    user values resampled from catalogs and surface templates re-drawn.
    Only the draws, in turn order, and the joins are made per dialog."""
    turns: list[Turn] = []
    for step in plan:
        kind = type(step)
        if kind is _UserStep:
            turns.append(realize_user(step.acts, _draw(step.sources, rng), index, rng,
                                      step.var_ids))
        elif kind is _ResponseStep:
            args = dict(zip(step.names, _draw(step.sources, rng)))
            turns.append(index.nlg_turn(realize_response(step.defn, args, rng), step.acts))
        elif kind is tuple:
            turns.append(step[rng.randrange(len(step))])
        else:
            turns.append(step)
    return Dialog(turns, dict(metadata or {}))


@dataclass
class BatchContext:
    bundle: SchemaBundle
    seeds: list[Dialog]
    goals: list[UserGoal]
    model: MarkovGoalModel | None
    index: TemplateIndex
    config: GenerationConfig
    # each seed's replay plan, keyed by its position in `seeds` and built at
    # its first replay: building them all here would cost every batch that
    # replays few seeds, or none
    plans: dict[int, tuple[Step, ...]] = field(default_factory=dict, repr=False, compare=False)

    def replay_plan(self, pick: int) -> tuple[Step, ...]:
        plan = self.plans.get(pick)
        if plan is None:
            plan = self.plans[pick] = replay_plan(self.seeds[pick], self.bundle, self.index)
        return plan


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
        return run_base_dialog(ctx.replay_plan(pick), ctx.index, rng, metadata), {}
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
    # both samplers return valid goals: a Markov draw is validated before it
    # is accepted, and a golden goal is a validated seed goal with its values
    # redrawn from their catalogs
    return _play_goal(goal, ctx.bundle, ctx.config, rng, ctx.index, ctx.model, metadata)


def _generate(ctx: BatchContext, task: range, stats: Counter[str]) -> list[Dialog]:
    """The dialogs of `task`, in order, each one's run stats added to
    `stats`."""
    dialogs = []
    for i in task:
        dialog, dialog_stats = generate_one(ctx, i)
        stats[dialog.metadata["sampler"]] += 1
        stats.update(dialog_stats)
        dialogs.append(dialog)
    return dialogs


# dialogs per chunk of a pooled batch. A process claims one chunk at a
# time, when it is ready to start it, so after the claims meet no process
# waits longer than another takes to finish one chunk
CHUNK = 64

# a pooled dialog as its worker sends it: the positions of its turns in the
# turns that worker has sent, and its metadata
Row = tuple[list[int], dict[str, str]]


def _claim(claims: SynchronizedArray, back: bool) -> int | None:
    """Takes the lowest unclaimed chunk, or with `back` the highest, for the
    caller. `claims` holds [front, back]: the chunks from front up to, but
    not including, back are unclaimed. None once the claims have met."""
    with claims.get_lock():
        front, end = claims[0], claims[1]
        if front >= end:
            return None
        if back:
            claims[1] = end - 1
            return end - 1
        claims[0] = front + 1
        return front


def _close_claims(claims: SynchronizedArray) -> None:
    """No chunk can be claimed after this."""
    with claims.get_lock():
        claims[0] = claims[1]


def _pool_worker(ctx: BatchContext, tasks: list[range], claims: SynchronizedArray,
                 writer: Connection, inherited: tuple[Connection, ...] = ()) -> None:
    """A pool worker's loop. It claims chunks from the front, each when it
    is ready to start it, and sends `writer` each one as (chunk number, the
    turns it had not sent before, in first-use order, one row per dialog,
    the chunk's run stats), or as (chunk number, error). After an error no
    later chunk counts, so it closes the claims and stops. Closing `writer`
    ends its messages.
    `inherited` are the pool's read ends that the fork copied into this
    worker; closing them leaves each pipe's parent its only reader, so a
    pipe the parent has closed breaks instead of filling."""
    for reader in inherited:
        reader.close()
    # the turns this worker has sent, in order, and the position of each by
    # its id. The list keeps every sent turn alive, so no id in a live key
    # is reused
    sent: list[Turn] = []
    sent_at: dict[int, int] = {}
    try:
        while (k := _claim(claims, back=False)) is not None:
            start = len(sent)
            rows: list[Row] = []
            stats: Counter[str] = Counter()
            try:
                dialogs = _generate(ctx, tasks[k], stats)
            except Exception as e:
                _close_claims(claims)
                writer.send((k, e))
                return
            for dialog in dialogs:
                positions = []
                for turn in dialog.turns:
                    at = sent_at.setdefault(id(turn), len(sent))
                    if at == len(sent):
                        sent.append(turn)
                    positions.append(at)
                rows.append((positions, dialog.metadata))
            writer.send((k, sent[start:], rows, stats))
    except BrokenPipeError:
        pass  # the parent has stopped reading: the batch is lost
    finally:
        writer.close()


def _pool_parent(
    ctx: BatchContext, tasks: list[range], claims: SynchronizedArray, readers: list[Connection],
    stats: Counter[str],
) -> list[Dialog]:
    """This process's part of a pooled batch. It claims chunks from the
    back and generates them, and after each one receives every message
    that is ready on `readers`, one per worker. Once the claims meet, it
    waits for the rest, until each reader is at its end. Each received
    turn is entered in its reader's table through `TemplateIndex.share`.
    Each chunk's run stats are added to `stats`, as this process makes the
    chunk or receives it. Returns every dialog in order, or raises the
    error of the lowest chunk that failed or that never came (its worker
    stopped)."""
    done: dict[int, list[Dialog] | Exception] = {}
    tables: dict[Connection, list[Turn]] = {reader: [] for reader in readers}

    def receive(ready: list[Connection]) -> None:
        for reader in ready:
            try:
                message = reader.recv()
            except EOFError:
                del tables[reader]
                continue
            if len(message) == 2:  # (chunk number, error)
                k, error = message
                done[k] = error
                continue
            k, new, rows, chunk_stats = message
            # a worker sends its chunks in order, so a row only points at
            # turns already in the table
            table = tables[reader]
            table += map(ctx.index.share, new)
            done[k] = [Dialog([table[p] for p in positions], metadata)
                       for positions, metadata in rows]
            stats.update(chunk_stats)  # `+` would drop the keys whose count is 0

    while (k := _claim(claims, back=True)) is not None:
        try:
            done[k] = _generate(ctx, tasks[k], stats)
        except Exception as e:  # a lower chunk's error replaces it, as in serial
            done[k] = e
        while ready := wait(list(tables), 0):
            receive(ready)
    while tables:
        receive(wait(list(tables)))
    results = []
    for k, task in enumerate(tasks):
        chunk = done.get(k)
        if chunk is None:
            raise GenerationError("a pool worker stopped before its chunk was done: "
                                  f"dialogs {task.start} to {task.stop - 1}")
        if isinstance(chunk, Exception):
            raise chunk
        results += chunk
    return results


def _usable_cpus() -> int:
    """The CPUs this process may run on; the machine's count where the
    platform cannot tell, and 1 where neither is known."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_pool(
    ctx: BatchContext, tasks: list[range], children: int, stats: Counter[str]
) -> list[Dialog]:
    """Every dialog of `tasks`, in order, generated by this process and
    `children` forked workers (`_pool_parent` and `_pool_worker`), which
    share one claim counter, with their run stats added to `stats`. Each
    worker sends its chunks over its own pipe."""
    fork = multiprocessing.get_context("fork")
    claims = fork.Array("q", [0, len(tasks)])
    readers: list[Connection] = []
    workers = []
    try:
        for _ in range(children):
            reader, writer = fork.Pipe(duplex=False)
            readers.append(reader)
            worker = fork.Process(target=_pool_worker,
                                  args=(ctx, tasks, claims, writer, tuple(readers)))
            worker.start()
            workers.append(worker)
            writer.close()
        return _pool_parent(ctx, tasks, claims, readers, stats)
    finally:
        # on any exit, no worker starts another chunk, and none can block
        # on a full pipe, since its writes break; so each join ends
        _close_claims(claims)
        for reader in readers:
            reader.close()
        for worker in workers:
            worker.join()


def run_batch(
    bundle: SchemaBundle,
    seeds: list[Dialog],
    config: GenerationConfig,
    model: MarkovGoalModel | None = None,
) -> BatchResult:
    """Generate config.n_dialogs dialogs. Output is a pure function of
    (bundle, seeds, config): the worker count never changes the corpus,
    nor the error a failing batch raises, which is the lowest-index one.

    With `workers` k > 1, the batch is cut into chunks of `CHUNK` dialogs
    and this process is one of min(k, chunks, usable CPUs) workers; it
    forks the others. They share one claim counter: each worker claims the
    lowest unclaimed chunk when it is ready to start it, and this process
    the highest, until the claims meet. A worker sends each chunk it makes
    over its own pipe, with each turn it has not sent before once and each
    dialog as the positions of its turns in that worker's sent turns; a
    worker sends its chunks in order, so a dialog only ever points at turns
    this process has already received. After each chunk it makes, this
    process receives every chunk that is ready, and once the claims meet
    it waits for the rest. It keeps one list per worker and puts in it
    `TemplateIndex.share` of each new turn, the batch's one object for its
    value, so a pooled batch holds one object per distinct turn, as a
    serial one does. A worker that stops before its chunk is done is a
    `GenerationError`, unless a lower chunk failed."""
    ctx = prepare_batch(bundle, seeds, config, model)
    n = config.n_dialogs
    tasks = [range(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]
    # a worker beyond the chunks or the CPUs would sit idle, yet be forked;
    # where the platform cannot fork, the batch runs here alone
    children = min(config.workers, len(tasks), _usable_cpus()) - 1
    stats = Counter(dict.fromkeys(RUN_STATS, 0))
    if children > 0 and "fork" in multiprocessing.get_all_start_methods():
        dialogs = _run_pool(ctx, tasks, children, stats)
    else:
        dialogs = _generate(ctx, range(n), stats)
    return BatchResult(dialogs=dialogs, stats=stats)
