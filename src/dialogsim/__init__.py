"""Schema-driven goal-oriented dialog simulator.

Given a domain schema and a handful of annotated seed dialogs, generates
large fully-annotated dialog corpora via goal sampling and heuristic
user/system self-play, and measures the dialog-flow variation of the
output.
"""

import logging

from .acts import DialogAct, act_to_string, sequence_string, turn_acts_string
from .engine import BatchResult, GenerationConfig, run_batch, run_dialog
from .goals import (
    IntentInstance,
    MarkovGoalModel,
    ReturnRef,
    UserGoal,
    UserValue,
    extract_goals,
    fit_markov,
    sample_golden,
    sample_markov,
    validate_goal,
)
from .markup import (
    Dialog,
    parse_corpus,
    parse_dialog,
    serialize_corpus,
    serialize_dialog,
)
from .metrics import VariationReport, entropy, turn_stats, unique_sequences, variation_report
from .schema import SchemaBundle, load_schema, loads_schema, serialize_schema, validate_schema

# a library logs to no stream unless its application configures one
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BatchResult",
    "Dialog",
    "DialogAct",
    "GenerationConfig",
    "IntentInstance",
    "MarkovGoalModel",
    "ReturnRef",
    "SchemaBundle",
    "UserGoal",
    "UserValue",
    "VariationReport",
    "act_to_string",
    "entropy",
    "extract_goals",
    "fit_markov",
    "load_schema",
    "loads_schema",
    "parse_corpus",
    "parse_dialog",
    "run_batch",
    "run_dialog",
    "sample_golden",
    "sample_markov",
    "sequence_string",
    "serialize_corpus",
    "serialize_dialog",
    "serialize_schema",
    "turn_acts_string",
    "turn_stats",
    "unique_sequences",
    "validate_goal",
    "validate_schema",
    "variation_report",
]
