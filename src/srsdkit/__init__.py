"""Benchmark toolkit for symbolic regression on physics-law datasets.

Everything is built from pure functions over immutable values (expressions,
skeletons, problem specs), so any object can be shared freely across
threads; dataset generation derives one independent RNG stream per problem,
so per-problem work parallelizes without changing a single output byte.
"""

from .expr import (
    Expression,
    canonicalize,
    count_ops,
    evaluate,
    evaluate_many,
    parse,
    skeletonize,
    to_infix,
)
from .treedist import distance_result, edit_distance, normalized_edit_distance
from .catalog import ProblemSpec, builtin_problems, load_builtin, load_file
from .datagen import Dataset, derive_seed, inject_noise, sample, split
from .evalkit import (
    EvalReport,
    is_symbolic_solution,
    r_squared,
    select_best,
    summarize,
)
from .gp import GPConfig, evolve
from .synthgen import assign_ranges, domain_iou, leakage_report, sample_equation, train_bigram

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvalReport",
    "Expression",
    "GPConfig",
    "ProblemSpec",
    "assign_ranges",
    "builtin_problems",
    "canonicalize",
    "count_ops",
    "derive_seed",
    "distance_result",
    "domain_iou",
    "edit_distance",
    "evaluate",
    "evaluate_many",
    "evolve",
    "inject_noise",
    "is_symbolic_solution",
    "leakage_report",
    "load_builtin",
    "load_file",
    "normalized_edit_distance",
    "parse",
    "r_squared",
    "sample",
    "sample_equation",
    "select_best",
    "skeletonize",
    "split",
    "summarize",
    "to_infix",
    "train_bigram",
]
