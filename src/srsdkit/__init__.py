"""Benchmark toolkit for symbolic regression on physics-law datasets.

Expressions, skeletons, distributions, variable specs, ``GPConfig`` and the
distance and leakage results are immutable and may be shared across threads.
``ProblemSpec``, ``Dataset`` and ``synthgen.BigramModel`` are mutable, and
``expr.Memo`` and ``evalkit.FitnessRows`` are caches that each call given one
updates: give each thread its own. Dataset generation derives one independent
RNG stream per problem, so per-problem work parallelizes without changing a
single output byte.

Every refusal of input is an ``errors.DataError`` (a ``ValueError``); an
argument value refused before a file is read or made is its subclass
``errors.ArgumentError``. Both are exported here.
"""

from .expr import (
    Expression,
    canonicalize,
    count_ops,
    evaluate_many,
    parse,
    skeletonize,
)
from .treedist import distance_result, edit_distance, normalized_edit_distance
from .errors import ArgumentError, DataError
from .catalog import ProblemSpec, builtin_problems, load_builtin, load_file
from .datagen import Dataset, derive_seed, inject_noise, sample, split
from .evalkit import (
    is_symbolic_solution,
    r_squared,
    select_best,
    summarize,
)
from .gp import GPConfig, evolve
from .synthgen import assign_ranges, domain_iou, leakage_report, sample_equation, train_bigram

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "DataError",
    "Dataset",
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
    "train_bigram",
]
