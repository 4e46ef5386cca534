"""Problem catalog: 120 physics-law regression problems with sampling specs.

Each problem declares its formula and, per variable, a sampling distribution
(uniform, log-uniform, or a fixed physical-constant value), a value class
(float, integer, or a wide integer stored as float), and a sign constraint.
The built-in catalog ships as JSON files bundled with the package, split into
the easy/medium/hard sets (30/40/50 problems); the same JSON schema is the
on-disk problem-spec format for user-supplied catalogs.

Dataset columns are the sampled variables in declaration order; fixed-value
variables are physical constants, folded into the formula and never sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

from ..expr import Expression, ParseError, canonicalize, count_ops, parse, skeletonize

BUILTIN_SETS = ("easy", "medium", "hard")

DIST_KINDS = ("uniform", "loguniform", "fixed")
VALUE_CLASSES = ("float", "integer", "wide_integer")
SIGNS = ("positive", "negative", "nonnegative", "any")


class CatalogError(ValueError):
    """Unknown problem id or schema violation (message carries the field path)."""


@dataclass(frozen=True)
class Distribution:
    kind: str
    lo: float | None = None
    hi: float | None = None
    value: float | None = None

    @property
    def is_fixed(self) -> bool:
        return self.kind == "fixed"


def uniform(lo: float, hi: float) -> Distribution:
    return Distribution("uniform", lo=float(lo), hi=float(hi))


def loguniform(lo: float, hi: float) -> Distribution:
    return Distribution("loguniform", lo=float(lo), hi=float(hi))


def fixed(value: float) -> Distribution:
    return Distribution("fixed", value=float(value))


@dataclass(frozen=True)
class VariableSpec:
    name: str
    dist: Distribution
    value_class: str = "float"
    sign: str = "any"


@dataclass(eq=False)
class ProblemSpec:
    id: str
    set_name: str
    formula: str
    variables: list[VariableSpec] = field(default_factory=list)

    @property
    def sampled_variables(self) -> list[VariableSpec]:
        return [v for v in self.variables if not v.dist.is_fixed]

    @property
    def constants(self) -> dict[str, float]:
        return {v.name: v.dist.value for v in self.variables if v.dist.is_fixed}

    @property
    def variable_names(self) -> list[str]:
        return [v.name for v in self.sampled_variables]

    @property
    def column_names(self) -> list[str]:
        return self.variable_names + ["target"]

    @cached_property
    def expression(self) -> Expression:
        return parse(self.formula, self.variable_names, self.constants)

    @cached_property
    def canonical_expression(self) -> Expression:
        return canonicalize(self.expression)

    @cached_property
    def skeleton(self) -> tuple[str, ...]:
        return skeletonize(self.canonical_expression)


@dataclass(frozen=True)
class ComplexityScore:
    op_count: int
    domain_range: float | None  # None marks a degenerate sampling domain


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def _expect(obj, key, types, path):
    if key not in obj:
        raise CatalogError(f"{path}.{key}: missing field")
    value = obj[key]
    if not isinstance(value, types):
        raise CatalogError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _dist_from_payload(obj, path) -> Distribution:
    kind = _expect(obj, "kind", str, path)
    if kind not in DIST_KINDS:
        raise CatalogError(f"{path}.kind: unknown distribution {kind!r}")
    if kind == "fixed":
        return fixed(_expect(obj, "value", (int, float), path))
    lo = float(_expect(obj, "lo", (int, float), path))
    hi = float(_expect(obj, "hi", (int, float), path))
    if not (lo < hi):
        raise CatalogError(f"{path}: requires lo < hi, got [{lo}, {hi}]")
    if kind == "loguniform" and lo <= 0:
        raise CatalogError(f"{path}: loguniform magnitudes need lo > 0, got {lo}")
    return Distribution(kind, lo=lo, hi=hi)


def _variable_from_payload(obj, path) -> VariableSpec:
    name = _expect(obj, "name", str, path)
    dist = _dist_from_payload(_expect(obj, "dist", dict, path), f"{path}.dist")
    value_class = _expect(obj, "class", str, path)
    if value_class not in VALUE_CLASSES:
        raise CatalogError(f"{path}.class: unknown value class {value_class!r}")
    sign = _expect(obj, "sign", str, path)
    if sign not in SIGNS:
        raise CatalogError(f"{path}.sign: unknown sign {sign!r}")
    return VariableSpec(name=name, dist=dist, value_class=value_class, sign=sign)


def problem_from_payload(obj, path="problem") -> ProblemSpec:
    pid = _expect(obj, "id", str, path)
    set_name = _expect(obj, "set", str, path)
    formula = _expect(obj, "formula", str, path)
    raw_vars = _expect(obj, "variables", list, path)
    variables = [
        _variable_from_payload(v, f"{path}.variables[{i}]") for i, v in enumerate(raw_vars)
    ]
    flags = [v.dist.is_fixed for v in variables]
    if any(earlier and not later for earlier, later in zip(flags, flags[1:])):
        raise CatalogError(f"{path}.variables: sampled variables must precede constants")
    spec = ProblemSpec(id=pid, set_name=set_name, formula=formula, variables=variables)
    try:
        spec.expression
    except ParseError as err:
        raise CatalogError(f"{path}.formula: {err}") from None
    return spec


def problem_to_payload(spec: ProblemSpec) -> dict:
    def dist_payload(d: Distribution) -> dict:
        if d.is_fixed:
            return {"kind": "fixed", "value": d.value}
        return {"kind": d.kind, "lo": d.lo, "hi": d.hi}

    return {
        "id": spec.id,
        "set": spec.set_name,
        "formula": spec.formula,
        "variables": [
            {"name": v.name, "dist": dist_payload(v.dist), "class": v.value_class, "sign": v.sign}
            for v in spec.variables
        ],
    }


def dumps(specs: list[ProblemSpec]) -> str:
    """Canonical spec-file text: one JSON array, two-space indent."""
    return json.dumps([problem_to_payload(s) for s in specs], indent=2) + "\n"


def save(specs: list[ProblemSpec], path) -> None:
    Path(path).write_text(dumps(specs), encoding="utf-8")


def loads(text: str, source="<string>") -> list[ProblemSpec]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise CatalogError(f"{source}: not valid JSON: {err}") from None
    if not isinstance(payload, list):
        raise CatalogError(f"{source}: expected one array of problems")
    return [problem_from_payload(obj, f"{source}[{i}]") for i, obj in enumerate(payload)]


def load_file(path) -> list[ProblemSpec]:
    """The specs of a catalog JSON file; a file that is not UTF-8 raises
    ``CatalogError`` in the words of ``datagen.read_text``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise CatalogError(f"{path}: not UTF-8 text ({err.reason} at byte offset {err.start})") from None
    return loads(text, source=str(path))


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

_builtin_cache: dict[str, list[ProblemSpec]] = {}


def builtin_problems(set_name: str | None = None) -> list[ProblemSpec]:
    """The bundled problems, one set or all three in easy/medium/hard order."""
    if set_name is None:
        out = []
        for name in BUILTIN_SETS:
            out.extend(builtin_problems(name))
        return out
    if set_name not in BUILTIN_SETS:
        raise CatalogError(f"unknown problem set {set_name!r}")
    if set_name not in _builtin_cache:
        text = resources.files(__package__).joinpath(f"data/{set_name}.json").read_text("utf-8")
        _builtin_cache[set_name] = loads(text, source=f"builtin:{set_name}")
    return list(_builtin_cache[set_name])


def load_builtin(problem_id: str) -> ProblemSpec:
    for spec in builtin_problems():
        if spec.id == problem_id:
            return spec
    raise CatalogError(f"unknown problem id {problem_id!r}")


# ---------------------------------------------------------------------------
# Complexity
# ---------------------------------------------------------------------------

def domain_range(spec: ProblemSpec) -> float | None:
    """Order-of-magnitude spread of all ranged sampling endpoints.

    Collects every lo/hi endpoint over the sampled (non-fixed) variables and
    returns ``|log10 |max - min||``; None flags the degenerate case where all
    endpoints coincide. Fixed physical constants are excluded: including
    them would collapse every problem onto the constant spread.
    """
    endpoints: list[float] = []
    for v in spec.sampled_variables:
        if v.dist.kind in ("uniform", "loguniform"):
            endpoints.extend((v.dist.lo, v.dist.hi))
    if not endpoints:
        raise CatalogError(f"{spec.id}: no ranged variable to take a domain range over")
    spread = max(endpoints) - min(endpoints)
    if spread == 0.0:
        return None
    return abs(math.log10(abs(spread)))


def complexity(spec: ProblemSpec) -> ComplexityScore:
    return ComplexityScore(
        op_count=count_ops(spec.canonical_expression),
        domain_range=domain_range(spec),
    )


def emit_scatter(specs: list[ProblemSpec]) -> list[tuple[str, int, float | None, str]]:
    """Rows (id, op_count, domain_range, set) for external plotting."""
    rows = []
    for spec in specs:
        score = complexity(spec)
        rows.append((spec.id, score.op_count, score.domain_range, spec.set_name))
    return rows
