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

from ..errors import DataError, decode_json, read_text
from ..expr import Expression, ExpressionError, ParseError, canonicalize, count_ops, parse, skeletonize

BUILTIN_SETS = ("easy", "medium", "hard")

DIST_KINDS = ("uniform", "loguniform", "fixed")
VALUE_CLASSES = ("float", "integer", "wide_integer")
SIGNS = ("positive", "negative", "nonnegative", "any")


class CatalogError(DataError):
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
    """A problem: its variables and its expression. A catalog entry gives a
    ``formula``, parsed once into ``expression``; a synthetic spec gives the
    ``expression`` itself and no formula."""

    id: str
    set_name: str
    formula: str | None
    variables: list[VariableSpec] = field(default_factory=list)
    expression: Expression | None = None

    def __post_init__(self):
        if self.expression is None:
            self.expression = parse(self.formula, self.variable_names, self.constants)

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
    def canonical_expression(self) -> Expression:
        return canonicalize(self.expression)

    @cached_property
    def skeleton(self) -> tuple[str, ...]:
        return skeletonize(self.canonical_expression)


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


def _finite(obj, key, path) -> float:
    """Field ``key`` of ``obj``: a number that is a finite double."""
    value = _expect(obj, key, (int, float), path)
    try:
        value = float(value)
    except OverflowError:  # an integer past the largest double
        value = math.inf
    if not math.isfinite(value):
        raise CatalogError(f"{path}.{key}: must be a finite number, got {value}")
    return value


def _dist_from_payload(obj, path) -> Distribution:
    kind = _expect(obj, "kind", str, path)
    if kind not in DIST_KINDS:
        raise CatalogError(f"{path}.kind: unknown distribution {kind!r}")
    if kind == "fixed":
        return fixed(_finite(obj, "value", path))
    lo = _finite(obj, "lo", path)
    hi = _finite(obj, "hi", path)
    if not (lo < hi):
        raise CatalogError(f"{path}: requires lo < hi, got [{lo}, {hi}]")
    if kind == "loguniform" and lo <= 0:
        raise CatalogError(f"{path}: loguniform magnitudes need lo > 0, got {lo}")
    if kind == "uniform" and not math.isfinite(hi - lo):
        raise CatalogError(f"{path}: uniform width hi - lo overflows, got [{lo}, {hi}]")
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
    """The spec of one catalog entry. Its id names its problem directory, so
    it must be one path component: not empty, ``.`` or ``..``, and without
    ``/`` or ``\\``. Its variable names must differ."""
    pid = _expect(obj, "id", str, path)
    if pid in ("", ".", "..") or "/" in pid or "\\" in pid:
        raise CatalogError(f"{path}.id: must be one path component, got {pid!r}")
    set_name = _expect(obj, "set", str, path)
    formula = _expect(obj, "formula", str, path)
    raw_vars = _expect(obj, "variables", list, path)
    variables = [
        _variable_from_payload(v, f"{path}.variables[{i}]") for i, v in enumerate(raw_vars)
    ]
    names = [v.name for v in variables]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CatalogError(f"{path}.variables[{i}].name: {name!r} names an earlier variable too")
    flags = [v.dist.is_fixed for v in variables]
    if any(earlier and not later for earlier, later in zip(flags, flags[1:])):
        raise CatalogError(f"{path}.variables: sampled variables must precede constants")
    try:
        return ProblemSpec(id=pid, set_name=set_name, formula=formula, variables=variables)
    except (ParseError, ExpressionError) as err:  # ExpressionError: a literal past the largest double
        raise CatalogError(f"{path}.formula: {err}") from None


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
    payload = decode_json(text, source)
    if not isinstance(payload, list):
        raise CatalogError(f"{source}: expected one array of problems")
    return [problem_from_payload(obj, f"{source}[{i}]") for i, obj in enumerate(payload)]


def load_file(path) -> list[ProblemSpec]:
    """The specs of a catalog JSON file, read by :func:`.errors.read_text`."""
    return loads(read_text(path), source=str(path))


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


def load_specs(catalog_files, set_name: str = "all") -> list[ProblemSpec]:
    """The specs of set ``set_name`` (or ``"all"``) from the catalog JSON
    ``catalog_files``, or from the built-in catalog when none is given. An
    id that two of the files' specs share raises ``CatalogError``."""
    if catalog_files:
        specs, where = [], {}
        for path in catalog_files:
            for i, spec in enumerate(load_file(path)):
                if spec.id in where:
                    raise CatalogError(f"{path}[{i}].id: {spec.id!r} is also the id of {where[spec.id]}")
                where[spec.id] = f"{path}[{i}]"
                specs.append(spec)
        if set_name != "all":
            specs = [s for s in specs if s.set_name == set_name]
        if not specs:
            raise CatalogError(f"no problems with set {set_name!r} in {catalog_files}")
        return specs
    return builtin_problems(None if set_name == "all" else set_name)


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


def emit_scatter(specs: list[ProblemSpec]) -> list[dict]:
    """The ``complexity`` report rows, for external plotting: ``id``,
    ``op_count`` of the canonical tree, ``domain_range`` (None for a
    degenerate sampling domain) and ``set``."""
    return [
        {
            "id": spec.id,
            "op_count": count_ops(spec.canonical_expression),
            "domain_range": domain_range(spec),
            "set": spec.set_name,
        }
        for spec in specs
    ]


def scatter_csv(rows: list[dict]) -> str:
    """The text of the ``complexity --out`` CSV file of :func:`emit_scatter`'s
    rows: a header line, then one line per row, an empty ``domain_range``
    for None."""
    lines = ["id,op_count,domain_range,set"]
    for row in rows:
        rng = row["domain_range"]
        rng_text = "" if rng is None else repr(rng)
        lines.append(f"{row['id']},{row['op_count']},{rng_text},{row['set']}")
    return "\n".join(lines) + "\n"
