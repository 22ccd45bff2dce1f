"""Catalog loading and the end-to-end verification ladder.

A catalog entry is a JSON document holding one bracket-compatible pair: the
two structure-constant tables, the basis change between them, optional
classical matrices and acting matrices, both group-level fields, the square
charts, the dynamical functions on each side, the cross-space maps, and the
expected involutive families and map classification.  `load_entry` turns a
document into package objects, `verify_entry` runs the check ladder, and
`verify_all` aggregates a directory of entries into one summary.

The ladder is one ordered table, `_LADDER`.  A row names its check, the
entry fields the check needs and the reason reported when one of them is
absent; checks that come in group/dual pairs are one method of `_Checks`
taking the side.  `_Checks` builds what several checks share (the composed
dynamical functions, the transported representation, the Q matrices, the
exchange report) once, on first use.  Checks never raise: a broken field
becomes a failing check with the exception text in its detail, so one bad
entry cannot hide the others.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .dynsys import (
    DarbouxChart,
    DynamicalSystem,
    build_Q,
    check_darboux,
    find_involutive_pairs,
    independence_rank,
    invariants,
    sts_residual,
    symmetry_residual,
)
from .exchange import (
    CoordinateMap,
    ExchangeBundle,
    classify_transformation,
    transport_rep,
    verify_exchange,
)
from .expr import (
    TRIALS,
    Expression,
    ParseError,
    Rat,
    SampleDomain,
    Sum,
    Symbol,
    UnknownSymbolError,
    equiv_zero,
    evaluate,
    parse_expr,
    subst,
    sum_of,
)
from .flow import canonical_start, conservation_drift, hamiltonian_vector_field, integrate
from .liealg import (
    IsomorphismMatrix,
    LieBialgebra,
    MatrixRep,
    StructureConstants,
    apply_isomorphism,
    check_antisymmetry,
    check_jacobi,
    check_representation,
    cobracket_from_r,
    default_assignments,
    verify_manin_triple,
)
from .rmatrix import RMatrix, cybe_residual
from .symplectic import (
    PoissonField,
    SymplecticForm,
    canonical_field,
    check_field_skew,
    check_nondegenerate,
    closure_residual,
    field_domain,
    jacobi_residual_field,
    poisson_bracket,
)

__all__ = [
    "ENV_CATALOG",
    "CatalogError",
    "ParameterSpec",
    "ExpectedClassification",
    "CatalogEntry",
    "catalog_dir",
    "entry_path",
    "list_entry_paths",
    "load_entry",
    "MUTATIONS",
    "apply_mutations",
    "VerifyConfig",
    "CheckResult",
    "VerificationReport",
    "SummaryReport",
    "verify_entry",
    "verify_all",
    "emit_report",
    "parse_report",
]

ENV_CATALOG = "BISYM_CATALOG"

COORD_BLOCKS = ("group", "dual_group", "chart", "dual_chart")


class CatalogError(Exception):
    """A catalog document that cannot be loaded or mutated as requested."""


def catalog_dir() -> Path:
    """Directory holding the catalog, honouring the ENV_CATALOG override."""
    override = os.environ.get(ENV_CATALOG)
    if override:
        return Path(override)
    return Path(__file__).parent / "catalog"


def list_entry_paths(directory: Path | str | None = None) -> list[Path]:
    base = Path(directory) if directory is not None else catalog_dir()
    return sorted(base.glob("*.json"))


def entry_path(entry_id: str, directory: Path | str | None = None) -> Path:
    base = Path(directory) if directory is not None else catalog_dir()
    return base / f"{entry_id}.json"


# ---------------------------------------------------------------------------
# schema helpers: every complaint carries the dotted path of the bad field


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise CatalogError(f"{path}: expected an object")
    return value


def _get(doc: dict, key: str, path: str):
    _obj(doc, path)
    if key not in doc:
        raise CatalogError(f"{path}.{key}: missing required field")
    return doc[key]


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise CatalogError(f"{path}: expected a string")
    return value


def _int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CatalogError(f"{path}: expected an integer")
    return value


def _list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise CatalogError(f"{path}: expected an array")
    if length is not None and len(value) != length:
        raise CatalogError(f"{path}: expected {length} entries, found {len(value)}")
    return value


def _index(value, path: str, dim: int) -> int:
    i = _int(value, path)
    if not 0 <= i < dim:
        raise CatalogError(f"{path}: index {i} outside 0..{dim - 1}")
    return i


def _expr(text, symbols: Mapping[str, Symbol], path: str) -> Expression:
    source = _str(text, path)
    try:
        return parse_expr(source, symbols)
    except (ParseError, UnknownSymbolError) as exc:
        raise CatalogError(f"{path}: {exc}") from None


def _exprs(items, tab: Mapping[str, Symbol], path: str, length: int | None = None) -> tuple:
    return tuple(_expr(t, tab, f"{path}[{k}]") for k, t in enumerate(_list(items, path, length)))


def _matrix(items, tab: Mapping[str, Symbol], path: str, dim: int) -> tuple:
    rows = _list(items, path, dim)
    return tuple(_exprs(row, tab, f"{path}[{i}]", dim) for i, row in enumerate(rows))


def _symtab(*groups: Sequence[Symbol]) -> dict[str, Symbol]:
    tab: dict[str, Symbol] = {}
    for group in groups:
        tab.update({s.name: s for s in group})
    return tab


@dataclass(frozen=True)
class ParameterSpec:
    """A declared free parameter; nonzero marks it as a unit in the tables."""

    name: str
    nonzero: bool = True

    @property
    def symbol(self) -> Symbol:
        return Symbol(self.name, "parameter")


@dataclass(frozen=True)
class ExpectedClassification:
    bracket_preserving: bool
    invariant_mapping: bool
    coefficients: tuple | None  # rows of Expression, or None


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog document parsed into package objects."""

    entry_id: str
    dim: int
    parameters: tuple
    coords: Mapping[str, tuple]
    g: StructureConstants
    gdual: StructureConstants
    C: IsomorphismMatrix
    rt: RMatrix | None
    r: RMatrix | None
    rept: MatrixRep | None
    Pg: PoissonField
    Pgt: PoissonField
    chart_g: tuple
    chart_gt: tuple
    S_chart: tuple
    St_chart: tuple
    S_display: tuple
    St_display: tuple
    cmap: CoordinateMap
    zmap: CoordinateMap | None
    omega_g: SymplecticForm | None
    omega_gdual: SymplecticForm | None
    omega_display_g: SymplecticForm | None
    omega_display_gdual: SymplecticForm | None
    inv_g: tuple | None
    inv_gt: tuple | None
    expected_families_group: tuple
    expected_families_dual: tuple
    expected_class: ExpectedClassification
    notes: tuple

    @property
    def params(self) -> tuple:
        return tuple(p.symbol for p in self.parameters)

    @property
    def bialgebra(self) -> LieBialgebra:
        return LieBialgebra(self.g, self.gdual)


def _parse_tensor(doc: dict, dim: int, ptab: Mapping[str, Symbol], path: str) -> StructureConstants:
    variance = _str(_get(doc, "variance", path), f"{path}.variance")
    if variance not in ("lower", "upper"):
        raise CatalogError(f"{path}.variance: expected 'lower' or 'upper'")
    brackets: dict[tuple[int, int, int], Expression] = {}
    for n, item in enumerate(_list(_get(doc, "entries", path), f"{path}.entries")):
        here = f"{path}.entries[{n}]"
        row = _list(item, here, 4)
        key = tuple(_index(row[m], f"{here}[{m}]", dim) for m in range(3))
        if key in brackets:
            raise CatalogError(f"{here}: duplicate bracket entry {key}")
        brackets[key] = _expr(row[3], ptab, f"{here}[3]")
    return StructureConstants.from_brackets(dim, brackets, variance=variance)


def _parse_upper(items, dim: int, tab: Mapping[str, Symbol], path: str,
                 order: str = "upper-triangle indices", duplicate: str = "duplicate entry",
                 ) -> dict[tuple[int, int], Expression]:
    """Rows [i, j, expr] with i < j, each pair at most once, keyed by (i, j)."""
    upper: dict[tuple[int, int], Expression] = {}
    for n, item in enumerate(_list(items, path)):
        here = f"{path}[{n}]"
        row = _list(item, here, 3)
        i = _index(row[0], f"{here}[0]", dim)
        j = _index(row[1], f"{here}[1]", dim)
        if not i < j:
            raise CatalogError(f"{here}: {order} must satisfy i < j")
        if (i, j) in upper:
            raise CatalogError(f"{here}: {duplicate} ({i}, {j})")
        upper[(i, j)] = _expr(row[2], tab, f"{here}[2]")
    return upper


def _parse_rmatrix(doc: dict, dim: int, ptab: Mapping[str, Symbol], path: str) -> RMatrix:
    variance = _str(_get(doc, "variance", path), f"{path}.variance")
    wedge = _parse_upper(_get(doc, "wedge", path), dim, ptab, f"{path}.wedge",
                         "wedge indices", "duplicate wedge entry")
    try:
        return RMatrix.from_wedge(dim, wedge, variance=variance)
    except ValueError as exc:
        raise CatalogError(f"{path}: {exc}") from None


def _parse_field(
    doc: dict,
    coords: Mapping[str, tuple],
    expect: str,
    tab_for: Callable[[str], Mapping[str, Symbol]],
    path: str,
) -> PoissonField:
    name = _str(_get(doc, "coords", path), f"{path}.coords")
    if name != expect:
        raise CatalogError(f"{path}.coords: expected '{expect}', found '{name}'")
    cs = coords[name]
    return PoissonField.from_upper(
        cs, _parse_upper(_get(doc, "upper", path), len(cs), tab_for(name), f"{path}.upper"))


def _parse_form(block, dim: int, ptab: Mapping[str, Symbol], path: str) -> SymplecticForm | None:
    if block is None:
        return None
    upper = _parse_upper(_get(_obj(block, path), "upper", path), dim, ptab, f"{path}.upper")
    return SymplecticForm.from_upper(dim, upper)


def _parse_families(block, path: str, count: int) -> tuple:
    """Maximal mutually-commuting families, each strictly increasing."""
    families = []
    for n, item in enumerate(_list(block, path)):
        here = f"{path}[{n}]"
        row = _list(item, here)
        if len(row) < 2:
            raise CatalogError(f"{here}: a family needs at least two members")
        members = [_index(v, f"{here}[{m}]", count) for m, v in enumerate(row)]
        if sorted(set(members)) != members:
            raise CatalogError(f"{here}: family members must be strictly increasing")
        families.append(tuple(members))
    return tuple(sorted(families))


def _family_pairs(families) -> tuple:
    pairs = {
        (fam[i], fam[j])
        for fam in families
        for i in range(len(fam)) for j in range(i + 1, len(fam))
    }
    return tuple(sorted(pairs))


def _load_document(doc: dict) -> CatalogEntry:
    entry_id = _str(_get(doc, "id", "root"), "id")
    dim = _int(_get(doc, "dim", "root"), "dim")
    if dim < 2 or dim % 2:
        raise CatalogError(f"dim: expected a positive even dimension, found {dim}")

    coords: dict[str, tuple] = {}
    coord_doc = _obj(_get(doc, "coordinates", "root"), "coordinates")
    for block in COORD_BLOCKS:
        names = _list(_get(coord_doc, block, "coordinates"), f"coordinates.{block}", dim)
        parsed = tuple(Symbol(_str(n, f"coordinates.{block}[{k}]")) for k, n in enumerate(names))
        if len({s.name for s in parsed}) != dim:
            raise CatalogError(f"coordinates.{block}: coordinate names must be distinct")
        coords[block] = parsed

    specs = []
    seen: set[str] = set()
    taken = {s.name for block in COORD_BLOCKS for s in coords[block]}
    for n, item in enumerate(_list(_get(doc, "parameters", "root"), "parameters")):
        here = f"parameters[{n}]"
        name = _str(_get(_obj(item, here), "name", here), f"{here}.name")
        nonzero = item.get("nonzero", True)
        if not isinstance(nonzero, bool):
            raise CatalogError(f"{here}.nonzero: expected a boolean")
        if name in seen:
            raise CatalogError(f"{here}.name: duplicate parameter '{name}'")
        if name in taken:
            raise CatalogError(f"{here}.name: '{name}' collides with a coordinate name")
        seen.add(name)
        specs.append(ParameterSpec(name, nonzero))
    parameters = tuple(specs)
    params = tuple(p.symbol for p in parameters)
    ptab = _symtab(params)

    def tab(block: str) -> dict[str, Symbol]:
        return _symtab(params, coords[block])

    bial = _obj(_get(doc, "bialgebra", "root"), "bialgebra")
    g = _parse_tensor(_obj(_get(bial, "g", "bialgebra"), "bialgebra.g"), dim, ptab, "bialgebra.g")
    gdual = _parse_tensor(
        _obj(_get(bial, "gdual", "bialgebra"), "bialgebra.gdual"), dim, ptab, "bialgebra.gdual"
    )

    rows_doc = _get(_obj(_get(doc, "basis_change", "root"), "basis_change"), "rows", "basis_change")
    C = IsomorphismMatrix.from_rows(_matrix(rows_doc, ptab, "basis_change.rows", dim))

    rt = r = None
    rdoc = doc.get("r_matrices")
    if rdoc is not None:
        _obj(rdoc, "r_matrices")
        if rdoc.get("rt") is not None:
            rt = _parse_rmatrix(_obj(rdoc["rt"], "r_matrices.rt"), dim, ptab, "r_matrices.rt")
        if rdoc.get("r") is not None:
            r = _parse_rmatrix(_obj(rdoc["r"], "r_matrices.r"), dim, ptab, "r_matrices.r")

    rept = None
    adoc = doc.get("acting_matrices")
    if adoc is not None:
        mats = _list(_get(_obj(adoc, "acting_matrices"), "rept", "acting_matrices"),
                     "acting_matrices.rept", dim)
        rept = MatrixRep.from_rows([_matrix(mat, ptab, f"acting_matrices.rept[{m}]", dim)
                                    for m, mat in enumerate(mats)])

    Pg = _parse_field(_obj(_get(doc, "group_field", "root"), "group_field"),
                      coords, "group", tab, "group_field")
    Pgt = _parse_field(_obj(_get(doc, "dual_group_field", "root"), "dual_group_field"),
                       coords, "dual_group", tab, "dual_group_field")

    charts = _obj(_get(doc, "charts", "root"), "charts")

    def chart_exprs(side: str, block: str) -> tuple:
        body = _obj(_get(charts, side, "charts"), f"charts.{side}")
        items = _get(body, "exprs", f"charts.{side}")
        return _exprs(items, tab(block), f"charts.{side}.exprs", dim)

    chart_g = chart_exprs("group", "group")
    chart_gt = chart_exprs("dual_group", "dual_group")

    dyn = _obj(_get(doc, "dynamical_functions", "root"), "dynamical_functions")

    def dyn_side(side: str, chart_block: str, group_block: str):
        body = _obj(_get(dyn, side, "dynamical_functions"), f"dynamical_functions.{side}")
        base = f"dynamical_functions.{side}"
        parsed_chart = _exprs(_get(body, "chart_exprs", base), tab(chart_block),
                              f"{base}.chart_exprs", dim)
        disp = _list(_get(body, "display_exprs", base), f"{base}.display_exprs", dim)
        parsed_disp = tuple(
            None if t is None else _expr(t, tab(group_block), f"{base}.display_exprs[{k}]")
            for k, t in enumerate(disp)
        )
        return parsed_chart, parsed_disp

    S_chart, S_display = dyn_side("group_side", "chart", "group")
    St_chart, St_display = dyn_side("dual_side", "dual_chart", "dual_group")

    cmap_doc = _obj(_get(doc, "coordinate_map", "root"), "coordinate_map")
    cmap = CoordinateMap(coords["dual_group"], coords["group"],
                         _exprs(_get(cmap_doc, "exprs", "coordinate_map"), tab("dual_group"),
                                "coordinate_map.exprs", dim))

    zmap = None
    zdoc = doc.get("chart_map")
    if zdoc is not None:
        items = _get(_obj(zdoc, "chart_map"), "exprs", "chart_map")
        zmap = CoordinateMap(coords["chart"], coords["dual_chart"],
                             _exprs(items, tab("chart"), "chart_map.exprs", dim))

    def form_pair(key: str):
        body = _obj(_get(doc, key, "root"), key)
        return (
            _parse_form(body.get("g"), dim, ptab, f"{key}.g"),
            _parse_form(body.get("gdual"), dim, ptab, f"{key}.gdual"),
        )

    omega_g, omega_gdual = form_pair("omega")
    omega_display_g, omega_display_gdual = form_pair("omega_display")

    inv_g = inv_gt = None
    idoc = doc.get("invariants")
    if idoc is not None:
        _obj(idoc, "invariants")
        inv_g = _exprs(_get(idoc, "group_side", "invariants"), tab("chart"),
                       "invariants.group_side")
        inv_gt = _exprs(_get(idoc, "dual_side", "invariants"), tab("dual_chart"),
                        "invariants.dual_side")

    exp = _obj(_get(doc, "expected", "root"), "expected")
    pair_doc = _obj(_get(exp, "involutive_pairs", "expected"), "expected.involutive_pairs")
    expected_families_group = _parse_families(
        _get(pair_doc, "group_side", "expected.involutive_pairs"),
        "expected.involutive_pairs.group_side", dim,
    )
    expected_families_dual = _parse_families(
        _get(pair_doc, "dual_side", "expected.involutive_pairs"),
        "expected.involutive_pairs.dual_side", dim,
    )
    cls = _obj(_get(exp, "classification", "expected"), "expected.classification")
    bp = _get(cls, "bracket_preserving", "expected.classification")
    im = _get(cls, "invariant_mapping", "expected.classification")
    if not isinstance(bp, bool) or not isinstance(im, bool):
        raise CatalogError("expected.classification: flags must be booleans")
    coeffs = None
    cdoc = cls.get("coefficients")
    if cdoc is not None:
        coeffs = _matrix(cdoc, ptab, "expected.classification.coefficients", dim)
    expected_class = ExpectedClassification(bp, im, coeffs)

    notes = tuple(
        _str(n, f"notes[{k}]")
        for k, n in enumerate(_list(doc.get("notes", []), "notes"))
    )

    return CatalogEntry(
        entry_id=entry_id, dim=dim, parameters=parameters, coords=coords,
        g=g, gdual=gdual, C=C, rt=rt, r=r, rept=rept, Pg=Pg, Pgt=Pgt,
        chart_g=chart_g, chart_gt=chart_gt,
        S_chart=S_chart, St_chart=St_chart, S_display=S_display, St_display=St_display,
        cmap=cmap, zmap=zmap,
        omega_g=omega_g, omega_gdual=omega_gdual,
        omega_display_g=omega_display_g, omega_display_gdual=omega_display_gdual,
        inv_g=inv_g, inv_gt=inv_gt,
        expected_families_group=expected_families_group,
        expected_families_dual=expected_families_dual,
        expected_class=expected_class, notes=notes,
    )


def load_entry(path: Path | str) -> CatalogEntry:
    """Read, validate, and parse one catalog document.

    Raises CatalogError with the dotted field path for schema violations and
    with the offending symbol or token for expression parse errors.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"{p.name}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{p.name}: invalid JSON: {exc}") from None
    try:
        return _load_document(_obj(doc, "root"))
    except CatalogError as exc:
        raise CatalogError(f"{p.name}: {exc}") from None


# ---------------------------------------------------------------------------
# mutations: deliberate single-field corruptions for exercising the ladder


def _mutate_swap_c_rows(entry: CatalogEntry) -> CatalogEntry:
    rows = entry.C.matrix()
    rows[0], rows[1] = rows[1], rows[0]
    return replace(entry, C=IsomorphismMatrix.from_rows(rows))


def _mutate_perturb_r(entry: CatalogEntry) -> CatalogEntry:
    if entry.rt is None:
        raise CatalogError(f"{entry.entry_id}: perturb-r needs a stored classical matrix")
    rows = entry.rt.matrix()
    rows[0][1] = sum_of([rows[0][1], Rat(Fraction(1, 10))])
    rows[1][0] = sum_of([rows[1][0], Rat(Fraction(-1, 10))])
    return replace(entry, rt=RMatrix.from_rows(rows, variance=entry.rt.variance))


def _mutate_drop_map_term(entry: CatalogEntry) -> CatalogEntry:
    exprs = list(entry.cmap.exprs)
    for idx, e in enumerate(exprs):
        if isinstance(e, Sum):
            kept = e.terms[:-1]
            exprs[idx] = kept[0] if len(kept) == 1 else Sum(*kept)
            cmap = CoordinateMap(entry.cmap.source, entry.cmap.target, tuple(exprs))
            return replace(entry, cmap=cmap)
    raise CatalogError(f"{entry.entry_id}: drop-map-term needs a multi-term map component")


MUTATIONS: dict[str, Callable[[CatalogEntry], CatalogEntry]] = {
    "swap-C-rows": _mutate_swap_c_rows,
    "perturb-r": _mutate_perturb_r,
    "drop-map-term": _mutate_drop_map_term,
}


def apply_mutations(entry: CatalogEntry, flags: Sequence[str]) -> CatalogEntry:
    """Apply named corruptions in order; unknown flags raise CatalogError."""
    for flag in flags:
        fn = MUTATIONS.get(flag)
        if fn is None:
            known = ", ".join(sorted(MUTATIONS))
            raise CatalogError(f"unknown mutation flag '{flag}' (known: {known})")
        entry = fn(entry)
    return entry


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    trials: int = TRIALS
    exact_samples: int = 5
    class_samples: int = 3
    drift_tol: float = 1e-6
    dt: float = 1e-3
    horizon: float = 1.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    max_residual: float = 0.0
    witness: Mapping[str, str] | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class VerificationReport:
    entry_id: str
    seed: int
    parameter_samples: tuple
    checks: tuple
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class SummaryReport:
    reports: tuple
    load_errors: tuple  # (file name, message) pairs
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.load_errors and all(r.ok for r in self.reports)

    def report(self, entry_id: str) -> VerificationReport:
        for r in self.reports:
            if r.entry_id == entry_id:
                return r
        raise KeyError(entry_id)


def _str_env(env: Mapping) -> dict[str, str]:
    return {k: str(v) for k, v in env.items()}


def _compose(exprs: Sequence[Expression], coords: Sequence[Symbol],
             values: Sequence[Expression]) -> list[Expression]:
    smap = {s.name: v for s, v in zip(coords, values)}
    return [subst(e, smap) for e in exprs]


def _families_label(families: Sequence[tuple]) -> str:
    return "{" + ", ".join("(" + ", ".join(str(i) for i in fam) + ")" for fam in families) + "}"


# ---------------------------------------------------------------------------
# the ladder: one ordered table of checks
#
# A check is a method of _Checks, with a side when it comes in a group/dual
# pair.  It returns one outcome, the fields of CheckResult after the name:
# (status, max residual, witness, detail).  Checks call the layer functions
# through this module's globals, looked up when the check runs, so rebinding
# a name here reaches every call.


def _exact(rep, detail: str = "") -> tuple:
    witness = None
    if rep.witness is not None:
        idx, env = rep.witness
        witness = {"@index": str(tuple(idx)), **_str_env(env)}
    return "pass" if rep.ok else "fail", float(abs(rep.max_abs)), witness, detail


def _zero(rep, detail: str = "") -> tuple:
    witness = None
    if rep.witness is not None:
        witness = dict(_str_env(rep.witness))
        if rep.witness_index is not None:
            witness["@residual"] = str(rep.witness_index)
    return "pass" if rep.zero else "fail", float(rep.max_residual), witness, detail


def _bool(ok: bool, detail: str = "") -> tuple:
    return "pass" if ok else "fail", 0.0, None, detail


def _skip(reason: str) -> tuple:
    return "skip", 0.0, None, reason


class _Checks:
    """The ladder's checks over one entry, and the inputs they read.

    Paired inputs are indexed by side.  Side 0 is the group side: its own
    table is g and its functions realise g̃.  Side 1 is the dual side, the
    other way round.  What several checks share is built once, on first use;
    an input that cannot be built fails each check that needs it.
    """

    def __init__(self, entry: CatalogEntry, cfg: VerifyConfig) -> None:
        e = self.entry = entry
        self.cfg = cfg
        self.sampling = {"seed": cfg.seed, "trials": cfg.trials}
        self.A = default_assignments(e.params, count=cfg.exact_samples, seed=cfg.seed)
        self.table = (e.g, e.gdual)
        self.lowered = (e.g, StructureConstants(e.dim, e.gdual.entries, "lower"))
        self.acted = (e.gdual, e.g)
        self.form = (e.omega_g, e.omega_gdual)
        self.rmat = (e.rt, e.r)
        self.field = (e.Pg, e.Pgt)
        self.chart = (e.chart_g, e.chart_gt)
        self.group_coords = (e.coords["group"], e.coords["dual_group"])
        self.coords = (e.coords["chart"], e.coords["dual_chart"])
        self.funcs = (e.S_chart, e.St_chart)
        self.displays = (e.S_display, e.St_display)
        self.families = (e.expected_families_group, e.expected_families_dual)
        self.inv = (e.inv_g, e.inv_gt)
        self._built: dict = {}

    def _shared(self, key, build: Callable, *args):
        """build(*args), called until it returns once for this key."""
        if key not in self._built:
            self._built[key] = build(*args)
        return self._built[key]

    def composed(self, side: int) -> list[Expression]:
        """The side's dynamical functions in its group coordinates."""
        return self._shared(("composed", side), _compose,
                            self.funcs[side], self.coords[side], self.chart[side])

    def rep(self, side: int) -> MatrixRep:
        """Acting matrices on the side's acted table: stored on g̃, carried by C to g."""
        if side == 0:
            return self.entry.rept
        return self._shared("rep", transport_rep, self.entry.C, self.entry.rept)

    def Q(self, side: int):
        """The side's Q matrix from its dynamical functions, classical and acting matrices."""
        return self._shared(("Q", side), build_Q, self.funcs[side], self.rmat[side], self.rep(side))

    def antisymmetry(self, side: int) -> tuple:
        return _exact(check_antisymmetry(self.table[side], self.A))

    def jacobi(self, side: int) -> tuple:
        return _exact(check_jacobi(self.table[side], self.A))

    def manin(self) -> tuple:
        rep = verify_manin_triple(self.entry.bialgebra, self.A)
        worse = rep.jacobi if not rep.jacobi.ok else rep.ad_invariance
        parts = []
        if not rep.jacobi.ok:
            parts.append("double bracket fails its own closure")
        if not rep.ad_invariance.ok:
            parts.append("pairing is not invariant under the double")
        return _exact(worse if not rep.ok else rep.jacobi, "; ".join(parts))

    def invertible(self) -> tuple:
        return _exact(self.entry.C.check_invertible(self.A))

    def transport(self) -> tuple:
        e = self.entry
        moved = apply_isomorphism(e.C, e.g)
        worst = Fraction(0)
        witness = None
        for env in self.A:
            got = moved.evaluated(env)
            want = e.gdual.evaluated(env)
            for i in range(e.dim):
                for j in range(e.dim):
                    for k in range(e.dim):
                        diff = abs(got[i][j][k] - want[i][j][k])
                        if diff > worst:
                            worst = diff
                            witness = {"@index": str((i, j, k)), **_str_env(env)}
        return "pass" if worst == 0 else "fail", float(worst), witness, ""

    def representation(self, side: int) -> tuple:
        return _exact(check_representation(self.rep(side), self.acted[side], self.A))

    def cybe(self, side: int) -> tuple:
        # the side's classical matrix lives on its acted table, taken lower
        return _exact(cybe_residual(self.rmat[side], self.lowered[1 - side], self.A))

    def cobracket(self) -> tuple:
        lowered = self.lowered[1]
        cand = cobracket_from_r(self.entry.rt, lowered)
        jac = check_jacobi(cand, self.A)
        man = verify_manin_triple(LieBialgebra(lowered, cand), self.A)
        ok = jac.ok and man.ok
        worst = max(jac.max_abs, man.jacobi.max_abs, man.ad_invariance.max_abs)
        detail = "" if ok else "induced cobracket is not a compatible dual bracket"
        return "pass" if ok else "fail", float(worst), None, detail

    def closure(self, side: int) -> tuple:
        return _exact(closure_residual(self.form[side], self.lowered[side], self.A).cyclic)

    def nondegenerate(self, side: int) -> tuple:
        return _exact(check_nondegenerate(self.form[side], self.A))

    def field_skew(self, side: int) -> tuple:
        return _zero(check_field_skew(self.field[side], **self.sampling))

    def field_jacobi(self, side: int) -> tuple:
        return _zero(jacobi_residual_field(self.field[side], **self.sampling))

    def darboux(self, side: int) -> tuple:
        chart = DarbouxChart(tuple(self.chart[side]))
        rep = check_darboux(self.field[side], chart, **self.sampling)
        bad = [pair for pair, _, inner in rep.results if not inner.zero]
        detail = "" if rep.ok else f"square-bracket pairs off at {bad}"
        return "pass" if rep.ok else "fail", rep.max_residual, None, detail

    def symmetry(self, side: int) -> tuple:
        sys = DynamicalSystem(self.field[side], tuple(self.composed(side)), self.acted[side])
        return _zero(symmetry_residual(sys, **self.sampling))

    def display(self, side: int) -> tuple:
        displays = self.displays[side]
        slots = [k for k, d in enumerate(displays) if d is not None]
        if not slots:
            return _skip("no closed-form displays stored")
        composed = self.composed(side)
        residuals = [sum_of([displays[k], Rat(-1) * composed[k]]) for k in slots]
        domain = SampleDomain(coords=self.group_coords[side], params=self.entry.params)
        return _zero(equiv_zero(residuals, domain, **self.sampling), f"slots {slots}")

    def involutive(self, side: int) -> tuple:
        can = canonical_field(self.coords[side])
        sys = DynamicalSystem(can, tuple(self.funcs[side]), self.acted[side])
        got = tuple(find_involutive_pairs(sys, **self.sampling))
        want = tuple(self.families[side])
        ok = got == want
        return _bool(ok, "" if ok else
                     f"found {_families_label(got)}, expected {_families_label(want)}")

    def q_matrix(self, side: int) -> tuple:
        can = canonical_field(self.coords[side])
        rep = sts_residual(self.Q(side), self.rmat[side], self.rep(side), can, **self.sampling)
        return _zero(rep)

    def traces(self, side: int) -> tuple:
        inv = self.inv[side]
        tr = invariants(self.Q(side), kmax=len(inv))
        if side == 1:
            # power-one trace carries the opposite sign on this side
            inv = [(Rat(1) if k else Rat(-1)) * f for k, f in enumerate(inv)]
        residuals = [sum_of([tr[k], Rat(-1) * inv[k]]) for k in range(len(inv))]
        domain = SampleDomain(coords=self.coords[side], params=self.entry.params)
        return _zero(equiv_zero(residuals, domain, **self.sampling))

    def involution(self, side: int) -> tuple:
        F = self.inv[side]
        can = canonical_field(self.coords[side])
        residuals = [poisson_bracket(can, F[i], F[j])
                     for i in range(len(F)) for j in range(i + 1, len(F))]
        return _zero(equiv_zero(residuals, field_domain(can, F), **self.sampling))

    def independence(self, side: int) -> tuple:
        F = self.inv[side]
        rank = independence_rank(self.coords[side], F,
                                 samples=self.cfg.exact_samples, seed=self.cfg.seed)
        return _bool(rank == len(F), f"rank {rank} of {len(F)}" if rank != len(F) else "")

    def _exchange_report(self):
        e = self.entry
        bundle = ExchangeBundle(
            bialg=e.bialgebra, C=e.C, cmap=e.cmap,
            P=e.Pg, Pt=e.Pgt, S=tuple(self.composed(0)), St=tuple(self.composed(1)),
            rt=e.rt, r=e.r, rept=e.rept,
        )
        return verify_exchange(bundle, **self.sampling)

    def exchange(self, stage: str) -> tuple:
        s = self._shared("exchange", self._exchange_report).stage(stage)
        if s.skipped:
            return _skip(s.reason)
        return "pass" if s.ok else "fail", s.max_residual, None, ""

    def classification(self) -> tuple:
        e = self.entry
        invA = e.inv_g if e.inv_g is not None else e.S_chart
        invB = e.inv_gt if e.inv_gt is not None else e.St_chart
        record = classify_transformation(
            e.zmap, invA, invB, canonical_field(self.coords[0]), canonical_field(self.coords[1]),
            **self.sampling, samples=self.cfg.class_samples,
        )
        want = e.expected_class
        problems = []
        if record.bracket_preserving != want.bracket_preserving:
            problems.append(f"bracket_preserving={record.bracket_preserving}, "
                            f"expected {want.bracket_preserving}")
        if record.invariant_mapping != want.invariant_mapping:
            problems.append(f"invariant_mapping={record.invariant_mapping}, "
                            f"expected {want.invariant_mapping}")
        if want.coefficients is not None and not problems:
            if record.coefficients is None:
                problems.append("no coefficient matrix recovered")
            else:
                for env_items, rows in record.coefficients:
                    env = dict(env_items)
                    for i, row in enumerate(rows):
                        for j, got in enumerate(row):
                            expect = evaluate(want.coefficients[i][j], env)
                            if Fraction(got) != expect:
                                problems.append(
                                    f"coefficient[{i}][{j}] = {got}, expected {expect} "
                                    f"at {_str_env(env)}")
        return _bool(not problems, "; ".join(problems))

    def flows(self, side: int) -> tuple:
        cs, funcs, inv, cfg = self.coords[side], self.funcs[side], self.inv[side], self.cfg
        runs = [(funcs[i], funcs[j]) for i, j in _family_pairs(self.families[side])]
        if inv is not None and len(inv) >= 2:
            runs.append((inv[0], inv[1]))
        if not runs:
            return _skip("no conserved pairs declared")
        env0 = default_assignments(self.entry.params, count=1, seed=cfg.seed)[0]
        smap = {k: Rat(v) for k, v in env0.items()}
        worst = 0.0
        stalled = 0
        for H_raw, F_raw in runs:
            H = subst(H_raw, smap)
            F = subst(F_raw, smap)
            x0 = canonical_start(cs, [H, F])
            field = hamiltonian_vector_field(canonical_field(cs), H)
            traj = integrate(cs, field, x0, cfg.dt, cfg.horizon)
            if not traj.reached(cfg.horizon):
                stalled += 1
                continue
            drift = conservation_drift(cs, traj, [H, F]).max_relative
            worst = max(worst, drift)
        ok = stalled == 0 and worst <= cfg.drift_tol
        detail = f"{len(runs)} flows, worst drift {worst:.3e}"
        if stalled:
            detail += f", {stalled} stopped before t={cfg.horizon}"
        return "pass" if ok else "fail", worst, None, detail


_NO_DUAL_R = "no classical matrix stored for the dual table"
_NO_REPT = "no acting matrices stored"
_NO_FORM = "no two-form stored"
_NO_INV = "no invariants stored"

# (check name, entry fields it needs, reason to skip when one is None, check, side or stage)
_LADDER = (
    ("liealg.antisymmetry.g", (), None, _Checks.antisymmetry, 0),
    ("liealg.antisymmetry.gdual", (), None, _Checks.antisymmetry, 1),
    ("liealg.jacobi.g", (), None, _Checks.jacobi, 0),
    ("liealg.jacobi.gdual", (), None, _Checks.jacobi, 1),
    ("liealg.manin_triple", (), None, _Checks.manin),
    ("liealg.basis_change.invertible", (), None, _Checks.invertible),
    ("liealg.basis_change.transport", (), None, _Checks.transport),
    ("liealg.representation", ("rept",), _NO_REPT, _Checks.representation, 0),
    ("liealg.representation.transported", ("rept",), _NO_REPT, _Checks.representation, 1),
    ("rmatrix.cybe.dual", ("rt",), _NO_DUAL_R, _Checks.cybe, 0),
    ("rmatrix.cobracket", ("rt",), _NO_DUAL_R, _Checks.cobracket),
    ("rmatrix.cybe.bracket", ("r",), "no classical matrix stored for the bracket table",
     _Checks.cybe, 1),
    ("symplectic.closure.g", ("omega_g",), _NO_FORM, _Checks.closure, 0),
    ("symplectic.nondegenerate.g", ("omega_g",), _NO_FORM, _Checks.nondegenerate, 0),
    ("symplectic.closure.gdual", ("omega_gdual",), _NO_FORM, _Checks.closure, 1),
    ("symplectic.nondegenerate.gdual", ("omega_gdual",), _NO_FORM, _Checks.nondegenerate, 1),
    ("symplectic.field_skew.group", (), None, _Checks.field_skew, 0),
    ("symplectic.field_jacobi.group", (), None, _Checks.field_jacobi, 0),
    ("symplectic.field_skew.dual_group", (), None, _Checks.field_skew, 1),
    ("symplectic.field_jacobi.dual_group", (), None, _Checks.field_jacobi, 1),
    ("dynsys.darboux.group", (), None, _Checks.darboux, 0),
    ("dynsys.darboux.dual_group", (), None, _Checks.darboux, 1),
    ("dynsys.symmetry.group", (), None, _Checks.symmetry, 0),
    ("dynsys.symmetry.dual_group", (), None, _Checks.symmetry, 1),
    ("dynsys.display.group", (), None, _Checks.display, 0),
    ("dynsys.display.dual_group", (), None, _Checks.display, 1),
    ("dynsys.involutive.group", (), None, _Checks.involutive, 0),
    ("dynsys.involutive.dual_group", (), None, _Checks.involutive, 1),
    ("dynsys.q_matrix", ("rt", "rept"),
     "needs both a dual-table classical matrix and acting matrices", _Checks.q_matrix, 0),
    ("dynsys.q_matrix.dual", ("r", "rept"),
     "needs both a bracket-table classical matrix and acting matrices", _Checks.q_matrix, 1),
    ("dynsys.trace_invariants", ("rt", "rept", "inv_g"),
     "needs a dual-table classical matrix, acting matrices, and invariants", _Checks.traces, 0),
    ("dynsys.trace_invariants.dual", ("r", "rept", "inv_gt"),
     "needs a bracket-table classical matrix, acting matrices, and invariants", _Checks.traces, 1),
    ("dynsys.invariant_involution.group", ("inv_g",), _NO_INV, _Checks.involution, 0),
    ("dynsys.invariant_independence.group", ("inv_g",), _NO_INV, _Checks.independence, 0),
    ("dynsys.invariant_involution.dual_group", ("inv_gt",), _NO_INV, _Checks.involution, 1),
    ("dynsys.invariant_independence.dual_group", ("inv_gt",), _NO_INV, _Checks.independence, 1),
    ("exchange.phase_exchange", (), None, _Checks.exchange, "phase_exchange"),
    ("exchange.dynfunc_transport", (), None, _Checks.exchange, "dynfunc_transport"),
    ("exchange.dual_symmetry", (), None, _Checks.exchange, "dual_symmetry"),
    ("exchange.q_transform", (), None, _Checks.exchange, "q_transform"),
    ("exchange.classification", ("zmap",), "no chart-level map stored", _Checks.classification),
    ("flow.conservation.group", (), None, _Checks.flows, 0),
    ("flow.conservation.dual_group", (), None, _Checks.flows, 1),
)


def verify_entry(entry: CatalogEntry, config: VerifyConfig | None = None) -> VerificationReport:
    """Run the full check ladder on one entry.

    The checks run in the order of the ladder table: structure tables,
    classical matrices, two-forms and fields, the dynamical systems on both
    sides, the cross-space exchange, conserved flows.  A check whose entry
    fields are absent is reported as a skip; a check that raises is reported
    as a failure with the exception in the detail, so the report always
    covers the whole ladder.
    """
    cfg = config or VerifyConfig()
    started = time.perf_counter()
    run = _Checks(entry, cfg)
    results = []
    for name, needs, reason, check, *args in _LADDER:
        if any(getattr(entry, field) is None for field in needs):
            outcome = _skip(reason)
        else:
            try:
                outcome = check(run, *args)
            except Exception as exc:  # a crash in any single check is a finding, not an abort
                outcome = "fail", math.inf, None, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, *outcome))
    return VerificationReport(
        entry_id=entry.entry_id,
        seed=cfg.seed,
        parameter_samples=tuple(_str_env(env) for env in run.A),
        checks=tuple(results),
        elapsed=time.perf_counter() - started,
    )


def verify_all(directory: Path | str | None = None,
               config: VerifyConfig | None = None) -> SummaryReport:
    """Verify every catalog document in a directory.

    Entries run one after another and are reported in entry-id order.  A
    document that will not load is recorded as a load error and does not
    stop the rest.
    """
    cfg = config or VerifyConfig()
    started = time.perf_counter()
    paths = list_entry_paths(directory)
    loaded: list[CatalogEntry] = []
    load_errors: list[tuple[str, str]] = []
    for p in paths:
        try:
            loaded.append(load_entry(p))
        except CatalogError as exc:
            load_errors.append((p.name, str(exc)))

    reports = sorted((verify_entry(e, cfg) for e in loaded), key=lambda r: r.entry_id)
    elapsed = time.perf_counter() - started
    return SummaryReport(tuple(reports), tuple(load_errors), elapsed)


# ---------------------------------------------------------------------------
# serialization


def _check_dict(c: CheckResult) -> dict:
    return {
        "name": c.name,
        "status": c.status,
        "max_residual": c.max_residual,
        "witness": dict(c.witness) if c.witness is not None else None,
        "detail": c.detail,
    }


def _report_dict(r: VerificationReport) -> dict:
    return {
        "kind": "verification",
        "entry": r.entry_id,
        "seed": r.seed,
        "ok": r.ok,
        "parameter_samples": [dict(s) for s in r.parameter_samples],
        "checks": [_check_dict(c) for c in r.checks],
        "elapsed": r.elapsed,
    }


def _summary_dict(s: SummaryReport) -> dict:
    return {
        "kind": "summary",
        "ok": s.ok,
        "load_errors": [list(pair) for pair in s.load_errors],
        "reports": [_report_dict(r) for r in s.reports],
        "elapsed": s.elapsed,
    }


def _report_text(r: VerificationReport) -> list[str]:
    skips = sum(1 for c in r.checks if c.status == "skip")
    verdict = "PASS" if r.ok else "FAIL"
    lines = [
        f"entry {r.entry_id}  seed {r.seed}  {verdict}  "
        f"({len(r.checks)} checks, {skips} skipped, {r.elapsed:.2f}s)"
    ]
    if r.parameter_samples and r.parameter_samples[0]:
        shown = "; ".join(
            ", ".join(f"{k}={v}" for k, v in sample.items())
            for sample in r.parameter_samples
        )
        lines.append(f"  parameter samples: {shown}")
    for c in r.checks:
        line = f"  [{c.status}] {c.name}"
        if c.status == "fail":
            line += f"  max {c.max_residual:.3e}"
        if c.detail:
            line += f"  ({c.detail})"
        if c.status == "fail" and c.witness:
            pieces = ", ".join(f"{k}={v}" for k, v in sorted(c.witness.items()))
            line += f"  witness: {pieces}"
        lines.append(line)
    return lines


def emit_report(report: VerificationReport | SummaryReport, format: str = "json") -> bytes:
    """Serialize a report; json output is byte-stable for a fixed seed."""
    if format == "json":
        if isinstance(report, SummaryReport):
            doc = _summary_dict(report)
        else:
            doc = _report_dict(report)
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if format == "text":
        if isinstance(report, SummaryReport):
            passed = sum(1 for r in report.reports if r.ok)
            lines = [
                f"catalog summary: {len(report.reports)} verified, {passed} pass, "
                f"{len(report.reports) - passed} fail, {len(report.load_errors)} unreadable  "
                f"({report.elapsed:.2f}s)"
            ]
            for name, message in report.load_errors:
                lines.append(f"  [load error] {name}: {message}")
            for r in report.reports:
                lines.append("")
                lines.extend(_report_text(r))
        else:
            lines = _report_text(report)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")


def _check_from(doc: dict) -> CheckResult:
    witness = doc.get("witness")
    return CheckResult(
        name=doc["name"],
        status=doc["status"],
        max_residual=doc["max_residual"],
        witness=dict(witness) if witness is not None else None,
        detail=doc.get("detail", ""),
    )


def _report_from(doc: dict) -> VerificationReport:
    return VerificationReport(
        entry_id=doc["entry"],
        seed=doc["seed"],
        parameter_samples=tuple(dict(s) for s in doc["parameter_samples"]),
        checks=tuple(_check_from(c) for c in doc["checks"]),
        elapsed=doc["elapsed"],
    )


def parse_report(data: bytes | str) -> VerificationReport | SummaryReport:
    """Rebuild a report from its json serialization."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a serialized report: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("not a serialized report: expected an object")
    if "reports" in doc:
        return SummaryReport(
            reports=tuple(_report_from(r) for r in doc["reports"]),
            load_errors=tuple((name, message) for name, message in doc["load_errors"]),
            elapsed=doc["elapsed"],
        )
    return _report_from(doc)
