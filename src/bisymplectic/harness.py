"""Catalog loading and the end-to-end verification ladder.

A catalog entry is a JSON document holding one bracket-compatible pair: the
two structure-constant tables, the basis change between them, optional
classical matrices and acting matrices, both group-level fields, the square
charts, the dynamical functions on each side, the cross-space maps, and the
expected involutive families and map classification.  `load_entry` turns a
document into package objects, `verify_entry` runs every applicable check in
a fixed order, and `verify_all` aggregates a directory of entries into one
summary.  Checks never raise: a broken field becomes a failing check with the
exception text in its detail, so one bad entry cannot hide the others.
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


def _parse_rmatrix(doc: dict, dim: int, ptab: Mapping[str, Symbol], path: str) -> RMatrix:
    variance = _str(_get(doc, "variance", path), f"{path}.variance")
    wedge: dict[tuple[int, int], Expression] = {}
    for n, item in enumerate(_list(_get(doc, "wedge", path), f"{path}.wedge")):
        here = f"{path}.wedge[{n}]"
        row = _list(item, here, 3)
        i = _index(row[0], f"{here}[0]", dim)
        j = _index(row[1], f"{here}[1]", dim)
        if not i < j:
            raise CatalogError(f"{here}: wedge indices must satisfy i < j")
        if (i, j) in wedge:
            raise CatalogError(f"{here}: duplicate wedge entry ({i}, {j})")
        wedge[(i, j)] = _expr(row[2], ptab, f"{here}[2]")
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
    tab = tab_for(name)
    upper: dict[tuple[int, int], Expression] = {}
    for n, item in enumerate(_list(_get(doc, "upper", path), f"{path}.upper")):
        here = f"{path}.upper[{n}]"
        row = _list(item, here, 3)
        i = _index(row[0], f"{here}[0]", len(cs))
        j = _index(row[1], f"{here}[1]", len(cs))
        if not i < j:
            raise CatalogError(f"{here}: upper-triangle indices must satisfy i < j")
        if (i, j) in upper:
            raise CatalogError(f"{here}: duplicate entry ({i}, {j})")
        upper[(i, j)] = _expr(row[2], tab, f"{here}[2]")
    return PoissonField.from_upper(cs, upper)


def _parse_form(block, dim: int, ptab: Mapping[str, Symbol], path: str) -> SymplecticForm | None:
    if block is None:
        return None
    upper: dict[tuple[int, int], Expression] = {}
    for n, item in enumerate(_list(_get(_obj(block, path), "upper", path), f"{path}.upper")):
        here = f"{path}.upper[{n}]"
        row = _list(item, here, 3)
        i = _index(row[0], f"{here}[0]", dim)
        j = _index(row[1], f"{here}[1]", dim)
        if not i < j:
            raise CatalogError(f"{here}: upper-triangle indices must satisfy i < j")
        upper[(i, j)] = _expr(row[2], ptab, f"{here}[2]")
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

    rows_doc = _list(
        _get(_obj(_get(doc, "basis_change", "root"), "basis_change"), "rows", "basis_change"),
        "basis_change.rows",
        dim,
    )
    C = IsomorphismMatrix.from_rows(
        [
            [_expr(c, ptab, f"basis_change.rows[{i}][{j}]") for j, c in
             enumerate(_list(row, f"basis_change.rows[{i}]", dim))]
            for i, row in enumerate(rows_doc)
        ]
    )

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
        parsed_mats = []
        for m, mat in enumerate(mats):
            grid = []
            for i, row in enumerate(_list(mat, f"acting_matrices.rept[{m}]", dim)):
                cells = _list(row, f"acting_matrices.rept[{m}][{i}]", dim)
                grid.append(
                    [_expr(c, ptab, f"acting_matrices.rept[{m}][{i}][{j}]")
                     for j, c in enumerate(cells)]
                )
            parsed_mats.append(grid)
        rept = MatrixRep.from_rows(parsed_mats)

    Pg = _parse_field(_obj(_get(doc, "group_field", "root"), "group_field"),
                      coords, "group", tab, "group_field")
    Pgt = _parse_field(_obj(_get(doc, "dual_group_field", "root"), "dual_group_field"),
                       coords, "dual_group", tab, "dual_group_field")

    charts = _obj(_get(doc, "charts", "root"), "charts")

    def chart_exprs(side: str, block: str) -> tuple:
        body = _obj(_get(charts, side, "charts"), f"charts.{side}")
        items = _list(_get(body, "exprs", f"charts.{side}"), f"charts.{side}.exprs", dim)
        return tuple(
            _expr(t, tab(block), f"charts.{side}.exprs[{k}]") for k, t in enumerate(items)
        )

    chart_g = chart_exprs("group", "group")
    chart_gt = chart_exprs("dual_group", "dual_group")

    dyn = _obj(_get(doc, "dynamical_functions", "root"), "dynamical_functions")

    def dyn_side(side: str, chart_block: str, group_block: str):
        body = _obj(_get(dyn, side, "dynamical_functions"), f"dynamical_functions.{side}")
        base = f"dynamical_functions.{side}"
        chart = _list(_get(body, "chart_exprs", base), f"{base}.chart_exprs", dim)
        disp = _list(_get(body, "display_exprs", base), f"{base}.display_exprs", dim)
        parsed_chart = tuple(
            _expr(t, tab(chart_block), f"{base}.chart_exprs[{k}]") for k, t in enumerate(chart)
        )
        parsed_disp = tuple(
            None if t is None else _expr(t, tab(group_block), f"{base}.display_exprs[{k}]")
            for k, t in enumerate(disp)
        )
        return parsed_chart, parsed_disp

    S_chart, S_display = dyn_side("group_side", "chart", "group")
    St_chart, St_display = dyn_side("dual_side", "dual_chart", "dual_group")

    cmap_doc = _obj(_get(doc, "coordinate_map", "root"), "coordinate_map")
    cmap = CoordinateMap(
        coords["dual_group"],
        coords["group"],
        tuple(
            _expr(t, tab("dual_group"), f"coordinate_map.exprs[{k}]")
            for k, t in enumerate(_list(_get(cmap_doc, "exprs", "coordinate_map"),
                                        "coordinate_map.exprs", dim))
        ),
    )

    zmap = None
    zdoc = doc.get("chart_map")
    if zdoc is not None:
        zmap = CoordinateMap(
            coords["chart"],
            coords["dual_chart"],
            tuple(
                _expr(t, tab("chart"), f"chart_map.exprs[{k}]")
                for k, t in enumerate(_list(_get(_obj(zdoc, "chart_map"), "exprs", "chart_map"),
                                            "chart_map.exprs", dim))
            ),
        )

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
        inv_g = tuple(
            _expr(t, tab("chart"), f"invariants.group_side[{k}]")
            for k, t in enumerate(_list(_get(idoc, "group_side", "invariants"),
                                        "invariants.group_side"))
        )
        inv_gt = tuple(
            _expr(t, tab("dual_chart"), f"invariants.dual_side[{k}]")
            for k, t in enumerate(_list(_get(idoc, "dual_side", "invariants"),
                                        "invariants.dual_side"))
        )

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
        coeffs = tuple(
            tuple(
                _expr(c, ptab, f"expected.classification.coefficients[{i}][{j}]")
                for j, c in enumerate(
                    _list(row, f"expected.classification.coefficients[{i}]", dim))
            )
            for i, row in enumerate(_list(cdoc, "expected.classification.coefficients", dim))
        )
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


def _exact_result(name: str, rep, detail: str = "") -> CheckResult:
    witness = None
    if rep.witness is not None:
        idx, env = rep.witness
        witness = {"@index": str(tuple(idx)), **_str_env(env)}
    status = "pass" if rep.ok else "fail"
    return CheckResult(name, status, float(abs(rep.max_abs)), witness, detail)


def _zero_result(name: str, rep, detail: str = "") -> CheckResult:
    witness = None
    if rep.witness is not None:
        witness = dict(_str_env(rep.witness))
        if rep.witness_index is not None:
            witness["@residual"] = str(rep.witness_index)
    status = "pass" if rep.zero else "fail"
    return CheckResult(name, status, float(rep.max_residual), witness, detail)


def _bool_result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", 0.0, None, detail)


class _Collector:
    def __init__(self) -> None:
        self.checks: list[CheckResult] = []

    def skip(self, name: str, reason: str) -> None:
        self.checks.append(CheckResult(name, "skip", 0.0, None, reason))

    def run(self, name: str, fn: Callable[[], CheckResult]) -> None:
        # a crash in any single check is a finding, not an abort
        try:
            self.checks.append(fn())
        except Exception as exc:
            self.checks.append(
                CheckResult(name, "fail", math.inf, None, f"{type(exc).__name__}: {exc}")
            )


def _compose(exprs: Sequence[Expression], coords: Sequence[Symbol],
             values: Sequence[Expression]) -> list[Expression]:
    smap = {s.name: v for s, v in zip(coords, values)}
    return [subst(e, smap) for e in exprs]


def _families_label(families: Sequence[tuple]) -> str:
    return "{" + ", ".join("(" + ", ".join(str(i) for i in fam) + ")" for fam in families) + "}"


def verify_entry(entry: CatalogEntry, config: VerifyConfig | None = None) -> VerificationReport:
    """Run the full check ladder on one entry.

    Order: structure tables, classical matrices, two-forms and fields, the
    dynamical systems on both sides, the cross-space exchange, conserved
    flows.  Checks whose inputs are absent from the entry are reported as
    skips; checks that raise are reported as failures with the exception in
    the detail, so the report always covers the whole ladder.
    """
    cfg = config or VerifyConfig()
    started = time.perf_counter()
    col = _Collector()
    A = default_assignments(entry.params, count=cfg.exact_samples, seed=cfg.seed)
    dim = entry.dim
    zc = entry.coords["chart"]
    ztc = entry.coords["dual_chart"]

    # structure tables
    col.run("liealg.antisymmetry.g", lambda: _exact_result(
        "liealg.antisymmetry.g", check_antisymmetry(entry.g, A)))
    col.run("liealg.antisymmetry.gdual", lambda: _exact_result(
        "liealg.antisymmetry.gdual", check_antisymmetry(entry.gdual, A)))
    col.run("liealg.jacobi.g", lambda: _exact_result(
        "liealg.jacobi.g", check_jacobi(entry.g, A)))
    col.run("liealg.jacobi.gdual", lambda: _exact_result(
        "liealg.jacobi.gdual", check_jacobi(entry.gdual, A)))

    def manin() -> CheckResult:
        rep = verify_manin_triple(entry.bialgebra, A)
        worse = rep.jacobi if not rep.jacobi.ok else rep.ad_invariance
        parts = []
        if not rep.jacobi.ok:
            parts.append("double bracket fails its own closure")
        if not rep.ad_invariance.ok:
            parts.append("pairing is not invariant under the double")
        return _exact_result("liealg.manin_triple", worse if not rep.ok else rep.jacobi,
                             "; ".join(parts))
    col.run("liealg.manin_triple", manin)

    col.run("liealg.basis_change.invertible", lambda: _exact_result(
        "liealg.basis_change.invertible", entry.C.check_invertible(A)))

    def transport() -> CheckResult:
        moved = apply_isomorphism(entry.C, entry.g)
        worst = Fraction(0)
        witness = None
        for env in A:
            got = moved.evaluated(env)
            want = entry.gdual.evaluated(env)
            for i in range(dim):
                for j in range(dim):
                    for k in range(dim):
                        diff = abs(got[i][j][k] - want[i][j][k])
                        if diff > worst:
                            worst = diff
                            witness = {"@index": str((i, j, k)), **_str_env(env)}
        status = "pass" if worst == 0 else "fail"
        return CheckResult("liealg.basis_change.transport", status, float(worst), witness)
    col.run("liealg.basis_change.transport", transport)

    if entry.rept is None:
        col.skip("liealg.representation", "no acting matrices stored")
        col.skip("liealg.representation.transported", "no acting matrices stored")
    else:
        col.run("liealg.representation", lambda: _exact_result(
            "liealg.representation", check_representation(entry.rept, entry.gdual, A)))
        col.run("liealg.representation.transported", lambda: _exact_result(
            "liealg.representation.transported",
            check_representation(transport_rep(entry.C, entry.rept), entry.g, A)))

    # classical matrices
    lowered_gdual = StructureConstants(dim, entry.gdual.entries, "lower")
    if entry.rt is None:
        col.skip("rmatrix.cybe.dual", "no classical matrix stored for the dual table")
        col.skip("rmatrix.cobracket", "no classical matrix stored for the dual table")
    else:
        col.run("rmatrix.cybe.dual", lambda: _exact_result(
            "rmatrix.cybe.dual", cybe_residual(entry.rt, lowered_gdual, A)))

        def cobracket() -> CheckResult:
            cand = cobracket_from_r(entry.rt, lowered_gdual)
            jac = check_jacobi(cand, A)
            man = verify_manin_triple(LieBialgebra(lowered_gdual, cand), A)
            ok = jac.ok and man.ok
            worst = max(jac.max_abs, man.jacobi.max_abs, man.ad_invariance.max_abs)
            detail = "" if ok else "induced cobracket is not a compatible dual bracket"
            return CheckResult("rmatrix.cobracket", "pass" if ok else "fail",
                               float(worst), None, detail)
        col.run("rmatrix.cobracket", cobracket)
    if entry.r is None:
        col.skip("rmatrix.cybe.bracket", "no classical matrix stored for the bracket table")
    else:
        col.run("rmatrix.cybe.bracket", lambda: _exact_result(
            "rmatrix.cybe.bracket", cybe_residual(entry.r, entry.g, A)))

    # two-forms and group-level fields
    for side, form, tensor in (
        ("g", entry.omega_g, entry.g),
        ("gdual", entry.omega_gdual, lowered_gdual),
    ):
        if form is None:
            col.skip(f"symplectic.closure.{side}", "no two-form stored")
            col.skip(f"symplectic.nondegenerate.{side}", "no two-form stored")
            continue
        col.run(f"symplectic.closure.{side}", lambda f=form, t=tensor, s=side: _exact_result(
            f"symplectic.closure.{s}", closure_residual(f, t, A).cyclic))
        col.run(f"symplectic.nondegenerate.{side}", lambda f=form, s=side: _exact_result(
            f"symplectic.nondegenerate.{s}", check_nondegenerate(f, A)))

    for side, fieldP in (("group", entry.Pg), ("dual_group", entry.Pgt)):
        col.run(f"symplectic.field_skew.{side}", lambda P=fieldP, s=side: _zero_result(
            f"symplectic.field_skew.{s}", check_field_skew(P, seed=cfg.seed, trials=cfg.trials)))
        col.run(f"symplectic.field_jacobi.{side}", lambda P=fieldP, s=side: _zero_result(
            f"symplectic.field_jacobi.{s}",
            jacobi_residual_field(P, seed=cfg.seed, trials=cfg.trials)))

    # dynamical systems, group side then dual side
    S_group = _compose(entry.S_chart, zc, entry.chart_g)
    St_group = _compose(entry.St_chart, ztc, entry.chart_gt)

    for side, fieldP, chart in (("group", entry.Pg, entry.chart_g),
                                ("dual_group", entry.Pgt, entry.chart_gt)):
        def darboux(P=fieldP, ch=chart, s=side) -> CheckResult:
            rep = check_darboux(P, DarbouxChart(tuple(ch)), seed=cfg.seed, trials=cfg.trials)
            bad = [pair for pair, _, inner in rep.results if not inner.zero]
            detail = "" if rep.ok else f"square-bracket pairs off at {bad}"
            return CheckResult(f"dynsys.darboux.{s}", "pass" if rep.ok else "fail",
                               rep.max_residual, None, detail)
        col.run(f"dynsys.darboux.{side}", darboux)

    for side, fieldP, funcs, target in (
        ("group", entry.Pg, S_group, entry.gdual),
        ("dual_group", entry.Pgt, St_group, entry.g),
    ):
        col.run(f"dynsys.symmetry.{side}", lambda P=fieldP, F=funcs, t=target, s=side: _zero_result(
            f"dynsys.symmetry.{s}",
            symmetry_residual(DynamicalSystem(P, tuple(F), t), seed=cfg.seed, trials=cfg.trials)))

    for side, displays, composed, block in (
        ("group", entry.S_display, S_group, "group"),
        ("dual_group", entry.St_display, St_group, "dual_group"),
    ):
        name = f"dynsys.display.{side}"
        slots = [k for k, d in enumerate(displays) if d is not None]
        if not slots:
            col.skip(name, "no closed-form displays stored")
            continue

        def display(ds=displays, comp=composed, ks=slots, nm=name, blk=block) -> CheckResult:
            residuals = [sum_of([ds[k], Rat(-1) * comp[k]]) for k in ks]
            domain = SampleDomain(coords=entry.coords[blk], params=entry.params)
            rep = equiv_zero(residuals, domain, seed=cfg.seed, trials=cfg.trials)
            return _zero_result(nm, rep, f"slots {ks}")
        col.run(name, display)

    for side, chart_coords, funcs, expected, target in (
        ("group", zc, entry.S_chart, entry.expected_families_group, entry.gdual),
        ("dual_group", ztc, entry.St_chart, entry.expected_families_dual, entry.g),
    ):
        def involutive(cs=chart_coords, F=funcs, want=expected, t=target, s=side) -> CheckResult:
            sys = DynamicalSystem(canonical_field(cs), tuple(F), t)
            got = tuple(find_involutive_pairs(sys, seed=cfg.seed, trials=cfg.trials))
            ok = got == tuple(want)
            detail = ("" if ok else
                      f"found {_families_label(got)}, expected {_families_label(want)}")
            return _bool_result(f"dynsys.involutive.{s}", ok, detail)
        col.run(f"dynsys.involutive.{side}", involutive)

    # flatness matrices and trace identities
    if entry.rt is None or entry.rept is None:
        col.skip("dynsys.q_matrix", "needs both a dual-table classical matrix and acting matrices")
    else:
        def q_group() -> CheckResult:
            Q = build_Q(entry.S_chart, entry.rt, entry.rept)
            rep = sts_residual(Q, entry.rt, entry.rept, canonical_field(zc),
                               seed=cfg.seed, trials=cfg.trials)
            return _zero_result("dynsys.q_matrix", rep)
        col.run("dynsys.q_matrix", q_group)
    if entry.r is None or entry.rept is None:
        col.skip("dynsys.q_matrix.dual",
                 "needs both a bracket-table classical matrix and acting matrices")
    else:
        def q_dual() -> CheckResult:
            rep_g = transport_rep(entry.C, entry.rept)
            Qt = build_Q(entry.St_chart, entry.r, rep_g)
            rep = sts_residual(Qt, entry.r, rep_g, canonical_field(ztc),
                               seed=cfg.seed, trials=cfg.trials)
            return _zero_result("dynsys.q_matrix.dual", rep)
        col.run("dynsys.q_matrix.dual", q_dual)

    if entry.rt is None or entry.rept is None or entry.inv_g is None:
        col.skip("dynsys.trace_invariants",
                 "needs a dual-table classical matrix, acting matrices, and invariants")
    else:
        def traces_group() -> CheckResult:
            Q = build_Q(entry.S_chart, entry.rt, entry.rept)
            tr = invariants(Q, kmax=len(entry.inv_g))
            residuals = [sum_of([tr[k], Rat(-1) * entry.inv_g[k]])
                         for k in range(len(entry.inv_g))]
            domain = SampleDomain(coords=zc, params=entry.params)
            return _zero_result("dynsys.trace_invariants",
                                equiv_zero(residuals, domain, seed=cfg.seed, trials=cfg.trials))
        col.run("dynsys.trace_invariants", traces_group)
    if entry.r is None or entry.rept is None or entry.inv_gt is None:
        col.skip("dynsys.trace_invariants.dual",
                 "needs a bracket-table classical matrix, acting matrices, and invariants")
    else:
        def traces_dual() -> CheckResult:
            rep_g = transport_rep(entry.C, entry.rept)
            Qt = build_Q(entry.St_chart, entry.r, rep_g)
            tr = invariants(Qt, kmax=len(entry.inv_gt))
            # power-one trace carries the opposite sign on this side
            signs = [Rat(1) if k else Rat(-1) for k in range(len(entry.inv_gt))]
            residuals = [sum_of([tr[k], Rat(-1) * (signs[k] * entry.inv_gt[k])])
                         for k in range(len(entry.inv_gt))]
            domain = SampleDomain(coords=ztc, params=entry.params)
            return _zero_result("dynsys.trace_invariants.dual",
                                equiv_zero(residuals, domain, seed=cfg.seed, trials=cfg.trials))
        col.run("dynsys.trace_invariants.dual", traces_dual)

    for side, chart_coords, inv in (("group", zc, entry.inv_g),
                                    ("dual_group", ztc, entry.inv_gt)):
        inv_name = f"dynsys.invariant_involution.{side}"
        rank_name = f"dynsys.invariant_independence.{side}"
        if inv is None:
            col.skip(inv_name, "no invariants stored")
            col.skip(rank_name, "no invariants stored")
            continue

        def involution(cs=chart_coords, F=inv, nm=inv_name) -> CheckResult:
            can = canonical_field(cs)
            residuals = [poisson_bracket(can, F[i], F[j])
                         for i in range(len(F)) for j in range(i + 1, len(F))]
            rep = equiv_zero(residuals, field_domain(can, F), seed=cfg.seed, trials=cfg.trials)
            return _zero_result(nm, rep)
        col.run(inv_name, involution)

        def independence(cs=chart_coords, F=inv, nm=rank_name) -> CheckResult:
            rank = independence_rank(cs, F, samples=cfg.exact_samples, seed=cfg.seed)
            return _bool_result(nm, rank == len(F),
                                f"rank {rank} of {len(F)}" if rank != len(F) else "")
        col.run(rank_name, independence)

    # cross-space exchange
    def exchange_stages() -> list[CheckResult]:
        bundle = ExchangeBundle(
            bialg=entry.bialgebra, C=entry.C, cmap=entry.cmap,
            P=entry.Pg, Pt=entry.Pgt, S=tuple(S_group), St=tuple(St_group),
            rt=entry.rt, r=entry.r, rept=entry.rept,
        )
        out = []
        for stage in verify_exchange(bundle, seed=cfg.seed, trials=cfg.trials).stages:
            name = f"exchange.{stage.name}"
            if stage.skipped:
                out.append(CheckResult(name, "skip", 0.0, None, stage.reason))
            else:
                out.append(CheckResult(name, "pass" if stage.ok else "fail",
                                       stage.max_residual))
        return out

    try:
        col.checks.extend(exchange_stages())
    except Exception as exc:
        col.checks.append(CheckResult("exchange.phase_exchange", "fail", math.inf, None,
                                      f"{type(exc).__name__}: {exc}"))

    if entry.zmap is None:
        col.skip("exchange.classification", "no chart-level map stored")
    else:
        def classification() -> CheckResult:
            invA = entry.inv_g if entry.inv_g is not None else entry.S_chart
            invB = entry.inv_gt if entry.inv_gt is not None else entry.St_chart
            record = classify_transformation(
                entry.zmap, invA, invB, canonical_field(zc), canonical_field(ztc),
                seed=cfg.seed, trials=cfg.trials, samples=cfg.class_samples,
            )
            want = entry.expected_class
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
            ok = not problems
            return _bool_result("exchange.classification", ok, "; ".join(problems))
        col.run("exchange.classification", classification)

    # conserved flows
    env0 = default_assignments(entry.params, count=1, seed=cfg.seed)[0]
    smap = {k: Rat(v) for k, v in env0.items()}

    for side, chart_coords, funcs, families, inv in (
        ("group", zc, entry.S_chart, entry.expected_families_group, entry.inv_g),
        ("dual_group", ztc, entry.St_chart, entry.expected_families_dual, entry.inv_gt),
    ):
        pairs = _family_pairs(families)
        name = f"flow.conservation.{side}"
        runs = [(funcs[i], funcs[j]) for i, j in pairs]
        if inv is not None and len(inv) >= 2:
            runs.append((inv[0], inv[1]))
        if not runs:
            col.skip(name, "no conserved pairs declared")
            continue

        def flows(cs=chart_coords, todo=runs, nm=name) -> CheckResult:
            worst = 0.0
            stalled = 0
            for H_raw, F_raw in todo:
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
            detail = f"{len(todo)} flows, worst drift {worst:.3e}"
            if stalled:
                detail += f", {stalled} stopped before t={cfg.horizon}"
            return CheckResult(nm, "pass" if ok else "fail", worst, None, detail)
        col.run(name, flows)

    elapsed = time.perf_counter() - started
    return VerificationReport(
        entry_id=entry.entry_id,
        seed=cfg.seed,
        parameter_samples=tuple(_str_env(env) for env in A),
        checks=tuple(col.checks),
        elapsed=elapsed,
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
