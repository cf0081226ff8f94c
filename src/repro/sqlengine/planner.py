"""Query analysis and access-path planning.

The planner analyzes a ``SELECT`` into a :class:`QueryInfo`, enumerates
the feasible access paths for a given set of (real or hypothetical)
indexes, and picks the cheapest. Each access path is realized as a
:mod:`.plan` operator tree; its cost is whatever the tree's own
:meth:`~repro.sqlengine.plan.PlanNode.estimate` says, and the executor
runs the *same* tree — so the what-if optimizer and the executor can
never cost or pick different plans. :class:`AccessPath` survives as a
thin façade over the plan root (kind/index/cost summary attributes the
advisor and the reports key on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PlanningError, SchemaError, SqlUnsupportedError
from .costmodel import Cost, CostParams
from .index import IndexDef, IndexGeometry, structure_sort_key
from .plan import (Aggregate, FetchHeap, Filter, GroupAggregate, PlanNode,
                   Project, ScanHeap, ScanIndexLeaf, ScanView, SeekIndex,
                   Sort)
from .schema import TableSchema
from .sql.ast import Between, Comparison, OrderBy, SelectStmt
from .stats import TableStats, combined_selectivity
from .types import Value
from .views import ViewDef, ViewGeometry


@dataclass(frozen=True)
class RangeSpec:
    """A (possibly half-open) interval constraint on one column."""

    lo: Optional[Value] = None
    hi: Optional[Value] = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def intersect(self, other: "RangeSpec") -> "RangeSpec":
        lo, lo_inc = self.lo, self.lo_inclusive
        if other.lo is not None and (lo is None or other.lo > lo or
                                     (other.lo == lo and
                                      not other.lo_inclusive)):
            lo, lo_inc = other.lo, other.lo_inclusive
        hi, hi_inc = self.hi, self.hi_inclusive
        if other.hi is not None and (hi is None or other.hi < hi or
                                     (other.hi == hi and
                                      not other.hi_inclusive)):
            hi, hi_inc = other.hi, other.hi_inclusive
        return RangeSpec(lo, hi, lo_inc, hi_inc)


@dataclass(frozen=True)
class QueryInfo:
    """Planner-facing summary of a SELECT statement.

    Predicates are normalized per column: a column has *either* one
    equality constant or one (merged) range, never both, and never two
    conflicting equalities — contradictory conjunctions set
    ``unsatisfiable`` instead (the query provably returns no rows).
    """

    table: str
    select_columns: Tuple[str, ...]       # expanded (no "*")
    referenced_columns: Tuple[str, ...]   # select + predicate columns
    eq_predicates: Dict[str, Value]
    range_predicates: Dict[str, RangeSpec]
    neq_predicates: Tuple[Comparison, ...]
    limit: Optional[int]
    unsatisfiable: bool = False
    aggregates: Tuple = ()                # Aggregate items, if any
    order_by: Optional[OrderBy] = None
    group_by: Optional[str] = None

    @property
    def predicate_columns(self) -> Tuple[str, ...]:
        cols = set(self.eq_predicates) | set(self.range_predicates)
        cols.update(p.column for p in self.neq_predicates)
        return tuple(sorted(cols))


def analyze_select(stmt: SelectStmt, schema: TableSchema) -> QueryInfo:
    """Validate and summarize a SELECT against a schema."""
    if stmt.table != schema.name:
        raise PlanningError(
            f"statement targets {stmt.table!r}, not {schema.name!r}")
    if stmt.aggregates:
        agg_columns = [a.column for a in stmt.aggregates
                       if a.column is not None]
        for column in agg_columns:
            if not schema.has_column(column):
                raise SchemaError(
                    f"unknown column {column!r} in aggregate")
        for aggregate in stmt.aggregates:
            if aggregate.func in ("SUM", "AVG") and \
                    not schema.column(aggregate.column).ctype.is_numeric:
                raise SchemaError(
                    f"{aggregate.func} needs a numeric column, got "
                    f"{aggregate.column!r}")
        if stmt.group_by is not None:
            if not schema.has_column(stmt.group_by):
                raise SchemaError(
                    f"unknown column {stmt.group_by!r} in GROUP BY")
            agg_columns = [stmt.group_by] + agg_columns
        select_columns = tuple(dict.fromkeys(agg_columns))
    elif stmt.group_by is not None:
        raise SqlUnsupportedError(
            "GROUP BY requires aggregate functions")
    elif stmt.columns == ("*",):
        select_columns = tuple(schema.column_names)
    else:
        for column in stmt.columns:
            if not schema.has_column(column):
                raise SchemaError(
                    f"unknown column {column!r} in SELECT list")
        select_columns = stmt.columns
    eq: Dict[str, Value] = {}
    ranges: Dict[str, RangeSpec] = {}
    neq: List[Comparison] = []
    unsatisfiable = False
    if stmt.where is not None:
        for predicate in stmt.where.predicates:
            if not schema.has_column(predicate.column):
                raise SchemaError(
                    f"unknown column {predicate.column!r} in WHERE")
            if isinstance(predicate, Between):
                spec = RangeSpec(lo=predicate.lo, hi=predicate.hi)
                _merge_range(ranges, predicate.column, spec)
            elif predicate.op == "=":
                if predicate.column in eq and \
                        eq[predicate.column] != predicate.value:
                    unsatisfiable = True
                eq[predicate.column] = predicate.value
            elif predicate.op == "!=":
                neq.append(predicate)
            else:
                spec = _range_from_comparison(predicate)
                _merge_range(ranges, predicate.column, spec)
    # Normalize per column: fold equalities into ranges/neqs so that a
    # column carries exactly one kind of constraint (or none).
    for column, value in list(eq.items()):
        if column in ranges:
            if _range_contains(ranges.pop(column), value):
                pass  # equality subsumes the range
            else:
                unsatisfiable = True
        for predicate in neq:
            if predicate.column == column and \
                    predicate.value == value:
                unsatisfiable = True
        neq = [p for p in neq if p.column != column]
    for column, spec in ranges.items():
        if _range_empty(spec):
            unsatisfiable = True
    order_columns: List[str] = []
    if stmt.order_by is not None:
        if stmt.aggregates and stmt.order_by.column != stmt.group_by:
            raise SqlUnsupportedError(
                "with aggregates, ORDER BY is only supported on the "
                "GROUP BY column")
        if not schema.has_column(stmt.order_by.column):
            raise SchemaError(
                f"unknown column {stmt.order_by.column!r} in ORDER BY")
        order_columns.append(stmt.order_by.column)
    referenced = tuple(dict.fromkeys(
        list(select_columns) + list(eq) + list(ranges) +
        [p.column for p in neq] + order_columns))
    return QueryInfo(table=stmt.table, select_columns=select_columns,
                     referenced_columns=referenced, eq_predicates=eq,
                     range_predicates=ranges, neq_predicates=tuple(neq),
                     limit=stmt.limit, unsatisfiable=unsatisfiable,
                     aggregates=stmt.aggregates,
                     order_by=stmt.order_by, group_by=stmt.group_by)


def _range_contains(spec: RangeSpec, value: Value) -> bool:
    if spec.lo is not None:
        if value < spec.lo or (value == spec.lo and
                               not spec.lo_inclusive):
            return False
    if spec.hi is not None:
        if value > spec.hi or (value == spec.hi and
                               not spec.hi_inclusive):
            return False
    return True


def _range_empty(spec: RangeSpec) -> bool:
    if spec.lo is None or spec.hi is None:
        return False
    if spec.lo > spec.hi:
        return True
    return spec.lo == spec.hi and not (spec.lo_inclusive and
                                       spec.hi_inclusive)


def _range_from_comparison(predicate: Comparison) -> RangeSpec:
    op, value = predicate.op, predicate.value
    if op == "<":
        return RangeSpec(hi=value, hi_inclusive=False)
    if op == "<=":
        return RangeSpec(hi=value, hi_inclusive=True)
    if op == ">":
        return RangeSpec(lo=value, lo_inclusive=False)
    return RangeSpec(lo=value, lo_inclusive=True)


def _merge_range(ranges: Dict[str, RangeSpec], column: str,
                 spec: RangeSpec) -> None:
    if column in ranges:
        ranges[column] = ranges[column].intersect(spec)
    else:
        ranges[column] = spec


# ----------------------------------------------------------------------
# selectivity estimation
# ----------------------------------------------------------------------

def predicate_selectivity(info: QueryInfo, stats: TableStats,
                          column: str) -> float:
    """Combined selectivity of all predicates on one column."""
    parts: List[float] = []
    if column in info.eq_predicates:
        parts.append(stats.column(column).selectivity_eq(
            info.eq_predicates[column]))
    if column in info.range_predicates:
        spec = info.range_predicates[column]
        parts.append(stats.column(column).selectivity_range(
            spec.lo, spec.hi, spec.lo_inclusive, spec.hi_inclusive))
    for predicate in info.neq_predicates:
        if predicate.column == column:
            parts.append(1.0 - stats.column(column).selectivity_eq(
                predicate.value))
    return combined_selectivity(parts) if parts else 1.0


def total_selectivity(info: QueryInfo, stats: TableStats) -> float:
    if info.unsatisfiable:
        return 0.0
    return combined_selectivity(
        [predicate_selectivity(info, stats, c)
         for c in info.predicate_columns])


# ----------------------------------------------------------------------
# access paths
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AccessPath:
    """One costed way of answering a query — a thin façade over the
    physical plan tree in ``plan``.

    The summary attributes exist for the advisor, reports, and tests
    that key on them; ``cost`` is exactly ``plan.estimate(...)`` and
    the executor runs exactly ``plan``.

    Attributes:
        kind: ``full_scan``, ``index_seek``, ``index_only_scan`` or
            ``view_scan``.
        index: the index used (None for scans of heap or view).
        cost: estimated cost breakdown.
        est_rows: estimated number of rows returned.
        eq_prefix_len: length of the equality prefix used by a seek.
        uses_range: whether the seek also applies a range on the key
            column right after the equality prefix.
        covering: whether the structure covers all referenced columns.
        view: the projection view scanned (``view_scan`` only).
        provides_order: the access method already emits rows in the
            ORDER BY order (no sort charged).
        plan: the physical-plan operator tree this path realizes.
    """

    kind: str
    index: Optional[IndexDef]
    cost: Cost
    est_rows: float
    eq_prefix_len: int = 0
    uses_range: bool = False
    covering: bool = False
    view: Optional[ViewDef] = None
    provides_order: bool = False
    plan: Optional[PlanNode] = None

    def describe(self, params: CostParams) -> str:
        if self.view is not None:
            target = self.view.label
        else:
            target = self.index.label if self.index else "heap"
        return (f"{self.kind}({target}) "
                f"cost={self.cost.total(params):.2f} "
                f"rows~{self.est_rows:.1f}")


def enumerate_access_paths(
        info: QueryInfo, stats: TableStats,
        indexes: Sequence[Tuple[IndexDef, IndexGeometry]],
        params: CostParams,
        views: Sequence[Tuple[ViewDef, ViewGeometry]] = ()
        ) -> List[AccessPath]:
    """All feasible access paths, sorted cheapest-first.

    Each path carries the realized plan tree; its cost is the tree's
    own estimate. ``views`` pairs
    :class:`~repro.sqlengine.views.ViewDef` with its
    :class:`~repro.sqlengine.views.ViewGeometry`; a view covering every
    referenced column offers a ``view_scan`` over its narrower pages.
    """
    out_rows = stats.nrows * total_selectivity(info, stats)
    paths: List[AccessPath] = [
        _realize(info, stats, params, out_rows, kind="full_scan")]
    for definition, geometry in indexes:
        if definition.table != info.table:
            continue
        paths.extend(_paths_for_index(info, stats, definition, geometry,
                                      out_rows, params))
    for view_def, view_geometry in views:
        if view_def.table != info.table:
            continue
        if view_def.covers(info.referenced_columns):
            paths.append(_realize(
                info, stats, params, out_rows, kind="view_scan",
                covering=True, view=view_def,
                view_geometry=view_geometry))
    paths.sort(key=lambda p: p.cost.total(params))
    return paths


def choose_access_path(
        info: QueryInfo, stats: TableStats,
        indexes: Sequence[Tuple[IndexDef, IndexGeometry]],
        params: CostParams,
        views: Sequence[Tuple[ViewDef, ViewGeometry]] = ()
        ) -> AccessPath:
    return enumerate_access_paths(info, stats, indexes, params,
                                  views)[0]


# ----------------------------------------------------------------------
# relevance extraction
# ----------------------------------------------------------------------

def structure_can_serve(info: QueryInfo, definition) -> bool:
    """Whether a design structure can contribute *any* access path to
    a query — the gate under which :func:`enumerate_access_paths`
    would realize a plan for it.

    It applies the enumeration's own rules (:func:`_index_access`): an
    index serves when it offers a seek (an equality prefix, or a range
    on the column right after the prefix) or an index-only scan
    (covering); a view serves when it covers every referenced column;
    structures on other tables never serve. A structure that does not
    serve adds no path, so its presence or absence cannot change the
    chosen plan or its cost — that equivalence is what the what-if
    layer's relevance signatures are built on.

    Compression never changes *whether* a structure serves (coverage
    and seekability are column properties) — only the page/CPU
    trade-off of its realized paths. Variants at different levels are
    nevertheless distinct candidates end to end: the level is part of
    the definition's identity, so each variant enters the enumeration
    with its own geometry and lands in relevance signatures as its own
    member.
    """
    if definition.table != info.table:
        return False
    if isinstance(definition, ViewDef):
        return definition.covers(info.referenced_columns)
    prefix_len, uses_range, covering = _index_access(info, definition)
    return prefix_len > 0 or uses_range or covering


def relevant_structures(info: QueryInfo,
                        structures) -> Tuple:
    """The subset of ``structures`` that can affect ``info``'s plan,
    as a canonical (sorted) tuple.

    Two configurations with equal relevant subsets present the planner
    with identical ``(definition, geometry)`` path candidates in
    identical order, so they receive bit-identical plan estimates."""
    return tuple(d for d in sorted(structures, key=structure_sort_key)
                 if structure_can_serve(info, d))


def _index_access(info: QueryInfo,
                  definition: IndexDef) -> Tuple[int, bool, bool]:
    """How an index can serve ``info``: ``(prefix_len, uses_range,
    covering)`` — the length of its equality-predicate key prefix,
    whether the next key column carries a range predicate, and
    whether it covers every referenced column."""
    prefix_len = 0
    for column in definition.columns:
        if column in info.eq_predicates:
            prefix_len += 1
        else:
            break
    uses_range = (prefix_len < len(definition.columns) and
                  definition.columns[prefix_len] in
                  info.range_predicates)
    return (prefix_len, uses_range,
            definition.covers(info.referenced_columns))


def _paths_for_index(info: QueryInfo, stats: TableStats,
                     definition: IndexDef, geometry: IndexGeometry,
                     out_rows: float,
                     params: CostParams) -> List[AccessPath]:
    paths: List[AccessPath] = []
    prefix_len, uses_range, covering = _index_access(info, definition)
    # --- index seek: equality prefix (+ optional next-column range) ---
    if prefix_len > 0 or uses_range:
        paths.append(_realize(
            info, stats, params, out_rows, kind="index_seek",
            index=definition, geometry=geometry,
            eq_prefix_len=prefix_len, uses_range=uses_range,
            covering=covering))
    # --- index-only scan over a covering index ---
    if covering:
        paths.append(_realize(
            info, stats, params, out_rows, kind="index_only_scan",
            index=definition, geometry=geometry, covering=True))
    return paths


# ----------------------------------------------------------------------
# plan realization
# ----------------------------------------------------------------------

def _realize(info: QueryInfo, stats: TableStats, params: CostParams,
             out_rows: float, kind: str,
             index: Optional[IndexDef] = None,
             geometry: Optional[IndexGeometry] = None,
             eq_prefix_len: int = 0, uses_range: bool = False,
             covering: bool = False, view: Optional[ViewDef] = None,
             view_geometry: Optional[ViewGeometry] = None
             ) -> AccessPath:
    """Build the operator pipeline for one access method and wrap it
    in the :class:`AccessPath` façade, costed by its own estimate."""
    provides_order = (info.order_by is not None and
                      _order_provided(info, kind, index, eq_prefix_len))
    root = _build_pipeline(info, kind, index, geometry, eq_prefix_len,
                           uses_range, covering, view, view_geometry,
                           out_rows, provides_order)
    return AccessPath(kind=kind, index=index,
                      cost=root.estimate(stats, params),
                      est_rows=out_rows, eq_prefix_len=eq_prefix_len,
                      uses_range=uses_range, covering=covering,
                      view=view, provides_order=provides_order,
                      plan=root)


def _order_provided(info: QueryInfo, kind: str,
                    index: Optional[IndexDef],
                    eq_prefix_len: int) -> bool:
    """Does this access method already emit rows in ORDER BY order?"""
    column = info.order_by.column
    if column in info.eq_predicates:
        return True    # constant column: any order qualifies
    if index is not None and kind == "index_seek":
        key = index.columns
        return eq_prefix_len < len(key) and key[eq_prefix_len] == column
    if index is not None and kind == "index_only_scan":
        return index.columns[0] == column
    return False


def _build_pipeline(info: QueryInfo, kind: str,
                    index: Optional[IndexDef],
                    geometry: Optional[IndexGeometry],
                    eq_prefix_len: int, uses_range: bool,
                    covering: bool, view: Optional[ViewDef],
                    view_geometry: Optional[ViewGeometry],
                    out_rows: float, provides_order: bool) -> PlanNode:
    node: PlanNode
    if kind == "full_scan":
        node = ScanHeap(info)
    elif kind == "view_scan":
        node = ScanView(info, view, view_geometry.n_pages)
    elif kind == "index_seek":
        node = SeekIndex(info, index, geometry, eq_prefix_len,
                         uses_range)
        node = _filter_residual(node, info, index, eq_prefix_len,
                                uses_range)
        if not covering:
            node = FetchHeap(node, info, index, eq_prefix_len,
                             uses_range)
    elif kind == "index_only_scan":
        node = Filter(ScanIndexLeaf(index, geometry),
                      eq=tuple(info.eq_predicates.items()),
                      ranges=tuple(info.range_predicates.items()),
                      neq=tuple((p.column, p.value)
                                for p in info.neq_predicates))
        if not (node.eq or node.ranges or node.neq):
            node = node.child
    else:
        raise PlanningError(f"unknown access-path kind {kind!r}")
    if info.order_by is not None:
        node = Sort(node, info.order_by.column,
                    info.order_by.descending, provides_order, out_rows)
    node = Project(node, info)
    if info.aggregates:
        if info.group_by is not None:
            node = GroupAggregate(node, info)
        else:
            node = Aggregate(node, info)
    return node


def _filter_residual(node: PlanNode, info: QueryInfo, index: IndexDef,
                     eq_prefix_len: int, uses_range: bool) -> PlanNode:
    """Residual predicates a seek evaluates on the leaf entries before
    any heap fetch: predicates on *other key columns*, plus ``!=`` on
    any key column (the seek bounds cannot express them)."""
    seek_columns = set(index.columns[:eq_prefix_len])
    if uses_range:
        seek_columns.add(index.columns[eq_prefix_len])
    eq: List[Tuple[str, Value]] = []
    ranges: List[Tuple[str, RangeSpec]] = []
    neq: List[Tuple[str, Value]] = []
    for column in index.columns:
        for predicate in info.neq_predicates:
            if predicate.column == column:
                neq.append((column, predicate.value))
        if column in seek_columns:
            continue
        if column in info.eq_predicates:
            eq.append((column, info.eq_predicates[column]))
        if column in info.range_predicates:
            ranges.append((column, info.range_predicates[column]))
    if not (eq or ranges or neq):
        return node
    return Filter(node, eq=tuple(eq), ranges=tuple(ranges),
                  neq=tuple(neq))
