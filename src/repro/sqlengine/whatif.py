"""What-if optimization: costing statements under hypothetical designs.

This is the engine's equivalent of SQL Server's hypothetical indexes /
PostgreSQL's HypoPG: an index that exists only as statistics-derived
geometry. A hypothetical structure is pure *catalog substitution*: the
planner is handed ``(IndexDef, IndexGeometry)`` pairs and realizes the
same :mod:`~repro.sqlengine.plan` operator trees it would for deployed
structures, costed by the trees' own estimates. The what-if estimate
for a configuration is therefore the cost of the *literal plan object*
the executor would run if the configuration were deployed — the
``planidentity`` verify check asserts the two trees compare equal.

The :class:`WhatIfOptimizer` provides the three quantities the paper's
problem definition needs:

* ``EXEC(S, C)`` — :meth:`estimate_statement`,
* ``TRANS(C1, C2)`` — :meth:`transition_cost`,
* ``SIZE(C)`` — :meth:`configuration_size_bytes`.

Batched consumers (the :class:`~repro.core.costservice.CostService`)
additionally use the *template* entry points — statements are reduced
to a canonical :class:`StatementTemplate` whose key folds predicate
constants into the selectivities they induce; two statements with equal
template keys receive identical what-if estimates, so each template is
estimated once per configuration instead of once per statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..errors import CatalogError, SqlUnsupportedError
from .costmodel import (Cost, CostParams, ZERO_COST, cost_build_index,
                        cost_build_view, cost_drop_index,
                        cost_full_scan, cost_insert, cost_sort)
from .index import IndexDef, IndexGeometry, structure_sort_key
from .plan import PlanNode
from .views import ViewDef, ViewGeometry
from .planner import (AccessPath, QueryInfo, analyze_select,
                      choose_access_path, relevant_structures,
                      total_selectivity)
from .schema import TableSchema
from .sql.ast import (DeleteStmt, InsertStmt, SelectStmt, Statement,
                      UpdateStmt)
from .stats import TableStats


@dataclass(frozen=True)
class PlanEstimate:
    """Outcome of a what-if costing call.

    ``plan`` is the physical-plan tree the estimate was read off —
    structurally equal to the tree the executor would run under the
    same configuration (``None`` for statements costed without a plan,
    e.g. INSERT).
    """

    cost: Cost
    access_path: Optional[AccessPath]
    units: float
    plan: Optional[PlanNode] = None

    def __float__(self) -> float:
        return self.units


@dataclass(frozen=True)
class StatementTemplate:
    """Canonical cost shape of a statement.

    Two statements share a template exactly when the cost model cannot
    tell them apart: same statement kind, table, selected columns,
    aggregates/ordering/grouping, and — the folding step — the same
    per-column predicate *selectivities*. Constants themselves are
    discarded; only the exact selectivity each predicate induces under
    the current statistics is kept, so estimating the representative
    statement yields the bit-identical result every member of the
    template would get.

    Attributes:
        key: hashable signature (the dedup/cache key).
        representative: parsed AST of one member statement, used to
            actually run the estimate.
    """

    key: Tuple
    representative: Statement = field(compare=False, repr=False)


class WhatIfOptimizer:
    """Costs statements under arbitrary (hypothetical) configurations.

    Args:
        schemas: table name -> schema.
        stats: table name -> current statistics.
        params: cost-model weights.
    """

    def __init__(self, schemas: Mapping[str, TableSchema],
                 stats: Mapping[str, TableStats],
                 params: Optional[CostParams] = None,
                 fault_injector=None):
        self._schemas = dict(schemas)
        self._stats = dict(stats)
        self.params = params or CostParams()
        #: Optional :class:`~repro.faults.injector.FaultInjector`;
        #: when set, every estimate entry is an ``estimate`` fault
        #: site (raising :class:`EstimationUnavailable`).
        self.fault_injector = fault_injector
        self._geometry_cache: Dict[Tuple[IndexDef, int], IndexGeometry] = {}
        self._analyze_cache: Dict[SelectStmt, QueryInfo] = {}
        #: Bumped whenever statistics change; template keys computed
        #: under an older epoch are stale (selectivities moved).
        self.stats_epoch = 0

    # ------------------------------------------------------------------
    # EXEC
    # ------------------------------------------------------------------

    def estimate_statement(self, stmt: Statement,
                           config: Iterable[IndexDef]) -> PlanEstimate:
        """Estimate the execution cost of ``stmt`` under ``config``.

        Raises :class:`~repro.errors.EstimationUnavailable` when a
        fault injector is attached and fires at the ``estimate`` site
        (modelling what-if timeouts); callers degrade via
        :meth:`scan_upper_bound`.
        """
        if self.fault_injector is not None:
            self.fault_injector.on_estimate(
                getattr(stmt, "table", None))
        config = frozenset(config)
        if isinstance(stmt, SelectStmt):
            return self._estimate_select(stmt, config)
        if isinstance(stmt, InsertStmt):
            return self._estimate_insert(stmt, config)
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            return self._estimate_write_with_where(stmt, config)
        raise SqlUnsupportedError(
            f"what-if costing does not support {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # templates (the batched-estimation entry point)
    # ------------------------------------------------------------------

    def statement_template(self, stmt: Statement) -> StatementTemplate:
        """Reduce the parsed ``stmt`` to its
        :class:`StatementTemplate`."""
        if isinstance(stmt, SelectStmt):
            key = ("select", self._select_signature(stmt))
            return StatementTemplate(key=key, representative=stmt)
        if isinstance(stmt, InsertStmt):
            # Row *values* never enter the insert cost model — only the
            # target table and the row count do.
            key = ("insert", stmt.table, len(stmt.rows))
            return StatementTemplate(key=key, representative=stmt)
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            # Writes cost like a SELECT * probe plus a per-affected-row
            # write term; SET values are irrelevant, the WHERE shape is
            # everything.
            schema = self._schema_for(stmt.table)
            probe = SelectStmt(table=stmt.table,
                               columns=tuple(schema.column_names),
                               where=stmt.where)
            key = (type(stmt).__name__.lower(),
                   self._select_signature(probe))
            return StatementTemplate(key=key, representative=stmt)
        raise SqlUnsupportedError(
            f"what-if costing does not support {type(stmt).__name__}")

    def estimate_template(self, template: StatementTemplate,
                          config: Iterable[IndexDef]) -> PlanEstimate:
        """Estimate one template's cost under ``config`` (by costing
        its representative statement)."""
        return self.estimate_statement(template.representative, config)

    # ------------------------------------------------------------------
    # relevance signatures (atomic cost decomposition)
    # ------------------------------------------------------------------

    def relevance_signature(self, template: StatementTemplate,
                            config: Iterable[IndexDef]) -> Tuple:
        """The part of ``config`` that can possibly affect the
        template's estimate, as a hashable signature.

        Contract: two configurations with equal signatures yield
        **bit-identical** :meth:`estimate_template` results, because
        the estimate reads only what the signature captures:

        * SELECT — the sorted subset of structures that can serve the
          statement (:func:`~repro.sqlengine.planner.
          structure_can_serve`); non-serving structures contribute no
          access path, so the planner's cheapest-path choice is a pure
          function of this subset (plus statistics). Compression is
          part of each structure's identity, so variants are distinct
          signature members automatically.
        * INSERT — the maintenance cost is a function of the on-table
          structures' count *and compression levels* (decode/encode
          surcharge), so the signature is the sorted multiset of
          levels; its length recovers the historical count.
        * UPDATE/DELETE — the serving subset of the SELECT-* probe
          (row location) plus the on-table level multiset (write
          maintenance).

        Signature-keyed caches therefore collapse the what-if work
        from O(templates x |C|) to O(templates x relevant subsets)
        without changing a single estimate.
        """
        stmt = template.representative
        structures = frozenset(config)
        if isinstance(stmt, SelectStmt):
            info = self._analyze(stmt)
            return ("select", relevant_structures(info, structures))
        if isinstance(stmt, InsertStmt):
            return ("insert", stmt.table,
                    _maintenance_levels(structures, stmt.table))
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            schema = self._schema_for(stmt.table)
            probe = SelectStmt(table=stmt.table,
                               columns=tuple(schema.column_names),
                               where=stmt.where)
            info = self._analyze(probe)
            return ("write", relevant_structures(info, structures),
                    _maintenance_levels(structures, stmt.table))
        raise SqlUnsupportedError(
            f"what-if costing does not support {type(stmt).__name__}")

    def _select_signature(self, stmt: SelectStmt) -> Tuple:
        """The selectivity-folded signature of a SELECT.

        Every quantity the planner derives from the statement is a
        function of this tuple (plus table statistics): output columns,
        aggregate/order/group shape, and — per predicate column — the
        constraint kinds with their selectivities, in the exact order
        ``predicate_selectivity`` multiplies them.
        """
        info = self._analyze(stmt)
        stats = self._stats_for(stmt.table)
        columns = sorted(set(info.eq_predicates)
                         | set(info.range_predicates)
                         | {p.column for p in info.neq_predicates})
        predicate_parts = []
        for column in columns:
            parts: List[Tuple[str, float]] = []
            column_stats = stats.column(column)
            if column in info.eq_predicates:
                parts.append(("eq", column_stats.selectivity_eq(
                    info.eq_predicates[column])))
            if column in info.range_predicates:
                spec = info.range_predicates[column]
                parts.append(("range", column_stats.selectivity_range(
                    spec.lo, spec.hi, spec.lo_inclusive,
                    spec.hi_inclusive)))
            for predicate in info.neq_predicates:
                if predicate.column == column:
                    parts.append(("neq", column_stats.selectivity_eq(
                        predicate.value)))
            predicate_parts.append((column, tuple(parts)))
        order = None
        if info.order_by is not None:
            order = (info.order_by.column, info.order_by.descending)
        return (stmt.table, info.select_columns, info.aggregates,
                info.group_by, order, info.limit, info.unsatisfiable,
                tuple(predicate_parts))

    def _estimate_select(self, stmt: SelectStmt,
                         config: FrozenSet[IndexDef]) -> PlanEstimate:
        info = self._analyze(stmt)
        stats = self._stats_for(stmt.table)
        indexes, views = self._geometries(stmt.table, config)
        path = choose_access_path(info, stats, indexes, self.params,
                                  views=views)
        return PlanEstimate(cost=path.cost, access_path=path,
                            units=path.cost.total(self.params),
                            plan=path.plan)

    def _estimate_insert(self, stmt: InsertStmt,
                         config: FrozenSet[IndexDef]) -> PlanEstimate:
        stats = self._stats_for(stmt.table)
        n_indexes = sum(1 for d in config if d.table == stmt.table)
        surcharge = _maintenance_surcharge(config, stmt.table)
        one = cost_insert(stats, n_indexes, self.params, surcharge)
        cost = Cost(one.page_reads * len(stmt.rows),
                    one.page_writes * len(stmt.rows),
                    one.cpu_units * len(stmt.rows))
        return PlanEstimate(cost=cost, access_path=None,
                            units=cost.total(self.params))

    def _estimate_write_with_where(self, stmt, config) -> PlanEstimate:
        """UPDATE/DELETE: locate rows like a SELECT *, then write."""
        schema = self._schema_for(stmt.table)
        probe = SelectStmt(table=stmt.table,
                           columns=tuple(schema.column_names),
                           where=stmt.where)
        info = self._analyze(probe)
        stats = self._stats_for(stmt.table)
        indexes, views = self._geometries(stmt.table, config)
        path = choose_access_path(info, stats, indexes, self.params,
                                  views=views)
        affected = stats.nrows * total_selectivity(info, stats)
        n_indexes = sum(1 for d in config if d.table == stmt.table)
        surcharge = _maintenance_surcharge(config, stmt.table)
        # The surcharge rides as an additive term (exactly 0.0 for an
        # all-NONE design) so the uncompressed write estimate is
        # bitwise the pre-compression one.
        write = Cost(page_writes=affected * (1.0 + n_indexes),
                     cpu_units=affected * self.params.cpu_tuple_cost *
                     (1 + n_indexes) +
                     affected * self.params.cpu_tuple_cost * surcharge)
        cost = path.cost + write
        return PlanEstimate(cost=cost, access_path=path,
                            units=cost.total(self.params),
                            plan=path.plan)

    # ------------------------------------------------------------------
    # degraded estimation
    # ------------------------------------------------------------------

    def scan_upper_bound(self, stmt: Statement,
                         config: Iterable[IndexDef] = ()) -> float:
        """A pessimistic cost bound computed from statistics alone.

        The last rung of the degradation ladder: when real estimation
        is unavailable, charge the statement as if no index helped —
        a full heap scan (plus a full sort for ordered/grouped
        queries, plus worst-case write maintenance for DML). Never
        consults the fault injector and never underestimates the
        planner's choice, so degraded consumers err toward caution.
        """
        stats = self._stats_for(
            getattr(stmt, "table", None) or "")
        if isinstance(stmt, SelectStmt):
            cost = cost_full_scan(stats, self.params)
            if stmt.order_by is not None or stmt.group_by is not None:
                cost = cost + cost_sort(stats.nrows, self.params)
            return cost.total(self.params)
        structures = frozenset(config)
        n_indexes = sum(1 for d in structures
                        if d.table == stmt.table)
        surcharge = _maintenance_surcharge(structures, stmt.table)
        if isinstance(stmt, InsertStmt):
            one = cost_insert(stats, n_indexes, self.params,
                              surcharge)
            cost = Cost(one.page_reads * len(stmt.rows),
                        one.page_writes * len(stmt.rows),
                        one.cpu_units * len(stmt.rows))
            return cost.total(self.params)
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            # Worst case: every row qualifies and every structure is
            # maintained (compressed ones at their decode surcharge).
            cost = cost_full_scan(stats, self.params) + Cost(
                page_writes=stats.nrows * (1.0 + n_indexes),
                cpu_units=stats.nrows * self.params.cpu_tuple_cost *
                (1 + n_indexes) +
                stats.nrows * self.params.cpu_tuple_cost * surcharge)
            return cost.total(self.params)
        raise SqlUnsupportedError(
            f"no upper bound for {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # TRANS and SIZE
    # ------------------------------------------------------------------

    def transition_cost(self, old_config: Iterable[IndexDef],
                        new_config: Iterable[IndexDef]) -> Cost:
        """Cost of changing the physical design: build what's new,
        drop what's gone."""
        old, new = frozenset(old_config), frozenset(new_config)
        cost = ZERO_COST
        for definition in sorted(new - old, key=structure_sort_key):
            stats = self._stats_for(definition.table)
            geometry = self._geometry(definition)
            if isinstance(definition, ViewDef):
                cost = cost + cost_build_view(
                    stats, geometry.n_pages, self.params,
                    geometry.build_cpu_factor)
            else:
                cost = cost + cost_build_index(stats, geometry,
                                               self.params)
        for _definition in sorted(old - new, key=structure_sort_key):
            cost = cost + cost_drop_index(self.params)
        return cost

    def transition_units(self, old_config: Iterable[IndexDef],
                         new_config: Iterable[IndexDef]) -> float:
        return self.transition_cost(old_config, new_config).total(
            self.params)

    def index_size_bytes(self, definition: IndexDef) -> int:
        return self._geometry(definition).size_bytes

    def configuration_size_bytes(self,
                                 config: Iterable[IndexDef]) -> int:
        return sum(self.index_size_bytes(d) for d in frozenset(config))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def refresh_stats(self, stats: Mapping[str, TableStats]) -> None:
        """Swap in new statistics (invalidates geometry caches and
        bumps the stats epoch so cached templates go stale)."""
        self._stats = dict(stats)
        self._geometry_cache.clear()
        self.stats_epoch += 1

    def _schema_for(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise CatalogError(f"unknown table {table!r}") from None

    def _stats_for(self, table: str) -> TableStats:
        try:
            return self._stats[table]
        except KeyError:
            raise CatalogError(
                f"no statistics for table {table!r}") from None

    def _analyze(self, stmt: SelectStmt) -> QueryInfo:
        info = self._analyze_cache.get(stmt)
        if info is None:
            info = analyze_select(stmt, self._schema_for(stmt.table))
            self._analyze_cache[stmt] = info
        return info

    def _geometry(self, definition):
        stats = self._stats_for(definition.table)
        key = (definition, stats.nrows)
        geometry = self._geometry_cache.get(key)
        if geometry is None:
            schema = self._schema_for(definition.table)
            if isinstance(definition, ViewDef):
                geometry = ViewGeometry.compute(
                    schema, definition.columns, stats.nrows,
                    definition.compression)
            else:
                geometry = IndexGeometry.compute(
                    schema, definition.columns, stats.nrows,
                    definition.compression)
            self._geometry_cache[key] = geometry
        return geometry

    def _geometries(self, table: str, config: FrozenSet[IndexDef]):
        """Split a configuration into (index pairs, view pairs)."""
        indexes: List[Tuple[IndexDef, IndexGeometry]] = []
        views: List[Tuple[ViewDef, ViewGeometry]] = []
        for definition in sorted(config, key=structure_sort_key):
            if definition.table != table:
                continue
            if isinstance(definition, ViewDef):
                views.append((definition, self._geometry(definition)))
            else:
                indexes.append((definition,
                                self._geometry(definition)))
        return indexes, views


def _maintenance_surcharge(structures: FrozenSet, table: str) -> float:
    """``sum(cpu_factor(s) - 1)`` over ``table``'s structures.

    Summed in :func:`structure_sort_key` order so the float fold is
    deterministic (independent of frozenset iteration order); exactly
    ``0.0`` when every structure is at level NONE.
    """
    surcharge = 0.0
    for definition in sorted(structures, key=structure_sort_key):
        if definition.table == table:
            surcharge += definition.compression.cpu_factor - 1.0
    return surcharge


def _maintenance_levels(structures: FrozenSet, table: str) -> Tuple:
    """Sorted multiset of compression levels on ``table`` — the
    signature of everything the insert/write maintenance term reads
    (its length is the historical structure count)."""
    return tuple(sorted(int(d.compression) for d in structures
                        if d.table == table))
