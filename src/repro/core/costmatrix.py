"""Cost providers and the EXEC/TRANS matrices driving the optimizers.

All design algorithms consume costs through the :class:`CostProvider`
protocol: ``exec_cost(unit, config)``, ``trans_cost(old, new)`` and
``size_bytes(config)``. A costing *unit* is either a raw
:class:`~repro.workload.segmentation.Segment` or a compressed
:class:`~repro.workload.summary.PhaseSummary`; both reduce to
``(statement, weight)`` atoms via :func:`~repro.workload.summary.
atoms_of`, and EXEC is the canonical left-fold ``total += weight x
unit_cost`` over those atoms in first-appearance order. Because the
fold is defined on atoms, costing a summary is bit-identical to
costing the raw statement list it compresses.

The primary implementation wraps the engine's what-if optimizer,
whose estimates are produced by costing the same physical-plan IR
(:mod:`repro.sqlengine.plan`) the executor runs — so every EXEC entry
in these matrices is the estimate of a concrete, runnable operator
tree. A matrix-backed provider supports synthetic tests and replays.

For the graph/DP algorithms the costs are materialized once into dense
NumPy matrices (:class:`CostMatrices`): ``exec_matrix[i, j]`` is
EXEC(segment i, config j) and ``trans_matrix[i, j]`` is
TRANS(config i -> config j). :func:`build_cost_matrices` routes
batch-capable providers through their batch API, where relevance-
signature decomposition fills all columns sharing a signature from a
single what-if estimate (see :mod:`repro.core.costservice`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import DesignError
from ..sqlengine.whatif import WhatIfOptimizer
from ..workload.segmentation import Segment
from ..workload.summary import CostUnit, atoms_of
from .problem import ProblemInstance
from .structures import Configuration


class CostProvider(Protocol):
    """What the design algorithms need to know about costs."""

    def exec_cost(self, segment: CostUnit,
                  config: Configuration) -> float:
        """EXEC: cost of executing the unit (segment or phase summary)
        under the config."""

    def trans_cost(self, old: Configuration,
                   new: Configuration) -> float:
        """TRANS: cost of changing the design from old to new."""

    def size_bytes(self, config: Configuration) -> int:
        """SIZE: bytes of storage the configuration occupies."""


class WhatIfCostProvider:
    """Cost provider backed by the engine's what-if optimizer.

    Statement-level estimates are cached by ``(sql, config)`` so that
    repeated statements (ubiquitous in generated workloads) and repeated
    sweeps over the same workload cost nothing extra. The cache key's
    configuration component hashes over the *full* structure set —
    views included — so two configurations differing only in views
    never share an entry.

    EXEC accumulates over the unit's atoms (``weight x unit_cost`` per
    distinct SQL, first-appearance order — see
    :func:`~repro.workload.summary.atoms_of`), so segments and the
    phase summaries that compress them cost bit-identically.

    This is the minimal serial provider; prefer
    :class:`~repro.core.costservice.CostService` for anything that
    builds matrices or shares costing across advisors — it adds
    template-level batching and instrumentation on top of the same
    estimates.
    """

    def __init__(self, optimizer: WhatIfOptimizer):
        self.optimizer = optimizer
        self._exec_cache: Dict[Tuple[str, Configuration], float] = {}
        self._trans_cache: Dict[Tuple[Configuration, Configuration],
                                float] = {}
        self._size_cache: Dict[Configuration, int] = {}

    def exec_cost(self, segment: CostUnit,
                  config: Configuration) -> float:
        total = 0.0
        for statement, weight in atoms_of(segment):
            key = (statement.sql, config)
            units = self._exec_cache.get(key)
            if units is None:
                units = self.optimizer.estimate_statement(
                    statement.ast, config.structures).units
                self._exec_cache[key] = units
            total += units * weight
        return total

    def trans_cost(self, old: Configuration,
                   new: Configuration) -> float:
        key = (old, new)
        units = self._trans_cache.get(key)
        if units is None:
            units = self.optimizer.transition_units(old.structures,
                                                    new.structures)
            self._trans_cache[key] = units
        return units

    def size_bytes(self, config: Configuration) -> int:
        size = self._size_cache.get(config)
        if size is None:
            size = self.optimizer.configuration_size_bytes(
                config.structures)
            self._size_cache[config] = size
        return size


class MatrixCostProvider:
    """Cost provider backed by explicit matrices (tests, synthetics).

    Args:
        segments: the segment axis.
        configurations: the configuration axis.
        exec_matrix: (n_segments, n_configs).
        trans_matrix: (n_configs, n_configs); diagonal must be zero.
        sizes: optional per-configuration sizes in bytes.
    """

    def __init__(self, segments: Sequence[Segment],
                 configurations: Sequence[Configuration],
                 exec_matrix: np.ndarray, trans_matrix: np.ndarray,
                 sizes: Optional[Mapping[Configuration, int]] = None):
        exec_matrix = np.asarray(exec_matrix, dtype=np.float64)
        trans_matrix = np.asarray(trans_matrix, dtype=np.float64)
        if exec_matrix.shape != (len(segments), len(configurations)):
            raise DesignError("exec matrix shape mismatch")
        if trans_matrix.shape != (len(configurations),
                                  len(configurations)):
            raise DesignError("trans matrix shape mismatch")
        if np.any(np.diag(trans_matrix) != 0.0):
            raise DesignError("TRANS(C, C) must be zero")
        # Segments key by value, not id(): copies and re-created
        # segments (equal statements + start + tag) must resolve to
        # the same row. First occurrence wins for duplicate segments.
        self._seg_index: Dict[Segment, int] = {}
        for i, segment in enumerate(segments):
            self._seg_index.setdefault(segment, i)
        self._cfg_index = {c: i for i, c in enumerate(configurations)}
        self.exec_matrix = exec_matrix
        self.trans_matrix = trans_matrix
        self._sizes = dict(sizes) if sizes else {}

    def exec_cost(self, segment: Segment,
                  config: Configuration) -> float:
        try:
            row = self._seg_index[segment]
        except KeyError:
            raise DesignError(
                f"{segment!r} is not on this matrix's segment axis"
            ) from None
        return float(self.exec_matrix[row, self._cfg_index[config]])

    def trans_cost(self, old: Configuration,
                   new: Configuration) -> float:
        return float(self.trans_matrix[self._cfg_index[old],
                                       self._cfg_index[new]])

    def size_bytes(self, config: Configuration) -> int:
        return self._sizes.get(config, 0)


@dataclass
class CostMatrices:
    """Dense EXEC/TRANS matrices for one problem instance.

    Attributes:
        configurations: the configuration axis (column order).
        exec_matrix: (n_segments, n_configs) EXEC costs.
        trans_matrix: (n_configs, n_configs) TRANS costs, zero diagonal.
        initial_index: column of the initial configuration.
        final_index: column of the required final configuration, or
            None when the destination is unconstrained.
    """

    configurations: Tuple[Configuration, ...]
    exec_matrix: np.ndarray
    trans_matrix: np.ndarray
    initial_index: int
    final_index: Optional[int] = None
    _exec_prefix: Optional[np.ndarray] = field(default=None, repr=False)
    _cfg_lookup: Optional[Dict[Configuration, int]] = field(
        default=None, repr=False)

    @property
    def n_segments(self) -> int:
        return self.exec_matrix.shape[0]

    @property
    def n_configurations(self) -> int:
        return len(self.configurations)

    def config_index(self, config: Configuration) -> int:
        """Column of ``config`` — O(1) via a lazily built lookup (this
        is called inside loops by the merging/ranking paths)."""
        if self._cfg_lookup is None:
            self._cfg_lookup = {c: i for i, c
                                in enumerate(self.configurations)}
        try:
            return self._cfg_lookup[config]
        except KeyError:
            raise DesignError(
                f"{config} is not a candidate configuration") from None

    def exec_prefix_sums(self) -> np.ndarray:
        """``P[i, j] = sum of exec_matrix[:i, j]`` with a leading zero
        row — run costs in O(1) for the merging heuristic."""
        if self._exec_prefix is None:
            prefix = np.zeros((self.n_segments + 1,
                               self.n_configurations))
            np.cumsum(self.exec_matrix, axis=0, out=prefix[1:])
            self._exec_prefix = prefix
        return self._exec_prefix

    def exec_run_cost(self, start: int, end: int, cfg_index: int) -> float:
        """EXEC cost of segments [start, end) under one configuration."""
        prefix = self.exec_prefix_sums()
        return float(prefix[end, cfg_index] - prefix[start, cfg_index])

    def sequence_cost(self, assignment: Sequence[int]) -> float:
        """Objective value of a full design sequence (config indices,
        one per segment), including the required-final transition rule.

        This is the paper's sum of EXEC + TRANS terms; the optimizers'
        results are validated against it in the tests.
        """
        if len(assignment) != self.n_segments:
            raise DesignError("assignment length != number of segments")
        total = 0.0
        previous = self.initial_index
        for i, cfg in enumerate(assignment):
            total += self.trans_matrix[previous, cfg]
            total += self.exec_matrix[i, cfg]
            previous = cfg
        if self.final_index is not None:
            total += self.trans_matrix[previous, self.final_index]
        return float(total)

    def change_count(self, assignment: Sequence[int],
                     count_initial_change: bool = True) -> int:
        """Number of design changes of a column-index assignment
        under either counting convention (see :func:`count_changes`).

        A required final configuration does not count toward k (the
        destination node lies beyond stage n in the sequence graph).
        """
        return count_changes(assignment, self.initial_index,
                             count_initial_change)


def count_changes(assignment: Sequence, initial,
                  count_initial_change: bool = True) -> int:
    """Definition 1's change count: positions i where C(i-1) != C(i).

    Strict counting (``count_initial_change=True``) starts from the
    given ``initial`` design C0, so the C0 -> C1 step counts. The
    paper's experiments do not charge that initial build; with
    ``count_initial_change=False`` counting starts from
    ``assignment[0]``. Works on configuration indices and on
    :class:`~repro.core.structures.Configuration` objects alike.
    """
    previous = initial
    if not count_initial_change and len(assignment) > 0:
        previous = assignment[0]
    changes = 0
    for current in assignment:
        if current != previous:
            changes += 1
        previous = current
    return changes


def supports_batching(provider: CostProvider) -> bool:
    """Whether a provider offers the batch matrix API (duck-typed —
    ``exec_matrix``/``trans_matrix`` as *callables*, which excludes
    :class:`MatrixCostProvider`'s ndarray attributes of those names)."""
    return (callable(getattr(provider, "exec_matrix", None)) and
            callable(getattr(provider, "trans_matrix", None)))


def build_cost_matrices(problem: ProblemInstance,
                        provider: CostProvider) -> CostMatrices:
    """Materialize EXEC and TRANS matrices for a problem instance.

    Batch-capable providers (:class:`~repro.core.costservice.
    CostService`) fill both matrices through their deduplicating batch
    API, which keys its one exact cache by (template, relevance
    signature): every EXEC column sharing a statement template's
    signature is filled from one estimate. Plain providers fall back
    to the per-(segment, config) loop. All paths produce
    bit-identical matrices — batching and decomposition only change
    how many what-if calls (and how much wall time) it took to fill
    them.
    """
    configs = problem.configurations
    if supports_batching(provider):
        exec_matrix = provider.exec_matrix(problem.segments, configs)
        trans_matrix = provider.trans_matrix(configs)
    else:
        n_seg, n_cfg = problem.n_segments, len(configs)
        exec_matrix = np.empty((n_seg, n_cfg), dtype=np.float64)
        for i, segment in enumerate(problem.segments):
            for j, config in enumerate(configs):
                exec_matrix[i, j] = provider.exec_cost(segment, config)
        trans_matrix = np.zeros((n_cfg, n_cfg), dtype=np.float64)
        for i, old in enumerate(configs):
            for j, new in enumerate(configs):
                if i != j:
                    trans_matrix[i, j] = provider.trans_cost(old, new)
    initial_index = configs.index(problem.initial)
    final_index = None
    if problem.final is not None:
        final_index = configs.index(problem.final)
    return CostMatrices(configurations=tuple(configs),
                        exec_matrix=exec_matrix,
                        trans_matrix=trans_matrix,
                        initial_index=initial_index,
                        final_index=final_index)
