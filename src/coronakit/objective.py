"""Loss assembly: least-squares coefficient fitting, accuracy loss, and the
monotonicity penalty over an extended sampling domain."""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import exprgraph
from .data import Dataset
from .errors import DegenerateTargetError, RejectedCandidateError

INF = float("inf")

#: default monotonicity grid size
DEFAULT_GRID = 20

#: default extended domain relative to the observed range
DOMAIN_BELOW = 0.8
DOMAIN_ABOVE = 1.5


@dataclass
class MonotonicitySpec:
    """Prescribed trend of the target along one variable.

    sign +1 demands a nondecreasing response, -1 nonincreasing, checked on
    ``grid`` uniform samples of ``domain`` with every other variable held
    at its nominal value.
    """

    variable: str
    sign: int
    domain: tuple[float, float]
    grid: int = DEFAULT_GRID
    nominal: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"domain must satisfy lo < hi, got {self.domain}")
        if self.grid < 2:
            raise ValueError("grid must be at least 2")


def default_monotonicity_spec(data: Dataset, variable: str, sign: int,
                              domain: tuple[float, float] | None = None,
                              grid: int = DEFAULT_GRID) -> MonotonicitySpec:
    """Spec with dataset-derived defaults: extended domain 0.8*min..1.5*max
    clipped to positive values, nominals at the per-variable medians.

    Raises ValueError when no default domain exists because the variable
    has no positive value."""
    col = data.columns[variable]
    if domain is None:
        lo = DOMAIN_BELOW * float(col.min())
        hi = DOMAIN_ABOVE * float(col.max())
        if hi <= 0:
            raise ValueError(
                f"no default monotonicity domain for {variable!r}: its values "
                "are not positive anywhere; give the domain explicitly")
        if lo <= 0:
            lo = min(hi * 1e-6, 1e-6)
        domain = (lo, hi)
    nominal = {name: float(np.median(data.columns[name]))
               for name in data.variables if name != variable}
    return MonotonicitySpec(variable=variable, sign=sign, domain=domain,
                            grid=grid, nominal=nominal)


@dataclass
class LossBreakdown:
    l_acc: float
    l_mono: float
    total: float
    r2: float

    @classmethod
    def rejected(cls) -> "LossBreakdown":
        return cls(l_acc=INF, l_mono=INF, total=INF, r2=-INF)


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot about the mean."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTargetError("all target values are equal")
    ss_res = float(np.sum((y - y_hat) ** 2))
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# the column core: every loss is computed from per-term value columns
# ---------------------------------------------------------------------------

def _sweep_env(spec: MonotonicitySpec) -> dict:
    """The spec's grid along its variable, every other variable at its nominal."""
    lo, hi = spec.domain
    env = {spec.variable: np.linspace(lo, hi, spec.grid)}
    for name, value in spec.nominal.items():
        env[name] = np.full(spec.grid, float(value))
    return env


def _stacked_env(regions: list[dict]) -> dict:
    """Variable columns of several row blocks, concatenated block by block.

    Only names bound in every block are kept, so a term that uses any other
    name raises UnboundVariableError when it is evaluated.
    """
    names = [name for name in regions[0]
             if all(name in region for region in regions[1:])]
    return {name: np.concatenate([np.asarray(region[name], dtype=float)
                                  for region in regions])
            for name in names}


def _least_squares(matrix: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares root coefficients of a design matrix and their R^2.

    Rank-deficient designs take the minimum-norm solution.  Raises
    RejectedCandidateError when any row has a non-finite term value.
    """
    row_ok = np.all(np.isfinite(matrix), axis=1)
    if not row_ok.all():
        raise RejectedCandidateError(
            f"{int((~row_ok).sum())} rows with non-finite term values")
    coefs, _, _, _ = np.linalg.lstsq(matrix, y, rcond=None)
    return coefs, r_squared(y, matrix @ coefs)


def _sweep_penalty(columns, coefs, start: int,
                   specs: list[MonotonicitySpec]) -> float:
    """Squared-hinge penalty of the fitted sum along the stacked sweeps.

    ``columns[j][start:]`` holds term j over every spec's grid in turn.  The
    sum is formed left to right from 0.0, exactly as evaluating the graph
    does, so the penalty is bit-identical to sweeping the graph itself.
    """
    sweep = np.float64(0.0)
    for coef, column in zip(coefs, columns):
        sweep = sweep + coef * column[start:]
    total = 0.0
    for spec in specs:
        values = sweep[:spec.grid]
        sweep = sweep[spec.grid:]
        if not np.isfinite(values).all():
            return INF
        steps = np.diff(values)
        violation = np.maximum(0.0, -spec.sign * steps)
        total += float(np.sum(violation ** 2))
    return total


#: bound on the term columns one TermScorer keeps, in bytes of column data
COLUMN_CACHE_BYTES = 1 << 20


class TermScorer:
    """Fits and scores candidates given as tuples of terms, for one run.

    Each distinct term is evaluated once, over the dataset rows stacked with
    every spec's sweep grid, and its column is kept in an LRU cache of at
    most COLUMN_CACHE_BYTES: one preallocated block whose rows are reused on
    eviction, so the cache neither grows nor fragments the heap.  The design
    matrix is gathered from the cached row blocks and each sweep is the
    fitted sum of the cached sweep blocks.  A score depends only on the
    terms, never on the cache's state, so eviction cannot change a
    result.
    """

    def __init__(self, data: Dataset, specs: list[MonotonicitySpec],
                 lambda_mono: float):
        if lambda_mono <= 0:
            raise ValueError("lambda_mono must be positive")
        self.y = data.y
        self.n_rows = data.n_rows
        self.specs = list(specs)
        self.lambda_mono = lambda_mono
        self.env = _stacked_env([data.columns]
                                + [_sweep_env(spec) for spec in self.specs])
        stacked = self.n_rows + sum(spec.grid for spec in self.specs)
        capacity = max(1, COLUMN_CACHE_BYTES // (8 * stacked))
        self._block = np.empty((capacity, stacked))
        #: term key -> row of _block, least recently used first
        self._slots: OrderedDict[str, int] = OrderedDict()

    def columns(self, terms) -> np.ndarray:
        """Value column of each term, one per row, evaluating only the
        uncached terms.  The result is the caller's own copy."""
        slots = self._slots
        keys = [term.key for term in terms]
        out = np.empty((len(keys), self._block.shape[1]))
        missing = {}
        for j, key in enumerate(keys):
            slot = slots.get(key)
            if slot is None:
                missing.setdefault(key, terms[j])
            else:
                slots.move_to_end(key)
                out[j] = self._block[slot]
        if missing:
            graph = exprgraph.from_terms([(term, 1.0)
                                          for term in missing.values()])
            matrix, _ = exprgraph.term_values(graph, self.env)
            fresh = dict(zip(missing, matrix.T))
            for j, key in enumerate(keys):
                if key in fresh:
                    out[j] = fresh[key]
            for key, column in fresh.items():
                if len(slots) < len(self._block):
                    slot = len(slots)
                else:
                    _, slot = slots.popitem(last=False)
                self._block[slot] = column
                slots[key] = slot
        return out

    def score(self, terms) -> tuple[list[float] | None, LossBreakdown]:
        """Fitted root coefficients (None when rejected) and the loss of a
        sequence of terms."""
        columns = self.columns(terms)
        n = self.n_rows
        try:
            coefs, r2 = _least_squares(
                np.ascontiguousarray(columns[:, :n].T), self.y)
        except RejectedCandidateError:
            return None, LossBreakdown.rejected()
        coefs = [float(c) for c in coefs]
        l_acc = 1.0 - r2
        l_mono = _sweep_penalty(columns, coefs, n, self.specs)
        if math.isinf(l_mono):
            return coefs, LossBreakdown(l_acc=l_acc, l_mono=INF, total=INF, r2=r2)
        return coefs, LossBreakdown(l_acc=l_acc, l_mono=l_mono,
                                    total=l_acc + self.lambda_mono * l_mono,
                                    r2=r2)


# ---------------------------------------------------------------------------
# graph adapters over the column core
# ---------------------------------------------------------------------------

def fit_coefficients(graph: exprgraph.ExprGraph,
                     data: Dataset) -> tuple[exprgraph.ExprGraph, float]:
    """Replace outer coefficients by the least-squares minimizer.

    Rank-deficient designs take the minimum-norm solution.  Raises
    RejectedCandidateError when any row has a non-finite term value and
    DegenerateTargetError when SS_tot is zero.
    """
    matrix, _ = exprgraph.term_values(graph, data)
    coefs, r2 = _least_squares(matrix, data.y)
    return exprgraph.with_coefficients(graph, coefs), r2


def accuracy_loss(graph: exprgraph.ExprGraph, data: Dataset) -> float:
    """1 - R^2 after fitting; exceeds 1 when worse than the mean predictor."""
    _, r2 = fit_coefficients(graph, data)
    return 1.0 - r2


def monotonicity_loss(graph: exprgraph.ExprGraph,
                      specs: list[MonotonicitySpec]) -> float:
    """Squared-hinge penalty on trend violations, summed over specs.

    Each spec sweeps its variable over a uniform grid with the remaining
    variables pinned at nominals; every step against the prescribed sign
    contributes max(0, -sign*step)^2.  A non-finite sweep value makes the
    candidate unusable and returns +inf.
    """
    if not specs:
        return 0.0
    env = _stacked_env([_sweep_env(spec) for spec in specs])
    matrix, _ = exprgraph.term_values(graph, env)
    return _sweep_penalty(matrix.T, exprgraph.coefficients(graph), 0, specs)


def total_loss(graph: exprgraph.ExprGraph, data: Dataset,
               specs: list[MonotonicitySpec],
               lambda_mono: float) -> LossBreakdown:
    """Combined loss l_acc + lambda * l_mono for a fitted candidate."""
    _, breakdown = score_candidate(graph, data, specs, lambda_mono)
    return breakdown


def score_candidate(graph: exprgraph.ExprGraph, data: Dataset,
                    specs: list[MonotonicitySpec],
                    lambda_mono: float) -> tuple[exprgraph.ExprGraph, LossBreakdown]:
    """Fit then score; rejected candidates come back with +inf everywhere."""
    scorer = TermScorer(data, specs, lambda_mono)
    coefs, breakdown = scorer.score(
        [term for term, _ in exprgraph.graph_terms(graph)])
    if coefs is None:
        return graph, breakdown
    return exprgraph.with_coefficients(graph, coefs), breakdown
