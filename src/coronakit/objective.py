"""Loss assembly: least-squares coefficient fitting, accuracy loss, and the
monotonicity penalty over an extended sampling domain."""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

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


def _sweep_penalties(sweeps: np.ndarray, coefs: np.ndarray,
                     specs: list[MonotonicitySpec]) -> np.ndarray:
    """Squared-hinge penalty of each fitted sum along the stacked sweeps.

    ``sweeps[b, j]`` holds term j of candidate b over every spec's grid in
    turn, and ``coefs[b, j]`` is its coefficient.  Each sum is formed left
    to right from 0.0, exactly as evaluating the graph does, and each
    spec's hinge terms are reduced per candidate along axis 1, so every
    penalty is bit-identical to sweeping that candidate's graph alone.  A
    candidate whose sweep is non-finite anywhere gets +inf.
    """
    sweep = np.float64(0.0)
    for j in range(sweeps.shape[1]):
        sweep = sweep + coefs[:, j, None] * sweeps[:, j]
    total = np.zeros(len(sweeps))
    finite = np.ones(len(sweeps), dtype=bool)
    start = 0
    for spec in specs:
        values = sweep[:, start:start + spec.grid]
        start += spec.grid
        finite &= np.isfinite(values).all(axis=1)
        # steps of a non-finite sweep are discarded below
        with np.errstate(invalid="ignore"):
            steps = np.diff(values, axis=1)
        violation = np.maximum(0.0, -spec.sign * steps)
        total += np.sum(violation ** 2, axis=1)
    return np.where(finite, total, INF)


def _svd_failed(err, flag):
    """The error ``np.linalg.lstsq`` raises when its SVD does not converge."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(designs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients, shaped (B, k, 1), of each design in a
    (B, rows, k) stack against ``y``, from the gufunc ``np.linalg.lstsq``
    calls, with its ``rcond`` and error rule: each item is the same LAPACK
    ``dgelsd`` call, so it is bit-identical to ``lstsq`` on that design."""
    rows, k = designs.shape[1:]
    rcond = np.finfo(np.float64).eps * max(rows, k)
    with np.errstate(call=_svd_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(designs, y[:, None], rcond,
                                   signature="ddd->ddid")[0]


#: bound on the term columns one TermScorer keeps, in bytes of column data
COLUMN_CACHE_BYTES = 1 << 20


class TermScorer:
    """Fits and scores candidates given as tuples of terms, for one run.

    Each distinct term is evaluated once, over the dataset rows stacked with
    every spec's sweep grid, and its column is kept in an LRU cache of at
    most COLUMN_CACHE_BYTES: one preallocated block whose rows are reused on
    eviction, so the cache neither grows nor fragments the heap.  Next to
    each column the cache keeps one flag: whether the term is finite on
    every data row.  Terms are evaluated straight from their trees, and
    each power of a variable that a term takes is computed once per run
    and kept, one column per (variable, exponent) pair.  A search draws
    its exponents from the alphabet, plus the -1 of a rational template's
    extra reciprocal, so it keeps at most |variables| x (|alphabet| + 1)
    columns.

    ``score_batch`` takes candidates in chunks whose distinct terms fit the
    block, evaluates a chunk's missing terms in one call, and evicts only
    columns the chunk does not use.  The chunk's candidates are then
    grouped by term count, and each group is fitted and swept in stacks.
    A score depends only on the terms, never on the cache's state or on
    the other candidates, so neither eviction, chunking nor stacking can
    change a result.
    """

    def __init__(self, data: Dataset, specs: list[MonotonicitySpec],
                 lambda_mono: float):
        if lambda_mono <= 0:
            raise ValueError("lambda_mono must be positive")
        self.y = data.y
        self.ss_tot = float(np.sum((self.y - self.y.mean()) ** 2))
        self.n_rows = data.n_rows
        self.specs = list(specs)
        self.lambda_mono = lambda_mono
        self.env = _stacked_env([data.columns]
                                + [_sweep_env(spec) for spec in self.specs])
        stacked = self.n_rows + sum(spec.grid for spec in self.specs)
        capacity = max(1, COLUMN_CACHE_BYTES // (8 * stacked))
        self._block = np.empty((capacity, stacked))
        #: per row of _block: is the term finite on every data row
        self._finite = np.empty(capacity, dtype=bool)
        #: term -> row of _block, least recently used first
        self._slots: OrderedDict[exprgraph.TermFragment, int] = OrderedDict()
        #: (variable, exponent) -> that power of the variable over self.env
        self._powers: dict[tuple[str, float], np.ndarray] = {}

    def _chunks(self, candidates):
        """Indices of consecutive candidates whose distinct terms fit the
        block; a candidate with more distinct terms than the block holds
        forms a chunk of its own."""
        capacity = len(self._block)
        chunk, seen = [], set()
        for i, terms in enumerate(candidates):
            new = set(terms) - seen
            if chunk and len(seen) + len(new) > capacity:
                yield chunk
                chunk, seen, new = [], set(), set(terms)
            chunk.append(i)
            seen |= new
        if chunk:
            yield chunk

    def _load(self, terms: dict):
        """Columns of ``terms`` (a dict of distinct terms), evaluating the
        uncached ones in one call.  Returns ``(columns, finite, row)``: term
        ``t`` is ``columns[row[t]]``, finite on every data row if
        ``finite[row[t]]``.  They stay valid until the next call."""
        slots = self._slots
        missing = {}
        for term in terms:
            if term in slots:
                slots.move_to_end(term)
            else:
                missing[term] = None
        fresh = exprgraph.fragment_values(list(missing), self.env,
                                          self._powers)
        fresh_ok = np.isfinite(fresh[:, :self.n_rows]).all(axis=1)
        if len(terms) <= len(self._block):
            # The chunk's cached columns were just touched, so the evictions
            # below take only columns it does not use.
            self._store(missing, fresh, fresh_ok)
            row = {term: slots[term] for term in terms}
            return self._block, self._finite, row
        # Storing these misses evicts some of the chunk's own columns, so
        # it is read from a copy.
        cached = [term for term in terms if term not in missing]
        at = [slots[term] for term in cached]
        columns = np.concatenate([self._block[at], fresh])
        finite = np.concatenate([self._finite[at], fresh_ok])
        self._store(missing, fresh, fresh_ok)
        row = {term: i for i, term in enumerate(cached + list(missing))}
        return columns, finite, row

    def _store(self, terms, columns, finite) -> None:
        """Cache fresh columns, evicting the least recently used."""
        slots = self._slots
        for term, column, ok in zip(terms, columns, finite):
            if len(slots) < len(self._block):
                slot = len(slots)
            else:
                _, slot = slots.popitem(last=False)
            self._block[slot] = column
            self._finite[slot] = ok
            slots[term] = slot

    def score_batch(self, candidates) -> list[tuple[list[float] | None,
                                                    LossBreakdown]]:
        """Fitted root coefficients (None when rejected) and the loss of
        each sequence of terms, in order.

        A candidate is rejected when it has no terms or any of its terms
        is non-finite on a data row.  Raises DegenerateTargetError when a
        candidate is fitted to a target whose values are all equal.
        """
        out = [None] * len(candidates)
        for chunk in self._chunks(candidates):
            terms = dict.fromkeys(term for i in chunk for term in candidates[i])
            columns, finite, row = self._load(terms)
            groups = {}
            for i in chunk:
                if candidates[i]:
                    groups.setdefault(len(candidates[i]), []).append(i)
                else:  # an empty sum has nothing to fit
                    out[i] = (None, LossBreakdown.rejected())
            for group in groups.values():
                at = np.array([[row[term] for term in candidates[i]]
                               for i in group])
                ok = finite[at].all(axis=1)
                group = np.array(group)
                for i in group[~ok]:
                    out[i] = (None, LossBreakdown.rejected())
                if ok.any():
                    self._score_group(columns, at[ok], group[ok], out)
        return out

    def _score_group(self, columns, at, group, out) -> None:
        """Fit and score candidates with one term count, into ``out``:
        candidate ``group[b]`` has the terms at rows ``at[b]`` of
        ``columns``, all finite on the data rows.  They are fitted in
        stacks of C-ordered (rows, k) designs, and each R^2 and sweep is
        reduced per candidate, so no result depends on the stacking."""
        if self.ss_tot == 0.0:
            raise DegenerateTargetError("all target values are equal")
        n_rows, k = self.n_rows, at.shape[1]
        # a stack's designs and their fitted values: k + 1 columns each
        size = max(1, COLUMN_CACHE_BYTES // (8 * n_rows * (k + 1)))
        for start in range(0, len(at), size):
            stack = at[start:start + size]
            designs = np.empty((len(stack), n_rows, k))
            for j in range(k):
                designs[:, :, j] = columns[stack[:, j], :n_rows]
            coefs = _lstsq_stack(designs, self.y)
            # the residuals overwrite the fitted values: one scratch array
            residuals = (designs @ coefs)[:, :, 0]
            np.subtract(self.y, residuals, out=residuals)
            ss_res = np.sum(np.square(residuals, out=residuals), axis=1)
            r2s = 1.0 - ss_res / self.ss_tot
            coefs = coefs[:, :, 0]
            penalties = _sweep_penalties(columns[stack, n_rows:], coefs,
                                         self.specs)
            for i, c, r2, l_mono in zip(group[start:start + size].tolist(),
                                        coefs.tolist(), r2s.tolist(),
                                        penalties.tolist()):
                l_acc = 1.0 - r2
                total = (INF if math.isinf(l_mono)
                         else l_acc + self.lambda_mono * l_mono)
                out[i] = (c, LossBreakdown(l_acc=l_acc, l_mono=l_mono,
                                           total=total, r2=r2))

    def score(self, terms) -> tuple[list[float] | None, LossBreakdown]:
        """Fitted root coefficients (None when rejected) and the loss of a
        sequence of terms."""
        return self.score_batch([terms])[0]


# ---------------------------------------------------------------------------
# graph adapters over the column core
# ---------------------------------------------------------------------------

def fit_coefficients(graph: exprgraph.ExprGraph,
                     data: Dataset) -> tuple[exprgraph.ExprGraph, float]:
    """Replace outer coefficients by the least-squares minimizer.

    Rank-deficient designs take the minimum-norm solution.  Raises
    RejectedCandidateError when the graph has no terms or any row has a
    non-finite term value, and DegenerateTargetError when SS_tot is zero.
    """
    scorer = TermScorer(data, [], 1.0)
    coefs, breakdown = scorer.score(
        [term for term, _ in exprgraph.graph_terms(graph)])
    if coefs is None:
        raise RejectedCandidateError("the graph has no terms, or a term is "
                                     "non-finite on some data row")
    return exprgraph.with_coefficients(graph, coefs), breakdown.r2


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
    coefs = np.array([exprgraph.coefficients(graph)])
    return float(_sweep_penalties(matrix.T[None], coefs, specs)[0])


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
