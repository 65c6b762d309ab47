"""Genetic-programming search over expression graphs.

retain-then-vary loop: the best half of each scored generation survives
unmodified, the other half is refreshed (survivor crossover or fresh
template draws, then mutation) and rescored.  All randomness flows from
per-generation ``Draws`` streams derived from the run seed, and scoring
is rng-free, so a run is a pure function of its inputs and seed.

Inside the loop a candidate is a tuple of (term, coefficient) pairs; an
ExprGraph is assembled from it only for the report and the predictions.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field, asdict
from itertools import chain, repeat

import numpy as np

from . import exprgraph, objective
from .data import Dataset
from .errors import EmptyDatasetError

INF = float("inf")


@dataclass
class GPConfig:
    population_size: int = 500
    generations: int = 200
    max_terms: int = 4
    lambda_mono: float = 0.01
    mutation_rates: tuple[float, float, float] = (0.4, 0.3, 0.3)
    mutation_prob: float = 0.7
    crossover_prob: float = 0.7
    exponent_alphabet: tuple[int, ...] = exprgraph.DEFAULT_ALPHABET
    template_weights: tuple[float, float, float, float] = (0.35, 0.25, 0.25, 0.15)
    crossover_terms: int = 1
    dedup: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not 0 < self.lambda_mono < INF:
            raise ValueError("lambda_mono must be positive and finite")
        rates = self.mutation_rates
        if len(rates) != 3 or any(r < 0 for r in rates) \
                or not abs(sum(rates) - 1.0) <= 1e-9:
            raise ValueError("mutation_rates must be 3 nonnegative values summing to 1")
        if not self.exponent_alphabet or 0 in self.exponent_alphabet:
            raise ValueError("exponent alphabet must be non-empty and exclude 0")
        weights = self.template_weights
        if len(weights) != 4 or any(w < 0 for w in weights) \
                or not 0 < sum(weights) < INF:
            raise ValueError("template_weights must be 4 nonnegative values "
                             "with a positive, finite sum")
        if not 0 <= self.mutation_prob <= 1 or not 0 <= self.crossover_prob <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
        if self.crossover_terms < 1:
            raise ValueError("crossover_terms must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["mutation_rates"] = list(self.mutation_rates)
        out["exponent_alphabet"] = list(self.exponent_alphabet)
        out["template_weights"] = list(self.template_weights)
        return out


#: a candidate: root terms with their coefficients, in root-edge order
Candidate = tuple[tuple[exprgraph.TermFragment, float], ...]


@dataclass
class Individual:
    """A candidate and its loss.  Scoring replaces its coefficients, never
    its terms, so its node count is counted once, and a scored individual
    is rendered once, on first use."""

    terms: Candidate
    loss: objective.LossBreakdown | None = None
    node_count: int = field(init=False, repr=False, compare=False)
    _rendering: str | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        self.node_count = 1 + sum(term.node_count for term, _ in self.terms)

    @property
    def graph(self) -> exprgraph.ExprGraph:
        """The candidate as an expression graph, assembled on demand."""
        return exprgraph.from_terms(self.terms)

    @property
    def rendering(self) -> str:
        """``render_terms(self.terms)``, kept once the individual is scored
        and its coefficients are final."""
        if self._rendering is not None:
            return self._rendering
        text = exprgraph.render_terms(self.terms)
        if self.scored:
            self._rendering = text
        return text

    @property
    def scored(self) -> bool:
        return self.loss is not None


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

#: raw 64-bit PCG64 outputs that ``Draws`` reads at a time
RAW_BLOCK = 256

_MASK32 = 0xFFFFFFFF


class Draws:
    """A search's random stream: the draws ``np.random.default_rng(seed)``
    makes, computed in Python from the raw output of the same PCG64.

    numpy turns raw 64-bit PCG64 values into draws with fixed arithmetic,
    and this class repeats it for the three calls a search makes (numpy
    2.x; the raw stream itself is stable under NEP 19):

    * ``random()`` is ``(next64 >> 11) * 2**-53``;
    * ``integers(low, high)`` is Lemire's bounded draw over 32-bit words,
      the low half of a raw value first and its high half kept for the
      next word, as PCG64 buffers it; a range of one value draws nothing;
    * ``choice(n, size=k, replace=False)`` is Floyd's algorithm, each
      step a bounded draw, followed by numpy's shuffle of the k picks.

    Arguments outside these cases (``replace=True``, ``p``, ``n > 10000``,
    where numpy shuffles a tail instead, and ranges of more than 2**32
    values, which take 64-bit draws) raise ValueError, so a call cannot
    drift from numpy's draws unnoticed.  Raw values are read a block at a
    time; reading ahead changes no draw.
    """

    __slots__ = ("_next64", "_half")

    def __init__(self, seed):
        bits = np.random.PCG64(seed)
        blocks = map(np.ndarray.tolist, map(bits.random_raw, repeat(RAW_BLOCK)))
        self._next64 = chain.from_iterable(blocks).__next__
        #: the high word of the last raw value split into 32-bit words
        self._half = None

    def random(self) -> float:
        """A uniform float in [0, 1)."""
        return (self._next64() >> 11) * 1.1102230246251565e-16

    def integers(self, low: int, high: int | None = None) -> int:
        """A uniform integer in [low, high), or in [0, low) alone."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= 1 << 32:
            raise ValueError(f"Draws.integers takes 1 to 2**32 values, "
                             f"not [{low}, {high})")
        return low + self._below(span)

    def _below(self, span: int) -> int:
        """Lemire's draw in [0, span) for 1 < span <= 2**32, as numpy's
        ``buffered_bounded_lemire_uint32``: a 32-bit word times ``span``
        is redrawn while its low half is below ``2**32 % span``.  numpy
        tests the low half against ``span`` before it computes that
        threshold, which is smaller, so the two loops draw alike; at span
        2**32 the threshold is 0 and the word itself is returned, as in
        numpy's branch for that range."""
        threshold = (1 << 32) % span
        while True:
            half = self._half
            if half is None:
                raw = self._next64()
                self._half = raw >> 32
                m = (raw & _MASK32) * span
            else:
                self._half = None
                m = half * span
            if (m & _MASK32) >= threshold:
                return m >> 32

    def choice(self, a: int, size: int | None = None, replace: bool = True,
               p=None) -> list[int]:
        """``size`` distinct integers in [0, a), as numpy's
        ``choice(a, size=size, replace=False)`` draws and orders them."""
        if replace or p is not None or not isinstance(a, int) \
                or not isinstance(size, int) or not 0 <= size <= a <= 10000:
            raise ValueError("Draws.choice takes choice(a, size=k, "
                             "replace=False) with 0 <= k <= a <= 10000")
        below = self._below
        picks: list[int] = []
        for j in range(a - size, a):  # Floyd: one pick in [0, j] per step
            pick = below(j + 1) if j else 0
            picks.append(j if pick in picks else pick)
        for i in range(size - 1, 0, -1):
            j = below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


# ---------------------------------------------------------------------------
# population operators
# ---------------------------------------------------------------------------

#: the tolerance of ``Generator.choice`` on the sum of its probabilities
_P_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


@functools.lru_cache(maxsize=16)
def choice_table(p: tuple[float, ...]) -> tuple[float, ...]:
    """The cdf that ``rng.choice(len(p), p=p)`` bisects: the cumulative sum
    of ``p`` divided by its last entry, computed as numpy computes it.
    Raises ValueError for the probabilities that ``choice`` rejects."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not p.size or not (p >= 0).all() \
            or not abs(p.sum() - 1.0) <= _P_SUM_TOLERANCE:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(float(c) for c in cdf)


def draw_index(table: tuple[float, ...], rng) -> int:
    """``int(rng.choice(len(p), p=p))`` for ``table = choice_table(p)``:
    the same index from the same single uniform draw."""
    return bisect.bisect_right(table, rng.random())


@functools.lru_cache(maxsize=16)
def _template_table(weights: tuple[float, ...]) -> tuple[float, ...]:
    weights = np.asarray(weights, dtype=float)
    return choice_table(tuple(weights / weights.sum()))


def sample_term(config: GPConfig, variables, rng) -> exprgraph.TermFragment:
    table = _template_table(tuple(config.template_weights))
    kind = exprgraph.TEMPLATE_KINDS[draw_index(table, rng)]
    return exprgraph.sample_template(kind, variables, rng,
                                     alphabet=config.exponent_alphabet)


def random_graph(config: GPConfig, variables, rng) -> Candidate:
    """A fresh candidate of 1..max_terms template terms, coefficients 1."""
    n_terms = int(rng.integers(1, config.max_terms + 1))
    return tuple((sample_term(config, variables, rng), 1.0)
                 for _ in range(n_terms))


def init_population(config: GPConfig, variables, rng) -> list[Individual]:
    """population_size fresh template-drawn individuals, 1..max_terms terms."""
    return [Individual(random_graph(config, variables, rng))
            for _ in range(config.population_size)]


def crossover(a: Candidate, b: Candidate, rng, n_swap: int = 1,
              identical: bool | None = None) -> tuple[Candidate, Candidate]:
    """Swap root-level terms one-for-one; term counts are preserved.

    Structurally identical parents (equal renderings) swap matching
    positions, so their crossover is an identity operation.  A caller that
    has both renderings at hand passes their comparison as ``identical``.
    """
    terms_a, terms_b = list(a), list(b)
    k = min(n_swap, len(terms_a), len(terms_b))
    idx_a = rng.choice(len(terms_a), size=k, replace=False)
    idx_b = rng.choice(len(terms_b), size=k, replace=False)
    if identical is None:
        identical = exprgraph.render_terms(a) == exprgraph.render_terms(b)
    if identical:
        idx_b = idx_a
    for i, j in zip(idx_a, idx_b):
        terms_a[int(i)], terms_b[int(j)] = terms_b[int(j)], terms_a[int(i)]
    return tuple(terms_a), tuple(terms_b)


def mutate(terms: Candidate, config: GPConfig, variables, rng) -> Candidate:
    """Apply exactly one mutation kind drawn from the configured rates."""
    kind = draw_index(choice_table(tuple(config.mutation_rates)), rng)

    if kind == 0:  # edge feature
        # inner features only, in the assembled graph's edge order: root
        # coefficients are fitted, never mutated
        sites = [(index, site) for index, (term, _) in enumerate(terms)
                 for site in term.sites()]
        if not sites:
            kind = 1  # nothing to perturb (e.g. lone constant term)
        else:
            index, (path, site, old) = sites[int(rng.integers(len(sites)))]
            if site == exprgraph.POW:
                alphabet = config.exponent_alphabet
                feature = float(alphabet[int(rng.integers(len(alphabet)))])
            elif site == exprgraph.LOG:
                feature = exprgraph.LOG_BASES[1] \
                    if abs(old - 10.0) < 1e-9 else exprgraph.LOG_BASES[0]
            else:
                feature = -old
            term, coef = terms[index]
            changed = (term.with_feature(path, feature), coef)
            return terms[:index] + (changed,) + terms[index + 1:]

    if kind == 1:  # replace one term with a fresh template instance
        index = int(rng.integers(len(terms)))
        fresh = (sample_term(config, variables, rng), 1.0)
        return terms[:index] + (fresh,) + terms[index + 1:]

    # add/remove a term; infeasible direction falls back to the other
    add = bool(rng.random() < 0.5)
    if add and len(terms) >= config.max_terms:
        add = False
    elif not add and len(terms) <= 1:
        add = True
    if add:
        return terms + ((sample_term(config, variables, rng), 1.0),)
    index = int(rng.integers(len(terms)))
    return terms[:index] + terms[index + 1:]


def _rank_key(individual: Individual):
    total = individual.loss.total if individual.loss is not None else INF
    return (total, individual.node_count)


def rank(population: list[Individual]) -> list[Individual]:
    """Stable ascending sort: total loss, then node count, then insertion order."""
    return sorted(population, key=_rank_key)


def select(scored: list[Individual], config: GPConfig) -> list[Individual]:
    """The best half of the population, in rank order."""
    return rank(scored)[:config.population_size // 2]


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _score_population(population, scorer: objective.TermScorer,
                      dedup: bool) -> None:
    """Fit and score every unscored individual, in place.

    Rejected candidates keep their coefficients; with ``dedup`` every
    individual whose rendering repeats a better-ranked one is rejected.
    """
    pending = [ind for ind in population if not ind.scored]
    results = scorer.score_batch([tuple(term for term, _ in ind.terms)
                                  for ind in pending])
    for ind, (coefs, breakdown) in zip(pending, results):
        if coefs is not None:
            ind.terms = tuple((term, coef)
                              for (term, _), coef in zip(ind.terms, coefs))
        ind.loss = breakdown
    if dedup:
        seen = set()
        for ind in rank(population):
            key = ind.rendering
            if key in seen:
                ind.loss = objective.LossBreakdown.rejected()
            else:
                seen.add(key)


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------

def _json_num(value: float):
    return value if math.isfinite(value) else None


@dataclass
class RunReport:
    config: dict
    seed: int
    equations: list[dict]
    trace: list[list[float]]
    predictions: list[float] = field(default_factory=list)

    @property
    def best(self) -> dict:
        return self.equations[0]

    def best_graph(self) -> exprgraph.ExprGraph:
        return exprgraph.ExprGraph.from_dict(self.best["graph"])

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "seed": self.seed,
            "equations": self.equations,
            "trace": [[_json_num(v) for v in row] for row in self.trace],
            "predictions": self.predictions,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        payload = json.loads(text)
        trace = [[INF if v is None else v for v in row]
                 for row in payload["trace"]]
        return cls(config=payload["config"], seed=payload["seed"],
                   equations=payload["equations"], trace=trace,
                   predictions=payload.get("predictions", []))

    def leaderboard(self) -> str:
        lines = [f"{'rank':>4}  {'total':>12}  {'r2':>10}  {'terms':>5}  expression"]
        for entry in self.equations:
            total = entry["total"]
            r2 = entry["r2"]
            lines.append(
                f"{entry['rank']:>4}  "
                f"{'inf' if total is None else format(total, '.6g'):>12}  "
                f"{'-' if r2 is None else format(r2, '.6f'):>10}  "
                f"{entry['terms']:>5}  {entry['expression']}")
        return "\n".join(lines) + "\n"

    def trace_csv(self) -> str:
        lines = ["generation,rank1,rank2,rank3,rank4,rank5"]
        for g, row in enumerate(self.trace, start=1):
            cells = [str(g)] + [repr(v) for v in row]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _equation_entry(rank_no: int, expression: str, ind: Individual) -> dict:
    graph, loss = ind.graph, ind.loss
    return {
        "rank": rank_no,
        "expression": expression,
        "terms": graph.term_count,
        "r2": _json_num(loss.r2),
        "l_acc": _json_num(loss.l_acc),
        "l_mono": _json_num(loss.l_mono),
        "total": _json_num(loss.total),
        "graph": graph.to_dict(),
    }


# ---------------------------------------------------------------------------
# the generation loop
# ---------------------------------------------------------------------------

def _next_generation(ranked: list[Individual], config: GPConfig, variables,
                     rng) -> list[Individual]:
    """Survivors, then offspring two at a time: a crossover of two
    survivors or, failing the crossover draw, fresh candidates; each
    offspring may then mutate."""
    survivors = select(ranked, config)
    varied: list[Individual] = []
    for pos in range(len(survivors), config.population_size, 2):
        k = min(2, config.population_size - pos)
        if rng.random() < config.crossover_prob:
            i = int(rng.integers(len(survivors)))
            j = int(rng.integers(len(survivors)))
            a, b = survivors[i], survivors[j]
            t1, t2 = crossover(a.terms, b.terms, rng,
                               n_swap=config.crossover_terms,
                               identical=a.rendering == b.rendering)
            offspring = [t1, t2][:k]
        else:
            offspring = [random_graph(config, variables, rng)
                         for _ in range(k)]
        for terms in offspring:
            if rng.random() < config.mutation_prob:
                terms = mutate(terms, config, variables, rng)
            varied.append(Individual(terms))
    return survivors + varied


def run_discovery(data: Dataset, specs, config: GPConfig) -> RunReport:
    """Full search: init -> [score -> select -> vary] x generations.

    Deterministic for a fixed seed; the returned report carries the ranked
    final equations, the per-generation top-5 loss trace and the best
    equation's training-set predictions.
    """
    config.validate()
    if data.n_rows == 0:
        raise EmptyDatasetError("empty dataset")
    for spec in specs:
        if spec.variable not in data.columns:
            raise ValueError(f"monotonicity variable {spec.variable!r} "
                             "not in dataset")
    variables = data.variables

    streams = np.random.SeedSequence(config.seed).spawn(config.generations + 1)
    rngs = [Draws(s) for s in streams]

    population = init_population(config, variables, rngs[0])
    trace: list[list[float]] = []
    scorer = objective.TermScorer(data, specs, config.lambda_mono)
    for gen in range(config.generations):
        _score_population(population, scorer, config.dedup)
        ranked = rank(population)
        top5 = [ind.loss.total for ind in ranked[:5]]
        top5 += [INF] * (5 - len(top5))
        trace.append(top5)
        if gen < config.generations - 1:
            population = _next_generation(ranked, config, variables,
                                          rngs[gen + 1])

    ranked = rank(population)
    equations = []
    seen = set()
    for ind in ranked:
        expression = ind.rendering
        if expression in seen:
            continue
        seen.add(expression)
        equations.append(_equation_entry(len(equations) + 1, expression, ind))
        if len(equations) >= 10:
            break

    best = ranked[0]
    predictions: list[float] = []
    if best.loss is not None and math.isfinite(best.loss.total):
        values, finite = exprgraph.evaluate_batch(best.graph, data)
        if finite.all():
            predictions = [float(v) for v in values]

    return RunReport(config=config.to_dict(), seed=config.seed,
                     equations=equations, trace=trace,
                     predictions=predictions)
