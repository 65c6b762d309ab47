import math

import numpy as np
import pytest

from coronakit import evolve, exprgraph, objective
from coronakit.data import Dataset, load_dataset
from coronakit.errors import (
    DatasetFormatError,
    DegenerateTargetError,
    EmptyDatasetError,
)
from coronakit.objective import (
    LossBreakdown,
    MonotonicitySpec,
    default_monotonicity_spec,
    fit_coefficients,
    monotonicity_loss,
    r_squared,
    score_candidate,
)

from helpers import const_fragment, graph_of, log_fragment, power_fragment


def make_dataset(target="y", **columns):
    return Dataset(columns={k: np.asarray(v, float) for k, v in columns.items()},
                   target=target)


class TestFit:
    def test_exact_affine_fit(self):
        x = np.array([0.0, 1.0, 2.0])
        data = make_dataset(x=x, y=3 * x + 5)
        g = graph_of((1.0, power_fragment(("x", 1))), (1.0, const_fragment()))
        fitted, r2 = fit_coefficients(g, data)
        coefs = sorted(e.feature for e in fitted.term_edges)
        assert coefs == pytest.approx([3.0, 5.0], abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_single_log_term(self):
        x = np.array([1.0, 10.0, 100.0])
        data = make_dataset(x=x, y=2 * np.log10(x))
        g = graph_of((1.0, log_fragment(10.0, ("x", 1))))
        fitted, r2 = fit_coefficients(g, data)
        assert fitted.term_edges[0].feature == pytest.approx(2.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_terms_take_minimum_norm_split(self):
        x = np.array([1.0, 2.0, 3.0])
        data = make_dataset(x=x, y=4 * x)
        g = graph_of((1.0, power_fragment(("x", 1))),
                     (1.0, power_fragment(("x", 1))))
        fitted, r2 = fit_coefficients(g, data)
        coefs = [e.feature for e in fitted.term_edges]
        # minimum-norm solution of c1 + c2 = 4 with identical columns
        assert coefs == pytest.approx([2.0, 2.0], abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_recovers_generating_coefficients(self):
        rng = np.random.default_rng(11)
        E = rng.uniform(12, 32, size=40)
        n = rng.uniform(4, 8, size=40)
        d = rng.uniform(2.0, 3.0, size=40)
        y = 1.022 * n + 10.4 * d + 30.839 - 933.633 / E
        data = make_dataset(E=E, n=n, d=d, y=y)
        g = graph_of((1.0, power_fragment(("n", 1))),
                     (1.0, power_fragment(("d", 1))),
                     (1.0, const_fragment()),
                     (1.0, power_fragment(("E", -1))))
        fitted, r2 = fit_coefficients(g, data)
        coefs = sorted(e.feature for e in fitted.term_edges)
        assert coefs == pytest.approx(sorted([1.022, 10.4, 30.839, -933.633]),
                                      abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_rejected_on_nonfinite_terms(self):
        x = np.array([0.0, 1.0, 2.0])
        data = make_dataset(x=x, y=x + 1)
        g = graph_of((1.0, power_fragment(("x", -1))))
        with pytest.raises(objective.RejectedCandidateError):
            fit_coefficients(g, data)

    def test_degenerate_target(self):
        x = np.array([1.0, 2.0, 3.0])
        data = make_dataset(x=x, y=np.full(3, 7.0))
        g = graph_of((1.0, power_fragment(("x", 1))))
        with pytest.raises(DegenerateTargetError):
            fit_coefficients(g, data)

    def test_empty_graph_is_rejected(self):
        x = np.array([0.0, 1.0, 2.0])
        data = make_dataset(x=x, y=3 * x + 5)
        with pytest.raises(objective.RejectedCandidateError):
            fit_coefficients(exprgraph.from_terms([]), data)
        graph, breakdown = score_candidate(exprgraph.from_terms([]), data,
                                           [], 0.01)
        assert breakdown == LossBreakdown.rejected()
        assert graph.term_count == 0


class TestAccuracyLoss:
    def test_perfect_fit_is_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        data = make_dataset(x=x, y=2 * x)
        g = graph_of((1.0, power_fragment(("x", 1))))
        _, r2 = fit_coefficients(g, data)
        assert 1.0 - r2 == pytest.approx(0.0, abs=1e-12)

    def test_mean_predictor_is_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        data = make_dataset(x=x, y=np.array([1.0, -1.0, 1.0, -1.0]))
        g = graph_of((1.0, const_fragment()))
        _, r2 = fit_coefficients(g, data)
        assert 1.0 - r2 == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_r_squared(self):
        # SS_res = 8, SS_tot = 0.5 -> 1 - R^2 = 16
        assert 1.0 - r_squared([0.0, 1.0], [2.0, -1.0]) == pytest.approx(16.0)

    def test_r_squared_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = rng.normal(size=8)
            y_hat = rng.normal(size=8)
            brute = 1.0 - np.sum((y - y_hat) ** 2) / np.sum((y - y.mean()) ** 2)
            assert r_squared(y, y_hat) == pytest.approx(brute, abs=1e-12)


def line_graph(slope):
    return exprgraph.with_coefficients(
        graph_of((slope, power_fragment(("x", 1)))), [slope])


class TestMonotonicityLoss:
    def spec(self, sign, lo=1.0, hi=3.0, grid=3):
        return MonotonicitySpec(variable="x", sign=sign, domain=(lo, hi),
                                grid=grid, nominal={})

    def test_monotone_square_scores_zero(self):
        g = graph_of((1.0, power_fragment(("x", 2))))
        assert monotonicity_loss(g, [self.spec(+1)]) == 0.0

    def test_decreasing_line_against_increasing_prior(self):
        # steps of -1 on {1,2,3}: two unit violations, squared hinge -> 2
        assert monotonicity_loss(line_graph(-1.0), [self.spec(+1)]) \
            == pytest.approx(2.0, abs=1e-12)

    def test_increasing_line_against_decreasing_prior(self):
        assert monotonicity_loss(line_graph(1.0), [self.spec(-1)]) \
            == pytest.approx(2.0, abs=1e-12)

    def test_constant_term_leaves_penalty_unchanged(self):
        g = line_graph(-1.0)
        with_const = exprgraph.from_terms(
            exprgraph.graph_terms(g) + [(const_fragment(), 42.0)])
        specs = [self.spec(+1)]
        assert monotonicity_loss(with_const, specs) \
            == pytest.approx(monotonicity_loss(g, specs), abs=1e-12)

    def test_nondecreasing_function_scores_zero_on_grid(self):
        g = graph_of((2.0, power_fragment(("x", 1))),
                     (3.0, log_fragment(10.0, ("x", 1))))
        spec = MonotonicitySpec(variable="x", sign=+1, domain=(0.5, 9.0),
                                grid=40, nominal={})
        assert monotonicity_loss(g, [spec]) == 0.0

    def test_nonfinite_sweep_is_infinite(self):
        g = graph_of((1.0, power_fragment(("x", -1))))
        spec = MonotonicitySpec(variable="x", sign=+1, domain=(-1.0, 1.0),
                                grid=3, nominal={})
        assert monotonicity_loss(g, [spec]) == math.inf

    def test_nominals_pin_other_variables(self):
        g = graph_of((1.0, power_fragment(("x", 1), ("z", 1))))
        spec = MonotonicitySpec(variable="x", sign=+1, domain=(1.0, 3.0),
                                grid=3, nominal={"z": -1.0})
        # y = -x on the sweep: two unit violations
        assert monotonicity_loss(g, [spec]) == pytest.approx(2.0, abs=1e-12)


class TestTotalLoss:
    def test_combination_identity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 4.0, size=12)
        data = make_dataset(x=x, y=x ** 2 - 5 * x)
        g = graph_of((1.0, power_fragment(("x", 2))), (1.0, const_fragment()))
        spec = MonotonicitySpec(variable="x", sign=+1, domain=(1.0, 4.0),
                                grid=10, nominal={})
        lam = 0.01
        _, bd = score_candidate(g, data, [spec], lam)
        assert bd.total == pytest.approx(bd.l_acc + lam * bd.l_mono, rel=1e-12)
        assert bd.l_mono >= 0.0

    def test_monotone_perfect_fit_scores_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        data = make_dataset(x=x, y=2 * x)
        g = graph_of((1.0, power_fragment(("x", 1))))
        spec = MonotonicitySpec(variable="x", sign=+1, domain=(1.0, 4.0),
                                grid=5, nominal={})
        _, bd = score_candidate(g, data, [spec], 0.5)
        assert bd.total == pytest.approx(0.0, abs=1e-12)

    def test_rejected_candidate_ranks_last(self):
        x = np.array([0.0, 1.0, 2.0])
        data = make_dataset(x=x, y=x + 1)
        g = graph_of((1.0, power_fragment(("x", -1))))
        _, bd = score_candidate(g, data, [], 0.01)
        assert bd.total == math.inf
        assert bd.total > 1e18  # ranks below any finite competitor

    def test_lambda_must_be_positive(self):
        x = np.array([1.0, 2.0, 3.0])
        data = make_dataset(x=x, y=x)
        g = graph_of((1.0, power_fragment(("x", 1))))
        with pytest.raises(ValueError):
            score_candidate(g, data, [], 0.0)


def reference_breakdown(graph, data, specs, lambda_mono):
    """The loss as computed before the column core: a least-squares fit of
    term_values, then every spec swept through evaluate_batch."""
    matrix, row_ok = exprgraph.term_values(graph, data)
    if not row_ok.all():
        return LossBreakdown.rejected()
    coefs = np.linalg.lstsq(matrix, data.y, rcond=None)[0]
    r2 = r_squared(data.y, matrix @ coefs)
    fitted = exprgraph.with_coefficients(graph, coefs)
    l_mono = 0.0
    for spec in specs:
        env = {spec.variable: np.linspace(*spec.domain, spec.grid)}
        env.update({k: np.full(spec.grid, v) for k, v in spec.nominal.items()})
        values, finite = exprgraph.evaluate_batch(fitted, env)
        if not finite.all():
            return LossBreakdown(l_acc=1.0 - r2, l_mono=math.inf,
                                 total=math.inf, r2=r2)
        l_mono += float(np.sum(np.maximum(0.0, -spec.sign * np.diff(values)) ** 2))
    return LossBreakdown(l_acc=1.0 - r2, l_mono=l_mono,
                         total=(1.0 - r2) + lambda_mono * l_mono, r2=r2)


EDGE_CANDIDATES = {
    # lstsq takes the minimum-norm split of the mean; the sweep is flat
    "constants only": (graph_of((1.0, const_fragment()), (2.0, const_fragment())),
                       (1.0, 6.0)),
    # finite on the data, x^3 overflows to inf on the sweep
    "sweep overflows": (graph_of((1.0, power_fragment(("x", 3))),
                                 (1.0, const_fragment())), (1.0, 1e150)),
    # 1/x is non-finite on the x = 0 data row: rejected before the sweep
    "non-finite data row": (graph_of((1.0, power_fragment(("x", -1))),
                                     (1.0, const_fragment())), (1.0, 6.0)),
}


class TestTermScorer:
    def data(self):
        x = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
        return make_dataset(x=x, y=x ** 2 - x + 1.0)

    def spec(self, domain):
        return MonotonicitySpec(variable="x", sign=+1, domain=domain, grid=10,
                                nominal={})

    @pytest.mark.parametrize("name", sorted(EDGE_CANDIDATES))
    def test_edge_candidates_match_score_candidate(self, name):
        graph, domain = EDGE_CANDIDATES[name]
        data = self.data()
        if name != "non-finite data row":
            data = make_dataset(x=data.columns["x"][1:], y=data.y[1:])
        specs = [self.spec(domain), self.spec((0.5, 2.0))]
        terms = [term for term, _ in exprgraph.graph_terms(graph)]
        fitted, want = score_candidate(graph, data, specs, 0.01)
        assert want == reference_breakdown(graph, data, specs, 0.01)
        scorer = objective.TermScorer(data, specs, 0.01)
        for _ in range(2):  # a cache miss, then a hit
            coefs, got = scorer.score(terms)
            assert got == want
            if coefs is None:
                assert math.isinf(got.total) and fitted is graph
            else:
                assert coefs == exprgraph.coefficients(fitted)

    def test_one_column_budget_changes_no_score(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.uniform(1.0, 4.0, 30)
        z = rng.uniform(1.0, 2.0, 30)
        data = make_dataset(x=x, z=z, y=x ** 2 + np.log(z))
        specs = [default_monotonicity_spec(data, "x", +1),
                 default_monotonicity_spec(data, "z", -1)]
        candidates = [
            [exprgraph.sample_template(kind, ["x", "z"], rng)
             for kind in ("poly", "log", "rational", "const")]
            for _ in range(6)]
        candidates += candidates[::-1]  # revisit every term after eviction
        roomy = objective.TermScorer(data, specs, 0.01)
        want = [roomy.score(terms) for terms in candidates]
        stacked_rows = 30 + sum(spec.grid for spec in specs)
        monkeypatch.setattr(objective, "COLUMN_CACHE_BYTES", 8 * stacked_rows)
        tight = objective.TermScorer(data, specs, 0.01)
        for terms, expected in zip(candidates, want):
            assert tight.score(terms) == expected
            assert len(tight._slots) == 1
        assert len(roomy._slots) == len({t for c in candidates for t in c})


def reference_score(terms, data, specs, lambda_mono):
    """``TermScorer.score`` computed by the per-candidate reference loop."""
    graph = exprgraph.from_terms([(term, 1.0) for term in terms])
    breakdown = reference_breakdown(graph, data, specs, lambda_mono)
    if breakdown == LossBreakdown.rejected():
        return None, breakdown
    matrix, _ = exprgraph.term_values(graph, data)
    coefs = np.linalg.lstsq(matrix, data.y, rcond=None)[0]
    return [float(c) for c in coefs], breakdown


def an_grid():
    """The 90-row noiseless AN grid of the discover-mono benchmark."""
    E, n, d = (a.ravel() for a in np.meshgrid(
        np.arange(12.0, 31.0, 2.0), [4.0, 6.0, 8.0], [2.0, 2.4, 3.0]))
    y = 1.022 * n + 10.4 * d + 30.839 - 933.633 / E
    return make_dataset(E=E, n=n, d=d, y=y)


def noisy_rows():
    """5,000 RI-style rows with N(0, 0.5) noise, as in discover-rows."""
    rng = np.random.default_rng(5)
    E = rng.uniform(12.0, 32.0, 5000)
    n = rng.integers(2, 17, 5000).astype(float)
    d = rng.uniform(1.5, 4.0, 5000)
    y = 6.51 * d + 10.287 * np.log10(n) + 55.22 - 671.7 / E
    return make_dataset(E=E, n=n, d=d, y=y + rng.normal(0.0, 0.5, 5000))


def batch_candidates(data, specs, count=2000):
    """``count`` random candidates with 0-3 mutations each, and among them
    the edge cases: constants only, a duplicated term (both rank-deficient
    designs), a pole on a data row and, with specs, a pole on a sweep."""
    variables = ["E", "n", "d"]
    config = evolve.GPConfig(max_terms=4)
    rng = np.random.default_rng(17)
    out = []
    for _ in range(count):
        candidate = evolve.random_graph(config, variables, rng)
        for _ in range(int(rng.integers(0, 4))):
            candidate = evolve.mutate(candidate, config, variables, rng)
        out.append(tuple(term for term, _ in candidate))
    pole = float(data.columns["E"][0])
    edges = [
        [term for term, _ in exprgraph.graph_terms(
            EDGE_CANDIDATES["constants only"][0])],
        (out[0][0], out[1][0], out[0][0]),
        [term for term, _ in exprgraph.graph_terms(
            exprgraph.parse(f"2*d + 1*(-E + {pole!r})^-1"))],
    ]
    if specs:
        lo = specs[0].domain[0]
        edges.append([term for term, _ in exprgraph.graph_terms(
            exprgraph.parse(f"2*n + 1*(-E + {lo!r})^-1"))])
    for k, edge in enumerate(edges):
        out.insert(k * count // len(edges), tuple(edge))
    return out


def mono_setup():
    data = an_grid()
    return data, [default_monotonicity_spec(data, v, +1)
                  for v in ("E", "n", "d")]


#: benchmark workload -> (data, specs) like the one it searches
SETUPS = {"discover-mono": mono_setup,
          "discover-rows": lambda: (noisy_rows(), [])}


class TestScoreBatch:
    """One ``score_batch`` call against the per-candidate reference loop,
    exactly: batching may change no bit of any fit or loss."""

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_matches_reference_loop(self, setup, monkeypatch):
        data, specs = SETUPS[setup]()
        candidates = batch_candidates(data, specs)
        want = [reference_score(terms, data, specs, 0.01)
                for terms in candidates]
        scorer = objective.TermScorer(data, specs, 0.01)
        assert scorer.score_batch(candidates) == want
        assert any(coefs is None for coefs, _ in want)
        swept_to_inf = [coefs is not None and math.isinf(loss.total)
                        for coefs, loss in want]
        assert any(swept_to_inf) == bool(specs)
        # a one-column block: every candidate with two distinct terms or
        # more is scored from a copy of its columns
        stacked_rows = data.n_rows + sum(spec.grid for spec in specs)
        monkeypatch.setattr(objective, "COLUMN_CACHE_BYTES", 8 * stacked_rows)
        tight = objective.TermScorer(data, specs, 0.01)
        assert tight.score_batch(candidates[:300]) == want[:300]
        assert len(tight._slots) == 1

    def test_edge_candidates_in_one_batch(self):
        data = TestTermScorer().data()
        specs = [TestTermScorer().spec((1.0, 1e150)),
                 TestTermScorer().spec((0.5, 2.0))]
        candidates = [[term for term, _ in exprgraph.graph_terms(graph)]
                      for graph, _ in EDGE_CANDIDATES.values()]
        want = [reference_score(terms, data, specs, 0.01)
                for terms in candidates]
        scorer = objective.TermScorer(data, specs, 0.01)
        assert scorer.score_batch(candidates) == want
        # finite, swept to inf and rejected, in EDGE_CANDIDATES' order
        assert [(coefs is None, math.isinf(loss.total))
                for coefs, loss in want] == [(False, False), (False, True),
                                             (True, True)]

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_empty_candidate_is_rejected_alone(self, setup):
        data, specs = SETUPS[setup]()
        normal = tuple(term for term, _ in exprgraph.graph_terms(
            exprgraph.parse("2*n + 1*E^-1 + 3*d^2")))
        want = objective.TermScorer(data, specs, 0.01).score(normal)
        assert want[0] is not None
        rejected = (None, LossBreakdown.rejected())
        scorer = objective.TermScorer(data, specs, 0.01)
        assert scorer.score_batch([(), normal]) == [rejected, want]
        assert scorer.score_batch([normal, ()]) == [want, rejected]
        assert scorer.score_batch([()]) == [rejected]


    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_warm_power_cache_changes_no_score(self, setup):
        data, specs = SETUPS[setup]()
        candidates = batch_candidates(data, specs)
        fresh = objective.TermScorer(data, specs, 0.01)
        want = fresh.score_batch(candidates)
        # one column per (variable, exponent) pair the terms use
        alphabet = evolve.GPConfig().exponent_alphabet
        assert set(fresh._powers) <= {(name, float(exp))
                                      for name in data.variables
                                      for exp in alphabet}
        assert 0 < len(fresh._powers) <= len(data.variables) * len(alphabet)
        # warmed on the batch in reverse, so that the terms it still has
        # to evaluate find every power cached
        warm = objective.TermScorer(data, specs, 0.01)
        warm.score_batch(candidates[::-1])
        powers = dict(warm._powers)
        assert warm.score_batch(candidates) == want
        assert all(warm._powers[key] is powers[key] for key in powers)
        assert any(coefs is None for coefs, _ in want)  # the data-row pole

    def test_cached_pole_column_rejects_alike(self):
        data = TestTermScorer().data()  # x = 0 on the first row
        specs = [TestTermScorer().spec((0.5, 2.0))]
        candidates = [
            [term for term, _ in exprgraph.graph_terms(exprgraph.parse(text))]
            for text in ("1*x^-1 + 1", "1*x^-1*x^2 + 1*x^3",
                         "1*(x^-1 + 2)^-1 + 1*x", "1*x^2 + 1")]
        warm = objective.TermScorer(data, specs, 0.01)
        warm.score(candidates[0])
        # the guarded 1/x, NaN on the x = 0 row, is the column cached
        assert np.isnan(warm._powers[("x", -1.0)][0])
        for terms in candidates[1:]:
            want = reference_score(terms, data, specs, 0.01)
            assert warm.score(terms) == want
            assert objective.TermScorer(data, specs, 0.01).score(terms) == want
        assert [warm.score(terms)[0] is None for terms in candidates] \
            == [True, True, True, False]


X, X2, CONST = (power_fragment(("x", 1)), power_fragment(("x", 2)),
                const_fragment())


def badly_scaled_rows():
    """w^4 is about 1e16 next to x of about 1e-2: ``lstsq``'s rcond cuts
    the small singular values, so (w^4, x, 1) fits r^2 = 0.886 where
    column-scaled columns fit 0.9999997."""
    x = np.linspace(0.01, 0.02, 12)
    return make_dataset(x=x, w=np.linspace(9e3, 1.1e4, 12),
                        y=3.0 * x + 0.5 * np.sin(40.0 * x))


#: name -> (data, candidates) that the stacked fit must solve as lstsq does
STACKED_FITS = {
    "fewer rows than terms": (
        make_dataset(x=[1.0, 2.0], y=[1.0, 3.0]),
        [(X, X2, CONST), (X2, CONST, X), (X, X2)]),
    "two identical terms": (
        make_dataset(x=[1.0, 2.0, 3.0, 5.0], y=[4.0, 8.0, 13.0, 19.0]),
        [(X, X), (X, X, CONST), (X2, X2, X2), (X, CONST)]),
    "constants only": (
        make_dataset(x=[1.0, 2.0, 3.0], y=[1.0, 6.0, 2.0]),
        [(CONST,), (CONST, CONST), (CONST, CONST, CONST), (X, CONST)]),
    "badly scaled": (
        badly_scaled_rows(),
        [(power_fragment(("w", 4)), X, CONST), (X, CONST, X2),
         (power_fragment(("w", 4)),)]),
}


class TestStackedFit:
    """The stacked solves against ``reference_score``, one
    ``np.linalg.lstsq`` per candidate on its C-ordered design, with ``==``:
    stacking may change no bit of a coefficient or an R^2."""

    @staticmethod
    def assert_fits_like_lstsq(scored, candidates, data):
        assert scored == [reference_score(terms, data, [], 0.01)
                          for terms in candidates]

    @pytest.mark.parametrize("name", sorted(STACKED_FITS))
    def test_matches_lstsq_bit_for_bit(self, name):
        data, candidates = STACKED_FITS[name]
        scored = objective.TermScorer(data, [], 0.01).score_batch(candidates)
        self.assert_fits_like_lstsq(scored, candidates, data)

    def test_badly_scaled_design_keeps_the_lstsq_fit(self):
        data, candidates = STACKED_FITS["badly scaled"]
        _, loss = objective.TermScorer(data, [], 0.01).score(candidates[0])
        assert loss.r2 == pytest.approx(0.886, abs=1e-3)

    def test_group_split_into_stacks(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 3.0, 40)
        data = make_dataset(x=x, y=np.log(x) + 0.1 * rng.normal(size=40))
        pool = [X, X2, CONST, power_fragment(("x", -1))]
        candidates = [tuple(pool[j] for j in rng.permutation(4)[:k])
                      for k in (2, 3, 2, 2, 3, 2, 1, 2, 3)]
        stacks = []
        real = objective._lstsq_stack

        def spy(designs, y):
            stacks.append(designs.shape)
            return real(designs, y)

        monkeypatch.setattr(objective, "_lstsq_stack", spy)
        # room for the designs and fitted values of two 2-term candidates,
        # or of one 3-term candidate, per stack
        monkeypatch.setattr(objective, "COLUMN_CACHE_BYTES", 8 * 40 * 6)
        scored = objective.TermScorer(data, [], 0.01).score_batch(candidates)
        self.assert_fits_like_lstsq(scored, candidates, data)
        assert sorted(stacks) == sorted(
            [(1, 40, 1)] + [(2, 40, 2)] * 2 + [(1, 40, 2)] + [(1, 40, 3)] * 3)


class TestDefaultSpec:
    def test_domain_and_nominals(self):
        data = make_dataset(E=[10.0, 20.0, 30.0], n=[4.0, 6.0, 8.0],
                            y=[1.0, 2.0, 3.0])
        spec = default_monotonicity_spec(data, "E", +1)
        assert spec.domain == pytest.approx((8.0, 45.0))
        assert spec.nominal == {"n": 6.0}
        assert spec.grid == objective.DEFAULT_GRID

    def test_domain_clipped_positive(self):
        data = make_dataset(x=[0.0, 1.0, 2.0], y=[1.0, 2.0, 3.0])
        spec = default_monotonicity_spec(data, "x", +1)
        assert spec.domain[0] > 0.0


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("E,n,d,y\n12,4,2.0,31.5\n14,6,2.4,35.0\n", encoding="utf-8")
        data = load_dataset(path)
        assert data.target == "y"
        assert data.variables == ["E", "n", "d"]
        np.testing.assert_allclose(data.columns["n"], [4.0, 6.0])

    def test_non_numeric_cell_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\nboom,4\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_missing_cell_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_multiple_problem_lines_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\noops,2\n3,4\n5,nah\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="line 2.*line 4"):
            load_dataset(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,x\n1,2\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_dataset(path)

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="target"):
            load_dataset(path, target="z")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,y\n", encoding="utf-8")
        with pytest.raises(EmptyDatasetError):
            load_dataset(path)

    def test_nonfinite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x,y\n1,2\ninf,4\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)
