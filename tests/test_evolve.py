import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronakit import evolve, exprgraph, objective
from coronakit.data import Dataset
from coronakit.errors import DegenerateTargetError
from coronakit.evolve import (
    GPConfig,
    Individual,
    RunReport,
    crossover,
    init_population,
    mutate,
    random_graph,
    rank,
    run_discovery,
    select,
)
from coronakit.objective import LossBreakdown

from helpers import power_fragment

VARS = ["E", "n", "d"]


def eq8_dataset():
    E, n, d = np.meshgrid(np.arange(12.0, 31.0, 2.0), [4.0, 6.0, 8.0],
                          [2.0, 2.4, 3.0])
    E, n, d = E.ravel(), n.ravel(), d.ravel()
    y = 1.022 * n + 10.4 * d + 30.839 - 933.633 / E
    return Dataset(columns={"E": E, "n": n, "d": d, "y": y}, target="y")


def candidate(*terms):
    """A candidate's term tuple from (coefficient, fragment) pairs."""
    return tuple((frag, coef) for coef, frag in terms)


as_graph = exprgraph.from_terms


def scored(total, n_terms=1):
    terms = candidate(*[(1.0, power_fragment(("x", 1))) for _ in range(n_terms)])
    return Individual(terms, LossBreakdown(l_acc=total, l_mono=0.0, total=total,
                                           r2=1.0 - total))


class TestConfig:
    def test_defaults_validate(self):
        GPConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"population_size": 7},
        {"population_size": 0},
        {"generations": 0},
        {"max_terms": 0},
        {"mutation_rates": (0.5, 0.5, 0.5)},
        {"mutation_rates": (-0.1, 0.6, 0.5)},
        {"lambda_mono": 0.0},
        {"exponent_alphabet": (0, 1)},
        {"crossover_terms": 0},
        {"seed": -1},
        {"lambda_mono": math.inf},
        {"mutation_rates": (math.nan, 0.5, 0.5)},
        {"template_weights": (math.inf, 0.25, 0.25, 0.15)},
        {"template_weights": (1e308, 1e308, 0.0, 0.0)},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GPConfig(**kwargs).validate()


def normalized(weights):
    w = np.asarray(weights, dtype=float)
    return tuple(w / w.sum())


class TestWeightedDraw:
    """A draw from a cdf table is ``rng.choice(len(p), p=p)``: the same
    index, and the generator left in the same state.  A numpy release that
    changes how ``Generator.choice`` draws fails here by name."""

    @pytest.mark.parametrize("weights, template", [
        (GPConfig().template_weights, True),
        ((0.35, 0.25, 0.0, 0.15), True),
        (GPConfig().mutation_rates, False),
        ((1.0, 0.0, 0.0), False),
        ((0.4, 0.3, 0.3 + 6e-10), False),
    ], ids=["template-default", "template-no-log", "rates-default",
            "rates-edge-only", "rates-inexact-sum"])
    def test_same_index_and_state_as_generator_choice(self, weights,
                                                      template):
        # sample_term passes choice the normalized template weights,
        # mutate the raw mutation rates
        p = normalized(weights) if template else weights
        table = evolve._template_table(weights) if template \
            else evolve.choice_table(weights)
        assert table == evolve.choice_table(tuple(p))
        for seed in range(1000):
            ours = np.random.default_rng(seed)
            numpy_rng = np.random.default_rng(seed)
            for _ in range(5):
                assert evolve.draw_index(table, ours) \
                    == int(numpy_rng.choice(len(p), p=p))
            assert ours.bit_generator.state == numpy_rng.bit_generator.state

    def test_inexact_sum_is_a_valid_config(self):
        rates = (0.4, 0.3, 0.3 + 6e-10)
        assert sum(rates) != 1.0
        GPConfig(mutation_rates=rates).validate()

    @pytest.mark.parametrize("p", [(0.5, 0.6), (-0.1, 1.1), ()])
    def test_rejects_what_generator_choice_rejects(self, p):
        with pytest.raises(ValueError):
            evolve.choice_table(p)


#: range sizes for ``integers``: one value (no draw), two, small, spans
#: that reject a quarter or half of their words (3 * 2**30, 2**31 + 1), and
#: the 32-bit edge, where 2**32 values take a raw word with no rejection
SPANS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 100, 3 * 2**30, 2**31 + 1,
                         2**32 - 1, 2**32])
CALLS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40), SPANS),
    st.tuples(st.just("integers"), SPANS),
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(0, n))),
)


def call(rng, op):
    """One ``CALLS`` entry made on ``rng``, its result as plain Python."""
    if op[0] == "random":
        return float(rng.random())
    if op[0] == "integers":
        if len(op) == 2:
            return int(rng.integers(op[1]))
        low, span = op[1:]
        return int(rng.integers(low, low + span))
    return [int(i) for i in rng.choice(op[1], size=op[2], replace=False)]


def streams(seed):
    """A ``Draws`` and a ``Generator`` over the same seed sequence."""
    return (evolve.Draws(np.random.SeedSequence(seed)),
            np.random.default_rng(np.random.SeedSequence(seed)))


class TestDraws:
    """``Draws`` makes exactly the draws ``default_rng`` makes, call for
    call, and refuses every call whose numpy algorithm it does not repeat."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           calls=st.lists(CALLS, max_size=60),
           block=st.sampled_from([1, 2, 3, 256]))
    def test_same_draws_as_default_rng(self, seed, calls, block):
        # small raw blocks put block boundaries between and inside calls
        with mock.patch.object(evolve, "RAW_BLOCK", block):
            ours, numpy_rng = streams(seed)
        assert [call(ours, op) for op in calls] \
            == [call(numpy_rng, op) for op in calls]

    def test_long_streams_cross_many_blocks(self):
        ops = [("random",), ("integers", 7), ("integers", -3, 2**32),
               ("choice", 7, 3), ("integers", 1), ("choice", 3, 3)]
        for seed in range(20):
            ours, numpy_rng = streams(seed)
            calls = ops * (4 * evolve.RAW_BLOCK // len(ops) + seed)
            assert [call(ours, op) for op in calls] \
                == [call(numpy_rng, op) for op in calls]

    def test_one_value_range_draws_nothing(self):
        ours, numpy_rng = streams(3)
        assert ours.integers(5, 6) == 5 and ours.integers(1) == 0
        assert ours.choice(1, size=1, replace=False) == [0]
        assert ours.choice(0, size=0, replace=False) == []
        assert ours.random() == numpy_rng.random()

    @pytest.mark.parametrize("args, kwargs", [
        ((3,), {"size": 2}),
        ((3,), {"size": 2, "replace": True}),
        ((3,), {"size": 1, "replace": False, "p": [0.2, 0.3, 0.5]}),
        ((10_001,), {"size": 1, "replace": False}),
        ((3,), {"size": 4, "replace": False}),
        ((3,), {"replace": False}),
    ], ids=["default-replace", "replace", "p", "tail-shuffle", "k-above-n",
            "no-size"])
    def test_choice_refuses_what_it_does_not_repeat(self, args, kwargs):
        ours, _ = streams(0)
        with pytest.raises(ValueError):
            ours.choice(*args, **kwargs)

    @pytest.mark.parametrize("args", [(2**32 + 1,), (-1, 2**32), (0,),
                                      (5, 5), (5, 4)])
    def test_integers_refuses_64_bit_and_empty_ranges(self, args):
        ours, _ = streams(0)
        with pytest.raises(ValueError):
            ours.integers(*args)

    @pytest.mark.parametrize("seed", range(40))
    def test_operators_make_the_same_terms(self, seed):
        cfg = GPConfig(max_terms=4)
        results = []
        for rng in streams(seed):
            made = [exprgraph.sample_template(kind, VARS, rng)
                    for kind in exprgraph.TEMPLATE_KINDS for _ in range(5)]
            a = random_graph(cfg, VARS, rng)
            b = random_graph(cfg, VARS, rng)
            made += [a, b, mutate(a, cfg, VARS, rng), mutate(b, cfg, VARS, rng),
                     crossover(a, b, rng, n_swap=2)]
            made.append(evolve._next_generation(
                rank([scored(float(t), n_terms=1 + t % 3) for t in range(10)]),
                GPConfig(population_size=10, max_terms=3), VARS, rng))
            made[-1] = [ind.terms for ind in made[-1]]
            results.append(made)
        assert results[0] == results[1]


class TestInitPopulation:
    def test_structure_and_term_bound(self):
        cfg = GPConfig(population_size=10, max_terms=3, seed=0)
        pop = init_population(cfg, VARS, np.random.default_rng(0))
        assert len(pop) == 10
        for ind in pop:
            assert exprgraph.validate(ind.graph, max_terms=3) == []
            assert 1 <= ind.graph.term_count <= 3
            assert not ind.scored

    def test_same_seed_same_population(self):
        cfg = GPConfig(population_size=20, max_terms=4, seed=0)
        a = init_population(cfg, VARS, np.random.default_rng(42))
        b = init_population(cfg, VARS, np.random.default_rng(42))
        assert [exprgraph.render(i.graph) for i in a] \
            == [exprgraph.render(i.graph) for i in b]

    def test_all_template_kinds_appear(self):
        cfg = GPConfig(population_size=2, max_terms=3, seed=0)
        rng = np.random.default_rng(9)
        found = {"const": False, "log": False, "rational": False, "poly": False}
        for _ in range(10_000):
            for term in random_graph(cfg, VARS, rng):
                g = as_graph((term,))
                nodes = [n for n in g.nodes if n.id != g.root]
                kinds = {n.kind for n in nodes}
                exps = [x.feature for x in g.edges
                        if g.node(x.child).kind == exprgraph.POW]
                if exprgraph.CONST in kinds and len(nodes) == 1:
                    found["const"] = True
                elif exprgraph.LOG in kinds:
                    found["log"] = True
                elif exprgraph.ADD in kinds or any(x < 0 for x in exps):
                    found["rational"] = True
                else:
                    found["poly"] = True
            if all(found.values()):
                break
        assert all(found.values()), found


class TestCrossover:
    def term_renders(self, g):
        return sorted(exprgraph.render(exprgraph.from_terms([t]))
                      for t in exprgraph.graph_terms(g))

    def test_one_for_one_swap(self):
        a = candidate((1.0, power_fragment(("E", 1))),
                      (2.0, power_fragment(("n", 2))))
        b = candidate((3.0, power_fragment(("d", 3))),
                      (4.0, power_fragment(("E", -1))))
        rng = np.random.default_rng(0)
        c1, c2 = map(as_graph, crossover(a, b, rng))
        a, b = as_graph(a), as_graph(b)
        assert exprgraph.validate(c1) == [] and exprgraph.validate(c2) == []
        assert c1.term_count == 2 and c2.term_count == 2
        # union of terms preserved, exactly one exchanged each way
        assert sorted(self.term_renders(c1) + self.term_renders(c2)) \
            == sorted(self.term_renders(a) + self.term_renders(b))
        assert len(set(self.term_renders(c1)) & set(self.term_renders(b))) == 1

    def test_identical_parents_fixed_point(self):
        a = candidate((1.0, power_fragment(("E", 1))),
                      (2.0, power_fragment(("n", 2))))
        c1, c2 = map(as_graph, crossover(a, a, np.random.default_rng(3)))
        assert exprgraph.render(c1) == exprgraph.render(as_graph(a))
        assert exprgraph.render(c2) == exprgraph.render(as_graph(a))

    def test_term_counts_preserved(self):
        rng = np.random.default_rng(1)
        cfg = GPConfig(max_terms=5)
        a = tuple((exprgraph.sample_template("poly", VARS, rng), 1.0)
                  for _ in range(3))
        b = tuple((exprgraph.sample_template("poly", VARS, rng), 1.0)
                  for _ in range(5))
        c1, c2 = map(as_graph, crossover(a, b, rng))
        assert (c1.term_count, c2.term_count) == (3, 5)

    def test_identical_flag_is_the_rendering_check(self):
        rng = np.random.default_rng(5)
        cfg = GPConfig(max_terms=4)
        pool = [random_graph(cfg, VARS, rng) for _ in range(6)]
        pool.append(pool[0])
        for a in pool:
            for b in pool:
                same = exprgraph.render_terms(a) == exprgraph.render_terms(b)
                seed = int(rng.integers(1 << 30))
                given = np.random.default_rng(seed)
                checked = np.random.default_rng(seed)
                assert crossover(a, b, given, n_swap=2, identical=same) \
                    == crossover(a, b, checked, n_swap=2)
                assert given.bit_generator.state \
                    == checked.bit_generator.state

    def test_parents_unmodified(self):
        a = candidate((1.0, power_fragment(("E", 1))))
        b = candidate((2.0, power_fragment(("n", 1))))
        before = (exprgraph.render(as_graph(a)), exprgraph.render(as_graph(b)))
        crossover(a, b, np.random.default_rng(2))
        assert (exprgraph.render(as_graph(a)),
                exprgraph.render(as_graph(b))) == before


class TestMutate:
    def test_edge_feature_mutation(self):
        cfg = GPConfig(mutation_rates=(1.0, 0.0, 0.0), max_terms=4)
        g = candidate((2.0, power_fragment(("x", 2))))
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = as_graph(mutate(g, cfg, ["x"], rng))
            assert exprgraph.validate(out, max_terms=4) == []
            assert out.term_count == 1
            (pow_edge,) = [e for e in out.edges
                           if out.node(e.child).kind == exprgraph.POW]
            assert pow_edge.feature in cfg.exponent_alphabet

    def test_log_base_flip(self):
        from helpers import log_fragment

        cfg = GPConfig(mutation_rates=(1.0, 0.0, 0.0))
        g = candidate((1.0, log_fragment(10.0, ("x", 1))))
        rng = np.random.default_rng(0)
        seen = set()
        current = g
        for _ in range(4):
            current = mutate(current, cfg, ["x"], rng)
            graph = as_graph(current)
            (log_edge,) = [e for e in graph.edges
                           if graph.node(e.child).kind == exprgraph.LOG]
            seen.add(round(log_edge.feature, 6))
        assert seen == {10.0, round(math.e, 6)}

    def test_sites_are_the_graphs_mutable_edges(self):
        cfg = GPConfig(max_terms=4)
        rng = np.random.default_rng(11)
        inner = (exprgraph.POW, exprgraph.LOG)
        for _ in range(2000):
            terms = random_graph(cfg, VARS, rng)
            for _ in range(int(rng.integers(0, 4))):
                terms = mutate(terms, cfg, VARS, rng)
            g = as_graph(terms)
            kind = {n.id: n.kind for n in g.nodes}
            edges = [(kind[e.child] if kind[e.child] in inner
                      else exprgraph.ADD, e.feature) for e in g.edges
                     if kind[e.child] in inner
                     or (kind[e.parent] == exprgraph.ADD and e.parent != g.root)]
            sites = [site[1:] for term, _ in terms for site in term.sites()]
            assert sites == edges

    def test_subgraph_replacement_keeps_count(self):
        cfg = GPConfig(mutation_rates=(0.0, 1.0, 0.0), max_terms=4)
        rng = np.random.default_rng(1)
        g = random_graph(GPConfig(max_terms=3, seed=0), VARS,
                         np.random.default_rng(7))
        for _ in range(20):
            out = as_graph(mutate(g, cfg, VARS, rng))
            assert out.term_count == as_graph(g).term_count
            assert exprgraph.validate(out, max_terms=4) == []

    def test_add_at_limit_removes_instead(self):
        cfg = GPConfig(mutation_rates=(0.0, 0.0, 1.0), max_terms=3)
        rng = np.random.default_rng(2)
        g = candidate(*[(1.0, power_fragment(("E", 1))) for _ in range(3)])
        for _ in range(20):
            out = as_graph(mutate(g, cfg, VARS, rng))
            assert out.term_count == 2  # both branches degrade to removal

    def test_remove_on_single_term_adds_instead(self):
        cfg = GPConfig(mutation_rates=(0.0, 0.0, 1.0), max_terms=3)
        rng = np.random.default_rng(3)
        g = candidate((1.0, power_fragment(("E", 1))))
        for _ in range(20):
            out = as_graph(mutate(g, cfg, VARS, rng))
            assert out.term_count == 2

    def test_constant_only_graph_falls_back_to_replace(self):
        from helpers import const_fragment

        cfg = GPConfig(mutation_rates=(1.0, 0.0, 0.0), max_terms=3)
        g = candidate((2.0, const_fragment()))
        out = as_graph(mutate(g, cfg, VARS, np.random.default_rng(4)))
        assert exprgraph.validate(out, max_terms=3) == []
        assert out.term_count == 1


class TestSelect:
    def test_keeps_best_half(self):
        cfg = GPConfig(population_size=10, max_terms=3)
        pop = [scored(t) for t in (7.0, 2.0, 9.0, 1.0, 5.0, 10.0, 3.0, 8.0,
                                   4.0, 6.0)]
        out = select(pop, cfg)
        survivors = out[:5]
        assert sorted(i.loss.total for i in survivors) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_all_infinite_is_deterministic(self):
        cfg = GPConfig(population_size=4, max_terms=3)
        pop = [scored(math.inf, n_terms=k) for k in (3, 1, 2, 1)]
        out_a = select(list(pop), cfg)
        out_b = select(list(pop), cfg)
        assert [id(i) for i in out_a[:2]] == [id(i) for i in out_b[:2]]
        # tie rule: fewer nodes first, then insertion order
        assert out_a[0] is pop[1] and out_a[1] is pop[3]

    def test_node_count_breaks_ties(self):
        small = scored(1.0, n_terms=1)
        big = scored(1.0, n_terms=3)
        assert rank([big, small])[0] is small


class TestNextGeneration:
    # population 10: five survivors, so the last offspring slot holds one;
    # at crossover_prob 0.5 this stream crosses one of the two pairs
    @pytest.mark.parametrize("crossover_prob,fresh",
                             [(0.0, 5), (0.5, 3), (1.0, 0)])
    def test_draws_only_the_candidates_it_keeps(self, monkeypatch,
                                                crossover_prob, fresh):
        drawn = []

        def recording(config, variables, rng):
            terms = random_graph(config, variables, rng)
            drawn.append(terms)
            return terms

        monkeypatch.setattr(evolve, "random_graph", recording)
        cfg = GPConfig(population_size=10, max_terms=3, mutation_prob=0.0,
                       crossover_prob=crossover_prob)
        ranked = rank([scored(float(t), n_terms=1 + t % 3) for t in range(10)])
        out = evolve._next_generation(ranked, cfg, VARS,
                                      np.random.default_rng(1))
        assert len(out) == 10
        assert all(a is b for a, b in zip(out[:5], ranked[:5]))
        assert len(drawn) == fresh
        offspring = [ind.terms for ind in out[5:]]
        assert all(any(terms is d for terms in offspring) for d in drawn)

    def test_renders_each_survivor_once_at_most(self, monkeypatch):
        rendered, render_terms = [], exprgraph.render_terms

        def recording(terms):
            rendered.append(terms)
            return render_terms(terms)

        monkeypatch.setattr(evolve.exprgraph, "render_terms", recording)
        cfg = GPConfig(population_size=40, max_terms=3, crossover_prob=1.0)
        ranked = rank([scored(float(t), n_terms=1 + t % 3) for t in range(40)])
        evolve._next_generation(ranked, cfg, VARS, np.random.default_rng(2))
        assert rendered
        assert len(rendered) == len({id(terms) for terms in rendered}) <= 20


class TestClosure:
    def test_ten_thousand_random_operations_stay_valid(self):
        cfg = GPConfig(population_size=8, max_terms=4, seed=0)
        rng = np.random.default_rng(123)
        pool = [random_graph(cfg, VARS, rng) for _ in range(16)]
        for step in range(10_000):
            op = step % 3
            if op == 0:
                g = random_graph(cfg, VARS, rng)
            elif op == 1:
                g = mutate(pool[int(rng.integers(len(pool)))], cfg, VARS, rng)
            else:
                i = int(rng.integers(len(pool)))
                j = int(rng.integers(len(pool)))
                g, _ = crossover(pool[i], pool[j], rng)
            graph = as_graph(g)
            assert exprgraph.validate(graph, max_terms=cfg.max_terms) == []
            assert 1 <= graph.term_count <= cfg.max_terms
            pool[int(rng.integers(len(pool)))] = g


class TestRunDiscovery:
    def test_recovers_polynomial_baseline_structure(self):
        cfg = GPConfig(population_size=80, generations=40, max_terms=4, seed=0)
        report = run_discovery(eq8_dataset(), [], cfg)
        assert report.best["r2"] >= 0.999
        assert report.best["terms"] <= 4

    def test_same_seed_bit_identical_report(self):
        data = eq8_dataset()
        cfg = GPConfig(population_size=30, generations=8, max_terms=3, seed=11)
        a = run_discovery(data, [], cfg)
        b = run_discovery(data, [], cfg)
        assert a.to_json() == b.to_json()

    def test_constraint_dominance(self):
        x = np.linspace(1.0, 5.0, 20)
        data = Dataset(columns={"x": x, "y": 10.0 - 2.0 * x}, target="y")
        spec = objective.default_monotonicity_spec(data, "x", +1)
        cfg = GPConfig(population_size=40, generations=25, max_terms=3,
                       lambda_mono=1e6, seed=0)
        report = run_discovery(data, [spec], cfg)
        g = report.best_graph()
        pts = np.linspace(spec.domain[0], spec.domain[1], spec.grid)
        values, finite = exprgraph.evaluate_batch(g, {"x": pts})
        assert finite.all()
        assert np.all(np.diff(values) >= -1e-9)

    def test_best_so_far_trace_non_increasing(self):
        data = eq8_dataset()
        cfg = GPConfig(population_size=30, generations=12, max_terms=4, seed=3)
        report = run_discovery(data, [], cfg)
        rank1 = [row[0] for row in report.trace]
        assert len(report.trace) == 12
        assert all(b <= a + 1e-15 for a, b in zip(rank1, rank1[1:]))

    def test_every_reported_equation_respects_max_terms(self):
        data = eq8_dataset()
        cfg = GPConfig(population_size=30, generations=10, max_terms=3, seed=4)
        report = run_discovery(data, [], cfg)
        for entry in report.equations:
            assert entry["terms"] <= 3
            g = exprgraph.ExprGraph.from_dict(entry["graph"])
            assert exprgraph.validate(g, max_terms=3) == []

    def test_dedup_marks_repeated_renders_infinite(self):
        data = eq8_dataset()
        cfg = GPConfig(population_size=4, generations=1, max_terms=2, seed=0,
                       dedup=True)
        pop = [Individual(candidate((1.0, power_fragment(("E", 1))))),
               Individual(candidate((1.0, power_fragment(("E", 1))))),
               Individual(candidate((1.0, power_fragment(("n", 1)))))]
        scorer = objective.TermScorer(data, [], cfg.lambda_mono)
        evolve._score_population(pop, scorer, cfg.dedup)
        totals = sorted(i.loss.total for i in pop)
        assert math.isfinite(totals[0]) and math.isfinite(totals[1])
        assert math.isinf(totals[2])  # the duplicate render

    def test_degenerate_target_propagates(self):
        x = np.linspace(1.0, 5.0, 10)
        data = Dataset(columns={"x": x, "y": np.full(10, 3.0)}, target="y")
        cfg = GPConfig(population_size=10, generations=2, max_terms=2, seed=0)
        with pytest.raises(DegenerateTargetError):
            run_discovery(data, [], cfg)

    def test_unknown_spec_variable_rejected(self):
        data = eq8_dataset()
        spec = objective.MonotonicitySpec(variable="zz", sign=+1,
                                          domain=(1.0, 2.0), grid=3)
        cfg = GPConfig(population_size=10, generations=2, max_terms=2, seed=0)
        with pytest.raises(ValueError):
            run_discovery(data, [spec], cfg)


class TestRunReport:
    def make_report(self):
        cfg = GPConfig(population_size=20, generations=5, max_terms=3, seed=6)
        return run_discovery(eq8_dataset(), [], cfg)

    def test_json_round_trip(self):
        report = self.make_report()
        back = RunReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()
        assert back.best["expression"] == report.best["expression"]

    def test_leaderboard_lists_best(self):
        report = self.make_report()
        text = report.leaderboard()
        assert "rank" in text.splitlines()[0]
        assert report.best["expression"] in text

    def test_trace_csv_shape(self):
        report = self.make_report()
        lines = report.trace_csv().strip().splitlines()
        assert lines[0] == "generation,rank1,rank2,rank3,rank4,rank5"
        assert len(lines) == 6

    def test_predictions_match_best_graph(self):
        report = self.make_report()
        data = eq8_dataset()
        values, finite = exprgraph.evaluate_batch(report.best_graph(), data)
        assert finite.all()
        np.testing.assert_allclose(report.predictions, values, rtol=0, atol=0)
