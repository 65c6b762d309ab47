import gc
import math

import numpy as np
import pytest

from coronakit import exprgraph, models
from coronakit.errors import NonFiniteError, UnboundVariableError
from coronakit.evolve import GPConfig, mutate, random_graph
from coronakit.exprgraph import (
    ADD,
    CONST,
    LOG,
    MUL,
    POW,
    VAR,
    GraphBuilder,
    evaluate,
    evaluate_batch,
    graph_from_json,
    graph_to_json,
    render,
    sample_template,
    term_values,
    validate,
)

from helpers import const_fragment, graph_of, log_fragment, power_fragment


def eq5_graph():
    # 0.0878*E*n + 72.3*log10(d) - 648.7/(E*log10(E)), built locally
    b = GraphBuilder()
    root = b.node(ADD)
    b.attach(power_fragment(("E", 1), ("n", 1)), root, 0.0878)
    b.attach(log_fragment(10.0, ("d", 1)), root, 72.3)
    t3 = b.node(MUL)
    p1 = b.node(POW)
    b.edge(t3, p1, -1.0)
    b.edge(p1, b.node(VAR, "E"), 1.0)
    p2 = b.node(POW)
    b.edge(t3, p2, -1.0)
    lg = b.node(LOG)
    b.edge(p2, lg, 10.0)
    b.edge(lg, b.node(VAR, "E"), 1.0)
    b.edge(root, t3, -648.7)
    return b.build(root)


class TestEvaluate:
    def test_forced_arithmetic(self):
        g = graph_of((2.0, power_fragment(("x", 2), ("y", 1))))
        assert evaluate(g, {"x": 3.0, "y": 4.0}) == pytest.approx(72.0, abs=1e-12)

    def test_three_term_an_law_point(self):
        g = eq5_graph()
        expected = 0.0878 * 20 * 8 + 72.3 * math.log10(2.4) \
            - 648.7 / (20 * math.log10(20))
        got = evaluate(g, {"E": 20.0, "n": 8.0, "d": 2.4})
        assert got == pytest.approx(expected, rel=1e-12)
        assert round(got, 3) == 16.607

    def test_log_domain_violation(self):
        g = graph_of((3.0, log_fragment(10.0, ("x", 1))))
        with pytest.raises(NonFiniteError):
            evaluate(g, {"x": 0.0})

    def test_unbound_variable(self):
        g = graph_of((1.0, power_fragment(("x", 1))))
        with pytest.raises(UnboundVariableError):
            evaluate(g, {"y": 1.0})

    def test_deterministic_and_pure(self):
        g = eq5_graph()
        point = {"E": 17.5, "n": 6.0, "d": 2.0}
        first = evaluate(g, point)
        assert all(evaluate(g, point) == first for _ in range(5))

    def test_natural_log_base(self):
        g = graph_of((1.0, log_fragment(math.e, ("x", 1))))
        assert evaluate(g, {"x": math.e}) == pytest.approx(1.0, abs=1e-12)


class TestEvaluateBatch:
    def test_identity(self):
        g = graph_of((1.0, power_fragment(("x", 1))))
        values, finite = evaluate_batch(g, {"x": np.array([1.0, 2.0, 3.0])})
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0])
        assert finite.all()

    def test_reciprocal_guard_flags_row(self):
        g = graph_of((1.0, power_fragment(("x", -1))))
        values, finite = evaluate_batch(g, {"x": np.array([0.0, 1.0])})
        assert not finite[0] and finite[1]
        assert np.isnan(values[0])
        assert values[1] == pytest.approx(1.0)

    def test_four_term_ri_law_row(self):
        from coronakit import models

        g = models.discovered_graph("ri-discovered-4")
        env = {"E": np.array([20.0]), "n": np.array([8.0]), "d": np.array([2.4])}
        values, finite = evaluate_batch(g, env)
        expected = -117.2 * 8 / (64 * 2.4 - 2.4) - 133.5 * 8 / (20 + 8 * 2.4 ** 2) \
            + 98.68 - 629.7 / 20
        assert finite.all()
        assert values[0] == pytest.approx(expected, rel=1e-12)
        assert round(float(values[0]), 3) == 44.832


def poles_env():
    """Six rows on which zeros and negatives make logs and reciprocals
    non-finite."""
    return {"E": np.array([-2.0, 0.0, 1e-12, 0.5, 3.0, 1e200]),
            "n": np.array([4.0, -1.0, 0.0, 2.0, 1e-300, 7.0])}


def mutated_terms():
    """The terms of 60 random candidates over E and n, mutated 0-3 times."""
    config = GPConfig(max_terms=4)
    rng = np.random.default_rng(3)
    terms = []
    for _ in range(60):
        candidate = random_graph(config, ["E", "n"], rng)
        for _ in range(int(rng.integers(0, 4))):
            candidate = mutate(candidate, config, ["E", "n"], rng)
        terms += [term for term, _ in candidate]
    return terms


class TestTermValues:
    def test_var_and_log_columns(self):
        g = graph_of((5.0, power_fragment(("x", 1))),
                     (7.0, log_fragment(10.0, ("x", 1))))
        matrix, ok = term_values(g, {"x": np.array([10.0])})
        assert ok.all()
        np.testing.assert_allclose(sorted(matrix[0]), [1.0, 10.0])

    def test_constant_column(self):
        g = graph_of((4.0, const_fragment()))
        matrix, ok = term_values(g, {"x": np.array([3.0, 9.0])})
        np.testing.assert_allclose(matrix, [[1.0], [1.0]])
        assert ok.all()

    def test_product_and_rational_columns(self):
        b = GraphBuilder()
        root = b.node(ADD)
        b.attach(power_fragment(("E", 1), ("n", 1)), root, 2.0)
        t2 = b.node(MUL)
        p1 = b.node(POW)
        b.edge(t2, p1, -1.0)
        b.edge(p1, b.node(VAR, "E"), 1.0)
        p2 = b.node(POW)
        b.edge(t2, p2, -1.0)
        lg = b.node(LOG)
        b.edge(p2, lg, 10.0)
        b.edge(lg, b.node(VAR, "E"), 1.0)
        b.edge(root, t2, 9.0)
        g = b.build(root)
        matrix, ok = term_values(g, {"E": np.array([10.0]), "n": np.array([2.0])})
        assert ok.all()
        np.testing.assert_allclose(sorted(matrix[0]), [0.1, 20.0], rtol=1e-12)

    def test_nonfinite_rows_flagged(self):
        g = graph_of((1.0, power_fragment(("x", -1))), (2.0, const_fragment()))
        matrix, ok = term_values(g, {"x": np.array([0.0, 2.0])})
        assert list(ok) == [False, True]

    def test_linearity_of_root(self):
        rng = np.random.default_rng(7)
        env = {"x": rng.uniform(0.5, 3.0, size=6),
               "y": rng.uniform(0.5, 3.0, size=6)}
        g = graph_of((2.5, power_fragment(("x", 2))),
                     (-1.5, power_fragment(("y", 1))),
                     (0.25, const_fragment()))
        matrix, ok = term_values(g, env)
        values, finite = evaluate_batch(g, env)
        assert ok.all() and finite.all()
        coefs = np.array([e.feature for e in g.term_edges])
        np.testing.assert_allclose(values, matrix @ coefs, rtol=1e-12)

    def test_many_terms_match_one_term_graphs_bit_for_bit(self):
        env, terms = poles_env(), mutated_terms()
        graph = exprgraph.from_terms([(term, 1.0) for term in terms])
        with np.errstate(invalid="ignore"):  # inf * 0 in a product
            matrix, ok = term_values(graph, env)
            assert matrix.shape == (6, len(terms))
            for j, term in enumerate(terms):
                # the root of a one-term graph with coefficient 1 forms the
                # column as 0.0 + 1.0 * term
                alone = exprgraph.from_terms([(term, 1.0)])
                want = np.broadcast_to(
                    exprgraph._value(exprgraph._root(alone), env, {}), (6,))
                assert matrix[:, j].tobytes() == want.tobytes()
        assert list(ok) == list(np.isfinite(matrix).all(axis=1))
        assert not ok.all() and np.isnan(matrix).any()


    def test_fragments_match_assembled_graph_bit_for_bit(self):
        env, terms = poles_env(), mutated_terms()
        graph = exprgraph.from_terms([(term, 1.0) for term in terms])
        powers = {}
        with np.errstate(invalid="ignore"):  # inf * 0 in a product
            want = term_values(graph, env)[0].T.tobytes()
            plain = exprgraph.fragment_values(terms, env)
            cold = exprgraph.fragment_values(terms, env, powers)
            filled = dict(powers)
            # a warm cache, read in another term order
            warm = exprgraph.fragment_values(terms[::-1], env, powers)[::-1]
        for got in (plain, cold, warm):
            assert got.shape == (len(terms), 6)
            assert got.tobytes() == want
        # the warm call computed no power again
        assert powers.keys() == filled.keys()
        assert all(powers[key] is filled[key] for key in filled)
        assert set(powers) == {(name, float(exp)) for name in ("E", "n")
                               for exp in GPConfig().exponent_alphabet}
        # the cache holds the guarded column: NaN where |E| < DENOM_GUARD
        assert list(np.isnan(powers[("E", -1.0)])) == [False, True, False,
                                                        False, False, False]


class TestNoCyclicGarbage:
    """Evaluation frees its intermediates by reference counting: no call
    leaves objects that only the cyclic collector reclaims."""

    @pytest.mark.parametrize("call", ["evaluate", "evaluate_batch",
                                      "term_values", "fragment_values"])
    def test_call_leaves_no_cycles(self, call):
        graph = models.discovered_graph("an-discovered-5")
        env = {"E": np.linspace(10.0, 30.0, 50), "n": np.full(50, 4.0),
               "d": np.full(50, 2.4)}
        fragments = [term for term, _ in exprgraph.graph_terms(graph)]
        calls = {
            "evaluate": lambda: evaluate(graph, {"E": 20.0, "n": 4.0,
                                                 "d": 2.4}),
            "evaluate_batch": lambda: evaluate_batch(graph, env),
            "term_values": lambda: term_values(graph, env),
            "fragment_values": lambda: exprgraph.fragment_values(
                fragments, env, {}),
        }
        gc.collect()
        gc.disable()
        try:
            calls[call]()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRender:
    def test_formatting_contract(self):
        g = graph_of((2.0, power_fragment(("x", 2))))
        assert render(g) == "2.00000*x^2"

    def test_determinism(self):
        g = eq5_graph()
        assert render(g) == render(g)

    def test_term_order_is_canonical(self):
        a = graph_of((2.0, power_fragment(("x", 1))),
                     (3.0, log_fragment(10.0, ("x", 1))))
        b = graph_of((3.0, log_fragment(10.0, ("x", 1))),
                     (2.0, power_fragment(("x", 1))))
        assert render(a) == render(b)

    def test_four_term_structure(self):
        from coronakit import models

        text = render(models.discovered_graph("an-poly-baseline"))
        assert len(text.split(" + ")) == 4

    def test_exponent_one_elided(self):
        g = graph_of((1.5, power_fragment(("x", 1))))
        assert render(g) == "1.50000*x"

    def test_term_tuples_render_as_their_graph(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            kinds = rng.choice(exprgraph.TEMPLATE_KINDS, size=rng.integers(1, 5))
            terms = [(sample_template(str(k), ["E", "n", "d"], rng),
                      float(rng.normal(scale=100.0))) for k in kinds]
            assert exprgraph.render_terms(terms) \
                == render(exprgraph.from_terms(terms))


class TestParse:
    def only_child(self, graph, nid):
        (edge,) = graph.children(nid)
        return edge, graph.node(edge.child)

    def test_name_is_pow_over_var_under_mul(self):
        g = exprgraph.parse("2*x")
        edge, mul = self.only_child(g, g.root)
        assert (edge.feature, mul.kind) == (2.0, MUL)
        edge, power = self.only_child(g, mul.id)
        assert (edge.feature, power.kind) == (1.0, POW)
        edge, var = self.only_child(g, power.id)
        assert (edge.feature, var.kind, var.name) == (1.0, VAR, "x")

    def test_bare_number_is_const_term(self):
        g = exprgraph.parse("-1.23457e-05 + 3*E^-2")
        const, term = g.term_edges
        assert g.node(const.child).kind == CONST
        assert const.feature == -1.23457e-05
        _, power = self.only_child(g, term.child)
        assert g.children(term.child)[0].feature == -2.0
        assert g.node(g.children(power.id)[0].child).name == "E"

    def test_inner_sum_forms(self):
        g = exprgraph.parse("1*(-1 + -E + 2*n^2)^-1")
        _, mul = self.only_child(g, g.root)
        edge, power = self.only_child(g, mul.id)
        assert edge.feature == -1.0
        _, add = self.only_child(g, power.id)
        parts = g.children(add.id)
        assert [g.node(e.child).kind for e in parts] == [CONST, MUL, MUL]
        assert [e.feature for e in parts] == [-1.0, -1.0, 2.0]

    def test_log_factors(self):
        g = exprgraph.parse("1*log10(E)^-1*ln(E*n)")
        _, mul = self.only_child(g, g.root)
        first, second = g.children(mul.id)
        assert (g.node(first.child).kind, first.feature) == (POW, -1.0)
        edge, log10 = self.only_child(g, first.child)
        assert (log10.kind, edge.feature) == (LOG, 10.0)
        assert (g.node(second.child).kind, second.feature) == (LOG, math.e)
        _, arg = self.only_child(g, second.child)
        assert arg.kind == MUL and len(g.children(arg.id)) == 2

    def test_evaluates_as_the_built_graph(self):
        g = exprgraph.parse("0.0878*E*n + 72.3*log10(d) + -648.7*E^-1*log10(E)^-1")
        point = {"E": 20.0, "n": 8.0, "d": 2.4}
        assert evaluate(g, point) == pytest.approx(evaluate(eq5_graph(), point),
                                                   rel=1e-12)

    @pytest.mark.parametrize("model_id", sorted(models.GRAPH_FORMS))
    def test_rendered_laws_read_back(self, model_id):
        text = render(models.discovered_graph(model_id))
        assert render(exprgraph.parse(text)) == text


class TestSerialization:
    def test_round_trip_identity(self):
        g = eq5_graph()
        back = graph_from_json(graph_to_json(g))
        assert back.to_dict() == g.to_dict()
        assert render(back) == render(g)
        point = {"E": 14.0, "n": 4.0, "d": 3.1}
        assert evaluate(back, point) == evaluate(g, point)

    def test_signed_zero_coefficients_survive(self):
        g = graph_of((0.0, power_fragment(("E", 1))),
                     (-0.0, power_fragment(("n", 2))))
        for back in (exprgraph.ExprGraph.from_dict(g.to_dict()),
                     graph_from_json(graph_to_json(g))):
            signs = [math.copysign(1.0, e.feature) for e in back.term_edges]
            assert signs == [1.0, -1.0]


class TestSharedAtoms:
    """A term is an immutable tree: it reads back from its graph as an
    equal term, and a mutation builds a new tree that shares every
    untouched subtree with its parent."""

    VARS = ["E", "n", "d"]

    def test_drawn_keys_are_the_structural_keys(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            for kind in exprgraph.TEMPLATE_KINDS:
                frag = sample_template(kind, self.VARS, rng)
                ((copy, coef),) = exprgraph.graph_terms(
                    exprgraph.from_terms([(frag, 1.0)]))
                assert coef == 1.0 and copy is not frag
                assert copy == frag and hash(copy) == hash(frag)

    def test_edge_mutation_replaces_one_edge(self):
        cfg = GPConfig(mutation_rates=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(8)
        changes = 0
        for _ in range(300):
            frag = sample_template(exprgraph.RATIONAL_TERM, self.VARS, rng)
            # a copy read back from a graph in which it is the second term
            moved = exprgraph.graph_terms(exprgraph.from_terms(
                [(power_fragment(("E", 1)), 1.0), (frag, 1.0)]))[1][0]
            for parent in (frag, moved):
                before = (parent.tree, parent.sites())
                ((child, coef),) = mutate(((parent, 2.0),), cfg, self.VARS,
                                          rng)
                assert (parent.tree, parent.sites()) == before
                assert coef == 2.0
                # the same sites; the drawn feature may equal the old one
                old, new = parent.sites(), child.sites()
                assert [s[:2] for s in old] == [s[:2] for s in new]
                changed = sum(a[2] != b[2] for a, b in zip(old, new))
                assert changed <= 1
                changes += changed
                # every factor off the mutated path is the parent's own
                assert sum(a is not b for a, b in
                           zip(parent.tree[1], child.tree[1])) <= 1
                # and the graphs differ in that one edge's feature alone
                was = exprgraph.from_terms([(parent, coef)]).to_dict()
                now = exprgraph.from_terms([(child, coef)]).to_dict()
                assert was["nodes"] == now["nodes"]
                assert sum(a != b for a, b in
                           zip(was["edges"], now["edges"])) == changed
        assert changes > 300

    def test_zero_features_keep_their_sign(self):
        ((term, _),) = exprgraph.graph_terms(
            exprgraph.parse("1*(E^2 + -1)^-1"))
        for path, _, _ in term.sites():
            for feature in (0.0, -0.0, 0.0):
                changed = term.with_feature(path, feature)
                graph = exprgraph.from_terms([(changed, 1.0)])
                ((back, _),) = exprgraph.graph_terms(graph)
                again = exprgraph.from_terms([(back, 1.0)])
                zeros = [math.copysign(1.0, e.feature) for e in graph.edges
                         if e.feature == 0.0]
                assert zeros == [math.copysign(1.0, feature)]
                assert [math.copysign(1.0, e.feature) for e in again.edges] \
                    == [math.copysign(1.0, e.feature) for e in graph.edges]


class TestValidate:
    def test_valid_graph(self):
        assert validate(eq5_graph(), max_terms=3) == []

    def test_self_loop_cycle(self):
        b = GraphBuilder()
        root = b.node(ADD)
        m = b.node(MUL)
        b.edge(root, m, 1.0)
        b.edge(m, m, 1.0)
        g = b.build(root)
        assert "cycle" in {v.kind for v in validate(g)}

    def test_root_must_be_add(self):
        b = GraphBuilder()
        root = b.node(MUL)
        p = b.node(POW)
        b.edge(root, p, 2.0)
        b.edge(p, b.node(VAR, "x"), 1.0)
        g = b.build(root)
        assert "root-kind" in {v.kind for v in validate(g)}

    def test_term_count_limit(self):
        terms = [(1.0, power_fragment(("x", 1))) for _ in range(6)]
        g = graph_of(*terms)
        kinds = {v.kind for v in validate(g, max_terms=5)}
        assert "term-count" in kinds
        assert validate(g, max_terms=6) == []

    def test_arity_violations(self):
        b = GraphBuilder()
        root = b.node(ADD)
        p = b.node(POW)
        m = b.node(MUL)
        b.edge(root, m, 1.0)
        b.edge(m, p, 2.0)
        b.edge(p, b.node(VAR, "x"), 1.0)
        b.edge(p, b.node(VAR, "y"), 1.0)  # pow with two children
        g = b.build(root)
        assert "arity" in {v.kind for v in validate(g)}

    def test_unreachable_node(self):
        b = GraphBuilder()
        root = b.node(ADD)
        m = b.node(MUL)
        b.edge(root, m, 1.0)
        b.edge(m, b.node(VAR, "x"), 1.0)
        b.node(VAR, "z")  # dangling
        g = b.build(root)
        assert "unreachable" in {v.kind for v in validate(g)}

    def test_bad_log_base(self):
        b = GraphBuilder()
        root = b.node(ADD)
        m = b.node(MUL)
        b.edge(root, m, 1.0)
        lg = b.node(LOG)
        b.edge(m, lg, 7.0)  # base outside (10, e)
        b.edge(lg, b.node(VAR, "x"), 1.0)
        g = b.build(root)
        assert "edge-feature" in {v.kind for v in validate(g)}

    def test_shared_node_is_named(self):
        b = GraphBuilder()
        root = b.node(ADD)
        power = b.node(POW)
        b.edge(power, b.node(VAR, "x"), 1.0)
        for coef in (2.0, 3.0):
            m = b.node(MUL)
            b.edge(root, m, coef)
            b.edge(m, power, 2.0)
        messages = [v.message for v in validate(b.build(root))
                    if v.kind == "shared-node"]
        assert messages == [f"node {power} has 2 incoming edges; "
                            "a node may have one parent edge"]

    def test_root_child_must_take_coefficient(self):
        b = GraphBuilder()
        root = b.node(ADD)
        p = b.node(POW)
        b.edge(root, p, 2.0)
        b.edge(p, b.node(VAR, "x"), 1.0)
        g = b.build(root)
        assert "root-kind" in {v.kind for v in validate(g)}


class TestTemplates:
    VARS = ["E", "n", "d"]

    def test_polynomial_shape(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            frag = sample_template(exprgraph.POLY_TERM, self.VARS, rng)
            g = exprgraph.from_terms([(frag, 1.0)])
            assert validate(g, max_terms=1) == []
            head = g.node(g.term_edges[0].child)
            assert head.kind == MUL
            kids = g.children(head.id)
            assert 1 <= len(kids) <= 3
            assert all(g.node(e.child).kind == POW for e in kids)
            assert all(e.feature in exprgraph.DEFAULT_ALPHABET for e in kids)

    def test_logarithm_shape(self):
        rng = np.random.default_rng(1)
        bases = set()
        for _ in range(200):
            frag = sample_template(exprgraph.LOG_TERM, self.VARS, rng)
            g = exprgraph.from_terms([(frag, 1.0)])
            assert validate(g, max_terms=1) == []
            logs = [n for n in g.nodes if n.kind == LOG]
            assert len(logs) == 1
            (edge,) = [e for e in g.edges if e.child == logs[0].id]
            assert any(abs(edge.feature - b) < 1e-9 for b in exprgraph.LOG_BASES)
            bases.add(round(edge.feature, 6))
        assert len(bases) == 2

    def test_rational_denominator_summands(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            frag = sample_template(exprgraph.RATIONAL_TERM, self.VARS, rng)
            g = exprgraph.from_terms([(frag, 1.0)])
            assert validate(g, max_terms=1) == []
            adds = [n for n in g.nodes if n.kind == ADD and n.id != g.root]
            assert len(adds) == 1
            summands = [e for e in g.children(adds[0].id)
                        if g.node(e.child).kind == MUL]
            assert 1 <= len(summands) <= 2
            assert all(abs(e.feature) == 1.0 for e in g.children(adds[0].id))

    def test_constant_shape(self):
        rng = np.random.default_rng(3)
        frag = sample_template(exprgraph.CONST_TERM, self.VARS, rng)
        g = exprgraph.from_terms([(frag, 4.0)])
        assert validate(g, max_terms=1) == []
        assert g.node(g.term_edges[0].child).kind == CONST

    def test_single_variable_pool(self):
        rng = np.random.default_rng(4)
        for kind in exprgraph.TEMPLATE_KINDS:
            frag = sample_template(kind, ["x"], rng)
            g = exprgraph.from_terms([(frag, 1.0)])
            assert validate(g, max_terms=1) == []
