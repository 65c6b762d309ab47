"""Property-based tests: the render/parse round trip, the term/graph round
trip, compiled terms against the graph evaluator, the facts a term and an
individual keep against the same facts recomputed, and the input loaders.

Example counts are bounded so that the whole file runs in a few seconds.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coronakit import cli, evolve, exprgraph, objective
from coronakit.data import Dataset, load_dataset
from coronakit.errors import InputError, NonFiniteError

VARIABLES = ["E", "n", "d", "x_1"]

# Subnormal coefficients are left out: they carry fewer than the six
# significant digits render writes, so their text cannot read back alike.
COEFFICIENTS = st.floats(allow_nan=False, allow_infinity=False,
                         allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mutations=st.integers(0, 4),
       coefs=st.lists(COEFFICIENTS, min_size=4, max_size=4))
def test_render_parse_round_trip(seed, mutations, coefs):
    config = evolve.GPConfig(max_terms=4)
    rng = np.random.default_rng(seed)
    terms = evolve.random_graph(config, VARIABLES, rng)
    for _ in range(mutations):
        terms = evolve.mutate(terms, config, VARIABLES, rng)
    graph = exprgraph.from_terms([(term, coef)
                                  for (term, _), coef in zip(terms, coefs)])
    text = exprgraph.render(graph)
    parsed = exprgraph.parse(text)
    assert exprgraph.validate(parsed) == []
    assert exprgraph.render(parsed) == text


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mutations=st.integers(0, 4),
       coefs=st.lists(COEFFICIENTS, min_size=4, max_size=4))
def test_terms_read_back_from_their_graph(seed, mutations, coefs):
    config = evolve.GPConfig(max_terms=4)
    rng = np.random.default_rng(seed)
    terms = evolve.random_graph(config, VARIABLES, rng)
    for _ in range(mutations):
        terms = evolve.mutate(terms, config, VARIABLES, rng)
    terms = [(term, coef) for (term, _), coef in zip(terms, coefs)]
    back = exprgraph.graph_terms(exprgraph.from_terms(terms))
    assert back == terms
    assert [hash(term) for term, _ in back] == [hash(term) for term, _ in terms]


class OutOfDomain(Exception):
    pass


def out_of_domain(message):
    raise OutOfDomain(message)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mutations=st.integers(0, 4),
       point=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=4, max_size=4))
def test_compiled_term_matches_evaluate(seed, mutations, point):
    config = evolve.GPConfig(max_terms=4)
    rng = np.random.default_rng(seed)
    terms = evolve.random_graph(config, VARIABLES, rng)
    for _ in range(mutations):
        terms = evolve.mutate(terms, config, VARIABLES, rng)
    assignment = dict(zip(VARIABLES, point))
    for term, _ in terms:
        graph = exprgraph.from_terms([(term, 1.0)])
        compiled = exprgraph.compile_scalar(graph, VARIABLES, out_of_domain)
        try:
            with np.errstate(all="ignore"):
                want = exprgraph.evaluate(graph, assignment)
        except NonFiniteError:
            with pytest.raises(OutOfDomain):
                compiled(*point)
        else:
            assert compiled(*point) == pytest.approx(want, rel=1e-12, abs=0.0)


def positive_rows():
    """12 rows over VARIABLES with positive values, and a target."""
    rng = np.random.default_rng(4)
    columns = {name: rng.uniform(0.5, 4.0, 12) for name in VARIABLES}
    columns["y"] = rng.normal(size=12)
    return Dataset(columns=columns, target="y")


SCORER = objective.TermScorer(positive_rows(), [], 0.01)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mutations=st.integers(0, 4))
def test_cached_facts_equal_recomputed_facts(seed, mutations):
    config = evolve.GPConfig(max_terms=4)
    rng = np.random.default_rng(seed)
    terms = evolve.random_graph(config, VARIABLES, rng)
    for _ in range(mutations):
        terms = evolve.mutate(terms, config, VARIABLES, rng)
    ind = evolve.Individual(terms)
    assert ind.node_count == len(exprgraph.from_terms(terms).nodes)
    for term, _ in terms:
        fresh = exprgraph.TermFragment(term.tree)
        assert term.sites() == fresh.sites()
        assert term.node_count == fresh.node_count
    # rendered before scoring, with the drawn coefficients, then scored
    assert ind.rendering == exprgraph.render_terms(terms)
    evolve._score_population([ind], SCORER, dedup=False)
    assert ind.rendering == exprgraph.render_terms(ind.terms)
    assert ind.rendering is ind.rendering


# numbers as the JSON loaders see them: plausible values, the non-finite
# floats json.loads accepts (NaN, Infinity), and an integer beyond the
# float range; plus a few values of the wrong type
NUMBERS = st.one_of(st.floats(0.5, 40.0), st.integers(-5, 40), st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
VALUES = st.one_of(NUMBERS, st.sampled_from([True, None, "1", [1.0]]))

RUN_CONFIGS = st.fixed_dictionaries(
    {"variables": st.just(["E", "n", "d"]), "target": st.just("y")},
    optional={
        "population_size": VALUES, "generations": VALUES,
        "max_terms": VALUES, "seed": VALUES, "lambda_mono": VALUES,
        # the loader expands an accepted range into an alphabet, so the
        # bounds drawn here stay small enough to expand even if its limit
        # on them were lost
        "exponent_range": st.lists(
            st.one_of(st.integers(-50, 50), st.sampled_from(
                [True, None, "1", 1.5, math.nan, -10**6, 10**6])),
            min_size=1, max_size=3),
        "mutation_rates": st.lists(VALUES, min_size=2, max_size=4),
        "template_weights": st.lists(VALUES, min_size=3, max_size=5),
        "monotonicity": st.lists(st.fixed_dictionaries(
            {"var": st.sampled_from(["E", "n", "x"]),
             "sign": st.sampled_from(["+1", "-1", 1])},
            optional={"domain": st.lists(VALUES, min_size=1, max_size=3),
                      "grid": VALUES}), max_size=2),
    })

GEOMETRIES = st.fixed_dictionaries(
    {"phases": st.lists(st.fixed_dictionaries(
        {key: VALUES for key in ("x", "h", "E", "n", "d")},
        optional={"r_sub": VALUES, "bundle_radius": VALUES}),
        max_size=3)},
    optional={"mic": st.dictionaries(st.sampled_from(["x", "h"]), VALUES),
              "f_ri": VALUES, "rho": VALUES})

CELLS = st.one_of(NUMBERS.map(repr), st.sampled_from(
    ["", "nan", "inf", "-Infinity", "1e400", "four", " 2 "]))

LOADER_SETTINGS = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@LOADER_SETTINGS
@given(payload=RUN_CONFIGS)
def test_run_config_loads_or_raises_input_error(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        cli._gp_config(cli.load_run_config(path), path)
    except InputError:
        pass


@LOADER_SETTINGS
@given(payload=GEOMETRIES)
def test_geometry_loads_or_raises_input_error(tmp_path, payload):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        cli.load_geometry(path)
    except InputError:
        pass


@LOADER_SETTINGS
@given(rows=st.lists(st.lists(CELLS, min_size=3, max_size=5), max_size=4))
def test_csv_loads_or_raises_input_error(tmp_path, rows):
    path = tmp_path / "data.csv"
    lines = ["E,n,d,y"] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load_dataset(path, target="y", variables=["E", "n", "d"])
    except InputError:
        pass
