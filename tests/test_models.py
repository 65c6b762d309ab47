import math
import random

import numpy as np
import pytest

from coronakit import exprgraph, models
from coronakit.errors import DomainError, UnknownModelError
from coronakit.models import (
    AN,
    RI,
    BundleConfig,
    NoiseLevel,
    an_level,
    convert_reference,
    discovered_graph,
    evaluate_model,
    get_model,
    model_catalog,
    ri_excitation,
)

import oracles

REFERENCE_BUNDLE = BundleConfig(E=20.0, n=8.0, d=2.4)


class TestSpotValues:
    """Frozen values computed by the independent straight-line oracles."""

    CASES = [
        ("an-discovered-3", 16.607),
        ("ri-discovered-4", 44.832),
        ("an-bpa", 72.477),
        ("an-fgh", 73.065),
        ("ri-cispr", 45.276),
        ("ri-ireq", 40.352),
    ]

    @pytest.mark.parametrize("model_id,spot", CASES)
    def test_reference_point(self, model_id, spot):
        got = evaluate_model(model_id, REFERENCE_BUNDLE)
        want = oracles.ORACLES[model_id](20.0, 8.0, 2.4)
        assert got == pytest.approx(want, rel=1e-12)
        assert round(got, 3) == spot

    def test_an_level_reference_unit(self):
        level = an_level("an-discovered-3", REFERENCE_BUNDLE)
        assert isinstance(level, NoiseLevel)
        assert level.reference == models.REF_UW


class TestOracleSuite:
    @pytest.mark.parametrize("model_id", sorted(oracles.ORACLES))
    def test_matches_oracle_at_random_points(self, model_id):
        rng = random.Random(f"oracle:{model_id}")
        fn = oracles.ORACLES[model_id]
        for _ in range(100):
            E, n, d = oracles.sample_point(model_id, rng)
            got = evaluate_model(model_id, BundleConfig(E=E, n=n, d=d))
            want = fn(E, n, d)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestCatalog:
    def test_counts(self):
        catalog = model_catalog()
        assert sum(1 for m in catalog if m.kind == AN) == 12
        assert sum(1 for m in catalog if m.kind == RI) == 11

    def test_term_counts(self):
        assert get_model("an-discovered-3").term_count == 3
        assert get_model("an-discovered-4").term_count == 4
        assert get_model("an-discovered-5").term_count == 5
        assert get_model("ri-discovered-4").term_count == 4

    def test_piecewise_flags(self):
        assert get_model("ri-epri").piecewise
        assert get_model("ri-ireq").piecewise
        assert not get_model("ri-cispr").piecewise

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            get_model("an-bogus")

    def test_kind_mismatch(self):
        with pytest.raises(UnknownModelError):
            ri_excitation("an-bpa", REFERENCE_BUNDLE)
        with pytest.raises(UnknownModelError):
            an_level("ri-cispr", REFERENCE_BUNDLE)


class TestPiecewiseBranches:
    def test_epri_bundle_count_step(self):
        low = evaluate_model("ri-epri", BundleConfig(E=20, n=8, d=2.4))
        high = evaluate_model("ri-epri", BundleConfig(E=20, n=9, d=2.4))
        assert high - low == pytest.approx(5.0, abs=1e-12)

    def test_ireq_bundle_offsets(self):
        one = evaluate_model("ri-ireq", BundleConfig(E=20, n=1, d=2.4))
        two = evaluate_model("ri-ireq", BundleConfig(E=20, n=2, d=2.4))
        three = evaluate_model("ri-ireq", BundleConfig(E=20, n=3, d=2.4))
        twelve = evaluate_model("ri-ireq", BundleConfig(E=20, n=12, d=2.4))
        assert one - two == pytest.approx(3.7, abs=1e-12)
        assert one - three == pytest.approx(6.0, abs=1e-12)
        assert three == pytest.approx(twelve, abs=1e-12)


class TestReferenceConversion:
    def test_pw_to_uw(self):
        out = convert_reference(NoiseLevel(110.0, models.REF_PW), models.REF_UW)
        assert out == NoiseLevel(50.0, models.REF_UW)

    def test_round_trip(self):
        start = NoiseLevel(37.25, models.REF_UW)
        out = convert_reference(convert_reference(start, models.REF_PW),
                                models.REF_UW)
        assert out == start

    def test_zero_uw(self):
        out = convert_reference(NoiseLevel(0.0, models.REF_UW), models.REF_PW)
        assert out == NoiseLevel(60.0, models.REF_PW)

    def test_same_reference_identity(self):
        start = NoiseLevel(12.0, models.REF_UW)
        assert convert_reference(start, models.REF_UW) == start


def sweep(model_id, variable, lo, hi, points=50):
    fixed = {"E": 20.0, "n": 8.0, "d": 2.4}
    values = []
    for x in np.linspace(lo, hi, points):
        fixed[variable] = float(x)
        values.append(evaluate_model(model_id, BundleConfig(**fixed)))
    return np.asarray(values)


class TestMonotoneSweeps:
    """Pointwise nondecreasing sweeps of the preferred discovered laws.

    The four-term RI law fails this along n beyond n ~ 12.8 with its
    published coefficients; that check lives in the acceptance suite.
    """

    @pytest.mark.parametrize("variable,lo,hi", [
        ("E", 12.0, 32.0), ("n", 4.0, 16.0), ("d", 1.5, 3.5)])
    def test_an_three_term_law(self, variable, lo, hi):
        values = sweep("an-discovered-3", variable, lo, hi)
        assert np.all(np.diff(values) >= -1e-9)

    @pytest.mark.parametrize("variable,lo,hi", [
        ("E", 12.0, 32.0), ("d", 1.5, 3.5)])
    def test_ri_four_term_law(self, variable, lo, hi):
        values = sweep("ri-discovered-4", variable, lo, hi)
        assert np.all(np.diff(values) >= -1e-9)


class TestGraphForms:
    @pytest.mark.parametrize("model_id", sorted(models.GRAPH_FORMS))
    def test_graph_matches_closed_form(self, model_id):
        rng = random.Random(f"graph:{model_id}")
        graph = discovered_graph(model_id)
        assert exprgraph.validate(graph, max_terms=5) == []
        for _ in range(40):
            E, n, d = oracles.sample_point(model_id, rng)
            got = exprgraph.evaluate(graph, {"E": E, "n": n, "d": d})
            want = evaluate_model(model_id, BundleConfig(E=E, n=n, d=d))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_graph_term_counts_match_catalog(self):
        for model_id in models.GRAPH_FORMS:
            graph = discovered_graph(model_id)
            assert graph.term_count == get_model(model_id).term_count

    @pytest.mark.parametrize("model_id", sorted(models.GRAPH_FORMS))
    def test_law_string_parses_to_catalog_shape(self, model_id):
        graph = exprgraph.parse(models.GRAPH_FORMS[model_id])
        assert exprgraph.validate(graph, max_terms=5) == []
        assert graph.term_count == get_model(model_id).term_count

    @pytest.mark.parametrize("text,position", [
        ("0.0878*E*n + 72.3*log10(d", 25),
        ("98.68 + -629.7/E", 14),
        ("-117.2*n*(n^2*d - d)^-1", 15),
        ("45.6*log10(E) + 0.07*n*d^", 25),
    ])
    def test_malformed_law_names_position(self, text, position):
        with pytest.raises(ValueError, match=f"at position {position} "):
            exprgraph.parse(text)

    def test_scalar_form_does_not_walk_the_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("graph evaluator called")
        monkeypatch.setattr(exprgraph, "evaluate", refuse)
        monkeypatch.setattr(exprgraph, "_value", refuse)
        assert round(evaluate_model("ri-discovered-4", REFERENCE_BUNDLE), 3) \
            == 44.832

    def test_domain_error_names_model_and_operand(self):
        with pytest.raises(DomainError,
                           match=r"^ri-discovered-4: denominator \(-d \+ d\*n\^2\)"):
            evaluate_model("ri-discovered-4", BundleConfig(E=20, n=1, d=2.4))
        with pytest.raises(DomainError, match=r"^an-discovered-5: evaluates to inf"):
            evaluate_model("an-discovered-5", BundleConfig(E=20, n=1e200, d=2.4))
        with pytest.raises(DomainError, match=r"^an-discovered-3: evaluates to inf"):
            evaluate_model("an-discovered-3", BundleConfig(E=1e300, n=1e300, d=2.4))

    def test_unknown_graph_form(self):
        with pytest.raises(UnknownModelError):
            discovered_graph("an-bpa")


class TestDomainGuards:
    def test_log_denominator_zero(self):
        # E = 1 makes E*log10(E) vanish in the three-term AN law
        with pytest.raises(DomainError):
            evaluate_model("an-discovered-3", BundleConfig(E=1.0, n=8, d=2.4))

    def test_ri_four_term_single_conductor(self):
        # n = 1 zeroes the n^2*d - d denominator
        with pytest.raises(DomainError):
            evaluate_model("ri-discovered-4", BundleConfig(E=20, n=1, d=2.4))

    def test_ri_three_term_unit_gradient(self):
        with pytest.raises(DomainError):
            evaluate_model("ri-discovered-3", BundleConfig(E=1.0, n=8, d=2.4))

    def test_pysr_ri_small_bundle(self):
        with pytest.raises(DomainError):
            evaluate_model("ri-pysr", BundleConfig(E=20, n=6, d=2.4))
        # (n - 6.35) * E must also exceed 1 for the outer logarithm
        with pytest.raises(DomainError):
            evaluate_model("ri-pysr", BundleConfig(E=1.5, n=6.9, d=2.4))

    def test_bundle_validation(self):
        with pytest.raises(DomainError):
            BundleConfig(E=-1.0, n=8, d=2.4)
        with pytest.raises(DomainError):
            BundleConfig(E=20.0, n=0, d=2.4)
        with pytest.raises(DomainError):
            BundleConfig(E=20.0, n=8, d=0.0)
