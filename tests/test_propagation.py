import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from coronakit import cli, models, propagation as pp
from coronakit.errors import (
    CoincidentPointError,
    DefectiveMatrixError,
    GeometryError,
    InputError,
    NonFiniteError,
    ZeroAttenuationError,
    ZeroFieldError,
)

#: the benchmark's predict-ri pool with the levels it checks against
RI_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "ri_reference.json"

BUNDLE = models.BundleConfig(E=20.0, n=8.0, d=2.4)


def phase(x, h, radius=0.015, bundle=BUNDLE):
    return pp.Phase(x=x, h=h, bundle=bundle, subconductor_radius=radius)


def single_line(mic_x=15.0, h=10.0, radius=0.01):
    return pp.LineGeometry(phases=[phase(0.0, h, radius)], mic_x=mic_x, mic_h=1.5)


class TestPhaseDistance:
    def test_reference_point(self):
        geom = pp.LineGeometry(phases=[phase(-15.0, 20.0)], mic_x=0.0, mic_h=1.5)
        want = math.sqrt(225.0 + 342.25)
        assert pp.phase_distance(geom, 0) == pytest.approx(want, rel=1e-12)
        assert round(pp.phase_distance(geom, 0), 3) == 23.817

    def test_vertical_offset(self):
        geom = pp.LineGeometry(phases=[phase(0.0, 10.0)], mic_x=0.0, mic_h=1.5)
        assert pp.phase_distance(geom, 0) == pytest.approx(8.5, abs=1e-12)

    def test_coincident_point_guard(self):
        geom = pp.LineGeometry(phases=[phase(0.0, 1.55)], mic_x=0.0, mic_h=1.5)
        with pytest.raises(CoincidentPointError):
            pp.phase_distance(geom, 0)


class TestGeometryValidation:
    def test_needs_phases(self):
        with pytest.raises(GeometryError):
            pp.LineGeometry(phases=[])

    def test_phase_below_microphone(self):
        with pytest.raises(GeometryError):
            pp.LineGeometry(phases=[phase(0.0, 1.0)], mic_h=1.5)


class TestANGroundLevel:
    def test_single_phase_fixture(self):
        # 50 dB source at R = 10 with the discovered-family coefficient
        geom = pp.LineGeometry(phases=[phase(0.0, 11.5)], mic_x=0.0, mic_h=1.5)
        pred = pp.an_ground_level_from_levels(geom, [50.0], c_coef=11.4)
        assert pred.distances[0] == pytest.approx(10.0, abs=1e-12)
        assert pred.total == pytest.approx(50.0 - 11.4 - 5.8, abs=1e-9)
        assert pred.total == pytest.approx(32.8, abs=1e-6)

    def test_three_equal_contributions(self):
        geom = pp.LineGeometry(
            phases=[phase(-6.0, 9.5), phase(0.0, 11.5), phase(6.0, 9.5)],
            mic_x=0.0, mic_h=1.5)
        # distances are all 10; choose levels so each contribution is 40 dB
        levels = [40.0 + 10.0 * math.log10(10.0) + 5.8] * 3
        pred = pp.an_ground_level_from_levels(geom, levels, c_coef=10.0)
        for contrib in pred.per_phase:
            assert contrib == pytest.approx(40.0, abs=1e-12)
        assert pred.total == pytest.approx(40.0 + 10.0 * math.log10(3.0), rel=1e-12)

    def test_suppressed_phases_degenerate_sum(self):
        geom = pp.LineGeometry(
            phases=[phase(-6.0, 9.5), phase(0.0, 11.5), phase(6.0, 9.5)],
            mic_x=0.0, mic_h=1.5)
        pred = pp.an_ground_level_from_levels(
            geom, [50.0, -math.inf, -math.inf], c_coef=10.0)
        assert pred.total == pytest.approx(pred.per_phase[0], abs=1e-12)

    def test_energy_sum_matches_brute_force_and_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = int(rng.integers(1, 7))
            levels = rng.uniform(20.0, 60.0, z)
            total = pp.incoherent_sum(levels)
            brute = 10.0 * math.log10(np.sum(10.0 ** (levels / 10.0)))
            assert total == pytest.approx(brute, abs=1e-12)
            assert levels.max() - 1e-12 <= total
            assert total <= levels.max() + 10.0 * math.log10(z) + 1e-12

    def test_model_backed_prediction(self):
        geom = pp.LineGeometry(
            phases=[phase(-6.0, 9.5), phase(0.0, 11.5), phase(6.0, 9.5)],
            mic_x=0.0, mic_h=1.5)
        pred = pp.an_ground_level(geom, "an-discovered-3")
        per = models.an_level("an-discovered-3", BUNDLE).value \
            - 11.4 * math.log10(10.0) - 5.8
        assert pred.total == pytest.approx(per + 10.0 * math.log10(3.0), rel=1e-12)

    def test_default_c_coefficient_by_family(self):
        assert pp.default_c_coef("an-discovered-3") == 11.4
        assert pp.default_c_coef("an-bpa") == 10.0
        assert pp.default_c_coef("an-poly-baseline") == 10.0


class TestLineModel:
    def test_single_conductor_capacitance_oracle(self):
        geom = single_line()
        model = pp.build_line_model(geom)
        oracle = 2.0 * math.pi * pp.EPS0 / math.log(2.0 * 10.0 / 0.01)
        assert model.C[0, 0] == pytest.approx(oracle, rel=1e-12)

    def test_mirror_symmetry(self):
        geom = pp.LineGeometry(phases=[phase(-8.0, 12.0), phase(8.0, 12.0)],
                               mic_x=20.0, mic_h=1.5)
        model = pp.build_line_model(geom)
        for mat in (model.Z, model.Y, model.C):
            assert mat[0, 0] == pytest.approx(mat[1, 1], rel=1e-12)
            assert mat[0, 1] == pytest.approx(mat[1, 0], rel=1e-12)

    def test_penetration_depth_vanishes_with_resistivity(self):
        p_small = pp.complex_depth(0.5e6, 1e-12)
        p_normal = pp.complex_depth(0.5e6, 100.0)
        assert abs(p_small) < 1e-6
        assert abs(p_normal) > 1.0
        assert p_normal.real > 0

    def test_overlapping_conductors_rejected(self):
        geom = pp.LineGeometry(phases=[phase(0.0, 10.0, radius=0.5),
                                       phase(0.4, 10.0, radius=0.5)],
                               mic_x=20.0)
        with pytest.raises(GeometryError):
            pp.build_line_model(geom)

    def test_layout_errors_are_input_errors(self):
        geom = single_line()
        for kwargs in ({"f_ri": -1.0}, {"rho": 0.0}, {"radii": [0.0]}):
            with pytest.raises(InputError):
                pp.build_line_model(geom, **kwargs)

    def test_matches_entrywise_numpy_reference(self):
        # the line model as it was built with numpy, one entry at a time
        rng = np.random.default_rng(43)
        for _ in range(50):
            geom = random_geometry(rng)
            model = pp.build_line_model(geom)
            n = len(geom.phases)
            xs = np.array([p.x for p in geom.phases])
            hs = np.array([p.h for p in geom.phases])
            radii = [p.conductor_radius() for p in geom.phases]
            depth = model.penetration_depth
            pot = np.empty((n, n))
            z_ext = np.empty((n, n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        pot[i, j] = math.log(2.0 * hs[i] / radii[i])
                        z_ext[i, j] = np.log(2.0 * (hs[i] + depth) / radii[i])
                    else:
                        direct = math.hypot(xs[i] - xs[j], hs[i] - hs[j])
                        image = math.hypot(xs[i] - xs[j], hs[i] + hs[j])
                        pot[i, j] = math.log(image / direct)
                        image_c = cmath.sqrt((xs[i] - xs[j]) ** 2
                                             + (hs[i] + hs[j] + 2.0 * depth) ** 2)
                        z_ext[i, j] = np.log(image_c / direct)
            omega = 2.0 * math.pi * model.f_ri
            cap = np.linalg.inv(pot / (2.0 * math.pi * pp.EPS0))
            z = 1j * omega * pp.MU0 / (2.0 * math.pi) * z_ext \
                + np.diag([pp.internal_impedance(model.f_ri, r) for r in radii])
            np.testing.assert_allclose(model.C, cap, rtol=1e-13)
            np.testing.assert_allclose(model.Y, 1j * omega * cap, rtol=1e-13)
            np.testing.assert_allclose(model.Z, z, rtol=1e-13)

    def test_bundle_equivalent_radius(self):
        bundle = models.BundleConfig(E=20.0, n=4.0, d=3.0)
        p = pp.Phase(x=0.0, h=15.0, bundle=bundle, subconductor_radius=0.015,
                     bundle_radius=0.3)
        want = 0.3 * (4 * 0.015 / 0.3) ** 0.25
        assert p.conductor_radius() == pytest.approx(want, rel=1e-12)
        # without a bundle radius the subconductor radius is used as-is
        q = pp.Phase(x=0.0, h=15.0, bundle=bundle, subconductor_radius=0.015)
        assert q.conductor_radius() == 0.015
        # default radius derives from the cm diameter
        r = pp.Phase(x=0.0, h=15.0, bundle=bundle)
        assert r.conductor_radius() == pytest.approx(3.0 / 200.0, rel=1e-12)


def fake_model(z, y):
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    return pp.LineElectricalModel(Z=z, Y=np.asarray(y, dtype=complex),
                                  C=np.eye(n), f_ri=0.5e6, rho=100.0,
                                  penetration_depth=1 + 1j,
                                  positions=[(float(i), 10.0) for i in range(n)],
                                  radii=[0.01] * n)


def random_geometry(rng):
    n = int(rng.integers(1, 5))
    xs = np.cumsum(rng.uniform(1.5, 8.0, n)) - 10.0
    hs = rng.uniform(8.0, 25.0, n)
    phases = [phase(float(x), float(h), radius=float(rng.uniform(0.008, 0.04)))
              for x, h in zip(xs, hs)]
    return pp.LineGeometry(phases=phases, mic_x=float(xs[-1] + 15.0), mic_h=1.5)


class TestModalDecomposition:
    def test_identity_product(self):
        dec = pp.modal_decompose(fake_model(np.eye(3), np.eye(3)))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.M), np.eye(3), atol=1e-12)

    def test_balanced_three_by_three_spectrum(self):
        a, b = 4.0, 1.0
        zy = a * np.eye(3) + b * (np.ones((3, 3)) - np.eye(3))
        dec = pp.modal_decompose(fake_model(zy, np.eye(3)))
        got = np.sort(dec.eigenvalues.real)
        np.testing.assert_allclose(got, [3.0, 3.0, 6.0], atol=1e-9)
        assert np.max(np.abs(dec.eigenvalues.imag)) < 1e-9

    def test_residual_property_on_random_models(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            model = pp.build_line_model(random_geometry(rng))
            dec = pp.modal_decompose(model)
            zy = model.Z @ model.Y
            yz = model.Y @ model.Z
            for mat, vecs in ((zy, dec.M), (yz, dec.N)):
                diag = np.linalg.solve(vecs, mat @ vecs)
                off = diag - np.diag(np.diag(diag))
                assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(mat)
            wm = np.sort_complex(np.linalg.eigvals(zy))
            wn = np.sort_complex(np.linalg.eigvals(yz))
            assert np.max(np.abs(wm - wn)) <= 1e-8 * np.max(np.abs(wm))

    def test_yz_eigenvectors_are_y_times_zy_eigenvectors(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            model = pp.build_line_model(random_geometry(rng))
            dec = pp.modal_decompose(model)
            np.testing.assert_array_equal(dec.N, model.Y @ dec.M)
            zy = model.Z @ model.Y
            diag = np.linalg.solve(dec.M, zy @ dec.M)
            off = np.linalg.norm(diag - np.diag(np.diag(diag)))
            assert dec.residual == pytest.approx(off / np.linalg.norm(zy),
                                                 rel=1e-12, abs=1e-30)
            assert dec.residual <= pp.MODAL_TOL

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", [math.nan, math.inf, 1e300],
                             ids=["nan", "inf", "norm-overflow"])
    def test_non_finite_product_is_defective(self, entry):
        z = np.eye(2, dtype=complex)
        z[0, 1] = entry
        with pytest.raises(DefectiveMatrixError):
            pp.modal_decompose(fake_model(z, np.eye(2)))

    def test_gamma_branch_nonnegative_real(self):
        rng = np.random.default_rng(5)
        model = pp.build_line_model(random_geometry(rng))
        dec = pp.modal_decompose(model)
        assert np.all(dec.gamma.real >= 0)
        np.testing.assert_allclose(dec.gamma ** 2, dec.eigenvalues, rtol=1e-10)

    @pytest.mark.parametrize("zy", [[[1.0, 1.0], [0.0, 1.0]],
                                    [[0.0, 1.0], [0.0, 0.0]]],
                             ids=["jordan-block", "nilpotent"])
    def test_defective_product_is_refused(self, zy):
        # both pass the residual check: only cond(M) tells
        with pytest.raises(DefectiveMatrixError, match="condition number"):
            pp.modal_decompose(fake_model(zy, np.eye(2)))

    def test_real_lines_are_well_conditioned(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            model = pp.build_line_model(random_geometry(rng))
            dec = pp.modal_decompose(model)
            assert dec.condition == pytest.approx(
                np.linalg.cond(dec.M, 1), rel=1e-9)
            assert 1.0 <= dec.condition <= 100.0


class TestCoronaCurrents:
    def test_zero_excitation_gives_zero_current(self):
        geom = single_line()
        model = pp.build_line_model(geom)
        dec = pp.modal_decompose(model)
        currents = pp.corona_currents(model, dec, [-math.inf])
        np.testing.assert_allclose(currents, [0.0], atol=0.0)

    def test_linear_scaling(self):
        rng = np.random.default_rng(8)
        geom = random_geometry(rng)
        while len(geom.phases) < 2:
            geom = random_geometry(rng)
        model = pp.build_line_model(geom)
        dec = pp.modal_decompose(model)
        base_db = rng.uniform(30.0, 60.0, len(geom.phases))
        scaled_db = base_db + 20.0 * math.log10(2.0)
        i_base = pp.corona_currents(model, dec, base_db)
        i_scaled = pp.corona_currents(model, dec, scaled_db)
        np.testing.assert_allclose(i_scaled, 2.0 * i_base, rtol=1e-12)

    def test_scalar_reduction(self):
        geom = single_line()
        model = pp.build_line_model(geom)
        dec = pp.modal_decompose(model)
        gamma_db = 45.0
        currents = pp.corona_currents(model, dec, [gamma_db])
        gamma_lin = 10.0 ** (gamma_db / 20.0) * 1e-6
        manual = (1.0 / math.sqrt(4.0 * dec.alpha[0])) * model.C[0, 0] \
            * gamma_lin / (2.0 * math.pi * pp.EPS0)
        assert currents[0] == pytest.approx(manual, rel=1e-12)

    def test_columns_match_single_excitations(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            geom = random_geometry(rng)
            n = len(geom.phases)
            model = pp.build_line_model(geom)
            dec = pp.modal_decompose(model)
            k = int(rng.integers(1, 5))
            gamma_db = rng.uniform(30.0, 60.0, (n, k))
            gamma_db[rng.random((n, k)) < 0.3] = -math.inf
            both = pp.corona_currents(model, dec, gamma_db)
            assert both.shape == (n, k)
            for c in range(k):
                one = pp.corona_currents(model, dec, gamma_db[:, c])
                np.testing.assert_allclose(both[:, c], one, rtol=1e-12,
                                           atol=1e-14 * np.max(np.abs(one)))

    def test_excitation_shape_checked(self):
        model = pp.build_line_model(single_line())
        dec = pp.modal_decompose(model)
        for bad in ([40.0, 40.0], 40.0, np.zeros((1, 1, 1))):
            with pytest.raises(ValueError):
                pp.corona_currents(model, dec, bad)

    def test_zero_attenuation_guard(self):
        model = fake_model(np.eye(2), np.eye(2))
        dec = pp.ModalDecomposition(M=np.eye(2), N=np.eye(2),
                                    eigenvalues=np.array([1.0, 1.0]),
                                    gamma=np.array([1j, 1.0]),
                                    alpha=np.array([0.0, 1.0]))
        with pytest.raises(ZeroAttenuationError):
            pp.corona_currents(model, dec, [40.0, 40.0])


class TestGroundField:
    def test_zero_penetration_depth_cancels_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            geom = random_geometry(rng)
            currents = rng.normal(size=len(geom.phases)) \
                + 1j * rng.normal(size=len(geom.phases))
            h_x, e_y = pp.ground_field(geom, currents, 0.0)
            assert abs(h_x) <= 1e-15
            assert abs(e_y) <= 1e-12
            columns = np.stack([currents, 2.0 * currents, -currents], axis=1)
            h_x, e_y = pp.ground_field(geom, columns, 0.0)
            assert h_x.shape == e_y.shape == (3,)
            assert np.all(h_x == 0) and np.all(e_y == 0)

    def test_lateral_symmetry(self):
        geom = single_line(mic_x=0.0)
        h_plus, _ = pp.ground_field(geom, [1.0 + 0j], 3 + 4j, x=12.0)
        h_minus, _ = pp.ground_field(geom, [1.0 + 0j], 3 + 4j, x=-12.0)
        assert abs(h_plus) == pytest.approx(abs(h_minus), rel=1e-12)

    def test_reference_value(self):
        geom = pp.LineGeometry(phases=[phase(0.0, 10.0)], mic_x=0.0, mic_h=1.5)
        h_x, e_y = pp.ground_field(geom, [1.0 + 0j], 5.0, x=0.0)
        want = (1.0 / (2.0 * math.pi)) * (15.0 / 225.0 - 5.0 / 25.0)
        assert h_x.real == pytest.approx(want, rel=1e-9)
        assert h_x.real == pytest.approx(-0.021221, abs=1e-6)
        assert e_y == pytest.approx(pp.Z0 * h_x, rel=1e-15)

    def test_linear_in_currents(self):
        rng = np.random.default_rng(2)
        geom = random_geometry(rng)
        n = len(geom.phases)
        i1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        i2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = pp.complex_depth(0.5e6, 100.0)
        h1, _ = pp.ground_field(geom, i1, p)
        h2, _ = pp.ground_field(geom, i2, p)
        h12, _ = pp.ground_field(geom, i1 + i2, p)
        assert h12 == pytest.approx(h1 + h2, rel=1e-12)
        h_cols, e_cols = pp.ground_field(geom, np.stack([i1, i2], axis=1), p)
        np.testing.assert_allclose(h_cols, [h1, h2], rtol=1e-12)
        np.testing.assert_allclose(e_cols, pp.Z0 * h_cols, rtol=1e-15)


class TestRiLevel:
    def test_unit_field(self):
        assert pp.ri_level(1e-6) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_db(self):
        assert pp.ri_level(1e-3) == pytest.approx(60.0, abs=1e-12)

    def test_unit_h_field_via_wave_impedance(self):
        e_y = pp.Z0 * 1e-6  # |H_x| = 1 uA/m
        assert pp.ri_level(e_y) == pytest.approx(20 * math.log10(120 * math.pi),
                                                 abs=1e-12)
        assert pp.ri_level(e_y) == pytest.approx(51.527, abs=1e-3)

    def test_zero_field(self):
        with pytest.raises(ZeroFieldError):
            pp.ri_level(0.0)

    @pytest.mark.parametrize("e_field", [complex(math.inf, 0.0),
                                         complex(math.nan, 1.0), 1e305])
    def test_non_finite_level(self, e_field):
        with pytest.raises(NonFiniteError):
            pp.ri_level(e_field)


class TestPhaseCombination:
    def test_dominant_phase(self):
        assert pp.combine_phase_levels([50.0, 45.0, 40.0]) == 50.0

    def test_close_pair_average_plus_margin(self):
        assert pp.combine_phase_levels([50.0, 48.0, 30.0]) \
            == pytest.approx(50.5, abs=1e-12)

    def test_single_phase(self):
        assert pp.combine_phase_levels([42.0]) == 42.0

    def test_power_sum(self):
        got = pp.combine_phase_levels([40.0, 40.0], rule="power-sum")
        assert got == pytest.approx(40.0 + 10.0 * math.log10(2.0), rel=1e-12)


class TestRiLinePrediction:
    def test_distance_decay(self):
        near = pp.ri_line_prediction(single_line(mic_x=15.0), "ri-discovered-4")
        far = pp.ri_line_prediction(single_line(mic_x=30.0), "ri-discovered-4")
        assert far.level < near.level

    def test_mirrored_geometry_mirrors_profile(self):
        phases = [phase(-7.0, 14.0), phase(0.0, 18.0), phase(7.0, 14.0)]
        geom_right = pp.LineGeometry(phases=phases, mic_x=20.0, mic_h=1.5)
        geom_left = pp.LineGeometry(phases=phases, mic_x=-20.0, mic_h=1.5)
        right = pp.ri_line_prediction(geom_right, "ri-cispr")
        left = pp.ri_line_prediction(geom_left, "ri-cispr")
        assert right.level == pytest.approx(left.level, rel=1e-12)
        np.testing.assert_allclose(right.per_phase, left.per_phase[::-1],
                                   rtol=1e-12)

    def test_scalar_chain_composition(self):
        geom = single_line()
        pred = pp.ri_line_prediction(geom, "ri-discovered-4")
        model = pp.build_line_model(geom)
        dec = pp.modal_decompose(model)
        gamma_db = models.ri_excitation("ri-discovered-4", geom.phases[0].bundle)
        currents = pp.corona_currents(model, dec, [gamma_db])
        _, e_y = pp.ground_field(geom, currents, model.penetration_depth)
        assert pred.level == pytest.approx(pp.ri_level(e_y), rel=1e-9)
        np.testing.assert_allclose(pred.currents, currents, rtol=1e-12)

    def test_per_phase_levels_use_each_bundle(self):
        strong = models.BundleConfig(E=26.0, n=8.0, d=2.4)
        weak = models.BundleConfig(E=16.0, n=8.0, d=2.4)
        geom = pp.LineGeometry(phases=[phase(-7.0, 14.0, bundle=strong),
                                       phase(7.0, 14.0, bundle=weak)],
                               mic_x=-15.0, mic_h=1.5)
        pred = pp.ri_line_prediction(geom, "ri-discovered-4")
        assert len(pred.per_phase) == 2
        assert pred.per_phase[0] > pred.per_phase[1]

    def test_phases_match_single_column_chain(self):
        # each per-phase level equals exciting that phase alone through the
        # 1-D corona_currents + ground_field path
        rng = np.random.default_rng(59)
        for _ in range(200):
            geom = random_geometry(rng)
            for p in geom.phases:
                p.bundle = models.BundleConfig(E=float(rng.uniform(14.0, 30.0)),
                                               n=8.0, d=2.4)
            pred = pp.ri_line_prediction(geom, "ri-discovered-4")
            model = pp.build_line_model(geom)
            dec = pp.modal_decompose(model)
            n = len(geom.phases)
            levels = []
            for i, p in enumerate(geom.phases):
                gamma_db = np.full(n, -math.inf)
                gamma_db[i] = models.ri_excitation("ri-discovered-4", p.bundle)
                currents = pp.corona_currents(model, dec, gamma_db)
                _, e_y = pp.ground_field(geom, currents, model.penetration_depth)
                levels.append(pp.ri_level(e_y))
                np.testing.assert_allclose(pred.phase_currents[:, i], currents,
                                           rtol=1e-12,
                                           atol=1e-14 * np.max(np.abs(currents)))
            np.testing.assert_allclose(pred.per_phase, levels, rtol=1e-12)
            strongest = levels.index(max(levels))
            np.testing.assert_array_equal(pred.currents,
                                          pred.phase_currents[:, strongest])
            assert pred.decomposition.residual <= pp.MODAL_TOL

    def test_benchmark_reference_table(self, tmp_path):
        # perfbench checks every predict-ri request against this table at
        # 1e-9; a change that drifts from it fails here first
        pool = json.loads(RI_REFERENCE.read_text(encoding="utf-8"))
        assert len(pool) == 1024
        path = tmp_path / "geometry.json"
        for k, entry in enumerate(pool):
            path.write_text(json.dumps(entry["geometry"]), encoding="utf-8")
            geometry, f_ri, rho = cli.load_geometry(path)
            pred = pp.ri_line_prediction(geometry, entry["model"],
                                         f_ri=f_ri, rho=rho)
            got = [pred.level] + pred.per_phase
            want = [entry["level"]] + entry["per_phase"]
            assert len(got) == len(want) and all(
                abs(g - w) <= 1e-9 * abs(w) for g, w in zip(got, want)), \
                f"entry {k}: {got} against {want}"
