import json
import math
import time
import warnings

import numpy as np
import pytest

from coronakit import cli, exprgraph, models


def write_eq8_csv(path):
    E, n, d = np.meshgrid(np.arange(12.0, 31.0, 2.0), [4.0, 6.0, 8.0],
                          [2.0, 2.4, 3.0])
    E, n, d = E.ravel(), n.ravel(), d.ravel()
    y = 1.022 * n + 10.4 * d + 30.839 - 933.633 / E
    lines = ["E,n,d,y"]
    lines += [f"{float(a)!r},{float(b)!r},{float(c)!r},{float(t)!r}"
              for a, b, c, t in zip(E, n, d, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_eq5_csv(path):
    rows = ["E,n,d,y"]
    for E in np.arange(12.0, 31.0, 2.0):
        for n in (4.0, 6.0, 8.0):
            for d in (2.0, 2.4, 3.0):
                y = 0.0878 * E * n + 72.3 * math.log10(d) \
                    - 648.7 / (E * math.log10(E))
                rows.append(f"{float(E)!r},{n!r},{d!r},{float(y)!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_config(path, **overrides):
    cfg = {"variables": ["E", "n", "d"], "target": "y",
           "population_size": 24, "generations": 6, "max_terms": 3, "seed": 5}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def write_geometry(path, phases, mic_x=0.0, mic_h=1.5, **extra):
    payload = {"phases": phases, "mic": {"x": mic_x, "h": mic_h}}
    payload.update(extra)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


THREE_PHASES = [
    {"x": -6.0, "h": 9.5, "E": 20.0, "n": 8, "d": 2.4},
    {"x": 0.0, "h": 11.5, "E": 20.0, "n": 8, "d": 2.4},
    {"x": 6.0, "h": 9.5, "E": 20.0, "n": 8, "d": 2.4},
]


class TestDiscover:
    def test_writes_reports_and_recovers_structure(self, tmp_path, capsys):
        data = write_eq8_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json", population_size=80,
                              generations=40, max_terms=4, seed=0)
        out = tmp_path / "run"
        code = cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["equations"][0]["r2"] >= 0.999
        assert (out / "leaderboard.txt").exists()
        trace = (out / "loss_trace.csv").read_text().strip().splitlines()
        assert trace[0].startswith("generation,rank1")
        assert len(trace) == 41
        assert "best:" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        data = write_eq8_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json",
                              monotonicity=[{"var": "E", "sign": "+1"}])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(out_a)]) == 0
        assert cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() \
            == (out_b / "report.json").read_bytes()

    def test_parallel_matches_serial_bytes(self, tmp_path, capsys):
        data = write_eq8_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json")
        out_s, out_p = tmp_path / "serial", tmp_path / "parallel"
        assert cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(out_s)]) == 0
        assert "warning:" not in capsys.readouterr().err
        assert cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(out_p),
                         "--workers", "2"]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "--workers" in warnings[0]
        assert (out_s / "report.json").read_bytes() \
            == (out_p / "report.json").read_bytes()

    def test_malformed_csv_cites_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("E,n,d,y\n12,4,2.0,31\n12,four,2.0,31\n", encoding="utf-8")
        config = write_config(tmp_path / "config.json")
        code = cli.main(["discover", "--data", str(bad), "--config",
                         str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_header_only_csv_exits_2(self, tmp_path, capsys):
        data = tmp_path / "header.csv"
        data.write_text("E,n,d,y\n", encoding="utf-8")
        config = write_config(tmp_path / "config.json")
        code = cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no data rows" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = write_eq8_csv(tmp_path / "data.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variables": ["E", "n", "d"],
                                      "target": "y", "sparsity": 3}),
                          encoding="utf-8")
        code = cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sparsity" in capsys.readouterr().err


    def discover_exit(self, tmp_path, data=None, workers="1", **config):
        data = data or write_eq8_csv(tmp_path / "data.csv")
        path = write_config(tmp_path / "config.json", **config)
        return cli.main(["discover", "--data", str(data), "--config",
                         str(path), "--out", str(tmp_path / "out"),
                         "--workers", workers])

    def test_odd_population_is_an_input_error(self, tmp_path, capsys):
        assert self.discover_exit(tmp_path, population_size=25) == 2
        assert "error:" in capsys.readouterr().err

    def test_mutation_rates_must_sum_to_one(self, tmp_path, capsys):
        assert self.discover_exit(tmp_path, mutation_rates=[0.5, 0.5, 0.5]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_default_domain_for_negative_variable(self, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        data.write_text("E,n,d,y\n-12,4,2,1\n-14,6,2.4,2\n-16,8,3,4\n",
                        encoding="utf-8")
        code = self.discover_exit(tmp_path, data=data,
                                  monotonicity=[{"var": "E", "sign": "+1"}])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'E'" in err

    @pytest.mark.parametrize("override", [
        {"seed": -1},
        {"mutation_rates": [math.nan, 0.5, 0.5]},
        {"template_weights": [0.35, math.inf, 0.25, 0.15]},
        {"lambda_mono": math.inf},
        {"monotonicity": [{"var": "E", "sign": "+1", "domain": [1, math.inf]}]},
        {"exponent_range": [-3, cli.MAX_EXPONENT + 1]},
        {"monotonicity": [{"var": "E", "sign": "+1",
                           "grid": cli.MAX_GRID + 1}]},
    ], ids=["seed-negative", "rates-nan", "weights-inf", "lambda-inf",
            "domain-inf", "exponent-beyond-limit", "grid-beyond-limit"])
    def test_out_of_range_number_exits_2(self, tmp_path, capsys, override):
        assert self.discover_exit(tmp_path, **override) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, message", [
        ({"target": "E"}, "also listed in 'variables'"),
        ({"variables": ["E", "n", "d", "n"]}, "lists a name twice"),
        ({"monotonicity": [{"var": "E", "sign": "+1"},
                           {"var": "E", "sign": "-1"}]},
         "two monotonicity entries on 'E'"),
    ], ids=["target-among-variables", "duplicate-variable",
            "duplicate-monotonicity"])
    def test_inconsistent_names_exit_2(self, tmp_path, capsys, override,
                                       message):
        assert self.discover_exit(tmp_path, **override) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_must_be_positive(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            self.discover_exit(tmp_path, workers=workers)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def exit_code(argv) -> int:
    """cli.main's exit code, including argparse's own usage errors."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["predict", "--kind", "ri", "--f-ri", "nan"],
    ["predict", "--kind", "ri", "--f-ri", "inf"],
    ["predict", "--kind", "ri", "--f-ri", "1e400"],
    ["predict", "--kind", "ri", "--rho", "nan"],
    ["predict", "--kind", "an", "--c-coef", "nan"],
    ["eval", "--model", "ri-cispr", "--E", "nan", "--n", "8", "--d", "2.4"],
    ["eval", "--model", "ri-cispr", "--E", "20", "--n", "inf", "--d", "2.4"],
    ["eval", "--model", "ri-cispr", "--E", "20", "--n", "8", "--d=-inf"],
    ["eval", "--formula", "GRAPH", "--set", "E=nan", "--set", "n=8",
     "--set", "d=2.4"],
    ["curves", "--model", "an-bpa", "--sweep", "E=nan:20:3",
     "--fixed", "n=8", "--fixed", "d=2.4"],
    ["curves", "--model", "an-bpa", "--sweep", "E=10:1e400:3",
     "--fixed", "n=8", "--fixed", "d=2.4"],
    ["curves", "--model", "an-bpa", "--sweep", "E=10:20:3",
     "--fixed", "n=inf", "--fixed", "d=2.4"],
], ids=["f_ri-nan", "f_ri-inf", "f_ri-overflow", "rho-nan", "c_coef-nan",
        "E-nan", "n-inf", "d-minus-inf", "set-nan", "sweep-nan",
        "sweep-overflow", "fixed-inf"])
def test_non_finite_number_flag_exits_2(tmp_path, capsys, argv):
    graph = tmp_path / "graph.json"
    graph.write_text(exprgraph.graph_to_json(
        models.discovered_graph("an-discovered-3")), encoding="utf-8")
    geometry = write_geometry(tmp_path / "geom.json", THREE_PHASES)
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    if argv[0] == "predict":
        model = "ri-discovered-4" if argv[2] == "ri" else "an-discovered-3"
        argv += ["--geometry", str(geometry), "--model", model]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err


class TestEval:
    def test_ri_model_spot(self, capsys):
        assert cli.main(["eval", "--model", "ri-cispr", "--E", "20",
                         "--n", "8", "--d", "2.4"]) == 0
        assert capsys.readouterr().out.strip() == "45.276 dB"

    def test_an_model_spot(self, capsys):
        assert cli.main(["eval", "--model", "an-discovered-3", "--E", "20",
                         "--n", "8", "--d", "2.4"]) == 0
        assert capsys.readouterr().out.strip() == "16.607 dB(µW/m)"

    def test_unknown_model_lists_catalog(self, capsys):
        code = cli.main(["eval", "--model", "bogus", "--E", "20", "--n", "8",
                         "--d", "2.4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "known models" in err and "an-discovered-3" in err

    def test_model_and_formula_mutually_exclusive(self, tmp_path, capsys):
        assert cli.main(["eval", "--E", "20", "--n", "8", "--d", "2.4"]) == 2
        graph_file = tmp_path / "g.json"
        graph_file.write_text("{}", encoding="utf-8")
        assert cli.main(["eval", "--model", "ri-cispr", "--formula",
                         str(graph_file), "--E", "20", "--n", "8",
                         "--d", "2.4"]) == 2

    def test_formula_reingestion_reproduces_predictions(self, tmp_path, capsys):
        data = write_eq8_csv(tmp_path / "data.csv")
        config = write_config(tmp_path / "config.json", population_size=40,
                              generations=15, max_terms=4, seed=0)
        out = tmp_path / "run"
        assert cli.main(["discover", "--data", str(data), "--config",
                         str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        graph = cli.load_formula(out / "report.json")
        E, n, d = np.meshgrid(np.arange(12.0, 31.0, 2.0), [4.0, 6.0, 8.0],
                              [2.0, 2.4, 3.0])
        rows = list(zip(E.ravel(), n.ravel(), d.ravel()))
        assert len(report["predictions"]) == len(rows)
        for (e_val, n_val, d_val), stored in zip(rows, report["predictions"]):
            got = exprgraph.evaluate(graph, {"E": e_val, "n": n_val, "d": d_val})
            assert abs(got - stored) <= 1e-12 * max(1.0, abs(stored))
        # and the CLI prints the same value at a chosen point
        assert cli.main(["eval", "--formula", str(out / "report.json"),
                         "--E", "20", "--n", "8", "--d", "2.4"]) == 0
        printed = capsys.readouterr().out.strip()
        want = exprgraph.evaluate(graph, {"E": 20.0, "n": 8.0, "d": 2.4})
        assert printed == f"{want:.3f} dB"


def e_squared_graph(**changes):
    """2*E^2 as graph JSON, with top-level keys replaced by ``changes``."""
    payload = {
        "nodes": [{"id": 0, "kind": "add"}, {"id": 1, "kind": "mul"},
                  {"id": 2, "kind": "pow"}, {"id": 3, "kind": "var",
                                             "name": "E"}],
        "edges": [{"from": 0, "to": 1, "feature": 2.0},
                  {"from": 1, "to": 2, "feature": 2.0},
                  {"from": 2, "to": 3, "feature": 1.0}],
        "root": 0,
    }
    payload.update(changes)
    return payload


class TestFormulaFile:
    def eval_exit(self, tmp_path, payload):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return cli.main(["eval", "--formula", str(path), "--E", "20",
                         "--n", "8", "--d", "2.4"])

    def test_well_formed_graph_evaluates(self, tmp_path, capsys):
        assert self.eval_exit(tmp_path, e_squared_graph()) == 0
        assert capsys.readouterr().out.strip() == "800.000 dB"

    @pytest.mark.parametrize("law", sorted(models.GRAPH_FORMS))
    def test_catalog_graphs_load(self, tmp_path, law):
        path = tmp_path / "law.json"
        path.write_text(exprgraph.graph_to_json(models.discovered_graph(law)),
                        encoding="utf-8")
        assert cli.load_formula(path).to_dict() == \
            models.discovered_graph(law).to_dict()

    @pytest.mark.parametrize("changes,message", [
        ({"edges": e_squared_graph()["edges"]
          + [{"from": 1, "to": 5, "feature": 1.0}]}, "unknown node"),
        ({"edges": e_squared_graph()["edges"]
          + [{"from": 1, "to": 1, "feature": 1.0}]}, "cycle"),
        ({"nodes": [{"kind": "add"}]}, "KeyError"),
        ({"nodes": "x"}, "TypeError"),
        ({"nodes": e_squared_graph()["nodes"][:3]
          + [{"id": 3, "kind": "sin", "name": "E"}]}, "unknown node kind"),
        ({"nodes": [{"id": 0, "kind": "add"}, {"id": 2, "kind": "pow"},
                    {"id": 3, "kind": "var", "name": "E"}],
          "edges": [{"from": 0, "to": 2, "feature": 2.0},
                    {"from": 2, "to": 3, "feature": 1.0}]}, "root child 2"),
        ({"edges": [{"from": 0, "to": 1, "feature": "two"}]}, "ValueError"),
        ({"edges": [{"from": 0, "to": 1, "feature": math.nan}]
          + e_squared_graph()["edges"][1:]}, "not finite"),
        ({"root": [0]}, "TypeError"),
    ], ids=["dangling-edge", "self-loop", "node-without-id", "nodes-not-list",
            "unknown-kind", "pow-under-root", "feature-not-number",
            "feature-nan", "root-unhashable"])
    def test_malformed_graph_exits_2(self, tmp_path, capsys, changes, message):
        assert self.eval_exit(tmp_path, e_squared_graph(**changes)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    def test_unbound_variable_exits_2(self, tmp_path, capsys):
        # 2*E^2 + x: neither E nor x is given
        payload = e_squared_graph(
            nodes=e_squared_graph()["nodes"] + [{"id": 4, "kind": "var",
                                                  "name": "x"}],
            edges=e_squared_graph()["edges"] + [{"from": 0, "to": 4,
                                                  "feature": 1.0}])
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["eval", "--formula", str(path), "--n", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'E', 'x'" in err
        assert cli.main(["eval", "--formula", str(path), "--E", "20",
                         "--set", "x=1"]) == 0
        assert capsys.readouterr().out.strip() == "801.000 dB"

    def test_shared_node_exits_2(self, tmp_path, capsys):
        # 2*E^2 + 3*E^2 with both terms' mul over the same pow node
        nodes = e_squared_graph()["nodes"] + [{"id": 4, "kind": "mul"}]
        edges = e_squared_graph()["edges"] + [
            {"from": 0, "to": 4, "feature": 3.0},
            {"from": 4, "to": 2, "feature": 2.0}]
        assert self.eval_exit(tmp_path, e_squared_graph(nodes=nodes,
                                                        edges=edges)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "node 2 has 2 incoming" in err

    def test_doubled_edge_chain_exits_2_at_once(self, tmp_path, capsys):
        # 60 muls, each joined to the next by two edges: 2^60 paths to E
        nodes = [{"id": 0, "kind": "add"}]
        nodes += [{"id": i, "kind": "mul"} for i in range(1, 61)]
        nodes += [{"id": 61, "kind": "pow"},
                  {"id": 62, "kind": "var", "name": "E"}]
        edges = [{"from": 0, "to": 1, "feature": 1.0}]
        for i in range(1, 60):
            edges += [{"from": i, "to": i + 1, "feature": 1.0}] * 2
        edges += [{"from": 60, "to": 61, "feature": 2.0},
                  {"from": 61, "to": 62, "feature": 1.0}]
        start = time.perf_counter()
        code = self.eval_exit(tmp_path, {"nodes": nodes, "edges": edges,
                                         "root": 0})
        assert code == 2 and time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "node 2 has 2 incoming" in err

    def test_nameless_variable_exits_2(self, tmp_path, capsys):
        nodes = e_squared_graph()["nodes"][:3] + [{"id": 3, "kind": "var"}]
        assert self.eval_exit(tmp_path, e_squared_graph(nodes=nodes)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "var node 3 has no name" in err


class TestPredict:
    def test_an_three_phase_energy_sum(self, tmp_path, capsys):
        geometry = write_geometry(tmp_path / "geom.json", THREE_PHASES)
        assert cli.main(["predict", "--kind", "an", "--geometry",
                         str(geometry), "--model", "an-discovered-3"]) == 0
        out = capsys.readouterr().out
        total = float(out.strip().splitlines()[-1].split()[-2])
        from coronakit import models, propagation

        per = models.an_level("an-discovered-3",
                              models.BundleConfig(20.0, 8.0, 2.4)).value \
            - 11.4 - 5.8  # log10(10 m) = 1
        want = per + 10.0 * math.log10(3.0)
        assert total == pytest.approx(want, abs=5e-4)

    def test_ri_distance_decay(self, tmp_path, capsys):
        near = write_geometry(tmp_path / "near.json", THREE_PHASES, mic_x=20.0)
        far = write_geometry(tmp_path / "far.json", THREE_PHASES, mic_x=40.0)
        assert cli.main(["predict", "--kind", "ri", "--geometry", str(near),
                         "--model", "ri-discovered-4"]) == 0
        near_out = capsys.readouterr().out
        assert cli.main(["predict", "--kind", "ri", "--geometry", str(far),
                         "--model", "ri-discovered-4"]) == 0
        far_out = capsys.readouterr().out
        near_level = float(near_out.strip().splitlines()[-1].split()[-2])
        far_level = float(far_out.strip().splitlines()[-1].split()[-2])
        assert far_level < near_level

    def test_geometry_schema_error(self, tmp_path, capsys):
        geometry = write_geometry(tmp_path / "geom.json", THREE_PHASES,
                                  towers=3)
        code = cli.main(["predict", "--kind", "an", "--geometry",
                         str(geometry), "--model", "an-bpa"])
        assert code == 2
        assert "towers" in capsys.readouterr().err

    @pytest.mark.parametrize("phase,extra", [
        ({"h": math.inf}, {}),
        ({}, {"f_ri": math.nan}),
        ({}, {"rho": -math.inf}),
    ], ids=["h-inf", "f_ri-nan", "rho-minus-inf"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, phase, extra):
        phases = [dict(THREE_PHASES[0], **phase)] + THREE_PHASES[1:]
        geometry = write_geometry(tmp_path / "geom.json", phases, **extra)
        code = cli.main(["predict", "--kind", "ri", "--geometry",
                         str(geometry), "--model", "ri-discovered-4"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_kind_model_mismatch(self, tmp_path, capsys):
        geometry = write_geometry(tmp_path / "geom.json", THREE_PHASES)
        assert cli.main(["predict", "--kind", "ri", "--geometry",
                         str(geometry), "--model", "an-bpa"]) == 2

    def ri_exit(self, tmp_path, phases=THREE_PHASES, flags=(), **extra):
        geometry = write_geometry(tmp_path / "geom.json", phases, mic_x=20.0,
                                  **extra)
        return exit_code(["predict", "--kind", "ri", "--geometry",
                          str(geometry), "--model", "ri-discovered-4", *flags])

    @pytest.mark.parametrize("key,value", [
        ("r_sub", 0), ("bundle_radius", 0),
        ("r_sub", -0.01), ("bundle_radius", -0.3),
    ])
    def test_non_positive_radius_exits_2(self, tmp_path, capsys, key, value):
        phases = [THREE_PHASES[0], dict(THREE_PHASES[1], **{key: value}),
                  THREE_PHASES[2]]
        assert self.ri_exit(tmp_path, phases) == 2
        err = capsys.readouterr().err
        assert f"phase 1: {key!r} must be positive" in err

    @pytest.mark.parametrize("phases,flags,extra,message", [
        (THREE_PHASES, [], {"rho": 0}, "resistivity"),
        (THREE_PHASES, [], {"f_ri": -1}, "frequency"),
        (THREE_PHASES, ["--rho", "-3"], {}, "resistivity"),
        (THREE_PHASES, ["--f-ri", "0"], {}, "frequency"),
        ([THREE_PHASES[0], dict(THREE_PHASES[0], x=-5.9, r_sub=0.1)], [], {},
         "overlap"),
        ([THREE_PHASES[0], THREE_PHASES[0]], [], {}, "overlap"),
    ], ids=["rho-zero", "f_ri-negative", "rho-flag", "f_ri-flag", "overlap",
            "duplicate"])
    def test_line_parameter_error_exits_2(self, tmp_path, capsys, phases,
                                          flags, extra, message):
        assert self.ri_exit(tmp_path, phases, flags, **extra) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("phases,extra", [
        ([dict(THREE_PHASES[0], x=1e200)], {}),
        ([dict(THREE_PHASES[0], h=1e200)], {}),
        ([dict(THREE_PHASES[0], x=1e200)] + THREE_PHASES[1:], {}),
        ([dict(THREE_PHASES[0], h=1e200)] + THREE_PHASES[1:], {}),
        (THREE_PHASES, {"f_ri": 1e300}),
    ], ids=["x-one-phase", "h-one-phase", "x-three-phases", "h-three-phases",
            "f_ri"])
    def test_overflow_exits_1(self, tmp_path, capsys, phases, extra):
        assert self.ri_exit(tmp_path, phases, **extra) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("phases,extra", [
        (THREE_PHASES, {"f_ri": 1e200}),
        ([dict(THREE_PHASES[0], r_sub=1e-300)] + THREE_PHASES[1:], {}),
    ], ids=["f_ri", "r_sub"])
    def test_overflow_prints_one_error_line(self, tmp_path, capsys, phases,
                                            extra):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.ri_exit(tmp_path, phases, **extra) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_extreme_numbers_never_print_non_finite_levels(self, tmp_path,
                                                          capsys):
        for n_phases in (1, 3):
            for key in ("x", "h", "E", "n", "d", "r_sub", "bundle_radius",
                        "mic_x", "mic_h", "f_ri", "rho"):
                for value in (1e-300, 1e150, 1e200, 1e300, -1e300):
                    phases = [dict(p) for p in THREE_PHASES[:n_phases]]
                    extra = {"mic_x": 20.0}
                    if key in ("f_ri", "rho", "mic_x", "mic_h"):
                        extra[key] = value
                    else:
                        phases[0][key] = value
                    geometry = write_geometry(tmp_path / "geom.json", phases,
                                              **extra)
                    code = cli.main(["predict", "--kind", "ri", "--geometry",
                                     str(geometry), "--model",
                                     "ri-discovered-4"])
                    out, err = capsys.readouterr()
                    case = (n_phases, key, value, code, err)
                    assert code in (0, 1, 2), case
                    if code == 0:
                        levels = [float(line.split()[-2 if ":" in line else -1])
                                  for line in out.splitlines()[1:]]
                        assert all(math.isfinite(v) for v in levels), case
                    else:
                        assert "error: " in err, case

    RI_DEFAULT_OUTPUT = (
        "phase  level [dB(µV/m)]\n"
        "    0            51.258\n"
        "    1            48.243\n"
        "    2            58.210\n"
        "radio interference: 58.210 dB(µV/m)\n")

    def test_ri_default_output_is_pinned(self, tmp_path, capsys):
        assert self.ri_exit(tmp_path) == 0
        assert capsys.readouterr().out == self.RI_DEFAULT_OUTPUT

    def test_ri_explain(self, tmp_path, capsys):
        from coronakit import propagation

        assert self.ri_exit(tmp_path, flags=["--explain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(self.RI_DEFAULT_OUTPUT)
        lines = out[len(self.RI_DEFAULT_OUTPUT):].splitlines()
        geometry, f_ri, rho = cli.load_geometry(tmp_path / "geom.json")
        pred = propagation.ri_line_prediction(geometry, "ri-discovered-4",
                                              f_ri=f_ri, rho=rho)
        assert lines[0].split() == ["mode", "alpha", "[Np/m]"]
        alphas = [float(line.split()[1]) for line in lines[1:4]]
        assert alphas == pytest.approx(list(pred.decomposition.alpha), rel=1e-6)
        assert lines[4].startswith("diagonalization residual: ")
        assert float(lines[4].split()[2]) <= propagation.MODAL_TOL
        assert "tolerance 1e-08" in lines[4]
        condition = float(lines[4].split("cond(M): ")[1].split()[0])
        assert condition == pytest.approx(pred.decomposition.condition,
                                          rel=1e-2)
        assert 1.0 <= condition <= 10.0 and "(limit 1e+08)" in lines[4]
        assert lines[5].split()[:2] == ["excited", "level"]
        rows = [line.split() for line in lines[6:]]
        assert len(rows) == 3
        for i, row in enumerate(rows):
            assert int(row[0]) == i
            assert float(row[1]) == pytest.approx(pred.per_phase[i], abs=5e-4)
            assert [float(v) for v in row[2:]] == pytest.approx(
                list(abs(pred.phase_currents[:, i])), rel=1e-3)

    def test_explain_is_ri_only(self, tmp_path, capsys):
        geometry = write_geometry(tmp_path / "geom.json", THREE_PHASES)
        assert cli.main(["predict", "--kind", "an", "--geometry", str(geometry),
                         "--model", "an-discovered-3", "--explain"]) == 2
        assert "--explain" in capsys.readouterr().err


class TestBenchmark:
    def test_self_consistency_and_ordering(self, tmp_path, capsys):
        data = write_eq5_csv(tmp_path / "cage.csv")
        out = tmp_path / "bench.csv"
        assert cli.main(["benchmark", "--data", str(data), "--models",
                         "an-bpa,an-discovered-3,an-enel", "--out",
                         str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,rmse,mre,rows,skipped"
        table = [line.split(",") for line in lines[1:]]
        assert table[0][0] == "an-discovered-3"
        assert float(table[0][1]) <= 1e-9
        rmses = [float(row[1]) for row in table]
        assert rmses == sorted(rmses)

    def test_domain_error_rows_excluded_with_count(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        path.write_text("E,n,d,y\n20,8,2.4,45\n20,1,2.4,40\n20,6,2.4,44\n",
                        encoding="utf-8")
        assert cli.main(["benchmark", "--data", str(path), "--models",
                         "ri-discovered-4"]) == 0
        out = capsys.readouterr().out
        row = [t for t in out.splitlines() if t.startswith("ri-discovered-4 ")][0]
        assert row.split()[-1] == "1"  # one skipped row (n = 1)
        assert row.split()[-2] == "2"
        assert "row 2 (file line 3) excluded" in out

    def test_unknown_model(self, tmp_path, capsys):
        data = write_eq5_csv(tmp_path / "cage.csv")
        assert cli.main(["benchmark", "--data", str(data), "--models",
                         "nope"]) == 2


class TestCurves:
    def test_monotone_gradient_sweep(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert cli.main(["curves", "--model", "an-discovered-3", "--sweep",
                         "E=12:32:50", "--fixed", "n=8", "--fixed", "d=2.4",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "E,an-discovered-3"
        assert len(lines) == 52  # header + steps + 1 rows
        ys = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b - a >= -1e-9 for a, b in zip(ys, ys[1:]))

    def test_ri_gradient_sweep_monotone(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert cli.main(["curves", "--model", "ri-discovered-4", "--sweep",
                         "E=12:32:24", "--fixed", "n=8", "--fixed", "d=2.4",
                         "--out", str(out)]) == 0
        ys = [float(line.split(",")[1])
              for line in out.read_text().strip().splitlines()[1:]]
        assert len(ys) == 25
        assert all(b - a >= -1e-9 for a, b in zip(ys, ys[1:]))

    def test_zero_steps_single_row(self, capsys):
        assert cli.main(["curves", "--model", "an-bpa", "--sweep",
                         "E=15:30:0", "--fixed", "n=8", "--fixed",
                         "d=2.4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("15")

    def test_swept_variable_cannot_be_fixed(self, capsys):
        assert cli.main(["curves", "--model", "an-bpa", "--sweep",
                         "E=15:30:5", "--fixed", "E=20", "--fixed", "n=8",
                         "--fixed", "d=2.4"]) == 2

    def test_domain_error_lists_offending_points(self, capsys):
        code = cli.main(["curves", "--model", "an-discovered-3", "--sweep",
                         "E=0.5:1.5:2", "--fixed", "n=8", "--fixed", "d=2.4"])
        assert code == 1
        assert "E = 1" in capsys.readouterr().err
