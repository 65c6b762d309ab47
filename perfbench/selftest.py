"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A smoke run of every workload at tiny size, untraced and traced, must
   print exactly the metrics BENCHMARK.json names, with their units.
2. Each output check must pass on a real output and fail on a
   deliberately corrupted copy of it.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.

Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

problems: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"# {'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        problems.append(what)


def smoke(benchmark: dict) -> None:
    from inputs import Sizes

    tiny = Sizes(population=20, generations=3, rows=300, pool_subset=16)
    print("# smoke runs: searches this small miss the r2 targets, so their "
          "failed checks are expected; only the metric names are asserted")
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in benchmark[key]}
        for workload in run.WORKLOADS:
            out = run.run_workload(workload, 0, 0.2, trace, tiny)
            print("\n".join(out["lines"]))
            got = {name: m["unit"] for name, m in out["result"]["metrics"].items()}
            expect(got == want, f"smoke {workload} trace={int(trace)}: prints "
                                f"every {key} metric with its unit")


def corrupted_outputs() -> None:
    import checks
    from coronakit import cli, exprgraph, propagation
    from coronakit.data import load_dataset
    from inputs import Sizes, load_reference, run_config, write_discover_inputs

    # predict-ri: one reference entry, then a level perturbed by 1e-8
    entry = load_reference()[0]
    work = run.HERE / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "geometry.json").write_text(json.dumps(entry["geometry"]))
        line, f_ri, rho = cli.load_geometry(work / "geometry.json")
        got = propagation.ri_line_prediction(line, entry["model"], f_ri=f_ri,
                                             rho=rho)
        expect(not checks.check_prediction(got.level, got.per_phase, entry),
               "prediction check passes on the reference entry")
        bad = dict(entry, level=entry["level"] * (1 + 1e-8))
        expect(bool(checks.check_prediction(got.level, got.per_phase, bad)),
               "prediction check fails on a perturbed reference level")
        expect(bool(checks.check_prediction(float("nan"), got.per_phase, entry)),
               "prediction check fails on a non-finite level")

        # discover: a tiny real report, then corrupted copies
        write_discover_inputs("discover-mono", 0, Sizes(), work)
        (work / "config.json").write_text(json.dumps(
            run_config(0, Sizes(population=20, generations=3), True)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["discover", "--data", str(work / "data.csv"),
                             "--config", str(work / "config.json"),
                             "--out", str(work / "out")])
        payload = json.loads((work / "out" / "report.json").read_bytes())
        data = load_dataset(work / "data.csv", target="L")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def reevaluate(graph):
        return exprgraph.evaluate_batch(exprgraph.ExprGraph.from_dict(graph),
                                        data)[0]

    def dump(p):
        return json.dumps(p, indent=2, sort_keys=True).encode() + b"\n"

    # The tiny search need not reach the r2 target; state a passing r2 so
    # that each corruption below is the only fault.
    payload["equations"][0]["r2"] = 0.9995
    good = dump(payload)

    def check(report, first=good, exit_code=code):
        return checks.check_discover("discover-mono", exit_code, report, first,
                                     reevaluate)

    expect(code == 0 and not check(good), "discover check passes on a real report")
    expect(bool(check(good, exit_code=1)), "discover check fails on exit code 1")
    expect(bool(check(good.replace(b'"seed": 0', b'"seed": 1'))),
           "discover check fails on a non-identical report")
    low = json.loads(good)
    low["equations"][0]["r2"] = 0.998
    expect(bool(check(dump(low), first=dump(low))),
           "discover check fails on r2 below target")
    moved = json.loads(good)
    moved["predictions"][0] += 1e-6
    expect(bool(check(dump(moved), first=dump(moved))),
           "discover check fails on predictions that differ from the best graph")


def bare_directory(benchmark_file: Path) -> None:
    bare = run.HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(benchmark_file, bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "predict-ri",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           "without the sources the benchmark exits non-zero and prints no result")


def main() -> int:
    run.import_coronakit()
    benchmark_file = run.ROOT / "BENCHMARK.json"
    benchmark = json.loads(benchmark_file.read_text())
    smoke(benchmark)
    corrupted_outputs()
    bare_directory(benchmark_file)
    print(f"# selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
