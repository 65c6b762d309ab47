"""coronakit benchmark: discovery and RI line prediction, end to end and
layer by layer.

    python3 perfbench/run.py --workload discover-mono --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

Run from any directory; the benchmark imports coronakit from the
``src/`` next to this directory and works in ``perfbench/_work/``.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics from a separate traced run.  Lines before it, starting with
``#``, record the environment, sample counts and failed checks.
``--workload all`` runs every workload in its own process and prints a
table.  ``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BENCHMARK.json says why each workload is here
WORKLOADS = ("discover-mono", "discover-rows", "predict-ri")

END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "throughput_per_s": "1/s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "evolve.select_s": "s", "evolve.random_graph_calls": "count",
    "evolve.refill_used_ratio": "ratio", "evolve.crossover_s": "s",
    "evolve.mutate_s": "s", "evolve.rank_s": "s", "evolve.dispatch_s": "s",
    "objective.score_candidate_s": "s",
    "objective.score_candidate_calls": "count",
    "objective.rejected_ratio": "ratio", "objective.monotonicity_loss_s": "s",
    "objective.fit_self_s": "s",
    "exprgraph.term_values_s": "s", "exprgraph.term_evals": "count",
    "exprgraph.term_repeat_ratio": "ratio", "exprgraph.evaluate_batch_s": "s",
    "exprgraph.from_terms_s": "s", "exprgraph.graph_terms_s": "s",
    "exprgraph.render_s": "s",
    "data.load_dataset_s": "s", "cli.load_geometry_s": "s",
    "propagation.build_line_model_s": "s",
    "propagation.modal_decompose_s": "s",
    "propagation.corona_currents_s": "s", "propagation.ground_field_s": "s",
    "models.ri_excitation_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: set-up repetitions per run; setup_s is their median
SETUP_REPEATS = 5


def fail_usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_coronakit():
    """Import coronakit from this checkout's src/, never from elsewhere."""
    if not (SRC / "coronakit" / "__init__.py").is_file():
        fail_usage(f"no coronakit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coronakit
    if Path(coronakit.__file__).resolve().parent != SRC / "coronakit":
        fail_usage(f"imported coronakit from {coronakit.__file__}, not {SRC}")
    return coronakit


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, or why unknown."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return str(getter())
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"seed": seed, "nproc": nproc(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_version, "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset")}


def measure_setup(workload: str, seed: int, directory: Path,
                  repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports coronakit and
    writes the workload's inputs."""
    command = [sys.executable, str(HERE / "inputs.py"), "setup",
               "--workload", workload, "--seed", str(seed),
               "--dir", str(directory)]
    times = []
    for _ in range(repeats):
        started = perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        times.append(perf_counter() - started)
        if done.returncode != 0:
            raise SystemExit(f"input set-up failed:\n{done.stderr}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_line(latencies) -> str | None:
    """p99, when at least ten samples lie beyond it.

    A discover run times a handful of operations, too few for any tail;
    that is why no tail latency is among the end-to-end metrics, which
    every workload must report.
    """
    if len(latencies) < 1000:
        return None
    value = statistics.quantiles(latencies, n=100)[98]
    return f"latency p99 = {1000.0 * value:.6g} ms over {len(latencies)} operations"


def ratio(part: float, whole: float) -> float:
    """part / whole, 0 when nothing was attempted."""
    return part / whole if whole else 0.0


class Outcome:
    """Timed operations and failed checks of one run."""

    def __init__(self, work_per_op: int):
        self.work_per_op = work_per_op
        self.latencies: list[float] = []
        self.untraced: list[float] = []
        self.attempted = 0
        self.failures: dict[int, list[str]] = {}
        self.notes: list[str] = []
        self.layers: dict[str, float] = {}

    def fail(self, op: int, messages: list[str]) -> None:
        known = self.failures.setdefault(op, [])
        known.extend(m for m in messages if m not in known)
        if not known:
            del self.failures[op]

    def throughput(self) -> float:
        """Work per second.  A discover run times a handful of searches at
        different GP seeds, so it takes their median; a predict-ri run
        takes all its requests over their total time."""
        if self.work_per_op > 1:
            return self.work_per_op / statistics.median(self.latencies)
        return len(self.latencies) / sum(self.latencies)

    def overhead(self) -> float:
        """Median over pairs of the same work, traced time over untraced
        time, minus 1."""
        return statistics.median(
            t / u for t, u in zip(self.latencies, self.untraced)) - 1.0


# ---------------------------------------------------------------------------
# discover-*
# ---------------------------------------------------------------------------

def wrap_discover_layers(tracer) -> dict:
    """Prepare the discover spans; returns the observations the per-layer
    figures need beyond span times."""
    from coronakit import cli, evolve, exprgraph, objective

    seen = {"rejected": 0, "term_graphs": []}

    def count_rejected(args, result):
        if not math.isfinite(result[1].total):
            seen["rejected"] += 1

    def keep_graph(args, result):
        seen["term_graphs"].append((tracer.op, args[0]))

    tracer.wrap(cli, "load_dataset", "data.load_dataset")
    tracer.wrap(evolve, "run_discovery", "evolve.run_discovery")
    for name in ("select", "crossover", "mutate", "rank", "random_graph"):
        tracer.wrap(evolve, name, f"evolve.{name}")
    tracer.wrap(objective, "score_candidate", "objective.score_candidate",
                observe=count_rejected)
    tracer.wrap(objective, "fit_coefficients", "objective.fit_coefficients")
    tracer.wrap(objective, "monotonicity_loss", "objective.monotonicity_loss")
    tracer.wrap(exprgraph, "term_values", "exprgraph.term_values",
                observe=keep_graph)
    for name in ("evaluate_batch", "from_terms", "graph_terms", "render"):
        tracer.wrap(exprgraph, name, f"exprgraph.{name}")
    return seen


def term_repeats(term_graphs) -> tuple[int, int]:
    """(term evaluations, evaluations of a term already evaluated in the
    same operation), keyed by the rendered unit-coefficient term.  Runs
    after tracing, so rendering here is charged to no span."""
    from coronakit import exprgraph

    evals = repeats = 0
    seen: dict[int, set] = {}
    for op, graph in term_graphs:
        keys = seen.setdefault(op, set())
        for i in range(graph.term_count):
            fragment, _ = exprgraph.extract_term(graph, i)
            key = exprgraph.render(exprgraph.from_terms([(fragment, 1.0)]))
            evals += 1
            repeats += key in keys
            keys.add(key)
    return evals, repeats


def discover_layers(tracer, seen) -> dict:
    inclusive, self_time, calls = tracer.layer_times()
    ops = calls["discover"]
    evals, repeats = term_repeats(seen["term_graphs"])
    refill = tracer.child_calls("evolve.random_graph", "evolve.select")
    # Each crossover replaces one pair of the refill half that select drew;
    # exact while that half is even (population a multiple of 4).
    consumed = 2 * calls["evolve.crossover"]
    per_op = {"evolve.select_s": inclusive["evolve.select"],
              "evolve.random_graph_calls": calls["evolve.random_graph"],
              "evolve.crossover_s": inclusive["evolve.crossover"],
              "evolve.mutate_s": inclusive["evolve.mutate"],
              "evolve.rank_s": inclusive["evolve.rank"],
              "evolve.dispatch_s": self_time["evolve.run_discovery"],
              "objective.score_candidate_s": inclusive["objective.score_candidate"],
              "objective.score_candidate_calls": calls["objective.score_candidate"],
              "objective.monotonicity_loss_s":
                  inclusive["objective.monotonicity_loss"],
              "objective.fit_self_s": self_time["objective.fit_coefficients"],
              "exprgraph.term_values_s": inclusive["exprgraph.term_values"],
              "exprgraph.term_evals": evals,
              "exprgraph.evaluate_batch_s": inclusive["exprgraph.evaluate_batch"],
              "exprgraph.from_terms_s": inclusive["exprgraph.from_terms"],
              "exprgraph.graph_terms_s": inclusive["exprgraph.graph_terms"],
              "exprgraph.render_s": inclusive["exprgraph.render"],
              "data.load_dataset_s": inclusive["data.load_dataset"]}
    layers = {name: total / ops for name, total in per_op.items()}
    layers["evolve.refill_used_ratio"] = ratio(refill - consumed, refill)
    layers["objective.rejected_ratio"] = ratio(
        seen["rejected"], calls["objective.score_candidate"])
    layers["exprgraph.term_repeat_ratio"] = ratio(repeats, evals)
    return layers


def run_discover(workload: str, seed: int, seconds: float, inputs: Path,
                 tracer, sizes) -> Outcome:
    """Timed ``discover`` invocations, each at its own GP seed.

    A search's cost depends on its GP seed (best-of-3 times of seeds 0-9
    spread 0.15 on discover-mono), so a run that timed one seed would
    measure that seed.  The median over one run's several seeds does not.
    The end-to-end run re-runs its first invocation after the window to
    check the report is byte-identical; a traced run times each seed
    twice, untraced and then traced, and compares the pair.
    """
    from coronakit import cli, exprgraph
    from coronakit.data import load_dataset
    import checks
    from inputs import Sizes, gp_seed, run_config

    data_path, config_path = inputs / "data.csv", inputs / "config.json"
    dataset = load_dataset(data_path, target="L", variables=["E", "n", "d"])
    base = json.loads(config_path.read_text())
    outcome = Outcome(sizes.candidates)

    def reevaluate(graph_dict):
        values, _ = exprgraph.evaluate_batch(
            exprgraph.ExprGraph.from_dict(graph_dict), dataset)
        return values

    def invoke(config: dict, out: Path):
        path = out.with_suffix(".json")
        path.write_text(json.dumps(config))
        argv = ["discover", "--data", str(data_path), "--config", str(path),
                "--out", str(out), "--workers", "1"]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            started = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - started
        report_path = out / "report.json"
        report = report_path.read_bytes() if report_path.is_file() else None
        shutil.rmtree(out, ignore_errors=True)
        path.unlink()
        return elapsed, code, report, log.getvalue()

    def checked(op: int, code, report, first, log) -> None:
        outcome.fail(op, checks.check_discover(workload, code, report, first,
                                               reevaluate))
        if code != 0:
            outcome.fail(op, [log.strip()[-300:]])

    # Warm-up on a tiny search, so lazy imports are not timed.
    invoke(run_config(seed, Sizes(population=20, generations=2),
                      workload != "discover-rows"), inputs / "out-warmup")

    seen = wrap_discover_layers(tracer) if tracer is not None else None
    reports: list[bytes | None] = []
    started = perf_counter()
    while True:
        op = len(reports)
        config = dict(base, seed=gp_seed(seed, op))
        if tracer is None:
            elapsed, code, report, log = invoke(config, inputs / f"out-{op}")
            outcome.latencies.append(elapsed)
            checked(op, code, report, None, log)
        else:
            elapsed, code, first, log = invoke(config, inputs / f"out-{op}")
            outcome.untraced.append(elapsed)
            checked(op, code, first, None, log)
            with tracer.operation("discover"):
                elapsed, code, report, log = invoke(config, inputs / f"out-{op}")
            outcome.latencies.append(elapsed)
            checked(op, code, report, first, log)
        reports.append(report)
        # Stop before an operation that would run past the window.
        typical = statistics.median(outcome.latencies + outcome.untraced)
        if perf_counter() - started + typical * (1 + (tracer is not None)) > seconds:
            break
    outcome.attempted = len(outcome.latencies) + len(outcome.untraced)

    if tracer is None:
        # The first invocation again: its report must not change.
        _, code, report, log = invoke(dict(base, seed=gp_seed(seed, 0)),
                                      inputs / "out-again")
        checked(0, code, report, reports[0], log)
    else:
        outcome.layers = discover_layers(tracer, seen)
    return outcome


# ---------------------------------------------------------------------------
# predict-ri
# ---------------------------------------------------------------------------

def run_predict(seed: int, seconds: float, inputs: Path, tracer,
                sizes) -> Outcome:
    from coronakit import cli, models, propagation
    from coronakit.errors import CoronaKitError
    import checks
    from inputs import load_reference, pool_subset

    pool = load_reference()
    subset = pool_subset(seed, sizes)
    paths = [inputs / f"geometry-{k}.json" for k in range(len(subset))]
    model_ids = [pool[i]["model"] for i in subset]
    outcome = Outcome(1)

    def request(k):
        # What cmd_predict does after argument parsing, for --kind ri.
        geometry, f_ri, rho = cli.load_geometry(paths[k])
        models.get_model(model_ids[k])
        return propagation.ri_line_prediction(geometry, model_ids[k],
                                              f_ri=f_ri, rho=rho,
                                              combination="cispr")

    for k in range(len(paths)):  # warm-up pass, untimed and unchecked
        try:
            request(k)
        except CoronaKitError:
            pass

    if tracer is not None:
        tracer.wrap(cli, "load_geometry", "cli.load_geometry")
        tracer.wrap(propagation, "ri_line_prediction",
                    "propagation.ri_line_prediction")
        for name in ("build_line_model", "modal_decompose", "corona_currents",
                     "ground_field"):
            tracer.wrap(propagation, name, f"propagation.{name}")
        tracer.wrap(models, "ri_excitation", "models.ri_excitation")

    # A traced run alternates untraced and traced passes over the inputs.
    block = len(paths)
    op = 0
    started = perf_counter()
    while perf_counter() - started < seconds or not outcome.latencies:
        traced = tracer is not None and (op // block) % 2 == 1
        k = op % block
        context = (tracer.operation("predict") if traced
                   else contextlib.nullcontext())
        with context:
            t0 = perf_counter()
            try:
                prediction = request(k)
            except CoronaKitError as exc:
                prediction = exc
            elapsed = perf_counter() - t0
        (outcome.latencies if tracer is None or traced
         else outcome.untraced).append(elapsed)
        # Checked at once, so memory does not grow with the request count.
        if isinstance(prediction, CoronaKitError):
            outcome.fail(op, [f"{type(prediction).__name__}: {prediction}"])
        else:
            outcome.fail(op, checks.check_prediction(
                prediction.level, prediction.per_phase, pool[subset[k]]))
        op += 1
    outcome.attempted = op

    if tracer is not None:
        inclusive, _, calls = tracer.layer_times()
        outcome.layers = {
            name: inclusive[name[:-2]] / calls["predict"] for name in PER_LAYER
            if name.startswith(("cli.", "propagation.", "models."))}
    return outcome


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes=None) -> dict:
    """Set up, run and check one workload; returns the printed lines and
    the result object.  ``sizes`` shrinks the work for the self-test's
    smoke run, whose inputs are then written in this process."""
    from inputs import Sizes, write_inputs
    from spans import Tracer

    inputs = HERE / "_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        if sizes is None:
            sizes = Sizes()
            setup_s = measure_setup(workload, seed, inputs,
                                    1 if trace else SETUP_REPEATS)
        else:
            started = perf_counter()
            write_inputs(workload, seed, sizes, inputs)
            setup_s = perf_counter() - started
        tracer = Tracer() if trace else None
        if workload == "predict-ri":
            outcome = run_predict(seed, seconds, inputs, tracer, sizes)
        else:
            outcome = run_discover(workload, seed, seconds, inputs, tracer, sizes)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if tracer is not None:
        spans_file = HERE / "_work" / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_file)
        outcome.notes.append(f"spans written to {spans_file.relative_to(ROOT)}")

    attempted = outcome.attempted
    failed = len(outcome.failures)
    lines = [f"# env {json.dumps(environment(seed), sort_keys=True)}",
             f"# {workload}: {attempted} operations, {failed} failed, "
             f"failed_ratio {failed / max(1, attempted):.6g}"]
    for op, messages in sorted(outcome.failures.items())[:10]:
        lines.append(f"# FAILED operation {op}: {'; '.join(messages)}")
    lines += [f"# note: {note}" for note in outcome.notes]
    tail = tail_line(outcome.latencies)
    if tail is not None and not trace:
        lines.append(f"# {tail}")

    if trace:
        outcome.layers["trace.overhead_ratio"] = outcome.overhead()
        metrics = {name: {"value": outcome.layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup_s,
            "latency_p50_ms": 1000.0 * statistics.median(outcome.latencies),
            "throughput_per_s": outcome.throughput(),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    lines += [f"# {name} = {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    return {"lines": lines,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"# {workload}: exit code {done.returncode}")
            results[workload] = None
            continue
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])

    print(f"# {'workload':<18} {'metric':<32} {'value':>14}  unit")
    for workload, result in results.items():
        if result is None:
            continue
        for name, m in result["metrics"].items():
            print(f"# {workload:<18} {name:<32} {m['value']:>14.6g}  {m['unit']}")
        print(f"# {workload:<18} {'failed_ratio':<32} "
              f"{result['failed'] / result['attempted']:>14.6g}  ratio")
    print(json.dumps(results))
    ok = all(r is not None and r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail_usage("--seed must be >= 0")
    if args.seconds <= 0:
        fail_usage("--seconds must be positive")
    import_coronakit()
    if args.workload == "all":
        return run_all(args)

    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
