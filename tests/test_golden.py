"""Golden discovery reports: seeded runs whose report.json must not change.

The files in tests/data/golden/ were first written before candidates
became tuples of terms with a shared term-column cache, and re-captured
once, when a generation step stopped drawing fresh candidates it then
discarded: a fresh candidate is now drawn only in an offspring slot that
loses the crossover draw, so every seeded run consumes its random stream
differently.  Each test re-runs one search and compares the bytes, so any
change to a search decision (RNG consumption, fitted coefficients, losses,
ranking, dedup) shows up here.  Any other failure means the program
changed behaviour: fix the program, do not rewrite the files.

The files were written with each generation drawing from
``np.random.default_rng``.  A search now draws from ``evolve.Draws``,
which computes the same draws from the same PCG64 raw stream, and one
test runs the search on numpy's own ``Generator`` streams again.
"""

from pathlib import Path

import numpy as np
import pytest

from coronakit import evolve, objective
from coronakit.data import Dataset

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def an_grid():
    """The 90-row noiseless AN grid of acceptance criterion 1."""
    E, n, d = np.meshgrid(np.arange(12.0, 31.0, 2.0), [4.0, 6.0, 8.0],
                          [2.0, 2.4, 3.0])
    E, n, d = E.ravel(), n.ravel(), d.ravel()
    y = 1.022 * n + 10.4 * d + 30.839 - 933.633 / E
    return Dataset(columns={"E": E, "n": n, "d": d, "y": y}, target="y")


def mono_specs(data):
    return [objective.default_monotonicity_spec(data, v, +1)
            for v in ("E", "n", "d")]


#: file name -> (monotonicity specs?, dedup, GP seed)
RUNS = {
    "mono-specs.json": (True, False, 5),
    "dedup-no-specs.json": (False, True, 6),
}


def golden_report(name: str) -> str:
    monotone, dedup, seed = RUNS[name]
    data = an_grid()
    specs = mono_specs(data) if monotone else []
    config = evolve.GPConfig(population_size=40, generations=8, max_terms=4,
                             dedup=dedup, seed=seed)
    return evolve.run_discovery(data, specs, config).to_json()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden_bytes(name):
    want = (GOLDEN / name).read_bytes()
    assert golden_report(name).encode("utf-8") == want


@pytest.mark.parametrize("name", sorted(RUNS))
def test_numpy_generator_streams_give_golden_bytes(monkeypatch, name):
    streams = []

    def generator(seed):
        streams.append(np.random.default_rng(seed))
        return streams[-1]

    monkeypatch.setattr(evolve, "Draws", generator)
    want = (GOLDEN / name).read_bytes()
    assert golden_report(name).encode("utf-8") == want
    # one stream per generation, plus the initial population's
    assert len(streams) == 9


def test_one_column_cache_gives_golden_bytes(monkeypatch):
    # 90 data rows plus three 20-point sweeps: room for one term column
    monkeypatch.setattr(objective, "COLUMN_CACHE_BYTES", 8 * (90 + 3 * 20))
    want = (GOLDEN / "mono-specs.json").read_bytes()
    assert golden_report("mono-specs.json").encode("utf-8") == want


def test_one_candidate_per_stack_gives_golden_bytes(monkeypatch):
    # the column block keeps its full size, and then every stacked fit
    # is cut to one candidate
    init, solve, stacks = objective.TermScorer.__init__, objective._lstsq_stack, []

    def init_then_one_per_stack(self, *args):
        init(self, *args)
        assert len(self._block) > 1
        monkeypatch.setattr(objective, "COLUMN_CACHE_BYTES", 1)

    def spy(designs, y):
        stacks.append(len(designs))
        return solve(designs, y)

    monkeypatch.setattr(objective.TermScorer, "__init__", init_then_one_per_stack)
    monkeypatch.setattr(objective, "_lstsq_stack", spy)
    want = (GOLDEN / "mono-specs.json").read_bytes()
    assert golden_report("mono-specs.json").encode("utf-8") == want
    assert stacks and set(stacks) == {1}
