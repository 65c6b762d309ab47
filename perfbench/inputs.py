"""Seeded inputs for the coronakit benchmark.

The benchmark hands coronakit only the files written here: discovery
datasets and run configurations, and line-geometry JSON files.  Targets
are computed from the published regression baselines written out below,
not through coronakit, so a change to the catalog cannot move the inputs.

    python3 perfbench/inputs.py setup --workload discover-mono --seed 3 --dir DIR
    python3 perfbench/inputs.py reference      # rewrite ri_reference.json

``setup`` imports coronakit before writing, so the benchmark's set-up
time includes the package import.  ``reference`` regenerates the
predict-ri reference table with the checked-out coronakit; do that only
when the RI chain is meant to change its outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "ri_reference.json"

#: master seed of the predict-ri geometry pool; fixed so the stored
#: reference levels stay valid for every benchmark seed
POOL_SEED = 20260317
POOL_SIZE = 1024

RI_MODELS = ("ri-discovered-3", "ri-discovered-4", "ri-discovered-5",
             "ri-poly-baseline", "ri-bpa", "ri-cigre", "ri-epri", "ri-cispr",
             "ri-ireq", "ri-pysr", "ri-dso")


@dataclass(frozen=True)
class Sizes:
    """Work per operation.  The benchmark uses the defaults; the self-test
    shrinks them for a quick smoke run."""

    population: int = 200
    generations: int = 30
    rows: int = 5000
    #: geometries per predict-ri run; the whole pool, so every seed runs
    #: the same mix of phase counts and models, only in another order
    pool_subset: int = POOL_SIZE

    @property
    def candidates(self) -> int:
        """Scored candidates per discover run: the first generation is
        scored whole, every later one rescores its varied half."""
        return self.population + (self.generations - 1) * (self.population // 2)


def an_poly_baseline(E, n, d):
    return 1.022 * n + 10.4 * d + 30.839 - 933.633 / E


def ri_poly_baseline(E, n, d):
    return 6.51 * d + 10.287 * np.log10(n) + 55.22 - 671.7 / E


def mono_grid():
    """The 90-point noiseless AN grid of acceptance criteria 1 and 8."""
    E, n, d = np.meshgrid(np.arange(12.0, 31.0, 2.0), [4.0, 6.0, 8.0],
                          [2.0, 2.4, 3.0])
    E, n, d = E.ravel(), n.ravel(), d.ravel()
    return E, n, d, an_poly_baseline(E, n, d)


def noisy_rows(seed: int, rows: int):
    """RI-style rows: ri-poly-baseline plus N(0, 0.5) dB noise."""
    rng = np.random.default_rng([seed, 1])
    E = rng.uniform(12.0, 32.0, rows)
    n = rng.integers(2, 17, rows).astype(float)
    d = rng.uniform(1.5, 3.5, rows)
    return E, n, d, ri_poly_baseline(E, n, d) + rng.normal(0.0, 0.5, rows)


def write_csv(path: Path, E, n, d, L) -> None:
    lines = ["E,n,d,L"]
    lines += [f"{float(a)!r},{float(b)!r},{float(c)!r},{float(t)!r}"
              for a, b, c, t in zip(E, n, d, L)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def gp_seed(seed: int, op: int) -> int:
    """GP seed of a run's ``op``-th discover invocation."""
    return 1000 * seed + op


def run_config(seed: int, sizes: Sizes, monotone: bool) -> dict:
    config = {"variables": ["E", "n", "d"], "target": "L",
              "population_size": sizes.population,
              "generations": sizes.generations, "max_terms": 4, "seed": seed}
    if monotone:
        config["monotonicity"] = [{"var": v, "sign": "+1", "grid": 20}
                                  for v in ("E", "n", "d")]
    return config


def write_discover_inputs(workload: str, seed: int, sizes: Sizes,
                          directory: Path) -> None:
    monotone = workload != "discover-rows"
    if monotone:
        write_csv(directory / "data.csv", *mono_grid())
    else:
        write_csv(directory / "data.csv", *noisy_rows(seed, sizes.rows))
    (directory / "config.json").write_text(
        json.dumps(run_config(gp_seed(seed, 0), sizes, monotone), indent=2),
        encoding="utf-8")


# ---------------------------------------------------------------------------
# predict-ri geometry pool
# ---------------------------------------------------------------------------

def _bundle(model: str, rng) -> dict:
    """A bundle inside ``model``'s domain.  Every catalog RI law is finite on
    E 12-32 kV/cm, n 2-16, d 1.5-3.5 cm except ri-pysr, whose
    ln(ln((n - 6.35) * E)) needs n >= 7 there."""
    n_lo = 7 if model == "ri-pysr" else 2
    return {"E": round(float(rng.uniform(12.0, 32.0)), 4),
            "n": int(rng.integers(n_lo, 17)),
            "d": round(float(rng.uniform(1.5, 3.5)), 4)}


def random_geometry(rng) -> tuple[dict, str]:
    """One request: a 1-4 phase line (the criterion-7 layout) and an RI model."""
    model = RI_MODELS[int(rng.integers(len(RI_MODELS)))]
    count = int(rng.integers(1, 5))
    xs = np.cumsum(rng.uniform(1.5, 8.0, count)) - 10.0
    hs = rng.uniform(8.0, 25.0, count)
    phases = []
    for x, h in zip(xs, hs):
        phase = {"x": round(float(x), 4), "h": round(float(h), 4)}
        phase.update(_bundle(model, rng))
        phase["bundle_radius"] = round(float(rng.uniform(0.15, 0.45)), 4)
        phases.append(phase)
    geometry = {"phases": phases,
                "mic": {"x": round(float(xs[-1]) + 15.0, 4), "h": 1.5},
                "rho": round(float(rng.uniform(30.0, 300.0)), 3)}
    return geometry, model


def load_reference() -> list[dict]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def pool_subset(seed: int, sizes: Sizes) -> list[int]:
    """Pool indices of one run's geometries, in request order: a seeded
    permutation of the pool, or a seeded sample when ``sizes`` is smaller."""
    rng = np.random.default_rng([seed, 2])
    return [int(i) for i in rng.choice(POOL_SIZE, size=sizes.pool_subset,
                                       replace=False)]


def write_predict_inputs(seed: int, sizes: Sizes, directory: Path) -> None:
    pool = load_reference()
    for k, index in enumerate(pool_subset(seed, sizes)):
        (directory / f"geometry-{k}.json").write_text(
            json.dumps(pool[index]["geometry"]), encoding="utf-8")


def write_inputs(workload: str, seed: int, sizes: Sizes, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "predict-ri":
        write_predict_inputs(seed, sizes, directory)
    else:
        write_discover_inputs(workload, seed, sizes, directory)


def make_reference() -> None:
    """Predict every pool geometry with the checked-out coronakit."""
    from coronakit import cli, propagation

    rng = np.random.default_rng(POOL_SEED)
    entries = []
    scratch = HERE / "_work" / "reference.json"
    scratch.parent.mkdir(parents=True, exist_ok=True)
    for _ in range(POOL_SIZE):
        geometry, model = random_geometry(rng)
        scratch.write_text(json.dumps(geometry), encoding="utf-8")
        line, f_ri, rho = cli.load_geometry(scratch)
        prediction = propagation.ri_line_prediction(line, model, f_ri=f_ri,
                                                    rho=rho)
        levels = [prediction.level] + list(prediction.per_phase)
        if not all(math.isfinite(v) for v in levels):
            raise SystemExit(f"non-finite reference level for {geometry}")
        entries.append({"geometry": geometry, "model": model,
                        "level": prediction.level,
                        "per_phase": list(prediction.per_phase)})
    scratch.unlink()
    REFERENCE_FILE.write_text(
        "[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
        + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} reference predictions to {REFERENCE_FILE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup", help="write one workload's inputs")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    sub.add_parser("reference", help="regenerate ri_reference.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import coronakit.cli  # noqa: F401  (the import is part of set-up)

    if args.command == "reference":
        make_reference()
    else:
        write_inputs(args.workload, args.seed, Sizes(), Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
