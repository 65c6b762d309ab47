"""Command-line surface: discovery runs, model evaluation, line-level
prediction, benchmarking and sweep export.

Exit codes: 0 success, 1 computation failure, 2 input/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import evolve, exprgraph, models, objective, propagation
from .data import load_dataset
from .errors import (
    ConfigError,
    CoronaKitError,
    DomainError,
    GeometrySchemaError,
    InputError,
)

AN_UNIT = "dB(µW/m)"
RI_UNIT = "dB"


# ---------------------------------------------------------------------------
# run-configuration file
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "variables", "target", "operators", "population_size", "generations",
    "max_terms", "lambda_mono", "monotonicity", "seed", "exponent_range",
    "mutation_rates", "template_weights",
}

_MONO_KEYS = {"var", "sign", "domain", "grid"}

#: largest |exponent| an 'exponent_range' may name; the loader expands the
#: range into one alphabet entry per integer
MAX_EXPONENT = 10

#: largest monotonicity 'grid'; each grid point is one more row of every
#: term column the scorer evaluates and caches
MAX_GRID = 1000

_RATE_NAMES = ("edge_feature", "subgraph_replace", "add_remove")
_WEIGHT_NAMES = ("poly", "rational", "log", "const")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _finite(value) -> bool:
    """Whether a parsed JSON value is a number that is finite as a float."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def load_run_config(path) -> dict:
    """Parse and schema-validate a run-configuration JSON file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    _require(isinstance(raw, dict), f"{path}: top level must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    _require(not unknown, f"{path}: unknown keys {sorted(unknown)}")

    _require("variables" in raw and "target" in raw,
             f"{path}: 'variables' and 'target' are required")
    variables = raw["variables"]
    _require(isinstance(variables, list) and variables
             and all(isinstance(v, str) for v in variables),
             f"{path}: 'variables' must be a non-empty list of names")
    _require(len(set(variables)) == len(variables),
             f"{path}: 'variables' lists a name twice")
    _require(isinstance(raw["target"], str), f"{path}: 'target' must be a name")
    _require(raw["target"] not in variables,
             f"{path}: target {raw['target']!r} is also listed in 'variables'")

    cfg = {"variables": variables, "target": raw["target"]}

    operators = raw.get("operators", ["add", "mul", "pow", "log"])
    _require(isinstance(operators, list)
             and set(operators) <= {"add", "mul", "pow", "log"},
             f"{path}: 'operators' must be a subset of add/mul/pow/log")
    _require({"add", "mul", "pow"} <= set(operators),
             f"{path}: operators add, mul and pow are required")
    cfg["use_log"] = "log" in operators

    for key, default in (("population_size", 500), ("generations", 200),
                         ("max_terms", 4), ("seed", 0)):
        value = raw.get(key, default)
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{path}: {key!r} must be an integer")
        cfg[key] = value
    lam = raw.get("lambda_mono", 0.01)
    _require(_finite(lam) and lam > 0,
             f"{path}: 'lambda_mono' must be a positive finite number")
    cfg["lambda_mono"] = float(lam)

    exponent_range = raw.get("exponent_range", [-3, 3])
    _require(isinstance(exponent_range, list) and len(exponent_range) == 2
             and all(isinstance(v, int) and not isinstance(v, bool)
                     and abs(v) <= MAX_EXPONENT for v in exponent_range)
             and exponent_range[0] < exponent_range[1],
             f"{path}: 'exponent_range' must be [lo, hi] integers in "
             f"[-{MAX_EXPONENT}, {MAX_EXPONENT}]")
    alphabet = tuple(v for v in range(exponent_range[0], exponent_range[1] + 1)
                     if v != 0)
    _require(bool(alphabet), f"{path}: exponent range contains no usable exponent")
    cfg["exponent_alphabet"] = alphabet

    rates = raw.get("mutation_rates", [0.4, 0.3, 0.3])
    if isinstance(rates, dict):
        _require(set(rates) == set(_RATE_NAMES),
                 f"{path}: 'mutation_rates' keys must be {_RATE_NAMES}")
        rates = [rates[name] for name in _RATE_NAMES]
    _require(isinstance(rates, list) and len(rates) == 3
             and all(_finite(v) for v in rates),
             f"{path}: 'mutation_rates' must be three finite numbers")
    cfg["mutation_rates"] = tuple(float(v) for v in rates)

    weights = raw.get("template_weights", [0.35, 0.25, 0.25, 0.15])
    if isinstance(weights, dict):
        _require(set(weights) == set(_WEIGHT_NAMES),
                 f"{path}: 'template_weights' keys must be {_WEIGHT_NAMES}")
        weights = [weights[name] for name in _WEIGHT_NAMES]
    _require(isinstance(weights, list) and len(weights) == 4
             and all(_finite(v) for v in weights),
             f"{path}: 'template_weights' must be four finite numbers")
    weights = [float(v) for v in weights]
    if not cfg["use_log"]:
        weights[2] = 0.0
    cfg["template_weights"] = tuple(weights)

    mono = raw.get("monotonicity", [])
    _require(isinstance(mono, list), f"{path}: 'monotonicity' must be a list")
    specs = []
    for item in mono:
        _require(isinstance(item, dict) and set(item) <= _MONO_KEYS
                 and {"var", "sign"} <= set(item),
                 f"{path}: monotonicity entries need 'var' and 'sign'")
        _require(item["sign"] in ("+1", "-1"),
                 f"{path}: monotonicity sign must be '+1' or '-1'")
        _require(item["var"] in variables,
                 f"{path}: monotonicity variable {item['var']!r} not in variables")
        _require(all(spec["var"] != item["var"] for spec in specs),
                 f"{path}: two monotonicity entries on {item['var']!r}")
        domain = item.get("domain")
        if domain is not None:
            _require(isinstance(domain, list) and len(domain) == 2
                     and all(_finite(v) for v in domain)
                     and domain[0] < domain[1],
                     f"{path}: monotonicity domain must be finite [lo, hi]")
            domain = (float(domain[0]), float(domain[1]))
        grid = item.get("grid", objective.DEFAULT_GRID)
        _require(isinstance(grid, int) and not isinstance(grid, bool)
                 and 2 <= grid <= MAX_GRID,
                 f"{path}: monotonicity grid must be an integer in "
                 f"[2, {MAX_GRID}]")
        specs.append({"var": item["var"], "sign": int(item["sign"]),
                      "domain": domain, "grid": grid})
    cfg["monotonicity"] = specs
    return cfg


def _gp_config(cfg: dict, path) -> evolve.GPConfig:
    config = evolve.GPConfig(
        population_size=cfg["population_size"],
        generations=cfg["generations"],
        max_terms=cfg["max_terms"],
        lambda_mono=cfg["lambda_mono"],
        mutation_rates=cfg["mutation_rates"],
        exponent_alphabet=cfg["exponent_alphabet"],
        template_weights=cfg["template_weights"],
        seed=cfg["seed"],
    )
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# geometry file
# ---------------------------------------------------------------------------

_GEOMETRY_KEYS = {"phases", "mic", "f_ri", "rho"}
_PHASE_KEYS = {"x", "h", "E", "n", "d", "r_sub", "bundle_radius"}
_MIC_KEYS = {"x", "h"}


def load_geometry(path) -> tuple[propagation.LineGeometry, float, float]:
    """Parse a line-geometry JSON file; returns (geometry, f_ri, rho)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise GeometrySchemaError(f"{path}: {exc}") from None

    def fail(msg):
        raise GeometrySchemaError(f"{path}: {msg}")

    if not isinstance(raw, dict):
        fail("top level must be an object")
    unknown = set(raw) - _GEOMETRY_KEYS
    if unknown:
        fail(f"unknown keys {sorted(unknown)}")
    if "phases" not in raw or not isinstance(raw["phases"], list) or not raw["phases"]:
        fail("'phases' must be a non-empty list")
    mic = raw.get("mic", {})
    if not isinstance(mic, dict) or set(mic) - _MIC_KEYS \
            or not all(_finite(v) for v in mic.values()):
        fail("'mic' must be an object with finite numeric keys x, h")
    for key in ("f_ri", "rho"):
        if key in raw and not _finite(raw[key]):
            fail(f"{key!r} must be a finite number")

    phases = []
    for i, item in enumerate(raw["phases"]):
        if not isinstance(item, dict):
            fail(f"phase {i} must be an object")
        unknown = set(item) - _PHASE_KEYS
        if unknown:
            fail(f"phase {i}: unknown keys {sorted(unknown)}")
        missing = {"x", "h", "E", "n", "d"} - set(item)
        if missing:
            fail(f"phase {i}: missing keys {sorted(missing)}")
        for key in item:
            if not _finite(item[key]):
                fail(f"phase {i}: {key!r} must be a finite number")
        for key in ("r_sub", "bundle_radius"):
            if key in item and item[key] <= 0:
                fail(f"phase {i}: {key!r} must be positive")
        try:
            bundle = models.BundleConfig(E=float(item["E"]), n=float(item["n"]),
                                         d=float(item["d"]))
        except DomainError as exc:
            fail(f"phase {i}: {exc}")
        phases.append(propagation.Phase(
            x=float(item["x"]), h=float(item["h"]), bundle=bundle,
            subconductor_radius=(float(item["r_sub"]) if "r_sub" in item else None),
            bundle_radius=(float(item["bundle_radius"])
                           if "bundle_radius" in item else None)))

    try:
        geometry = propagation.LineGeometry(
            phases=phases,
            mic_x=float(mic.get("x", 0.0)),
            mic_h=float(mic.get("h", 1.5)))
    except CoronaKitError as exc:
        fail(str(exc))
    f_ri = float(raw.get("f_ri", propagation.DEFAULT_F_RI))
    rho = float(raw.get("rho", propagation.DEFAULT_RHO))
    return geometry, f_ri, rho


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_discover(args) -> int:
    if args.workers > 1:
        print("warning: --workers is deprecated and has no effect; "
              "the search runs serially", file=sys.stderr)
    cfg = load_run_config(args.config)
    config = _gp_config(cfg, args.config)
    data = load_dataset(args.data, target=cfg["target"],
                        variables=cfg["variables"])
    try:
        specs = [objective.default_monotonicity_spec(
                    data, item["var"], item["sign"],
                    domain=item["domain"], grid=item["grid"])
                 for item in cfg["monotonicity"]]
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    report = evolve.run_discovery(data, specs, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "leaderboard.txt").write_text(report.leaderboard(), encoding="utf-8")
    (out / "loss_trace.csv").write_text(report.trace_csv(), encoding="utf-8")
    best = report.best
    r2 = best["r2"]
    print(f"best: {best['expression']}")
    print(f"r2: {'-' if r2 is None else format(r2, '.6f')}   "
          f"total loss: {'inf' if best['total'] is None else format(best['total'], '.6g')}")
    print(f"report written to {out}")
    return 0


def _assignment_from_args(args) -> dict:
    assignment = {}
    for name, value in (("E", args.E), ("n", args.n), ("d", args.d)):
        if value is not None:
            assignment[name] = value
    for text in args.set or []:
        name, value = _name_value("--set", text)
        assignment[name] = value
    return assignment


def cmd_eval(args) -> int:
    if bool(args.model) == bool(args.formula):
        raise InputError("exactly one of --model or --formula is required")
    if args.model:
        info = models.get_model(args.model)
        if args.E is None or args.n is None or args.d is None:
            raise InputError("--model evaluation needs --E, --n and --d")
        bundle = models.BundleConfig(E=args.E, n=args.n, d=args.d)
        value = models.evaluate_model(args.model, bundle)
        unit = AN_UNIT if info.kind == models.AN else RI_UNIT
        print(f"{value:.3f} {unit}")
        return 0
    graph = load_formula(args.formula)
    assignment = _assignment_from_args(args)
    unbound = sorted(graph.variables() - set(assignment))
    if unbound:
        raise InputError(
            "the formula uses " + ", ".join(map(repr, unbound))
            + ", not bound on the command line: give each with --E, --n, "
            "--d or --set NAME=VALUE")
    value = exprgraph.evaluate(graph, assignment)
    print(f"{value:.3f} dB")
    return 0


def load_formula(path) -> exprgraph.ExprGraph:
    """Accepts either a serialized graph or a discovery report (best entry)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None
    try:
        if isinstance(raw, dict) and "equations" in raw:
            if not raw["equations"]:
                raise InputError(f"{path}: report has no equations")
            raw = raw["equations"][0]["graph"]
        if not (isinstance(raw, dict)
                and {"nodes", "edges", "root"} <= set(raw)):
            raise InputError(f"{path}: not a graph or report file")
        graph = exprgraph.ExprGraph.from_dict(raw)
        violations = exprgraph.validate(graph)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed graph: {exc!r}") from None
    if violations:
        raise InputError(f"{path}: invalid graph: {violations[0].message}")
    return graph


def cmd_predict(args) -> int:
    geometry, f_ri, rho = load_geometry(args.geometry)
    info = models.get_model(args.model)
    if args.kind != info.kind:
        raise InputError(f"model {args.model!r} is a {info.kind} model, "
                         f"not {args.kind}")
    if args.kind == models.AN:
        if args.explain:
            raise InputError("--explain applies to --kind ri only")
        prediction = propagation.an_ground_level(geometry, args.model,
                                                 c_coef=args.c_coef)
        print(f"{'phase':>5}  {'R [m]':>8}  {'contribution [dB(A)]':>20}")
        for i, (r, lp) in enumerate(zip(prediction.distances,
                                        prediction.per_phase)):
            print(f"{i:>5}  {r:>8.3f}  {lp:>20.3f}")
        print(f"total sound pressure: {prediction.total:.3f} dB(A)")
        return 0
    prediction = propagation.ri_line_prediction(
        geometry, args.model,
        f_ri=args.f_ri if args.f_ri is not None else f_ri,
        rho=args.rho if args.rho is not None else rho,
        combination=args.combination)
    print(f"{'phase':>5}  {'level [dB(µV/m)]':>16}")
    for i, level in enumerate(prediction.per_phase):
        print(f"{i:>5}  {level:>16.3f}")
    print(f"radio interference: {prediction.level:.3f} dB(µV/m)")
    if args.explain:
        explain_ri(prediction)
    return 0


def explain_ri(prediction: propagation.RIPrediction) -> None:
    """Print the modal attenuations, the diagonalization residual and the
    eigenvector condition number, and for each excited phase its
    conductor-current magnitudes and level."""
    decomp = prediction.decomposition
    print(f"{'mode':>5}  {'alpha [Np/m]':>14}")
    for m, alpha in enumerate(decomp.alpha):
        print(f"{m:>5}  {alpha:>14.6e}")
    print(f"diagonalization residual: {decomp.residual:.3e} "
          f"(tolerance {propagation.MODAL_TOL:g}), "
          f"cond(M): {decomp.condition:.3g} "
          f"(limit {propagation.MAX_MODAL_CONDITION:g})")
    conductors = range(len(prediction.per_phase))
    print(f"{'excited':>7}  {'level [dB(µV/m)]':>16}  "
          + "  ".join(f"{f'|I_{c}| [A]':>11}" for c in conductors))
    for i, level in enumerate(prediction.per_phase):
        print(f"{i:>7}  {level:>16.3f}  "
              + "  ".join(f"{abs(current):>11.4e}"
                          for current in prediction.phase_currents[:, i]))


def cmd_benchmark(args) -> int:
    data = load_dataset(args.data, target=args.target)
    for name in ("E", "n", "d"):
        if name not in data.columns:
            raise InputError(f"benchmark dataset needs column {name!r}")
    model_ids = [m.strip() for m in args.models.split(",") if m.strip()]
    if not model_ids:
        raise InputError("--models needs at least one model id")
    infos = [models.get_model(mid) for mid in model_ids]

    rows = []
    skip_notes = []
    y = data.y
    for info in infos:
        errors = []
        skipped = 0
        for k in range(data.n_rows):
            try:
                bundle = models.BundleConfig(E=float(data.columns["E"][k]),
                                             n=float(data.columns["n"][k]),
                                             d=float(data.columns["d"][k]))
                pred = models.evaluate_model(info.id, bundle)
            except DomainError as exc:
                skipped += 1
                skip_notes.append(f"{info.id}: row {k + 1} (file line {k + 2}) "
                                  f"excluded: {exc}")
                continue
            errors.append((pred - float(y[k]), float(y[k])))
        if errors:
            rmse = math.sqrt(sum(e * e for e, _ in errors) / len(errors))
            mre = sum(abs(e) / abs(t) for e, t in errors) / len(errors)
        else:
            rmse = mre = float("inf")
        rows.append((info.id, rmse, mre, len(errors), skipped))
    rows.sort(key=lambda r: r[1])

    print(f"{'model':<20}  {'RMSE':>10}  {'MRE':>10}  {'rows':>5}  {'skipped':>7}")
    for mid, rmse, mre, used, skipped in rows:
        print(f"{mid:<20}  {rmse:>10.4f}  {mre:>10.4f}  {used:>5}  {skipped:>7}")
    for note in skip_notes:
        print(note)
    if args.out:
        lines = ["model,rmse,mre,rows,skipped"]
        lines += [f"{mid},{rmse!r},{mre!r},{used},{skipped}"
                  for mid, rmse, mre, used, skipped in rows]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"benchmark written to {args.out}")
    return 0


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    name, sep, spec = text.partition("=")
    parts = spec.split(":")
    if not sep or len(parts) != 3:
        raise InputError(f"--sweep expects var=lo:hi:steps, got {text!r}")
    try:
        lo, hi = _finite_float(parts[0]), _finite_float(parts[1])
        steps = int(parts[2])
    except (ValueError, argparse.ArgumentTypeError):
        raise InputError(f"--sweep {text!r}: values must be finite "
                         "numbers") from None
    if steps < 0:
        raise InputError("--sweep steps must be >= 0")
    return name.strip(), lo, hi, steps


def cmd_curves(args) -> int:
    var, lo, hi, steps = _parse_sweep(args.sweep)
    fixed = {}
    for text in args.fixed or []:
        name, value = _name_value("--fixed", text)
        fixed[name] = value
    if var in fixed:
        raise InputError(f"swept variable {var!r} also appears in --fixed")
    needed = {"E", "n", "d"}
    if set(fixed) | {var} != needed:
        raise InputError(f"sweep plus fixed values must cover exactly {sorted(needed)}")
    models.get_model(args.model)

    xs = [lo + (hi - lo) * k / steps for k in range(steps + 1)] if steps else [lo]
    values = []
    offending = []
    for x in xs:
        point = dict(fixed)
        point[var] = x
        try:
            bundle = models.BundleConfig(E=point["E"], n=point["n"], d=point["d"])
            values.append(models.evaluate_model(args.model, bundle))
        except DomainError as exc:
            offending.append((x, str(exc)))
    if offending:
        where = ", ".join(format(x, "g") for x, _ in offending[:10])
        raise DomainError(
            f"sweep hits the model's domain boundary at {var} = {where}"
            + ("" if len(offending) <= 10 else f" (+{len(offending) - 10} more)"))

    lines = [f"{var},{args.model}"]
    lines += [f"{x!r},{v!r}" for x, v in zip(xs, values)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"curve written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """A float that is neither NaN nor infinite (``1e400`` overflows to
    infinity, so it is rejected too): the argparse type of the number
    flags, and the parser of ``name=value`` and ``--sweep`` numbers."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _name_value(flag: str, text: str) -> tuple[str, float]:
    """Split a ``name=value`` flag whose value must be a finite number."""
    name, sep, value = text.partition("=")
    if not sep:
        raise InputError(f"{flag} expects name=value, got {text!r}")
    try:
        return name.strip(), _finite_float(value)
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{flag} {text!r}: {exc}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coronakit",
        description="Equation discovery and corona AN/RI prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="run equation discovery on a CSV dataset")
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--config", required=True, help="run-configuration JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="deprecated and ignored: the search runs serially")
    p.set_defaults(fn=cmd_discover)

    p = sub.add_parser("eval", help="evaluate a catalogued model or saved formula")
    p.add_argument("--model", help="catalog model id, e.g. an-discovered-3")
    p.add_argument("--formula", help="graph JSON or discovery report.json")
    p.add_argument("--E", type=_finite_float, help="surface gradient, kV/cm")
    p.add_argument("--n", type=_finite_float, help="subconductor count")
    p.add_argument("--d", type=_finite_float, help="subconductor diameter, cm")
    p.add_argument("--set", action="append",
                   help="extra variable for --formula, name=value")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="line-level AN or RI prediction")
    p.add_argument("--kind", choices=["an", "ri"], required=True)
    p.add_argument("--geometry", required=True, help="geometry JSON path")
    p.add_argument("--model", required=True, help="catalog model id")
    p.add_argument("--c-coef", dest="c_coef", type=_finite_float, default=None,
                   help="AN propagation coefficient (default 11.4 for "
                        "discovered models, 10 otherwise)")
    p.add_argument("--f-ri", dest="f_ri", type=_finite_float, default=None,
                   help="RI frequency, Hz (default 0.5 MHz)")
    p.add_argument("--rho", type=_finite_float, default=None,
                   help="earth resistivity, Ohm*m (default 100)")
    p.add_argument("--combination", choices=["cispr", "power-sum"],
                   default="cispr", help="phase combination rule for RI")
    p.add_argument("--explain", action="store_true",
                   help="RI only: also print the modal attenuations, the "
                        "diagonalization residual, and each excited phase's "
                        "conductor currents and level")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("benchmark", help="RMSE/MRE of models against a dataset")
    p.add_argument("--data", required=True, help="CSV with E,n,d and target")
    p.add_argument("--models", required=True, help="comma-separated model ids")
    p.add_argument("--target", default=None,
                   help="target column (default: last CSV column)")
    p.add_argument("--out", default=None, help="write CSV report here")
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("curves", help="export a parameter sweep as CSV")
    p.add_argument("--model", required=True, help="catalog model id")
    p.add_argument("--sweep", required=True, help="var=lo:hi:steps")
    p.add_argument("--fixed", action="append",
                   help="fixed variable, name=value (repeatable)")
    p.add_argument("--out", default=None, help="write CSV here (default stdout)")
    p.set_defaults(fn=cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoronaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
