"""Closed-form catalog: audible-noise and RI excitation formulas.

Every entry evaluates a published fixed-coefficient expression of the
bundle surface gradient E (kV/cm), subconductor count n and subconductor
diameter d (cm).  log10 and ln are kept distinct exactly as published;
out-of-domain inputs raise DomainError instead of clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import exprgraph
from .errors import DomainError, UnknownModelError

AN = "an"
RI = "ri"

#: dB reference conversion between generation-level conventions (uW/m, pW/m)
PW_TO_UW_OFFSET = 60.0

REF_UW = "uW/m"
REF_PW = "pW/m"


@dataclass(frozen=True)
class BundleConfig:
    """Bundle operating point: E in kV/cm, n subconductors of diameter d cm.

    n is physically an integer but accepted as real so that parameter
    sweeps can sample it densely.
    """

    E: float
    n: float
    d: float

    def __post_init__(self):
        if not self.E > 0:
            raise DomainError(f"surface gradient must be positive, got E={self.E}")
        if not self.n >= 1:
            raise DomainError(f"subconductor count must be >= 1, got n={self.n}")
        if not self.d > 0:
            raise DomainError(f"subconductor diameter must be positive, got d={self.d}")


@dataclass(frozen=True)
class NoiseLevel:
    value: float
    reference: str = REF_UW


def convert_reference(level: NoiseLevel, to: str) -> NoiseLevel:
    """Exact re-referencing of AN generation levels: uW/m = pW/m - 60."""
    if to not in (REF_UW, REF_PW):
        raise ValueError(f"unknown reference {to!r}")
    if level.reference == to:
        return level
    if level.reference == REF_PW and to == REF_UW:
        return NoiseLevel(level.value - PW_TO_UW_OFFSET, REF_UW)
    if level.reference == REF_UW and to == REF_PW:
        return NoiseLevel(level.value + PW_TO_UW_OFFSET, REF_PW)
    raise ValueError(f"unknown reference {level.reference!r}")


def _log10(x: float, what: str) -> float:
    if x <= 0:
        raise DomainError(f"log10 argument {what} = {x} is not positive")
    return math.log10(x)


def _ln(x: float, what: str) -> float:
    if x <= 0:
        raise DomainError(f"ln argument {what} = {x} is not positive")
    return math.log(x)


def _recip(num: float, den: float, what: str) -> float:
    if abs(den) < 1e-12:
        raise DomainError(f"denominator {what} = {den} is (near) zero")
    return num / den


# --- audible noise, dB re 1 uW/m -------------------------------------------

def _an_bpa(E, n, d):
    return 120 * _log10(E, "E") + 55 * _log10(d, "d") + 26.4 * _log10(n, "n") - 128.4


def _an_enel(E, n, d):
    return 85 * _log10(E, "E") + 45 * _log10(d, "d") + 18 * _log10(n, "n") - 71


def _an_ireq(E, n, d):
    return 72 * _log10(E, "E") + 45.81 * _log10(d, "d") + 22.71 * _log10(n, "n") - 57.6


def _an_fgh(E, n, d):
    return 2 * E + 45 * _log10(d, "d") + 18 * _log10(n, "n") - 0.3


def _an_ge(E, n, d):
    return -_recip(655.0, E, "E") + 44 * _log10(d, "d") + 20 * _log10(n, "n") + 67.9


def _an_epri(E, n, d):
    return 120 * _log10(E, "E") + 54 * _log10(d, "d") + 24.8 - 126


def _an_pysr(E, n, d):
    return 1.58 * n * d - 2.97 * n + 55.6 - _recip(915.0, E, "E")


def _an_dso(E, n, d):
    return -2.65 * _recip(E * d, n ** 2, "n^2") + 62.8 * d \
        - _recip(64.8 * d, _log10(E, "E"), "log10(E)") + 0.47 * n - 17


# --- RI excitation function, dB --------------------------------------------

def _ri_bpa(E, n, d):
    return 120 * _log10(E / 15.0, "E/15") + 40 * _log10(d / 4.0, "d/4") + 37.02


def _ri_cigre(E, n, d):
    return 3.5 * E + 6 * d - 40.69


def _ri_epri(E, n, d):
    base = -_recip(580.0, E, "E") + 38 * _log10(d / 3.8, "d/3.8")
    return base + (81.1 if n <= 8 else 86.1)


def _ri_cispr(E, n, d):
    return 70 - _recip(580.0, E, "E") + 35 * _log10(d, "d") - 10 * _log10(n, "n")


def _ireq_k(n) -> float:
    if n < 2:
        return 0.0
    if n < 3:
        return 3.7
    return 6.0


def _ri_ireq(E, n, d):
    return -90.25 + 92.42 * _log10(E, "E") + 43.03 * _log10(d, "d") - _ireq_k(n)


def _ri_pysr(E, n, d):
    inner = (n - 6.35) * E
    outer = _ln(inner, "(n-6.35)*E")
    return 0.51 * (d + 158.407) * _ln(outer, "ln((n-6.35)*E)") - 613


def _ri_dso(E, n, d):
    return 11.1 * E / n + 18.2 * d - 68.6 * d / n + 0.99 * n - 16.1


# --- discovered laws and regression baselines ------------------------------
# Each law is written once, in the grammar that exprgraph.render emits, with
# the published coefficients; its graph and its scalar form both come from
# this string.

GRAPH_FORMS: dict[str, str] = {
    # audible noise, dB re 1 uW/m
    "an-discovered-3": "0.0878*E*n + 72.3*log10(d) + -648.7*E^-1*log10(E)^-1",
    "an-discovered-4": "0.093*E*n + 55.02*log10(d) + -591*E^-1*d^-2 + -5448*E^-2",
    "an-discovered-5": "0.0116*n^2*d + -102.4*n*(E*ln(E) + d^2)^-1 + 9.216*d"
                       " + 19.13*ln(n) + -677.3*E^-1",
    "an-poly-baseline": "1.022*n + 10.4*d + 30.839 + -933.633*E^-1",
    # RI excitation function, dB
    "ri-discovered-3": "45.6*log10(E) + -819.5*d^-1*(E + -1)^-1 + 0.07*n*d^2",
    "ri-discovered-4": "-117.2*n*(n^2*d + -d)^-1 + -133.5*n*(E + n*d^2)^-1"
                       " + 98.68 + -629.7*E^-1",
    "ri-discovered-5": "-45.87*E*n^-3*d^-1 + 4.499*d + 72.88 + -522.2*E^-1"
                       " + -543.4*E^-1*d^-1",
    "ri-poly-baseline": "6.51*d + 10.287*log10(n) + 55.22 + -671.7*E^-1",
}


def discovered_graph(model_id: str) -> exprgraph.ExprGraph:
    """Expression-graph form of a discovered law or regression baseline."""
    try:
        law = GRAPH_FORMS[model_id]
    except KeyError:
        raise UnknownModelError(
            f"no graph form for {model_id!r}; available: "
            f"{', '.join(sorted(GRAPH_FORMS))}") from None
    return exprgraph.parse(law)


def _scalar_form(model_id: str) -> Callable[[float, float, float], float]:
    """A law of GRAPH_FORMS as a function of (E, n, d) over math; outside
    its domain it raises DomainError naming the model and the operand."""
    def fail(message):
        raise DomainError(f"{model_id}: {message}")
    return exprgraph.compile_scalar(discovered_graph(model_id), ("E", "n", "d"),
                                    fail)


@dataclass(frozen=True)
class ModelInfo:
    id: str
    kind: str  # "an" or "ri"
    label: str
    term_count: int
    family: str  # "discovered", "baseline" or "empirical"
    fn: Callable[[float, float, float], float]
    piecewise: bool = False


_MODELS = [
    ModelInfo("an-discovered-3", AN, "graph-search law, 3 terms", 3, "discovered",
              _scalar_form("an-discovered-3")),
    ModelInfo("an-discovered-4", AN, "graph-search law, 4 terms", 4, "discovered",
              _scalar_form("an-discovered-4")),
    ModelInfo("an-discovered-5", AN, "graph-search law, 5 terms", 5, "discovered",
              _scalar_form("an-discovered-5")),
    ModelInfo("an-poly-baseline", AN, "polynomial regression baseline", 4, "baseline",
              _scalar_form("an-poly-baseline")),
    ModelInfo("an-bpa", AN, "BPA", 4, "empirical", _an_bpa),
    ModelInfo("an-enel", AN, "ENEL", 4, "empirical", _an_enel),
    ModelInfo("an-ireq", AN, "IREQ", 4, "empirical", _an_ireq),
    ModelInfo("an-fgh", AN, "FGH", 4, "empirical", _an_fgh),
    ModelInfo("an-ge", AN, "GE", 4, "empirical", _an_ge),
    ModelInfo("an-epri", AN, "EPRI", 3, "empirical", _an_epri),
    ModelInfo("an-pysr", AN, "PySR baseline", 4, "discovered", _an_pysr),
    ModelInfo("an-dso", AN, "DSO baseline", 5, "discovered", _an_dso),
    ModelInfo("ri-discovered-3", RI, "graph-search law, 3 terms", 3, "discovered",
              _scalar_form("ri-discovered-3")),
    ModelInfo("ri-discovered-4", RI, "graph-search law, 4 terms", 4, "discovered",
              _scalar_form("ri-discovered-4")),
    ModelInfo("ri-discovered-5", RI, "graph-search law, 5 terms", 5, "discovered",
              _scalar_form("ri-discovered-5")),
    ModelInfo("ri-poly-baseline", RI, "polynomial regression baseline", 4, "baseline",
              _scalar_form("ri-poly-baseline")),
    ModelInfo("ri-bpa", RI, "BPA", 3, "empirical", _ri_bpa),
    ModelInfo("ri-cigre", RI, "CIGRE", 3, "empirical", _ri_cigre),
    ModelInfo("ri-epri", RI, "EPRI", 3, "empirical", _ri_epri, piecewise=True),
    ModelInfo("ri-cispr", RI, "CISPR", 4, "empirical", _ri_cispr),
    ModelInfo("ri-ireq", RI, "IREQ", 4, "empirical", _ri_ireq, piecewise=True),
    ModelInfo("ri-pysr", RI, "PySR baseline", 2, "discovered", _ri_pysr),
    ModelInfo("ri-dso", RI, "DSO baseline", 5, "discovered", _ri_dso),
]

CATALOG: dict[str, ModelInfo] = {m.id: m for m in _MODELS}


def model_catalog() -> list[ModelInfo]:
    """Static listing of every catalogued closed form."""
    return list(_MODELS)


def get_model(model_id: str) -> ModelInfo:
    try:
        return CATALOG[model_id]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise UnknownModelError(
            f"unknown model {model_id!r}; known models: {known}") from None


def an_level(model_id: str, bundle: BundleConfig) -> NoiseLevel:
    """A-weighted generation level of one bundle, dB re 1 uW/m."""
    info = get_model(model_id)
    if info.kind != AN:
        raise UnknownModelError(f"{model_id!r} is not an audible-noise model")
    return NoiseLevel(info.fn(bundle.E, bundle.n, bundle.d), REF_UW)


def ri_excitation(model_id: str, bundle: BundleConfig) -> float:
    """RI excitation function of one bundle, dB."""
    info = get_model(model_id)
    if info.kind != RI:
        raise UnknownModelError(f"{model_id!r} is not an RI excitation model")
    return info.fn(bundle.E, bundle.n, bundle.d)


def evaluate_model(model_id: str, bundle: BundleConfig) -> float:
    """Kind-agnostic evaluation, used by the benchmark and sweep commands."""
    info = get_model(model_id)
    return info.fn(bundle.E, bundle.n, bundle.d)
