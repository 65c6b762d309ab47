"""Bundle emission to field level: acoustic spreading for AN and the modal
multiconductor transfer chain for RI.

AN: per-phase generation levels decay as C*log10(R) + 5.8 to the microphone
and add incoherently in the energy domain.

RI: per-unit-length Z/Y matrices (image charges, complex-depth ground
return, skin-effect internal impedance) are modally decoupled; excitation
converts to conductor corona currents and then to the ground-level
horizontal H-field and vertical E-field at the observation point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import (
    CoincidentPointError,
    DefectiveMatrixError,
    GeometryError,
    NonFiniteError,
    ZeroAttenuationError,
    ZeroFieldError,
)

EPS0 = 8.8541878128e-12       # vacuum permittivity, F/m
MU0 = 4e-7 * math.pi          # vacuum permeability, H/m
Z0 = 120.0 * math.pi          # free-space wave impedance, Ohm
DEFAULT_F_RI = 0.5e6          # RI measurement frequency, Hz
DEFAULT_RHO = 100.0           # earth resistivity, Ohm*m
RHO_CONDUCTOR = 2.86e-8       # aluminium resistivity for skin effect, Ohm*m

#: sound-field model invalid closer than this to a conductor, m
MIN_PHASE_DISTANCE = 0.1

#: spherical-spreading constant of the sound propagation law, dB
AN_SPREADING_OFFSET = 5.8

#: propagation coefficient defaults by model family
C_COEF_DISCOVERED = 11.4
C_COEF_EMPIRICAL = 10.0

#: residual tolerance for modal diagonalization
MODAL_TOL = 1e-8

#: bound on the 1-norm condition number of the ZY eigenvector matrix; a
#: defective ZY (no complete set of modes) passes the residual check with
#: a nearly singular eigenvector matrix, while real lines stay below 10
MAX_MODAL_CONDITION = 1e8


@dataclass
class Phase:
    """One phase conductor: position plus bundle parameters.

    x, h and bundle_radius in m; the bundle diameter inside ``bundle``
    stays in cm.  ``subconductor_radius`` (m) defaults to half the bundle
    diameter; ``bundle_radius`` switches on the equivalent-radius bundle
    reduction.
    """

    x: float
    h: float
    bundle: models.BundleConfig
    subconductor_radius: float | None = None
    bundle_radius: float | None = None

    def conductor_radius(self) -> float:
        r_sub = self.subconductor_radius
        if r_sub is None:
            r_sub = self.bundle.d / 200.0  # cm diameter -> m radius
        n = self.bundle.n
        if self.bundle_radius is not None and n > 1:
            rb = self.bundle_radius
            return rb * (n * r_sub / rb) ** (1.0 / n)
        return r_sub


@dataclass
class LineGeometry:
    phases: list[Phase]
    mic_x: float = 0.0
    mic_h: float = 1.5

    def __post_init__(self):
        if not self.phases:
            raise GeometryError("geometry needs at least one phase")
        if self.mic_h < 0:
            raise GeometryError("measurement height must be >= 0")
        for i, p in enumerate(self.phases):
            if p.h <= self.mic_h:
                raise GeometryError(
                    f"phase {i} height {p.h} must exceed measurement height "
                    f"{self.mic_h}")


@dataclass
class ANPrediction:
    per_phase: list[float]     # L_p,i at the microphone, dB
    total: float               # energy-domain sum, dB
    distances: list[float]     # straight-line distances R_i, m


@dataclass
class LineElectricalModel:
    Z: np.ndarray              # series impedance, Ohm/m
    Y: np.ndarray              # shunt admittance, S/m
    C: np.ndarray              # capacitance matrix, F/m
    f_ri: float
    rho: float
    penetration_depth: complex
    positions: list[tuple[float, float]]
    radii: list[float]


@dataclass
class ModalDecomposition:
    M: np.ndarray              # right eigenvectors of Z@Y
    N: np.ndarray              # right eigenvectors of Y@Z, Y@M
    eigenvalues: np.ndarray
    gamma: np.ndarray          # sqrt(eigenvalues), Re >= 0 branch
    alpha: np.ndarray          # modal attenuation, Re(gamma)
    residual: float = 0.0      # off-diagonal norm of M^-1 ZY M over ||ZY||
    condition: float = 1.0     # 1-norm condition number of M


@dataclass
class RIPrediction:
    currents: np.ndarray       # conductor currents of the dominant phase, A
    h_field: complex           # A/m at the observation point
    e_field: complex           # V/m
    level: float               # dB re 1 uV/m
    per_phase: list[float] = field(default_factory=list)
    #: conductor currents with phase i excited alone in column i, A
    phase_currents: np.ndarray | None = None
    decomposition: ModalDecomposition | None = None


# ---------------------------------------------------------------------------
# audible noise
# ---------------------------------------------------------------------------

def phase_distance(geometry: LineGeometry, index: int) -> float:
    """Straight-line distance from the microphone to phase ``index``."""
    p = geometry.phases[index]
    r = math.hypot(geometry.mic_x - p.x, geometry.mic_h - p.h)
    if r < MIN_PHASE_DISTANCE:
        raise CoincidentPointError(
            f"microphone within {MIN_PHASE_DISTANCE} m of phase {index}")
    return r


def spreading_loss(level_db: float, distance: float, c_coef: float) -> float:
    """Ground-level contribution of one phase from its generation level."""
    return level_db - c_coef * math.log10(distance) - AN_SPREADING_OFFSET


def incoherent_sum(levels_db) -> float:
    """Energy-domain combination of per-phase sound-pressure levels."""
    finite = [lv for lv in levels_db if lv != -math.inf]
    if not finite:
        raise ZeroFieldError("all contributions suppressed")
    return 10.0 * math.log10(sum(10.0 ** (lv / 10.0) for lv in finite))


def default_c_coef(model_id: str) -> float:
    family = models.get_model(model_id).family
    return C_COEF_DISCOVERED if family == "discovered" else C_COEF_EMPIRICAL


def an_ground_level_from_levels(geometry: LineGeometry, levels_db,
                                c_coef: float) -> ANPrediction:
    """Propagate known per-phase generation levels to the microphone."""
    if len(levels_db) != len(geometry.phases):
        raise GeometryError("one generation level per phase required")
    distances = [phase_distance(geometry, i) for i in range(len(geometry.phases))]
    contribs = [lv if lv == -math.inf else spreading_loss(lv, r, c_coef)
                for lv, r in zip(levels_db, distances)]
    return ANPrediction(per_phase=contribs, total=incoherent_sum(contribs),
                        distances=distances)


def an_ground_level(geometry: LineGeometry, model_id: str,
                    c_coef: float | None = None) -> ANPrediction:
    """Ground-level A-weighted sound pressure for a line and AN model."""
    if c_coef is None:
        c_coef = default_c_coef(model_id)
    levels = [an_generation_level(model_id, p.bundle) for p in geometry.phases]
    return an_ground_level_from_levels(geometry, levels, c_coef)


def an_generation_level(model_id: str, bundle: models.BundleConfig) -> float:
    return models.an_level(model_id, bundle).value


# ---------------------------------------------------------------------------
# line electrical model
# ---------------------------------------------------------------------------

def complex_depth(f: float, rho: float) -> complex:
    """Complex penetration depth of the lossy ground return."""
    omega = 2.0 * math.pi * f
    return cmath.sqrt(rho / (1j * omega * MU0))


def internal_impedance(f: float, radius: float,
                       rho_c: float = RHO_CONDUCTOR) -> complex:
    """High-frequency skin-effect internal impedance of a round conductor."""
    omega = 2.0 * math.pi * f
    return cmath.sqrt(1j * omega * MU0 * rho_c) / (2.0 * math.pi * radius)


def build_line_model(geometry: LineGeometry, f_ri: float = DEFAULT_F_RI,
                     rho: float = DEFAULT_RHO,
                     radii: list[float] | None = None) -> LineElectricalModel:
    """Per-unit-length Z and Y of the equivalent-conductor line.

    C comes from the image-charge Maxwell potential coefficients; Y = jwC.
    Z adds external inductance with images displaced by the complex
    penetration depth and the skin-effect internal impedance.
    """
    if f_ri <= 0:
        raise GeometryError("RI frequency must be positive")
    if rho <= 0:
        raise GeometryError("earth resistivity must be positive")
    phases = geometry.phases
    if radii is None:
        radii = [p.conductor_radius() for p in phases]
    if len(radii) != len(phases):
        raise GeometryError("one radius per phase required")
    n = len(phases)
    xs = [p.x for p in phases]
    hs = [p.h for p in phases]
    if min(hs) <= 0:
        raise GeometryError("conductors must be above ground")
    if not min(radii) > 0:
        raise GeometryError("conductor radii must be positive")

    omega = 2.0 * math.pi * f_ri
    p_depth = complex_depth(f_ri, rho)

    # Python scalars: for a handful of conductors numpy's per-item overhead
    # costs more than the arithmetic.  Squares are products, which overflow
    # to inf where ``**`` raises OverflowError.
    pot = [[0.0] * n for _ in range(n)]
    z_ext = [[0j] * n for _ in range(n)]
    for i in range(n):
        xi, hi, ri = xs[i], hs[i], radii[i]
        pot[i][i] = math.log(2.0 * hi / ri)
        z_ext[i][i] = cmath.log(2.0 * (hi + p_depth) / ri)
        for j in range(i + 1, n):
            dx = xi - xs[j]
            direct = math.hypot(dx, hi - hs[j])
            if direct <= ri + radii[j]:
                raise GeometryError(f"conductors {i} and {j} overlap")
            image = math.hypot(dx, hi + hs[j])
            depth = hi + hs[j] + 2.0 * p_depth
            pot[i][j] = pot[j][i] = math.log(image / direct)
            z_ext[i][j] = z_ext[j][i] = cmath.log(
                cmath.sqrt(dx * dx + depth * depth) / direct)
    cap = np.linalg.inv(np.array(pot) / (2.0 * math.pi * EPS0))
    admittance = 1j * omega * cap
    impedance = 1j * omega * MU0 / (2.0 * math.pi) * np.array(z_ext)
    impedance.flat[::n + 1] += [internal_impedance(f_ri, r) for r in radii]
    return LineElectricalModel(Z=impedance, Y=admittance, C=cap, f_ri=f_ri,
                               rho=rho, penetration_depth=p_depth,
                               positions=list(zip(xs, hs)),
                               radii=list(radii))


# ---------------------------------------------------------------------------
# modal analysis and field computation
# ---------------------------------------------------------------------------

def modal_decompose(model: LineElectricalModel) -> ModalDecomposition:
    """Eigendecomposition of ZY; the YZ eigenvectors follow as N = Y M.

    If ZY m = w m then YZ (Y m) = Y (ZY m) = w (Y m), so the columns of
    Y M are eigenvectors of YZ with the same eigenvalues in the same order.
    """
    zy = model.Z @ model.Y
    scale = np.linalg.norm(zy)
    if scale == 0:
        raise DefectiveMatrixError("ZY product is identically zero")
    if not math.isfinite(scale):
        # an overflowing norm would make every residual read zero
        raise DefectiveMatrixError(f"ZY norm {scale} is not finite")
    try:
        values, vectors = np.linalg.eig(zy)
        order = np.lexsort((values.imag, values.real))
        values, vectors = values[order], vectors[:, order]
        # one LU of M serves both M^-1 ZY M and M^-1
        n = len(vectors)
        both = np.linalg.solve(
            vectors, np.concatenate((zy @ vectors, np.eye(n)), axis=1))
        diag, inverse = both[:, :n], both[:, n:]
    except np.linalg.LinAlgError as exc:
        raise DefectiveMatrixError(f"ZY eigendecomposition failed: {exc}") from None
    residual = float(np.linalg.norm(diag - np.diag(diag.diagonal())) / scale)
    if not residual <= MODAL_TOL:
        raise DefectiveMatrixError(
            f"ZY diagonalization residual {residual:.3e} exceeds {MODAL_TOL}")
    condition = float(np.abs(vectors).sum(axis=0).max()
                      * np.abs(inverse).sum(axis=0).max())
    if not condition <= MAX_MODAL_CONDITION:
        raise DefectiveMatrixError(
            f"ZY eigenvector condition number {condition:.3e} exceeds "
            f"{MAX_MODAL_CONDITION:g}: ZY has no complete set of modes")
    gamma = np.sqrt(values)
    gamma = np.where(gamma.real < 0, -gamma, gamma)
    return ModalDecomposition(M=vectors, N=model.Y @ vectors, eigenvalues=values,
                              gamma=gamma, alpha=gamma.real, residual=residual,
                              condition=condition)


def excitation_to_linear(gamma_db) -> np.ndarray:
    """dB (re 1 uA/sqrt(m)) excitation to linear A/sqrt(m); -inf maps to 0."""
    return 10.0 ** (np.asarray(gamma_db, dtype=float) / 20.0) * 1e-6


def corona_currents(model: LineElectricalModel, decomposition: ModalDecomposition,
                    gamma_db) -> np.ndarray:
    """Conductor corona-current phasors induced by per-conductor excitation.

    The injected current density J = C*Gamma/(2*pi*eps0) transforms to modal
    quantities, each mode carries gain 1/sqrt(4*alpha_m) (RMS current of an
    infinite line under uniformly distributed uncorrelated sources), and
    transforms back.  ``gamma_db`` is one excitation of shape (n,) or k of
    shape (n, k), one per column; the currents have the same shape.
    """
    gamma_lin = excitation_to_linear(gamma_db)
    if gamma_lin.ndim not in (1, 2) or len(gamma_lin) != len(model.positions):
        raise ValueError("excitation must have one row per conductor")
    if np.any(decomposition.alpha <= 0):
        raise ZeroAttenuationError("non-positive modal attenuation")
    j_modal = np.linalg.solve(decomposition.N,
                              model.C @ gamma_lin / (2.0 * math.pi * EPS0))
    gains = 1.0 / np.sqrt(4.0 * decomposition.alpha)
    # transposing puts the mode axis last, where the gains broadcast
    return decomposition.N @ (gains * j_modal.T).T


def ground_field(geometry: LineGeometry, currents,
                 penetration_depth: complex,
                 x: float | None = None) -> tuple[complex, complex]:
    """(H_x, E_y) at ground level below/beside the line.

    Each conductor contributes its direct image term minus the
    complex-depth-shifted return term; E_y = Z0 * H_x.  ``currents`` of
    shape (n, k) gives arrays of k fields, one per column.
    """
    currents = np.asarray(currents, dtype=complex)
    if currents.ndim not in (1, 2) or len(currents) != len(geometry.phases):
        raise ValueError("one current per conductor required")
    if x is None:
        x = geometry.mic_x
    p = penetration_depth
    # H_x per unit current of each conductor; products, not ``**``, so that
    # a far conductor overflows to a zero coupling instead of raising
    coupling = []
    for phase in geometry.phases:
        dx2 = (x - phase.x) * (x - phase.x)
        above, below = phase.h + p, phase.h - p
        coupling.append((above / (dx2 + above * above)
                         - below / (dx2 + below * below)) / (2.0 * math.pi))
    h_x = np.array(coupling, dtype=complex) @ currents
    return h_x, Z0 * h_x


def ri_level(e_field: complex) -> float:
    """Field level in dB re 1 uV/m."""
    magnitude = abs(e_field)
    if magnitude == 0:
        raise ZeroFieldError("zero electric field")
    level = 20.0 * math.log10(magnitude / 1e-6)
    if not math.isfinite(level):
        raise NonFiniteError(f"electric field {e_field} has no finite level")
    return level


def combine_phase_levels(levels: list[float], rule: str = "cispr") -> float:
    """Combine independently excited per-phase RI levels.

    "cispr": take the largest if it exceeds the runner-up by >= 3 dB, else
    average the two largest and add 1.5 dB.  "power-sum": energy sum.
    """
    if not levels:
        raise ZeroFieldError("no phase levels to combine")
    if rule == "power-sum":
        return 10.0 * math.log10(sum(10.0 ** (lv / 10.0) for lv in levels))
    if rule != "cispr":
        raise ValueError(f"unknown combination rule {rule!r}")
    ranked = sorted(levels, reverse=True)
    if len(ranked) == 1 or ranked[0] - ranked[1] >= 3.0:
        return ranked[0]
    return 0.5 * (ranked[0] + ranked[1]) + 1.5


def ri_line_prediction(geometry: LineGeometry, model_id: str,
                       f_ri: float = DEFAULT_F_RI, rho: float = DEFAULT_RHO,
                       combination: str = "cispr") -> RIPrediction:
    """RIEF model -> line model -> modes -> currents -> ground field -> dB.

    Each phase is excited on its own, as one column of a single modal
    solve, and the per-phase levels are merged by the configured
    combination rule; the reported field quantities belong to the
    strongest phase (the first, if several tie).  An overflow anywhere in
    the chain raises the error of the check that meets its result, with no
    numpy warning.
    """
    with np.errstate(all="ignore"):
        line = build_line_model(geometry, f_ri=f_ri, rho=rho)
        decomp = modal_decompose(line)
        n = len(geometry.phases)
        excitation = np.full((n, n), -math.inf)
        for i, phase in enumerate(geometry.phases):
            excitation[i, i] = models.ri_excitation(model_id, phase.bundle)
        currents = corona_currents(line, decomp, excitation)
        h_x, e_y = ground_field(geometry, currents, line.penetration_depth)
        per_phase = [ri_level(e) for e in e_y]
    k = per_phase.index(max(per_phase))
    return RIPrediction(currents=currents[:, k], h_field=h_x[k], e_field=e_y[k],
                        level=combine_phase_levels(per_phase, combination),
                        per_phase=per_phase, phase_currents=currents,
                        decomposition=decomp)
