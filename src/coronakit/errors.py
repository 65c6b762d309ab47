"""Exception hierarchy shared by all coronakit modules.

Input/usage problems subclass InputError (CLI exit code 2); everything
else is a computation failure (CLI exit code 1).
"""


class CoronaKitError(Exception):
    """Base class for all package errors."""


class InputError(CoronaKitError):
    """Bad user input: malformed files, unknown ids, schema violations."""


class DatasetFormatError(InputError):
    """CSV could not be ingested; message carries line numbers."""


class ConfigError(InputError):
    """Run-configuration file failed schema validation."""


class UnknownModelError(InputError):
    """Requested model id is not in the catalog."""


class GeometrySchemaError(InputError):
    """Line-geometry file failed schema validation."""


class UnboundVariableError(CoronaKitError):
    """Graph references a variable missing from the assignment."""

    def __init__(self, name):
        super().__init__(f"variable {name!r} is not bound in the assignment")
        self.name = name


class NonFiniteError(CoronaKitError):
    """Evaluation produced a non-finite value; candidate must be rejected."""


class RejectedCandidateError(CoronaKitError):
    """Candidate produced non-finite term values on the dataset."""


class DegenerateTargetError(CoronaKitError):
    """All target values are equal: R-squared is undefined."""


class EmptyDatasetError(InputError):
    """Dataset has no rows."""


class DomainError(CoronaKitError):
    """Closed-form model evaluated outside its domain of definition."""


class CoincidentPointError(CoronaKitError):
    """Observation point too close to a conductor for the sound-field model."""


class GeometryError(CoronaKitError):
    """Invalid conductor layout (overlap, below ground, ...)."""


class DefectiveMatrixError(CoronaKitError):
    """Modal diagonalization residual exceeded tolerance."""


class ZeroAttenuationError(CoronaKitError):
    """A propagation mode has non-positive attenuation."""


class ZeroFieldError(CoronaKitError):
    """Field magnitude is zero; dB level undefined."""
