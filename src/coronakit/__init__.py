"""coronakit: graph-based equation discovery with monotonicity constraints
plus corona audible-noise / radio-interference prediction."""

from . import errors
from .data import Dataset, load_dataset
from .evolve import (
    GPConfig,
    Individual,
    RunReport,
    crossover,
    init_population,
    mutate,
    run_discovery,
    select,
)
from .exprgraph import (
    ExprGraph,
    GraphBuilder,
    TermFragment,
    evaluate,
    evaluate_batch,
    graph_from_json,
    graph_to_json,
    render,
    sample_template,
    term_values,
    validate,
)
from .models import (
    BundleConfig,
    NoiseLevel,
    an_level,
    convert_reference,
    discovered_graph,
    model_catalog,
    ri_excitation,
)
from .objective import (
    LossBreakdown,
    MonotonicitySpec,
    default_monotonicity_spec,
    fit_coefficients,
    monotonicity_loss,
)
from .propagation import (
    ANPrediction,
    LineElectricalModel,
    LineGeometry,
    ModalDecomposition,
    Phase,
    RIPrediction,
    an_ground_level,
    build_line_model,
    corona_currents,
    ground_field,
    modal_decompose,
    phase_distance,
    ri_level,
    ri_line_prediction,
)

__version__ = "0.1.0"
