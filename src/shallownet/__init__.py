"""Shallow quantum-network simulation and mean-field uncertainty analysis.

The package simulates networks of one- and two-site channels on n-site
systems, computes how much quantum uncertainty a state carries in mean-field
(averaging) observables, bounds how fast shallow networks can create or
measure such uncertainty, and provides weak/strong measurement procedures
that probe the difference.
"""

__version__ = "0.1.0"

from .linalg import (
    commutator,
    embed,
    operator_norm,
    tensor,
    trace_norm,
)
from .states import (
    DensityState,
    PureState,
    SeparableInput,
    cat_state,
    fidelity,
    mix,
    product_state,
    state_from_json,
    state_to_json,
    to_density,
)
from .network import (
    LocalChannel,
    Network,
    Step,
    apply,
    apply_dual,
    apply_pure,
    canonical_depth,
    cat_ladder,
    identity_network,
    invert_unitary,
    random_shallow,
)
from .uncertainty import (
    AveragingObservable,
    Hypersurface,
    MacroUncertaintyReport,
    SiteObservable,
    averaging_matrix,
    check_uncertainty_bound,
    commutator_trace_norm,
    commutator_witness,
    estimate_e,
    hypersurface_value,
    max_variance_qubit,
    uncertainty_bound,
    variance,
)
from .lightcone import (
    LightconeReport,
    crossing_requires_depth,
    depth_lower_bound,
    dual_support,
    exact_support,
    lightcone_report,
)
from .measurement import (
    MeasurementOutcome,
    ProductProjection,
    SpectralDecomposition,
    build_parity_conjugator,
    check_projection_commutator_bound,
    commutator_opnorm,
    conjugated_strong_measure,
    conjugated_strong_measure_exact,
    is_product_projection,
    parity_measure_exact,
    projection_bound,
    sample_outcome,
    spectral_decompose,
    strong_measure,
    strong_measure_exact,
    weak_measure_product,
    weak_measure_product_exact,
    weak_measure_shots,
)
from .dsl import CircuitParseError, parse, serialize
from .sweeps import RunConfig, run_sweep, trial_seed
