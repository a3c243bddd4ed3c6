"""Single-snapshot direction finding for partly calibrated distributed arrays."""

from .array_model import (
    ArrayGeometry,
    MeasurementMatrix,
    SourceScenario,
    SourceSignalMatrix,
    build_geometry,
    phase_offset,
    steering_vector,
    synthesize,
)
from .config import (
    load_config,
    load_packaged_config,
    packaged_config_names,
    parse_config,
)
from .correlation import (
    coherence,
    cross_covariance,
    expected_correlation,
    full_array_correlation,
    pair_correlation,
    pair_statistics,
)
from .estimators import (
    DoaEstimate,
    PhaseOffsetEstimate,
    angle_grid,
    bss_mf,
    bss_nls,
    estimate_phase_offsets,
    match_sources,
    nls_cost,
    nls_cost_gradients,
)
from .harness import (
    GeometrySpec,
    MonteCarloReport,
    TrialConfig,
    derive_seed,
    monte_carlo,
    orthogonality_experiment,
    rmse_deg,
    run_trial,
)
from .jade import jade_cost, jade_separate
from .snapshot_io import ingest_snapshot_csv, superpose_snapshots, write_snapshot_csv

__version__ = "0.1.0"
