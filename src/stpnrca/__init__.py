"""Pattern-network anomaly detection and root-cause analysis for time series."""

from .association import (
    A3Dataset,
    MlpParams,
    generate_artificial_anomalies,
    infer_a3,
    train_a3,
)
from .config import RunConfig
from .errors import (
    DataError,
    DegeneratePartitionError,
    NumericalError,
    StpnRcaError,
    UsageError,
)
from .metrics import (
    diagnosis_cost,
    error_ratio,
    false_alarm_pattern_fraction,
)
from .nodes import NodeInferenceResult, infer_nodes
from .persist import TrainedBundle, load_bundle, save_bundle
from .pipeline import (
    evaluate_case,
    run_detect,
    run_rca,
    run_var_rca,
    train_bundle,
)
from .rbm import RbmParams, calibrate_threshold, free_energy, train_rbm
from .stpn import (
    StpnModel,
    index_pattern,
    pattern_index,
    scan_windows,
    train_stpn,
)
from .switching import S3Result, exhaustive_switch_oracle, s3_search
from .symbolic import (
    PartitionScheme,
    count_matrix,
    learn_partition,
    log_inference_metric,
    states_from_symbols,
    symbolize,
)
from .synth import (
    CausalGraph,
    FaultSpec,
    builtin_modes,
    inject_fault,
    pattern_fault_cases,
    random_graph,
    simulate_case,
    simulate_var,
    var_fit,
    var_rca_baseline,
)
from .timeseries import TimeSeries, read_csv, write_csv

__version__ = "0.1.0"
