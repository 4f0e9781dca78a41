"""Streaming-camera detection from byte-rate side channels.

Compare the bytes-per-time-step pattern of a trusted recording with the
transmission pattern of every nearby network device; devices whose
traffic tracks the observed scene are flagged as cameras watching it.
"""

from .classify import (
    DEFAULT_THRESHOLDS,
    AgreementReport,
    GridPoint,
    LabeledSample,
    Metrics,
    MlpModel,
    ParamGrid,
    ThresholdConfig,
    column_verdicts,
    convergence_analysis,
    evaluate,
    grid_search,
    measure_agreement,
    mlp_predict,
    mlp_probabilities,
    mlp_train,
    portability_matrix,
    sweep_threshold,
    threshold_classify,
)
from .errors import SimobsError
from .mp4 import TrackSampleTable, parse_mp4, video_byte_series
from .pcap import DeviceStream, FrameBatch, extract_device_series, read_pcap
from .similarity import Report, dtw_distance, score_report, similarity_vector
from .simulate import (
    CameraModel,
    SimDataset,
    SimScenario,
    gen_activity,
    render_scenario,
    write_pcap,
)
from .timeseries import ByteSeries, bin_events, event_array, min_max_normalize

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "ByteSeries",
    "CameraModel",
    "DEFAULT_THRESHOLDS",
    "DeviceStream",
    "FrameBatch",
    "GridPoint",
    "LabeledSample",
    "Metrics",
    "MlpModel",
    "ParamGrid",
    "SimDataset",
    "SimScenario",
    "Report",
    "SimobsError",
    "ThresholdConfig",
    "TrackSampleTable",
    "bin_events",
    "column_verdicts",
    "convergence_analysis",
    "dtw_distance",
    "evaluate",
    "event_array",
    "extract_device_series",
    "gen_activity",
    "grid_search",
    "measure_agreement",
    "min_max_normalize",
    "mlp_predict",
    "mlp_probabilities",
    "mlp_train",
    "parse_mp4",
    "portability_matrix",
    "read_pcap",
    "render_scenario",
    "score_report",
    "similarity_vector",
    "sweep_threshold",
    "threshold_classify",
    "video_byte_series",
    "write_pcap",
]
