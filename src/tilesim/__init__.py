"""tilesim: trace-driven simulation of tiled 360-degree video streaming.

Core pieces: sphere/tile geometry and visibility (geometry), linear viewport
prediction (prediction), popularity heat maps and quantization (popularity),
synthetic tiled manifests (manifest), an edge cache with LRU/LFUDA/GDSF
eviction (cachesim), a packet-trace network model (netsim), per-segment
quality selection policies and the transition rule (adaptation), and the
streaming-session event loop plus experiment driver (playback). The `tilesim`
command wraps it all; see the README for a walkthrough.
"""

from .adaptation import PolicyKind, transition_step
from .cachesim import Cache, EvictionPolicy, warm
from .geometry import (
    FovSpec,
    TileGrid,
    ViewingTrace,
    orthodromic_distance,
    tile_visibility,
)
from .manifest import VideoManifest, file_count, segment_bits, synthesize
from .netsim import Link, NetworkTrace, load_trace, scale
from .playback import (
    SegmentRecord,
    SessionMetrics,
    run_experiment,
    simulate,
)
from .popularity import HeatMap, build_heat, default_budget_bps, quantize
from .prediction import RegressionModel, error_experiment, fit, predict

__version__ = "0.1.0"

__all__ = [
    "Cache",
    "EvictionPolicy",
    "FovSpec",
    "HeatMap",
    "Link",
    "NetworkTrace",
    "PolicyKind",
    "RegressionModel",
    "SegmentRecord",
    "SessionMetrics",
    "TileGrid",
    "VideoManifest",
    "ViewingTrace",
    "build_heat",
    "default_budget_bps",
    "error_experiment",
    "file_count",
    "fit",
    "load_trace",
    "orthodromic_distance",
    "predict",
    "quantize",
    "run_experiment",
    "scale",
    "segment_bits",
    "simulate",
    "synthesize",
    "tile_visibility",
    "transition_step",
    "warm",
    "__version__",
]
