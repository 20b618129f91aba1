"""Online use of phase markers: monitoring and next-phase prediction.

The point of *software* phase markers is that phase changes can be
detected at run time "with no hardware support" — instrumentation at the
marker sites simply fires as the program executes.  This package is that
runtime side:

* :class:`~repro.runtime.monitor.PhaseMonitor` reads a recorded run's
  marker firings and invokes callbacks at every phase change — the hook
  a dynamic optimizer or reconfiguration controller would attach to
  (:class:`~repro.streaming.StreamingPhaseMonitor` is the same over a
  live stream, through the same :class:`~repro.runtime.monitor.PhaseLog`);
* :mod:`~repro.runtime.predictor` provides the next-phase predictors of
  the phase-prediction literature (last-phase and Markov) so a controller
  can prepare a configuration *before* the phase begins.
"""

from repro.runtime.monitor import PhaseChange, PhaseMonitor, monitor_run
from repro.runtime.predictor import (
    LastPhasePredictor,
    MarkovPredictor,
    PredictorReport,
    evaluate_predictor,
)

__all__ = [
    "PhaseChange",
    "PhaseMonitor",
    "monitor_run",
    "LastPhasePredictor",
    "MarkovPredictor",
    "PredictorReport",
    "evaluate_predictor",
]
