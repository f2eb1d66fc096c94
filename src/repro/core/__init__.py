"""DataCell core: baskets, factories, scheduler, windows, engine."""

from repro.core.basket import Basket, Subscription
from repro.core.clock import Clock, SimulatedClock, WallClock
from repro.core.emitter import Emitter, QueueSink
from repro.core.engine import ContinuousQuery, DataCellEngine
from repro.core.factory import (EXECUTION_MODES, Factory,
                                IncrementalFactory, ReevalFactory)
from repro.core.incremental import (IncrementalAnalysis,
                                    UnsupportedIncremental,
                                    analyze_incremental)
from repro.core.live import LiveRunner
from repro.core.monitor import Monitor
from repro.core.receptor import Receptor
from repro.core.rewriter import plan_diff, rewrite_to_continuous
from repro.core.scheduler import PetriNetScheduler
from repro.core.windows import BasicWindowTracker, WindowSpec, WindowState

__all__ = [
    "Basket", "Subscription", "Clock", "SimulatedClock", "WallClock",
    "Emitter", "QueueSink",
    "ContinuousQuery", "DataCellEngine", "EXECUTION_MODES", "Factory",
    "IncrementalFactory",
    "ReevalFactory", "IncrementalAnalysis", "UnsupportedIncremental",
    "analyze_incremental", "Monitor", "Receptor",
    "plan_diff", "rewrite_to_continuous", "PetriNetScheduler",
    "BasicWindowTracker", "WindowSpec", "WindowState", "LiveRunner",
]
