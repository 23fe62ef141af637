"""Simulation layer: waveform-triple simulators and robust fault simulation."""

from .batch import BatchSimulator, ConeSimulator
from .cover import CompiledRequirements, StackedRequirements
from .faultsim import FaultSimulator, detected_count, detection_matrix
from .logicsim import simulate_logic
from .scalar import simulate_triples
from .testfile import (
    TestFileError,
    dump_tests,
    dumps_tests,
    load_tests,
    loads_tests,
)
from .vectors import TwoPatternTest
from .waveform import render_test, render_waveforms

__all__ = [
    "BatchSimulator",
    "ConeSimulator",
    "CompiledRequirements",
    "StackedRequirements",
    "FaultSimulator",
    "detection_matrix",
    "detected_count",
    "simulate_triples",
    "simulate_logic",
    "TwoPatternTest",
    "dump_tests",
    "dumps_tests",
    "load_tests",
    "loads_tests",
    "TestFileError",
    "render_test",
    "render_waveforms",
]
