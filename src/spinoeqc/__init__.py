"""Two-spin NMR quantum-processor simulator with hyperpolarization-
enhanced initial states: weighted temporal labeling, spectral readout and
a one-query two-qubit search, end to end.

The package exports what a pipeline caller needs: the settings and case it
passes, the two pipelines and the errors it catches. Every other name is
imported from its own module (`spinoeqc.readout.probe`, ...)."""

from .experiments import DecodeError, GroverCase, run_effective_pure_pipeline, run_grover_pipeline
from .labeling import SingularLabelingSystem, UnequalizedLabeling
from .readout import DetectionSettings, ReadoutError
from .spinoe import ScheduleMode, SpinoeParams
from .spins import SpinSystemConfig

__version__ = "0.1.0"
