"""Phenomenological polarization-enhancement dynamics and scheduling.

The dissolved hyperpolarized xenon acts as a quasi-continuous polarization
source: the solute enhancements sit at a quasi-equilibrium value that
relaxes toward thermal (eps = 1) on the xenon T1 timescale,

    eps(t) = 1 + (eps0 - 1) * exp(-t / t1_xe),

independently per nucleus. Recovery of the solute after an experiment is
assumed complete once the scheduled recovery gap has elapsed, so no
recovery dynamics are integrated, and experiments do not deplete the
xenon reservoir. Sample-to-sample irreproducibility is modeled as an
optional multiplicative Gaussian jitter on each nucleus's enhancement:
`sample_initial_states` scales each enhancement by 1 + its draw. The draws
are the caller's; the pipelines take them from the normals of the params'
seed (`check_seed` is the one rule for a seed), and only for fresh
samples (see `experiments.prepare_batch`).
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .labeling import DEFAULT_PERM_ORDER
from .spins import SpinSystemConfig, check_finite, enhanced_deviations

# gap between single-sample experiments: 5 x the 24 s solute T1, after
# which the solute is taken as fully recovered
DEFAULT_RECOVERY_S = 120.0
# probe lead, and the sample's age when a search starts (`run_grover_pipeline`)
DEFAULT_R1_S = 25.0
DEFAULT_SAMPLE_AGE_S = 600.0


class ScheduleMode(enum.Enum):
    MULTI_SAMPLE = "multi"
    SINGLE_SAMPLE = "single"


@dataclass(frozen=True)
class SpinoeParams:
    """Enhancement trajectory constants.

    Defaults are the demonstrated operating point: initial enhancements
    -11 (1H) and +18 (13C) and a xenon T1 of 15 min.
    """

    eps0_h: float = -11.0
    eps0_c: float = 18.0
    t1_xe: float = 900.0
    reproducibility_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.t1_xe <= 0:
            raise ValueError("t1_xe must be positive")
        if self.reproducibility_jitter < 0:
            raise ValueError("jitter must be non-negative")
        check_finite(eps0_h=self.eps0_h, eps0_c=self.eps0_c, t1_xe=self.t1_xe,
                     reproducibility_jitter=self.reproducibility_jitter)
        check_seed(self.seed)


def check_seed(seed) -> int:
    """A generator seed is a non-negative integer (a JSON true is no seed)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError("seed must be an integer")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


@dataclass(frozen=True)
class ExperimentSchedule:
    """Start times of the permutation experiments plus the probe lead r1.

    Each experiment at time t is preceded by its probing experiment at
    t - probe_lead. fresh_sample marks multi-sample operation, where every
    experiment gets a newly mixed sample (all times equal) instead of one
    sample re-probed as it decays.
    """

    times: tuple[float, ...]
    probe_lead: float
    fresh_sample: bool = False

    def __post_init__(self):
        if self.probe_lead <= 0:
            raise ValueError("probe_lead must be positive")
        if any(t < self.probe_lead for t in self.times):
            raise ValueError("experiment times must not precede the first probe")
        if not self.fresh_sample and any(
            b <= a for a, b in zip(self.times, self.times[1:])
        ):
            raise ValueError("single-sample times must be strictly increasing")

    @functools.cached_property
    def probe_times(self) -> tuple[float, ...]:
        """The probes' times, computed on first read and kept."""
        return tuple(t - self.probe_lead for t in self.times)


def enhancement_at(p: SpinoeParams, t: float) -> tuple[float, float]:
    """Quasi-equilibrium enhancement pair (eps_h, eps_c) at time t >= 0."""
    if t < 0:
        raise ValueError("time must be non-negative")
    decay = np.exp(-t / p.t1_xe)
    return (
        1.0 + (p.eps0_h - 1.0) * decay,
        1.0 + (p.eps0_c - 1.0) * decay,
    )


def sample_initial_states(p: SpinoeParams, cfg: SpinSystemConfig, times, draws) -> np.ndarray:
    """Initial states for experiments whose probes fire at `times`, as
    read-only (..., time, 4) deviation diagonals (`enhanced_deviations`):
    each enhancement at its time scaled by 1 + its (..., time, nucleus)
    jitter draw. Zero draws give a pure function of (p, cfg, times). A
    jittered enhancement past the float range is ±inf, with no warning, as
    are such deviations: the probe refuses them by name."""
    with np.errstate(over="ignore"):
        eps = np.array([enhancement_at(p, t) for t in times]) * (1.0 + draws)
    return enhanced_deviations(cfg, eps[..., :1], eps[..., 1:])


# bounded: a pipeline call makes one; typed, so an int r1 keeps int times
@functools.lru_cache(maxsize=16, typed=True)
def make_schedule(
    mode: ScheduleMode, r1: float = DEFAULT_R1_S, recovery: float = DEFAULT_RECOVERY_S,
    start_delay: float = 0.0,
) -> ExperimentSchedule:
    """Schedule the three permutation experiments of DEFAULT_PERM_ORDER.

    MULTI_SAMPLE puts every experiment on a fresh sample at its own time
    r1 (probe at the sample's t = 0). SINGLE_SAMPLE spaces experiments by
    the recovery gap on one decaying sample, the first at r1. start_delay
    shifts the whole schedule to model an aged sample. The recovery gap
    must be positive in either mode; any other mode raises ValueError.
    """
    if not isinstance(mode, ScheduleMode):
        raise ValueError(f"mode must be ScheduleMode.MULTI_SAMPLE or SINGLE_SAMPLE, not {mode!r}")
    if start_delay < 0:
        raise ValueError("start_delay must be non-negative")
    if recovery <= 0:
        raise ValueError("recovery must be positive")
    check_finite(r1=r1, recovery=recovery, start_delay=start_delay)
    fresh = mode is ScheduleMode.MULTI_SAMPLE
    gaps = (0 if fresh else i * recovery for i in range(len(DEFAULT_PERM_ORDER)))
    times = tuple(start_delay + r1 + gap for gap in gaps)
    return ExperimentSchedule(times=times, probe_lead=r1, fresh_sample=fresh)
