"""End-to-end experiment pipelines: effective-pure-state preparation and
the one-query two-qubit search, with spectral readout and decoding.

Both pipelines follow the same probe -> wait -> permute(+compute) ->
readout scheme. For each scheduled experiment i the initial state is
probed (a small-tip experiment whose line integrals reconstruct the
deviation populations), the permutation P_i is applied a lead time r1
later, optionally followed by the search circuit, and both channels are
read out. The probed diagonals feed the weight solver; the weighted sum
of per-experiment results is the effective pure state, and because
detection is linear in the state, the same weights applied to the readout
line integrals (or spectra) give those of the effective pure state
directly. Every line integral comes from one `Detector` built per
preparation on the maps of its grid and probe setting. Every initial
state is diagonal and travels as its four populations, so a record's line
amplitudes are a fixed linear map of them: one `readout_map` per
(permutation, ground, computation), at most 3 x 4 x 5, built once in
closed form from its unitary and cached. A record's readout spectra come
from the same amplitudes through the unit line spectra of the grid, both
built only when a caller reads a spectrum; no state is built.

Prepare once, compute many. Everything that does not depend on the
computation (the detector, the sampled initial states, their probed
diagonals, the labeling and the readout noise) is a `Preparation`, kept
for the last (SpinoeParams, SpinSystemConfig, ExperimentSchedule,
DetectionSettings) seen, compared by value. The four search cases of one
configuration therefore probe and draw once and compute four times. What
a preparation shares with every other on the same settings is cached
apart from it, so a preparation for a new seed rebuilds none of it: the
grid map (per spin system and grid) and the probe setting (per spin
system, grid and tip: the probe map, the calibration and the
reconstruction's solve). A probe is then a map product and a 4×4 solve,
and the labeling solves its four candidate grounds as one batch. The
generator is seeded from the params' seed; per probe the jitter and then
the probe noise (two normals per channel, the line integrals of that
channel's noise) are its first draws, the readout noise of every
experiment its next, and the generator is not used after that. Probes
spawn no seeds: nothing reads a probe's noise vector. Each readout draw,
one `Noise` for both channels, spawns a child seed per channel from the
generator's seed sequence, without drawing from it; its two noise vectors
are built from those seeds only when a readout spectrum is read, once per
preparation, and shared by its search cases with their transforms. A
record's readout is one `Detection` of both channels, against its
preparation's draw. Shared arrays are read-only; a failed preparation is
not kept and fails again on the next call.

The enhancement scores the labeled state against labeled thermal input.
With both enhancements equal to 1 at every time, the three thermal inputs
are one known diagonal, so that reference is classic temporal averaging
computed in closed form; only the enhanced experiments are measured.

The search circuit is the standard one-query amplitude amplification on
two qubits: U = D O (H⊗H) with O the phase oracle flipping the marked
element and D = (H⊗H)(2|00><00| - I)(H⊗H). Applied to |00> it outputs the
marked basis state exactly, and by linearity it maps q1*I + q2*|00><00|
to q1*I + q2*|x0><x0|. When the labeling ground is not |00>, bit-flip
pulses relabel it to |00> before the circuit so the algorithm always sees
its nominal input.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .labeling import DEFAULT_PERM_ORDER, EffectivePureResult, enhancement_factor, label
from .quantum import Unitary, compose
from .readout import (
    Detection,
    DetectionSettings,
    Detector,
    Noise,
    ReadoutError,
    Spectrum,
    readout_map,
)
from .spinoe import (
    DEFAULT_RECOVERY_S,
    ExperimentSchedule,
    ScheduleMode,
    SpinoeParams,
    make_schedule,
    sample_initial_state,
)
from .spins import (
    PermutationId,
    PulseSpec,
    PulseTarget,
    SpinSystemConfig,
    enhanced_populations,
    permutation_pulse_sequence,
    pulse_unitary,
)

HADAMARD_1Q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
HADAMARD_2Q = np.kron(HADAMARD_1Q, HADAMARD_1Q)

DECODE_DOMINANCE = 3.0  # dominant line must beat its partner by this factor
GROVER_TARGETS = ("00", "01", "10", "11")


class DecodeError(RuntimeError):
    """Readout sign pattern does not identify a unique answer."""


@dataclass(frozen=True)
class GroverCase:
    """Marked element of the search, as a 2-bit string 'hc'."""

    target: str

    def __post_init__(self):
        if self.target not in GROVER_TARGETS:
            raise ValueError(f"target must be one of {', '.join(GROVER_TARGETS)}")

    @property
    def index(self) -> int:
        return int(self.target, 2)


@dataclass(eq=False)
class ExperimentRecord:
    """One probe + compute run of a pipeline."""

    schedule_time: float
    probe_time: float
    probed_diagonal: np.ndarray
    perm_id: PermutationId
    readout: Detection = field(repr=False)

    @property
    def readout_h(self) -> Spectrum:
        return self.readout.spectra[0]

    @property
    def readout_c(self) -> Spectrum:
        return self.readout.spectra[1]


@dataclass(frozen=True, eq=False)
class EffectivePureRun:
    """Everything produced by one effective-pure-state preparation."""

    result: EffectivePureResult
    records: list[ExperimentRecord]
    thermal_result: EffectivePureResult
    enhancement: float
    schedule: ExperimentSchedule

    @property
    def sum_readout_h(self) -> Spectrum:
        """Weighted sum of the H readout spectra, built on each access."""
        return _weighted_spectrum([r.readout_h for r in self.records], self.result.weights)

    @property
    def sum_readout_c(self) -> Spectrum:
        """Weighted sum of the C readout spectra, built on each access."""
        return _weighted_spectrum([r.readout_c for r in self.records], self.result.weights)


@dataclass(frozen=True, eq=False)
class GroverRun(EffectivePureRun):
    """One search case: the labeled run plus its decoded answer."""

    case: GroverCase
    decoded: str
    peak_integrals: np.ndarray = field(repr=False)  # (channel, partner), read-only
    line_amplitudes: np.ndarray = field(repr=False)  # (channel, partner), read-only


def grover_oracle(case: GroverCase) -> Unitary:
    """Phase oracle: -1 on the marked element, +1 elsewhere."""
    d = np.ones(4)
    d[case.index] = -1.0
    return Unitary(np.diag(d))


def grover_diffusion() -> Unitary:
    """Inversion about the mean, (H⊗H)(2|00><00| - I)(H⊗H)."""
    flip0 = -np.eye(4)
    flip0[0, 0] = 1.0
    return Unitary(HADAMARD_2Q @ flip0 @ HADAMARD_2Q)


def grover_circuit(case: GroverCase) -> Unitary:
    """Full one-query search: prepare superposition, query, amplify."""
    u = grover_diffusion().matrix @ grover_oracle(case).matrix @ HADAMARD_2Q
    return Unitary(u)


def relabel_unitary(ground: int) -> Unitary:
    """Bit-flip pulses mapping |ground> to |00> (and back, it is an involution)."""
    steps = []
    if ground & 2:
        steps.append(pulse_unitary(PulseSpec(PulseTarget.H, 180.0, phase=0.0)))
    if ground & 1:
        steps.append(pulse_unitary(PulseSpec(PulseTarget.C, 180.0, phase=0.0)))
    if not steps:
        return Unitary(np.eye(4))
    return compose(*steps)


def _weighted_spectrum(spectra: list[Spectrum], weights: np.ndarray) -> Spectrum:
    values = sum(w * s.values for w, s in zip(weights, spectra))
    return Spectrum(channel=spectra[0].channel, freqs=spectra[0].freqs, values=values)


@dataclass(frozen=True, eq=False)
class Preparation:
    """What a labeled run does before and apart from its computation,
    shared by every computation on it.

    `populations` holds the sampled initial states, `probed` their
    reconstructed diagonals (both read-only), `result` their labeling, and
    `readout_noise` the receiver noise of each state's readout, drawn after
    the last probe: one `Noise` per readout, holding the two channels'
    child seeds and read-only line integrals, or None with noise off (see
    `Detector.draw`).
    """

    detector: Detector
    populations: tuple[np.ndarray, ...] = field(repr=False)
    probed: tuple[np.ndarray, ...] = field(repr=False)
    result: EffectivePureResult
    readout_noise: tuple[Noise | None, ...] = field(repr=False)


@functools.lru_cache(maxsize=1)
def _prepare(
    p: SpinoeParams,
    cfg: SpinSystemConfig,
    schedule: ExperimentSchedule,
    detection: DetectionSettings,
) -> Preparation:
    """Sample and probe every scheduled state, label, and draw the readout
    noise; kept for the next call with equal arguments (see the module
    docstring)."""
    rng = np.random.default_rng(p.seed)
    detector = Detector(cfg, detection)

    sampled: list[np.ndarray] = []
    probed: list[np.ndarray] = []
    for i, probe_time in enumerate(schedule.probe_times, start=1):
        d = sample_initial_state(p, cfg, probe_time, fresh_sample=schedule.fresh_sample, rng=rng)
        try:
            diag = detector.probe_diagonal(d, rng)
        except ReadoutError as exc:
            raise ReadoutError(f"experiment {i} (probe at {probe_time:.1f} s): {exc}") from exc
        diag.flags.writeable = False
        sampled.append(d)
        probed.append(diag)

    return Preparation(
        detector=detector,
        populations=tuple(sampled),
        probed=tuple(probed),
        result=label(probed),
        readout_noise=tuple(detector.draw(rng) for _ in sampled),
    )


# bounded by the key space: 3 permutations x 4 grounds x 5 computations
@functools.lru_cache(maxsize=60)
def _readout_map(perm: PermutationId, ground: int, case: GroverCase | None) -> np.ndarray:
    """The `readout_map` of one record: its permutation, then for a search
    case (`case` not None) the relabeling of `ground` and the circuit."""
    step = permutation_pulse_sequence(perm, ground)
    if case is not None:
        step = compose(step, compose(relabel_unitary(ground), grover_circuit(case)))
    return readout_map(step)


def _run_labeled_experiments(
    prep: Preparation,
    cfg: SpinSystemConfig,
    schedule: ExperimentSchedule,
    case: GroverCase | None,
) -> EffectivePureRun:
    """Shared permute/compute/readout loop on a preparation, and scoring.

    The experiments run the permutations of DEFAULT_PERM_ORDER in turn on
    the prepared states, each followed by the computation (none for plain
    state preparation, `case` None; relabel+circuit for a search case), and
    read out against the prepared noise through the cached map of that
    (permutation, ground, computation).
    """
    ground = prep.result.ground
    records: list[ExperimentRecord] = []
    experiments = zip(prep.populations, prep.probed, prep.readout_noise, DEFAULT_PERM_ORDER)
    for i, (d, diag, noise, perm) in enumerate(experiments):
        records.append(
            ExperimentRecord(
                schedule_time=schedule.times[i],
                probe_time=schedule.probe_times[i],
                probed_diagonal=diag,
                perm_id=perm,
                readout=prep.detector.readout(d, _readout_map(perm, ground, case), noise),
            )
        )

    thermal = _thermal_reference(cfg)
    return EffectivePureRun(
        result=prep.result,
        records=records,
        thermal_result=thermal,
        enhancement=enhancement_factor(prep.result, thermal),
        schedule=schedule,
    )


@functools.lru_cache(maxsize=1)
def _thermal_reference(cfg: SpinSystemConfig) -> EffectivePureResult:
    """Labeled thermal-equilibrium input, exact and noise-free.

    Three copies of the thermal deviation diagonal: classic temporal
    averaging, the same for every schedule, seed and detection setting.
    """
    return label([enhanced_populations(cfg, 1.0, 1.0) - 0.25] * 3)


def run_effective_pure_pipeline(
    p: SpinoeParams,
    cfg: SpinSystemConfig,
    mode: ScheduleMode,
    r1: float = 25.0,
    recovery: float = DEFAULT_RECOVERY_S,
    detection: DetectionSettings = DetectionSettings(),
) -> EffectivePureRun:
    """Prepare an effective pure state and score it against thermal input.

    Runs the three permutation experiments on the schedule implied by
    `mode`, solves the weights from the probed diagonals, assembles the
    effective pure state and reports its enhancement over the same
    labeling applied to thermal-equilibrium input.
    """
    schedule = make_schedule(mode, r1, recovery)
    prep = _prepare(p, cfg, schedule, detection)
    return _run_labeled_experiments(prep, cfg, schedule, None)


def decode_answer(lines) -> str:
    """Answer bits from the doublet sign pattern of both channels, given as
    (channel, partner) line values, H then C.

    Each channel shows one dominant line for a pure-like state: its sign
    gives the observed spin's bit (positive means |0>) and its position
    gives the partner's bit. The two channels must agree; anything below
    the dominance threshold or inconsistent raises DecodeError.
    """
    if np.shape(lines) != (2, 2):
        raise ValueError("the decode takes the (channel, partner) lines of both channels")
    (h0, h1), (c0, c1) = np.asarray(lines, dtype=float).tolist()
    scale = max(abs(v) for v in (h0, h1, c0, c1))
    if scale == 0.0:
        raise DecodeError("no readout signal")

    def dominant(a: float, b: float) -> tuple[int, float]:
        if abs(a) < DECODE_DOMINANCE * abs(b) and abs(b) < DECODE_DOMINANCE * abs(a):
            raise DecodeError("doublet lines have comparable magnitude")
        return (0, a) if abs(a) > abs(b) else (1, b)

    c_from_h, h_line = dominant(h0, h1)
    h_from_c, c_line = dominant(c0, c1)
    h_bit = 0 if h_line > 0 else 1
    c_bit = 0 if c_line > 0 else 1
    if h_bit != h_from_c or c_bit != c_from_h:
        raise DecodeError(
            f"channels disagree: H says ({h_bit},{c_from_h}), C says ({h_from_c},{c_bit})"
        )
    return f"{h_bit}{c_bit}"


def run_grover_pipeline(
    p: SpinoeParams,
    cfg: SpinSystemConfig,
    case: GroverCase,
    mode: ScheduleMode = ScheduleMode.SINGLE_SAMPLE,
    r1: float = 25.0,
    recovery: float = DEFAULT_RECOVERY_S,
    sample_age: float = 600.0,
    detection: DetectionSettings = DetectionSettings(),
) -> GroverRun:
    """One search case end to end, with weighted readout.

    The default schedule starts on an aged sample (sample_age after
    mixing): search runs late in a sample's life show the moderate
    enhancements characteristic of this experiment series. The answer is
    decoded from the line amplitudes behind the weighted readout integrals,
    and the enhancement compares the labeled input state against the
    closed-form labeling of thermal input.
    """
    schedule = make_schedule(mode, r1, recovery, sample_age)
    prep = _prepare(p, cfg, schedule, detection)
    run = _run_labeled_experiments(prep, cfg, schedule, case)
    integrals = sum(w * r.readout.integrals for w, r in zip(run.result.weights, run.records))
    # each line leaks into its partner's window; Re(response)⁻¹ takes the
    # integrals back to the line amplitudes, which are real after a readout
    amplitudes = integrals @ prep.detector.amplitude_solve.T
    for array in (integrals, amplitudes):
        array.flags.writeable = False
    # an inverted preparation (q2 < 0) flips every line; its sign is known
    # from the weight solve, so fold it into the decode
    sign = 1.0 if run.result.q2 >= 0 else -1.0
    decoded = decode_answer(sign * amplitudes)
    return GroverRun(
        **vars(run), case=case, decoded=decoded, peak_integrals=integrals,
        line_amplitudes=amplitudes,
    )


def _record_payload(rec: ExperimentRecord) -> dict:
    return {
        "schedule_time_s": rec.schedule_time,
        "probe_time_s": rec.probe_time,
        "permutation": rec.perm_id.value,
        "probed_diagonal": [float(x) for x in rec.probed_diagonal],
    }


def _labeled_report(run: EffectivePureRun) -> dict:
    """Report block shared by both pipelines: schedule, experiments, labeling."""
    return {
        "schedule": {
            "times_s": list(run.schedule.times),
            "probe_lead_s": run.schedule.probe_lead,
            "fresh_sample": run.schedule.fresh_sample,
        },
        "experiments": [_record_payload(r) for r in run.records],
        "weights": [float(w) for w in run.result.weights],
        "ground_state": run.result.ground,
        "q1": run.result.q1,
        "q2": run.result.q2,
        "equalization_residual": run.result.residual,
        "thermal_q2": run.thermal_result.q2,
        "enhancement": run.enhancement,
    }


def effective_pure_report(run: EffectivePureRun, config_echo: dict) -> dict:
    """JSON-ready description of a preparation run (deterministic layout)."""
    return {
        "run_id": run_id(config_echo),
        "config": config_echo,
        **_labeled_report(run),
        "effective_diagonal": [float(x) for x in run.result.diagonal],
    }


def grover_report(run: GroverRun, config_echo: dict) -> dict:
    """JSON-ready description of one search case (deterministic layout)."""
    return {
        "run_id": run_id(config_echo, run.case.target),
        "config": config_echo,
        "target": run.case.target,
        "decoded": run.decoded,
        **_labeled_report(run),
        "peak_integrals": _per_line(run.peak_integrals),
        "line_amplitudes": _per_line(run.line_amplitudes),
    }


def _per_line(values) -> dict:
    """(channel, partner) values as a report block, H then C."""
    return {ch: {str(p): float(v[p]) for p in (0, 1)} for ch, v in zip("hc", values)}


def run_id(config_echo: dict, *extra: str) -> str:
    """Deterministic run identifier from the exact configuration."""
    blob = json.dumps(config_echo, sort_keys=True) + "|".join(extra)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
