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
directly. The experiments' `readout_map`s are cached as one stack per
ground, a row per computation: none, then each search target. Their
receiver amplitudes on the prepared deviation diagonals are one product
of the whole stack, made once per (trajectory, ground), or once per
preparation for a jittered seed, whose states are its own. An
effective-pure run reads row 0. The search targets read rows 1-4, kept
once per (setting, ground) in a table with the noise-free line integrals
behind them and the amplitude solve; a preparation then computes and
decodes all four search targets once, on its first search case, in
Python floats: its weighted sum of noisy integrals, the amplitude solve
and four decodes, and builds each target's run or keeps its decode
error's text. It builds its effective-pure run once too. A run reads its
labeling, enhancement and schedule from its preparation, and its
`records` and their spectra are built only when read.
`build_spectra` builds a record's spectra anew, and `build_sum_spectra`
those of the weighted sum, one `Detector.spectra` of the weighted
amplitudes and noise rows that reads no record; both keep nothing, for a
caller that holds no spectrum past its use (the CLI's writer). A state
travels as its deviation diagonal throughout: the readout of I/4 is zero,
so the trace part carries nothing.

Prepare once, compute many. What does not depend on the computation is a
`Preparation`. `prepare_batch` prepares seed after seed, each in Python
floats from its drawn normals through the probe noise, the reconstruction
with its gate and the labeling to its arrays, with a status per seed (its
preparation or its error). What all seeds of a setting share is cached.
Per trajectory (eps0_h, eps0_c, t1_xe, spin system, probe times) that is
the unjittered states, their flat float row and their receiver amplitudes
per ground, so a new detection setting samples no state and computes no
amplitude. Per (params apart from the seed, spin system, schedule,
detection settings) it is the detector, those states' noise-free probe
integrals and their search tables per ground, so a new setting pays for
its tip and grid alone.
A pipeline call prepares a batch of one, kept for the next call with
equal SpinoeParams, SpinSystemConfig and DetectionSettings and the same
ExperimentSchedule object, so equal calls on it construct nothing and
return the same run. The match is one tuple comparison, which compares
identical objects by identity alone, and hashes nothing. The schedule is
matched by identity because a run reports its preparation's schedule:
both pipelines call `make_schedule`, a cache typed on its four
arguments, with all four, so a schedule equal in value but not in type
(an int r1 after a float one) is another object, prepares anew and
reports its own types. Shared arrays and runs are read-only; a failed
preparation is not kept, nor one whose labeling leaves the non-ground
populations unequal, so that each pipeline call on it labels again and
warns `UnequalizedLabeling` once.

The seed names every random draw. Its normals, in stream order, are per
probe the sample jitter (two, only for fresh samples and only with
`reproducibility_jitter` > 0) and the probe noise (two per channel), then
the readout noise of every experiment. Readout i is detection i of the
seed, so its spectra draw their noise vectors from the seed's children
2i and 2i + 1 (`Detector.noise_spectra`, their transforms, built once per
preparation on the first spectrum read); a probe's are never drawn.

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
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .labeling import (
    DEFAULT_PERM_ORDER, EffectivePureResult, SingularLabelingSystem, enhancement_factor, label,
    label_row,
)
from .quantum import Unitary, compose
from .readout import DetectionSettings, Detector, ReadoutError, Spectrum, readout_map
from .spinoe import (
    DEFAULT_R1_S, DEFAULT_RECOVERY_S, DEFAULT_SAMPLE_AGE_S, ExperimentSchedule, ScheduleMode,
    SpinoeParams, check_seed, make_schedule, sample_initial_states,
)
from .spins import (
    Channel, PermutationId, PulseSpec, SpinSystemConfig, enhanced_deviations,
    permutation_pulse_sequence, pulse_unitary,
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


# one case per target, in `GROVER_TARGETS` order
_CASES = tuple(map(GroverCase, GROVER_TARGETS))


@dataclass(eq=False)
class ExperimentRecord:
    """One probe + compute run of a pipeline: experiment `index` of
    `preparation`, with the read-only (channel, line) line `amplitudes` at
    its receivers. Its spectra are built on first read."""

    schedule_time: float
    probe_time: float
    probed_diagonal: np.ndarray
    perm_id: PermutationId
    amplitudes: np.ndarray = field(repr=False)
    preparation: Preparation = field(repr=False)
    index: int = field(repr=False)

    def build_spectra(self) -> tuple[Spectrum, Spectrum]:
        """The H and C readout spectra, with this experiment's row of the
        preparation's `noise_spectra`, built anew on each call."""
        prep, noise = self.preparation, self.preparation.noise_spectra
        return prep.detector.spectra(self.amplitudes, None if noise is None else noise[self.index])

    @functools.cached_property
    def spectra(self) -> tuple[Spectrum, Spectrum]:
        """`build_spectra`, kept from the first read."""
        return self.build_spectra()

    @property
    def readout_h(self) -> Spectrum:
        return self.spectra[0]

    @property
    def readout_c(self) -> Spectrum:
        return self.spectra[1]


@dataclass(frozen=True, eq=False, repr=False)
class EffectivePureRun:
    """The effective-pure run on `preparation`: its labeling, enhancement
    and schedule are the preparation's, and its `records` are built on
    first read, from the preparation and the read-only (experiment,
    channel, line) `receiver_amplitudes`. A preparation builds its run
    once (`Preparation.effective_pure_run`)."""

    preparation: Preparation = field(repr=False)
    receiver_amplitudes: np.ndarray = field(repr=False)

    # read-only, its preparation's
    result = property(attrgetter("preparation.result"))
    thermal_result = property(attrgetter("preparation.thermal_result"))
    enhancement = property(attrgetter("preparation.enhancement"))
    schedule = property(attrgetter("preparation.schedule"))

    def __repr__(self) -> str:
        # what it reads from its preparation, then its own fields that show
        names = ("result", "thermal_result", "enhancement", "schedule",
                 *(f.name for f in fields(self) if f.repr))
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    @functools.cached_property
    def records(self) -> list[ExperimentRecord]:
        """One record per experiment, in schedule order."""
        prep, s = self.preparation, self.schedule
        parts = zip(s.times, s.probe_times, prep.probed, DEFAULT_PERM_ORDER,
                    self.receiver_amplitudes)
        return [ExperimentRecord(*part, prep, i) for i, part in enumerate(parts)]

    def build_sum_spectra(self) -> tuple[Spectrum, Spectrum]:
        """The H and C spectra of the weighted sum of the experiments, built
        anew on each call: detection is linear, so they are the spectra of
        the weighted amplitudes plus the weighted rows of the preparation's
        `noise_spectra`."""
        w, prep = self.result.weights, self.preparation
        noise = None if prep.noise_spectra is None else np.tensordot(w, prep.noise_spectra, 1)
        return prep.detector.spectra(np.tensordot(w, self.receiver_amplitudes, 1), noise)


@dataclass(frozen=True, eq=False, repr=False)
class GroverRun(EffectivePureRun):
    """One search case on `preparation`: the labeled run plus its case and
    decoded answer, built by the preparation's search pass
    (`Preparation.searches`) for every target that decodes."""

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
    # a state's index is 2·H + C: the H bit is 2 and the C bit 1
    flips = [pulse_unitary(PulseSpec(channel, 180.0, phase=0.0))
             for channel, bit in zip(Channel, (2, 1)) if ground & bit]
    return compose(*flips) if flips else Unitary(np.eye(4))


@dataclass(frozen=True, eq=False)
class Preparation:
    """What a labeled run does apart from its computation: the `schedule`
    it ran on, per experiment (a read-only row each) the sampled deviation
    diagonals (`sample_initial_states`) and probed diagonals, its readout
    noise integrals as floats (`readout_noise`, flat as experiment * 4 +
    channel * 2 + line, None with noise off), the labeling with its
    enhancement, `amplitude_stacks`, the `_receiver_amplitudes` of its
    deviations per ground, and `search_tables`, their `_search_table` per
    ground, each built on first use: the trajectory's (`_trajectory`) and
    the setting's (`_seed_free`), unless the seed's states are jittered.
    Readout i is detection i of `seed`. It holds its runs, each built once,
    on first read: `effective_pure_run` and the search cases of
    `searches`."""

    detector: Detector
    seed: int
    schedule: ExperimentSchedule
    deviations: np.ndarray = field(repr=False)
    probed: np.ndarray = field(repr=False)
    result: EffectivePureResult
    thermal_result: EffectivePureResult
    enhancement: float
    readout_noise: tuple | None = field(repr=False)
    amplitude_stacks: dict = field(repr=False)
    search_tables: dict = field(repr=False)

    @property
    def amplitude_stack(self) -> np.ndarray:
        """The read-only (computation, experiment, channel, line) receiver
        amplitudes of its deviations on its ground, from `amplitude_stacks`:
        row 0 for an effective-pure run, then the search targets."""
        ground, stacks = self.result.ground, self.amplitude_stacks
        if ground not in stacks:
            stacks[ground] = _receiver_amplitudes(self.deviations, ground)
        return stacks[ground]

    @functools.cached_property
    def noise_integrals(self) -> np.ndarray | None:
        """The read-only (experiment, channel, line) array of `readout_noise`
        (None with noise off), built on first read."""
        if self.readout_noise is None:
            return None
        integrals = np.array(self.readout_noise).reshape(-1, 2, 2)
        integrals.flags.writeable = False
        return integrals

    @functools.cached_property
    def noise_spectra(self) -> np.ndarray | None:
        """The read-only (experiment, channel, sample) `Detector.noise_spectra`
        of the readouts (None with noise off), built on the first spectrum
        read and shared by every run on this preparation."""
        if self.noise_integrals is None:
            return None
        return self.detector.noise_spectra(self.seed, self.noise_integrals)

    @functools.cached_property
    def effective_pure_run(self) -> EffectivePureRun:
        """Its effective-pure run, on row 0 of its `amplitude_stack`."""
        return EffectivePureRun(self, self.amplitude_stack[0])

    @functools.cached_property
    def searches(self) -> dict[str, GroverRun | str]:
        """The search case of every target in `GROVER_TARGETS`, by target,
        built in one pass on the first search case: the target's GroverRun,
        or the text of the DecodeError its decode (`_decide`) raises. A
        run's receiver amplitudes are its row of rows 1-4 of the
        `amplitude_stack`, and its (channel, partner) weighted line
        integrals and line amplitudes are rows of one read-only array.

        The table holds what every seed on these deviations shares; this
        pass adds the seed's readout noise nᵢ and weights wᵢ in Python
        floats: per line Σᵢ wᵢ (xᵢ + nᵢ) over the experiments in their order,
        for the table's noise-free integrals xᵢ, then the line amplitudes,
        `amplitude_solve` times those sums. Floats overflow to inf with no
        warning, and the decode refuses such lines as not finite."""
        ground, tables = self.result.ground, self.search_tables
        amplitudes = self.amplitude_stack[1:]
        if ground not in tables:
            tables[ground] = _search_table(self.detector, amplitudes)
        clean, ((a00, a01), (a10, a11)) = tables[ground]
        w0, w1, w2 = self.result.weights.tolist()
        noise = _NO_NOISE if self.readout_noise is None else self.readout_noise
        n0, n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11 = noise
        # an inverted preparation (q2 < 0) flips every line; its sign is
        # known from the weight solve, so it is folded into the decode
        sign = 1.0 if self.result.q2 >= 0 else -1.0
        integrals, line_amplitudes, decisions = [], [], []
        for x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11 in clean:
            h0 = w0 * (x0 + n0) + w1 * (x4 + n4) + w2 * (x8 + n8)
            h1 = w0 * (x1 + n1) + w1 * (x5 + n5) + w2 * (x9 + n9)
            c0 = w0 * (x2 + n2) + w1 * (x6 + n6) + w2 * (x10 + n10)
            c1 = w0 * (x3 + n3) + w1 * (x7 + n7) + w2 * (x11 + n11)
            # each line leaks into its partner's window; Re(response)⁻¹
            # takes the integrals back to the line amplitudes
            u0, u1 = a00 * h0 + a01 * h1, a10 * h0 + a11 * h1
            v0, v1 = a00 * c0 + a01 * c1, a10 * c0 + a11 * c1
            integrals += (h0, h1, c0, c1)
            line_amplitudes += (u0, u1, v0, v1)
            decisions.append(_decide(sign * u0, sign * u1, sign * v0, sign * v1))
        rows = np.array(integrals + line_amplitudes).reshape(2, len(GROVER_TARGETS), 2, 2)
        rows.flags.writeable = False
        return {
            case.target: error if answer is None else GroverRun(
                self, amplitudes[k], case, answer, rows[0, k], rows[1, k])
            for k, (case, (answer, error)) in enumerate(zip(_CASES, decisions))
        }


# the readout noise of a noise-free preparation: -0.0 adds nothing to any
# float, -0.0 included
_NO_NOISE = (-0.0,) * 12


def prepare_batch(
    p: SpinoeParams, cfg: SpinSystemConfig, schedule: ExperimentSchedule,
    detection: DetectionSettings, seeds,
) -> list[Preparation | ReadoutError | SingularLabelingSystem]:
    """Per seed the preparation of `p` with it, or the ReadoutError or
    SingularLabelingSystem it raises; errors all seeds share are raised.
    Each seed is prepared on its own, in Python floats from its normals to
    its labeling; its `probed` array is built once, at the end, and its
    readout noise stays in floats."""
    seeds = [check_seed(seed) for seed in seeds]
    detector, states, stacks, clean, tables = _seed_free(
        p.eps0_h, p.eps0_c, p.t1_xe, cfg, schedule, detection
    )
    n_exp = len(states)
    jitter = 2 if schedule.fresh_sample and p.reproducibility_jitter > 0 else 0
    noise = 4 if detection.noise_amp > 0 else 0
    per_probe = jitter + noise
    probe_draws = n_exp * per_probe
    thermal = _thermal_reference(cfg)
    outcomes = []
    for seed in seeds:
        # a seed's draws in stream order: per probe its jitter and its noise,
        # then the readout noise of every experiment
        z = []
        if probe_draws:
            z = np.random.default_rng(seed).standard_normal(probe_draws + n_exp * noise).tolist()
        deviations, y, amplitude_stacks, search_tables = states, clean, stacks, tables
        if jitter:
            jitters = [z[i:i + jitter] for i in range(0, probe_draws, per_probe)]
            deviations = sample_initial_states(
                p, cfg, schedule.probe_times, p.reproducibility_jitter * np.array(jitters)
            )
            y = detector.probe_lines(deviations.ravel().tolist())
            amplitude_stacks, search_tables = {}, {}  # its own states: its own of both
        if noise:
            # the probes' noise, then the readouts', drawn in one pass; with
            # no jitter the draws are just those, in that order
            if jitter:
                z = [x for i in range(jitter, probe_draws, per_probe)
                     for x in z[i:i + noise]] + z[probe_draws:]
            lines = detector.line_noise(z)
            y = [a + b for a, b in zip(y, lines)]
        diagonals = []
        try:
            for i in range(n_exp):
                diagonals += detector.reconstruct(y[4 * i:4 * i + 4])
        except ReadoutError as exc:
            message = f"experiment {i + 1} (probe at {schedule.probe_times[i]:.1f} s): {exc}"
            outcomes.append(ReadoutError(message))
            continue
        result = label_row(diagonals)
        if isinstance(result, SingularLabelingSystem):
            outcomes.append(result)
            continue
        probed = np.array(diagonals).reshape(n_exp, 4)
        probed.flags.writeable = False
        outcomes.append(Preparation(
            detector, seed, schedule, deviations, probed, result, thermal,
            enhancement_factor(result, thermal), tuple(lines[4 * n_exp:]) if noise else None,
            amplitude_stacks, search_tables,
        ))
    return outcomes


# bounded: the preparation settings of the last few batches
@functools.lru_cache(maxsize=4)
def _seed_free(
    eps0_h: float, eps0_c: float, t1_xe: float, cfg: SpinSystemConfig,
    schedule: ExperimentSchedule, detection: DetectionSettings,
) -> tuple[Detector, np.ndarray, dict, tuple, dict]:
    """What every seed of a preparation setting shares: the detector, the
    trajectory's read-only unjittered states and its dict of their
    amplitude stacks (`_trajectory`), their noise-free probe integrals from
    its float row, flat as floats (experiment * 4 + channel * 2 + line),
    and the dict of their `_search_table` per ground that
    `Preparation.searches` fills (at most the 4 grounds)."""
    detector = Detector(cfg, detection)
    states, row, stacks = _trajectory(eps0_h, eps0_c, t1_xe, cfg, schedule.probe_times)
    return detector, states, stacks, tuple(detector.probe_lines(row)), {}


# bounded: the trajectories and probe times of the last few batches; a new
# detection setting alone (a scan over tips or grids) hits
@functools.lru_cache(maxsize=4)
def _trajectory(
    eps0_h: float, eps0_c: float, t1_xe: float, cfg: SpinSystemConfig, probe_times: tuple,
) -> tuple[np.ndarray, list, dict]:
    """What every setting on one trajectory shares: the read-only
    unjittered states of the probes at `probe_times`, the same flat as
    floats (experiment * 4 + population), and the dict of their
    `_receiver_amplitudes` per ground that `Preparation.amplitude_stack`
    fills (at most the 4 grounds)."""
    p = SpinoeParams(eps0_h, eps0_c, t1_xe)
    states = sample_initial_states(p, cfg, probe_times, np.zeros(2))
    return states, states.ravel().tolist(), {}


# the preparation that `_prepare` keeps, as one ((params, spin system,
# detection settings), schedule, preparation) entry, or none
_kept: list[tuple] = []


def _prepare(
    p: SpinoeParams, cfg: SpinSystemConfig, schedule: ExperimentSchedule,
    detection: DetectionSettings,
) -> Preparation:
    """`prepare_batch` of the params' seed alone, raising its error; kept
    for the next call with equal params, spin system and detection settings
    and the same schedule object (see the module docstring). A preparation
    whose labeling is not equalized is not kept, so that every call on it
    labels again and warns `UnequalizedLabeling` once."""
    key = (p, cfg, detection)
    for kept_key, kept_schedule, prep in _kept:
        # a tuple compares its items by identity first: the same objects
        # cost no __eq__ call
        if kept_schedule is schedule and kept_key == key:
            return prep
    (prep,) = prepare_batch(p, cfg, schedule, detection, (p.seed,))
    if isinstance(prep, Exception):
        raise prep
    _kept[:] = [(key, schedule, prep)] if prep.result.equalized else []
    return prep


# bounded by the key space: 4 grounds
@functools.lru_cache(maxsize=4)
def _readout_maps(ground: int) -> np.ndarray:
    """The read-only (computation, experiment, channel, line, population)
    stack of the `readout_map`s of DEFAULT_PERM_ORDER: in row 0 the
    permutations alone (an effective-pure run), then in rows 1-4 each
    followed by the relabeling of `ground` and the circuit of a target, in
    `GROVER_TARGETS` order."""
    steps = [permutation_pulse_sequence(perm, ground) for perm in DEFAULT_PERM_ORDER]
    computations = [compose(relabel_unitary(ground), grover_circuit(case)) for case in _CASES]
    rows = [steps, *([compose(step, c) for step in steps] for c in computations)]
    maps = np.array([[readout_map(step) for step in row] for row in rows])
    maps.flags.writeable = False
    return maps


def _receiver_amplitudes(deviations: np.ndarray, ground: int) -> np.ndarray:
    """The read-only (computation, experiment, channel, line) amplitudes at
    the receivers after each permutation of `ground` and each computation
    of `_readout_maps`, on the (experiment, population) `deviations`: one
    product of the whole stack."""
    amplitudes = (_readout_maps(ground) @ deviations[:, None, :, None])[..., 0]
    amplitudes.flags.writeable = False
    return amplitudes


def _search_table(detector: Detector, amplitudes: np.ndarray) -> tuple:
    """What the search pass (`Preparation.searches`) of every seed of one
    setting on one ground shares: the noise-free line integrals
    (`Detector.line_integrals`) of the (target, experiment, channel, line)
    receiver `amplitudes` of the search targets (rows 1-4 of an amplitude
    stack) as floats, per target 12 flat as experiment * 4 + channel * 2 +
    line, and the rows of the detector's `amplitude_solve` as floats. This
    is the only numpy arithmetic of a search."""
    # a grid near the float range may overflow here; the decode then
    # refuses the lines as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        clean = detector.line_integrals(amplitudes)
    return (tuple(map(tuple, clean.reshape(len(GROVER_TARGETS), -1).tolist())),
            tuple(map(tuple, detector.amplitude_solve.tolist())))


@functools.lru_cache(maxsize=1)
def _thermal_reference(cfg: SpinSystemConfig) -> EffectivePureResult:
    """Labeled thermal-equilibrium input, exact and noise-free: classic
    temporal averaging, the same for every schedule, seed and detection."""
    return label([enhanced_deviations(cfg, 1.0, 1.0)] * 3)


def run_effective_pure_pipeline(
    p: SpinoeParams, cfg: SpinSystemConfig, mode: ScheduleMode, r1: float = DEFAULT_R1_S,
    recovery: float = DEFAULT_RECOVERY_S, detection: DetectionSettings = DetectionSettings(),
) -> EffectivePureRun:
    """Prepare an effective pure state and score it against thermal input.

    Runs the three permutation experiments on the schedule implied by
    `mode`, solves the weights from the probed diagonals, assembles the
    effective pure state and reports its enhancement over the same
    labeling applied to thermal-equilibrium input. The run is the
    preparation's own (`Preparation.effective_pure_run`), so equal calls on
    a kept preparation return the same run.
    """
    schedule = make_schedule(mode, r1, recovery, 0.0)
    return _prepare(p, cfg, schedule, detection).effective_pure_run


def _decide(h0: float, h1: float, c0: float, c1: float) -> tuple[str | None, str | None]:
    """The decode rule on the H lines (h0, h1) and C lines (c0, c1), Python
    floats: the answer and None, or None and the DecodeError text.

    Each channel shows one dominant line for a pure-like state: its sign
    gives the observed spin's bit (positive means |0>) and its position
    gives the partner's bit. The two channels must agree; anything below
    the dominance threshold, inconsistent or not finite decodes nothing.
    """
    # a NaN passes the dominance test (every comparison is false), and an
    # inf beats any partner
    isfinite = math.isfinite
    if not (isfinite(h0) and isfinite(h1) and isfinite(c0) and isfinite(c1)):
        return None, "readout lines are not finite"
    if not (h0 or h1 or c0 or c1):
        return None, "no readout signal"
    ah0, ah1, ac0, ac1 = abs(h0), abs(h1), abs(c0), abs(c1)
    if ((ah0 < DECODE_DOMINANCE * ah1 and ah1 < DECODE_DOMINANCE * ah0)
            or (ac0 < DECODE_DOMINANCE * ac1 and ac1 < DECODE_DOMINANCE * ac0)):
        return None, "doublet lines have comparable magnitude"
    c_from_h, h_line = (0, h0) if ah0 > ah1 else (1, h1)
    h_from_c, c_line = (0, c0) if ac0 > ac1 else (1, c1)
    h_bit = 0 if h_line > 0 else 1
    c_bit = 0 if c_line > 0 else 1
    if h_bit != h_from_c or c_bit != c_from_h:
        return None, f"channels disagree: H says ({h_bit},{c_from_h}), C says ({h_from_c},{c_bit})"
    return f"{h_bit}{c_bit}", None


def run_grover_pipeline(
    p: SpinoeParams, cfg: SpinSystemConfig, case: GroverCase,
    mode: ScheduleMode = ScheduleMode.SINGLE_SAMPLE, r1: float = DEFAULT_R1_S,
    recovery: float = DEFAULT_RECOVERY_S, sample_age: float = DEFAULT_SAMPLE_AGE_S,
    detection: DetectionSettings = DetectionSettings(),
) -> GroverRun:
    """One search case end to end, with weighted readout.

    The default schedule starts on an aged sample (sample_age after
    mixing): search runs late in a sample's life show the moderate
    enhancements characteristic of this experiment series. The run is the
    one the preparation's search pass built for `case.target`
    (`Preparation.searches`), its answer decoded once from the line
    amplitudes behind the weighted readout integrals, so equal calls on a
    kept preparation return the same run; a target that decodes nothing
    raises a new DecodeError with the text the pass kept. The enhancement
    compares the labeled input state against the closed-form labeling of
    thermal input.
    """
    schedule = make_schedule(mode, r1, recovery, sample_age)
    run = _prepare(p, cfg, schedule, detection).searches[case.target]
    if isinstance(run, str):
        raise DecodeError(run)
    return run


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
