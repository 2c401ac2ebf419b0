"""Simulated NMR detection: probing pulses, line integrals, spectra and
reconstruction of population differences from peak integrals.

Detection model. In the Zeeman-free rotating frame each nucleus's single-
quantum coherences precess only under the J-coupling, giving a doublet at
±J/2. The detected signal per channel is

    s(t) = A_plus * exp(+i 2π (J/2) t) + A_minus * exp(-i 2π (J/2) t),

damped by exp(-t/T2), where for the H channel A_plus = rho[2,0] (coupled
partner C in |0>) and A_minus = rho[3,1] (partner in |1>), and for the C
channel A_plus = rho[1,0], A_minus = rho[3,2]. The +J/2 line therefore
always belongs to the coupled partner in |0>: that is the fixed frequency
convention of this package. Receiver phase is exact, so a positive real
coherence produces a positive absorption peak, and the sign rule "positive
peak means the observed spin's |0>-population exceeds its |1>-population"
holds by construction.

Probing. A simultaneous small-tip pulse (phase y) on both spins converts
the deviation populations d into line amplitudes

    A = sin(tip)/2 * (cos²(tip/2) * Δ_same + sin²(tip/2) * Δ_other)

with Δ the population differences of the observed spin for each partner
state. These four relations R are linear in d and rank 3, and they are the
probe map itself, so a new tip builds no pulse. R maps the orthonormal
deviation patterns e = (1,1,-1,-1)/2, f = (1,-1,1,-1)/2 and
g = (1,-1,-1,1)/2 to p·(1,1,0,0), p·(0,0,1,1) and q·(1,-1,1,-1), with
p = sin(tip)/2 and q = sin(2 tip)/4, so one probe gives the deviation
diagonal as S y = R⁺y/K for its four integrals y and receiver constant K,
in closed form, and their inconsistency as |v·y| for the one left-null
vector v = (1,-1,-1,1)/2 of the relations, the same at every tip.

Processing fixes: the first FID point is halved before the transform (the
standard baseline correction for one-sided decays; without it window
integrals pick up a large flat offset).

Detection as a linear map. FID synthesis, the transform and the window
sums are all linear in the line amplitudes (A_plus, A_minus) and in the
receiver noise, so detection needs no FID. A line integral is Re(g · x)
for the sampled FID x and a window vector g that carries the spectral
window, the first-point halving and the bin width; a spectrum is the two
unit line spectra (the transform of a unit ±J/2 line under the T2 decay)
weighted by the amplitudes. A `Detector` reads the cached maps of its
grid, per (spin system, n_points, dwell), and of its probe setting, per
(spin system, n_points, dwell, tip). It takes the four populations d of
a diagonal state (only `probe` takes a density matrix, and rejects
coherences) and builds no state: the line amplitudes are the probe map,
or the `readout_map` of a computation, applied to d, both in closed
form: the probe map is R, and after a readout's unitary U the coherence
(r, c) of U diag(d) U† is Σⱼ U[r,j] conj(U[c,j]) dⱼ.

Receiver noise. The pipeline reads a noise vector n only through its two
line integrals Re(g · n), Gaussian with covariance σ² Re(G Gᴴ) for white
noise of amplitude σ, so it draws just those, 2 normals per channel. One
rule names every draw: detection i of a seed draws its full vectors from
the child seeds `SeedSequence(seed, spawn_key=(2i + c,))` of its channels
c (H = 0, C = 1). A `Noise` holds the seed, the index and the drawn
integrals; its vectors are built only when a spectrum is read,
conditioned on those integrals, so an exported spectrum integrates to
the integrals the pipeline used. A lone detection (`Detector.draw`) is
index 0 with its integrals from the first four normals of the seed. A
`Detection` holds both channels.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .quantum import DensityMatrix, Unitary, populations
from .spinoe import check_seed
from .spins import (
    PulseSpec, PulseTarget, SpinSystemConfig, check_finite, enhanced_populations, pulse_unitary,
)

PROBE_TIP_MAX = 25.0
MIN_FID_SAMPLES = 256
# 2**20 samples already take ~1 GiB at peak for one search with noise on
MAX_FID_SAMPLES = 2**20
RECONSTRUCTION_RESIDUAL_FRAC = 0.05
# probe integrals up to this many machine epsilons of the largest
# calibrated response are round-off; a state with no deviation probes at
# 0.06-0.13 of them for tips of 0.01-25°
ROUNDOFF_MULTIPLE = 16.0

_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


class Channel(enum.Enum):
    H = "H"
    C = "C"


# channel -> ((row, col) of the +J/2 and -J/2 coherences in |HC> indexing)
_COHERENCE_INDEX = {Channel.H: ((2, 0), (3, 1)), Channel.C: ((1, 0), (3, 2))}


class ReadoutError(ValueError):
    pass


def check_probe_tip(tip_angle_deg: float) -> None:
    """The probe tip rule: a tip in (0, 25] degrees. Tips above 25° void
    the linear reconstruction contract, and a tip of 0 probes nothing."""
    if not 0 < tip_angle_deg <= PROBE_TIP_MAX:
        raise ValueError(f"probe tip must be in (0, {PROBE_TIP_MAX}] degrees")


@dataclass(frozen=True)
class DetectionSettings:
    """Detection constants shared by probing, calibration and readout."""

    n_points: int = 4096
    dwell: float = 1e-3
    probe_tip_deg: float = 15.0
    noise_amp: float = 0.0

    def __post_init__(self):
        # bool is an Integral, but a JSON true is no sample count
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, numbers.Integral):
            raise ValueError("the number of FID samples must be an integer")
        if self.dwell <= 0:
            raise ValueError("dwell time must be positive")
        if self.n_points < MIN_FID_SAMPLES:
            raise ValueError(f"FID needs at least {MIN_FID_SAMPLES} samples")
        if self.n_points > MAX_FID_SAMPLES:
            raise ValueError(f"FID takes at most {MAX_FID_SAMPLES} samples")
        check_probe_tip(self.probe_tip_deg)
        if self.noise_amp < 0:
            raise ValueError("noise_amp must be non-negative")
        check_finite(**{"dwell time": self.dwell}, noise_amp=self.noise_amp)


@dataclass(frozen=True)
class Spectrum:
    """Frequency-domain signal; freqs in Hz relative to the carrier."""

    channel: Channel
    freqs: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = np.array(self.freqs, dtype=float)
        v = np.array(self.values, dtype=complex)
        if f.shape != v.shape or f.ndim != 1:
            raise ValueError("freqs and values must be 1-d and the same length")
        steps = np.diff(f)
        if f.size > 1 and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("frequency axis must be uniformly spaced")
        f.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "values", v)

    @property
    def df(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass(frozen=True, eq=False)
class PeakTable:
    """The two doublet line integrals of one channel as a read-only pair:
    partner 0 (the +J/2 line) first, then partner 1 (the -J/2 line)."""

    integrals: np.ndarray

    def __post_init__(self):
        y = np.array(self.integrals, dtype=float)
        if y.shape != (2,):
            raise ValueError("a peak table holds exactly two line integrals")
        y.flags.writeable = False
        object.__setattr__(self, "integrals", y)

    def integral(self, partner_state: int) -> float:
        # a bare index would read partner 1 for -1
        if partner_state not in (0, 1):
            raise KeyError(partner_state)
        return float(self.integrals[partner_state])


def _line_windows(freqs: np.ndarray, cfg: SpinSystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the windows of width J/2 centered on +J/2 and -J/2.

    `freqs` is an ascending frequency axis; windows that leave it or cover
    fewer than four bins are rejected.
    """
    j = cfg.j_coupling
    masks = []
    for center in (j / 2.0, -j / 2.0):
        lo, hi = center - j / 4.0, center + j / 4.0
        if lo < freqs[0] or hi > freqs[-1]:
            raise ReadoutError(
                "peak window exceeds the spectral width; decrease the dwell time"
            )
        mask = (freqs >= lo) & (freqs <= hi)
        if mask.sum() < 4:
            raise ReadoutError("spectral resolution too coarse for peak windows")
        masks.append(mask)
    return masks[0], masks[1]


def _frequency_axis(n_samples: int, dt: float) -> np.ndarray:
    return np.fft.fftshift(np.fft.fftfreq(n_samples, dt))


def integrate_peaks(spec: Spectrum, cfg: SpinSystemConfig) -> PeakTable:
    """Integrate the real part over windows of width J/2 centered on ±J/2."""
    integrals = [
        np.sum(spec.values[mask].real) * spec.df for mask in _line_windows(spec.freqs, cfg)
    ]
    return PeakTable(integrals)


def _draw_noise(n_samples: int, noise_amp: float, seed: np.random.SeedSequence) -> np.ndarray:
    """Complex white receiver noise for one FID, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, noise_amp, n_samples) + 1j * rng.normal(0.0, noise_amp, n_samples)


def readout_map(step: Unitary) -> np.ndarray:
    """A computation `step` followed by the readout, as the read-only
    (channel, line, population) array of a linear map.

    The line amplitudes at a receiver are linear in the state, and a
    diagonal state is fixed by its populations d, so the (A_plus, A_minus)
    of a channel after `step` and the 90° y-pulse on the observed spin are
    `map[channel] @ d`, exact up to rounding (`_amplitude_map`). A
    single-spin pulse mixes no partners, so 90° gives a clean one-line
    signature for pure-like states.
    """
    pulses = [pulse_unitary(PulseSpec(PulseTarget(ch.value), 90.0, phase=90.0)) for ch in Channel]
    return _amplitude_map([pulse.matrix @ step.matrix for pulse in pulses])


def _amplitude_map(unitaries) -> np.ndarray:
    """The read-only (channel, line, population) map from the populations of
    a diagonal state to the line amplitudes after the unitary U of each
    receiver, H then C: each row is U[r] * conj(U[c]) for its coherence
    (r, c). Only the readout maps are built this way (the probe map is the
    real relations R), and they stay complex, as round-off imaginary parts
    reach the integrals through the imaginary part of the line response."""
    amplitudes = np.array([
        [u[r] * u[c].conj() for r, c in _COHERENCE_INDEX[channel]]
        for channel, u in zip(Channel, unitaries)
    ])
    amplitudes.flags.writeable = False
    return amplitudes


def _transform(signals: np.ndarray) -> np.ndarray:
    """Spectrum values of signals sampled along the last axis, with the
    first point halved, on the ascending frequency axis."""
    x = signals.copy()
    x[..., 0] *= 0.5
    return np.fft.fftshift(np.fft.fft(x), axes=-1)


def _unit_lines(cfg: SpinSystemConfig, n_points: int, dwell: float) -> np.ndarray:
    """Unit +J/2 and -J/2 lines under the T2 decay, sampled."""
    t = np.arange(n_points) * dwell
    f0 = cfg.j_coupling / 2.0
    plus, minus = np.exp(2j * np.pi * f0 * t), np.exp(-2j * np.pi * f0 * t)
    return np.array([plus, minus]) * np.exp(-t / cfg.t2)


@functools.lru_cache(maxsize=8)
def _grid_map(cfg: SpinSystemConfig, n_points: int, dwell: float) -> tuple[np.ndarray, ...]:
    """Window vectors, line response, noise factor and amplitude solve of
    one grid, read-only and kept for the last few grids (see `Detector`)."""
    freqs = _frequency_axis(n_points, dwell)
    masks = np.array(_line_windows(freqs, cfg), dtype=float)
    # a window sum over the shifted spectrum is a dot product with the
    # transform of the unshifted mask; the first FID point is halved
    windows = (freqs[1] - freqs[0]) * np.fft.fft(np.fft.ifftshift(masks, axes=1), axis=1)
    windows[:, 0] *= 0.5
    response = windows @ _unit_lines(cfg, n_points, dwell).T
    noise_factor = np.linalg.cholesky((windows @ windows.conj().T).real)
    try:
        amplitude_solve = np.linalg.inv(response.real)
    except np.linalg.LinAlgError:  # e.g. a decay within one dwell: one flat line
        raise ReadoutError(
            "peak windows cannot separate the doublet lines; increase t2 or shorten the dwell time"
        ) from None
    # a map is shared by every detector on its grid
    for array in (windows, response, noise_factor, amplitude_solve):
        array.flags.writeable = False
    return windows, response, noise_factor, amplitude_solve


# bounded: spectra are read for the grids a caller exports, a few at most
@functools.lru_cache(maxsize=4)
def _spectra_map(cfg: SpinSystemConfig, n_points: int, dwell: float) -> tuple[np.ndarray, ...]:
    """The frequency axis and the two unit line spectra (the spectra of unit
    +J/2 and -J/2 amplitudes) of one grid, read-only. Built on the first
    spectrum read on the grid, apart from `_grid_map`, so detection that
    reads only line integrals never transforms."""
    freqs = _frequency_axis(n_points, dwell)
    line_spectra = _transform(_unit_lines(cfg, n_points, dwell))
    for array in (freqs, line_spectra):
        array.flags.writeable = False
    return freqs, line_spectra


# bounded: a scan over probe tips evicts its own stale settings
@functools.lru_cache(maxsize=16)
def _probe_setting(
    cfg: SpinSystemConfig, n_points: int, dwell: float, tip_angle_deg: float
) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray, float]]:
    """The probe map, the receiver constant K of `calibrate` and the
    reconstruction `_probe_solve` of one probe setting, built once in
    closed form. The probe map is the (channel, line, population) view
    of the real relations `_probe_response_matrix(tip)`, which are what the
    pulse's `_amplitude_map` gives up to rounding. A thermal reference with
    no signal, or one whose K leaves the float range, raises."""
    relations = _probe_response_matrix(tip_angle_deg)
    relations.flags.writeable = False
    probe_map = relations.reshape(2, 2, 4)
    ref = enhanced_populations(cfg, 1.0, 1.0)
    y = ((probe_map @ ref) @ _grid_map(cfg, n_points, dwell)[1].T).real
    m = relations @ (ref - 0.25)
    # a reference near the float range (polarization_unit 1e153 at the
    # default gamma_ratio) overflows these products, and K is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        denom, fit = float(m @ m), float(y.ravel() @ m)
    if denom == 0.0:
        raise ReadoutError("thermal reference produced no signal")
    k = fit / denom
    if not math.isfinite(k):
        raise ReadoutError("receiver constant overflows; lower polarization_unit or gamma_ratio")
    return probe_map, k, _probe_solve(relations, k)


@dataclass(frozen=True)
class Detector:
    """Line integrals and spectra of one acquisition setting as a
    precomputed linear map.

    `windows` holds g_+ and g_- (partner 0 and partner 1 lines) such that a
    line integral of the FID x equals Re(g · x); `response` holds the
    complex line integrals of unit +J/2 and -J/2 amplitudes, so noise-free
    integrals are Re(response @ (A_plus, A_minus)), and `amplitude_solve`
    is Re(response)⁻¹; `noise_factor` is the lower Cholesky factor L of
    C = Re(G Gᴴ), so the line integrals of white noise of amplitude σ are
    σ L z for standard normal z. These come from the cache of the grid
    (`_grid_map`); `probe_map`, `receiver_constant` and `probe_solve` from
    that of the probe setting (`_probe_setting`), so a setting whose
    thermal reference has no signal builds no detector. The noise level
    comes from `settings`.
    """

    cfg: SpinSystemConfig
    settings: DetectionSettings
    # the maps follow from (cfg, settings), which alone compare and hash
    windows: np.ndarray = field(init=False, repr=False, compare=False)
    response: np.ndarray = field(init=False, repr=False, compare=False)
    noise_factor: np.ndarray = field(init=False, repr=False, compare=False)
    amplitude_solve: np.ndarray = field(init=False, repr=False, compare=False)
    probe_map: np.ndarray = field(init=False, repr=False, compare=False)
    receiver_constant: float = field(init=False, repr=False, compare=False)
    probe_solve: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.settings
        maps = (
            *_grid_map(self.cfg, s.n_points, s.dwell),
            *_probe_setting(self.cfg, s.n_points, s.dwell, s.probe_tip_deg),
        )
        names = ("windows", "response", "noise_factor", "amplitude_solve", "probe_map",
                 "receiver_constant", "probe_solve")
        for name, value in zip(names, maps, strict=True):
            object.__setattr__(self, name, value)

    def noise_integrals(self, normals: np.ndarray) -> np.ndarray:
        """noise_amp · z Lᵀ for standard normals z (..., channel, 2), H first: the
        read-only (..., channel, line) integrals of white noise, their exact law."""
        integrals = self.settings.noise_amp * normals @ self.noise_factor.T
        integrals.flags.writeable = False
        return integrals

    def line_integrals(self, amplitudes: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """Re(A Rᵀ) of (..., channel, line) amplitudes A, plus noise integrals."""
        y = (amplitudes @ self.response.T).real
        return y if noise is None else y + noise

    def draw(self, seed: int) -> Noise | None:
        """Receiver noise of a lone detection at the settings' level (None
        with noise off): the `Noise` of index 0 of `seed`, its integrals
        from the first four normals of `default_rng(seed)`."""
        check_seed(seed)
        if self.settings.noise_amp <= 0:
            return None
        normals = np.random.default_rng(seed).standard_normal((2, 2))
        return Noise(self, seed, 0, self.noise_integrals(normals))

    def probe(self, d, noise: Noise | None) -> Detection:
        """The probing experiment on the diagonal state of populations d:
        simultaneous small-tip y-pulses at the settings' tip, against noise
        from `draw`. The line amplitudes are `probe_map` applied to d."""
        if np.shape(d) != (4,):
            raise ValueError("the probe takes the four populations of a two-spin state")
        return Detection(self, self.probe_map @ d, noise)

    def probe_integrals(self, d) -> np.ndarray:
        """The noise-free (..., channel, partner) probe integrals of populations d."""
        return self.line_integrals((self.probe_map @ d[..., None, :, None])[..., 0], None)

    def reconstruct(self, y) -> tuple[np.ndarray, dict]:
        """`_reconstruct` of the (..., 4) probe integrals y at this setting."""
        return _reconstruct(y, self.probe_solve)


@dataclass(frozen=True, eq=False)
class Noise:
    """Receiver noise of detection `index` of `seed`: the read-only
    (channel, line) noise integrals drawn for it, H then C. The detections
    against one `Noise` share its vectors."""

    detector: Detector = field(repr=False)
    seed: int
    index: int
    integrals: np.ndarray = field(repr=False)

    @functools.cached_property
    def seeds(self) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
        """The child seeds of the H and C channels, 2·index and 2·index + 1."""
        first = 2 * self.index
        return tuple(np.random.SeedSequence(self.seed, spawn_key=(k,)) for k in (first, first + 1))

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The (channel, sample) receiver noise vectors, read-only.

        Per channel, white noise m drawn from its child seed, conditioned on
        the drawn line integrals y: n = m - Σₖ conj(gₖ) [C⁻¹ (Re(G m) - y)]ₖ.
        Its law is still that of white noise, and Re(G n) = y."""
        det, settings = self.detector, self.detector.settings
        cov = det.noise_factor @ det.noise_factor.T
        vectors = []
        for seed, y in zip(self.seeds, self.integrals):
            m = _draw_noise(settings.n_points, settings.noise_amp, seed)
            excess = np.linalg.solve(cov, (det.windows @ m).real - y)
            vectors.append(m - excess @ det.windows.conj())
        vectors = np.array(vectors)
        vectors.flags.writeable = False
        return vectors

    @functools.cached_property
    def transforms(self) -> np.ndarray:
        """What the noise vectors add to the two spectra, read-only: their
        transforms, first point halved as for the lines of the grid map."""
        values = _transform(self.vectors)
        values.flags.writeable = False
        return values


@dataclass(frozen=True, eq=False)
class Detection:
    """One detection of both channels: the read-only (channel, line)
    amplitudes at the receivers, H then C, and the noise drawn for it
    (`Detector.draw`; None with noise off). Line integrals and spectra come
    from the detector's map, and are built only when asked for."""

    detector: Detector = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)
    noise: Noise | None = field(repr=False)

    def __post_init__(self):
        self.amplitudes.flags.writeable = False

    @functools.cached_property
    def integrals(self) -> np.ndarray:
        """The read-only (channel, partner) line integrals."""
        y = self.detector.line_integrals(
            self.amplitudes, None if self.noise is None else self.noise.integrals
        )
        y.flags.writeable = False
        return y

    @functools.cached_property
    def spectra(self) -> tuple[Spectrum, Spectrum]:
        """The H and C spectra: the unit line spectra weighted by the
        amplitudes, plus the transforms of the noise vectors when noise is
        on."""
        settings = self.detector.settings
        freqs, line_spectra = _spectra_map(self.detector.cfg, settings.n_points, settings.dwell)
        values = self.amplitudes @ line_spectra
        if self.noise is not None:
            values += self.noise.transforms
        h, c = (Spectrum(channel, freqs, v) for channel, v in zip(Channel, values))
        return h, c


def _probe_response_matrix(tip_angle_deg: float) -> np.ndarray:
    """Exact linear map from deviation diagonal to the four line amplitudes.

    Rows: H partner 0, H partner 1, C partner 0, C partner 1.
    """
    theta = np.radians(tip_angle_deg)
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    sc = s * c
    a, b = sc * c * c, sc * s * s
    return np.array(
        [
            [a, b, -a, -b],
            [b, a, -b, -a],
            [a, -a, b, -b],
            [b, -b, a, -a],
        ]
    )


def calibrate(
    cfg: SpinSystemConfig, tip_angle_deg: float, n_samples: int = DetectionSettings.n_points,
    dt: float = DetectionSettings.dwell,
) -> float:
    """Receiver constant from a thermal reference probe.

    Returns K such that measured integrals equal K times the probe
    response applied to the deviation diagonal. Must be produced with the
    same acquisition settings later used for reconstruction. The probe is
    noise-free, so K is that of the cached probe setting (spin system,
    grid, tip), shared by every detector on it.
    """
    return Detector(cfg, DetectionSettings(n_samples, dt, tip_angle_deg)).receiver_constant


def probe(
    rho: DensityMatrix, cfg: SpinSystemConfig, tip_angle_deg: float,
    n_samples: int = DetectionSettings.n_points, dt: float = DetectionSettings.dwell,
) -> tuple[Spectrum, Spectrum]:
    """Probing experiment on a diagonal state: simultaneous small-tip
    y-pulses, both noise-free spectra, H then C.

    Small tips leave the state essentially intact while the doublet
    integrals expose the deviation populations; the tip rule and the
    window rules are those of `DetectionSettings` and `Detector`. A noisy
    probe is `Detector.probe` of the populations, with `Detector.draw`.
    """
    if rho.dim != 4 or rho.matrix[_OFF_DIAGONAL].any():
        raise ValueError("the probe takes a diagonal two-spin state")
    detector = Detector(cfg, DetectionSettings(n_samples, dt, tip_angle_deg))
    return detector.probe(populations(rho), None).spectra


def reconstruct_diagonal(
    peaks_h: PeakTable, peaks_c: PeakTable, tip_angle_deg: float, calibration: float
) -> np.ndarray:
    """Deviation diagonal from one probe's four line integrals.

    The least-squares solution of the four probe-response relations plus
    the traceless constraint, through `_probe_solve` (built per call; a
    `Detector` holds the one of its setting). The four relations are rank
    3 with one internal redundancy, so inconsistent peak data shows up as a
    residual; residuals above 5% of the largest integral are rejected.
    Integrals within round-off of zero give the zero diagonal. The tip
    must pass `check_probe_tip`, the rule of `DetectionSettings`.
    """
    y = np.concatenate([peaks_h.integrals, peaks_c.integrals])
    check_probe_tip(tip_angle_deg)
    solve = _probe_solve(_probe_response_matrix(tip_angle_deg), calibration)
    diag, errors = _reconstruct(y, solve)
    if errors:
        raise errors[()]
    return diag


# the deviation patterns e, f, g and the two tip-free parts of R⁺ (`_probe_solve`)
_E, _F, _G = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0
_PINV_P = np.outer(_E, [1, 1, 0, 0]) + np.outer(_F, [0, 0, 1, 1])
_PINV_Q = np.outer(_G, [1, -1, 1, -1])
_G.flags.writeable = False


def _probe_solve(relations: np.ndarray, calibration: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The reconstruction of the probe relations R of one tip
    (`_probe_response_matrix`) at one calibration, as read-only arrays: the
    4×4 solve matrix S, the unit left-null vector v of the calibrated probe
    response K·R, and the round-off level of the integrals.

    S is the pseudo-inverse of the relations stacked on the traceless row,
    restricted to the integrals, so S y is the least-squares diagonal of the
    integrals y. R is rank 3 and every row sums to zero, so the traceless
    row is orthogonal to its row space and S = R⁺/K, in closed form:
    R⁺ = [e⊗(1,1,0,0) + f⊗(0,0,1,1)]/(2p) + g⊗(1,-1,1,-1)/(4q) for the
    deviation patterns e, f, g of the module docstring, with p = a + b =
    sin(tip)/2 and q = a - b = sin(2 tip)/4 for R's entries a = R[0,0] and
    b = R[0,1]. The left null space is spanned by v = (1,-1,-1,1)/2 at
    every tip, so the norm of the residual y - K·R S y is
    |v·y| = |y_H0 - y_H1 - y_C0 + y_C1|/2."""
    if calibration == 0 or not np.isfinite(calibration):
        raise ValueError("the receiver constant must be finite and non-zero")
    a, b = relations[0, :2].tolist()
    solve = _PINV_P / (2 * (a + b) * calibration) + _PINV_Q / (4 * (a - b) * calibration)
    solve.flags.writeable = False
    # |K| max|R| is max|K·R| bit for bit: rounding is monotone and odd; R
    # holds ±a and ±b
    row_scale = abs(calibration) * max(abs(a), abs(b))
    return solve, _G, ROUNDOFF_MULTIPLE * np.finfo(float).eps * row_scale


def _reconstruct(y: np.ndarray, probe_solve) -> tuple[np.ndarray, dict]:
    """`reconstruct_diagonal` of the (..., 4) integrals y (H partner 0, 1, then
    C) through a `_probe_solve`: the (..., 4) diagonals and, by index, the
    `ReadoutError` of each row that fails the residual gate."""
    solve, null, roundoff = probe_solve
    ymax = np.abs(y).max(axis=-1)
    residual = np.abs(y[..., None, :] @ null[:, None])[..., 0, 0]
    signal = ymax > roundoff
    diag = np.where(signal[..., None], (solve @ y[..., None])[..., 0], 0.0)
    rejected = signal & (residual > RECONSTRUCTION_RESIDUAL_FRAC * ymax)
    message = "inconsistent peak data (residual {:.3e} vs max integral {:.3e})"
    rows = map(tuple, np.argwhere(rejected) if rejected.any() else ())
    return diag, {i: ReadoutError(message.format(residual[i], ymax[i])) for i in rows}


@functools.lru_cache(maxsize=4)
def _frequency_cells(freqs: bytes) -> tuple[str, ...]:
    """The formatted freq_hz cells of a frequency axis (given as its bytes),
    the same in every spectrum of one grid."""
    return tuple(f"{f!r}," for f in np.frombuffer(freqs).tolist())


def spectrum_to_csv(spec: Spectrum, path) -> None:
    """Write a spectrum as CSV with columns freq_hz, real, imag.

    The layout is that of `csv.writer`: CRLF line ends and no quoting (a
    float's repr needs none)."""
    cells = _frequency_cells(spec.freqs.tobytes())
    columns = (cells, spec.values.real.tolist(), spec.values.imag.tolist())
    rows = [f"{f}{real!r},{imag!r}" for f, real, imag in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(["freq_hz,real,imag", *rows, ""]))
