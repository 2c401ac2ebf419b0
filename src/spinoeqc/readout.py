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
vector v = (1,-1,-1,1)/2 of the relations, the same at every tip. So a
new tip costs a few scalars: R's entries are ±a and ±b for two floats
a = p·cos²(tip/2) and b = p·sin²(tip/2) from `math`, K is fitted to the
thermal reference in Python floats from the grid's 2×2 response, and S is
two tip-free 4×4 patterns over (a + b)K and (a - b)K, whose 16 entries are
± two floats (see `Detector` and `_probe_solve`).

Processing fixes: the first FID point is halved before the transform (the
standard baseline correction for one-sided decays; without it window
integrals pick up a large flat offset).

Detection as a linear map. FID synthesis, the transform and the window
sums are all linear in the line amplitudes (A_plus, A_minus) and in the
receiver noise, so detection needs no FID. A spectrum is the two unit
line spectra (the transform of a unit ±J/2 line under the T2 decay)
weighted by the amplitudes, and a line integral is the bin width df
times the window sum of its real part, so the 2×2 line response is the
window sums of the unit line spectra. In the time domain a line integral
is Re(g · x) for the sampled FID x and a window vector g that carries the
window, the first-point halving and df; g is never built, as the
covariance of the line integrals of white noise and the conditioning of
a noise vector on them have closed forms in the windows' bin counts (see
`_grid_map` and `Detector.noise_spectra`). A `Detector` reads the one
cached map of its grid, per (spin system, n_points, dwell): the axis,
the unit line spectra, the window masks, the noise factor, and the
response and amplitude solve as floats. It builds its probe setting (the
entries of the probe map, the receiver constant and the solve) from it
and the tip in closed form, in Python floats, with no cache of its own.
It takes the deviation diagonal d of a diagonal state, its populations
less I/4 (`enhanced_deviations`), and builds no state: the line
amplitudes are the probe map (`Detector.probe_amplitudes`, in floats),
or the `readout_map` of a computation, applied to d, both in closed
form: the probe map is R, and after a readout's unitary U the coherence
(r, c) of U diag(d) U† is Σⱼ U[r,j] conj(U[c,j]) dⱼ. Their line
integrals have one route, `Detector._response_lines`, in floats, and
`Detector.spectra` weights the unit line spectra by them, the one route
to spectra: by
linearity a weighted sum of detections is the spectra of the weighted
amplitudes and noise rows. The channels, H then C, are `spins.Channel`,
the enum that also targets pulses. Neither map sees I/4, so only `probe`
takes a density matrix: it rejects coherences and probes the
populations, whose I/4 part gives round-off.

Receiver noise. The pipeline reads a noise vector n only through its two
line integrals Re(g · n), Gaussian with covariance σ² Re(G Gᴴ) for white
noise of amplitude σ, so it draws just those, 2 normals per channel
(`Detector.line_noise`). One rule names every draw: detection i of
a seed draws its full vectors from the child seeds
`SeedSequence(seed, spawn_key=(2i + c,))` of its channels c (H = 0,
C = 1), conditioned on its drawn integrals, so an exported spectrum
integrates to the integrals the pipeline used. `Detector.noise_spectra`
draws them for a (detection, channel, line) array of integrals, only when
a spectrum is read, and returns just their transforms, which their owner
keeps: a `Preparation` for its readouts, the `probe` command for its lone
detection (`Detector.draw`, index 0, its integrals from the first four
normals of the seed).
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .quantum import DensityMatrix, Unitary, populations
from .spinoe import check_seed
from .spins import Channel, PulseSpec, SpinSystemConfig, check_finite, pulse_unitary

PROBE_TIP_MAX = 25.0
MIN_FID_SAMPLES = 256
# 2**20 samples already take ~0.5 GiB at peak for one search with noise on
# (493 MiB `ru_maxrss` for a `run_grover_pipeline` at noise_amp 0.01 that
# reads every record and sum spectrum)
MAX_FID_SAMPLES = 2**20
RECONSTRUCTION_RESIDUAL_FRAC = 0.05
# probe integrals up to this many machine epsilons of the largest
# calibrated response to the state's scale are round-off; the I/4 of a
# unit-trace state probes at 0.06-0.13 of them for tips of 0.01-25°
ROUNDOFF_MULTIPLE = 16.0
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min

_OFF_DIAGONAL = ~np.eye(4, dtype=bool)
_PAST_FLOAT_RANGE = "probe integrals are not finite; the probed state leaves the float range"
_SOLVE_PAST_FLOAT_RANGE = "probe solve leaves the float range; raise tip_deg or decrease dwell_s"
_TOO_COARSE = "spectral resolution too coarse for peak windows"
_INSEPARABLE = ("peak windows cannot separate the doublet lines; "
                "increase t2 or shorten the dwell time")


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


def _uniform_steps(steps: np.ndarray) -> bool:
    """`np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)` in fewer numpy
    calls: a finite first step admits the steps within the tolerance of it,
    and one that is not finite only steps equal to it."""
    first = float(steps[0])
    if math.isfinite(first):
        close = abs(steps - first) <= 1e-12 + 1e-9 * abs(first)
    else:
        close = steps == first
    return bool(np.logical_and.reduce(close))


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
        if f.size > 1 and not _uniform_steps(np.diff(f)):
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
            raise ReadoutError(_TOO_COARSE)
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


def readout_map(step: Unitary) -> np.ndarray:
    """A computation `step` followed by the readout, as the read-only
    (channel, line, population) array of a linear map.

    The line amplitudes at a receiver are linear in the state and blind to
    its I/4 part, and a diagonal state is fixed by its deviation diagonal
    d, so the (A_plus, A_minus) of a channel after `step` and the 90°
    y-pulse on the observed spin are `map[channel] @ d`, exact up to
    rounding: each row is U[r] * conj(U[c]) for its coherence (r, c) and
    the unitary U at the receiver. A single-spin pulse mixes no partners,
    so 90° gives a clean one-line signature for pure-like states. The map
    stays complex, as the spectra weight the unit line spectra by it; the
    line integrals read its real part (`Detector._response_lines`), as its
    imaginary parts are round-off.
    """
    pulses = [pulse_unitary(PulseSpec(ch, 90.0, phase=90.0)) for ch in Channel]
    unitaries = [pulse.matrix @ step.matrix for pulse in pulses]
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
def _grid_map(cfg: SpinSystemConfig, n_points: int, dwell: float) -> tuple:
    """Frequency axis, unit line spectra, window masks and noise factor of
    one grid, read-only, then the floats of its detection arithmetic:
    Re(response) row by row, the noise factor's entries L[0,0], L[1,0] and
    L[1,1] (L[0,1] is 0) and the amplitude solve Re(response)⁻¹ row by row;
    kept for the last few grids (see `Detector`).

    The response is df times the window sums of the unit line spectra.
    The windows are disjoint, so the covariance Re(G Gᴴ) of the line
    integrals of unit white noise is df² (n·diag|W| - 0.75·|W||W|ᵀ) for
    the bin counts |W| (Parseval, less the halved first point's share),
    and the noise factor L is df times the Cholesky factor of the 2×2 in
    counts: the covariance itself, ~df², is never formed."""
    # a bin 1/(n·dwell) wider than half a peak window (J/4) leaves at most
    # two bins in it, which the four-bin rule of `_line_windows` rejects; it
    # is rejected first, with no arithmetic on the grid
    if n_points * dwell * cfg.j_coupling < 4.0:
        raise ReadoutError(_TOO_COARSE)
    # the axis reaches (n//2)·(1/(n·dwell)), as numpy rounds it: past the
    # float range (below dwell ~2.8e-309) it would hold infs
    if n_points // 2 * (1.0 / (n_points * float(dwell))) > np.finfo(float).max:
        raise ReadoutError("frequency axis leaves the float range; increase dwell_s")
    freqs = _frequency_axis(n_points, dwell)
    masks = np.array(_line_windows(freqs, cfg))
    # the lines' phase rate 2π·(J/2), as `_unit_lines` rounds it: past the
    # float range (above J ~5.7e307) they would be NaN
    if math.pi * float(cfg.j_coupling) > np.finfo(float).max:
        raise ReadoutError("line phase rate leaves the float range; lower j_hz")
    # the lines' decay exponent at the last sample, (n-1)·dwell/T2, as
    # `_unit_lines` rounds it: past the float range (t2 below ~2.3e-308 on
    # the default grid) the lines decay within the first sample, one flat line
    if (n_points - 1) * float(dwell) / float(cfg.t2) > np.finfo(float).max:
        raise ReadoutError(_INSEPARABLE)
    line_spectra = _transform(_unit_lines(cfg, n_points, dwell))
    df = freqs[1] - freqs[0]
    sums = masks @ line_spectra.T
    counts = masks.sum(axis=1)
    gram = n_points * np.diag(counts) - 0.75 * np.outer(counts, counts)
    cholesky = np.linalg.cholesky(gram)
    # the window sums and the Cholesky factor in counts are at most ~n², and
    # df times their largest part, as numpy rounds each product, must be a
    # float: it is ~1/dwell, past the float range for some subnormal dwells
    # (below ~4.8e-309) that the axis rule admits
    largest = max(np.abs(sums.real).max(), np.abs(sums.imag).max(), np.abs(cholesky).max())
    if float(df) * float(largest) > np.finfo(float).max:
        raise ReadoutError("window integrals leave the float range; increase dwell_s")
    response = (df * sums).real
    (r00, r01), (r10, r11) = response.tolist()
    # a detector's receiver constant is Σ Re(response)/2 in exact arithmetic,
    # whatever the reference: past the float range (some subnormal dwells
    # below ~4.8e-309 with a huge J) only the grid can bring it back
    if not math.isfinite(r00 / 2 + r01 / 2 + r10 / 2 + r11 / 2):
        raise ReadoutError("receiver constant leaves the float range; increase dwell_s")
    noise_factor = df * cholesky
    # LU, not the closed-form 2×2 inverse: at dwell_s 1e-160 (j_hz 2e159,
    # t2_s 1e-157) r00·r11 overflows and the determinant reads NaN, while LU
    # inverts the grid and every search target decodes on it
    try:
        solve = tuple(np.linalg.inv(response).ravel().tolist())
    except np.linalg.LinAlgError:  # e.g. a decay within one dwell: one flat line
        raise ReadoutError(_INSEPARABLE) from None
    # a map is shared by every detector on its grid
    arrays = (freqs, line_spectra, masks, noise_factor)
    for array in arrays:
        array.flags.writeable = False
    return (*arrays, (r00, r01, r10, r11), tuple(noise_factor[np.tril_indices(2)].tolist()), solve)


@dataclass(frozen=True)
class Detector:
    """Line integrals and spectra of one acquisition setting as a
    precomputed linear map.

    The line response holds the line integrals of unit +J/2 and -J/2
    amplitudes (partner 0 and partner 1 lines), the window sums of the
    grid's unit line spectra times the bin width. The line amplitudes at
    a receiver are real up to round-off, so noise-free integrals are
    Re(response)·(A_plus, A_minus), whose 2×2 the detector keeps as four
    floats, and `amplitude_solve` is Re(response)⁻¹, row by row as four
    floats; `noise_factor` is the lower Cholesky factor L of the
    covariance C = Re(G Gᴴ) of the line integrals of unit white noise, for
    the window vectors G of the module docstring, so those of white noise
    of amplitude σ are σ L z for standard normal z. These come from the
    one cached map of the grid (`_grid_map`), shared by every detector on
    it, which also holds the frequency axis, the unit line spectra and the
    window masks that `spectra` and `noise_spectra` read, and the entries
    of L as floats, so a new setting converts no array.

    The probe setting is built here, in closed form and in Python float
    arithmetic, from the grid's 2×2 Re(response) and the two entries a and
    b of the tip's relations R (`_tip_entries`), and kept as floats:
    `probe_lines` gives the noise-free integrals y = Re(response)·m per
    channel of the amplitudes m = R·d (`probe_amplitudes`) of flat
    deviation diagonals d, with R's ±a and ±b; `receiver_constant` is the
    K of `calibrate`, the least-squares fit K = Σ y·m / Σ m·m to that probe
    of the thermal reference d, whose four entries are read as floats, so
    no state is built. In exact arithmetic K is Σ Re(response) / 2, a grid
    constant. A float overflows to inf and underflows to 0 with no warning,
    so the build enters no numpy error state: a thermal reference with no
    signal (Σ m·m below the smallest normal float), or one whose K leaves
    the float range, builds no detector, nor does a K and a tip whose solve
    leaves it. `roundoff` is the round-off level of `_probe_solve`, and the
    rows of its solve matrix S, each entry ± one of two floats, are kept
    as floats. The noise level comes from `settings`.

    Detection runs in Python floats, from the entries of R and S and the
    grid's Re(response) and L that the detector keeps: `probe_lines` turns
    diagonals into integrals, `_response_lines` turns line amplitudes into
    integrals (a probe's, and a search's noise-free ones), `line_noise`
    turns normals into noise integrals and `reconstruct` turns four
    integrals into a diagonal through `_reconstruct`, its round-off rule
    and its gate; on four numbers a numpy call costs more than its
    arithmetic.
    """

    cfg: SpinSystemConfig
    settings: DetectionSettings
    # the maps follow from (cfg, settings), which alone compare and hash
    noise_factor: np.ndarray = field(init=False, repr=False, compare=False)
    amplitude_solve: tuple = field(init=False, repr=False, compare=False)
    receiver_constant: float = field(init=False, repr=False, compare=False)
    roundoff: float = field(init=False, repr=False, compare=False)
    # the floats of one probe's arithmetic: R's entries a and b, Re(response)
    # row by row, the rows of S, and L's entries L[0,0], L[1,0] and L[1,1]
    # (L[0,1] is 0)
    _tip: tuple = field(init=False, repr=False, compare=False)
    _lines: tuple = field(init=False, repr=False, compare=False)
    _solve: tuple = field(init=False, repr=False, compare=False)
    _factor: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, cfg = self.settings, self.cfg
        grid = _grid_map(cfg, s.n_points, s.dwell)
        noise_factor, lines, factor, amplitude_solve = grid[3:]
        a, b = _tip_entries(s.probe_tip_deg)
        # a frozen dataclass's fields, set past its __setattr__
        fields = vars(self)
        fields.update(noise_factor=noise_factor, amplitude_solve=amplitude_solve,
                      _tip=(a, b), _lines=lines, _factor=factor)
        # the thermal reference (d0, d1, -d1, -d0), as `enhanced_deviations`
        # rounds it, its probe amplitudes m and its integrals y
        half = 0.5 * cfg.polarization_unit
        d0, d1 = half * (cfg.gamma_ratio + 1.0), half * (cfg.gamma_ratio - 1.0)
        m = self.probe_amplitudes((d0, d1, -d1, -d0))
        m0, m1, m2, m3 = m
        y0, y1, y2, y3 = self._response_lines(m)
        fit = y0 * m0 + y1 * m1 + y2 * m2 + y3 * m3
        denom = m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3
        # Python floats overflow to inf and underflow silently: a reference
        # near the float range (polarization_unit 1e153 at the default
        # gamma_ratio) leaves K not finite, and one whose square is subnormal
        # (polarization_unit below ~2e-154 at the defaults) has lost digits
        if denom < _TINY:
            raise ReadoutError("thermal reference produced no signal")
        k = fit / denom
        if not math.isfinite(k):
            raise ReadoutError(
                "receiver constant overflows; lower polarization_unit or gamma_ratio"
            )
        # a fit that underflows (a response of ~1/dwell_s times a small tip's
        # integrals) leaves K = 0 and S = R⁺/K past the float range
        if k == 0:
            raise ReadoutError(_SOLVE_PAST_FLOAT_RANGE)
        # the probed states' scale is the thermal reference's, whatever u is
        solve, roundoff = _probe_solve(a, b, k, max(abs(d0), abs(d1)))
        fields.update(receiver_constant=k, roundoff=roundoff, _solve=solve)

    def line_noise(self, z) -> list[float]:
        """noise_amp · z Lᵀ of standard normals z, Python floats: per pair
        (z0, z1) of z, the line integrals (partner 0, then 1) of white noise
        in one channel, (a z0 L[0,0], a z0 L[1,0] + a z1 L[1,1]) for a =
        noise_amp, their exact law."""
        amp, (l00, l10, l11) = self.settings.noise_amp, self._factor
        pairs = iter(z)
        lines = []
        for z0, z1 in zip(pairs, pairs):
            a0 = amp * z0
            lines += (a0 * l00, a0 * l10 + amp * z1 * l11)
        return lines

    def draw(self, seed: int) -> np.ndarray | None:
        """The read-only (1, channel, line) noise integrals of a lone
        detection at the settings' level (None with noise off): detection 0
        of `seed`, the `line_noise` of the first four normals of
        `default_rng(seed)`, H first."""
        check_seed(seed)
        if self.settings.noise_amp <= 0:
            return None
        z = np.random.default_rng(seed).standard_normal(4).tolist()
        integrals = np.array(self.line_noise(z)).reshape(1, 2, 2)
        integrals.flags.writeable = False
        return integrals

    def noise_spectra(self, seed: int, integrals: np.ndarray) -> np.ndarray:
        """The read-only (detection, channel, sample) spectra of the receiver
        noise of detections 0, 1, … of `seed`, given their (detection,
        channel, line) noise `integrals`: the transforms of its noise
        vectors, first point halved as for the unit lines.

        Detection i draws the white noise m of channel c from the child seed
        `SeedSequence(seed, spawn_key=(2i + c,))` and conditions it on its
        line integrals y: n = m - Σₖ conj(gₖ) eₖ for the window vectors g and
        the excess e = C⁻¹ (Re(G m) - y) of m's integrals. Its law is still
        that of white noise, and Re(G n) = y. No g is built: for the
        transform M of m, the window masks Wₖ and their bin counts |Wₖ|,
        Re(G m) = df Σ_W Re(M) and the transform of conj(gₖ) is
        df (n·Wₖ - 0.75 |Wₖ|), so the spectrum of n is
        M - Σₖ eₖ df (n·Wₖ - 0.75 |Wₖ|)."""
        n, amp = self.settings.n_points, self.settings.noise_amp
        freqs, _, masks = _grid_map(self.cfg, n, self.settings.dwell)[:3]
        white = np.empty((*integrals.shape[:2], n), dtype=complex)
        for i, c in np.ndindex(integrals.shape[:2]):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2 * i + c,)))
            white[i, c] = rng.normal(0.0, amp, n) + 1j * rng.normal(0.0, amp, n)
        values = _transform(white)
        df = freqs[1] - freqs[0]
        # C⁻¹ as two solves with L: C, ~df², leaves the float range on fine grids
        excess = (df * (values.real @ masks.T) - integrals)[..., None]
        factor = self.noise_factor
        excess = np.linalg.solve(factor.T, np.linalg.solve(factor, excess))[..., 0]
        counts = masks.sum(axis=1)
        values -= excess @ (df * (n * masks - 0.75 * counts[:, None]))
        values.flags.writeable = False
        return values

    def spectra(self, amplitudes, noise: np.ndarray | None = None) -> tuple[Spectrum, Spectrum]:
        """The H and C spectra of (channel, line) amplitudes: the grid's unit
        line spectra weighted by them, plus a (channel, sample) row of
        `noise_spectra` when one is given."""
        freqs, line_spectra = _grid_map(self.cfg, self.settings.n_points, self.settings.dwell)[:2]
        values = amplitudes @ line_spectra
        if noise is not None:
            values += noise
        h, c = (Spectrum(channel, freqs, v) for channel, v in zip(Channel, values))
        return h, c

    def probe_amplitudes(self, d) -> list[float]:
        """The probe's line amplitudes m = R·d of flat deviation diagonals d
        (four floats per experiment), flat as floats (experiment * 4 +
        channel * 2 + line): per row of R its ±a and ±b times d's entries,
        summed in index order."""
        a, b = self._tip
        entries = iter(d)
        m = []
        for d0, d1, d2, d3 in zip(entries, entries, entries, entries):
            ad0, ad1, ad2, ad3 = a * d0, a * d1, a * d2, a * d3
            bd0, bd1, bd2, bd3 = b * d0, b * d1, b * d2, b * d3
            m += (ad0 + bd1 - ad2 - bd3, bd0 + ad1 - bd2 - ad3,
                  ad0 - ad1 + bd2 - bd3, bd0 - bd1 + ad2 - ad3)
        return m

    def probe_lines(self, d) -> list[float]:
        """The noise-free probe integrals of flat deviation diagonals d
        (four floats per experiment), flat as floats like their
        `probe_amplitudes`: simultaneous small-tip y-pulses at the settings'
        tip. A float overflows to inf, and inf - inf is NaN, with no
        warning; integrals past the float range are left to `reconstruct`."""
        return self._response_lines(self.probe_amplitudes(d))

    def _response_lines(self, m) -> list[float]:
        """Re(response)·m per channel of flat line amplitudes m (channel * 2 +
        line, any number of channels), as floats: a probe's integrals, and a
        search's noise-free ones."""
        r00, r01, r10, r11 = self._lines
        pairs = iter(m)
        y = []
        for m0, m1 in zip(pairs, pairs):
            y += (r00 * m0 + r01 * m1, r10 * m0 + r11 * m1)
        return y

    def reconstruct(self, y) -> list[float]:
        """`_reconstruct` of one probe's four integrals y (H partner 0, 1,
        then C; Python floats) at this setting."""
        return _reconstruct(y, self._solve, self.roundoff)


def _tip_entries(tip_angle_deg: float) -> tuple[float, float]:
    """The two entries of the probe relations R of a tip, the exact linear
    map from deviation diagonal to the four line amplitudes (rows H partner
    0, H partner 1, C partner 0, C partner 1), whose entries are ±a and ±b:
    a = R[0,0] = sin(tip)/2 · cos²(tip/2) and b = R[0,1] = sin(tip)/2 ·
    sin²(tip/2)."""
    theta = math.radians(tip_angle_deg)
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    sc = s * c
    return sc * c * c, sc * s * s


def calibrate(cfg: SpinSystemConfig, tip_angle_deg: float) -> float:
    """Receiver constant from a thermal reference probe on the
    `DetectionSettings` default grid.

    Returns K such that measured integrals equal K times the probe
    response applied to the deviation diagonal. Must be produced with the
    same acquisition settings later used for reconstruction. The probe is
    noise-free, so K is fixed by the spin system, the grid and the tip,
    whatever the noise level: it is the `receiver_constant` of the
    `Detector` of that setting; another grid's K is its `Detector`'s.
    """
    return Detector(cfg, DetectionSettings(probe_tip_deg=tip_angle_deg)).receiver_constant


def probe(
    rho: DensityMatrix, cfg: SpinSystemConfig, tip_angle_deg: float
) -> tuple[Spectrum, Spectrum]:
    """Probing experiment on a diagonal state on the `DetectionSettings`
    default grid: simultaneous small-tip y-pulses, both noise-free
    spectra, H then C.

    Small tips leave the state essentially intact while the doublet
    integrals expose the deviation populations; the tip rule and the
    window rules are those of `DetectionSettings` and `Detector`. The
    populations go to the probe map as they are: R's rows sum to zero, so
    their I/4 part probes to round-off. A noisy probe adds a row of
    `Detector.noise_spectra` of a `Detector.draw`, as the `probe` command
    does; another grid's spectra are its `Detector`'s `spectra` of its
    `probe_amplitudes`.
    """
    if rho.dim != 4 or rho.matrix[_OFF_DIAGONAL].any():
        raise ValueError("the probe takes a diagonal two-spin state")
    detector = Detector(cfg, DetectionSettings(probe_tip_deg=tip_angle_deg))
    amplitudes = detector.probe_amplitudes(populations(rho).tolist())
    return detector.spectra(np.array(amplitudes).reshape(2, 2))


def reconstruct_diagonal(
    peaks_h: PeakTable, peaks_c: PeakTable, tip_angle_deg: float, calibration: float
) -> np.ndarray:
    """Deviation diagonal from one probe's four line integrals.

    The least-squares solution of the four probe-response relations plus
    the traceless constraint, through `_probe_solve` (built per call; a
    `Detector` holds the one of its setting) and `_reconstruct`, the one
    reconstruction routine, in Python floats. The four relations are rank
    3 with one internal redundancy, so inconsistent peak data shows up as a
    residual; residuals above 5% of the largest integral are rejected, as
    are integrals that are not finite. Integrals within the round-off of a
    unit-trace state give the zero diagonal. The tip must pass
    `check_probe_tip`, the rule of `DetectionSettings`.
    """
    y = [*peaks_h.integrals.tolist(), *peaks_c.integrals.tolist()]
    check_probe_tip(tip_angle_deg)
    solve, roundoff = _probe_solve(*_tip_entries(tip_angle_deg), calibration)
    return np.array(_reconstruct(y, solve, roundoff))


def _probe_solve(a: float, b: float, k: float, scale: float = 1.0) -> tuple[tuple, float]:
    """The reconstruction of the probe relations R of one tip, given by
    their entries a and b (`_tip_entries`), at one receiver constant k = K:
    the rows of the 4×4 solve matrix S as floats and the round-off level of
    the integrals of states whose largest entry is `scale` (1 for the
    unit-trace states `reconstruct_diagonal` serves).

    S is the pseudo-inverse of the relations stacked on the traceless row,
    restricted to the integrals, so S y is the least-squares diagonal of the
    integrals y. R is rank 3 and every row sums to zero, so the traceless
    row is orthogonal to its row space and S = R⁺/K, in closed form:
    R⁺ = [e⊗(1,1,0,0) + f⊗(0,0,1,1)]/(2p) + g⊗(1,-1,1,-1)/(4q) for the
    deviation patterns e, f, g of the module docstring, with p = a + b =
    sin(tip)/2 and q = a - b = sin(2 tip)/4 for R's entries a = R[0,0] and
    b = R[0,1]. Every entry of the two tip-free parts is ±1/2, so each entry
    of S is ±0.5/pk ± 0.5/qk for pk = 2pK and qk = 4qK: one of the two
    magnitudes s = 0.5/pk + 0.5/qk and t = 0.5/pk - 0.5/qk, or its
    negation. Negating an operand negates a quotient and a sum exactly, so
    these are the floats that elementwise array division and addition give.
    The left null space of K·R is spanned by the unit vector
    v = g = (1,-1,-1,1)/2 at every tip, so the norm of the
    residual y - K·R S y is |v·y| = |y_H0 - y_H1 - y_C0 + y_C1|/2. The
    round-off level is ROUNDOFF_MULTIPLE machine epsilons of |K| max(|a|,
    |b|) times `scale`, all floats. `_reconstruct` applies S and the gate
    on v·y to one probe's integrals, entry by entry in Python floats."""
    if k == 0 or not math.isfinite(k):
        raise ValueError("the receiver constant must be finite and non-zero")
    pk, qk = 2 * (a + b) * k, 4 * (a - b) * k
    # S's largest entries are ±s: a tip and a K whose product underflows
    # would divide by zero, and a subnormal one overflows
    if not (pk and qk and math.isfinite(s := 0.5 / pk + 0.5 / qk)):
        raise ReadoutError(_SOLVE_PAST_FLOAT_RANGE)
    t = 0.5 / pk - 0.5 / qk
    solve = ((s, t, s, t), (t, s, -s, -t), (-s, -t, t, s), (-t, -s, -t, -s))
    # |K| max|R| is max|K·R| bit for bit: rounding is monotone and odd; R
    # holds ±a and ±b
    row_scale = abs(k) * max(abs(a), abs(b))
    return solve, ROUNDOFF_MULTIPLE * _EPS * row_scale * scale


def _reconstruct(y, solve, roundoff: float) -> list[float]:
    """`reconstruct_diagonal` of the four integrals y (H partner 0, 1, then
    C) through the rows of the solve matrix S and the round-off level of a
    `_probe_solve`, all Python floats: the diagonal S y as four floats, each
    a sum of the products of a row of S with y.
    Raises the ReadoutError of integrals that fail the residual gate |g·y|,
    formed from the products of g's ±0.5 with y (the tip-free left-null
    vector g), or that left the float range (a NaN or ±inf fits no
    diagonal). A float overflows to inf with no warning, so no numpy error
    state is entered."""
    if not all(map(math.isfinite, y)):
        raise ReadoutError(_PAST_FLOAT_RANGE)
    y0, y1, y2, y3 = y
    ymax = max(abs(y0), abs(y1), abs(y2), abs(y3))
    if not ymax > roundoff:
        return [0.0, 0.0, 0.0, 0.0]
    residual = abs(0.5 * y0 - 0.5 * y1 - 0.5 * y2 + 0.5 * y3)
    if residual > RECONSTRUCTION_RESIDUAL_FRAC * ymax:
        raise ReadoutError(
            f"inconsistent peak data (residual {residual:.3e} vs max integral {ymax:.3e})"
        )
    return [s0 * y0 + s1 * y1 + s2 * y2 + s3 * y3 for s0, s1, s2, s3 in solve]


@functools.lru_cache(maxsize=4)
def _frequency_cells(freqs: bytes) -> tuple[str, ...]:
    """The formatted freq_hz cells of a frequency axis (given as its bytes),
    the same in every spectrum of one grid."""
    return tuple(f"{f!r}," for f in np.frombuffer(freqs).tolist())


_CSV_HEADER = "freq_hz,real,imag\r\n"


def spectrum_csv(spec: Spectrum) -> str:
    """The CSV text of a spectrum, the one formatting rule of every exported
    spectrum: columns freq_hz, real, imag, each number its repr, in the
    layout of `csv.writer` (CRLF line ends, and no quoting: a float's repr
    needs none)."""
    cells = _frequency_cells(spec.freqs.tobytes())
    columns = (cells, spec.values.real.tolist(), spec.values.imag.tolist())
    rows = [f"{f}{real!r},{imag!r}" for f, real, imag in zip(*columns)]
    return _CSV_HEADER + "\r\n".join([*rows, ""])


def negated_csv(text: str) -> str:
    """`spectrum_csv` of a spectrum with every value negated, from the text
    of the spectrum: each real and imag cell follows a comma, and the repr
    of a finite float negates by its sign alone (",x" to ",-x", ",-x" to
    ",x"). The header and freq_hz column are kept. Not for a spectrum with
    a NaN, whose repr carries no sign."""
    body = text[len(_CSV_HEADER):].replace(",", ",-").replace(",--", ",")
    return _CSV_HEADER + body


def write_csv(text: str, path) -> None:
    """Write CSV text as it is (its CRLF line ends untranslated)."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
