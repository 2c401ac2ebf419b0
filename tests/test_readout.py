import collections
import csv
import fractions
import functools
import importlib
import inspect
import itertools
import math
import pkgutil
import re
import sys
import types
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spinoeqc
from spinoeqc import experiments, readout
from spinoeqc.quantum import DensityMatrix, Unitary, apply_unitary, compose, populations
from spinoeqc.readout import (
    MAX_FID_SAMPLES,
    PROBE_TIP_MAX,
    Channel,
    DetectionSettings,
    Detector,
    PeakTable,
    ReadoutError,
    Spectrum,
    calibrate,
    integrate_peaks,
    negated_csv,
    probe,
    readout_map,
    reconstruct_diagonal,
    spectrum_csv,
    write_csv,
)
from spinoeqc.spins import (
    PulseSpec,
    SpinSystemConfig,
    enhanced_deviations,
    enhanced_state,
    pulse_unitary,
    thermal_state,
)
CFG = SpinSystemConfig()  # J = 215 Hz, T2 = 0.5 s
MODULES = [
    importlib.import_module(f"spinoeqc.{info.name}")
    for info in pkgutil.iter_modules(spinoeqc.__path__)
]
# spin-1/2 Iz x Iz diagonal, the J-coupling generator
IZIZ_DIAG = np.array([0.25, -0.25, -0.25, 0.25])


def simultaneous_pulse(tip, phase=90.0):
    """The same rotation on both spins, as the H and C pulses composed."""
    return compose(*(pulse_unitary(PulseSpec(channel, tip, phase)) for channel in Channel))


def probed(rho, tip=15.0):
    return apply_unitary(rho, simultaneous_pulse(tip))


def coherences(rho_after_pulse: DensityMatrix, channel: Channel) -> np.ndarray:
    """(A_plus, A_minus) of one channel, read off the state: the oracle of
    the closed-form population → amplitude maps."""
    (rp, cp), (rm, cm) = readout._COHERENCE_INDEX[channel]
    return np.array([rho_after_pulse.matrix[rp, cp], rho_after_pulse.matrix[rm, cm]])


@dataclass(frozen=True)
class Fid:
    """Complex time-domain signal for one channel."""

    channel: Channel
    dt: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.array(self.samples, dtype=complex)
        DetectionSettings(s.size if s.ndim == 1 else 0, self.dt)  # the sampling rules
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)


def synthesize_fid(rho_after_pulse, cfg, channel, n_samples=4096, dt=1e-3) -> Fid:
    """Quadrature FID of one channel from the state's doublet coherences:
    the FFT oracle's time domain."""
    a_plus, a_minus = coherences(rho_after_pulse, channel)
    t = np.arange(n_samples) * dt
    f0 = cfg.j_coupling / 2.0
    plus, minus = np.exp(2j * np.pi * f0 * t), np.exp(-2j * np.pi * f0 * t)
    samples = (a_plus * plus + a_minus * minus) * np.exp(-t / cfg.t2)
    return Fid(channel=channel, dt=dt, samples=samples)


def spectrum(fid: Fid) -> Spectrum:
    """Discrete Fourier transform with absorption phasing, the first point
    halved (one-sided decay baseline correction): the FFT oracle the
    detector's map is held to."""
    x = fid.samples.copy()
    x[0] *= 0.5
    values = np.fft.fftshift(np.fft.fft(x))
    freqs = np.fft.fftshift(np.fft.fftfreq(x.size, fid.dt))
    return Spectrum(channel=fid.channel, freqs=freqs, values=values)


def detection_oracle(rho_after_pulse, cfg, channel, n, dt):
    """Explicit route: step the J evolution and trace against the ladder
    operator, instead of reading coherences analytically."""
    sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]])
    e = (
        np.kron(sigma_plus, np.eye(2))
        if channel is Channel.H
        else np.kron(np.eye(2), sigma_plus)
    )
    out = np.empty(n, dtype=complex)
    for k in range(n):
        t = k * dt
        u = np.diag(np.exp(-2j * np.pi * cfg.j_coupling * t * IZIZ_DIAG))
        rho_t = u @ rho_after_pulse.matrix @ u.conj().T
        out[k] = np.trace(rho_t @ e) * np.exp(-t / cfg.t2)
    return out


class TestSynthesizeFid:
    def test_diagonal_state_gives_silence(self):
        fid = synthesize_fid(thermal_state(CFG), CFG, Channel.H)
        assert np.abs(fid.samples).max() == 0.0

    @pytest.mark.parametrize("channel", [Channel.H, Channel.C])
    def test_matches_stepped_evolution_oracle(self, channel):
        rho = probed(enhanced_state(CFG, -4.0, 6.5), tip=18.0)
        n, dt = 400, 1e-3
        fid = synthesize_fid(rho, CFG, channel, n_samples=n, dt=dt)
        assert_allclose(fid.samples, detection_oracle(rho, CFG, channel, n, dt), atol=1e-13)

    def test_peaks_land_only_on_doublet_bins(self):
        # bin-aligned J and negligible decay: transform must be two spikes
        n, dt = 1024, 1e-3
        df = 1.0 / (n * dt)
        cfg = SpinSystemConfig(j_coupling=2 * 110 * df, t2=1e9)
        rho = probed(thermal_state(cfg))
        spec = spectrum(synthesize_fid(rho, cfg, Channel.H, n_samples=n, dt=dt))
        mag = np.abs(spec.values)
        on_bins = np.isin(np.round(spec.freqs / df).astype(int), (110, -110))
        assert mag[~on_bins].max() < 1e-2 * mag[on_bins].min()

    def test_no_decay_single_line_has_constant_magnitude(self):
        cfg = SpinSystemConfig(t2=1e12)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[2] = 1 / np.sqrt(2)  # H coherence only
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        fid = synthesize_fid(rho, cfg, Channel.H)
        assert_allclose(np.abs(fid.samples), 0.5, atol=1e-9)

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError, match="256"):
            synthesize_fid(thermal_state(CFG), CFG, Channel.H, n_samples=100)


class TestSpectrum:
    def test_zero_fid_gives_zero_spectrum(self):
        fid = Fid(Channel.H, 1e-3, np.zeros(512, dtype=complex))
        assert np.abs(spectrum(fid).values).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=512) + 1j * rng.normal(size=512)
        b = rng.normal(size=512) + 1j * rng.normal(size=512)
        sa = spectrum(Fid(Channel.H, 1e-3, a)).values
        sb = spectrum(Fid(Channel.H, 1e-3, b)).values
        sab = spectrum(Fid(Channel.H, 1e-3, 2.0 * a + 0.5 * b)).values
        assert np.abs(sab - 2.0 * sa - 0.5 * sb).max() < 1e-12 * np.abs(sab).max()

    def test_unit_line_gives_positive_lorentzian(self):
        n, dt = 4096, 1e-3
        t = np.arange(n) * dt
        f0 = CFG.j_coupling / 2
        fid = Fid(Channel.H, dt, np.exp(2j * np.pi * f0 * t) * np.exp(-t / CFG.t2))
        spec = spectrum(fid)
        peak_bin = np.abs(spec.values.real).argmax()
        assert abs(spec.freqs[peak_bin] - f0) <= spec.df
        assert spec.values.real[peak_bin] > 0
        # shape check against the analytic absorption Lorentzian
        near = np.abs(spec.freqs - f0) < 20.0
        analytic = (CFG.t2 / (1 + (2 * np.pi * CFG.t2 * (spec.freqs - f0)) ** 2)) / dt
        assert_allclose(
            spec.values.real[near], analytic[near], rtol=0.01, atol=0.01 * analytic.max()
        )

    def test_parseval_up_to_first_point_convention(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        spec = spectrum(Fid(Channel.H, 1e-3, x))
        x_conv = x.copy()
        x_conv[0] *= 0.5
        assert np.sum(np.abs(spec.values) ** 2) == pytest.approx(
            512 * np.sum(np.abs(x_conv) ** 2), rel=1e-12
        )

    # a step's tolerance about a first step s is 1e-12 + 1e-9 * |s|
    @pytest.mark.parametrize("freqs,uniform", [
        (np.arange(4096) * 0.25 - 512.0, True),
        ([0.0, 1.0, 2.0 + 0.9 * 1.001e-9, 3.0], True),
        ([0.0, 1.0, 2.0 + 1.1 * 1.001e-9, 3.0], False),
        ([0.0, 1.0, 2.0 - 1.1 * 1.001e-9, 3.0], False),
        ([0.0, 1e-15, 2e-15 + 0.9e-12], True),
        ([0.0, 1e-15, 2e-15 + 1.1e-12], False),
        ([0.0, 1.0, np.nan], False),
        ([np.nan, 1.0, 2.0], False),
        ([-np.inf, 0.0, 1.0], False),
        ([0.0, np.nan], False),
        ([0.0, 1.0, np.inf], False),
        ([0.0, 1.0, -np.inf], False),
        ([-np.inf, 0.0, np.inf], True),
        ([np.inf, 0.0, -np.inf], True),
        ([0.0, np.inf], True),
        ([5.0], True),
        ([0.0, 3.0], True),
    ], ids=["uniform", "inside", "outside", "outside-below", "inside-atol", "outside-atol",
            "nan-step", "nan-first-step", "inf-first-step", "nan-one-step", "inf-step", "-inf-step",
            "all-inf-steps", "all--inf-steps", "one-inf-step", "one-point", "two-points"])
    def test_axis_check_accepts_what_allclose_accepts(self, freqs, uniform):
        f = np.array(freqs, dtype=float)
        if f.size > 1:
            steps = np.diff(f)
            assert np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12) == uniform
        values = np.zeros(f.size, dtype=complex)
        if uniform:
            Spectrum(Channel.H, f, values)
        else:
            with pytest.raises(ValueError, match="uniformly spaced"):
                Spectrum(Channel.H, f, values)


class TestIntegratePeaks:
    def test_probed_thermal_equal_positive_doublets(self):
        spec_h, spec_c = probe(thermal_state(CFG), CFG, 15.0)
        ph = integrate_peaks(spec_h, CFG)
        pc = integrate_peaks(spec_c, CFG)
        assert ph.integral(0) > 0 and pc.integral(0) > 0
        assert ph.integral(0) == pytest.approx(ph.integral(1), rel=1e-9)
        assert pc.integral(0) == pytest.approx(pc.integral(1), rel=1e-9)
        # H carries gamma_ratio times the C signal
        assert ph.integral(0) / pc.integral(0) == pytest.approx(4.0, rel=1e-6)

    def test_probed_mixed_state_is_silent(self):
        spec_h, _ = probe(DensityMatrix(np.eye(4) / 4), CFG, 15.0)
        peaks = integrate_peaks(spec_h, CFG)
        assert abs(peaks.integral(0)) < 1e-12
        assert abs(peaks.integral(1)) < 1e-12

    def test_unit_line_window_integral_matches_analytic(self):
        n, dt = 4096, 1e-3
        t = np.arange(n) * dt
        f0 = CFG.j_coupling / 2
        fid = Fid(Channel.H, dt, np.exp(2j * np.pi * f0 * t) * np.exp(-t / CFG.t2))
        peaks = integrate_peaks(spectrum(fid), CFG)
        half = CFG.j_coupling / 4
        analytic = (np.arctan(2 * np.pi * CFG.t2 * half) / np.pi) / dt
        assert peaks.integral(0) == pytest.approx(analytic, rel=0.02)

    def test_window_outside_spectral_width_rejected(self):
        fid = synthesize_fid(probed(thermal_state(CFG)), CFG, Channel.H, n_samples=1024, dt=4e-3)
        with pytest.raises(ReadoutError, match="spectral width"):
            integrate_peaks(spectrum(fid), CFG)
        with pytest.raises(ReadoutError, match="spectral width"):
            Detector(CFG, DetectionSettings(n_points=1024, dwell=4e-3))

    def test_too_few_bins_rejected(self):
        cfg = SpinSystemConfig(j_coupling=0.5)
        fid = synthesize_fid(probed(thermal_state(cfg)), cfg, Channel.H)
        with pytest.raises(ReadoutError, match="resolution"):
            integrate_peaks(spectrum(fid), cfg)
        with pytest.raises(ReadoutError, match="resolution"):
            probe(thermal_state(cfg), cfg, 15.0)


class TestPeakTable:
    def test_integrals_are_a_read_only_copy(self):
        given = np.array([1.5, -2.0])
        peaks = PeakTable(given)
        given[0] = 0.0
        assert (peaks.integral(0), peaks.integral(1)) == (1.5, -2.0)
        with pytest.raises(ValueError):
            peaks.integrals[0] = 0.0
        assert peaks == peaks and hash(peaks) == hash(peaks)

    @pytest.mark.parametrize("integrals", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
    def test_wrong_shape_rejected(self, integrals):
        with pytest.raises(ValueError, match="two line integrals"):
            PeakTable(integrals)

    @pytest.mark.parametrize("partner", [2, -1])
    def test_partner_outside_the_doublet_raises_key_error(self, partner):
        with pytest.raises(KeyError):
            PeakTable([1.0, 2.0]).integral(partner)


class TestProbe:
    @pytest.mark.parametrize("tip", [0.0, -5.0, 25.1, 90.0])
    def test_tip_bounds(self, tip):
        with pytest.raises(ValueError):
            probe(thermal_state(CFG), CFG, tip)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("dwell", np.nan, "dwell time must be finite"),
            ("dwell", np.inf, "dwell time must be finite"),
            ("dwell", -np.inf, "dwell time must be positive"),
            ("noise_amp", np.nan, "noise_amp must be finite"),
            ("noise_amp", np.inf, "noise_amp must be finite"),
            ("noise_amp", -np.inf, "noise_amp must be non-negative"),
            ("noise_amp", 10**400, "noise_amp must be finite"),
        ],
    )
    def test_non_finite_settings_rejected(self, field, value, message):
        # NaN noise ran noise-free, inf noise ended in a labeling error and
        # a NaN dwell in a peak-window error
        with pytest.raises(ValueError, match=f"^{message}$"):
            DetectionSettings(**{field: value})

    def test_sample_count_is_capped(self):
        # settings alone allocate nothing, so the cap is checked cheaply
        assert DetectionSettings(n_points=MAX_FID_SAMPLES).n_points == MAX_FID_SAMPLES
        with pytest.raises(ValueError, match=f"^FID takes at most {MAX_FID_SAMPLES} samples$"):
            DetectionSettings(n_points=MAX_FID_SAMPLES + 1)

    def test_effective_pure_signature(self):
        # deviation proportional to (7.5,-2.5,-2.5,-2.5): dominant positive
        # partner-0 line per channel; the partner-1 line carries only the
        # second-order tan^2(tip/2) leakage of the two-spin pulse
        rho = DensityMatrix.from_diagonal(np.array([7.5, -2.5, -2.5, -2.5]) / 2.5 * 0.1 + 0.25)
        spec_h, spec_c = probe(rho, CFG, 15.0)
        leak = np.tan(np.radians(15.0) / 2) ** 2
        for spec in (spec_h, spec_c):
            peaks = integrate_peaks(spec, CFG)
            assert peaks.integral(0) > 0
            # window tails add a few 1e-4 of cross-talk on top of the pulse term
            assert peaks.integral(1) / peaks.integral(0) == pytest.approx(leak, rel=0.05)
            assert abs(peaks.integral(1)) < 0.02 * peaks.integral(0)

    def test_total_channel_integral_tracks_zeeman_deviation(self):
        # summed doublet integral is proportional to the observed spin's
        # z-deviation times sin(tip), channel by channel
        k = calibrate(CFG, 15.0)
        rng = np.random.default_rng(31)
        for tip in (10.0, 15.0, 20.0):
            d = rng.normal(size=4)
            d -= d.mean()
            spec_h, spec_c = probe(DensityMatrix.from_diagonal(0.25 + d), CFG, tip)
            ph = integrate_peaks(spec_h, CFG)
            pc = integrate_peaks(spec_c, CFG)
            scale = k * np.sin(np.radians(tip)) / 2
            assert ph.integral(0) + ph.integral(1) == pytest.approx(
                scale * (d[0] + d[1] - d[2] - d[3]), rel=1e-3, abs=1e-9 * k
            )
            assert pc.integral(0) + pc.integral(1) == pytest.approx(
                scale * (d[0] - d[1] + d[2] - d[3]), rel=1e-3, abs=1e-9 * k
            )

    def test_noise_reproducible_under_seed(self):
        det = Detector(CFG, DetectionSettings(probe_tip_deg=15.0, noise_amp=0.1))
        thermal = populations(thermal_state(CFG))
        a, b = (detect(det, probe_map(det) @ thermal, 3).spectra[0] for _ in range(2))
        assert np.array_equal(a.values, b.values)
        clean = probe(thermal_state(CFG), CFG, 15.0)[0]
        assert not np.array_equal(a.values, clean.values)

    @pytest.mark.parametrize("noise_amp", [0.0, 0.1])
    def test_draw_takes_a_seed_by_the_seed_rule(self, noise_amp):
        det = Detector(CFG, DetectionSettings(noise_amp=noise_amp))
        for seed in (-1, 1.5, True, np.random.default_rng(8)):
            with pytest.raises(ValueError, match="seed must be"):
                det.draw(seed)

    def test_noise_free_draw_takes_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a noise-free draw seeded a generator")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        assert Detector(CFG, DetectionSettings()).draw(8) is None

    def test_draw_takes_two_normals_per_channel(self):
        det = Detector(CFG, DetectionSettings(noise_amp=0.1))
        noise = det.draw(8)
        z = np.random.default_rng(8).standard_normal(4).reshape(1, 2, 2)
        assert noise.shape == (1, 2, 2)
        assert np.array_equal(noise, noise_integrals(det, z))
        assert_line_noise(noise, 0.1, z, det.noise_factor)
        # a lone detection is detection 0 of its seed: children 0 and 1
        vectors = [
            conditioned_noise(det, np.random.SeedSequence(8, spawn_key=(c,)), y)
            for c, y in enumerate(noise[0])
        ]
        assert_noise_spectra(det.noise_spectra(8, noise), np.array([vectors]))
        with pytest.raises(ValueError):
            noise[0, 0, 0] = 1.0

    @pytest.mark.parametrize("seed", [0, 8, 2**32 - 1, 2**70])
    def test_draw_names_the_children_a_spawn_of_its_seed_gives(self, seed):
        # the noise of a seed's lone detection is that of a generator seeded
        # with it whose two channels spawn their child seeds
        det = Detector(CFG, DetectionSettings(n_points=256, noise_amp=0.1))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, 2))
        children = rng.bit_generator.seed_seq.spawn(2)
        noise = det.draw(seed)
        assert np.array_equal(noise[0], noise_integrals(det, z))
        vectors = [
            conditioned_noise(det, child, y) for child, y in zip(children, noise[0], strict=True)
        ]
        assert_noise_spectra(det.noise_spectra(seed, noise), np.array([vectors]))

    @pytest.mark.parametrize(
        "cfg",
        [
            SpinSystemConfig(polarization_unit=1e153),
            SpinSystemConfig(gamma_ratio=1e154),
            SpinSystemConfig(polarization_unit=-1e200),
        ],
        ids=["unit", "gamma", "negative-unit"],
    )
    def test_overflowing_receiver_constant_is_a_readout_error(self, cfg):
        # valid constants whose thermal reference overflows the float range
        # end in a typed error, without a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: Detector(cfg, DetectionSettings()), lambda: calibrate(cfg, 15.0)):
                with pytest.raises(ReadoutError, match="receiver constant overflows"):
                    build()

    @pytest.mark.parametrize("function", [calibrate, probe])
    def test_grid_defaults_are_the_detection_settings(self, function):
        # neither takes a grid: each probes on the default grid of
        # DetectionSettings, as the detector of its tip does
        assert list(inspect.signature(function).parameters)[-1] == "tip_angle_deg"
        det = Detector(CFG, DetectionSettings(probe_tip_deg=12.0))
        if function is calibrate:
            assert calibrate(CFG, 12.0) == det.receiver_constant
        else:
            d = populations(thermal_state(CFG)).tolist()
            want = det.spectra(np.array(det.probe_amplitudes(d)).reshape(2, 2))
            for got, spec in zip(probe(thermal_state(CFG), CFG, 12.0), want, strict=True):
                assert np.array_equal(got.freqs, spec.freqs)
                assert np.array_equal(got.values, spec.values)


def coherent_state(amplitudes) -> DensityMatrix:
    """Hermitian matrix whose H and C doublet coherences are `amplitudes`."""
    m = np.zeros((4, 4), dtype=complex)
    m[2, 0], m[3, 1], m[1, 0], m[3, 2] = amplitudes
    return DensityMatrix(m + m.conj().T)


def fft_spectrum(rho, cfg, channel, n, dt, noise):
    """Reference route: FID, added noise, transform."""
    fid = synthesize_fid(rho, cfg, channel, n_samples=n, dt=dt)
    if noise is not None:
        fid = Fid(channel, dt, fid.samples + noise)
    return spectrum(fid)


def fft_peaks(rho, cfg, channel, n, dt, noise):
    """Reference route with the window sums."""
    return integrate_peaks(fft_spectrum(rho, cfg, channel, n, dt, noise), cfg)


def readout_spectra(rho, cfg, tip_angle_deg=90.0, n_samples=4096, dt=1e-3, noise=(None, None)):
    """FFT reference of the per-channel readout: a y-pulse of any tip on one
    spin at a time, that spin observed, with the H and C noise vectors added."""
    spectra = []
    for channel, channel_noise in zip(Channel, noise):
        state = apply_unitary(rho, pulse_unitary(PulseSpec(channel, tip_angle_deg, phase=90.0)))
        spectra.append(fft_spectrum(state, cfg, channel, n_samples, dt, channel_noise))
    return tuple(spectra)


def reference_windows(det):
    """The window vectors g_+ and g_- of the detector's grid, the (partner 0,
    partner 1) rows G with a line integral of the FID x equal to Re(G x),
    by the time-domain route: a window sum over the shifted spectrum is a
    dot product with the transform of the unshifted mask, times the bin
    width, with the first FID point halved. The reference of the grid
    map's response and noise factor and of the noise conditioning."""
    freqs = readout._frequency_axis(det.settings.n_points, det.settings.dwell)
    masks = np.array(readout._line_windows(freqs, det.cfg), dtype=float)
    windows = (freqs[1] - freqs[0]) * np.fft.fft(np.fft.ifftshift(masks, axes=1), axis=1)
    windows[:, 0] *= 0.5
    return windows


def conditioned_noise(det, child, y):
    """Reference draw of one channel's noise vector: white noise from the
    child seed `child`, conditioned on its line integrals y through the
    reference window vectors G and their Gram matrix Re(G Gᴴ)."""
    amp, n = det.settings.noise_amp, det.settings.n_points
    rng = np.random.default_rng(child)
    m = rng.normal(0.0, amp, n) + 1j * rng.normal(0.0, amp, n)
    windows = reference_windows(det)
    cov = (windows @ windows.conj().T).real
    return m - np.linalg.solve(cov, (windows @ m).real - y) @ windows.conj()


def reference_noise(det, seed, integrals):
    """Reference (detection, channel, sample) noise vectors of detections 0,
    1, … of `seed`: channel c of detection i drawn from the child seed
    `SeedSequence(seed, spawn_key=(2i + c,))`, conditioned on its (channel,
    line) integrals. The library keeps only their transforms, which
    `assert_noise_spectra` holds to these."""
    return np.array([
        [conditioned_noise(det, np.random.SeedSequence(seed, spawn_key=(2 * i + c,)), y)
         for c, y in enumerate(row)]
        for i, row in enumerate(integrals)
    ])


def assert_line_noise(noise, amp, z, factor):
    """`noise` is amp · z Lᵀ of the normals z and noise factor L, to the
    round-off of one product: the detector sums Python float products, and
    BLAS's matmul may fuse a multiply-add, so each entry may round apart by
    up to 2 eps of the magnitudes of its products."""
    a = amp * np.asarray(z)
    bound = 2 * np.finfo(float).eps * (np.abs(a) @ np.abs(factor).T)
    assert (np.abs(noise - a @ factor.T) <= bound).all()


def assert_noise_spectra(spectra, vectors):
    """`Detector.noise_spectra` are the transforms of the reference vectors,
    within 1e-15 of their largest entry, and read-only. The library
    conditions in the frequency domain and the reference in the time
    domain, so the two agree to round-off, not bit for bit."""
    want = readout._transform(vectors)
    assert spectra.shape == want.shape
    assert np.abs(spectra - want).max() <= 1e-15 * np.abs(want).max()
    assert not spectra.flags.writeable


class Found(NamedTuple):
    """One detection of both channels: the (channel, partner) integrals, the
    H and C spectra, and the drawn (channel, line) noise integrals and the
    (channel, sample) reference noise vectors, both None with noise off."""

    integrals: np.ndarray
    spectra: tuple
    noise: np.ndarray | None
    vectors: np.ndarray | None


def detect(det, amplitudes, seed=None) -> Found:
    """Detection of (channel, line) amplitudes against the noise of
    `det.draw(seed)`, through the detector's one spectra route, whose noise
    spectra are those of the reference vectors."""
    noise = None if seed is None else det.draw(seed)
    if noise is None:
        return Found(det.line_integrals(amplitudes), det.spectra(amplitudes), None, None)
    spectra, vectors = det.noise_spectra(seed, noise), reference_noise(det, seed, noise)
    assert_noise_spectra(spectra, vectors)
    return Found(
        det.line_integrals(amplitudes) + noise[0], det.spectra(amplitudes, spectra[0]), noise[0],
        vectors[0],
    )


def detection(det, rho, seed=None) -> Found:
    """Detection of both channels with `rho` as the state at their receivers."""
    return detect(det, np.array([coherences(rho, channel) for channel in Channel]), seed)


def noise_vectors(found: Found):
    """The H and C receiver noise vectors of a detection, None when noise is off."""
    return (None, None) if found.vectors is None else found.vectors


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# R's entries as indices into (a, b, -a, -b), rows H partner 0, 1, then C
RELATION_ENTRIES = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [0, 2, 1, 3], [1, 3, 0, 2]])


def probe_response_matrix(tip):
    """The probe relations R of a tip as the 4×4 array the detector built
    before its float build: a = sin(tip)/2 · cos²(tip/2) and b = sin(tip)/2
    · sin²(tip/2) from `math`, placed as ±a and ±b."""
    theta = math.radians(tip)
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    sc = s * c
    a, b = sc * c * c, sc * s * s
    return np.array((a, b, -a, -b)).take(RELATION_ENTRIES)


def probe_map(det):
    """The probe relations R of a detector as a (channel, line, population)
    array, built from its float entries ±a and ±b."""
    a, b = det._tip
    return np.array((a, b, -a, -b)).take(RELATION_ENTRIES).reshape(2, 2, 4)


def probe_solve(det):
    """The 4×4 solve matrix S of a detector, from its float rows."""
    return np.array(det._solve)


def probe_integrals(det, d):
    """`Detector.probe_lines` of the (..., 4) deviation diagonals d as a
    (..., channel, partner) array."""
    d = np.asarray(d, dtype=float)
    if d.shape[-1:] != (4,):
        raise ValueError("the probe takes the deviation diagonal of a two-spin state")
    return np.array(det.probe_lines(d.ravel().tolist())).reshape(*d.shape[:-1], 2, 2)


def noise_integrals(det, normals):
    """`Detector.line_noise` of standard normals z (..., channel, 2), H
    first, as the (..., channel, line) integrals of white noise."""
    z = np.asarray(normals, dtype=float)
    return np.array(det.line_noise(z.ravel().tolist())).reshape(z.shape)


def array_probe_solve(relations, k, scale=1.0):
    """The solve matrix S of the relations R at receiver constant k, and the
    round-off level, as array arithmetic: the tip-free parts P and Q of R⁺
    over 2(a + b)k and 4(a - b)k."""
    a, b = relations[0, :2].tolist()
    solve = PINV_P / (2 * (a + b) * k) + PINV_Q / (4 * (a - b) * k)
    row_scale = abs(k) * max(abs(a), abs(b))
    return solve, 16.0 * sys.float_info.epsilon * row_scale * scale


def matmul_probe_amplitudes(tip, d):
    """The (..., channel, line) probe amplitudes of (..., 4) diagonals d as
    the detector computed them before its float build: `probe_map @ d`."""
    probe_map = probe_response_matrix(tip).reshape(2, 2, 4)
    return (probe_map @ np.asarray(d, dtype=float)[..., None, :, None])[..., 0]


def matmul_probe_integrals(det, d):
    """The (..., channel, partner) probe integrals of (..., 4) diagonals d
    as the detector computed them before its float build: the
    `matmul_probe_amplitudes`, then `@ response.T` and the real part,
    numpy's warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = matmul_probe_amplitudes(det.settings.probe_tip_deg, d)
        return (amplitudes @ det.response.T).real


def reference_probe_setting(cfg, n_points, dwell, tip):
    """The probe map, K, solve matrix S and round-off level of one setting,
    in the Python float arithmetic of `Detector.__post_init__`, written as
    the general products: m = R·d over R's rows for the thermal reference d,
    y = Re(response)·m per channel and K = Σ y·m / Σ m·m, each sum in index
    order: the reference of `Detector.__post_init__`, bit for bit."""
    relations = probe_response_matrix(tip)
    ref = enhanced_deviations(cfg, 1.0, 1.0).tolist()
    response = readout._grid_map(cfg, n_points, dwell)[3].real.tolist()
    m = [r[0] * ref[0] + r[1] * ref[1] + r[2] * ref[2] + r[3] * ref[3]
         for r in relations.tolist()]
    y = [row[0] * m[c] + row[1] * m[c + 1] for c in (0, 2) for row in response]
    fit = y[0] * m[0] + y[1] * m[1] + y[2] * m[2] + y[3] * m[3]
    denom = m[0] * m[0] + m[1] * m[1] + m[2] * m[2] + m[3] * m[3]
    if denom < sys.float_info.min:
        raise ReadoutError("thermal reference produced no signal")
    k = fit / denom
    if not math.isfinite(k):
        raise ReadoutError("receiver constant overflows; lower polarization_unit or gamma_ratio")
    solve, level = array_probe_solve(relations, k, max(map(abs, ref)))
    return relations.reshape(2, 2, 4), k, solve, level


def numpy_probe_setting(cfg, n_points, dwell, tip):
    """`reference_probe_setting` in the numpy arithmetic the detector used
    before its float build: the reference state, m, y and both sums as array
    products. It rounds differently (K by about an ulp at the defaults), and
    it warns past the float range unless numpy's warnings are off."""
    relations = probe_response_matrix(tip)
    probe_map = relations.reshape(2, 2, 4)
    ref = enhanced_deviations(cfg, 1.0, 1.0)
    y = ((probe_map @ ref) @ readout._grid_map(cfg, n_points, dwell)[3].T).real
    m = relations @ ref
    denom, fit = float(m @ m), float(y.ravel() @ m)
    if denom < np.finfo(float).tiny:
        raise ReadoutError("thermal reference produced no signal")
    k = fit / denom
    if not np.isfinite(k):
        raise ReadoutError("receiver constant overflows; lower polarization_unit or gamma_ratio")
    solve, level = array_probe_solve(relations, k, float(np.abs(ref).max()))
    return probe_map, k, solve, level


# the deviation patterns e, f, g and the two tip-free parts of R⁺
E_PATTERN, F_PATTERN, G_PATTERN = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0
PINV_P = np.outer(E_PATTERN, [1, 1, 0, 0]) + np.outer(F_PATTERN, [0, 0, 1, 1])
PINV_Q = np.outer(G_PATTERN, [1, -1, 1, -1])
# their entries as float pairs, row by row
PINV_PAIRS = tuple(zip(PINV_P.ravel().tolist(), PINV_Q.ravel().tolist()))


def pattern_probe_solve(a, b, k, scale=1.0):
    """`readout._probe_solve` as the 16-entry pattern formula: each entry of
    S the tip-free parts' entries over pk = 2(a + b)k and qk = 4(a - b)k,
    summed, in Python floats, with the same refusals and round-off level."""
    if k == 0 or not math.isfinite(k):
        raise ValueError("the receiver constant must be finite and non-zero")
    pk, qk = 2 * (a + b) * k, 4 * (a - b) * k
    if not (pk and qk and math.isfinite(0.5 / pk + 0.5 / qk)):
        raise ReadoutError(readout._SOLVE_PAST_FLOAT_RANGE)
    entries = iter([x / pk + y / qk for x, y in PINV_PAIRS])
    solve = tuple(zip(entries, entries, entries, entries))
    row_scale = abs(k) * max(abs(a), abs(b))
    return solve, readout.ROUNDOFF_MULTIPLE * sys.float_info.epsilon * row_scale * scale


def assert_arithmetics_agree(cfg, n_points, dwell, tip):
    """Both arithmetics refuse alike, with the same text, or build settings
    that agree within the round-off bounds derived below; returns the
    refusal text, or the two receiver constants, float route first. The
    numpy route runs with numpy's warnings off."""
    sides = []
    for route in (reference_probe_setting, numpy_probe_setting):
        try:
            with np.errstate(all="ignore"):
                sides.append(route(cfg, n_points, dwell, tip))
        except ReadoutError as exc:
            sides.append(str(exc))
    new, old = sides
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
        return new
    (map_new, k1, s1, l1), (map_old, k2, s2, l2) = new, old
    assert np.array_equal(map_new, map_old)
    r = np.finfo(float).eps / 2
    # Both routes share a, b and the exact P and Q, and differ in K alone.
    # S = P/(2(a+b)K) + Q/(4(a-b)K): per route each term is x/K or y/K, for
    # x = P/(2 fl(a+b)) and y = Q/(4 fl(a-b)), times (1 + η) with
    # |η| <= 2r/(1 - r) (the product with K and the division), and the sum
    # rounds once more: 3r to first order, 4r with the higher orders. So
    # the routes' S differ by at most
    # |x + y| |K1 - K2| / |K1 K2| + 4r (|x| + |y|) (1/|K1| + 1/|K2|);
    # K1 - K2 is exact (Sterbenz), and 1 + 4r covers the rounding of the
    # bound's own arithmetic.
    a, b = map_new[0, 0, :2].tolist()
    x, y = PINV_P / (2 * (a + b)), PINV_Q / (4 * (a - b))
    bound = (np.abs(x + y) * (abs(k1 - k2) / abs(k1 * k2))
             + 4 * r * (np.abs(x) + np.abs(y)) * (1 / abs(k1) + 1 / abs(k2)))
    assert (np.abs(s1 - s2) <= bound * (1 + 4 * r)).all()
    # the level is c·|K| for c = 16 eps max(a, b) scale, rounded twice per
    # route (r each, and once more for c here): |L1 - L2| <= c |K1 - K2| +
    # 3r c (|K1| + |K2|), with the same 1 + 4r
    scale = max(map(abs, enhanced_deviations(cfg, 1.0, 1.0).tolist()))
    c = 16 * np.finfo(float).eps * max(a, b) * scale
    assert abs(l1 - l2) <= (c * abs(k1 - k2) + 3 * r * c * (abs(k1) + abs(k2))) * (1 + 4 * r)
    return k1, k2


class TestDetector:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        amplitudes=st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_subnormal=False),
            min_size=4,
            max_size=4,
        ),
        n_points=st.integers(256, 8192),
        dwell=st.floats(2e-4, 2e-3),
        j=st.floats(5.0, 400.0),
        t2=st.floats(0.01, 5.0),
        noise_amp=st.sampled_from([0.0, 0.01, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # no signal and no noise: every wanted integral is zero
    @example(amplitudes=[0j] * 4, n_points=256, dwell=0.001953125, j=14.0, t2=1.0,
             noise_amp=0.0, seed=0)
    def test_integrals_equal_the_fft_path(
        self, amplitudes, n_points, dwell, j, t2, noise_amp, seed
    ):
        cfg = SpinSystemConfig(j_coupling=j, t2=t2)
        rho = coherent_state(amplitudes)
        try:
            det = Detector(cfg, DetectionSettings(n_points, dwell, noise_amp=noise_amp))
        except ReadoutError as exc:
            # one window rule: the FFT path rejects the same settings
            with pytest.raises(ReadoutError, match=re.escape(str(exc))):
                fft_peaks(rho, cfg, Channel.H, n_points, dwell, None)
            return
        # The map against the reference route's window vectors G: the
        # response is G times the unit lines, and L Lᵀ is Re(G Gᴴ). Each
        # route rounds its own FFT: on grids of this domain the reference's
        # response is off by up to 3.8e-15 of its largest entry against a
        # 34-digit evaluation, so both are held to the 1e-14 of the spectra
        # below.
        windows = reference_windows(det)
        unit_lines = readout._unit_lines(cfg, n_points, dwell)
        assert relative_gap(det.response, windows @ unit_lines.T) <= 1e-14
        gram = (windows @ windows.conj().T).real
        assert relative_gap(det.noise_factor @ det.noise_factor.T, gram) <= 1e-14
        # the noise spectra against the reference vectors: `detect` holds
        # them within 1e-15
        found = detection(det, rho, seed)
        lines = zip(Channel, found.integrals, found.spectra, noise_vectors(found), strict=True)
        for i, (channel, integrals, spec, noise) in enumerate(lines):
            ref = fft_peaks(rho, cfg, channel, n_points, dwell, noise)
            if np.abs(ref.integrals).max() > 0:
                assert relative_gap(integrals, ref.integrals) <= 1e-9
            else:
                assert np.abs(integrals).max() == 0
            # the map's spectrum is the oracle's, to round-off
            want = fft_spectrum(rho, cfg, channel, n_points, dwell, noise)
            assert spec.channel is channel
            assert np.array_equal(spec.freqs, want.freqs)
            if np.abs(want.values).max() > 0:
                assert relative_gap(spec.values, want.values) <= 1e-14
            else:
                assert np.abs(spec.values).max() == 0
            if noise_amp > 0:
                # the conditioned vector sums to the drawn line integrals
                noise_peaks = integrate_peaks(spectrum(Fid(channel, dwell, noise)), cfg)
                assert relative_gap(noise_peaks.integrals, found.noise[i]) <= 1e-9

    def test_detectors_on_one_grid_share_its_map(self):
        base = Detector(CFG, DetectionSettings())
        grid = readout._grid_map(CFG, 4096, 1e-3)
        maps = (base.response, base.noise_factor, base.amplitude_solve)
        assert all(a is b for a, b in zip(maps, grid[3:6], strict=True))
        # and its floats: Re(response) row by row, and L[0,0], L[1,0], L[1,1]
        lines, factor = grid[6:]
        assert base._lines is lines and base._factor is factor
        assert lines == tuple(grid[3].real.ravel().tolist())
        assert factor == tuple(grid[4].ravel().tolist()[i] for i in (0, 2, 3))
        for settings_ in (DetectionSettings(probe_tip_deg=10.0), DetectionSettings(noise_amp=0.1)):
            det = Detector(CFG, settings_)
            assert det.response is base.response and det.noise_factor is base.noise_factor
            assert det.amplitude_solve is base.amplitude_solve
            assert det._lines is lines and det._factor is factor
        for other in (
            Detector(CFG, DetectionSettings(n_points=2048)),
            Detector(CFG, DetectionSettings(dwell=5e-4)),
            Detector(SpinSystemConfig(j_coupling=200.0), DetectionSettings()),
        ):
            assert other.response is not base.response
            assert not np.array_equal(other.response, base.response)
        for array in grid[:6]:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0

    def test_hash_and_equality_follow_the_settings(self):
        a = Detector(CFG, DetectionSettings())
        readout._grid_map.cache_clear()
        b = Detector(CFG, DetectionSettings())
        # a rebuilt map: distinct arrays, the same values
        assert a.response is not b.response and a.noise_factor is not b.noise_factor
        assert np.array_equal(a.response, b.response)
        assert a == b and hash(a) == hash(b)
        assert a != Detector(CFG, DetectionSettings(noise_amp=0.1))
        assert a != Detector(SpinSystemConfig(j_coupling=200.0), DetectionSettings())

    def test_detection_holds_both_channels_read_only(self):
        det = Detector(CFG, DetectionSettings(noise_amp=0.1))
        d = enhanced_deviations(CFG, -11.0, 18.0)
        noise = det.draw(6)
        transforms = det.noise_spectra(6, noise)
        assert transforms.shape == (1, 2, 4096)
        assert_noise_spectra(transforms, reference_noise(det, 6, noise))
        spectra = det.spectra(probe_map(det) @ d, transforms[0])
        assert probe_integrals(det, d).shape == (2, 2)
        assert [spec.channel for spec in spectra] == list(Channel)
        values = [spec.values[None] for spec in spectra]
        for array in (noise[0], transforms[0], *values):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_spectra_read_the_grid_map_the_detector_built(self):
        # the detector's grid map holds the axis and the unit line spectra,
        # so reading spectra on it builds nothing
        det = Detector(CFG, DetectionSettings())
        amplitudes = probe_map(det) @ populations(thermal_state(CFG))
        misses = readout._grid_map.cache_info().misses
        spec_h, spec_c = det.spectra(amplitudes)
        assert readout._grid_map.cache_info().misses == misses
        freqs, line_spectra = readout._grid_map(CFG, 4096, 1e-3)[:2]
        assert np.array_equal(spec_h.freqs, freqs)
        assert np.array_equal(spec_c.values, (amplitudes @ line_spectra)[1])
        for array in (freqs, line_spectra):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        weights=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=4),
        amplitudes=st.lists(
            st.complex_numbers(max_magnitude=1e3, allow_subnormal=False), min_size=16, max_size=16
        ),
        noise_amp=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectra_are_linear(self, weights, amplitudes, noise_amp, seed):
        # spectra(Σ wᵢ aᵢ, Σ wᵢ nᵢ) = Σ wᵢ spectra(aᵢ, nᵢ) for (channel, line)
        # amplitudes aᵢ and (channel, sample) noise rows nᵢ, the route of a
        # run's weighted sums
        det = Detector(CFG, DetectionSettings(n_points=256))
        w = np.array(weights)
        m = w.size
        a = np.reshape(amplitudes[:4 * m], (m, 2, 2))
        rng = np.random.default_rng(seed)
        n = noise_amp * (rng.standard_normal((m, 2, 256)) + 1j * rng.standard_normal((m, 2, 256)))
        rows = [None] * m if noise_amp == 0 else list(n)
        got = det.spectra(np.tensordot(w, a, 1), None if noise_amp == 0 else np.tensordot(w, n, 1))
        parts = [det.spectra(a_i, n_i) for a_i, n_i in zip(a, rows)]
        # Each term wᵢ·aᵢₗ·Lₗ of an entry (L a unit line spectrum) is rounded
        # by at most m + 2√2 + 2 < m + 5 units u = eps/2 on either side: the
        # sum's product and m - 1 additions, the complex product with L
        # (√2·2u), its one addition and the noise's; or the complex product,
        # the two additions, the product with wᵢ and the m - 1 additions of
        # the sum here. A noise term takes fewer. So the sides differ by at
        # most (m + 5) eps S, first order, for S = Σ |wᵢ| (|aᵢ| |L| + |nᵢ|);
        # one eps more covers the higher orders, and 2(m + 6) half-subnormals
        # the underflow of products of tiny inputs.
        line_spectra = readout._grid_map(CFG, 256, 1e-3)[1]
        scale = sum(abs(w_i) * (np.abs(a_i) @ np.abs(line_spectra) + np.abs(n_i))
                    for w_i, a_i, n_i in zip(w, a, n))
        bound = (m + 6) * np.finfo(float).eps * scale + 2 * (m + 6) * 2.0**-1075
        for c, spec in enumerate(got):
            want = sum(w_i * part[c].values for w_i, part in zip(w, parts))
            assert spec.channel is parts[0][c].channel is list(Channel)[c]
            assert np.array_equal(spec.freqs, parts[0][c].freqs)
            assert (np.abs(spec.values - want) <= bound[c]).all()

    @pytest.mark.parametrize(
        "cache,key",
        [(readout._grid_map, lambda i: (CFG, 1024 + i, 1e-3))],
        ids=["grid"],
    )
    def test_caches_are_bounded(self, cache, key):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None
        for i in range(2 * maxsize):
            cache(*key(i))
        assert cache.cache_info().currsize == maxsize

    def test_settings_that_differ_in_noise_alone_share_one_calibration(self):
        # K comes from a noise-free probe, so the noise level is no part of it
        readout._grid_map.cache_clear()
        quiet, noisy = (Detector(CFG, DetectionSettings(noise_amp=a)) for a in (0.0, 0.1))
        info = readout._grid_map.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert quiet.receiver_constant == noisy.receiver_constant == calibrate(CFG, 15.0)
        assert np.array_equal(probe_map(quiet), probe_map(noisy))
        assert np.array_equal(probe_solve(quiet), probe_solve(noisy))
        assert quiet.roundoff == noisy.roundoff

    def test_one_probe_setting_takes_one_entry_however_it_is_named(self):
        readout._grid_map.cache_clear()
        k = {
            calibrate(CFG, 15.0),
            Detector(CFG, DetectionSettings(n_points=4096)).receiver_constant,
            Detector(CFG, DetectionSettings(4096, 1e-3, 15.0)).receiver_constant,
            Detector(CFG, DetectionSettings(noise_amp=0.1)).receiver_constant,
        }
        info = readout._grid_map.cache_info()
        assert (info.currsize, info.misses, len(k)) == (1, 1, 1)

    def test_detector_holds_its_probe_setting(self):
        det = Detector(CFG, DetectionSettings(probe_tip_deg=12.0, noise_amp=0.1))
        relations = probe_response_matrix(12.0)
        k = det.receiver_constant
        assert k == calibrate(CFG, 12.0)
        assert np.array_equal(probe_map(det), relations.reshape(2, 2, 4))
        scale = float(np.abs(enhanced_deviations(CFG, 1.0, 1.0)).max())
        solve, roundoff = array_probe_solve(relations, k, scale)
        assert np.array_equal(probe_solve(det), solve) and det.roundoff == roundoff
        with pytest.raises(ValueError):
            det.amplitude_solve.flat[0] = 1.0

    @pytest.mark.parametrize(
        "unit", [1.0, 1e-100, 3.7e50, 0.0, 1e-154, 1e153], ids=lambda u: f"u={u:g}"
    )
    def test_probe_setting_is_the_reference_arithmetic(self, unit):
        # bit for bit, and the two range rules with their texts, on both
        # gamma ratios, two grids and tips across the range
        for gamma, n_points, tip in itertools.product(
            (4.0, 3.976), (1024, 4096), (0.01, 1.7, 7.3, 15.0, 25.0)
        ):
            cfg = SpinSystemConfig(gamma_ratio=gamma, polarization_unit=unit)
            try:
                want = reference_probe_setting(cfg, n_points, 1e-3, tip)
            except ReadoutError as exc:
                with pytest.raises(ReadoutError, match=f"^{re.escape(str(exc))}$"):
                    Detector(cfg, DetectionSettings(n_points, probe_tip_deg=tip))
                continue
            det = Detector(cfg, DetectionSettings(n_points, probe_tip_deg=tip))
            got = (probe_map(det), det.receiver_constant, probe_solve(det), det.roundoff)
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        gamma=st.floats(0.25, 20.0),
        j=st.floats(50.0, 500.0),
        t2=st.floats(0.05, 5.0),
        log_unit=st.floats(-170.0, 170.0),
        n_points=st.sampled_from([1024, 2048, 4096]),
        bin_frac=st.floats(0.05, 0.6),
        tip=st.floats(0.01, PROBE_TIP_MAX),
    )
    def test_float_build_is_the_numpy_arithmetic_up_to_round_off(
        self, gamma, j, t2, log_unit, n_points, bin_frac, tip
    ):
        # the two arithmetics refuse the same settings with the same text;
        # where both build one, S and the round-off level agree within the
        # bounds of `assert_arithmetics_agree`, and in the normal range
        # (polarization_unit 1e-100 to 1e100) both K lie within the bound
        # of `test_calibration_is_a_grid_constant`
        cfg = SpinSystemConfig(gamma, j, t2, 10.0**log_unit)
        dwell = bin_frac / j
        outcome = assert_arithmetics_agree(cfg, n_points, dwell, tip)
        if isinstance(outcome, str) or abs(log_unit) > 100:
            return
        real = readout._grid_map(cfg, n_points, dwell)[3].real
        bound = 6 * np.finfo(float).eps * np.abs(real).sum()
        for k in outcome:
            assert abs(k - real.sum() / 2) <= bound

    @pytest.mark.parametrize(
        "values,refusal",
        [
            ({"polarization_unit": 0.0}, "thermal reference produced no signal"),
            ({"polarization_unit": 1e-154}, "thermal reference produced no signal"),
            ({"polarization_unit": 2e-154}, None),
            ({"polarization_unit": 1e152}, None),
            ({"polarization_unit": 1e153}, "receiver constant overflows"),
            ({"gamma_ratio": 1e154}, "receiver constant overflows"),
        ],
        ids=["u=0", "u=1e-154", "u=2e-154", "u=1e152", "u=1e153", "gamma=1e154"],
    )
    def test_both_arithmetics_refuse_alike_at_the_range_edges(self, values, refusal):
        # the README's thresholds hold at the default setting, and at tips
        # and grids across the range both routes and the detector agree
        cfg = SpinSystemConfig(**values)
        outcome = assert_arithmetics_agree(cfg, 4096, 1e-3, 15.0)
        assert outcome.startswith(refusal) if refusal else not isinstance(outcome, str)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n_points, tip in itertools.product((1024, 4096), (0.01, 1.7, 15.0, 25.0)):
                outcome = assert_arithmetics_agree(cfg, n_points, 1e-3, tip)
                if isinstance(outcome, str):
                    with pytest.raises(ReadoutError, match=f"^{re.escape(outcome)}$"):
                        Detector(cfg, DetectionSettings(n_points, probe_tip_deg=tip))
                else:
                    det = Detector(cfg, DetectionSettings(n_points, probe_tip_deg=tip))
                    assert det.receiver_constant == outcome[0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        gamma=st.floats(0.25, 20.0),
        j=st.floats(50.0, 500.0),
        t2=st.floats(0.05, 5.0),
        log_unit=st.floats(-100.0, 100.0),
        n_points=st.sampled_from([1024, 2048, 4096]),
        bin_frac=st.floats(0.05, 0.6),
        tip=st.floats(0.01, PROBE_TIP_MAX),
    )
    def test_calibration_is_a_grid_constant(
        self, gamma, j, t2, log_unit, n_points, bin_frac, tip
    ):
        # The thermal reference's line amplitudes m are α_c (1, 1) per
        # channel, exactly for its stored entries (d2 = -d1, d3 = -d0), so
        # the fit K = Σ y·m / Σ m·m is Σ Re(response) / 2 in exact
        # arithmetic, at every tip and scale. To first order in the unit
        # round-off r = eps/2, with N = Σ|Re(response)|, rounding moves K
        # by at most: the amplitudes' two 4-term products, 2 · 4r · N ·
        # 0.604 (the largest (|α_H| + |α_C|) max|α_c| / (2 Σ α_c²)); the
        # 2-term response products, 2r · N/2; the dots y·m and m·m, 4r · N/2
        # each; the division, r · N/2; and the 3 additions of the sum here,
        # 3r · N/2: 11.9r < 6 eps in all. A polarization_unit from 1e-100 to
        # 1e100 keeps every product a normal float, where these bounds hold.
        cfg = SpinSystemConfig(gamma, j, t2, 10.0**log_unit)
        det = Detector(cfg, DetectionSettings(n_points, bin_frac / j, tip))
        real = det.response.real
        bound = 6 * np.finfo(float).eps * np.abs(real).sum()
        assert abs(det.receiver_constant - real.sum() / 2) <= bound

    def test_new_tip_builds_no_pulse_and_no_decomposition(self, monkeypatch):
        # the probe setting of a tip not seen before, on a cached grid, is
        # built from the closed-form relations alone, its calibration in
        # Python floats: no reference state, no numpy error state and no
        # float-type query
        Detector(CFG, DetectionSettings())
        misses = readout._grid_map.cache_info().misses

        def forbidden(*args, **kwargs):
            raise AssertionError("a new probe setting built a pulse or a state, decomposed a "
                                 "matrix or entered numpy's float handling")

        for module in (*MODULES, np.linalg, np):
            for name in ("pulse_unitary", "apply_unitary", "pinv", "svd", "enhanced_deviations",
                         "errstate", "finfo"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        det = Detector(CFG, DetectionSettings(probe_tip_deg=7.3))
        assert readout._grid_map.cache_info().misses == misses
        assert np.array_equal(probe_map(det), probe_response_matrix(7.3).reshape(2, 2, 4))

    @pytest.mark.parametrize("dwell", [5e-324, 1e-310, 2.8e-309, 1e-300])
    def test_grid_with_bins_wider_than_a_window_is_too_coarse(self, dwell):
        # refused before its frequency axis, which leaves the float range
        # below dwell ~3e-309, so numpy warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for detection in (DetectionSettings(dwell=dwell), DetectionSettings(256, dwell)):
                with pytest.raises(ReadoutError, match="^spectral resolution too coarse"):
                    Detector(CFG, detection)

    @pytest.mark.parametrize(
        "j,dwell,n_points,message",
        [
            # the windows of this one hold one bin each
            (1e308, 2e-314, 2**20, "spectral resolution too coarse for peak windows"),
            (1e308, 1e-312, 2**20, "frequency axis leaves the float range; increase dwell_s"),
            (1.7e308, 1e-310, 4096, "frequency axis leaves the float range; increase dwell_s"),
            (1e305, 1e-310, 2**20, "frequency axis leaves the float range; increase dwell_s"),
            (1e304, 2e-309, 2**20, "frequency axis leaves the float range; increase dwell_s"),
            (1e308, 5e-309, 4096, "line phase rate leaves the float range; lower j_hz"),
            # subnormal dwells the axis admits, whose df times the window
            # sums (~1/dwell) overflows
            (1e307, 3e-309, 256, "window integrals leave the float range; increase dwell_s"),
            (1e307, 4.7e-309, 256, "window integrals leave the float range; increase dwell_s"),
            # finite window integrals (the largest ~1.7e308) whose half sum,
            # the receiver constant of every reference, overflows
            (1e307, 4.5e-309, 4096, "receiver constant leaves the float range; increase dwell_s"),
        ],
    )
    def test_grid_past_the_float_range_is_refused_first(self, j, dwell, n_points, message):
        # these grids built maps of inf and NaN, with numpy warnings, and
        # most ended in a receiver constant error that blamed other keys
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReadoutError, match=f"^{re.escape(message)}$"):
                Detector(SpinSystemConfig(j_coupling=j), DetectionSettings(n_points, dwell))

    @pytest.mark.parametrize("n_points", [256, 4096])
    def test_subnormal_dwells_never_blame_the_reference(self, n_points):
        # across the subnormal dwells the axis admits at a huge J, a grid
        # builds a detector at the default reference or is refused in words
        # that name the grid, never polarization_unit
        cfg = SpinSystemConfig(j_coupling=1e307)
        outcomes = collections.Counter()
        for dwell in np.linspace(2.8e-309, 4.9e-309, 211).tolist():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    Detector(cfg, DetectionSettings(n_points, dwell))
                    outcomes["built"] += 1
                except ReadoutError as exc:
                    outcomes[str(exc)] += 1
        assert set(outcomes) == {
            "built",
            "window integrals leave the float range; increase dwell_s",
            "receiver constant leaves the float range; increase dwell_s",
        }

    @pytest.mark.parametrize("n_points", [256, 257, 4096, 4097])
    def test_axis_rule_is_numpy_rounding(self, n_points):
        # the axis rule refuses a dwell exactly when numpy's axis would
        # leave the float range, to the last bit, on both sides of the edge
        cfg = SpinSystemConfig(j_coupling=3e307)
        dwells = [(n_points // 2) / n_points / np.finfo(float).max]
        for _ in range(4):
            dwells = [np.nextafter(dwells[0], 0.0), *dwells, np.nextafter(dwells[-1], 1.0)]
        outcomes = set()
        for dwell in map(float, dwells):
            with np.errstate(over="ignore"):
                finite = bool(np.isfinite(np.fft.fftfreq(n_points, dwell)).all())
            # the grids the rule admits here overflow later (the grid scale
            # has no rule yet), so only the rule's own refusal is read
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    Detector(cfg, DetectionSettings(n_points, dwell))
                    refused = False
                except ReadoutError as exc:
                    refused = str(exc).startswith("frequency axis")
            assert refused is not finite
            outcomes.add(finite)
        assert outcomes == {True, False}

    def test_phase_rule_is_numpy_rounding(self):
        # likewise the phase rule and the rate 2π·(J/2) of the unit lines
        js = [np.finfo(float).max / np.pi]
        for _ in range(4):
            js = [np.nextafter(js[0], 0.0), *js, np.nextafter(js[-1], np.inf)]
        outcomes = set()
        for j in map(float, js):
            finite = math.isfinite((2j * np.pi * (j / 2.0)).imag)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    Detector(SpinSystemConfig(j_coupling=j), DetectionSettings(4096, 5e-309))
                    refused = False
                except ReadoutError as exc:
                    refused = str(exc).startswith("line phase rate")
            assert refused is not finite
            outcomes.add(finite)
        assert outcomes == {True, False}

    def test_reference_without_signal_is_a_readout_error(self):
        cfg = SpinSystemConfig(polarization_unit=0.0)
        with pytest.raises(ReadoutError, match="thermal reference produced no signal"):
            calibrate(cfg, 15.0)
        with pytest.raises(ReadoutError, match="thermal reference produced no signal"):
            Detector(cfg, DetectionSettings())

    def test_every_cache_is_bounded(self):
        # every cache of the package, found by walking its modules
        caches = [
            (f"{module.__name__}.{name}", obj)
            for module in MODULES
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info")
        ]
        assert len({id(obj) for _, obj in caches}) >= 7
        for name, cache in caches:
            assert cache.cache_info().maxsize is not None, name
        # the kept preparation is one entry: a second setting replaces the first
        for seed in (1, 2):
            experiments.run_effective_pure_pipeline(
                spinoeqc.SpinoeParams(seed=seed), CFG, spinoeqc.ScheduleMode.SINGLE_SAMPLE)
        ((key, _, prep),) = experiments._kept
        assert key[0].seed == prep.seed == 2
        # the trajectories' cache, 4 deep, keeps at most one amplitude stack
        # per ground: 4 × 4 in all
        assert dict(caches)["spinoeqc.experiments._trajectory"].cache_info().maxsize == 4
        states, _, stacks = experiments._trajectory(-11.0, 18.0, 900.0, CFG, (0.0, 120.0, 240.0))
        for ground in (*range(4), *range(4)):
            prep = types.SimpleNamespace(
                result=types.SimpleNamespace(ground=ground), amplitude_stacks=stacks,
                deviations=states,
            )
            experiments.Preparation.amplitude_stack.fget(prep)
        assert sorted(stacks) == [0, 1, 2, 3]

    def test_grid_map_cache_is_bounded(self):
        maxsize = readout._grid_map.cache_info().maxsize
        assert maxsize is not None
        for n_points in range(1024, 1024 + 2 * maxsize):
            Detector(CFG, DetectionSettings(n_points=n_points))
        assert readout._grid_map.cache_info().currsize == maxsize

    def test_probe_and_readout_match_their_spectra(self):
        det = Detector(CFG, DetectionSettings(probe_tip_deg=15.0, noise_amp=0.05))
        rho = enhanced_state(CFG, -11.0, 18.0)
        probe_found = detect(det, probe_map(det) @ populations(rho), 4)
        identity = readout_map(Unitary(np.eye(4)))
        readout_found = detect(det, identity @ populations(rho), 5)
        pairs = [
            (probe_found,
             [fft_spectrum(probed(rho, 15.0), CFG, channel, 4096, 1e-3, noise)
              for channel, noise in zip(Channel, noise_vectors(probe_found))]),
            (readout_found, readout_spectra(rho, CFG, noise=noise_vectors(readout_found))),
        ]
        for found, spectra in pairs:
            for integrals, got, want in zip(found.integrals, found.spectra, spectra, strict=True):
                # same noise vector: the map's spectrum is the oracle's to
                # round-off, and it integrates to the detection's integrals
                assert relative_gap(got.values, want.values) <= 1e-14
                assert np.array_equal(got.freqs, want.freqs)
                assert relative_gap(integrals, integrate_peaks(got, CFG).integrals) <= 1e-12

    def test_probe_takes_a_diagonal_state(self):
        det = Detector(CFG, DetectionSettings(noise_amp=0.1))
        probe_integrals(det, populations(thermal_state(CFG)))
        # a (4, 4) array is a batch of four diagonals
        assert probe_integrals(det, np.eye(4) / 4).shape == (4, 2, 2)
        for d in (np.full(2, 0.5), np.ones((4, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match="the probe takes the deviation diagonal"):
                probe_integrals(det, d)
        # a density matrix reaches detection only through `probe`, which
        # rejects coherences
        for rho in (coherent_state([0.1, 0, 0, 0]), DensityMatrix(np.eye(2) / 2)):
            with pytest.raises(ValueError, match="the probe takes a diagonal two-spin state"):
                probe(rho, CFG, 15.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        tip=st.floats(1e-3, PROBE_TIP_MAX),
        deviation=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    )
    def test_probe_map_equals_the_pulsed_state(self, tip, deviation):
        d = np.array(deviation) - np.mean(deviation)
        assume(np.abs(d).max() >= 0.05)
        rho = DensityMatrix.from_diagonal(0.25 + d)
        det = Detector(CFG, DetectionSettings(probe_tip_deg=tip))
        got = probe_integrals(det, populations(rho))
        # the eager route: the pulse through `apply_unitary`, then the coherences
        want = np.array([
            (det.response @ coherences(probed(rho, tip), channel)).real
            for channel in Channel
        ])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_batched_probe_is_the_probe_reconstructed(self):
        # a pipeline's probes: noise-free integrals plus the integrals of the
        # normals a draw takes, then the reconstruction of each probe
        det = Detector(CFG, DetectionSettings(probe_tip_deg=12.0, noise_amp=0.05))
        d = populations(enhanced_state(CFG, -11.0, 18.0))
        seeds = (5, 6, 7)
        normals = np.array([np.random.default_rng(seed).standard_normal((2, 2)) for seed in seeds])
        noise = noise_integrals(det, normals)
        got = [det.reconstruct(y) for y in (probe_integrals(det, d) + noise).reshape(3, 4).tolist()]
        for row, seed in zip(got, seeds):
            found = detect(det, probe_map(det) @ d, seed)
            want = reconstruct_diagonal(*map(PeakTable, found.integrals), 12.0,
                                        det.receiver_constant)
            assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()

    def test_projected_draw_has_the_law_of_white_noise(self):
        # both routes to the line integrals of white noise, 10^4 detections
        # each on a 256-point grid, agree in covariance within sampling error
        amp, n_draws = 0.3, 10_000
        det = Detector(CFG, DetectionSettings(n_points=256, noise_amp=amp))
        windows = reference_windows(det)
        projected = np.concatenate([det.draw(seed)[0] for seed in range(n_draws)])
        rng, full = np.random.default_rng(2027), []
        for _ in range(2 * n_draws // 1000):
            real, imag = rng.normal(0.0, amp, (2, 1000, 256))
            full.append(((real + 1j * imag) @ windows.T).real)
        full = np.concatenate(full)
        want = amp**2 * (det.noise_factor @ det.noise_factor.T)
        assert_allclose(want, amp**2 * (windows @ windows.conj().T).real, rtol=1e-12)
        # standard errors of a sample mean and covariance entry of Gaussian data
        mean_err = np.sqrt(np.diag(want) / (2 * n_draws))
        stderr = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / (2 * n_draws))
        for sample in (projected, full):
            assert (np.abs(sample.mean(axis=0)) <= 5 * mean_err).all()
            assert (np.abs(np.cov(sample.T) - want) <= 5 * stderr).all()
        assert (np.abs(np.cov(projected.T) - np.cov(full.T)) <= 5 * np.sqrt(2) * stderr).all()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64),
        n=st.integers(1, 4),
        normals=st.lists(st.floats(-5.0, 5.0), min_size=32, max_size=32),
        amplitudes=st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_subnormal=False), min_size=4, max_size=4
        ),
    )
    def test_noise_rows_are_named_by_seed_and_index(self, seed, n, normals, amplitudes):
        # row i of a seed's noise is detection i of that seed, whatever the
        # batch holds besides, and it adds its own integrals to the lines
        det = Detector(CFG, DetectionSettings(n_points=256, noise_amp=0.1))
        drawn = noise_integrals(det, np.reshape(normals, (8, 2, 2)))
        y, other = drawn[:n], drawn[4:4 + n]
        rows = det.noise_spectra(seed, y)
        assert rows.shape == (n, 2, 256)
        for k in range(1, n + 1):
            assert np.array_equal(det.noise_spectra(seed, y[:k]), rows[:k])
        for i in range(n):
            mixed = other.copy()
            mixed[i] = y[i]
            assert np.array_equal(det.noise_spectra(seed, mixed)[i], rows[i])
        a = np.reshape(amplitudes, (2, 2))
        clean = [integrate_peaks(spec, CFG).integrals for spec in det.spectra(a)]
        for i in range(n):
            noisy = [integrate_peaks(spec, CFG).integrals for spec in det.spectra(a, rows[i])]
            # the vectors' own round-off: a noise integral is ~ noise_amp |L|
            scale = np.abs(clean).max() + np.abs(y[i]).max() + 0.1 * np.abs(det.noise_factor).max()
            assert np.abs(np.subtract(noisy, clean) - y[i]).max() <= 1e-12 * scale

    def test_conditioned_vector_keeps_the_white_law(self):
        # conditioning on the drawn integrals leaves each vector white: along
        # a direction that mixes both windows with the rest, Re(h · n) has
        # variance amp² |h|²
        amp, n_draws = 0.3, 4_000
        det = Detector(CFG, DetectionSettings(n_points=256, noise_amp=amp))
        rng = np.random.default_rng(2028)
        windows = reference_windows(det)
        h = windows.sum(axis=0) / np.linalg.norm(windows[0])
        h = h + (rng.normal(size=256) + 1j * rng.normal(size=256)) / 16

        def h_vector(seed):
            # the library's H noise vector, read back from its spectrum by
            # the inverse of `_transform`, exact to round-off
            x = np.fft.ifft(np.fft.ifftshift(det.noise_spectra(seed, det.draw(seed))[0, 0]))
            x[0] *= 2.0
            return x

        values = [(h @ h_vector(seed)).real for seed in range(n_draws)]
        want = amp**2 * np.vdot(h, h).real
        assert abs(np.var(values) / want - 1) <= 5 * np.sqrt(2 / n_draws)


EPS = np.finfo(float).eps


@functools.cache
def tip_detector(tip: float) -> Detector:
    """The noise-free detector of a tip on the default grid."""
    return Detector(CFG, DetectionSettings(probe_tip_deg=tip))


def matrix_reconstruct(det, y) -> tuple[np.ndarray, str | None]:
    """The reconstruction as one matrix route, over arrays: S @ y, the
    NaN-propagating max |y| and |g·y|, then the round-off rule and the 5%
    gate. The diagonal and the ReadoutError text, or None."""
    y = np.array(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ymax = np.abs(y).max()
        residual = abs(y @ G_PATTERN)
        diag = probe_solve(det) @ y if ymax > det.roundoff else np.zeros(4)
    if not np.isfinite(ymax):
        return diag, readout._PAST_FLOAT_RANGE
    if ymax > det.roundoff and residual > readout.RECONSTRUCTION_RESIDUAL_FRAC * ymax:
        return diag, f"inconsistent peak data (residual {residual:.3e} vs max integral {ymax:.3e})"
    return diag, None


def float_reconstruct(det, y) -> tuple[list | None, str | None]:
    """`Detector.reconstruct` of four floats, as (diagonal, None) or (None,
    the text of its ReadoutError)."""
    try:
        return det.reconstruct([float(v) for v in y]), None
    except ReadoutError as exc:
        return None, str(exc)


def near_gate(det, y) -> bool:
    """Whether y passes the round-off rule with |g·y| within a few ulps of
    5% of max |y|, where two routes' round-off may decide the gate apart."""
    a = np.abs(np.array(y, dtype=float))
    if not np.isfinite(a).all() or not a.max() > det.roundoff:
        return False
    threshold = readout.RECONSTRUCTION_RESIDUAL_FRAC * a.max()
    residual = abs(0.5 * y[0] - 0.5 * y[1] - 0.5 * y[2] + 0.5 * y[3])
    # 8 eps of the largest sum of the products |0.5 y_j|, 2 max |y|
    return abs(residual - threshold) <= 16 * EPS * a.max()


@st.composite
def probe_rows(draw):
    """A detector and four probe integrals: generated rows at scales
    1e-300..1e300 (mostly inconsistent), consistent rows K·R·d at those
    scales, rows at the round-off level, rows with a NaN or ±inf entry, and
    consistent rows near the float range at the tip whose S is largest, so
    that S y overflows."""
    kind = draw(st.sampled_from(["scaled", "consistent", "roundoff", "nonfinite", "overflowing"]))
    det = tip_detector(0.01 if kind == "overflowing" else draw(st.sampled_from([0.01, 15.0, 25.0])))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    if kind == "roundoff":
        return det, (2.0 * det.roundoff * x).tolist()
    if kind != "scaled":
        x = det.receiver_constant * probe_map(det).reshape(4, 4) @ x
        assume(np.abs(x).max() > 0)
        x /= np.abs(x).max()
    if kind == "overflowing":  # the diagonal is ~20 times the integrals at this tip
        scale = draw(st.floats(0.2, 1.7)) * 1e308
    else:
        scale = 10.0 ** draw(st.integers(-300, 300))
    y = (x * scale).tolist()
    if kind == "nonfinite":
        for i in draw(st.sets(st.integers(0, 3), min_size=1)):
            y[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return det, y


class TestReconstruction:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(row=probe_rows())
    # a consistent row near the float range whose last entry the float route
    # sums to a finite 1.19e308 and the matrix route overflows: the exact-sum
    # rule below runs whatever examples the strategy draws
    @example(row=(tip_detector(0.01), [-3.37360363030355e+307, 6.839182553343926e+306,
                                       -3.75e+307, 3.0752188563794326e+306]))
    def test_float_routine_is_the_matrix_route(self, row):
        # the per-probe float arithmetic against the matrix route: the same
        # gate decision and error text, and the diagonal within 4 eps of the
        # magnitudes Σ|S_ij y_j| of its products (BLAS orders and fuses the
        # products its own way); overflowing entries are past the float range
        # in both. BLAS may sum a row pairwise, whose partial sums can
        # overflow where the left-to-right sum does not: a finite float entry
        # whose matrix entry is not finite is held to the exact sum of its
        # products instead. Rows within a few ulps of the 5% boundary may be
        # decided apart; they are left to the test below.
        det, y = row
        assume(not near_gate(det, y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_error = float_reconstruct(det, y)
        want, want_error = matrix_reconstruct(det, y)
        assert got_error == want_error
        if got_error is None:
            got = np.array(got)
            with np.errstate(over="ignore", invalid="ignore"):
                bound = 4 * EPS * np.abs(probe_solve(det) * np.array(y)).sum(axis=1)
                gap = np.abs(got - want)
            past = ~np.isfinite(got) & ~np.isfinite(want)
            overflowed = np.isfinite(got) & ~np.isfinite(want)
            for i in np.flatnonzero(overflowed):
                products = [fractions.Fraction(s) * fractions.Fraction(v)
                            for s, v in zip(det._solve[i], y)]
                exact_gap = abs(fractions.Fraction(got[i]) - sum(products))
                assert exact_gap <= 4 * fractions.Fraction(EPS) * sum(map(abs, products))
            assert ((got == want) | past | overflowed | (gap <= bound)).all()

    def test_routes_part_only_within_ulps_of_the_gate(self):
        # rows stepped ulp by ulp across the 5% boundary: y0 = 1 is the
        # largest integral, and y3 puts g·y = (y0 - y1 - y2 + y3)/2 at 5%.
        # Both routes decide each row as exact arithmetic on its floats does,
        # except rows whose exact residual lies within a few ulps of the
        # threshold: there each route's own round-off may tip the gate
        det = tip_detector(15.0)
        frac, exact = readout.RECONSTRUCTION_RESIDUAL_FRAC, fractions.Fraction
        rng = np.random.default_rng(35)
        sides, within = set(), 0
        for y1, y2 in rng.uniform(0.0, 0.5, (40, 2)).tolist():
            y3 = 2 * frac - (1.0 - y1 - y2)
            for _ in range(32):
                y3 = math.nextafter(y3, -math.inf)
            for _ in range(65):
                y = [1.0, y1, y2, y3]
                residual = abs(sum(exact(v) * sign for v, sign in zip(y, (1, -1, -1, 1)))) / 2
                threshold = exact(frac * 1.0)
                rejected = residual > threshold
                routes = [float_reconstruct(det, y)[1] is not None,
                          matrix_reconstruct(det, y)[1] is not None]
                if abs(residual - threshold) > 4 * EPS * sum(map(abs, y)) / 2:
                    assert routes == [rejected, rejected], y
                    sides.add(rejected)
                else:
                    within += 1
                y3 = math.nextafter(y3, math.inf)
        # rows on both sides of the band are decided, and rows inside it exist
        assert sides == {False, True} and within > 0

    def test_calibration_identity_on_thermal(self):
        k = calibrate(CFG, 15.0)
        spec_h, spec_c = probe(thermal_state(CFG), CFG, 15.0)
        diag = reconstruct_diagonal(
            integrate_peaks(spec_h, CFG), integrate_peaks(spec_c, CFG), 15.0, k
        )
        assert_allclose(diag, [2.5, 1.5, -1.5, -2.5], atol=1e-9)

    def test_round_trip_enhanced_demonstration_state(self):
        k = calibrate(CFG, 15.0)
        rho = enhanced_state(CFG, -11.0, 18.0)
        spec_h, spec_c = probe(rho, CFG, 15.0)
        diag = reconstruct_diagonal(
            integrate_peaks(spec_h, CFG), integrate_peaks(spec_c, CFG), 15.0, k
        )
        assert_allclose(diag, [-13.0, -31.0, 31.0, 13.0], rtol=0.01, atol=1e-8)

    def test_round_trip_random_traceless(self):
        k = calibrate(CFG, 14.0)
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = rng.normal(size=4)
            d -= d.mean()
            rho = DensityMatrix.from_diagonal(0.25 + d)
            spec_h, spec_c = probe(rho, CFG, 14.0)
            got = reconstruct_diagonal(
                integrate_peaks(spec_h, CFG), integrate_peaks(spec_c, CFG), 14.0, k
            )
            assert np.abs(got - d).max() <= 0.01 * np.abs(d).max()

    def test_zero_peaks_give_zero_diagonal(self):
        k = calibrate(CFG, 15.0)
        zero_h = PeakTable([0.0, 0.0])
        zero_c = PeakTable([0.0, 0.0])
        assert_allclose(reconstruct_diagonal(zero_h, zero_c, 15.0, k), np.zeros(4), atol=1e-15)

    @pytest.mark.parametrize("tip", [0.1, 15.0, 25.0])
    def test_round_off_peaks_give_the_exact_zero_diagonal(self, tip):
        # a state with no deviation probes at round-off, and those integrals
        # fit no diagonal: they are the zero they stand for. The pulsed
        # state gives round-off integrals at every tip; the probe map gives
        # round-off or the exact zero.
        k = calibrate(CFG, tip)
        det = Detector(CFG, DetectionSettings(probe_tip_deg=tip))
        mixed = probed(DensityMatrix(np.eye(4) / 4), tip)
        pulsed = [PeakTable((det.response @ coherences(mixed, ch)).real) for ch in Channel]
        mapped = [PeakTable(y) for y in probe_integrals(det, np.full(4, 0.25))]
        assert np.abs(np.concatenate([p.integrals for p in pulsed])).max() > 0
        for peaks_h, peaks_c in (pulsed, mapped):
            diag = reconstruct_diagonal(peaks_h, peaks_c, tip, k)
            assert np.array_equal(diag, np.zeros(4))

    def test_inconsistent_peaks_above_round_off_flagged(self):
        # integrals far above round-off are signal, and checked
        k = calibrate(CFG, 15.0)
        with pytest.raises(ReadoutError, match="inconsistent"):
            reconstruct_diagonal(PeakTable([1e-12 * k, 0.0]), PeakTable([0.0, 0.0]), 15.0, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_peaks_past_the_float_range_fit_no_diagonal(self, bad):
        # a NaN integral once read as no signal, the zero diagonal, and an
        # inf one passed the residual gate with an inf or NaN diagonal
        det = Detector(CFG, DetectionSettings())
        clean = probe_integrals(det, enhanced_deviations(CFG, -11.0, 18.0)).reshape(4)
        rows = np.array([clean, clean, clean, clean])
        rows[1, 0], rows[2, 3], rows[3] = bad, bad, bad
        # the reconstruction names the range, not the peaks, and numpy
        # reports nothing of the arithmetic on them
        message = "probe integrals are not finite; the probed state leaves the float range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, *rest = rows.tolist()
            det.reconstruct(first)
            for y in rest:
                with pytest.raises(ReadoutError, match=f"^{message}$"):
                    det.reconstruct(y)
            with pytest.raises(ReadoutError, match=f"^{message}$"):
                reconstruct_diagonal(
                    PeakTable([bad, 0.0]), PeakTable([0.0, 0.0]), 15.0, det.receiver_constant
                )
            # a state past the float range probes to such integrals
            huge = probe_integrals(det, enhanced_deviations(CFG, 1e307, 1e307))
            assert not np.isfinite(huge).all()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        tip=st.floats(1e-3, PROBE_TIP_MAX),
        calibration=st.floats(1e-3, 1e4) | st.floats(-1e4, -1e-3),
        # relative bounds need normal floats: a subnormal integral rounds
        # to its absolute spacing, and is round-off to the reconstruction
        y=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=4, max_size=4),
    )
    def test_cached_solve_is_the_least_squares_solve(self, tip, calibration, y):
        # the reconstruction as it was: lstsq of the relations plus the
        # traceless row, and the norm of its residual (math.hypot, whose
        # norm of integrals below 1e-154 does not underflow)
        y = np.array(y)
        a = calibration * probe_response_matrix(tip)
        design = np.vstack([a, np.full(4, np.abs(a).max())])
        want, *_ = np.linalg.lstsq(design, np.concatenate([y, [0.0]]), rcond=None)
        rows, _ = readout._probe_solve(*readout._tip_entries(tip), calibration)
        solve = np.array(rows)
        null = G_PATTERN
        scale = math.hypot(*y) * np.linalg.norm(solve, 2)
        assert np.abs(solve @ y - want).max() <= 1e-13 * scale
        residual = math.hypot(*(a @ want - y))
        assert abs(abs(null @ y) - residual) <= 1e-13 * math.hypot(*y)
        assert np.linalg.norm(null) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        tip=st.floats(1e-3, PROBE_TIP_MAX, exclude_min=True),
        y=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    )
    def test_null_vector_is_one_pattern_at_every_tip(self, tip, y):
        # the residual gate reads |y_H0 - y_H1 - y_C0 + y_C1|/2 at every tip:
        # one pattern, the left null vector of the detector's calibrated map
        y = np.array(y)
        det = Detector(CFG, DetectionSettings(probe_tip_deg=tip))
        null, pattern = G_PATTERN, np.array([1.0, -1.0, -1.0, 1.0]) / 2
        assert np.array_equal(null, pattern)
        response = det.receiver_constant * probe_map(det).reshape(4, 4)
        assert np.abs(null @ response).max() <= 4 * np.finfo(float).eps * np.abs(response).max()
        want = abs(y[0] - y[1] - y[2] + y[3]) / 2
        assert abs(abs(null @ y) - want) <= 4 * np.finfo(float).eps * np.abs(y).sum()
        # and the detector's gate is that residual against 5% of the largest
        ymax = np.abs(y).max()
        assume(abs(want - 0.05 * ymax) > 1e-9 * ymax)
        try:
            det.reconstruct(y.tolist())
            rejected = False
        except ReadoutError:
            rejected = True
        assert rejected == (ymax > det.roundoff and want > 0.05 * ymax)

    @pytest.mark.parametrize("tip", [0.0, 90.0, 180.0, -15.0, np.nan])
    def test_reconstruction_takes_a_tip_in_range(self, tip):
        # the rule of DetectionSettings: out of range, a tip divided by
        # zero (0), blew up (90), gave a wrong diagonal (-15) or zeros (NaN)
        k = calibrate(CFG, 15.0)
        peaks = PeakTable([1.0, 1.0])
        with pytest.raises(ValueError, match=r"^probe tip must be in \(0, 25\.0\] degrees$"):
            reconstruct_diagonal(peaks, peaks, tip, k)
        with pytest.raises(ValueError, match=r"^probe tip must be in \(0, 25\.0\] degrees$"):
            DetectionSettings(probe_tip_deg=tip)

    @pytest.mark.parametrize("calibration", [0.0, np.nan, np.inf])
    def test_receiver_constant_must_be_finite_and_non_zero(self, calibration):
        peaks = PeakTable([1.0, 1.0])
        with pytest.raises(ValueError, match="finite and non-zero"):
            reconstruct_diagonal(peaks, peaks, 15.0, calibration)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        tip=st.floats(-6.0, math.log10(PROBE_TIP_MAX)).map(lambda e: 10.0**e),
        magnitude=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        negative=st.booleans(),
        scale=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    )
    # the smallest |K| with a finite solve at three tips, and the float below it
    @example(tip=1e-6, magnitude=2.39038764745035e-301, negative=False, scale=1.0)
    @example(tip=1e-6, magnitude=2.3903876474503495e-301, negative=False, scale=1.0)
    @example(tip=15.0, magnitude=1.630896617293188e-308, negative=True, scale=1.0)
    @example(tip=15.0, magnitude=1.6308966172931877e-308, negative=True, scale=1.0)
    @example(tip=25.0, magnitude=1.0212001151036227e-308, negative=False, scale=0.5)
    @example(tip=25.0, magnitude=1.021200115103622e-308, negative=False, scale=0.5)
    def test_two_magnitudes_are_the_pattern_formula(self, tip, magnitude, negative, scale):
        # S from s and t is the 16-entry pattern formula bit for bit: its
        # rows, its round-off level and its refusal
        a, b = readout._tip_entries(tip)
        k = -magnitude if negative else magnitude
        try:
            want = pattern_probe_solve(a, b, k, scale)
        except ReadoutError as exc:
            with pytest.raises(ReadoutError, match=f"^{re.escape(str(exc))}$"):
                readout._probe_solve(a, b, k, scale)
            return
        rows, level = readout._probe_solve(a, b, k, scale)
        assert np.array(rows).tobytes() == np.array(want[0]).tobytes()
        assert np.float64(level).tobytes() == np.float64(want[1]).tobytes()

    @pytest.mark.parametrize("tip,smallest", [
        (1e-6, 2.39038764745035e-301), (15.0, 1.630896617293188e-308),
        (25.0, 1.0212001151036227e-308),
    ])
    def test_the_pattern_examples_straddle_the_refusal(self, tip, smallest):
        # the property's examples: a finite solve, and one float lower a refusal
        a, b = readout._tip_entries(tip)
        rows, _ = pattern_probe_solve(a, b, smallest)
        assert np.isfinite(rows).all()
        with pytest.raises(ReadoutError, match="^probe solve leaves the float range"):
            pattern_probe_solve(a, b, math.nextafter(smallest, 0.0))

    def test_solve_past_the_float_range_is_refused(self):
        # S's largest entries are ±(0.5/p + 0.5/q) for p = 2(a + b)K and
        # q = 4(a - b)K: a p that underflows to 0 once divided by zero, and a
        # subnormal one overflows; both built a solve of infs and NaNs with a
        # numpy warning, and the detector of such a setting probed NaN
        message = "^probe solve leaves the float range; raise tip_deg or decrease dwell_s$"
        peaks = PeakTable([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for calibration in (5e-324, 1e-310, -1e-310):
                with pytest.raises(ReadoutError, match=message):
                    reconstruct_diagonal(peaks, peaks, 15.0, calibration)
            cfg = SpinSystemConfig(4.0, 5e-201, 1e205, 1e150)
            with pytest.raises(ReadoutError, match=message):
                Detector(cfg, DetectionSettings(dwell=1e200, probe_tip_deg=1e-140))
            # a larger tip on the same grid has a finite solve
            det = Detector(cfg, DetectionSettings(dwell=1e200, probe_tip_deg=1e-100))
            assert np.isfinite(probe_solve(det)).all()
            # a small calibration whose solve is finite at 15°
            assert np.isfinite(reconstruct_diagonal(peaks, peaks, 15.0, 1e-307)).all()

    def test_inconsistent_peaks_flagged(self):
        k = calibrate(CFG, 15.0)
        # violates the internal redundancy of the four relations
        bad_h = PeakTable([50.0, 0.0])
        bad_c = PeakTable([0.0, 0.0])
        with pytest.raises(ReadoutError, match="inconsistent"):
            reconstruct_diagonal(bad_h, bad_c, 15.0, k)


class TestPerChannelReadout:
    def test_pure_state_one_line_per_channel(self):
        # |10>: H spin down (negative line), partner C up selects partner-0;
        # the other line only sees the ~3e-4 inter-window Lorentzian tail
        rho = DensityMatrix.basis_state(2)
        spec_h, spec_c = readout_spectra(rho, CFG)
        ph = integrate_peaks(spec_h, CFG)
        pc = integrate_peaks(spec_c, CFG)
        assert ph.integral(0) < 0
        assert abs(ph.integral(1)) < 1e-3 * abs(ph.integral(0))
        assert pc.integral(1) > 0
        assert abs(pc.integral(0)) < 1e-3 * abs(pc.integral(1))

    def test_90_readout_doubles_small_tip_slope(self):
        # at 90 degrees a single-spin pulse converts the full population
        # difference: integral ratio vs sin(tip) prediction
        rho = thermal_state(CFG)
        full = integrate_peaks(readout_spectra(rho, CFG, 90.0)[0], CFG).integral(0)
        small = integrate_peaks(readout_spectra(rho, CFG, 10.0)[0], CFG).integral(0)
        assert full / small == pytest.approx(1.0 / np.sin(np.radians(10.0)), rel=1e-9)


class TestCsvExport:
    def test_spectrum_csv_round_trip(self, tmp_path):
        spec = probe(thermal_state(CFG), CFG, 15.0)[0]
        path = tmp_path / "spectrum.csv"
        write_csv(spectrum_csv(spec), path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["freq_hz", "real", "imag"]
        assert len(rows) == 1 + spec.freqs.size
        back = np.array([[float(v) for v in row] for row in rows[1:]])
        assert_allclose(back[:, 0], spec.freqs)
        assert_allclose(back[:, 1] + 1j * back[:, 2], spec.values)

    def test_spectrum_csv_bytes_match_csv_writer(self, tmp_path):
        # the exported files are byte-identical to those of csv.writer
        spec = Spectrum(
            Channel.H, np.arange(4) - 2.0, np.array([-0.0, 1e-300 - 2.5j, np.nan, 1 / 3 + 1e17j])
        )
        path, ref = tmp_path / "spectrum.csv", tmp_path / "ref.csv"
        write_csv(spectrum_csv(spec), path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz", "real", "imag"])
            for f, v in zip(spec.freqs, spec.values):
                writer.writerow([repr(float(f)), repr(float(v.real)), repr(float(v.imag))])
        assert path.read_bytes() == ref.read_bytes()

    # edge values of the repr: signed zeros, subnormals, the float range's
    # ends, integers past 2**53 and values whose repr takes an exponent
    EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min, sys.float_info.max,
             -sys.float_info.max, 2.0**53 + 2.0, -(2.0**60), 1e16, 1e-5, 123456789012345678.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(*[st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False,
                                                                 allow_infinity=False))] * 2),
        min_size=1, max_size=12,
    ))
    def test_negated_text_is_the_text_of_the_negated_values(self, cells):
        values = np.array([complex(re, im) for re, im in cells])
        freqs = np.arange(values.size) * 0.5 - 2.0
        spec, negated = (Spectrum(Channel.C, freqs, v) for v in (values, -values))
        assert negated_csv(spectrum_csv(spec)) == spectrum_csv(negated)

    def test_write_csv_writes_the_spectrum_text(self, tmp_path):
        spec = probe(thermal_state(CFG), CFG, 15.0)[1]
        write_csv(spectrum_csv(spec), tmp_path / "spectrum.csv")
        assert (tmp_path / "spectrum.csv").read_bytes() == spectrum_csv(spec).encode()
