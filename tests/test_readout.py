import csv
import dataclasses
import importlib
import inspect
import pkgutil
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spinoeqc
from spinoeqc import readout
from spinoeqc.quantum import DensityMatrix, Unitary, apply_unitary, populations
from spinoeqc.readout import (
    MAX_FID_SAMPLES,
    PROBE_TIP_MAX,
    Channel,
    Detection,
    DetectionSettings,
    Detector,
    PeakTable,
    ReadoutError,
    Spectrum,
    calibrate,
    integrate_peaks,
    probe,
    readout_map,
    reconstruct_diagonal,
    spectrum_to_csv,
)
from spinoeqc.spins import (
    PulseSpec,
    PulseTarget,
    SpinSystemConfig,
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


def probed(rho, tip=15.0):
    u = pulse_unitary(PulseSpec(PulseTarget.BOTH, tip, phase=90.0))
    return apply_unitary(rho, u)


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
            probe(thermal_state(CFG), CFG, 15.0, n_samples=1024, dt=4e-3)

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
        a, b = (det.probe(thermal, det.draw(3)).spectra[0] for _ in range(2))
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
        z = np.random.default_rng(8).standard_normal(4).reshape(2, 2)
        assert np.array_equal(noise.integrals, 0.1 * z @ det.noise_factor.T)
        # a lone detection is detection 0 of its seed: children 0 and 1
        assert (noise.seed, noise.index) == (8, 0)
        assert [seed.spawn_key for seed in noise.seeds] == [(0,), (1,)]
        assert noise.detector is det
        with pytest.raises(ValueError):
            noise.integrals[0, 0] = 1.0

    @pytest.mark.parametrize("seed", [0, 8, 2**32 - 1, 2**70])
    def test_draw_names_the_children_a_spawn_of_its_seed_gives(self, seed):
        # the noise of a seed's lone detection is that of a generator seeded
        # with it whose two channels spawn their child seeds
        det = Detector(CFG, DetectionSettings(n_points=256, noise_amp=0.1))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, 2))
        children = rng.bit_generator.seed_seq.spawn(2)
        noise = det.draw(seed)
        assert np.array_equal(noise.integrals, det.noise_integrals(z))
        for got, want in zip(noise.seeds, children, strict=True):
            assert np.array_equal(got.generate_state(8), want.generate_state(8))

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
        defaults = {f.name: f.default for f in dataclasses.fields(DetectionSettings)}
        parameters = inspect.signature(function).parameters
        assert parameters["n_samples"].default == defaults["n_points"]
        assert parameters["dt"].default == defaults["dwell"]


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
    for channel, target, channel_noise in zip(Channel, (PulseTarget.H, PulseTarget.C), noise):
        state = apply_unitary(rho, pulse_unitary(PulseSpec(target, tip_angle_deg, phase=90.0)))
        spectra.append(fft_spectrum(state, cfg, channel, n_samples, dt, channel_noise))
    return tuple(spectra)


def detection(det, rho, noise):
    """Detection of both channels with `rho` as the state at their receivers."""
    return Detection(det, np.array([coherences(rho, channel) for channel in Channel]), noise)


def noise_vectors(found: Detection):
    """The H and C receiver noise vectors of a detection, None when noise is off."""
    return (None, None) if found.noise is None else found.noise.vectors


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


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
        found = detection(det, rho, det.draw(seed))
        lines = zip(Channel, found.integrals, found.spectra, noise_vectors(found), strict=True)
        for i, (channel, integrals, spec, noise) in enumerate(lines):
            ref = fft_peaks(rho, cfg, channel, n_points, dwell, noise)
            assert relative_gap(integrals, ref.integrals) <= 1e-9
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
                assert relative_gap(noise_peaks.integrals, found.noise.integrals[i]) <= 1e-9

    def test_detectors_on_one_grid_share_its_map(self):
        base = Detector(CFG, DetectionSettings())
        for settings_ in (DetectionSettings(probe_tip_deg=10.0), DetectionSettings(noise_amp=0.1)):
            det = Detector(CFG, settings_)
            assert det.windows is base.windows and det.response is base.response
            assert det.noise_factor is base.noise_factor
        for other in (
            Detector(CFG, DetectionSettings(n_points=2048)),
            Detector(CFG, DetectionSettings(dwell=5e-4)),
            Detector(SpinSystemConfig(j_coupling=200.0), DetectionSettings()),
        ):
            assert other.windows is not base.windows and other.response is not base.response
            assert not np.array_equal(other.response, base.response)
        for array in (base.windows, base.response, base.noise_factor):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_hash_and_equality_follow_the_settings(self):
        a = Detector(CFG, DetectionSettings())
        readout._grid_map.cache_clear()
        b = Detector(CFG, DetectionSettings())
        assert a.windows is not b.windows
        assert a == b and hash(a) == hash(b)
        assert a != Detector(CFG, DetectionSettings(noise_amp=0.1))
        assert a != Detector(SpinSystemConfig(j_coupling=200.0), DetectionSettings())

    def test_detections_hash_and_compare_by_identity(self):
        det = Detector(CFG, DetectionSettings())
        a, b = (det.probe(populations(thermal_state(CFG)), det.draw(0)) for _ in range(2))
        assert a == a and hash(a) == hash(a)
        assert a != b and len({a, b}) == 2

    def test_detection_holds_both_channels_read_only(self):
        det = Detector(CFG, DetectionSettings(noise_amp=0.1))
        noise = det.draw(6)
        found = det.probe(populations(enhanced_state(CFG, -11.0, 18.0)), noise)
        assert found.noise is noise and found.detector is det
        assert found.amplitudes.shape == found.integrals.shape == (2, 2)
        assert [spec.channel for spec in found.spectra] == list(Channel)
        assert found.integrals is found.integrals and found.spectra is found.spectra
        assert noise.vectors.shape == noise.transforms.shape == (2, 4096)
        for array in (found.amplitudes, found.integrals, noise.vectors, noise.transforms):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_spectra_are_built_only_when_read(self):
        readout._spectra_map.cache_clear()
        det = Detector(CFG, DetectionSettings())
        found = det.probe(populations(thermal_state(CFG)), None)
        found.integrals
        assert readout._spectra_map.cache_info().currsize == 0
        freqs, line_spectra = readout._spectra_map(CFG, 4096, 1e-3)
        spec_h, spec_c = found.spectra
        assert np.array_equal(spec_h.freqs, freqs)
        assert np.array_equal(spec_c.values, (found.amplitudes @ line_spectra)[1])
        info = readout._spectra_map.cache_info()
        assert (info.currsize, info.misses) == (1, 1)
        for array in (freqs, line_spectra):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize(
        "cache,key",
        [
            (readout._spectra_map, lambda i: (CFG, 1024 + i, 1e-3)),
            (readout._probe_setting, lambda i: (CFG, 4096, 1e-3, 1.0 + i / 8)),
        ],
        ids=["spectra", "probe-setting"],
    )
    def test_caches_are_bounded(self, cache, key):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None
        for i in range(2 * maxsize):
            cache(*key(i))
        assert cache.cache_info().currsize == maxsize

    def test_settings_that_differ_in_noise_alone_share_one_calibration(self):
        # K comes from a noise-free probe, so the noise level is no part of its key
        readout._probe_setting.cache_clear()
        k = [Detector(CFG, DetectionSettings(noise_amp=a)).receiver_constant for a in (0.0, 0.1)]
        info = readout._probe_setting.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert k[0] == k[1] == calibrate(CFG, 15.0)

    def test_one_probe_setting_takes_one_entry_however_it_is_named(self):
        readout._probe_setting.cache_clear()
        k = {
            calibrate(CFG, 15.0),
            calibrate(CFG, 15.0, n_samples=4096),
            calibrate(CFG, 15.0, 4096, 1e-3),
            Detector(CFG, DetectionSettings(noise_amp=0.1)).receiver_constant,
        }
        info = readout._probe_setting.cache_info()
        assert (info.currsize, info.misses, len(k)) == (1, 1, 1)

    def test_detector_holds_its_probe_setting(self):
        det = Detector(CFG, DetectionSettings(probe_tip_deg=12.0, noise_amp=0.1))
        probe_map, k, solve = readout._probe_setting(CFG, 4096, 1e-3, 12.0)
        assert det.probe_map is probe_map and det.probe_solve is solve
        assert det.receiver_constant == k
        for array in (probe_map, *solve[:2], det.amplitude_solve):
            with pytest.raises(ValueError):
                array.flat[0] = 1.0

    def test_new_tip_builds_no_pulse_and_no_decomposition(self, monkeypatch):
        # the probe setting of a tip not seen before, on a cached grid, is
        # built from the closed-form relations alone
        readout._probe_setting.cache_clear()
        Detector(CFG, DetectionSettings())

        def forbidden(*args, **kwargs):
            raise AssertionError("a new probe setting built a pulse or decomposed a matrix")

        for module in (*MODULES, np.linalg):
            for name in ("pulse_unitary", "apply_unitary", "pinv", "svd"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        Detector(CFG, DetectionSettings(probe_tip_deg=7.3))
        info = readout._probe_setting.cache_info()
        assert (info.currsize, info.misses) == (2, 2)

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
        assert len({id(obj) for _, obj in caches}) >= 8
        for name, cache in caches:
            assert cache.cache_info().maxsize is not None, name

    def test_grid_map_cache_is_bounded(self):
        maxsize = readout._grid_map.cache_info().maxsize
        assert maxsize is not None
        for n_points in range(1024, 1024 + 2 * maxsize):
            Detector(CFG, DetectionSettings(n_points=n_points))
        assert readout._grid_map.cache_info().currsize == maxsize

    def test_probe_and_readout_match_their_spectra(self):
        det = Detector(CFG, DetectionSettings(probe_tip_deg=15.0, noise_amp=0.05))
        rho = enhanced_state(CFG, -11.0, 18.0)
        probe_found = det.probe(populations(rho), det.draw(4))
        identity = readout_map(Unitary(np.eye(4)))
        readout_found = Detection(det, identity @ populations(rho), det.draw(5))
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
        det.probe(populations(thermal_state(CFG)), None)
        for d in (np.full(2, 0.5), np.eye(4) / 4, np.float64(1.0)):
            with pytest.raises(ValueError, match="the probe takes the four populations"):
                det.probe(d, None)
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
        got = det.probe(populations(rho), None).integrals
        # the eager route: the pulse through `apply_unitary`, then the coherences
        want = np.array([
            (det.response @ coherences(probed(rho, tip), channel)).real
            for channel in Channel
        ])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_batched_probe_is_the_probe_reconstructed(self):
        # a pipeline's probes: noise-free integrals plus the integrals of the
        # normals a draw takes, then the batched reconstruction
        det = Detector(CFG, DetectionSettings(probe_tip_deg=12.0, noise_amp=0.05))
        d = populations(enhanced_state(CFG, -11.0, 18.0))
        seeds = (5, 6, 7)
        normals = np.array([np.random.default_rng(seed).standard_normal((2, 2)) for seed in seeds])
        noise = det.noise_integrals(normals)
        got, errors = det.reconstruct((det.probe_integrals(d) + noise).reshape(3, 4))
        assert errors == {}
        for row, seed in zip(got, seeds):
            found = det.probe(d, det.draw(seed))
            want = reconstruct_diagonal(*map(PeakTable, found.integrals), 12.0,
                                        det.receiver_constant)
            assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()

    def test_projected_draw_has_the_law_of_white_noise(self):
        # both routes to the line integrals of white noise, 10^4 detections
        # each on a 256-point grid, agree in covariance within sampling error
        amp, n_draws = 0.3, 10_000
        det = Detector(CFG, DetectionSettings(n_points=256, noise_amp=amp))
        drawn = [det.draw(seed) for seed in range(n_draws)]
        projected = np.concatenate([noise.integrals for noise in drawn])
        rng, full = np.random.default_rng(2027), []
        for _ in range(2 * n_draws // 1000):
            real, imag = rng.normal(0.0, amp, (2, 1000, 256))
            full.append(((real + 1j * imag) @ det.windows.T).real)
        full = np.concatenate(full)
        want = amp**2 * (det.noise_factor @ det.noise_factor.T)
        assert_allclose(want, amp**2 * (det.windows @ det.windows.conj().T).real, rtol=1e-12)
        # standard errors of a sample mean and covariance entry of Gaussian data
        mean_err = np.sqrt(np.diag(want) / (2 * n_draws))
        stderr = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / (2 * n_draws))
        for sample in (projected, full):
            assert (np.abs(sample.mean(axis=0)) <= 5 * mean_err).all()
            assert (np.abs(np.cov(sample.T) - want) <= 5 * stderr).all()
        assert (np.abs(np.cov(projected.T) - np.cov(full.T)) <= 5 * np.sqrt(2) * stderr).all()

    def test_conditioned_vector_keeps_the_white_law(self):
        # conditioning on the drawn integrals leaves each vector white: along
        # a direction that mixes both windows with the rest, Re(h · n) has
        # variance amp² |h|²
        amp, n_draws = 0.3, 4_000
        det = Detector(CFG, DetectionSettings(n_points=256, noise_amp=amp))
        rng = np.random.default_rng(2028)
        h = det.windows.sum(axis=0) / np.linalg.norm(det.windows[0])
        h = h + (rng.normal(size=256) + 1j * rng.normal(size=256)) / 16
        values = [(h @ det.draw(seed).vectors[0]).real for seed in range(n_draws)]
        want = amp**2 * np.vdot(h, h).real
        assert abs(np.var(values) / want - 1) <= 5 * np.sqrt(2 / n_draws)


class TestReconstruction:
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
        mapped = [PeakTable(y) for y in det.probe(np.full(4, 0.25), det.draw(0)).integrals]
        assert np.abs(np.concatenate([p.integrals for p in pulsed])).max() > 0
        for peaks_h, peaks_c in (pulsed, mapped):
            diag = reconstruct_diagonal(peaks_h, peaks_c, tip, k)
            assert np.array_equal(diag, np.zeros(4))

    def test_inconsistent_peaks_above_round_off_flagged(self):
        # integrals far above round-off are signal, and checked
        k = calibrate(CFG, 15.0)
        with pytest.raises(ReadoutError, match="inconsistent"):
            reconstruct_diagonal(PeakTable([1e-12 * k, 0.0]), PeakTable([0.0, 0.0]), 15.0, k)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        tip=st.floats(1e-3, PROBE_TIP_MAX),
        calibration=st.floats(1e-3, 1e4) | st.floats(-1e4, -1e-3),
        y=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    )
    def test_cached_solve_is_the_least_squares_solve(self, tip, calibration, y):
        # the reconstruction as it was: lstsq of the relations plus the
        # traceless row, and the norm of its residual
        y = np.array(y)
        a = calibration * readout._probe_response_matrix(tip)
        design = np.vstack([a, np.full(4, np.abs(a).max())])
        want, *_ = np.linalg.lstsq(design, np.concatenate([y, [0.0]]), rcond=None)
        solve, null, _ = readout._probe_solve(readout._probe_response_matrix(tip), calibration)
        scale = np.linalg.norm(y) * np.linalg.norm(solve, 2)
        assert np.abs(solve @ y - want).max() <= 1e-13 * scale
        residual = np.linalg.norm(a @ want - y)
        assert abs(abs(null @ y) - residual) <= 1e-13 * np.linalg.norm(y)
        assert np.linalg.norm(null) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        tip=st.floats(1e-3, PROBE_TIP_MAX, exclude_min=True),
        y=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    )
    def test_null_vector_is_one_pattern_at_every_tip(self, tip, y):
        # the residual gate reads |y_H0 - y_H1 - y_C0 + y_C1|/2 at every tip
        y = np.array(y)
        _, null, _ = Detector(CFG, DetectionSettings(probe_tip_deg=tip)).probe_solve
        pattern = np.array([1.0, -1.0, -1.0, 1.0]) / 2
        assert np.array_equal(null, pattern) or np.array_equal(null, -pattern)
        want = abs(y[0] - y[1] - y[2] + y[3]) / 2
        assert abs(abs(null @ y) - want) <= 4 * np.finfo(float).eps * np.abs(y).sum()

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
        spectrum_to_csv(spec, path)
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
        spectrum_to_csv(spec, path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz", "real", "imag"])
            for f, v in zip(spec.freqs, spec.values):
                writer.writerow([repr(float(f)), repr(float(v.real)), repr(float(v.imag))])
        assert path.read_bytes() == ref.read_bytes()
