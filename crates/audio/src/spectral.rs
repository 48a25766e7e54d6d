//! Magnitude spectra and peak picking.
//!
//! This is the analysis half of the paper's Figure 2a ("FFT of audio from 5
//! switches"): take a windowed frame, compute its amplitude spectrum, and
//! find the spectral peaks, with quadratic interpolation so a tone between
//! bins is still located to sub-bin accuracy.

use crate::fft::{Complex, FftPlanner};
use crate::signal::Signal;
use crate::window::WindowKind;

/// Reusable buffers for [`Spectrum::compute_into`]: the windowed frame, the
/// complex FFT buffer, and the window coefficients (cached per
/// kind × length, which a frame loop hits every time). One per frame
/// loop; after the first frame the spectral hot path allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SpectrumScratch {
    frame: Vec<f32>,
    fft: Vec<Complex>,
    win: Vec<f64>,
    win_gain: f64,
    win_key: Option<(WindowKind, usize)>,
}

impl SpectrumScratch {
    fn refresh_window(&mut self, kind: WindowKind, n: usize) {
        if self.win_key != Some((kind, n)) {
            self.win = kind.coefficients(n);
            // Mean of the coefficients — identical arithmetic to
            // `WindowKind::coherent_gain`.
            self.win_gain = if n == 0 {
                0.0
            } else {
                self.win.iter().sum::<f64>() / n as f64
            };
            self.win_key = Some((kind, n));
        }
    }
}

/// An amplitude spectrum: one magnitude per non-redundant FFT bin, with the
/// metadata needed to map bins to Hz and magnitudes back to amplitudes.
#[derive(Debug, Clone)]
pub struct Spectrum {
    magnitudes: Vec<f64>,
    sample_rate: u32,
    fft_size: usize,
}

impl Spectrum {
    /// An empty spectrum, as the reusable target for
    /// [`Spectrum::compute_into`].
    pub fn empty(sample_rate: u32) -> Self {
        Self {
            magnitudes: Vec::new(),
            sample_rate,
            fft_size: 1,
        }
    }

    /// Compute the spectrum of `signal` with the given window, zero-padding
    /// to the next power of two (at least `min_fft` if given). Magnitudes
    /// are normalized so a sinusoid of amplitude `a` centred on a bin reads
    /// ≈ `a` (window coherent gain compensated).
    pub fn compute(
        signal: &Signal,
        window: WindowKind,
        min_fft: Option<usize>,
        planner: &mut FftPlanner,
    ) -> Self {
        let mut out = Spectrum::empty(signal.sample_rate());
        Spectrum::compute_into(
            signal.samples(),
            signal.sample_rate(),
            window,
            min_fft,
            planner,
            &mut SpectrumScratch::default(),
            &mut out,
        );
        out
    }

    /// Allocation-reusing spectrum computation over a raw sample slice.
    ///
    /// Identical numerics to [`Spectrum::compute`], but the windowed frame,
    /// the FFT buffer, the window coefficients, and the output magnitudes
    /// all live in `scratch`/`out` and are reused across calls — the shape
    /// a frame-by-frame detector loop wants, with no per-frame `Signal`
    /// clone and no per-frame allocation.
    pub fn compute_into(
        samples: &[f32],
        sample_rate: u32,
        window: WindowKind,
        min_fft: Option<usize>,
        planner: &mut FftPlanner,
        scratch: &mut SpectrumScratch,
        out: &mut Spectrum,
    ) {
        let frame_len = samples.len();
        scratch.refresh_window(window, frame_len);
        let SpectrumScratch {
            frame,
            fft,
            win,
            win_gain,
            ..
        } = &mut *scratch;
        frame.clear();
        frame.extend_from_slice(samples);
        if window != WindowKind::Rectangular {
            for (s, &w) in frame.iter_mut().zip(win.iter()) {
                *s = (*s as f64 * w) as f32;
            }
        }
        planner.forward_real_into(frame, min_fft, fft);
        let n = fft.len();
        let gain = *win_gain;
        // Amplitude normalization: 2/N_frame for a one-sided spectrum,
        // divided by the window's coherent gain.
        let scale = if frame_len == 0 || gain == 0.0 {
            0.0
        } else {
            2.0 / (frame_len as f64 * gain)
        };
        out.magnitudes.clear();
        out.magnitudes
            .extend(fft[..n / 2 + 1].iter().map(|c| c.norm() * scale));
        out.sample_rate = sample_rate;
        out.fft_size = n;
    }

    /// Convenience: Hann window, default padding, fresh planner.
    pub fn of(signal: &Signal) -> Self {
        Spectrum::compute(signal, WindowKind::Hann, None, &mut FftPlanner::new())
    }

    /// Magnitude per bin (bin 0 = DC, last bin = Nyquist).
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// Width of one bin in Hz.
    pub fn bin_hz(&self) -> f64 {
        self.sample_rate as f64 / self.fft_size as f64
    }

    /// Centre frequency of bin `k`.
    pub fn bin_to_hz(&self, k: usize) -> f64 {
        k as f64 * self.bin_hz()
    }

    /// The bin whose centre is nearest `freq_hz`.
    pub fn hz_to_bin(&self, freq_hz: f64) -> usize {
        ((freq_hz / self.bin_hz()).round() as usize).min(self.magnitudes.len().saturating_sub(1))
    }

    /// Magnitude at the bin nearest `freq_hz`.
    pub fn magnitude_at(&self, freq_hz: f64) -> f64 {
        self.magnitudes[self.hz_to_bin(freq_hz)]
    }

    /// The underlying FFT size used.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// The signal's sample rate.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Find local maxima above `threshold`, separated by at least
    /// `min_separation_hz`, strongest first.
    pub fn peaks(&self, threshold: f64, min_separation_hz: f64) -> Vec<Peak> {
        let mags = &self.magnitudes;
        let mut candidates: Vec<Peak> = Vec::new();
        for k in 1..mags.len().saturating_sub(1) {
            if mags[k] >= threshold && mags[k] >= mags[k - 1] && mags[k] > mags[k + 1] {
                let (freq, mag) = self.interpolate_peak(k);
                candidates.push(Peak {
                    freq_hz: freq,
                    magnitude: mag,
                    bin: k,
                });
            }
        }
        candidates.sort_by(|a, b| b.magnitude.total_cmp(&a.magnitude));
        // Greedy non-maximum suppression by frequency distance.
        let mut kept: Vec<Peak> = Vec::new();
        for c in candidates {
            if kept
                .iter()
                .all(|p| (p.freq_hz - c.freq_hz).abs() >= min_separation_hz)
            {
                kept.push(c);
            }
        }
        kept
    }

    /// Quadratic (parabolic) interpolation of the peak around bin `k` in the
    /// log-magnitude domain; returns `(freq_hz, magnitude)`.
    fn interpolate_peak(&self, k: usize) -> (f64, f64) {
        let mags = &self.magnitudes;
        if k == 0 || k + 1 >= mags.len() {
            return (self.bin_to_hz(k), mags[k]);
        }
        let eps = 1e-30;
        let (a, b, c) = (
            (mags[k - 1] + eps).ln(),
            (mags[k] + eps).ln(),
            (mags[k + 1] + eps).ln(),
        );
        let denom = a - 2.0 * b + c;
        if denom.abs() < 1e-18 {
            return (self.bin_to_hz(k), mags[k]);
        }
        let delta = 0.5 * (a - c) / denom;
        let delta = delta.clamp(-0.5, 0.5);
        let freq = (k as f64 + delta) * self.bin_hz();
        let mag = (b - 0.25 * (a - c) * delta).exp();
        (freq, mag)
    }

    /// Total signal power in the band `[lo_hz, hi_hz]` (sum of squared bin
    /// magnitudes).
    pub fn band_power(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        let lo = self.hz_to_bin(lo_hz.min(hi_hz));
        let hi = self.hz_to_bin(hi_hz.max(lo_hz));
        self.magnitudes[lo..=hi].iter().map(|m| m * m).sum()
    }

    /// Sum of absolute per-bin magnitude differences against another
    /// spectrum of the same shape — the paper's Figure 7 fan-failure
    /// statistic.
    ///
    /// # Panics
    /// Panics if the spectra have different bin counts.
    pub fn amplitude_difference(&self, other: &Spectrum) -> f64 {
        assert_eq!(
            self.magnitudes.len(),
            other.magnitudes.len(),
            "spectra must have the same FFT size"
        );
        self.magnitudes
            .iter()
            .zip(&other.magnitudes)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

/// A detected spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Interpolated peak frequency in Hz.
    pub freq_hz: f64,
    /// Interpolated peak magnitude (amplitude units).
    pub magnitude: f64,
    /// The FFT bin the peak sits on.
    pub bin: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{render_mixture, Tone};
    use std::time::Duration;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, amp: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), amp).render(SR)
    }

    #[test]
    fn single_tone_peak_located_and_scaled() {
        let s = tone(1000.0, 100, 0.6);
        let spec = Spectrum::of(&s);
        let peaks = spec.peaks(0.1, 50.0);
        assert_eq!(peaks.len(), 1);
        assert!(
            (peaks[0].freq_hz - 1000.0).abs() < 3.0,
            "freq {}",
            peaks[0].freq_hz
        );
        assert!(
            (peaks[0].magnitude - 0.6).abs() < 0.08,
            "mag {}",
            peaks[0].magnitude
        );
    }

    #[test]
    fn off_bin_tone_interpolated() {
        // Pick a frequency guaranteed to fall between bins.
        let spec0 = Spectrum::of(&tone(1000.0, 100, 0.5));
        let half_bin = spec0.bin_hz() / 2.0;
        let f = 1000.0 + half_bin;
        let spec = Spectrum::of(&tone(f, 100, 0.5));
        let peaks = spec.peaks(0.1, 50.0);
        assert!((peaks[0].freq_hz - f).abs() < spec.bin_hz() * 0.3);
    }

    #[test]
    fn five_switch_mixture_resolved() {
        // Figure 2a: five switches, disjoint frequencies, all identified.
        let freqs = [600.0, 900.0, 1300.0, 1800.0, 2400.0];
        let tones: Vec<Tone> = freqs
            .iter()
            .map(|&f| Tone::new(f, Duration::from_millis(100), 0.3))
            .collect();
        let s = render_mixture(&tones, SR);
        let spec = Spectrum::of(&s);
        let peaks = spec.peaks(0.05, 50.0);
        assert_eq!(peaks.len(), 5, "peaks: {peaks:?}");
        let mut found: Vec<f64> = peaks.iter().map(|p| p.freq_hz).collect();
        found.sort_by(f64::total_cmp);
        for (f, p) in freqs.iter().zip(found) {
            assert!((f - p).abs() < 5.0, "expected {f}, got {p}");
        }
    }

    #[test]
    fn min_separation_suppresses_sidelobe_duplicates() {
        let s = tone(1000.0, 50, 0.8);
        let spec = Spectrum::of(&s);
        // Threshold above the Hann sidelobe level (−31 dB of 0.8 ≈ 0.022).
        let peaks = spec.peaks(0.05, 40.0);
        let near_1k = peaks
            .iter()
            .filter(|p| (p.freq_hz - 1000.0).abs() < 150.0)
            .count();
        assert_eq!(near_1k, 1, "peaks: {peaks:?}");
    }

    #[test]
    fn band_power_isolates_band() {
        let mut s = tone(500.0, 100, 0.5);
        s.mix_at(&tone(3000.0, 100, 0.5), 0);
        let spec = Spectrum::of(&s);
        let low = spec.band_power(400.0, 600.0);
        let mid = spec.band_power(1000.0, 2000.0);
        let high = spec.band_power(2900.0, 3100.0);
        assert!(low > 100.0 * mid);
        assert!(high > 100.0 * mid);
    }

    #[test]
    fn amplitude_difference_zero_for_identical() {
        let spec = Spectrum::of(&tone(700.0, 100, 0.5));
        assert_eq!(spec.amplitude_difference(&spec.clone()), 0.0);
    }

    #[test]
    fn amplitude_difference_large_for_on_vs_off() {
        let on = Spectrum::of(&tone(700.0, 100, 0.5));
        let off = Spectrum::of(&Signal::silence(Duration::from_millis(100), SR));
        assert!(on.amplitude_difference(&off) > 0.4);
    }

    #[test]
    #[should_panic(expected = "same FFT size")]
    fn amplitude_difference_rejects_shape_mismatch() {
        let a = Spectrum::of(&tone(700.0, 100, 0.5));
        let b = Spectrum::of(&tone(700.0, 200, 0.5));
        a.amplitude_difference(&b);
    }

    #[test]
    fn hz_bin_roundtrip() {
        let spec = Spectrum::of(&tone(1000.0, 100, 0.5));
        let k = spec.hz_to_bin(1000.0);
        assert!((spec.bin_to_hz(k) - 1000.0).abs() <= spec.bin_hz() / 2.0 + 1e-9);
    }

    #[test]
    fn empty_signal_spectrum_is_silent() {
        let spec = Spectrum::of(&Signal::empty(SR));
        assert!(spec.magnitudes().iter().all(|&m| m == 0.0));
    }
}
