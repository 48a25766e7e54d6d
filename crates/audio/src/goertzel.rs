//! Goertzel single-bin tone detection.
//!
//! When the MDN controller knows exactly which frequencies to listen for
//! (the common case — each switch owns a published set), evaluating one DFT
//! bin per candidate frequency with the Goertzel recurrence is far cheaper
//! than a full FFT. The ablation bench `claims.rs` compares the two paths.

use crate::signal::Signal;
use std::f64::consts::PI;

/// A Goertzel filter tuned to one target frequency at one sample rate.
///
/// ```
/// use mdn_audio::goertzel::Goertzel;
/// use mdn_audio::synth::Tone;
/// use std::time::Duration;
///
/// let tone = Tone::new(700.0, Duration::from_millis(100), 0.4).render(44_100);
/// let det = Goertzel::new(700.0, 44_100);
/// assert!((det.magnitude_of(&tone) - 0.4).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Goertzel {
    coeff: f64,
    sin_w: f64,
    cos_w: f64,
}

impl Goertzel {
    /// Build a detector for `freq_hz` at `sample_rate`.
    ///
    /// # Panics
    /// Panics if the frequency is not in `(0, sample_rate/2)`.
    pub fn new(freq_hz: f64, sample_rate: u32) -> Self {
        let nyquist = sample_rate as f64 / 2.0;
        assert!(
            freq_hz > 0.0 && freq_hz < nyquist,
            "frequency {freq_hz} Hz outside (0, {nyquist})"
        );
        let w = 2.0 * PI * freq_hz / sample_rate as f64;
        Self {
            coeff: 2.0 * w.cos(),
            sin_w: w.sin(),
            cos_w: w.cos(),
        }
    }

    /// Run the recurrence over `samples`, returning the complex DFT-like
    /// response (magnitude comparable to an unnormalized DFT bin).
    pub fn run(&self, samples: &[f32]) -> (f64, f64) {
        let mut s_prev = 0.0f64;
        let mut s_prev2 = 0.0f64;
        for &x in samples {
            let s = x as f64 + self.coeff * s_prev - s_prev2;
            s_prev2 = s_prev;
            s_prev = s;
        }
        let re = s_prev * self.cos_w - s_prev2;
        let im = s_prev * self.sin_w;
        (re, im)
    }

    /// Magnitude of the target-frequency component, normalized so that a
    /// unit-amplitude sine exactly at the target frequency yields ≈ 1.0
    /// regardless of buffer length.
    pub fn magnitude(&self, samples: &[f32]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let (re, im) = self.run(samples);
        re.hypot(im) * 2.0 / samples.len() as f64
    }

    /// Convenience: normalized magnitude over a whole [`Signal`].
    pub fn magnitude_of(&self, signal: &Signal) -> f64 {
        self.magnitude(signal.samples())
    }
}

/// Evaluate the normalized magnitude at each of `freqs_hz` over `signal`.
/// Returns magnitudes in the same order as the input frequencies.
pub fn magnitudes_at(signal: &Signal, freqs_hz: &[f64]) -> Vec<f64> {
    freqs_hz
        .iter()
        .map(|&f| Goertzel::new(f, signal.sample_rate()).magnitude_of(signal))
        .collect()
}

/// Reusable recurrence state for [`GoertzelBank`]; one per frame loop.
///
/// Holding the state outside the bank keeps the bank shareable (`&self`)
/// across threads while the per-call scratch is reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GoertzelState {
    s1: Vec<f64>,
    s2: Vec<f64>,
}

/// A bank of Goertzel filters evaluated in a single pass over the samples.
///
/// Probing C candidate frequencies with independent [`Goertzel`] filters
/// walks the frame C times; the bank keeps all C recurrences live and walks
/// the frame once, which is both cache-friendly (each sample is loaded once)
/// and auto-vectorizable (the inner loop is a pure fused multiply-add over
/// contiguous state arrays). Per candidate, the recurrence and the
/// normalization are *identical* to [`Goertzel`], so the bank's magnitudes
/// are bit-for-bit the same as the per-candidate path.
///
/// ```
/// use mdn_audio::goertzel::{Goertzel, GoertzelBank};
/// use mdn_audio::synth::Tone;
/// use std::time::Duration;
///
/// let tone = Tone::new(700.0, Duration::from_millis(100), 0.4).render(44_100);
/// let bank = GoertzelBank::new(&[500.0, 700.0], 44_100);
/// let mags = bank.magnitudes(tone.samples());
/// assert_eq!(mags[1], Goertzel::new(700.0, 44_100).magnitude(tone.samples()));
/// ```
#[derive(Debug, Clone)]
pub struct GoertzelBank {
    coeff: Vec<f64>,
    sin_w: Vec<f64>,
    cos_w: Vec<f64>,
}

impl GoertzelBank {
    /// Build a bank for `freqs_hz` at `sample_rate`.
    ///
    /// # Panics
    /// Panics if any frequency is not in `(0, sample_rate/2)`.
    pub fn new(freqs_hz: &[f64], sample_rate: u32) -> Self {
        let mut coeff = Vec::with_capacity(freqs_hz.len());
        let mut sin_w = Vec::with_capacity(freqs_hz.len());
        let mut cos_w = Vec::with_capacity(freqs_hz.len());
        for &f in freqs_hz {
            let g = Goertzel::new(f, sample_rate);
            coeff.push(g.coeff);
            sin_w.push(g.sin_w);
            cos_w.push(g.cos_w);
        }
        Self {
            coeff,
            sin_w,
            cos_w,
        }
    }

    /// Number of candidate frequencies in the bank.
    pub fn len(&self) -> usize {
        self.coeff.len()
    }

    /// True if the bank holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.coeff.is_empty()
    }

    /// Normalized magnitudes of all candidates over `samples`, written into
    /// `out` (one per candidate, bank order), reusing `state` so the hot
    /// path allocates nothing.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the bank size.
    pub fn magnitudes_into(&self, samples: &[f32], state: &mut GoertzelState, out: &mut [f64]) {
        let k = self.len();
        assert_eq!(out.len(), k, "output slice must match bank size");
        if samples.is_empty() {
            out.fill(0.0);
            return;
        }
        state.s1.clear();
        state.s1.resize(k, 0.0);
        state.s2.clear();
        state.s2.resize(k, 0.0);
        let (s1, s2) = (&mut state.s1[..], &mut state.s2[..]);
        let coeff = &self.coeff[..];
        // One traversal of the frame; all recurrences advance in lockstep.
        for &x in samples {
            let x = x as f64;
            for c in 0..k {
                let s = x + coeff[c] * s1[c] - s2[c];
                s2[c] = s1[c];
                s1[c] = s;
            }
        }
        // Same expression shape as `Goertzel::magnitude` so the result is
        // bit-identical to the per-candidate path.
        let len = samples.len() as f64;
        for c in 0..k {
            let re = s1[c] * self.cos_w[c] - s2[c];
            let im = s1[c] * self.sin_w[c];
            out[c] = re.hypot(im) * 2.0 / len;
        }
    }

    /// Convenience: allocate fresh state and an output vector.
    pub fn magnitudes(&self, samples: &[f32]) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.magnitudes_into(samples, &mut GoertzelState::default(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Tone;
    use std::time::Duration;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, amp: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), amp).render(SR)
    }

    #[test]
    fn detects_matching_tone_with_unit_normalization() {
        let s = tone(1000.0, 100, 0.8);
        let g = Goertzel::new(1000.0, SR);
        let m = g.magnitude_of(&s);
        assert!((m - 0.8).abs() < 0.05, "magnitude {m}");
    }

    #[test]
    fn rejects_distant_tone() {
        let s = tone(1000.0, 100, 0.8);
        let g = Goertzel::new(2000.0, SR);
        assert!(g.magnitude_of(&s) < 0.02);
    }

    #[test]
    fn separates_20hz_spaced_tones_in_long_window() {
        // The paper's 20 Hz spacing claim: with a long enough window the
        // Goertzel bin at f rejects a tone at f+20.
        let s = tone(1000.0, 200, 0.5);
        let on = Goertzel::new(1000.0, SR).magnitude_of(&s);
        let off = Goertzel::new(1020.0, SR).magnitude_of(&s);
        assert!(on > 10.0 * off, "on {on} off {off}");
    }

    #[test]
    fn magnitude_of_silence_is_zero() {
        let s = Signal::silence(Duration::from_millis(50), SR);
        assert_eq!(Goertzel::new(440.0, SR).magnitude_of(&s), 0.0);
    }

    #[test]
    fn empty_buffer_is_zero() {
        assert_eq!(Goertzel::new(440.0, SR).magnitude(&[]), 0.0);
    }

    #[test]
    fn magnitudes_at_preserves_order() {
        let mut s = tone(500.0, 100, 0.5);
        s.mix_at(&tone(700.0, 100, 0.25), 0);
        let mags = magnitudes_at(&s, &[500.0, 600.0, 700.0]);
        assert!(mags[0] > 0.4);
        assert!(mags[1] < 0.05);
        assert!((mags[2] - 0.25).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_frequency_above_nyquist() {
        Goertzel::new(30_000.0, SR);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_zero_frequency() {
        Goertzel::new(0.0, SR);
    }

    #[test]
    fn bank_matches_individual_filters_exactly() {
        // A busy buffer (two tones + DC-ish bias) so the recurrences carry
        // non-trivial state; the bank must equal the per-candidate path to
        // the last bit on every frequency.
        let mut s = tone(500.0, 80, 0.5);
        s.mix_at(&tone(740.0, 80, 0.3), 0);
        let freqs = [440.0, 500.0, 720.0, 740.0, 1000.0];
        let bank = GoertzelBank::new(&freqs, SR);
        assert_eq!(bank.len(), freqs.len());
        assert!(!bank.is_empty());
        let got = bank.magnitudes(s.samples());
        for (c, &f) in freqs.iter().enumerate() {
            assert_eq!(got[c], Goertzel::new(f, SR).magnitude(s.samples()), "{f} Hz");
        }
    }

    #[test]
    fn bank_state_reuse_does_not_leak_between_calls() {
        let loud = tone(700.0, 50, 0.8);
        let quiet = tone(700.0, 50, 0.01);
        let bank = GoertzelBank::new(&[700.0], SR);
        let mut state = GoertzelState::default();
        let mut out = [0.0f64];
        bank.magnitudes_into(loud.samples(), &mut state, &mut out);
        let first = out[0];
        bank.magnitudes_into(quiet.samples(), &mut state, &mut out);
        assert!(out[0] < first / 10.0, "stale state leaked: {}", out[0]);
        bank.magnitudes_into(loud.samples(), &mut state, &mut out);
        assert_eq!(out[0], first, "reused state must reproduce the result");
    }

    #[test]
    fn bank_empty_samples_yield_zeros() {
        let bank = GoertzelBank::new(&[500.0, 700.0], SR);
        assert_eq!(bank.magnitudes(&[]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "match bank size")]
    fn bank_rejects_mismatched_output_slice() {
        let bank = GoertzelBank::new(&[500.0, 700.0], SR);
        let mut out = [0.0f64; 3];
        bank.magnitudes_into(&[0.0; 64], &mut GoertzelState::default(), &mut out);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bank_rejects_frequency_above_nyquist() {
        GoertzelBank::new(&[700.0, 30_000.0], SR);
    }

    #[test]
    fn agrees_with_fft_bin() {
        use crate::fft::FftPlanner;
        // Tone exactly on an FFT bin: both estimates should agree.
        let n = 4096usize;
        let bin = 93usize;
        let freq = bin as f64 * SR as f64 / n as f64;
        let samples: Vec<f32> = (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / SR as f64).sin() as f32)
            .collect();
        let g = Goertzel::new(freq, SR).magnitude(&samples);
        let spec = FftPlanner::new().forward_real(&samples, None);
        let f = spec[bin].norm() * 2.0 / n as f64;
        assert!((g - f).abs() < 1e-6, "goertzel {g} fft {f}");
    }
}
