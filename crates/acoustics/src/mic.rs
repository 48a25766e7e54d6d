//! Microphone model.
//!
//! The paper tests "different types of microphones (from very cheap to
//! fairly expensive)". A microphone here is an ADC front-end: it resamples
//! the pressure signal at the listener position to its own capture rate,
//! adds its self-noise floor, applies a response band, and clips at full
//! scale.

use mdn_audio::noise::white_noise_add;
use mdn_audio::resample::resample;
use mdn_audio::signal::spl_to_amplitude;
use mdn_audio::Signal;

/// A microphone/ADC model.
#[derive(Debug, Clone)]
pub struct Microphone {
    /// Human-readable name.
    pub name: &'static str,
    /// Capture sample rate in Hz.
    pub sample_rate: u32,
    /// Self-noise floor in dB SPL (electronics hiss added to every capture).
    pub noise_floor_spl: f64,
    /// Usable response band `(lo_hz, hi_hz)`; energy outside is attenuated
    /// by simple one-pole filters.
    pub band: (f64, f64),
    /// Seed for the self-noise generator (captures are deterministic).
    pub noise_seed: u64,
}

impl Microphone {
    /// A very cheap electret capsule: 16 kHz capture, 35 dB SPL self-noise,
    /// narrow band.
    pub fn cheap() -> Self {
        Self {
            name: "cheap-electret",
            sample_rate: 16_000,
            noise_floor_spl: 35.0,
            band: (150.0, 7_000.0),
            noise_seed: 0x31C,
        }
    }

    /// A decent USB measurement mic: 44.1 kHz, 18 dB SPL self-noise.
    pub fn measurement() -> Self {
        Self {
            name: "measurement",
            sample_rate: 44_100,
            noise_floor_spl: 18.0,
            band: (40.0, 20_000.0),
            noise_seed: 0xA11CE,
        }
    }

    /// An ultrasound-capable instrumentation mic (96 kHz capture) for the
    /// §8 extension.
    pub fn ultrasound() -> Self {
        Self {
            name: "ultrasound",
            sample_rate: 96_000,
            noise_floor_spl: 22.0,
            band: (40.0, 45_000.0),
            noise_seed: 0xBA7,
        }
    }

    /// Capture a pressure signal: band-limit, resample to the ADC rate, add
    /// the self-noise floor, clip at full scale.
    pub fn capture(&self, pressure: &Signal) -> Signal {
        self.capture_owned(pressure.clone())
    }

    /// [`Microphone::capture`] on a signal the caller no longer needs:
    /// every stage works in place on its buffer, and a new one is
    /// allocated only when the ADC rate differs from the signal's.
    pub fn capture_owned(&self, mut sig: Signal) -> Signal {
        band_limit(&mut sig, self.band.0, self.band.1);
        if sig.sample_rate() != self.sample_rate {
            sig = resample(&sig, self.sample_rate);
        }
        white_noise_add(
            sig.samples_mut(),
            0,
            spl_to_amplitude(self.noise_floor_spl),
            self.noise_seed,
        );
        sig.clip();
        sig
    }
}

/// Band-limit a signal in place with cascaded one-pole high/low-pass
/// filters.
fn band_limit(signal: &mut Signal, lo_hz: f64, hi_hz: f64) {
    let sr = signal.sample_rate() as f64;
    let dt = 1.0 / sr;
    let alpha = |fc: f64| {
        let rc = 1.0 / (2.0 * std::f64::consts::PI * fc);
        dt / (rc + dt)
    };
    let a_lo = alpha(lo_hz.max(1.0));
    let a_hi = alpha(hi_hz.min(sr / 2.0 - 1.0));
    let mut lp_state = 0.0f64; // tracks low-frequency content (to subtract)
    let mut out_state = 0.0f64; // lowpass at the upper cutoff
    for s in signal.samples_mut() {
        let x = *s as f64;
        lp_state += a_lo * (x - lp_state);
        let highpassed = x - lp_state;
        out_state += a_hi * (highpassed - out_state);
        *s = out_state as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_audio::spectral::Spectrum;
    use mdn_audio::synth::Tone;
    use std::time::Duration;

    const SR: u32 = 44_100;

    fn tone(freq: f64, ms: u64, spl: f64) -> Signal {
        Tone::new(freq, Duration::from_millis(ms), spl_to_amplitude(spl)).render(SR)
    }

    #[test]
    fn capture_resamples_to_adc_rate() {
        let mic = Microphone::cheap();
        let cap = mic.capture(&tone(1000.0, 100, 60.0));
        assert_eq!(cap.sample_rate(), 16_000);
        assert!((cap.duration().as_secs_f64() - 0.1).abs() < 0.01);
    }

    #[test]
    fn in_band_tone_survives_capture() {
        let mic = Microphone::measurement();
        let cap = mic.capture(&tone(1000.0, 200, 60.0));
        let spec = Spectrum::of(&cap);
        let peaks = spec.peaks(spl_to_amplitude(50.0), 50.0);
        assert!(!peaks.is_empty(), "tone lost in capture");
        assert!((peaks[0].freq_hz - 1000.0).abs() < 10.0);
    }

    #[test]
    fn out_of_band_tone_attenuated_by_cheap_mic() {
        let mic = Microphone::cheap();
        // 20 Hz is far below the cheap mic's 150 Hz corner. Compare the
        // captured tone energy at its own frequency against in-band.
        let low = mic.capture(&tone(20.0, 500, 70.0));
        let mid = mic.capture(&tone(1000.0, 500, 70.0));
        let low_mag = Spectrum::of(&low).magnitude_at(20.0);
        let mid_mag = Spectrum::of(&mid).magnitude_at(1000.0);
        assert!(mid_mag > 5.0 * low_mag, "mid {mid_mag} low {low_mag}");
    }

    #[test]
    fn noise_floor_present_in_silence() {
        let mic = Microphone::measurement();
        let cap = mic.capture(&Signal::silence(Duration::from_millis(500), SR));
        let spl = cap.rms_spl();
        // Should land near the configured floor (within the band-limit loss).
        assert!(spl > 5.0 && spl < 25.0, "floor captured at {spl} dB SPL");
    }

    #[test]
    fn capture_is_deterministic() {
        let mic = Microphone::measurement();
        let sig = tone(700.0, 100, 60.0);
        assert_eq!(mic.capture(&sig).samples(), mic.capture(&sig).samples());
    }

    #[test]
    fn loud_input_is_clipped() {
        let mic = Microphone::measurement();
        let loud = tone(1000.0, 100, 130.0); // 30 dB over full scale
        let cap = mic.capture(&loud);
        assert!(cap.peak() <= 1.0);
    }

    #[test]
    fn empty_input_empty_output() {
        let mic = Microphone::cheap();
        assert!(mic.capture(&Signal::empty(SR)).is_empty());
    }

    /// The allocate-and-mix capture chain `capture_owned` replaced, kept
    /// as the reference it must reproduce bit for bit.
    fn reference_capture(mic: &Microphone, pressure: &Signal) -> Signal {
        let sr = pressure.sample_rate() as f64;
        let dt = 1.0 / sr;
        let alpha = |fc: f64| {
            let rc = 1.0 / (2.0 * std::f64::consts::PI * fc);
            dt / (rc + dt)
        };
        let a_lo = alpha(mic.band.0.max(1.0));
        let a_hi = alpha(mic.band.1.min(sr / 2.0 - 1.0));
        let (mut lp_state, mut out_state) = (0.0f64, 0.0f64);
        let mut limited = Vec::with_capacity(pressure.len());
        for &x in pressure.samples() {
            lp_state += a_lo * (x as f64 - lp_state);
            let highpassed = x as f64 - lp_state;
            out_state += a_hi * (highpassed - out_state);
            limited.push(out_state as f32);
        }
        let limited = Signal::from_samples(limited, pressure.sample_rate());
        let mut sig = resample(&limited, mic.sample_rate);
        if !sig.is_empty() {
            let floor = mdn_audio::noise::white_noise(
                sig.duration(),
                spl_to_amplitude(mic.noise_floor_spl),
                mic.sample_rate,
                mic.noise_seed,
            );
            sig.mix_at(&floor, 0);
        }
        sig.clip();
        sig
    }

    fn bits(sig: &Signal) -> Vec<u32> {
        sig.samples().iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn in_place_capture_matches_the_allocating_chain_bit_for_bit() {
        // A tone over a broadband bed, loud enough in places to clip.
        let mut pressure = tone(1000.0, 237, 70.0);
        pressure.mix_at(
            &mdn_audio::noise::pink_noise(Duration::from_millis(237), 0.2, SR, 3),
            0,
        );
        pressure.mix_at(&tone(300.0, 40, 125.0), 2000);
        // Equal rates (no resample), downsampling and upsampling.
        for mic in [
            Microphone::measurement(),
            Microphone::cheap(),
            Microphone::ultrasound(),
        ] {
            let want = reference_capture(&mic, &pressure);
            let got = mic.capture_owned(pressure.clone());
            assert_eq!(got.sample_rate(), want.sample_rate(), "{}", mic.name);
            assert_eq!(bits(&got), bits(&want), "{} diverged", mic.name);
            assert_eq!(bits(&mic.capture(&pressure)), bits(&want), "{}", mic.name);
            let empty = mic.capture_owned(Signal::empty(SR));
            let want_empty = reference_capture(&mic, &Signal::empty(SR));
            assert!(empty.is_empty() && want_empty.is_empty(), "{}", mic.name);
            assert_eq!(empty.sample_rate(), want_empty.sample_rate());
        }
    }
}
