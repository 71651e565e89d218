//! Parameterized harvesting-environment models for fleet simulation.
//!
//! [`crate::trace`] ships the paper's fixed nine-trace ensemble; a fleet
//! of thousands of devices needs *families* of environments whose
//! parameters (mean power, burstiness, diurnal period) vary per cohort
//! and whose per-device traces are synthesized on demand from a device
//! seed — never materialized as trace files. Each [`EnvModel`] is a
//! pure function of `(parameters, seed, duration)`, so a device's trace
//! can be regenerated bit-identically anywhere (a resumed fleet sweep
//! replays the exact same environments), and each model knows its
//! configured long-run mean power so statistical sanity is testable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{pool_take, samples_per_ms, PowerTrace, TraceKind, SAMPLE_HZ};

/// A parameterized synthetic harvesting environment.
///
/// All powers are in watts, durations in their named units. The three
/// families cover the deployments the intermittent-computing literature
/// evaluates: ambient RF (bursty, paper §IV), outdoor solar (diurnal),
/// and kinetic/piezo harvesters (sparse impulses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvModel {
    /// Wi-Fi/RF-like: alternating ON bursts and OFF gaps with
    /// exponentially distributed durations; burst amplitude is drawn so
    /// the long-run mean power is `mean_power_w`.
    RfBursty {
        /// Long-run mean harvested power.
        mean_power_w: f64,
        /// Mean burst duration, milliseconds.
        mean_burst_ms: f64,
        /// Mean gap duration, milliseconds.
        mean_gap_ms: f64,
    },
    /// Solar-like: a clipped sinusoid (daylight half of a compressed
    /// diurnal cycle) times multiplicative flicker with mean 1.
    SolarDiurnal {
        /// Peak (noon) harvested power.
        peak_power_w: f64,
        /// Length of one simulated day, seconds.
        day_s: f64,
    },
    /// Piezo/kinetic-like: a small leakage baseline plus sparse
    /// rectangular impulses (footsteps, machine vibration) with
    /// exponentially distributed quiet gaps.
    PiezoImpulse {
        /// Power between impulses (harvester leakage / ambient floor).
        baseline_w: f64,
        /// Power during an impulse.
        impulse_w: f64,
        /// Impulse duration, milliseconds.
        impulse_ms: f64,
        /// Mean quiet gap between impulses, milliseconds.
        mean_gap_ms: f64,
    },
}

impl EnvModel {
    /// RF-bursty at the paper's burst power and 40 ms / 40 ms geometry.
    pub fn rf_default() -> EnvModel {
        EnvModel::RfBursty {
            mean_power_w: PowerTrace::RF_BURST_POWER_W / 2.0,
            mean_burst_ms: 40.0,
            mean_gap_ms: 40.0,
        }
    }

    /// Solar with a 20-second compressed "day" peaking at the RF burst
    /// power (keeps quick kernels in the outage-dominated regime).
    pub fn solar_default() -> EnvModel {
        EnvModel::SolarDiurnal {
            peak_power_w: PowerTrace::RF_BURST_POWER_W,
            day_s: 20.0,
        }
    }

    /// Piezo impulses: 5 ms bursts at 4× RF burst power every ~100 ms.
    pub fn piezo_default() -> EnvModel {
        EnvModel::PiezoImpulse {
            baseline_w: PowerTrace::RF_BURST_POWER_W * 0.01,
            impulse_w: PowerTrace::RF_BURST_POWER_W * 4.0,
            impulse_ms: 5.0,
            mean_gap_ms: 100.0,
        }
    }

    /// Short machine-readable family name (stable; used by fleet
    /// scenario files and reports).
    pub fn name(&self) -> &'static str {
        match self {
            EnvModel::RfBursty { .. } => "rf-bursty",
            EnvModel::SolarDiurnal { .. } => "solar-diurnal",
            EnvModel::PiezoImpulse { .. } => "piezo-impulse",
        }
    }

    /// The model's configured long-run mean harvested power, in watts —
    /// the analytic expectation the synthesized traces approach as the
    /// duration grows (duration-bounded clamping keeps realized means
    /// within ~20 % on minute-scale traces).
    pub fn expected_mean_power_w(&self) -> f64 {
        match *self {
            EnvModel::RfBursty { mean_power_w, .. } => mean_power_w,
            // Mean of the positive half of a sinusoid over a full
            // period is peak/π.
            EnvModel::SolarDiurnal { peak_power_w, .. } => peak_power_w / std::f64::consts::PI,
            EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            } => {
                let duty = impulse_ms / (impulse_ms + mean_gap_ms);
                impulse_w * duty + baseline_w * (1.0 - duty)
            }
        }
    }

    /// Checks every parameter against what [`EnvModel::synthesize`]
    /// needs: all finite, powers ≥ 0, durations > 0, and the mean burst
    /// and gap lengths the synthesizer draws from an exponential at
    /// least 0.05 ms.
    ///
    /// # Errors
    ///
    /// The first parameter out of bounds.
    pub fn validate(&self) -> Result<(), EnvParamError> {
        let bound = |param, ok: bool, rule| {
            if ok {
                Ok(())
            } else {
                Err(EnvParamError { param, rule })
            }
        };
        let power = |p, v: f64| bound(p, v.is_finite() && v >= 0.0, "finite and >= 0");
        let duration = |p, v: f64| bound(p, v.is_finite() && v > 0.0, "finite and > 0");
        let segment = |p, v: f64| {
            bound(
                p,
                v.is_finite() && v >= MIN_MEAN_SEGMENT_MS,
                "finite and >= 0.05 ms",
            )
        };
        match *self {
            EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } => {
                power("mean_power_w", mean_power_w)?;
                segment("mean_burst_ms", mean_burst_ms)?;
                segment("mean_gap_ms", mean_gap_ms)
            }
            EnvModel::SolarDiurnal {
                peak_power_w,
                day_s,
            } => {
                power("peak_power_w", peak_power_w)?;
                duration("day_s", day_s)
            }
            EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            } => {
                power("baseline_w", baseline_w)?;
                power("impulse_w", impulse_w)?;
                duration("impulse_ms", impulse_ms)?;
                segment("mean_gap_ms", mean_gap_ms)
            }
        }
    }

    fn assert_synthesizable(&self, duration_s: f64) {
        assert!(duration_s > 0.0, "trace duration must be positive");
        if let Err(e) = self.validate() {
            panic!("invalid {} environment: {e}", self.name());
        }
    }

    /// Synthesizes a 1 kHz power trace of `duration_s` seconds.
    /// Deterministic for `(self, seed)`: the same device seed always
    /// yields a bit-identical trace.
    ///
    /// RF-bursty and piezo-impulse environments are piecewise-constant
    /// by construction, so they are synthesized **segment-native**: one
    /// run per burst/gap in O(#segments), with no per-sample vector
    /// materialized. The result is bit-identical, sample for sample, to
    /// [`EnvModel::synthesize_sampled`] — same RNG draw sequence (the
    /// sampled loop only draws segment parameters, never per-sample
    /// values, for these families), same float expressions — which the
    /// differential tests pin. Solar-diurnal has genuinely dense
    /// per-sample flicker and stays sampled.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive or [`EnvModel::validate`]
    /// refuses the model.
    pub fn synthesize(&self, seed: u64, duration_s: f64) -> PowerTrace {
        self.assert_synthesizable(duration_s);
        let n = (duration_s * SAMPLE_HZ).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x574e_464c_4545_5401);
        match *self {
            EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } => {
                // Amplitude is drawn uniform around the level that makes
                // the long-run mean come out at `mean_power_w` for the
                // configured duty cycle.
                let duty = mean_burst_ms / (mean_burst_ms + mean_gap_ms);
                let on_level = mean_power_w / duty.max(1e-12);
                let mut runs = Vec::new();
                let mut produced = 0usize;
                let mut on = rng.gen_bool(0.5);
                // Draw-then-truncate matches the sampled loop exactly:
                // it draws a segment's parameters only when a sample
                // still needs pushing, i.e. while produced < n.
                while produced < n {
                    on = !on;
                    let mean_ms = if on { mean_burst_ms } else { mean_gap_ms };
                    let dur_ms = exp_sample(&mut rng, mean_ms).clamp(1.0, 20.0 * mean_ms);
                    let seg_len = samples_per_ms(dur_ms).min(n - produced);
                    let level = if on {
                        on_level * (0.4 + 1.2 * rng.gen::<f64>())
                    } else {
                        0.0
                    };
                    runs.push((seg_len, level.max(0.0) as f32));
                    produced += seg_len;
                }
                PowerTrace::from_segments(runs, TraceKind::Imported, 0)
            }
            EnvModel::SolarDiurnal { .. } => self.synthesize_sampled(seed, duration_s),
            EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            } => {
                let mut runs = Vec::new();
                let mut produced = 0usize;
                let mut on = false;
                while produced < n {
                    on = !on;
                    let dur_ms = if on {
                        impulse_ms.max(1.0)
                    } else {
                        exp_sample(&mut rng, mean_gap_ms).clamp(1.0, 20.0 * mean_gap_ms)
                    };
                    let seg_len = samples_per_ms(dur_ms).min(n - produced);
                    if on {
                        // Impulse amplitude jitters per sample in the
                        // sampled form, so impulses become length-1 runs
                        // drawing the same RNG values in the same order.
                        for _ in 0..seg_len {
                            let level = impulse_w * (0.7 + 0.6 * rng.gen::<f64>());
                            runs.push((1, level.max(0.0) as f32));
                        }
                    } else {
                        runs.push((seg_len, baseline_w.max(0.0) as f32));
                    }
                    produced += seg_len;
                }
                PowerTrace::from_segments(runs, TraceKind::Imported, 0)
            }
        }
    }

    /// Reference per-sample synthesis: pushes every 1 kHz sample into a
    /// dense vector. This is the historical implementation; the
    /// segment-native [`EnvModel::synthesize`] must match it bit for
    /// bit, and the differential tests (plus the cross-representation
    /// proptests) hold it to that.
    pub fn synthesize_sampled(&self, seed: u64, duration_s: f64) -> PowerTrace {
        self.assert_synthesizable(duration_s);
        let n = (duration_s * SAMPLE_HZ).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x574e_464c_4545_5401);
        let mut samples = pool_take(n);
        match *self {
            EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } => {
                let duty = mean_burst_ms / (mean_burst_ms + mean_gap_ms);
                let on_level = mean_power_w / duty.max(1e-12);
                let mut remaining = 0usize;
                let mut level = 0.0f64;
                let mut on = rng.gen_bool(0.5);
                while samples.len() < n {
                    if remaining == 0 {
                        on = !on;
                        let mean_ms = if on { mean_burst_ms } else { mean_gap_ms };
                        let dur_ms = exp_sample(&mut rng, mean_ms).clamp(1.0, 20.0 * mean_ms);
                        remaining = samples_per_ms(dur_ms);
                        level = if on {
                            on_level * (0.4 + 1.2 * rng.gen::<f64>())
                        } else {
                            0.0
                        };
                    }
                    samples.push(level.max(0.0) as f32);
                    remaining -= 1;
                }
            }
            EnvModel::SolarDiurnal {
                peak_power_w,
                day_s,
            } => {
                // Per-device phase offset: two devices in the same field
                // see the same sun, but fleet cohorts model dispersed
                // deployments, so the diurnal phase is seeded too.
                let phase = rng.gen::<f64>() * day_s;
                for i in 0..n {
                    let t = i as f64 / SAMPLE_HZ + phase;
                    let sun = (2.0 * std::f64::consts::PI * t / day_s).sin().max(0.0);
                    let flicker = 0.8 + 0.4 * rng.gen::<f64>();
                    samples.push((peak_power_w * sun * flicker) as f32);
                }
            }
            EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            } => {
                let mut remaining = 0usize;
                let mut on = false;
                while samples.len() < n {
                    if remaining == 0 {
                        on = !on;
                        let dur_ms = if on {
                            impulse_ms.max(1.0)
                        } else {
                            exp_sample(&mut rng, mean_gap_ms).clamp(1.0, 20.0 * mean_gap_ms)
                        };
                        remaining = samples_per_ms(dur_ms);
                    }
                    let level = if on {
                        impulse_w * (0.7 + 0.6 * rng.gen::<f64>())
                    } else {
                        baseline_w
                    };
                    samples.push(level.max(0.0) as f32);
                    remaining -= 1;
                }
            }
        }
        PowerTrace::from_samples(samples)
    }
}

/// Shortest mean burst or gap, in milliseconds, an [`EnvModel`] accepts:
/// the synthesizer clamps each exponential draw to `[1, 20 · mean]` ms,
/// and below this mean the two bounds cross.
const MIN_MEAN_SEGMENT_MS: f64 = 0.05;

/// An [`EnvModel`] parameter [`EnvModel::validate`] refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvParamError {
    /// The field, as [`EnvModel`] names it.
    pub param: &'static str,
    /// The bound the value breaks, e.g. `finite and > 0`.
    pub rule: &'static str,
}

impl std::fmt::Display for EnvParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} must be {}", self.param, self.rule)
    }
}

impl std::error::Error for EnvParamError {}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-9..1.0);
    -mean * u.ln()
}

/// Closed-form stationary statistics of a harvesting environment — the
/// analytic counterpart of [`EnvModel::synthesize`], used by the
/// `wn-analyze` prediction layer instead of drawing traces.
///
/// "On" means the harvester delivers power above
/// [`HarvestStats::on_threshold_w`] (a burst, daylight, an impulse);
/// "off" is the complementary dead interval (a gap, night, quiet).
/// The closed forms account for the duration clamp the synthesizer
/// applies (`exp_sample(..).clamp(1.0, 20.0 * mean)` milliseconds), so
/// they describe the *synthesized* process, not the ideal exponential.
/// Two residual deviations remain, both bounded and covered by the
/// property tests' tolerance: segment durations are quantized to whole
/// 1 kHz samples (`round().max(1)`, ≤ half a sample of bias per
/// segment), and `exp_sample`'s `u ≥ 1e-9` floor truncates the extreme
/// upper tail (beyond `20.7×` the mean, already removed by the clamp).
pub trait HarvestStats {
    /// Mean duration of one harvesting-active interval, seconds.
    fn mean_on_duration_s(&self) -> f64;

    /// Mean duration of one harvest-dead interval, seconds.
    fn mean_off_duration_s(&self) -> f64;

    /// Long-run fraction of time the harvester is active.
    fn duty_cycle(&self) -> f64 {
        let on = self.mean_on_duration_s();
        let off = self.mean_off_duration_s();
        if on + off <= 0.0 {
            return 0.0;
        }
        on / (on + off)
    }

    /// Power level separating "on" from "off" samples, watts. Chosen
    /// per family so amplitude jitter cannot cross it (e.g. RF burst
    /// levels are ≥ 0.4× the nominal level; the threshold sits at
    /// 0.2×).
    fn on_threshold_w(&self) -> f64;

    /// Mean harvested power conditional on the harvester being active,
    /// watts.
    fn active_power_w(&self) -> f64;

    /// Clamp-aware long-run mean power of the synthesized process,
    /// watts. This can differ slightly from the *configured* mean
    /// ([`EnvModel::expected_mean_power_w`]) because the duration clamp
    /// shifts the realized duty cycle.
    fn stationary_mean_power_w(&self) -> f64 {
        let duty = self.duty_cycle();
        self.active_power_w() * duty + self.off_floor_power_w() * (1.0 - duty)
    }

    /// Power delivered during "off" intervals (zero for RF gaps and
    /// solar nights; the leakage baseline for piezo).
    fn off_floor_power_w(&self) -> f64 {
        0.0
    }

    /// Asymptotic variance rate of accumulated harvest energy: for
    /// large `T`, `Var(∫₀ᵀ P dt) ≈ rate · T` (units W²·s). Computed
    /// with the renewal-reward central limit theorem over one
    /// on/off cycle. Zero for solar-diurnal, whose per-device
    /// variability is the deterministic phase offset, not a renewal
    /// process — callers quantize over the phase instead.
    fn harvest_variance_rate(&self) -> f64;
}

/// Mean of the synthesizer's clamped exponential: `X ~ Exp(mean_ms)`
/// clamped to `[1.0, 20·mean_ms]` milliseconds.
/// `E[min(max(X,a),b)] = a + μ(e^(−a/μ) − e^(−b/μ))`.
fn clamped_exp_mean_ms(mean_ms: f64) -> f64 {
    if mean_ms <= 0.0 {
        return 1.0;
    }
    let (a, mu) = (1.0f64, mean_ms);
    let b = (20.0 * mu).max(a);
    a + mu * ((-a / mu).exp() - (-b / mu).exp())
}

/// Second moment of the same clamped exponential:
/// `E[Z²] = a² + e^(−a/μ)(2aμ + 2μ²) − e^(−b/μ)(2bμ + 2μ²)`.
fn clamped_exp_second_moment_ms2(mean_ms: f64) -> f64 {
    if mean_ms <= 0.0 {
        return 1.0;
    }
    let (a, mu) = (1.0f64, mean_ms);
    let b = (20.0 * mu).max(a);
    a * a + (-a / mu).exp() * (2.0 * a * mu + 2.0 * mu * mu)
        - (-b / mu).exp() * (2.0 * b * mu + 2.0 * mu * mu)
}

fn clamped_exp_var_ms2(mean_ms: f64) -> f64 {
    let m = clamped_exp_mean_ms(mean_ms);
    (clamped_exp_second_moment_ms2(mean_ms) - m * m).max(0.0)
}

/// Smith's renewal-reward variance rate for an alternating on/off
/// process: cycles of length `L = D + G` carry reward `R` (energy, J)
/// with the given moments; the asymptotic rate is
/// `(Var R − 2c·Cov(R,L) + c²·Var L) / E[L]` with `c = E[R]/E[L]`.
fn renewal_variance_rate(
    mean_cycle_s: f64,
    var_cycle_s2: f64,
    mean_reward_j: f64,
    var_reward_j2: f64,
    cov_reward_cycle: f64,
) -> f64 {
    if mean_cycle_s <= 0.0 {
        return 0.0;
    }
    let c = mean_reward_j / mean_cycle_s;
    let v = var_reward_j2 - 2.0 * c * cov_reward_cycle + c * c * var_cycle_s2;
    (v / mean_cycle_s).max(0.0)
}

impl HarvestStats for EnvModel {
    fn mean_on_duration_s(&self) -> f64 {
        match *self {
            EnvModel::RfBursty { mean_burst_ms, .. } => clamped_exp_mean_ms(mean_burst_ms) * 1e-3,
            EnvModel::SolarDiurnal { day_s, .. } => day_s / 2.0,
            EnvModel::PiezoImpulse { impulse_ms, .. } => impulse_ms.max(1.0) * 1e-3,
        }
    }

    fn mean_off_duration_s(&self) -> f64 {
        match *self {
            EnvModel::RfBursty { mean_gap_ms, .. } => clamped_exp_mean_ms(mean_gap_ms) * 1e-3,
            EnvModel::SolarDiurnal { day_s, .. } => day_s / 2.0,
            EnvModel::PiezoImpulse { mean_gap_ms, .. } => clamped_exp_mean_ms(mean_gap_ms) * 1e-3,
        }
    }

    fn on_threshold_w(&self) -> f64 {
        match *self {
            // Burst levels are `on_level · (0.4 + 1.2U)`, so ≥ 0.4×; the
            // gap floor is exactly zero. Halfway below the lowest burst.
            EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } => {
                let duty = mean_burst_ms / (mean_burst_ms + mean_gap_ms);
                0.2 * mean_power_w / duty.max(1e-12)
            }
            // Any positive sun sample counts as daylight.
            EnvModel::SolarDiurnal { .. } => 0.0,
            // Impulse samples are ≥ 0.7× the impulse level; split the
            // range between the baseline and the weakest impulse.
            EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                ..
            } => baseline_w + 0.35 * (impulse_w - baseline_w).max(0.0),
        }
    }

    fn active_power_w(&self) -> f64 {
        match *self {
            // The amplitude factor `0.4 + 1.2U` has mean exactly 1.
            EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } => {
                let duty = mean_burst_ms / (mean_burst_ms + mean_gap_ms);
                mean_power_w / duty.max(1e-12)
            }
            // Mean of sin over its positive half-period is 2/π; flicker
            // `0.8 + 0.4U` has mean 1.
            EnvModel::SolarDiurnal { peak_power_w, .. } => {
                2.0 * peak_power_w / std::f64::consts::PI
            }
            // Per-sample jitter `0.7 + 0.6U` has mean 1.
            EnvModel::PiezoImpulse { impulse_w, .. } => impulse_w,
        }
    }

    fn off_floor_power_w(&self) -> f64 {
        match *self {
            EnvModel::PiezoImpulse { baseline_w, .. } => baseline_w,
            _ => 0.0,
        }
    }

    fn harvest_variance_rate(&self) -> f64 {
        match *self {
            EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } => {
                let duty = mean_burst_ms / (mean_burst_ms + mean_gap_ms);
                let a = mean_power_w / duty.max(1e-12); // nominal burst level, W
                let d = clamped_exp_mean_ms(mean_burst_ms) * 1e-3;
                let d2 = clamped_exp_second_moment_ms2(mean_burst_ms) * 1e-6;
                let var_g = clamped_exp_var_ms2(mean_gap_ms) * 1e-6;
                // Reward per cycle R = a·A·D with A ~ U[0.4, 1.6]
                // (E[A] = 1, E[A²] = 1.12), D the clamped burst length.
                let var_r = a * a * (1.12 * d2 - d * d);
                // Cov(A·D, D + G) = E[A]·Var(D) with G independent.
                let cov = a * (d2 - d * d);
                let mean_l = d + clamped_exp_mean_ms(mean_gap_ms) * 1e-3;
                let var_l = (d2 - d * d) + var_g;
                renewal_variance_rate(mean_l, var_l, a * d, var_r, cov)
            }
            EnvModel::SolarDiurnal { .. } => 0.0,
            EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            } => {
                // Decompose into `baseline + (impulse − baseline)·1[on]`:
                // the baseline is deterministic, and the indicator
                // process has a *fixed* on duration, so all variance
                // comes from the gap lengths. (Per-sample amplitude
                // jitter decorrelates at 1 kHz and contributes
                // negligibly at the horizons the predictor integrates
                // over.)
                let excess = (impulse_w - baseline_w).max(0.0);
                let d = impulse_ms.max(1.0) * 1e-3;
                let g = clamped_exp_mean_ms(mean_gap_ms) * 1e-3;
                let var_g = clamped_exp_var_ms2(mean_gap_ms) * 1e-6;
                renewal_variance_rate(d + g, var_g, excess * d, 0.0, 0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODELS: [fn() -> EnvModel; 3] = [
        EnvModel::rf_default,
        EnvModel::solar_default,
        EnvModel::piezo_default,
    ];

    #[test]
    fn names_are_stable() {
        assert_eq!(EnvModel::rf_default().name(), "rf-bursty");
        assert_eq!(EnvModel::solar_default().name(), "solar-diurnal");
        assert_eq!(EnvModel::piezo_default().name(), "piezo-impulse");
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        for model in MODELS {
            let m = model();
            let a = m.synthesize(7, 5.0);
            let b = m.synthesize(7, 5.0);
            assert_eq!(a, b, "{}: seed 7 must reproduce", m.name());
            let c = m.synthesize(8, 5.0);
            assert_ne!(a, c, "{}: different seeds must differ", m.name());
        }
    }

    #[test]
    fn traces_are_nonnegative_and_sized() {
        for model in MODELS {
            let m = model();
            let t = m.synthesize(3, 2.5);
            assert_eq!(t.len(), 2500);
            for i in 0..t.len() {
                assert!(t.power_at(i as f64 / SAMPLE_HZ) >= 0.0, "{}", m.name());
            }
        }
    }

    #[test]
    fn segment_native_matches_sampled_reference() {
        // Tentpole pin: segment-native synthesis is bit-identical to the
        // per-sample reference on every read path.
        let models = [
            EnvModel::rf_default(),
            EnvModel::piezo_default(),
            EnvModel::RfBursty {
                mean_power_w: 3.1e-4,
                mean_burst_ms: 12.5,
                mean_gap_ms: 71.0,
            },
            EnvModel::PiezoImpulse {
                baseline_w: 4.2e-6,
                impulse_w: 9.9e-4,
                impulse_ms: 2.4,
                mean_gap_ms: 33.0,
            },
        ];
        for m in models {
            for seed in 0..4 {
                for dur in [0.35, 2.0, 5.7] {
                    let seg = m.synthesize(seed, dur);
                    let smp = m.synthesize_sampled(seed, dur);
                    assert!(seg.is_segmented(), "{}", m.name());
                    assert!(!smp.is_segmented());
                    assert_eq!(seg, smp, "{} seed {seed} dur {dur}", m.name());
                    for i in 0..seg.len() {
                        let t = i as f64 / SAMPLE_HZ;
                        assert_eq!(
                            seg.power_at(t).to_bits(),
                            smp.power_at(t).to_bits(),
                            "{} seed {seed} dur {dur} sample {i}",
                            m.name()
                        );
                    }
                    assert_eq!(seg.mean_power().to_bits(), smp.mean_power().to_bits());
                    for k in 0..32 {
                        let t0 = k as f64 * 0.0137;
                        assert_eq!(
                            seg.energy_between(t0, 4.3e-3).to_bits(),
                            smp.energy_between(t0, 4.3e-3).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solar_stays_sampled() {
        // Per-sample flicker makes solar genuinely dense; it must not be
        // run-length encoded (that would make reads O(#samples) through
        // a degenerate one-sample-per-segment index).
        let t = EnvModel::solar_default().synthesize(1, 2.0);
        assert!(!t.is_segmented());
        assert_eq!(t, EnvModel::solar_default().synthesize_sampled(1, 2.0));
    }

    #[test]
    fn segment_counts_are_small() {
        // O(#segments) synthesis is the point: a 60 s RF trace has
        // ~1500 bursts/gaps, not 60k samples' worth of segments.
        let t = EnvModel::rf_default().synthesize(3, 60.0);
        let segs = t.segment_count().unwrap();
        assert!(segs < 4000, "RF segments {segs}");
        let t = EnvModel::piezo_default().synthesize(3, 60.0);
        let segs = t.segment_count().unwrap();
        // Impulses are per-sample jittered (length-1 runs) but sparse.
        assert!(segs < 8000, "piezo segments {segs}");
    }

    #[test]
    fn clamped_exp_moments_match_numeric_integration() {
        // Pin the closed forms against brute-force integration of the
        // clamped density: E[Z] and E[Z²] for Z = clamp(X, 1, 20μ).
        for mean in [2.0, 5.0, 40.0, 100.0, 400.0] {
            let (a, b) = (1.0f64, 20.0 * mean);
            let steps = 4_000_000;
            let dx = b * 1.2 / steps as f64;
            let (mut m1, mut m2) = (0.0, 0.0);
            for i in 0..steps {
                let x = (i as f64 + 0.5) * dx;
                let z = x.clamp(a, b);
                let p = (-x / mean).exp() / mean * dx;
                m1 += z * p;
                m2 += z * z * p;
            }
            // Mass beyond the integration horizon sits at the clamp.
            let tail = (-(b * 1.2) / mean).exp();
            m1 += b * tail;
            m2 += b * b * tail;
            let cm1 = clamped_exp_mean_ms(mean);
            let cm2 = clamped_exp_second_moment_ms2(mean);
            assert!((cm1 - m1).abs() < 1e-3 * m1, "mean {mean}: {cm1} vs {m1}");
            assert!((cm2 - m2).abs() < 1e-3 * m2, "mean {mean}: {cm2} vs {m2}");
        }
    }

    #[test]
    fn harvest_stats_default_families_are_sane() {
        let rf = EnvModel::rf_default();
        // 40 ms clamped-exp bursts: the 1 ms floor lifts the mean a bit.
        assert!((rf.mean_on_duration_s() - 0.040).abs() < 0.002);
        assert!((rf.duty_cycle() - 0.5).abs() < 0.01);
        // Clamp-symmetric geometry keeps the stationary mean at the
        // configured mean power.
        let expect = rf.expected_mean_power_w();
        assert!((rf.stationary_mean_power_w() - expect).abs() < 0.02 * expect);
        assert!(rf.harvest_variance_rate() > 0.0);

        let solar = EnvModel::solar_default();
        assert_eq!(solar.mean_on_duration_s(), 10.0);
        assert_eq!(solar.duty_cycle(), 0.5);
        assert!((solar.stationary_mean_power_w() - solar.expected_mean_power_w()).abs() < 1e-12);
        assert_eq!(solar.harvest_variance_rate(), 0.0);

        let piezo = EnvModel::piezo_default();
        assert_eq!(piezo.mean_on_duration_s(), 0.005);
        assert!(piezo.duty_cycle() < 0.06);
        let expect = piezo.expected_mean_power_w();
        // The gap clamp shifts piezo's realized duty by a few percent.
        assert!(
            (piezo.stationary_mean_power_w() - expect).abs() < 0.05 * expect,
            "piezo stationary {} vs configured {}",
            piezo.stationary_mean_power_w(),
            expect
        );
        // Thresholds separate the levels the synthesizer can emit.
        assert!(piezo.on_threshold_w() > PowerTrace::RF_BURST_POWER_W * 0.01);
        assert!(piezo.on_threshold_w() < PowerTrace::RF_BURST_POWER_W * 4.0 * 0.7);
    }

    #[test]
    fn realized_mean_tracks_expected_mean() {
        // Long trace (whole diurnal periods for solar): realized mean
        // within ±20 % of the analytic mean.
        for model in MODELS {
            let m = model();
            let mean: f64 = (0..4)
                .map(|seed| m.synthesize(seed, 300.0).mean_power())
                .sum::<f64>()
                / 4.0;
            let expect = m.expected_mean_power_w();
            assert!(
                (mean - expect).abs() <= 0.2 * expect,
                "{}: realized {mean:e} vs expected {expect:e}",
                m.name()
            );
        }
    }
}
