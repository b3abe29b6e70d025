//! Small numeric helpers: a seeded generator, quantiles, the tail
//! percentile rule and process memory.

use std::time::Duration;

/// SplitMix64: every input of a run derives from the `--seed` argument
/// through this generator, salted per use so streams stay independent.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Self(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail latency: the highest percentile of a fixed ladder that still
/// has at least [`MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

const MIN_BEYOND: usize = 10;
const LADDER: [f64; 7] = [99.9, 99.0, 97.5, 95.0, 90.0, 80.0, 50.0];

/// Nearest-rank tail over `samples`. `cap` is the highest percentile
/// the caller allows, so a workload reports the same percentile on every
/// run even when its sample count moves a little around a ladder step.
pub fn tail(samples: &[f64], cap: f64) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for &p in LADDER.iter().filter(|&&p| p <= cap) {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.saturating_sub(1).min(n.saturating_sub(1));
        let beyond = n.saturating_sub(idx + 1);
        if beyond >= MIN_BEYOND || p == 50.0 {
            return Tail {
                percentile: p,
                value: sorted.get(idx).copied().unwrap_or(f64::NAN),
                samples: n,
                beyond,
            };
        }
    }
    Tail { percentile: 50.0, value: f64::NAN, samples: n, beyond: 0 }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
