//! Measurement helpers: order statistics, the results-digest check, the
//! host's measured parallelism and the process's peak memory.

use std::hint::black_box;
use std::time::Instant;

/// The median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The index of a run's fastest round by `rates` (higher is faster; 0
/// when there are no rounds). A round is a batch sweep or a serve time
/// slice.
///
/// The end-to-end speed metrics come from this round only. The host is
/// shared and its speed drifts in phases, and interference only ever slows
/// a round down, so the best round is the closest to what the program
/// itself costs, while a median mixes in the host's slow phases. Every
/// round does the same work, so a program change moves the best one too.
#[must_use]
pub fn fastest(rates: &[f64]) -> usize {
    (0..rates.len())
        .max_by(|&a, &b| rates[a].total_cmp(&rates[b]))
        .unwrap_or(0)
}

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `f` over `items` and returns the mean microseconds per item.
pub fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// FNV-1a over a document, for printing a short digest.
#[must_use]
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins a results document: the first one seen becomes the reference and
/// every later one must equal it byte for byte.
#[derive(Debug, Default)]
pub struct DigestCheck {
    reference: Option<String>,
}

impl DigestCheck {
    /// Checks `doc` against the reference (adopting it when none is set
    /// yet). Returns whether it matched.
    pub fn check(&mut self, doc: String) -> bool {
        match &self.reference {
            None => {
                self.reference = Some(doc);
                true
            }
            Some(reference) => *reference == doc,
        }
    }

    /// The digest of the reference document (0 before the first check).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.reference.as_deref().map_or(0, fnv64)
    }
}

fn spin(iterations: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..iterations {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x0000_0100_0000_01b3);
    }
    black_box(x)
}

/// Measured parallelism of the host: the wall speedup of running the same
/// spin loop on two threads at once over running it twice on one thread.
/// Two independent cores give about 2; one core shared by two threads
/// gives about 1. The median of three trials, clamped to `(0, 2]` (a
/// reading above 2 is timer noise).
#[must_use]
pub fn spin_probe() -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let trials: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            spin(ITERATIONS);
            spin(ITERATIONS);
            let serial = start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::thread::scope(|s| {
                let other = s.spawn(|| spin(ITERATIONS));
                spin(ITERATIONS);
                other.join().expect("spin thread panicked");
            });
            let parallel = start.elapsed().as_secs_f64();
            serial / parallel.max(f64::MIN_POSITIVE)
        })
        .collect();
    median(&trials).clamp(f64::MIN_POSITIVE, 2.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn fastest_picks_the_highest_rate() {
        assert_eq!(fastest(&[]), 0);
        assert_eq!(fastest(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(fastest(&[5.0]), 0);
    }

    #[test]
    fn perturbed_result_row_fails_the_digest_check() {
        use rb_engine::{results_to_json, Engine};
        let cases = rb_dataset::Corpus::generate(3, 2, &[rb_miri::UbClass::Panic]).cases;
        let mut rows = Engine::new(1)
            .run_batch(&crate::batch::spec(3), &cases, 3)
            .results;
        let mut check = DigestCheck::default();
        assert!(check.check(results_to_json(&rows)));
        assert!(check.check(results_to_json(&rows)));
        rows[1].overhead_ms += 0.5;
        assert!(!check.check(results_to_json(&rows)));
        assert_ne!(check.digest(), 0);
    }

    #[test]
    fn spin_probe_is_a_speedup_of_two_threads() {
        let p = spin_probe();
        assert!(p > 0.0 && p <= 2.0, "spin probe read {p}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
