//! Wall-clock timing utilities for the figure-regeneration harnesses.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A simple wall-clock stopwatch.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Accumulates wall time (and invocation counts) per named section.
///
/// Used to produce the per-stage breakdowns of Fig. 8 (top: CLS / BSOFI /
/// WRP) and Fig. 10 (Green's function vs. measurement time). Sections are
/// kept in a `BTreeMap` so report order is deterministic.
///
/// `Profile` is a thin adapter over [`crate::trace`]: [`Profile::time`]
/// also opens a trace span named after the section, so callers that only
/// consume profiles keep working while the structured collector sees the
/// same section boundaries (with flop attribution and hierarchy).
#[derive(Default, Debug, Clone)]
pub struct Profile {
    sections: BTreeMap<&'static str, (Duration, u64)>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` and charges the elapsed wall time to `section`. Also
    /// opens a trace span named `section` for the duration of `f`.
    ///
    /// Panic-safe: if `f` unwinds, the time spent up to the panic is still
    /// charged (and the span still recorded) before the panic propagates,
    /// so a crashed stage shows up in reports instead of vanishing.
    pub fn time<R>(&mut self, section: &'static str, f: impl FnOnce() -> R) -> R {
        struct Charge<'p> {
            profile: &'p mut Profile,
            section: &'static str,
            sw: Stopwatch,
            // Dropped after the time is charged, closing the span last so
            // it brackets the whole section.
            _span: crate::trace::SpanGuard,
        }
        impl Drop for Charge<'_> {
            fn drop(&mut self) {
                let elapsed = self.sw.elapsed();
                self.profile.add(self.section, elapsed);
            }
        }
        let _charge = Charge {
            _span: crate::trace::span(section),
            sw: Stopwatch::start(),
            profile: self,
            section,
        };
        f()
    }

    /// Charges an externally measured duration to `section`.
    pub fn add(&mut self, section: &'static str, d: Duration) {
        let entry = self.sections.entry(section).or_insert((Duration::ZERO, 0));
        entry.0 += d;
        entry.1 += 1;
    }

    /// Total time charged to `section` (zero if never charged).
    pub fn seconds(&self, section: &'static str) -> f64 {
        self.sections
            .get(section)
            .map(|(d, _)| d.as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Number of times `section` was charged.
    pub fn count(&self, section: &'static str) -> u64 {
        self.sections.get(section).map(|(_, c)| *c).unwrap_or(0)
    }

    /// Sum over all sections, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.sections.values().map(|(d, _)| d.as_secs_f64()).sum()
    }

    /// Iterates `(section, seconds, count)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, u64)> + '_ {
        self.sections
            .iter()
            .map(|(name, (d, c))| (*name, d.as_secs_f64(), *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(sw.seconds() >= 0.0);
        assert!(sw.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn profile_accumulates_sections() {
        // Profile::time opens spans; hold the trace lock so a concurrent
        // trace test's collector drain doesn't see them.
        let _trace = crate::trace::test_lock();
        let mut p = Profile::new();
        let v = p.time("cls", || 21 * 2);
        assert_eq!(v, 42);
        p.add("cls", Duration::from_millis(10));
        p.add("wrap", Duration::from_millis(5));
        assert_eq!(p.count("cls"), 2);
        assert_eq!(p.count("wrap"), 1);
        assert_eq!(p.count("bsofi"), 0);
        assert!(p.seconds("cls") >= 0.010);
        assert!(p.total_seconds() >= p.seconds("cls") + p.seconds("wrap"));
    }

    #[test]
    fn profile_time_charges_on_panic() {
        let _trace = crate::trace::test_lock();
        let mut p = Profile::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.time("crashing", || {
                std::hint::black_box((0..100).sum::<u64>());
                panic!("section died");
            })
        }));
        assert!(result.is_err());
        // The partial time was charged before the panic propagated.
        assert_eq!(p.count("crashing"), 1);
        assert!(p.seconds("crashing") >= 0.0);
        // The profile remains usable afterwards.
        p.time("after", || ());
        assert_eq!(p.count("after"), 1);
    }

    #[test]
    fn profile_iter_is_deterministic() {
        let mut p = Profile::new();
        p.add("wrap", Duration::from_millis(1));
        p.add("bsofi", Duration::from_millis(1));
        p.add("cls", Duration::from_millis(1));
        let names: Vec<_> = p.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["bsofi", "cls", "wrap"]);
    }
}
