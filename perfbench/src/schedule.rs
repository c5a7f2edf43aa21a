//! The open-loop arrival schedule: a seeded Poisson process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request: when it is due and which input it carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, in seconds after the phase starts.
    pub due_s: f64,
    /// Index into the request corpus.
    pub input: usize,
}

/// Poisson arrivals at `rate_per_s` over `[0, duration_s)`, each drawing
/// one of `inputs` corpus entries uniformly. The same seed always yields
/// the same schedule.
///
/// # Panics
///
/// Panics if `rate_per_s` is not positive or `inputs` is zero.
#[must_use]
pub fn poisson(seed: u64, rate_per_s: f64, duration_s: f64, inputs: usize) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    assert!(inputs > 0, "an empty corpus has nothing to send");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // exponential gap by inversion; 1 − u keeps the log argument in (0, 1]
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            input: rng.gen_range(0..inputs),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(7, 100.0, 5.0, 16);
        let b = poisson(7, 100.0, 5.0, 16);
        assert_eq!(a, b);
        let c = poisson(8, 100.0, 5.0, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_requested_rate_and_shape() {
        let s = poisson(42, 100.0, 200.0, 16);
        // 20 000 expected arrivals; 5 sd of a Poisson count is ~700
        assert!((s.len() as f64 - 20_000.0).abs() < 700.0, "{}", s.len());
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(s.iter().all(|a| a.due_s < 200.0 && a.input < 16));
        // exponential gaps: mean 10 ms, coefficient of variation ≈ 1
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1].due_s - w[0].due_s).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.0005, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
        // every corpus entry gets used
        assert!((0..16).all(|i| s.iter().any(|a| a.input == i)));
    }
}
