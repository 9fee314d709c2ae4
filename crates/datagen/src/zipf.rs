//! Zipf-distributed rank sampling.
//!
//! Key popularity in the paper's workloads is heavily skewed — word
//! frequencies ("the number of occurrences of the word 'that' in a document
//! is high", §VI-B), URL hit counts, hyperlink popularity. A Zipf law with
//! exponent ≈ 1 is the standard model; the generators use this sampler so
//! the skew (and therefore the hash table's duplicate-key behaviour and
//! contention profile) is controlled and reproducible.

use crate::rng::Rng;

/// Zipf sampler over ranks `0..n` with exponent `s`: P(rank k) ∝ 1/(k+1)^s.
///
/// Implementation: precomputed cumulative distribution with binary search —
/// O(n) memory, O(log n) per sample, exact for any exponent including 0
/// (uniform).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n` ranks (n ≥ 1) with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a rank in `[0, n)`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        // partition_point returns the first rank whose cumulative mass
        // reaches u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Zipf {
        /// Expected probability of rank `k`.
        fn prob(&self, k: usize) -> f64 {
            if k == 0 {
                self.cdf[0]
            } else {
                self.cdf[k] - self.cdf[k - 1]
            }
        }
    }

    #[test]
    fn ranks_stay_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = Rng::new(1);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.prob(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_ranks() {
        let z = Zipf::new(100, 1.0);
        for k in 1..100 {
            assert!(z.prob(k) < z.prob(k - 1));
        }
        // Rank 0 of a 1.0-exponent law over 100 ranks has ~19% of the mass.
        assert!(z.prob(0) > 0.15);
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let z = Zipf::new(50, 1.2);
        let mut rng = Rng::new(99);
        let mut counts = [0u32; 50];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 5, 20] {
            let emp = counts[k] as f64 / n as f64;
            let exp = z.prob(k);
            assert!(
                (emp - exp).abs() < 0.01 + exp * 0.1,
                "rank {k}: empirical {emp} vs expected {exp}"
            );
        }
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = Rng::new(0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
