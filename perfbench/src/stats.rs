//! Small numeric helpers: percentiles over samples, a seeded RNG for
//! sampling, and the layer-sum arithmetic of the traced run.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, by linear
/// interpolation between the two closest ranks, so `q = 0.5` is the
/// usual median. `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The mean over the non-empty `groups` of each group's median, so
/// every group weighs the same however many samples it holds. `None`
/// when every group is empty.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = groups.iter().filter_map(|g| median(g)).collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// SplitMix64: a tiny seeded generator for the benchmark's own
/// sampling (pair samples, the mixed workload's request sequence).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one `(seed, stream)` combination.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// `0..n` in a seeded random order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }
}

/// How a resolve's wall splits into the parts the benchmark can
/// attribute, and what is left over.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSum {
    /// The resolve wall, measured around the `resolve()` call.
    pub wall_ms: f64,
    /// Sum of the attributed parts.
    pub parts_ms: f64,
    /// `wall − parts`: time no part accounts for.
    pub gap_ms: f64,
    /// `gap / wall` (0 for a zero wall).
    pub gap_frac: f64,
}

impl LayerSum {
    /// Splits `wall_ms` into `parts` (milliseconds each).
    pub fn new(wall_ms: f64, parts: &[f64]) -> Self {
        let parts_ms: f64 = parts.iter().sum();
        let gap_ms = wall_ms - parts_ms;
        let gap_frac = if wall_ms > 0.0 { gap_ms / wall_ms } else { 0.0 };
        Self {
            wall_ms,
            parts_ms,
            gap_ms,
            gap_frac,
        }
    }

    /// Whether the parts sum to the wall within `tolerance` (a share
    /// of the wall, on either side).
    pub fn within(&self, tolerance: f64) -> bool {
        self.gap_frac.abs() <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(5.0));
        assert_eq!(percentile(&s, 0.25), Some(2.0));
        // Even count: the median interpolates the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        // p90 of 1..=11 sits exactly on rank 9 (value 10).
        let ramp: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 0.9), Some(10.0));
        assert!((percentile(&[0.0, 1.0], 0.9).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn layer_sum_arithmetic() {
        let sum = LayerSum::new(100.0, &[60.0, 30.0, 6.0]);
        assert_eq!(sum.parts_ms, 96.0);
        assert_eq!(sum.gap_ms, 4.0);
        assert!((sum.gap_frac - 0.04).abs() < 1e-12);
        assert!(sum.within(0.05));
        assert!(!sum.within(0.03));
        // Parts that overshoot the wall leave a negative gap, judged
        // by its size.
        let over = LayerSum::new(50.0, &[30.0, 24.0]);
        assert_eq!(over.gap_ms, -4.0);
        assert!(over.within(0.08) && !over.within(0.07));
        assert_eq!(LayerSum::new(0.0, &[]).gap_frac, 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed, 3);
            (0..4).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn permutation_holds_every_index_once() {
        let mut rng = SplitMix64::new(5, 1);
        let order = rng.permutation(5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4]);
        assert_eq!(SplitMix64::new(5, 1).permutation(5), order, "seeded");
        assert!(rng.permutation(0).is_empty());
    }

    #[test]
    fn groups_weigh_the_same_in_the_mean_of_medians() {
        // Pooled, the five fast samples would decide the median (1);
        // here each group counts once: (1 + 11) / 2.
        let groups = vec![vec![1.0; 5], vec![10.0, 11.0, 12.0], vec![]];
        assert_eq!(median(&groups.concat()), Some(1.0));
        assert_eq!(mean_of_medians(&groups), Some(6.0));
        assert_eq!(
            mean_of_medians(&[vec![4.0, 2.0, 3.0]]),
            median(&[4.0, 2.0, 3.0])
        );
        assert_eq!(mean_of_medians(&[vec![], vec![]]), None);
    }
}
