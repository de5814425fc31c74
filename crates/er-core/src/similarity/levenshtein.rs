//! Edit distance (Levenshtein) and its normalized similarity — the
//! paper's match function: "Two entities were compared by computing
//! the edit distance of their title. Two entities with a minimal
//! similarity of 0.8 were regarded as matches."
//!
//! Three kernels compute the distance; which one runs depends on the
//! call and on the shorter string's length in Unicode scalars:
//!
//! * **Bit-parallel** (Myers 1999, in Hyyrö's 2001 formulation) — the
//!   thresholded [`levenshtein_bounded_chars`] when the shorter side
//!   has at most 64 scalars. One DP column is two `u64` delta vectors,
//!   so a column costs about 15 word operations whatever the
//!   threshold. Every DS1-shaped title takes this path.
//! * **Banded DP** — [`levenshtein_bounded_chars`] when both sides are
//!   longer than 64 scalars: a diagonal band of width `2k+1`, one
//!   `usize` per cell.
//! * **Full DP** — [`levenshtein_distance_chars`], the unrestricted
//!   two-row DP. It is the reference the thresholded kernels are
//!   tested against and what the exact scoring path
//!   ([`Similarity::sim_view`]) runs.
//!
//! The thresholded kernels return the exact distance whenever it is
//! within the bound, so [`NormalizedLevenshtein::sim_view_at_least`]
//! is bit-exact with the full path whichever kernel runs.

use std::cell::RefCell;

use super::{Prepared, PreparedView, Similarity};

thread_local! {
    /// The two DP rows both Levenshtein kernels work in. Thread-local
    /// so the O(b²) compare loop performs zero heap allocations after
    /// the rows have grown to the corpus's longest string; `RefCell`
    /// borrows are confined to one (non-recursive) kernel invocation.
    static DP_ROWS: RefCell<(Vec<usize>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };

    /// Per-scalar match masks of the bit-parallel kernel's pattern.
    /// Every call resets exactly the entries it set, so the table is
    /// all zeros between calls and never allocates after warm-up.
    static PATTERN_MASKS: RefCell<PatternMasks> = const {
        RefCell::new(PatternMasks {
            ascii: [0; 128],
            other: Vec::new(),
        })
    };
}

/// Longest pattern the bit-parallel kernel handles: one bit per
/// scalar of the shorter string in a single machine word.
const WORD_BITS: usize = u64::BITS as usize;

/// `Peq` of Myers' algorithm: for each scalar, the bitmask of the
/// pattern positions holding it.
struct PatternMasks {
    /// Masks of the ASCII scalars, indexed by code point.
    ascii: [u64; 128],
    /// Masks of the non-ASCII scalars, one entry per distinct scalar
    /// (at most [`WORD_BITS`]); searched linearly.
    other: Vec<(char, u64)>,
}

impl PatternMasks {
    fn mask(&self, c: char) -> u64 {
        match self.ascii.get(c as usize) {
            Some(&mask) => mask,
            None => self
                .other
                .iter()
                .find(|&&(o, _)| o == c)
                .map_or(0, |&(_, mask)| mask),
        }
    }

    fn set(&mut self, pattern: &[char]) {
        for (i, &c) in pattern.iter().enumerate() {
            let bit = 1u64 << i;
            match self.ascii.get_mut(c as usize) {
                Some(mask) => *mask |= bit,
                None => match self.other.iter_mut().find(|(o, _)| *o == c) {
                    Some((_, mask)) => *mask |= bit,
                    None => self.other.push((c, bit)),
                },
            }
        }
    }

    /// The column scan of [`bit_parallel_bounded`] over masks already
    /// [`set`](Self::set) for a pattern of `len` scalars.
    ///
    /// Bit `i` of the vertical delta vectors `pv`/`mv` says whether
    /// `D[i+1][j] − D[i][j]` is `+1`/`−1` for the current column `j`;
    /// `score` tracks the last row, `D[len][j]`. A column moves the
    /// score by at most one, so once `score − remaining columns > k`
    /// the final distance must exceed `k`.
    fn scan(&self, len: usize, text: &[char], k: usize) -> Option<usize> {
        let last = 1u64 << (len - 1);
        // Bits above the pattern's length carry garbage, but addition
        // carries and left shifts only move information upwards, so
        // they never reach the bits that count.
        let mut pv = u64::MAX;
        let mut mv = 0u64;
        let mut score = len;
        for (j, &c) in text.iter().enumerate() {
            let eq = self.mask(c);
            let xv = eq | mv;
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            if ph & last != 0 {
                score += 1;
            } else if mh & last != 0 {
                score -= 1;
            }
            let remaining = text.len() - j - 1;
            if score.saturating_sub(remaining) > k {
                return None;
            }
            // Row 0 is `D[0][j] = j`: its horizontal delta is always +1.
            ph = (ph << 1) | 1;
            mh <<= 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        // The last column passed the check with nothing remaining.
        Some(score)
    }

    fn reset(&mut self, pattern: &[char]) {
        for &c in pattern {
            if let Some(mask) = self.ascii.get_mut(c as usize) {
                *mask = 0;
            }
        }
        self.other.clear();
    }
}

/// Unrestricted Levenshtein distance over Unicode scalar values.
///
/// Convenience wrapper over [`levenshtein_distance_chars`] for one-off
/// string pairs; hot loops should decode to chars once and call the
/// slice form directly.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    levenshtein_distance_chars(&a_chars, &b_chars)
}

/// Levenshtein distance over pre-decoded scalar values, two-row
/// dynamic programming, `O(|a|·|b|)` time and `O(min)` space — the
/// rows live in thread-local scratch, so steady-state calls do not
/// allocate.
pub fn levenshtein_distance_chars(a_chars: &[char], b_chars: &[char]) -> usize {
    // Keep the inner row the shorter one for cache friendliness.
    let (long, short) = if a_chars.len() >= b_chars.len() {
        (a_chars, b_chars)
    } else {
        (b_chars, a_chars)
    };
    if short.is_empty() {
        return long.len();
    }
    DP_ROWS.with(|rows| {
        let mut rows = rows.borrow_mut();
        let (prev, cur) = &mut *rows;
        prev.clear();
        prev.extend(0..=short.len());
        cur.clear();
        cur.resize(short.len() + 1, 0);
        for (i, &lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(lc != sc);
                let del = prev[j + 1] + 1;
                let ins = cur[j] + 1;
                cur[j + 1] = sub.min(del).min(ins);
            }
            std::mem::swap(prev, cur);
        }
        prev[short.len()]
    })
}

/// Banded early-exit check: is `levenshtein_distance(a, b) <= k`?
///
/// Runs in `O(k·max(|a|,|b|))` by evaluating only a diagonal band of
/// width `2k+1`, which is what makes thresholded matching at paper
/// scale affordable: a 0.8 similarity threshold on titles bounds the
/// permissible distance to 20 % of the longer title.
pub fn levenshtein_within(a: &str, b: &str, k: usize) -> bool {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    levenshtein_bounded_chars(&a_chars, &b_chars, k).is_some()
}

/// Thresholded Levenshtein over pre-decoded scalars: `Some(d)` with
/// the *exact* distance when `d <= k`, `None` when the distance exceeds
/// `k` (detected early, without filling the full DP matrix).
///
/// The thresholded-matching kernel: [`crate::Matcher`] derives the
/// largest admissible distance from its similarity threshold and calls
/// this instead of the unrestricted `O(|a|·|b|)` DP. A shorter side of
/// at most 64 scalars runs the bit-parallel kernel in
/// `O(max(|a|,|b|))` word operations; longer pairs run the banded DP
/// in `O(k·max(|a|,|b|))`.
pub fn levenshtein_bounded_chars(a_chars: &[char], b_chars: &[char], k: usize) -> Option<usize> {
    let (n, m) = (a_chars.len(), b_chars.len());
    if n.abs_diff(m) > k {
        return None;
    }
    if n == 0 {
        return (m <= k).then_some(m);
    }
    if m == 0 {
        return (n <= k).then_some(n);
    }
    let (short, long) = if n <= m {
        (a_chars, b_chars)
    } else {
        (b_chars, a_chars)
    };
    if short.len() <= WORD_BITS {
        bit_parallel_bounded(short, long, k)
    } else {
        banded_bounded(a_chars, b_chars, k)
    }
}

/// Myers' bit-parallel edit distance with Hyyrö's global-distance
/// boundary, for a non-empty `pattern` of at most [`WORD_BITS`]
/// scalars and a `text` at least as long.
fn bit_parallel_bounded(pattern: &[char], text: &[char], k: usize) -> Option<usize> {
    debug_assert!(!pattern.is_empty() && pattern.len() <= WORD_BITS);
    debug_assert!(pattern.len() <= text.len());
    PATTERN_MASKS.with(|masks| {
        let mut masks = masks.borrow_mut();
        masks.set(pattern);
        let distance = masks.scan(pattern.len(), text, k);
        masks.reset(pattern);
        distance
    })
}

/// The banded DP of [`levenshtein_bounded_chars`] for pairs the
/// bit-parallel kernel cannot hold in one word.
fn banded_bounded(a_chars: &[char], b_chars: &[char], k: usize) -> Option<usize> {
    let (n, m) = (a_chars.len(), b_chars.len());
    const BIG: usize = usize::MAX / 2;
    DP_ROWS.with(|rows| {
        let mut rows = rows.borrow_mut();
        let (prev, cur) = &mut *rows;
        // prev[j] = distance for prefix lengths (i, j); band-limited.
        // clear + resize refills every cell with BIG, so reusing the
        // scratch rows is bit-identical to freshly allocated ones.
        prev.clear();
        prev.resize(m + 1, BIG);
        for (j, p) in prev.iter_mut().enumerate().take(k.min(m) + 1) {
            *p = j;
        }
        cur.clear();
        cur.resize(m + 1, BIG);
        for i in 1..=n {
            let lo = i.saturating_sub(k).max(1);
            let hi = (i + k).min(m);
            if lo > hi {
                return None;
            }
            cur[lo - 1] = if lo == 1 { i } else { BIG };
            let mut row_min = cur[lo - 1];
            for j in lo..=hi {
                let sub = prev[j - 1] + usize::from(a_chars[i - 1] != b_chars[j - 1]);
                let del = prev[j].saturating_add(1);
                let ins = cur[j - 1].saturating_add(1);
                cur[j] = sub.min(del).min(ins);
                row_min = row_min.min(cur[j]);
            }
            if hi < m {
                cur[hi + 1] = BIG;
            }
            if row_min > k {
                return None;
            }
            std::mem::swap(prev, cur);
        }
        (prev[m] <= k).then_some(prev[m])
    })
}

/// `1 − d(a,b) / max(|a|,|b|)`: the similarity the paper thresholds at
/// 0.8. Empty-vs-empty compares as identical (similarity 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedLevenshtein;

impl Similarity for NormalizedLevenshtein {
    fn prepare(&self, s: &str) -> Prepared {
        Prepared::Chars(s.chars().collect())
    }

    fn sim_view(&self, a: &PreparedView<'_>, b: &PreparedView<'_>) -> f64 {
        let (ac, bc) = (a.chars(), b.chars());
        let max_len = ac.len().max(bc.len());
        if max_len == 0 {
            return 1.0;
        }
        1.0 - levenshtein_distance_chars(ac, bc) as f64 / max_len as f64
    }

    /// Thresholded fast path: only distances `d <= k` with
    /// `1 − d/max_len >= floor` can match, so
    /// `levenshtein_bounded_chars` (bit-parallel, or banded past 64
    /// scalars) abandons the pair as soon as its distance provably
    /// exceeds `k`. Bit-exact with the unrestricted path: a returned
    /// distance within `k` *is* the true distance, and the similarity
    /// is computed by the same expression.
    fn sim_view_at_least(
        &self,
        a: &PreparedView<'_>,
        b: &PreparedView<'_>,
        floor: f64,
    ) -> Option<f64> {
        let (ac, bc) = (a.chars(), b.chars());
        let max_len = ac.len().max(bc.len());
        if max_len == 0 {
            return (1.0 >= floor).then_some(1.0);
        }
        if 1.0 < floor || floor.is_nan() {
            // Nothing reaches an unattainable (or NaN) floor; mirrors
            // `sim >= floor` being false for every pair.
            return None;
        }
        let sim_of = |d: usize| 1.0 - d as f64 / max_len as f64;
        // Largest admissible distance under the *exact f64 predicate*
        // the slow path applies — derived by nudging a float estimate
        // down until the predicate holds, so threshold-boundary pairs
        // (e.g. distance 2 at length 10 against floor 0.8) behave
        // identically to `sim_prepared(..) >= floor`.
        let mut k = (((1.0 - floor) * max_len as f64).ceil() as usize + 1).min(max_len);
        while k > 0 && sim_of(k) < floor {
            k -= 1;
        }
        levenshtein_bounded_chars(ac, bc, k).map(sim_of)
    }

    fn name(&self) -> &'static str {
        "levenshtein"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
        assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", ""), 3);
        assert_eq!(levenshtein_distance("", ""), 0);
        assert_eq!(levenshtein_distance("same", "same"), 0);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        assert_eq!(levenshtein_distance("café", "cafe"), 1);
        assert_eq!(levenshtein_distance("日本語", "日本"), 1);
    }

    #[test]
    fn normalized_similarity_examples() {
        let s = NormalizedLevenshtein;
        assert!((s.sim("abcd", "abcd") - 1.0).abs() < 1e-12);
        assert!((s.sim("abcde", "abcdX") - 0.8).abs() < 1e-12);
        assert!((s.sim("", "") - 1.0).abs() < 1e-12);
        assert_eq!(s.sim("", "xyz"), 0.0);
    }

    #[test]
    fn banded_check_agrees_on_fixed_cases() {
        assert!(levenshtein_within("kitten", "sitting", 3));
        assert!(!levenshtein_within("kitten", "sitting", 2));
        assert!(levenshtein_within("", "", 0));
        assert!(!levenshtein_within("abcdef", "", 3));
        assert!(levenshtein_within("abc", "abc", 0));
    }

    #[test]
    fn bounded_returns_exact_distance_or_none() {
        let c = |s: &str| s.chars().collect::<Vec<char>>();
        assert_eq!(
            levenshtein_bounded_chars(&c("kitten"), &c("sitting"), 3),
            Some(3)
        );
        assert_eq!(
            levenshtein_bounded_chars(&c("kitten"), &c("sitting"), 2),
            None
        );
        assert_eq!(levenshtein_bounded_chars(&c(""), &c(""), 0), Some(0));
        assert_eq!(levenshtein_bounded_chars(&c("abc"), &c("abc"), 0), Some(0));
        assert_eq!(levenshtein_bounded_chars(&c("abcdef"), &c(""), 3), None);
        // Shorter sides of 63 and 64 scalars run the bit-parallel
        // kernel, 65 the banded DP. One insertion in front and one
        // substitution on the last scalar (the word's top bit at 64)
        // put the distance at exactly 2.
        for len in [63, 64, 65] {
            let short: Vec<char> = "abcdé日fg".chars().cycle().take(len).collect();
            let mut long = short.clone();
            long[len - 1] = 'Y';
            long.insert(0, 'X');
            assert_eq!(levenshtein_distance_chars(&short, &long), 2, "len {len}");
            for (a, b) in [(&short, &long), (&long, &short)] {
                assert_eq!(levenshtein_bounded_chars(a, b, 2), Some(2), "len {len}");
                assert_eq!(levenshtein_bounded_chars(a, b, 1), None, "len {len}");
                assert_eq!(levenshtein_bounded_chars(a, b, len), Some(2), "len {len}");
            }
        }
    }

    #[test]
    fn thresholded_kernel_handles_the_exact_boundary() {
        // Distance 2 at length 10 is similarity 0.8 — must match a 0.8
        // floor, exactly like the full-scoring path (the paper's `>=`).
        let s = NormalizedLevenshtein;
        let (pa, pb) = (s.prepare("abcdefghij"), s.prepare("abcdefghXY"));
        let fast = s.sim_prepared_at_least(&pa, &pb, 0.8);
        assert_eq!(fast, Some(s.sim_prepared(&pa, &pb)));
        // One more edit falls below the floor.
        let pc = s.prepare("abcdefgXYZ");
        assert_eq!(s.sim_prepared_at_least(&pa, &pc, 0.8), None);
        // Unattainable and NaN floors match nothing.
        assert_eq!(s.sim_prepared_at_least(&pa, &pb, 1.5), None);
        assert_eq!(s.sim_prepared_at_least(&pa, &pb, f64::NAN), None);
        // Floor 0 accepts everything, still with the exact score.
        assert_eq!(
            s.sim_prepared_at_least(&pa, &pc, 0.0),
            Some(s.sim_prepared(&pa, &pc))
        );
    }

    /// Strings whose lengths straddle the bit-parallel kernel's
    /// 64-scalar word, over an alphabet with two- and three-byte
    /// scalars. The second arm puts both sides past the word (the
    /// banded DP) in about one drawn pair in ten.
    fn straddling_word() -> impl Strategy<Value = String> {
        prop_oneof!["[a-cé日]{0,70}", "[a-cé日]{60,70}"]
    }

    /// Independent strings are far apart, so the proptests also check
    /// `a` against a near-duplicate — three of `b`'s scalars spliced
    /// over two of `a`'s at `cut` — the kind of pair thresholded
    /// matching keeps.
    fn near_duplicate(a: &str, b: &str, cut: usize) -> String {
        a.chars()
            .take(cut)
            .chain(b.chars().take(3))
            .chain(a.chars().skip(cut + 2))
            .collect()
    }

    proptest! {
        #[test]
        fn banded_agrees_with_full_dp(a in "[a-d]{0,12}", b in "[a-d]{0,12}", k in 0usize..6) {
            let d = levenshtein_distance(&a, &b);
            prop_assert_eq!(levenshtein_within(&a, &b, k), d <= k,
                "a={:?} b={:?} d={} k={}", a, b, d, k);
        }

        #[test]
        fn bounded_distance_is_exact_within_band(
            a in straddling_word(),
            b in straddling_word(),
            k in 0usize..=70,
            cut in 0usize..=70,
        ) {
            let near = near_duplicate(&a, &b, cut);
            for b in [b, near] {
                let d = levenshtein_distance(&a, &b);
                let ac: Vec<char> = a.chars().collect();
                let bc: Vec<char> = b.chars().collect();
                // Besides the drawn bound, probe the decision boundary,
                // where an early exit that fires one step too soon shows.
                for k in [k, d.saturating_sub(1), d, d + 1] {
                    prop_assert_eq!(
                        levenshtein_bounded_chars(&ac, &bc, k),
                        (d <= k).then_some(d),
                        "a={:?} b={:?} d={} k={}", a, b, d, k
                    );
                }
            }
        }

        #[test]
        fn thresholded_kernel_is_bit_exact_with_slow_path(
            a in straddling_word(),
            b in straddling_word(),
            floor_steps in 0u32..21,
            cut in 0usize..=70,
        ) {
            // Sweep floors over [0, 1] incl. awkward fractions; the
            // thresholded decision and score must equal the full
            // path's. Floor 0 admits any distance up to the longer
            // length.
            let floor = floor_steps as f64 / 20.0;
            let s = NormalizedLevenshtein;
            let near = near_duplicate(&a, &b, cut);
            for b in [b, near] {
                let (pa, pb) = (s.prepare(&a), s.prepare(&b));
                let slow = s.sim_prepared(&pa, &pb);
                let expected = (slow >= floor).then(|| slow.to_bits());
                let got = s.sim_prepared_at_least(&pa, &pb, floor).map(f64::to_bits);
                prop_assert_eq!(got, expected,
                    "a={:?} b={:?} floor={}", a, b, floor);
            }
        }

        #[test]
        fn triangle_inequality(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let ab = levenshtein_distance(&a, &b);
            let bc = levenshtein_distance(&b, &c);
            let ac = levenshtein_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn distance_bounded_by_longer_string(a in "\\PC{0,10}", b in "\\PC{0,10}") {
            let d = levenshtein_distance(&a, &b);
            let max = a.chars().count().max(b.chars().count());
            let min = a.chars().count().min(b.chars().count());
            prop_assert!(d <= max);
            prop_assert!(d >= max - min);
        }
    }
}
