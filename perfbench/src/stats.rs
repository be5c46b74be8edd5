//! Order statistics and the naming rules every reported figure follows.
//!
//! Percentiles are nearest-rank over the exact samples, expressed in basis
//! points (`9_900` = p99) so that rank arithmetic stays in integers. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, the figure is one or two outliers, not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the reporting rule chooses from, highest first, in
/// basis points.
pub const TAIL_CANDIDATES: [u32; 4] = [9_999, 9_990, 9_900, 9_000];

/// One-based rank of the nearest-rank percentile `bp` among `n` samples.
fn rank(n: usize, bp: u32) -> usize {
    let scaled = n as u128 * u128::from(bp);
    let rank = scaled.div_ceil(10_000) as usize;
    rank.clamp(1, n.max(1))
}

/// The nearest-rank percentile `bp` (basis points) of ascending samples.
///
/// Panics on an empty slice: every caller has checked the sample count.
pub fn percentile(sorted: &[u64], bp: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), bp) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `bp` of `n`.
pub fn beyond(n: usize, bp: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, bp)
    }
}

/// Whether percentile `bp` may be reported from `n` samples.
pub fn reportable(n: usize, bp: u32) -> bool {
    beyond(n, bp) >= MIN_BEYOND
}

/// The highest tail percentile reportable from `n` samples, if any.
pub fn highest_reportable(n: usize) -> Option<u32> {
    TAIL_CANDIDATES.into_iter().find(|&bp| reportable(n, bp))
}

/// Formats basis points as a percentile label: `9_900` → `p99`.
pub fn label(bp: u32) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    match frac {
        0 => format!("p{whole}"),
        f if f % 10 == 0 => format!("p{whole}.{}", f / 10),
        f => format!("p{whole}.{f:02}"),
    }
}

/// Median of unordered values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 5_000), 50);
        assert_eq!(percentile(&samples, 9_900), 99);
        assert_eq!(percentile(&samples, 10_000), 100);
        assert_eq!(percentile(&samples, 0), 1);
        assert_eq!(percentile(&[7], 9_999), 7);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, ten beyond. 999 samples: rank 990, nine.
        assert_eq!(beyond(1_000, 9_900), 10);
        assert!(reportable(1_000, 9_900));
        assert_eq!(beyond(999, 9_900), 9);
        assert!(!reportable(999, 9_900));
    }

    #[test]
    fn highest_reportable_walks_down_the_tail() {
        assert_eq!(highest_reportable(0), None);
        assert_eq!(highest_reportable(99), None);
        assert_eq!(highest_reportable(100), Some(9_000));
        assert_eq!(highest_reportable(1_000), Some(9_900));
        assert_eq!(highest_reportable(9_999), Some(9_900));
        assert_eq!(highest_reportable(10_000), Some(9_990));
        assert_eq!(highest_reportable(100_000), Some(9_999));
        for n in [100usize, 777, 1_000, 12_345, 250_000] {
            let bp = highest_reportable(n).expect("reportable");
            assert!(beyond(n, bp) >= MIN_BEYOND, "n {n} bp {bp}");
            // Nothing higher in the candidate list qualifies.
            for higher in TAIL_CANDIDATES.iter().filter(|&&c| c > bp) {
                assert!(beyond(n, *higher) < MIN_BEYOND, "n {n} {higher}");
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(label(5_000), "p50");
        assert_eq!(label(9_900), "p99");
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(9_999), "p99.99");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "p50_us",
            "weaver-runtime.rpc.p50_us",
            "boutique.place_order.p99_us",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok:?} should be valid");
        }
        for bad in [
            "",
            "_leading",
            ".leading",
            "-leading",
            "has space",
            "slash/inside",
            "ünicode",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn units() {
        for ok in ["ms", "us", "s", "1/s", "count", "%", "MB", "frac"] {
            assert!(valid_unit(ok), "{ok:?} should be valid");
        }
        for bad in ["", "µs", "per second", &"x".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} should be invalid");
        }
    }
}
