//! Sample statistics shared by the workloads, the report and `compare`.

/// The median (the mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending sample: the
/// value at rank `⌈p·n⌉`, and how many samples lie beyond that rank.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The tail percentile a sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile taken, in `0..=1`.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The highest of p99, p90 and p50 that has at least ten samples beyond
/// it. A sample too small for even that (fewer than 21 values) supports
/// no tail, and the median stands in for it.
pub fn tail(sorted: &[f64]) -> Tail {
    for p in [0.99, 0.9, 0.5] {
        let (value, beyond) = percentile(sorted, p);
        if beyond >= 10 {
            return Tail { p, value, beyond };
        }
    }
    Tail {
        p: 0.5,
        value: median(sorted),
        beyond: sorted.len() / 2,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this program reports match that reference.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, exactly ten beyond.
        let t = tail(&ramp(1000));
        assert_eq!((t.p, t.value, t.beyond), (0.99, 990.0, 10));
        // 999 samples: p99 has only nine beyond, so p90 is the tail.
        let t = tail(&ramp(999));
        assert_eq!((t.p, t.value, t.beyond), (0.9, 900.0, 99));
        // 50 samples: p90 has five beyond; the median has 25.
        let t = tail(&ramp(50));
        assert_eq!((t.p, t.value, t.beyond), (0.5, 25.0, 25));
        // 4 samples support no tail: the median stands in.
        let t = tail(&ramp(4));
        assert_eq!((t.p, t.value, t.beyond), (0.5, 2.5, 2));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&ramp(10), 0.5), (5.0, 5));
        assert_eq!(percentile(&ramp(10), 0.0), (1.0, 9));
        assert_eq!(percentile(&ramp(10), 1.0), (10.0, 0));
    }

    #[test]
    fn median_and_quartiles_match_the_python_reference() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }
}
