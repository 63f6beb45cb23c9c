//! Order statistics: medians, percentiles under the "at least ten
//! samples beyond" rule, and the run-to-run spread the acceptance check
//! uses.

/// Sorts `values` ascending (every sample the harness takes is finite).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Median of an ascending slice; 0 when empty.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample (sorts it in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    median_sorted(values)
}

/// The `p`-th percentile (`0 < p < 100`) of an ascending slice by the
/// nearest-rank rule; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of the `p`-th percentile among `n` samples. The small
/// tolerance keeps `99.9 % of 10 000` at 9 990 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-6).ceil() as usize
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The tail percentiles the harness reports, lowest first.
const TAIL_PERCENTILES: [f64; 3] = [90.0, 99.0, 99.9];

/// The highest of [`TAIL_PERCENTILES`] not above `wanted` that still has
/// at least ten samples beyond it in a sample of `n`; falls back to the
/// median when even p90 is unsupported.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= wanted && samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so the spread printed here is the
/// number the acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    sort(&mut data);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median; 0 with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 90.0), 90.0);
        assert_eq!(percentile_sorted(&sorted, 99.9), 100.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 10 000 samples leave exactly 10 beyond p99.9; 9 999 leave 9.
        assert_eq!(samples_beyond(10_000, 99.9), 10);
        assert_eq!(supported_percentile(10_000, 99.9), 99.9);
        assert_eq!(supported_percentile(9_999, 99.9), 99.0);
        // A p99 request is never answered with a higher percentile.
        assert_eq!(supported_percentile(1_000_000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 90.0);
        assert_eq!(supported_percentile(99, 90.0), 50.0);
        assert_eq!(supported_percentile(100, 90.0), 90.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
