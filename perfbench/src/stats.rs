//! Order statistics the benchmark reports.

/// Median of `xs` (mean of the two middle values for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail the sample supports: the value at the highest percentile that
/// still has at least `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile that value sits at, in `[0, 100)`.
    pub percentile: f64,
    /// Samples strictly beyond the value.
    pub beyond: usize,
}

/// Sorted sample `x₀ ≤ … ≤ x_{N−1}`: the tail is `x_{N−1−beyond}`, whose
/// percentile is `100·(N−beyond)/N`. With `N ≤ beyond` there is no such
/// value and the maximum is returned with `beyond = 0`.
pub fn tail(xs: &[f64], beyond: usize) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
        };
    }
    if n <= beyond {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            beyond: 0,
        };
    }
    Tail {
        value: v[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        beyond,
    }
}

/// The tail of a long run, steadied: split `xs` (in arrival order) into
/// consecutive batches of `batch_len` samples (the last one absorbs the
/// remainder), take each batch's [`tail`], and return the one with the
/// median value and the number of batches.
pub fn batched_tail(xs: &[f64], beyond: usize, batch_len: usize) -> (Tail, usize) {
    let b = (xs.len() / batch_len.max(1)).max(1);
    let size = xs.len() / b;
    let mut tails: Vec<Tail> = (0..b)
        .map(|i| {
            let end = if i + 1 == b { xs.len() } else { (i + 1) * size };
            tail(&xs[i * size..end], beyond)
        })
        .collect();
    tails.sort_by(|x, y| x.value.total_cmp(&y.value));
    (tails[b / 2], b)
}

/// Nearest-rank quantile `q ∈ [0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..40).rev().map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!(t.value, 29.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!(t.value, 989.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[3.0, 1.0, 2.0], 10);
        assert_eq!((t.value, t.beyond), (3.0, 0));
        let t = tail(&[0.5; 11], 10);
        assert_eq!((t.value, t.beyond), (0.5, 10));
    }

    #[test]
    fn batched_tail_takes_the_median_batch() {
        // Five batches of 200; batch i holds 0..200 plus 1000·i added to
        // its top sample, so batch tails differ only through ordering.
        let mut xs = Vec::new();
        for i in 0..5 {
            xs.extend(
                (0..200).map(|x| f64::from(x) + if x == 199 { 1000.0 * f64::from(i) } else { 0.0 }),
            );
        }
        let (t, b) = batched_tail(&xs, 10, 200);
        assert_eq!(b, 5);
        assert_eq!(t.value, 189.0);
        assert_eq!(t.percentile, 95.0);
        // One batch when the run is short.
        let short: Vec<f64> = (0..399).map(f64::from).collect();
        let (t, b) = batched_tail(&short, 10, 200);
        assert_eq!((b, t.value), (1, 388.0));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
    }
}
