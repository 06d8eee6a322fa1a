//! Exact order statistics over measured samples.

/// A nearest-rank quantile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the quantile was taken over.
    pub samples: usize,
}

/// The exact nearest-rank `q`-quantile of `sorted` (ascending): the
/// smallest sample such that at least `q` of all samples are at or below
/// it, i.e. the sample at 1-based rank `ceil(q * n)` (rank 1 for `q = 0`).
/// `None` on an empty slice or a `q` outside `[0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<Quantile> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Sorts `values` ascending (NaN-free input is a precondition).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
    values
}

/// The median of `values`: the mean of the two middle samples for an even
/// count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let at = |q| nearest_rank(&v, q).unwrap();
        assert_eq!(at(0.0).value, 1.0);
        assert_eq!(at(0.5).value, 5.0);
        assert_eq!(at(0.51).value, 6.0);
        assert_eq!(at(0.9).value, 9.0);
        assert_eq!(at(0.99).value, 10.0);
        assert_eq!(at(1.0).value, 10.0);
        assert_eq!(at(0.5).samples, 10);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99).unwrap().value, 99.0);
        assert_eq!(nearest_rank(&hundred, 0.5).unwrap().value, 50.0);

        let one = [7.0];
        assert_eq!(nearest_rank(&one, 0.99).unwrap().value, 7.0);
        assert_eq!(nearest_rank(&one, 0.0).unwrap().samples, 1);
    }

    #[test]
    fn nearest_rank_rejects_empty_and_out_of_range() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[1.0], 1.5), None);
        assert_eq!(nearest_rank(&[1.0], -0.1), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
