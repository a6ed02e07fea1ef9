//! Single-threaded end-to-end and per-layer benchmark of the SAIs
//! simulator. See `README.md` in this directory for the workloads, the
//! metrics and how they relate.

pub mod accuracy;
pub mod grid;
pub mod report;
pub mod run;

/// The `q`-quantile of `v` (0 ≤ q ≤ 1), interpolating linearly between
/// order statistics. `v` need not be sorted.
///
/// # Panics
/// If `v` is empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
