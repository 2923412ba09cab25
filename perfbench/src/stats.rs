//! Order statistics and process memory for the reported figures.

use std::time::Instant;

/// Seconds since `t`, as a float.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `xs`: the highest order statistic with at least ten samples
/// above it. A sample of 21 or fewer cannot support that rule above its
/// median, so there the tail is the order statistic just at or above the
/// median, and the sample count is printed with the result so a reader can
/// tell which case applied.
pub fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let beyond = 10.min((n - 1) / 2);
    v[n - 1 - beyond]
}

/// Forget the process's peak resident set so far (Linux `clear_refs`), so
/// the next [`peak_rss_mb`] covers only what runs after set-up. Returns
/// whether the reset took effect; where it cannot, the peak includes
/// set-up, and the descriptor says so.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or the
/// current resident size where the kernel does not report a peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
    };
    field("VmHWM:").or_else(|| field("VmRSS:")).unwrap_or(0.0) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie above the tail.
        assert_eq!(tail(&xs), 90.0);
        let few: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(tail(&few), 4.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), 11.0);
    }
}
