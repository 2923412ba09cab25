//! The indexed in-memory RAS log container.

use crate::catalog::ErrCode;
use crate::record::RasRecord;
use crate::severity::Severity;
use bgp_model::Timestamp;
use std::collections::HashMap;

/// An immutable, time-sorted RAS log.
///
/// Sorted order is `(event_time, recid)`, so global window queries are
/// binary searches.
#[derive(Debug, Clone, Default)]
pub struct RasLog {
    records: Vec<RasRecord>,
}

impl RasLog {
    /// Build a log from records (any order; they will be sorted, stably, by
    /// `(event_time, recid)`). Input already in that order — what a log file
    /// normally holds — is kept as is after one linear check.
    pub fn from_records(mut records: Vec<RasRecord>) -> RasLog {
        let key = |r: &RasRecord| (r.event_time, r.recid);
        if !records.is_sorted_by_key(key) {
            records.sort_by_key(key);
        }
        RasLog { records }
    }

    /// All records in time order.
    pub fn records(&self) -> &[RasRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// First and last event times, if non-empty.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        Some((
            self.records.first()?.event_time,
            self.records.last()?.event_time,
        ))
    }

    /// Records with the given severity.
    pub fn with_severity(&self, s: Severity) -> impl Iterator<Item = &RasRecord> {
        self.records.iter().filter(move |r| r.severity == s)
    }

    /// FATAL-severity records (the co-analysis input).
    pub fn fatal(&self) -> impl Iterator<Item = &RasRecord> {
        self.with_severity(Severity::Fatal)
    }

    /// A new log containing only the FATAL records.
    pub fn fatal_only(&self) -> RasLog {
        RasLog::from_records(self.fatal().copied().collect())
    }

    /// Records with `t0 <= event_time < t1`, as a slice (global time order).
    pub fn in_window(&self, t0: Timestamp, t1: Timestamp) -> &[RasRecord] {
        let lo = self.records.partition_point(|r| r.event_time < t0);
        let hi = self.records.partition_point(|r| r.event_time < t1);
        &self.records[lo..hi]
    }

    /// Count of records per error code.
    pub fn count_by_errcode(&self) -> HashMap<ErrCode, usize> {
        let mut out = HashMap::new();
        for r in &self.records {
            *out.entry(r.errcode).or_insert(0) += 1;
        }
        out
    }

    /// Number of distinct FATAL error codes present.
    pub fn distinct_fatal_codes(&self) -> usize {
        let mut codes: Vec<ErrCode> = self.fatal().map(|r| r.errcode).collect();
        codes.sort_unstable();
        codes.dedup();
        codes.len()
    }

    /// A new log with only the records satisfying `pred`.
    pub fn filtered<F: FnMut(&RasRecord) -> bool>(&self, mut pred: F) -> RasLog {
        RasLog::from_records(self.records.iter().filter(|r| pred(r)).copied().collect())
    }

    /// Interarrival times (seconds, as f64) of successive records, skipping
    /// non-positive gaps (simultaneous records).
    ///
    /// This is the sample the paper fits Weibull/exponential models to
    /// (Section V-A).
    pub fn interarrival_secs(&self) -> Vec<f64> {
        self.records
            .windows(2)
            .map(|w| (w[1].event_time - w[0].event_time).as_secs() as f64)
            .filter(|&dt| dt > 0.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use bgp_model::Location;

    fn code(name: &str) -> ErrCode {
        Catalog::standard().lookup(name).unwrap()
    }

    fn rec(recid: u64, t: i64, loc: &str, name: &str) -> RasRecord {
        RasRecord::new(
            recid,
            Timestamp::from_unix(t),
            loc.parse::<Location>().unwrap(),
            code(name),
        )
    }

    fn sample_log() -> RasLog {
        RasLog::from_records(vec![
            rec(3, 300, "R00-M0-N01-J05", "_bgp_err_kernel_panic"),
            rec(1, 100, "R00-M0", "_bgp_err_ddr_controller"),
            rec(2, 200, "R00-B", "BULK_POWER_FATAL"),
            rec(4, 400, "R01-M1", "_bgp_warn_ecc_corrected"),
            rec(5, 500, "R00-M1", "_bgp_err_kernel_panic"),
        ])
    }

    #[test]
    fn sorted_by_time() {
        let log = sample_log();
        let times: Vec<i64> = log
            .records()
            .iter()
            .map(|r| r.event_time.as_unix())
            .collect();
        assert_eq!(times, vec![100, 200, 300, 400, 500]);
        assert_eq!(
            log.time_span(),
            Some((Timestamp::from_unix(100), Timestamp::from_unix(500)))
        );
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        assert!(RasLog::default().is_empty());
        assert_eq!(RasLog::default().time_span(), None);
    }

    #[test]
    fn window_queries() {
        let log = sample_log();
        assert_eq!(
            log.in_window(Timestamp::from_unix(150), Timestamp::from_unix(400))
                .len(),
            2
        );
        // Half-open: excludes t1.
        assert_eq!(
            log.in_window(Timestamp::from_unix(100), Timestamp::from_unix(100))
                .len(),
            0
        );
        assert_eq!(
            log.in_window(Timestamp::from_unix(0), Timestamp::from_unix(1000))
                .len(),
            5
        );
    }

    #[test]
    fn severity_filters() {
        let log = sample_log();
        assert_eq!(log.fatal().count(), 4);
        assert_eq!(log.with_severity(Severity::Warning).count(), 1);
        let fatal = log.fatal_only();
        assert_eq!(fatal.len(), 4);
        assert_eq!(fatal.distinct_fatal_codes(), 3);
    }

    #[test]
    fn counts_and_filters() {
        let log = sample_log();
        let counts = log.count_by_errcode();
        assert_eq!(counts[&code("_bgp_err_kernel_panic")], 2);
        assert_eq!(counts[&code("BULK_POWER_FATAL")], 1);
        let only_panics = log.filtered(|r| r.errcode == code("_bgp_err_kernel_panic"));
        assert_eq!(only_panics.len(), 2);
    }

    #[test]
    fn interarrivals() {
        let log = sample_log();
        assert_eq!(log.interarrival_secs(), vec![100.0; 4]);
        // Simultaneous records produce no zero gaps.
        let log = RasLog::from_records(vec![
            rec(1, 100, "R00-M0", "_bgp_err_kernel_panic"),
            rec(2, 100, "R00-M0", "_bgp_err_kernel_panic"),
            rec(3, 200, "R00-M0", "_bgp_err_kernel_panic"),
        ]);
        assert_eq!(log.interarrival_secs(), vec![100.0]);
    }

    /// `records()` must be exactly the stable `(event_time, recid)` sort of
    /// the input, whether or not `from_records` had to sort.
    fn assert_sorted_like_reference(input: Vec<RasRecord>) {
        let mut expected = input.clone();
        expected.sort_by_key(|r| (r.event_time, r.recid));
        assert_eq!(RasLog::from_records(input).records(), expected.as_slice());
    }

    /// Records whose `(event_time, recid)` keys repeat but whose locations
    /// differ, so a reordering of equal keys would show.
    fn tied_records(n: u64) -> Vec<RasRecord> {
        let locs = ["R00-M0", "R00-M1", "R01-B", "R02-M0-N03-J04"];
        (0..n)
            .map(|i| {
                rec(
                    i / 3,
                    (i / 5) as i64,
                    locs[(i % 4) as usize],
                    "_bgp_err_kernel_panic",
                )
            })
            .collect()
    }

    #[test]
    fn from_records_matches_a_stable_sort_on_every_input_order() {
        let sorted = tied_records(60);
        assert!(sorted.is_sorted_by_key(|r| (r.event_time, r.recid)));
        let mut reversed = sorted.clone();
        reversed.reverse();
        let mut shuffled = sorted.clone();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let all_tied: Vec<RasRecord> = ["R00-M0", "R03-K", "R00-M1", "R01-M1-S"]
            .iter()
            .map(|loc| rec(7, 100, loc, "_bgp_err_kernel_panic"))
            .collect();
        for input in [sorted, reversed, shuffled, all_tied, Vec::new()] {
            assert_sorted_like_reference(input);
        }
    }

    proptest::proptest! {
        #[test]
        fn from_records_is_a_stable_sort(
            keys in proptest::collection::vec((0i64..6, 0u64..6, 0usize..4), 0..40),
        ) {
            let locs = ["R00-M0", "R00-M1", "R01-B", "R02-M0-N03-J04"];
            assert_sorted_like_reference(
                keys.iter()
                    .map(|&(t, id, l)| rec(id, t, locs[l], "_bgp_err_kernel_panic"))
                    .collect(),
            );
        }
    }
}
