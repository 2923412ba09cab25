//! The indexed in-memory RAS log container.

use crate::catalog::ErrCode;
use crate::record::RasRecord;
use crate::severity::Severity;
use bgp_model::Timestamp;

/// An immutable, time-sorted RAS log.
///
/// Sorted order is `(event_time, recid)`, so global window queries are
/// binary searches. The log also stores its observation span (see
/// [`RasLog::time_span`]), which a log built from a [`Projection`] takes
/// from the whole input the projection read.
#[derive(Debug, Clone, Default)]
pub struct RasLog {
    records: Vec<RasRecord>,
    span: Option<(Timestamp, Timestamp)>,
}

/// Stably sort `records` by `(event_time, recid)`. Input already in that
/// order — what a log file normally holds — is kept as is after one linear
/// check.
fn sort_by_time(records: &mut [RasRecord]) {
    let key = |r: &RasRecord| (r.event_time, r.recid);
    if !records.is_sorted_by_key(key) {
        records.sort_by_key(key);
    }
}

impl RasLog {
    /// Build a log from records (any order; they will be sorted, stably, by
    /// `(event_time, recid)`). Its span is its first and last event times.
    pub fn from_records(mut records: Vec<RasRecord>) -> RasLog {
        sort_by_time(&mut records);
        let span = records
            .first()
            .zip(records.last())
            .map(|(first, last)| (first.event_time, last.event_time));
        RasLog { records, span }
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

    /// The observation span: first and last event times of the log this
    /// was built from, `None` if it had no records.
    ///
    /// For [`RasLog::from_records`] (and so [`RasLog::fatal_only`] and
    /// [`RasLog::filtered`]) that is this log's own first and last record.
    /// For a log built by [`Projection::into_log`] — what
    /// `coanalysis::load_pair` returns — it is the span of every record
    /// parsed, including the ones projected away, so it equals the full
    /// log's `time_span()`.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.span
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
}

/// What a projected load keeps of a RAS log: the records a keep-predicate
/// accepted, in input order, and a tally of every record read, kept or
/// not — the count and the event-time span, which the kept records alone
/// cannot give back.
///
/// The chunk parser ([`crate::ingest::parse_log_bytes_where`]) fills one
/// (keeping every record is its full-load case), and the front of a
/// snapshot — its tally and FATAL section — stores the FATAL one
/// ([`crate::snapshot::decode_fatal`]).
///
/// The fields only change together — `parsed` counts at least the kept
/// records, and the span covers them — so other crates read them through
/// accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// The kept records, in input order.
    pub(crate) records: Vec<RasRecord>,
    /// Records read, kept or not.
    parsed: usize,
    /// Earliest `event_time` over every record read (`MAX` before any).
    earliest: Timestamp,
    /// Latest `event_time` over every record read (`MIN` before any).
    latest: Timestamp,
}

impl Default for Projection {
    fn default() -> Projection {
        Projection::with_capacity(0)
    }
}

impl Projection {
    /// An empty projection with room for `capacity` kept records.
    pub(crate) fn with_capacity(capacity: usize) -> Projection {
        Projection {
            records: Vec::with_capacity(capacity),
            parsed: 0,
            earliest: Timestamp::from_unix(i64::MAX),
            latest: Timestamp::from_unix(i64::MIN),
        }
    }

    /// Count one record read at `t`.
    #[inline]
    fn tally(&mut self, t: Timestamp) {
        self.parsed += 1;
        self.earliest = self.earliest.min(t);
        self.latest = self.latest.max(t);
    }

    /// Tally one record read, and keep it if `keep` accepts it.
    #[inline]
    pub(crate) fn push(&mut self, record: RasRecord, keep: impl Fn(&RasRecord) -> bool) {
        self.tally(record.event_time);
        if keep(&record) {
            self.records.push(record);
        }
    }

    /// Project records that were read in full: tally them all, keep those
    /// `keep` accepts.
    pub fn of(mut records: Vec<RasRecord>, keep: impl Fn(&RasRecord) -> bool) -> Projection {
        let mut kept = Projection::default();
        for r in &records {
            kept.tally(r.event_time);
        }
        records.retain(|r| keep(r));
        kept.records = records;
        kept
    }

    /// Append a projection of the input that followed this one's.
    pub(crate) fn append(&mut self, next: Projection) {
        self.records.extend(next.records);
        self.parsed += next.parsed;
        self.earliest = self.earliest.min(next.earliest);
        self.latest = self.latest.max(next.latest);
    }

    /// Records read, kept or not.
    pub fn parsed(&self) -> usize {
        self.parsed
    }

    /// A projection from its stored parts: the kept records, the records
    /// read and their span (`None` exactly when none was read). The caller
    /// has checked that `parsed` counts at least the kept records and that
    /// the span covers them.
    pub(crate) fn from_parts(
        records: Vec<RasRecord>,
        parsed: usize,
        span: Option<(Timestamp, Timestamp)>,
    ) -> Projection {
        let (earliest, latest) = span.unwrap_or((
            Timestamp::from_unix(i64::MAX),
            Timestamp::from_unix(i64::MIN),
        ));
        Projection {
            records,
            parsed,
            earliest,
            latest,
        }
    }

    /// Earliest and latest `event_time` over every record read, kept or
    /// not; `None` if none was read.
    pub(crate) fn span(&self) -> Option<(Timestamp, Timestamp)> {
        (self.parsed > 0).then_some((self.earliest, self.latest))
    }

    /// Index the kept records as a log (sorted like
    /// [`RasLog::from_records`]) that reports the whole input's span.
    ///
    /// A stable sort commutes with filtering, so the records come out in
    /// the same order as in `RasLog::from_records(all)`.
    pub fn into_log(self) -> RasLog {
        let span = self.span();
        let mut records = self.records;
        sort_by_time(&mut records);
        debug_assert!(
            records
                .iter()
                .all(|r| span.is_some_and(|(lo, hi)| (lo..=hi).contains(&r.event_time))),
            "a projection's span covers its records"
        );
        RasLog { records, span }
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
    fn projected_log_reports_the_whole_span() {
        // The earliest and latest records are not FATAL.
        let input = vec![
            rec(6, 600, "R00-M0", "_bgp_warn_ecc_corrected"),
            rec(3, 300, "R00-M0-N01-J05", "_bgp_err_kernel_panic"),
            rec(1, 50, "R00-M0", "_bgp_warn_ecc_corrected"),
            rec(2, 200, "R00-B", "BULK_POWER_FATAL"),
        ];
        let full = RasLog::from_records(input.clone());
        let kept = Projection::of(input.clone(), RasRecord::is_fatal);
        let mut pushed = Projection::default();
        for r in &input {
            pushed.push(*r, RasRecord::is_fatal);
        }
        assert_eq!(pushed, kept);
        assert_eq!(kept.parsed, 4);
        let log = kept.into_log();
        assert_eq!(log.records(), full.fatal_only().records());
        assert_eq!(log.time_span(), full.time_span());
        assert_eq!(
            log.time_span(),
            Some((Timestamp::from_unix(50), Timestamp::from_unix(600)))
        );
        // Subsets built from records keep their own span.
        assert_eq!(
            full.fatal_only().time_span(),
            Some((Timestamp::from_unix(200), Timestamp::from_unix(300)))
        );
        assert_eq!(log.fatal_only().time_span(), full.fatal_only().time_span());
        // Appending projections of consecutive input is projecting it whole.
        let mut halves = Projection::of(input[..2].to_vec(), RasRecord::is_fatal);
        halves.append(Projection::of(input[2..].to_vec(), RasRecord::is_fatal));
        assert_eq!(halves, Projection::of(input, RasRecord::is_fatal));
        // Nothing read, nothing spanned.
        assert_eq!(Projection::default().into_log().time_span(), None);
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
    fn filtered_keeps_the_matching_records() {
        let log = sample_log();
        let only_panics = log.filtered(|r| r.errcode == code("_bgp_err_kernel_panic"));
        assert_eq!(only_panics.len(), 2);
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
