//! The time axis shared by the RAS log and the job log.
//!
//! Both logs on Intrepid timestamp their records; co-analysis correlates them
//! by time and location. We model time as whole seconds since the Unix epoch
//! ([`Timestamp`]) — the paper's matching windows are tens of seconds to
//! minutes, so sub-second resolution adds nothing to the analysis.
//!
//! Display/parse uses the CMCS event-time format `YYYY-MM-DD-HH.MM.SS`
//! (Table II of the paper shows `2008-04-14-15.08.12.285324`; a trailing
//! fractional-second field is accepted on input and ignored).

use crate::error::ModelError;
use crate::text;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Seconds since the Unix epoch (UTC).
///
/// Ordered, copy, 8 bytes. All simulator and analysis code uses this type —
/// never raw integers — so that the unit (seconds) is carried by the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

/// A span of time in whole seconds. May be negative (the difference of two
/// [`Timestamp`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub i64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// A duration of `n` seconds.
    pub const fn seconds(n: i64) -> Duration {
        Duration(n)
    }

    /// A duration of `n` minutes.
    pub const fn minutes(n: i64) -> Duration {
        Duration(n * 60)
    }

    /// A duration of `n` hours.
    pub const fn hours(n: i64) -> Duration {
        Duration(n * 3600)
    }

    /// A duration of `n` days.
    pub const fn days(n: i64) -> Duration {
        Duration(n * 86_400)
    }

    /// The number of whole seconds in this duration.
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Absolute value.
    pub const fn abs(self) -> Duration {
        Duration(self.0.abs())
    }
}

impl Timestamp {
    /// The epoch itself (1970-01-01 00:00:00 UTC).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Construct from seconds since the epoch.
    pub const fn from_unix(secs: i64) -> Timestamp {
        Timestamp(secs)
    }

    /// Seconds since the epoch.
    pub const fn as_unix(self) -> i64 {
        self.0
    }

    /// Construct from a civil UTC date and time-of-day.
    ///
    /// Months are 1-based (1 = January), days 1-based. No validation of
    /// day-of-month beyond the civil-calendar conversion is performed for
    /// out-of-range time fields; use [`Timestamp::parse`] for validated input.
    pub fn from_civil(year: i32, month: u32, day: u32, hh: u32, mm: u32, ss: u32) -> Timestamp {
        let days = days_from_civil(year, month, day);
        Timestamp(days * 86_400 + i64::from(hh) * 3600 + i64::from(mm) * 60 + i64::from(ss))
    }

    /// Decompose into `(year, month, day, hh, mm, ss)` in UTC.
    pub fn to_civil(self) -> (i32, u32, u32, u32, u32, u32) {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (secs / 3600) as u32,
            ((secs % 3600) / 60) as u32,
            (secs % 60) as u32,
        )
    }

    /// Parse the CMCS format `YYYY-MM-DD-HH.MM.SS` with an optional
    /// `.ffffff` fractional-second suffix (ignored).
    ///
    /// The year is every character before the first `-` past a leading
    /// sign, at least four of them: it reads back each year
    /// [`TimestampEncoder`] writes, `-1000` and `10000` included.
    pub fn parse(s: &str) -> Result<Timestamp, ModelError> {
        let err = || ModelError::InvalidTimestamp(s.to_owned());
        let year_len = s
            .get(1..)
            .and_then(|rest| rest.find('-'))
            .map_or(0, |i| i + 1);
        if year_len < 4 {
            return Err(err());
        }
        let (year, rest) = s.split_at(year_len);
        // `rest` is `-MM-DD-HH.MM.SS`, then nothing or a `.` suffix.
        let b = rest.as_bytes();
        let sep_ok = b.len() >= 15
            && b[0] == b'-'
            && b[3] == b'-'
            && b[6] == b'-'
            && b[9] == b'.'
            && b[12] == b'.'
            && (b.len() == 15 || b[15] == b'.');
        if !sep_ok {
            return Err(err());
        }
        let num = |range: std::ops::Range<usize>| -> Result<u32, ModelError> {
            rest.get(range)
                .and_then(|t| t.parse::<u32>().ok())
                .ok_or_else(err)
        };
        let year = year.parse::<i32>().map_err(|_| err())?;
        let month = num(1..3)?;
        let day = num(4..6)?;
        let hh = num(7..9)?;
        let mm = num(10..12)?;
        let ss = num(13..15)?;
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) || hh > 23 || mm > 59 || ss > 60 {
            return Err(err());
        }
        Ok(Timestamp::from_civil(year, month, day, hh, mm, ss))
    }

    /// Fast path for [`Timestamp::parse`] over raw bytes: exactly
    /// `YYYY-MM-DD-HH.MM.SS` in ASCII digits, optionally followed by `.` and
    /// ASCII digits (the CMCS `.ffffff` suffix, ignored as `parse` ignores
    /// it).
    ///
    /// Returns `Some` only where `parse` returns the same timestamp. `None`
    /// means "ask `parse`", never "invalid": padding, signs, any other
    /// suffix and out-of-range fields all decline here.
    pub fn parse_canonical(b: &[u8]) -> Option<Timestamp> {
        let (date, clock) = b.split_at_checked(11)?;
        Some(Timestamp(
            canonical_midnight(date)? + canonical_clock(clock)?,
        ))
    }

    /// Number of whole days between `self` and `origin` (can be negative).
    pub fn days_since(self, origin: Timestamp) -> i64 {
        (self.0 - origin.0).div_euclid(86_400)
    }
}

/// The value of ASCII digits, or `None` if any byte is not one.
fn digits(b: &[u8]) -> Option<u32> {
    b.iter().try_fold(0u32, |acc, &c| {
        c.is_ascii_digit().then(|| acc * 10 + u32::from(c - b'0'))
    })
}

/// The midnight of the day a canonical `YYYY-MM-DD-` spells, in seconds
/// since the epoch: the date half of [`Timestamp::parse_canonical`], with
/// its range checks.
fn canonical_midnight(date: &[u8]) -> Option<i64> {
    let [y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1, b'-'] = *date else {
        return None;
    };
    let year = digits(&[y0, y1, y2, y3])?;
    let month = digits(&[m0, m1])?;
    let day = digits(&[d0, d1])?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    Some(days_from_civil(year as i32, month, day) * 86_400)
}

/// The seconds into its day that a canonical `HH.MM.SS`, optionally
/// followed by `.` and ASCII digits, spells: the clock half of
/// [`Timestamp::parse_canonical`], with its range checks.
fn canonical_clock(clock: &[u8]) -> Option<i64> {
    let (hms, suffix) = clock.split_at_checked(8)?;
    if let [dot, frac @ ..] = suffix {
        if *dot != b'.' || !frac.iter().all(u8::is_ascii_digit) {
            return None;
        }
    }
    let [h0, h1, b'.', m0, m1, b'.', s0, s1] = *hms else {
        return None;
    };
    let hh = digits(&[h0, h1])?;
    let mm = digits(&[m0, m1])?;
    let ss = digits(&[s0, s1])?;
    if hh > 23 || mm > 59 || ss > 60 {
        return None;
    }
    Some(i64::from(hh) * 3600 + i64::from(mm) * 60 + i64::from(ss))
}

/// The byte decoder of the canonical CMCS form: [`Timestamp::parse_canonical`]
/// with a memo of the last day it read, the reading twin of
/// [`TimestampEncoder`].
///
/// Log records are time-sorted, so most lines repeat the day before. The
/// decoder remembers the last canonical `YYYY-MM-DD-` and that day's
/// midnight; a time that starts with the same eleven bytes costs only the
/// read of its `HH.MM.SS` (with the same range checks). Any other time is
/// read in full, and remembered if its date is canonical.
///
/// ```
/// use bgp_model::time::TimestampDecoder;
/// use bgp_model::Timestamp;
///
/// let mut dec = TimestampDecoder::default();
/// let t = dec.parse_canonical(b"2008-04-14-15.08.12");
/// assert_eq!(t, Some(Timestamp::from_civil(2008, 4, 14, 15, 8, 12)));
/// assert_eq!(dec.parse_canonical(b"2008-04-14-24.00.00"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimestampDecoder {
    /// `YYYY-MM-DD-` of the remembered day and its midnight, once one is
    /// read.
    day: Option<([u8; 11], i64)>,
}

impl TimestampDecoder {
    /// Exactly [`Timestamp::parse_canonical`]`(b)`: `Some` only where
    /// [`Timestamp::parse`] gives the same timestamp, `None` meaning "ask
    /// `parse`".
    pub fn parse_canonical(&mut self, b: &[u8]) -> Option<Timestamp> {
        let (date, clock) = b.split_at_checked(11)?;
        let midnight = match self.day {
            Some((ref day, midnight)) if day == date => midnight,
            _ => {
                let midnight = canonical_midnight(date)?;
                self.day = Some((date.try_into().ok()?, midnight));
                midnight
            }
        };
        Some(Timestamp(midnight + canonical_clock(clock)?))
    }
}

/// The byte encoder of the CMCS form `YYYY-MM-DD-HH.MM.SS`, the one
/// definition of that text: [`Timestamp`]'s `Display` and the RAS log
/// writer both call it. The year is zero-padded to four characters, its
/// sign counted among them (`-005`, `12345`).
///
/// It remembers the last day's `YYYY-MM-DD-`: log records are time-sorted,
/// so most lines repeat the day before and only the clock is written.
///
/// ```
/// use bgp_model::time::TimestampEncoder;
/// use bgp_model::Timestamp;
///
/// let mut enc = TimestampEncoder::default();
/// let mut out = Vec::new();
/// enc.encode(Timestamp::from_civil(2008, 4, 14, 15, 8, 12), &mut out);
/// assert_eq!(out, b"2008-04-14-15.08.12");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimestampEncoder {
    /// The day `date` spells, in days since the epoch.
    day: Option<i64>,
    /// `YYYY-MM-DD-` of `day`.
    date: Vec<u8>,
}

impl TimestampEncoder {
    /// Append `t` to `out`.
    pub fn encode(&mut self, t: Timestamp, out: &mut Vec<u8>) {
        let day = t.0.div_euclid(86_400);
        if self.day != Some(day) {
            let (y, mo, d) = civil_from_days(day);
            self.date.clear();
            text::push_i64(&mut self.date, i64::from(y), 4);
            self.date.push(b'-');
            text::push_two_digits(&mut self.date, u64::from(mo));
            self.date.push(b'-');
            text::push_two_digits(&mut self.date, u64::from(d));
            self.date.push(b'-');
            self.day = Some(day);
        }
        let secs = t.0.rem_euclid(86_400).unsigned_abs();
        out.extend_from_slice(&self.date);
        text::push_two_digits(out, secs / 3600);
        out.push(b'.');
        text::push_two_digits(out, secs % 3600 / 60);
        out.push(b'.');
        text::push_two_digits(out, secs % 60);
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| TimestampEncoder::default().encode(*self, out))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0.abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        let d = total / 86_400;
        let h = (total % 86_400) / 3600;
        let m = (total % 3600) / 60;
        let s = total % 60;
        if d > 0 {
            write!(f, "{sign}{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{sign}{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{sign}{m}m{s:02}s")
        } else {
            write!(f, "{sign}{s}s")
        }
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl SubAssign<Duration> for Timestamp {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
///
/// Howard Hinnant's `days_from_civil` algorithm; exact over the full i32
/// year range used here.
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(Timestamp::EPOCH.to_civil(), (1970, 1, 1, 0, 0, 0));
        assert_eq!(Timestamp::from_civil(1970, 1, 1, 0, 0, 0), Timestamp(0));
    }

    #[test]
    fn known_dates_round_trip() {
        // Start of the paper's log window.
        let t = Timestamp::from_civil(2009, 1, 5, 0, 0, 0);
        assert_eq!(t.to_civil(), (2009, 1, 5, 0, 0, 0));
        // End of the window: 2009-08-31 is 238 days later.
        let end = Timestamp::from_civil(2009, 8, 31, 0, 0, 0);
        assert_eq!(end.days_since(t), 238);
    }

    #[test]
    fn leap_years_handled() {
        // 2008 is a leap year: Feb 29 exists.
        let t = Timestamp::from_civil(2008, 2, 29, 12, 0, 0);
        assert_eq!(t.to_civil(), (2008, 2, 29, 12, 0, 0));
        // 1900 is not a leap year (century rule); Mar 1 follows Feb 28.
        let feb28 = Timestamp::from_civil(1900, 2, 28, 0, 0, 0);
        let mar1 = Timestamp::from_civil(1900, 3, 1, 0, 0, 0);
        assert_eq!((mar1 - feb28).as_secs(), 86_400);
        // 2000 is a leap year (400 rule).
        let feb28 = Timestamp::from_civil(2000, 2, 28, 0, 0, 0);
        let mar1 = Timestamp::from_civil(2000, 3, 1, 0, 0, 0);
        assert_eq!((mar1 - feb28).as_secs(), 2 * 86_400);
    }

    #[test]
    fn display_matches_cmcs_format() {
        let t = Timestamp::from_civil(2008, 4, 14, 15, 8, 12);
        assert_eq!(t.to_string(), "2008-04-14-15.08.12");
    }

    #[test]
    fn parse_accepts_fractional_suffix() {
        let t = Timestamp::parse("2008-04-14-15.08.12.285324").unwrap();
        assert_eq!(t, Timestamp::from_civil(2008, 4, 14, 15, 8, 12));
        let t2 = Timestamp::parse("2008-04-14-15.08.12").unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "2008",
            "2008-04-14 15:08:12",
            "2008-13-14-15.08.12",
            "2008-04-32-15.08.12",
            "2008-04-14-25.08.12",
            "2008-04-14-15.61.12",
            "xxxx-04-14-15.08.12",
            "2008-04-14-15.08.12x123",
        ] {
            assert!(Timestamp::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn canonical_fast_path_agrees_or_declines() {
        for s in [
            "2008-04-14-15.08.12",
            "2008-04-14-15.08.12.285324",
            "2008-04-14-15.08.12.",
            "2008-12-31-23.59.60", // leap second
            "0000-01-01-00.00.00",
            "2009-02-31-00.00.00", // day not validated against the month
        ] {
            assert_eq!(
                Timestamp::parse_canonical(s.as_bytes()),
                Some(Timestamp::parse(s).unwrap()),
                "{s:?}"
            );
        }
        for s in [
            " 2008-04-14-15.08.12", // padding: parse sees it trimmed
            "2008-04-14-15.08.12 ",
            "+008-04-14-15.08.12", // sign: parse accepts it
            "2008-+4-14-15.08.12",
            "-001-04-14-15.08.12",
            "2008-04-14-15.08.12.28x", // non-digit suffix: parse ignores it
            "2008-04-14-15.08.61",     // out of range: parse reports it
            "2008-13-14-15.08.12",
            "2008-04-14-15.08.1",
            "2008-04-14-15.08.12x",
        ] {
            assert_eq!(Timestamp::parse_canonical(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_unix(1000);
        assert_eq!(t + Duration::minutes(1), Timestamp::from_unix(1060));
        assert_eq!(t - Duration::seconds(1), Timestamp::from_unix(999));
        assert_eq!(Timestamp::from_unix(2000) - t, Duration::seconds(1000));
        assert_eq!(Duration::days(1).as_secs(), 86_400);
        assert_eq!(Duration::hours(2) + Duration::minutes(30), Duration(9000));
        assert_eq!(Duration::seconds(-5).abs(), Duration::seconds(5));
        let mut m = t;
        m += Duration::seconds(10);
        m -= Duration::seconds(4);
        assert_eq!(m, Timestamp::from_unix(1006));
    }

    #[test]
    fn duration_display_forms() {
        assert_eq!(Duration::seconds(42).to_string(), "42s");
        assert_eq!(Duration::seconds(62).to_string(), "1m02s");
        assert_eq!(Duration::hours(3).to_string(), "3h00m00s");
        assert_eq!(
            (Duration::days(2) + Duration::seconds(61)).to_string(),
            "2d00h01m01s"
        );
        assert_eq!(Duration::seconds(-62).to_string(), "-1m02s");
    }

    #[test]
    fn parse_reads_back_every_year_the_encoder_writes() {
        for (year, text) in [
            (-1000, "-1000-03-01-00.00.00"),
            (-999, "-999-03-01-00.00.00"),
            (-5, "-005-03-01-00.00.00"),
            (9999, "9999-03-01-00.00.00"),
            (10000, "10000-03-01-00.00.00"),
        ] {
            let t = Timestamp::from_civil(year, 3, 1, 0, 0, 0);
            assert_eq!(t.to_string(), text);
            assert_eq!(Timestamp::parse(text), Ok(t), "{text:?}");
        }
        // Fewer than four year characters is not the encoder's form.
        for bad in [
            "208-04-14-15.08.12",
            "-08-04-14-15.08.12",
            "-04-14-15.08.12",
        ] {
            assert!(Timestamp::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    proptest::proptest! {
        /// Every instant from year −1,000,000 to 1,000,000 parses back from
        /// the text its encoder writes.
        #[test]
        fn encoded_text_parses_back(
            year in -1_000_000i32..=1_000_000,
            day_of_year in 0i64..366,
            secs in 0i64..86_400,
        ) {
            let jan1 = Timestamp::from_civil(year, 1, 1, 0, 0, 0);
            let t = jan1 + Duration::days(day_of_year) + Duration::seconds(secs);
            proptest::prop_assert_eq!(Timestamp::parse(&t.to_string()), Ok(t));
        }
    }

    /// One reading of a clock text: what the decoder gives must be what
    /// `parse_canonical` gives, and any `Some` must be what `parse` gives.
    fn assert_decodes_like_parse(dec: &mut TimestampDecoder, text: &str) {
        let want = Timestamp::parse_canonical(text.as_bytes());
        assert_eq!(dec.parse_canonical(text.as_bytes()), want, "{text:?}");
        if want.is_some() {
            assert_eq!(want, Timestamp::parse(text).ok(), "{text:?}");
        }
    }

    #[test]
    fn decoder_rereads_the_clock_after_a_memo_hit() {
        let mut dec = TimestampDecoder::default();
        for text in [
            "2008-12-31-23.59.59",
            "2008-12-31-23.59.60", // leap second, same day
            "2008-12-31-24.00.00", // memo hit, bad clocks
            "2008-12-31-12.60.00",
            "2008-12-31-1a.00.00",
            "2008-12-31-12.00.61",
            "2008-12-31-12.00.00x",
            "2008-12-31-12.00.0",
            "2008-12-31-12.00.00.123456",
            "2009-01-01-00.00.00", // a new year
            "2008-12-31-00.00.01", // an older day again
            "+008-12-31-00.00.01", // signed year: `parse` only
            " 2008-12-31-00.00.01",
            "2008-12-31-00:00:01",
            "2008-12-31",
            "",
        ] {
            assert_decodes_like_parse(&mut dec, text);
        }
    }

    proptest::proptest! {
        /// The decoder is `parse_canonical` over time-sorted runs that roll
        /// over a day, a month and a year and hit `ss = 60`, with older days
        /// revisited and non-canonical or bad clocks mixed in.
        #[test]
        fn decoder_matches_parse_canonical_over_sorted_runs(
            start in 0usize..5,
            steps in proptest::collection::vec((0i64..40_000, 0usize..12), 1..80),
        ) {
            // Just before the end of a day, a month, a year, a leap day and
            // the epoch.
            let starts = [
                Timestamp::from_civil(2009, 3, 14, 23, 0, 0),
                Timestamp::from_civil(2009, 4, 30, 22, 0, 0),
                Timestamp::from_civil(2008, 12, 31, 21, 0, 0),
                Timestamp::from_civil(2008, 2, 28, 20, 0, 0),
                Timestamp::from_civil(1969, 12, 31, 23, 0, 0),
            ];
            let mut t = starts[start];
            let mut seen = Vec::new();
            let mut dec = TimestampDecoder::default();
            for (step, form) in steps {
                t += Duration::seconds(step);
                seen.push(t);
                let text = t.to_string();
                let (date, clock) = text.split_at(11);
                let text = match form {
                    0 => format!("{text}.285324"),
                    1 => format!(" {text}"),
                    2 => format!("+{}", &text[1..]),
                    3 => format!("{date}{}60", &clock[..6]),
                    4 => format!("{date}24.00.00"),
                    5 => format!("{date}12.60.00"),
                    6 => format!("{date}1a.00.00"),
                    7 => seen[step as usize % seen.len()].to_string(),
                    _ => text,
                };
                assert_decodes_like_parse(&mut dec, &text);
            }
        }
    }

    #[test]
    fn civil_round_trip_sweep() {
        // Round-trip every 1000th day across ~80 years.
        for days in (-10_000..20_000).step_by(1000) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
    }
}
