//! The job record value type and its small id types.

use bgp_model::{text, Duration, Partition, Timestamp};
use std::fmt;

/// A distinct executable ("execution file"). The paper treats jobs with the
/// same execution file as one *distinct job*; resubmissions share an
/// [`ExecId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExecId(pub u32);

/// A user (Intrepid had 236 in the study window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// A project/allocation (91 in the study window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProjectId(pub u32);

impl ExecId {
    /// Append the executable's text, `app<nnnnn>.exe`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"app");
        text::push_u64(out, u64::from(self.0), 5);
        out.extend_from_slice(b".exe");
    }
}

impl UserId {
    /// Append the user's text, `user<nnn>`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"user");
        text::push_u64(out, u64::from(self.0), 3);
    }
}

impl ProjectId {
    /// Append the project's text, `proj<nnn>`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"proj");
        text::push_u64(out, u64::from(self.0), 3);
    }
}

impl fmt::Display for ExecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

impl fmt::Display for ProjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

/// How the job left the system, as the *scheduler* saw it.
///
/// The exit code alone cannot distinguish a system failure from an
/// application error — that disambiguation is the whole point of co-analysis
/// — so analysis code treats this as a hint, never as ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    /// Exited with code 0.
    Completed,
    /// Exited with a nonzero code (crash, abort, kill).
    Failed(
        /// The exit code.
        u16,
    ),
    /// Removed from the queue before or during execution by the user or an
    /// administrator.
    Cancelled,
}

impl ExitStatus {
    /// True for [`ExitStatus::Completed`].
    pub fn is_success(self) -> bool {
        matches!(self, ExitStatus::Completed)
    }

    /// Append the job log's EXIT text: `0`, the exit code, or `cancelled`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        match self {
            ExitStatus::Completed => out.push(b'0'),
            ExitStatus::Failed(code) => text::push_u64(out, u64::from(code), 0),
            ExitStatus::Cancelled => out.extend_from_slice(b"cancelled"),
        }
    }
}

impl fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

/// One job accounting record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Cobalt job id (unique per submission).
    pub job_id: u64,
    /// The executable; shared across resubmissions.
    pub exec: ExecId,
    /// Submitting user.
    pub user: UserId,
    /// Charged project.
    pub project: ProjectId,
    /// When the job entered the queue.
    pub queue_time: Timestamp,
    /// When it started running (after the partition reboot).
    pub start_time: Timestamp,
    /// When it exited (completed or interrupted).
    pub end_time: Timestamp,
    /// The allocated midplanes.
    pub partition: Partition,
    /// Exit disposition.
    pub exit: ExitStatus,
}

impl JobRecord {
    /// Requested size in midplanes.
    pub fn size_midplanes(&self) -> u32 {
        self.partition.len()
    }

    /// Is this a "wide" job in the paper's sense (≥ 32 midplanes)?
    pub fn is_wide(&self) -> bool {
        self.size_midplanes() >= 32
    }

    /// Wall-clock execution time.
    pub fn runtime(&self) -> Duration {
        self.end_time - self.start_time
    }

    /// Time spent waiting in the queue.
    pub fn queue_wait(&self) -> Duration {
        self.start_time - self.queue_time
    }

    /// Was the job running at instant `t` (start inclusive, end exclusive)?
    pub fn running_at(&self, t: Timestamp) -> bool {
        self.start_time <= t && t < self.end_time
    }

    /// Does the execution interval overlap `[t0, t1)`?
    pub fn overlaps(&self, t0: Timestamp, t1: Timestamp) -> bool {
        self.start_time < t1 && t0 < self.end_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobRecord {
        JobRecord {
            job_id: 8935,
            exec: ExecId(12),
            user: UserId(4),
            project: ProjectId(2),
            queue_time: Timestamp::from_unix(1000),
            start_time: Timestamp::from_unix(4000),
            end_time: Timestamp::from_unix(7600),
            partition: "R10-R11".parse().unwrap(),
            exit: ExitStatus::Completed,
        }
    }

    #[test]
    fn derived_quantities() {
        let j = job();
        assert_eq!(j.size_midplanes(), 4);
        assert!(!j.is_wide());
        assert_eq!(j.runtime(), Duration::seconds(3600));
        assert_eq!(j.queue_wait(), Duration::seconds(3000));
    }

    #[test]
    fn interval_semantics() {
        let j = job();
        assert!(!j.running_at(Timestamp::from_unix(3999)));
        assert!(j.running_at(Timestamp::from_unix(4000)));
        assert!(j.running_at(Timestamp::from_unix(7599)));
        assert!(!j.running_at(Timestamp::from_unix(7600)));
        assert!(j.overlaps(Timestamp::from_unix(0), Timestamp::from_unix(4001)));
        assert!(!j.overlaps(Timestamp::from_unix(0), Timestamp::from_unix(4000)));
        assert!(!j.overlaps(Timestamp::from_unix(7600), Timestamp::from_unix(9000)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ExecId(12).to_string(), "app00012.exe");
        assert_eq!(UserId(4).to_string(), "user004");
        assert_eq!(ProjectId(2).to_string(), "proj002");
        assert_eq!(ExitStatus::Completed.to_string(), "0");
        assert_eq!(ExitStatus::Failed(139).to_string(), "139");
        assert_eq!(ExitStatus::Cancelled.to_string(), "cancelled");
        assert!(ExitStatus::Completed.is_success());
        assert!(!ExitStatus::Failed(1).is_success());
    }

    #[test]
    fn wide_boundary() {
        let mut j = job();
        j.partition = bgp_model::Partition::contiguous(0, 32).unwrap();
        assert!(j.is_wide());
        j.partition = bgp_model::Partition::contiguous(0, 16).unwrap();
        assert!(!j.is_wide());
    }
}
