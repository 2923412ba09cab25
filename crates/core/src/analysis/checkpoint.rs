//! Checkpoint-policy evaluation — the paper's Section VII checkpointing
//! recommendations, made quantitative.
//!
//! Given the indexed job log and the interruption attribution, replay each job
//! under a checkpoint policy and account for:
//!
//! * **lost work**: node-seconds of computation destroyed by an
//!   interruption (work since the last completed checkpoint);
//! * **overhead**: node-seconds spent writing checkpoints (paid by every
//!   job, interrupted or not).
//!
//! Policies:
//!
//! * [`CheckpointPolicy::None`] — run naked; an interruption loses the whole
//!   elapsed run.
//! * [`CheckpointPolicy::Periodic`] — checkpoint every `interval` seconds
//!   from the start.
//! * [`CheckpointPolicy::CoAnalysisInformed`] — the paper's guidance:
//!   skip checkpointing entirely for narrow jobs with no bug history
//!   (size, not length, drives vulnerability — Observation 10 — and their
//!   interruption probability is per-mille); for jobs with an
//!   application-error history, delay the first checkpoint past the first
//!   hour (Observation 11 — early failures are bugs, their state is
//!   worthless); wide jobs checkpoint periodically at the Young interval.

use crate::classify::root_cause::RootCause;
use joblog::JobLog;
use joblog::{ExecId, JobRecord};
use std::collections::{BTreeMap, BTreeSet};

/// A checkpointing policy to replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// No checkpoints at all.
    None,
    /// Checkpoint every `interval_secs` seconds.
    Periodic {
        /// Interval between checkpoint completions.
        interval_secs: i64,
    },
    /// The Section VII co-analysis-informed policy.
    CoAnalysisInformed {
        /// Periodic interval used when checkpointing at all.
        interval_secs: i64,
        /// Jobs at or above this many midplanes always checkpoint.
        wide_threshold: u32,
        /// Delay before the first checkpoint for app-error-history jobs.
        first_hour_delay_secs: i64,
    },
}

impl CheckpointPolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CheckpointPolicy::None => "no checkpoints",
            CheckpointPolicy::Periodic { .. } => "periodic",
            CheckpointPolicy::CoAnalysisInformed { .. } => "co-analysis informed",
        }
    }
}

/// Node-second accounting for one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointOutcome {
    /// Which policy.
    pub policy: CheckpointPolicy,
    /// Node-seconds destroyed by interruptions (work since last checkpoint).
    pub lost_node_secs: f64,
    /// Node-seconds spent writing checkpoints.
    pub overhead_node_secs: f64,
    /// Jobs that wrote at least one checkpoint.
    pub jobs_checkpointing: usize,
}

impl CheckpointOutcome {
    /// Total cost: lost + overhead.
    pub fn total_cost(&self) -> f64 {
        self.lost_node_secs + self.overhead_node_secs
    }
}

/// Inputs for the replay.
pub struct CheckpointStudy<'a> {
    /// The indexed job log; interrupted job ids resolve through its
    /// job-id index.
    pub jobs: &'a JobLog,
    /// job id → cause for interrupted jobs.
    pub causes: &'a BTreeMap<u64, RootCause>,
    /// Seconds one checkpoint takes (its cost in wall time × nodes).
    pub checkpoint_cost_secs: f64,
}

impl CheckpointStudy<'_> {
    /// Replay every job under `policy`.
    pub fn evaluate(&self, policy: CheckpointPolicy) -> CheckpointOutcome {
        // Executables with any application-error interruption in the log —
        // the "history" the informed policy reacts to. (Offline stand-in
        // for the online history a scheduler would track.)
        let jobs = self.jobs;
        let app_history: BTreeSet<ExecId> = self
            .causes
            .iter()
            .filter(|&(_, &c)| c == RootCause::ApplicationError)
            .filter_map(|(&id, _)| jobs.job(id).map(|j| j.exec))
            .collect();
        let interrupted_rows = jobs.row_marks(self.causes);

        let mut lost = 0.0f64;
        let mut overhead = 0.0f64;
        let mut jobs_checkpointing = 0usize;
        for (job, mark) in jobs.jobs().iter().zip(&interrupted_rows) {
            let elapsed = job.runtime().as_secs() as f64;
            let nodes = f64::from(job.size_midplanes()) * 512.0;
            let interrupted = mark.is_some();
            let plan = self.plan_for(policy, job, &app_history);
            match plan {
                Plan::Never => {
                    if interrupted {
                        lost += elapsed * nodes;
                    }
                }
                Plan::From { first, every } => {
                    // Checkpoint completion times: first, first+every, ...
                    // capped by the (possibly truncated) runtime.
                    let mut n_ckpts = 0i64;
                    let mut last_ckpt = 0.0f64;
                    let mut t = first as f64;
                    while t + self.checkpoint_cost_secs <= elapsed {
                        n_ckpts += 1;
                        last_ckpt = t + self.checkpoint_cost_secs;
                        t += every as f64;
                    }
                    overhead += n_ckpts as f64 * self.checkpoint_cost_secs * nodes;
                    if n_ckpts > 0 {
                        jobs_checkpointing += 1;
                    }
                    if interrupted {
                        lost += (elapsed - last_ckpt).max(0.0) * nodes;
                    }
                }
            }
        }
        CheckpointOutcome {
            policy,
            lost_node_secs: lost,
            overhead_node_secs: overhead,
            jobs_checkpointing,
        }
    }

    fn plan_for(
        &self,
        policy: CheckpointPolicy,
        job: &JobRecord,
        app_history: &BTreeSet<ExecId>,
    ) -> Plan {
        match policy {
            CheckpointPolicy::None => Plan::Never,
            CheckpointPolicy::Periodic { interval_secs } => Plan::From {
                first: interval_secs,
                every: interval_secs,
            },
            CheckpointPolicy::CoAnalysisInformed {
                interval_secs,
                wide_threshold,
                first_hour_delay_secs,
            } => {
                // Observation 10: size, not length, drives system-failure
                // vulnerability — narrow jobs with no bug history run at a
                // per-mille interruption risk and are cheaper to rerun than
                // to checkpoint.
                let narrow = job.size_midplanes() < wide_threshold;
                let buggy_history = app_history.contains(&job.exec);
                if narrow && !buggy_history {
                    return Plan::Never;
                }
                // Observation 11: early failures are application bugs whose
                // state is worthless — delay the first checkpoint.
                let first = if buggy_history {
                    first_hour_delay_secs.max(interval_secs)
                } else {
                    interval_secs
                };
                Plan::From {
                    first,
                    every: interval_secs,
                }
            }
        }
    }
}

enum Plan {
    Never,
    From { first: i64, every: i64 },
}

/// Evaluate the three canonical policies with a Young-style interval
/// derived from the measured system MTTI.
pub fn standard_study(
    jobs: &JobLog,
    causes: &BTreeMap<u64, RootCause>,
    mtti_secs: f64,
    checkpoint_cost_secs: f64,
    wide_threshold: u32,
) -> Vec<CheckpointOutcome> {
    // Young's first-order optimal interval: sqrt(2 · cost · MTTI).
    let young = (2.0 * checkpoint_cost_secs * mtti_secs).sqrt().max(60.0) as i64;
    let study = CheckpointStudy {
        jobs,
        causes,
        checkpoint_cost_secs,
    };
    vec![
        study.evaluate(CheckpointPolicy::None),
        study.evaluate(CheckpointPolicy::Periodic {
            interval_secs: young,
        }),
        study.evaluate(CheckpointPolicy::CoAnalysisInformed {
            interval_secs: young,
            wide_threshold,
            first_hour_delay_secs: 3_600,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::Timestamp;
    use joblog::{ExitStatus, JobLog, ProjectId, UserId};

    fn job(job_id: u64, exec: u32, runtime: i64, midplanes: u32) -> JobRecord {
        let start = job_id as i64 * 1_000_000;
        JobRecord {
            job_id,
            exec: ExecId(exec),
            user: UserId(0),
            project: ProjectId(0),
            queue_time: Timestamp::from_unix(start),
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(start + runtime),
            partition: bgp_model::Partition::contiguous(0, midplanes).unwrap(),
            exit: ExitStatus::Completed,
        }
    }

    #[test]
    fn no_checkpoint_loses_whole_runs() {
        let jobs = JobLog::from_jobs(vec![job(1, 1, 10_000, 1), job(2, 2, 10_000, 1)]);
        let mut causes = BTreeMap::new();
        causes.insert(1u64, RootCause::SystemFailure);
        let study = CheckpointStudy {
            jobs: &jobs,
            causes: &causes,
            checkpoint_cost_secs: 300.0,
        };
        let out = study.evaluate(CheckpointPolicy::None);
        assert_eq!(out.lost_node_secs, 10_000.0 * 512.0);
        assert_eq!(out.overhead_node_secs, 0.0);
        assert_eq!(out.jobs_checkpointing, 0);
    }

    #[test]
    fn periodic_bounds_loss_but_pays_overhead() {
        let jobs = JobLog::from_jobs(vec![job(1, 1, 10_000, 1), job(2, 2, 10_000, 1)]);
        let mut causes = BTreeMap::new();
        causes.insert(1u64, RootCause::SystemFailure);
        let study = CheckpointStudy {
            jobs: &jobs,
            causes: &causes,
            checkpoint_cost_secs: 300.0,
        };
        let out = study.evaluate(CheckpointPolicy::Periodic {
            interval_secs: 3_000,
        });
        // Checkpoints complete at 3300, 6300, 9300 → 3 per job.
        assert_eq!(out.overhead_node_secs, 2.0 * 3.0 * 300.0 * 512.0);
        // Interrupted job loses 10_000 − 9_300 = 700 s.
        assert_eq!(out.lost_node_secs, 700.0 * 512.0);
        assert_eq!(out.jobs_checkpointing, 2);
        // For this mix the periodic policy beats running naked.
        let naked = study.evaluate(CheckpointPolicy::None);
        assert!(out.total_cost() < naked.total_cost());
    }

    #[test]
    fn informed_policy_skips_narrow_short_jobs() {
        // 1000 narrow 30-minute jobs, none interrupted: informed pays zero,
        // periodic pays overhead on all of them.
        let jobs: Vec<JobRecord> = (0..1000).map(|i| job(i, i as u32, 1_800, 1)).collect();
        let jobs = JobLog::from_jobs(jobs);
        let causes = BTreeMap::new();
        let study = CheckpointStudy {
            jobs: &jobs,
            causes: &causes,
            checkpoint_cost_secs: 300.0,
        };
        let periodic = study.evaluate(CheckpointPolicy::Periodic { interval_secs: 600 });
        let informed = study.evaluate(CheckpointPolicy::CoAnalysisInformed {
            interval_secs: 600,
            wide_threshold: 32,
            first_hour_delay_secs: 3_600,
        });
        assert!(periodic.overhead_node_secs > 0.0);
        assert_eq!(informed.total_cost(), 0.0);
        assert_eq!(informed.jobs_checkpointing, 0);
    }

    #[test]
    fn informed_policy_delays_first_checkpoint_for_buggy_history() {
        // Exec 7 has an app-error interruption on job 1; job 2 (same exec,
        // long run) gets its first checkpoint only after the first hour.
        let jobs = JobLog::from_jobs(vec![job(1, 7, 600, 1), job(2, 7, 20_000, 1)]);
        let mut causes = BTreeMap::new();
        causes.insert(1u64, RootCause::ApplicationError);
        let study = CheckpointStudy {
            jobs: &jobs,
            causes: &causes,
            checkpoint_cost_secs: 100.0,
        };
        let informed = study.evaluate(CheckpointPolicy::CoAnalysisInformed {
            interval_secs: 1_000,
            wide_threshold: 32,
            first_hour_delay_secs: 3_600,
        });
        // Job 1 is narrow+short → never. Job 2: first at 3600, then every
        // 1000 until 20_000 → completions at 3700, 4700, ..., 19700 → 17.
        assert_eq!(informed.jobs_checkpointing, 1);
        assert_eq!(informed.overhead_node_secs, 17.0 * 100.0 * 512.0);
    }

    #[test]
    fn standard_study_produces_three_policies() {
        let jobs = JobLog::from_jobs(vec![job(1, 1, 50_000, 64), job(2, 2, 400, 1)]);
        let mut causes = BTreeMap::new();
        causes.insert(1u64, RootCause::SystemFailure);
        let outcomes = standard_study(&jobs, &causes, 100_000.0, 300.0, 32);
        assert_eq!(outcomes.len(), 3);
        // The interrupted job is wide: both checkpointing policies should
        // beat running naked.
        assert!(outcomes[1].total_cost() < outcomes[0].total_cost());
        assert!(outcomes[2].total_cost() < outcomes[0].total_cost());
    }
}
