//! Failure and job-interruption characterization (Sections V and VI).

pub mod burst;
pub mod checkpoint;
pub mod failure_stats;
pub mod fda;
pub mod interruption;
pub mod midplane;
pub mod propagation;
pub mod repair;
pub mod trend;
pub mod vulnerability;

pub use burst::BurstAnalysis;
pub use failure_stats::FailureStats;
pub use fda::{FdaAnalysis, FdaItemset, FdaParams};
pub use interruption::InterruptionStats;
pub use midplane::MidplaneProfile;
pub use propagation::PropagationAnalysis;
pub use vulnerability::{ResubmissionStats, SizeLengthTable, VulnerabilityAnalysis};

#[cfg(test)]
mod tests {
    use super::checkpoint::{CheckpointPolicy, CheckpointStudy};
    use super::*;
    use crate::classify::root_cause::{RootCause, RootCauseRule, RootCauseSummary};
    use crate::context::AnalysisContext;
    use crate::event::Event;
    use crate::matching::{EventCase, EventMatch, Matching};
    use bgp_model::{Duration, Partition, Timestamp};
    use joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
    use std::collections::BTreeMap;

    fn job(job_id: u64, exec: u32, start: i64, runtime: i64, midplanes: u32) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(exec),
            user: UserId(exec),
            project: ProjectId(exec),
            queue_time: Timestamp::from_unix(start - 10),
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(start + runtime),
            partition: Partition::contiguous(0, midplanes).unwrap(),
            exit: ExitStatus::Completed,
        }
    }

    /// Job 5 is logged twice — first on exec 1, then (the last row) on
    /// exec 2 — and one event interrupts it. Every stage must resolve the
    /// id to the last row, as `JobLog::job` does.
    #[test]
    fn a_duplicated_id_resolves_to_its_last_row_in_every_stage() {
        let jobs = JobLog::from_jobs(vec![
            job(5, 1, 1_000, 600, 1),
            job(5, 2, 200_000, 7_200, 4),
            job(7, 2, 400_000, 30_000, 1),
            job(8, 1, 500_000, 30_000, 1),
        ]);
        let ctx = AnalysisContext::for_jobs(&jobs);
        let last = ctx.jobs().job(5).unwrap();
        assert_eq!(last.exec, ExecId(2));

        let code = raslog::Catalog::standard()
            .lookup("_bgp_err_app_out_of_memory")
            .unwrap();
        let events = vec![Event::synthetic(
            last.end_time,
            "R00-M0".parse().unwrap(),
            code,
            1,
            1,
        )];
        let matching = Matching {
            per_event: vec![EventMatch {
                victims: vec![5],
                running: 1,
                case: EventCase::Interrupted,
            }],
            job_to_event: BTreeMap::from([(5, 0)]),
        };
        let mut root_cause = RootCauseSummary::default();
        root_cause.per_code.insert(
            code,
            (
                RootCause::ApplicationError,
                RootCauseRule::FollowsExecutable,
            ),
        );

        // Burst: the victim is the last row (its end day, its exec).
        let victims = matching.interrupted_records(&ctx);
        assert_eq!(victims, vec![last]);
        let window = (Timestamp::from_unix(0), Timestamp::from_unix(10 * 86_400));
        let burst = BurstAnalysis::new(&victims, &ctx, window, Duration::seconds(1_000));
        assert_eq!(burst.per_day[2], 1);
        assert_eq!(burst.per_day.iter().sum::<u32>(), 1);

        // Vulnerability: the suspicious user and the first-hour share come
        // from the last row (exec 2's user, a two-hour run).
        let v = VulnerabilityAnalysis::new(&events, &matching, &root_cause, &ctx, &[0; 80]);
        assert_eq!(v.suspicious_users.0, vec![UserId(2)]);
        assert_eq!(v.app_interruptions_first_hour, 0.0);

        // FDA: the fatal row is the last row, so exec 2 carries the support.
        let params = FdaParams {
            min_support_frac: 0.0,
            min_support_floor: 1,
            min_lift: 0.0,
            max_level: 1,
        };
        let fda = FdaAnalysis::compute(&events, &matching, &ctx, &params);
        assert_eq!(fda.n_fatal, 1);
        let execs: Vec<&str> = fda
            .ranked
            .iter()
            .filter(|s| s.items[0].dim == fda::FdaDim::Exec)
            .map(|s| s.items[0].value.as_str())
            .collect();
        assert_eq!(execs, vec![ExecId(2).to_string()]);

        // Checkpointing: the application-error history is exec 2's, so the
        // narrow long runs on exec 2 (job 5's last row, job 7) checkpoint and
        // job 8 on exec 1 does not; exec 1's history would give just job 8.
        let causes = BTreeMap::from([(5, RootCause::ApplicationError)]);
        let study = CheckpointStudy {
            ctx: &ctx,
            causes: &causes,
            checkpoint_cost_secs: 100.0,
        };
        let informed = study.evaluate(CheckpointPolicy::CoAnalysisInformed {
            interval_secs: 1_000,
            wide_threshold: 32,
            first_hour_delay_secs: 3_600,
        });
        assert_eq!(informed.jobs_checkpointing, 2);
    }
}
