//! Failure propagation (Section VI-C: Observation 8).
//!
//! *Temporal* propagation is the chain phenomenon job-related filtering
//! removes (scheduler reallocating broken nodes, users resubmitting buggy
//! code). *Spatial* propagation is a single event interrupting multiple
//! jobs running at different locations at the same time — on Intrepid only
//! the shared-file-system codes do this (7.22 % of fatal events).

use crate::context::AnalysisContext;
use crate::event::Event;
use crate::matching::Matching;
use raslog::ErrCode;
use std::collections::BTreeMap;

/// Spatial/temporal propagation statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationAnalysis {
    /// Events that interrupted ≥ 2 jobs on non-overlapping partitions.
    pub spatial_events: usize,
    /// Total interrupting (case-1) events.
    pub interrupting_events: usize,
    /// The codes responsible for spatial propagation, with event counts.
    pub spatial_codes: BTreeMap<ErrCode, usize>,
    /// Events flagged as temporal (job-related) chains by the filter.
    pub temporal_chain_events: usize,
}

impl PropagationAnalysis {
    /// Analyze an event stream with its matching (the `Propagation` stage);
    /// `chain_flags` is the job-related filter's redundancy marking
    /// (temporal propagation).
    pub fn new(
        events: &[Event],
        matching: &Matching,
        ctx: &AnalysisContext<'_>,
        chain_flags: &[bool],
    ) -> PropagationAnalysis {
        assert_eq!(events.len(), matching.per_event.len());
        let mut spatial_events = 0usize;
        let mut interrupting_events = 0usize;
        let mut spatial_codes: BTreeMap<ErrCode, usize> = BTreeMap::new();
        for (e, m) in events.iter().zip(&matching.per_event) {
            if m.victims.is_empty() {
                continue;
            }
            interrupting_events += 1;
            if m.victims.len() >= 2 {
                // Spatial propagation requires distinct jobs on
                // non-overlapping hardware (a parallel job's own fan-out has
                // already been merged by the earlier filters).
                let partitions: Vec<_> = m
                    .victims
                    .iter()
                    .filter_map(|&id| ctx.jobs().job(id))
                    .map(|j| j.partition)
                    .collect();
                let mut disjoint = false;
                for i in 0..partitions.len() {
                    for j in i + 1..partitions.len() {
                        if !partitions[i].overlaps(partitions[j]) {
                            disjoint = true;
                        }
                    }
                }
                if disjoint {
                    spatial_events += 1;
                    *spatial_codes.entry(e.errcode).or_insert(0) += 1;
                }
            }
        }
        PropagationAnalysis {
            spatial_events,
            interrupting_events,
            spatial_codes,
            temporal_chain_events: chain_flags.iter().filter(|&&f| f).count(),
        }
    }

    /// Fraction of interrupting events that propagate spatially (paper:
    /// 7.22 % of fatal events; denominator = interrupting events).
    pub fn spatial_fraction(&self) -> f64 {
        if self.interrupting_events == 0 {
            return 0.0;
        }
        self.spatial_events as f64 / self.interrupting_events as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{EventCase, EventMatch};
    use bgp_model::Timestamp;
    use joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
    use raslog::Catalog;

    fn ev(t: i64, name: &str) -> Event {
        Event::synthetic(
            Timestamp::from_unix(t),
            "R00-M0-I0".parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
            1,
            t as u64,
        )
    }

    fn job(job_id: u64, part: &str) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(job_id as u32),
            user: UserId(0),
            project: ProjectId(0),
            queue_time: Timestamp::from_unix(0),
            start_time: Timestamp::from_unix(10),
            end_time: Timestamp::from_unix(1_000),
            partition: part.parse().unwrap(),
            exit: ExitStatus::Failed(1),
        }
    }

    #[test]
    fn detects_spatial_propagation() {
        let jobs = JobLog::from_jobs(vec![job(1, "R00-M0"), job(2, "R05-M1"), job(3, "R00-M0")]);
        let events = vec![
            ev(1_000, "CiodHungProxy"),
            ev(50_000, "_bgp_err_kernel_panic"),
        ];
        let matching = Matching {
            per_event: vec![
                EventMatch {
                    victims: vec![1, 2],
                    running: 2,
                    case: EventCase::Interrupted,
                },
                EventMatch {
                    victims: vec![3],
                    running: 1,
                    case: EventCase::Interrupted,
                },
            ],
            job_to_event: [(1, 0), (2, 0), (3, 1)].into_iter().collect(),
        };
        let ctx = AnalysisContext::for_jobs(&jobs);
        let p = PropagationAnalysis::new(&events, &matching, &ctx, &[false, false]);
        assert_eq!(p.spatial_events, 1);
        assert_eq!(p.interrupting_events, 2);
        assert!((p.spatial_fraction() - 0.5).abs() < 1e-12);
        let ciod = Catalog::standard().lookup("CiodHungProxy").unwrap();
        assert_eq!(p.spatial_codes[&ciod], 1);
    }

    #[test]
    fn same_partition_multi_victims_not_spatial() {
        // Two victims on the SAME midplane (a chain mis-attributed within
        // the window) — overlapping partitions, so not spatial propagation.
        let jobs = JobLog::from_jobs(vec![job(1, "R00-M0"), job(2, "R00-M0")]);
        let events = vec![ev(1_000, "_bgp_err_ddr_controller")];
        let matching = Matching {
            per_event: vec![EventMatch {
                victims: vec![1, 2],
                running: 1,
                case: EventCase::Interrupted,
            }],
            job_to_event: [(1, 0), (2, 0)].into_iter().collect(),
        };
        let ctx = AnalysisContext::for_jobs(&jobs);
        let p = PropagationAnalysis::new(&events, &matching, &ctx, &[true]);
        assert_eq!(p.spatial_events, 0);
        assert_eq!(p.temporal_chain_events, 1);
    }

    #[test]
    fn empty() {
        let empty = JobLog::default();
        let ctx = AnalysisContext::for_jobs(&empty);
        let p = PropagationAnalysis::new(&[], &Matching::default(), &ctx, &[]);
        assert_eq!(p.spatial_fraction(), 0.0);
    }
}
