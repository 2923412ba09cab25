//! The discrete-event simulation engine.
//!
//! A single binary-heap event loop advances the machine through the study
//! window: planned arrivals start jobs through the scheduler; a Weibull
//! renewal process injects root system faults (idle- or busy-targeted);
//! persistent faults leave midplanes broken until repair, so rescheduled
//! jobs keep dying there (job-related redundancy chains); buggy executables
//! raise application errors early in their runs and get resubmitted; every
//! true event is emitted as a redundant RAS storm. The engine finishes by
//! overlaying background noise, assigning RECIDs, and packaging the paired
//! logs plus ground truth.

use crate::config::SimConfig;
use crate::emission::{emit_background, emit_storm, StormShape};
use crate::faults::FaultModel;
use crate::scheduler::Scheduler;
use crate::truth::{FaultId, FaultNature, GroundTruth, TrueFault};
use crate::workload::Workload;
use bgp_model::{Duration, Location, MidplaneId, Partition, Timestamp};
use bgp_stats::sample::{exponential, lognormal, weibull};
use joblog::{ExitStatus, JobLog, JobRecord};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use raslog::{ErrCode, RasLog, RasRecord};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// The paired logs plus ground truth produced by one run.
#[derive(Debug)]
pub struct SimOutput {
    /// The RAS log (FATAL storms + background volume), RECIDs assigned.
    pub ras: RasLog,
    /// The job accounting log.
    pub jobs: JobLog,
    /// What really happened.
    pub truth: GroundTruth,
    /// The configuration that produced this output.
    pub config: SimConfig,
}

/// Exit code conventions the simulated control system uses.
const EXIT_SYSTEM_KILL: u16 = 143;
const EXIT_APP_CRASH: u16 = 139;

/// Sentinel used in [`TrueFault::root`] while constructing a fault that is
/// its own root; [`Simulation::new_fault`] replaces it with the real id.
const ROOT_SELF: FaultId = FaultId(u64::MAX);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// A submission enters the queue (planned or dynamic resubmission).
    Arrival { exec_idx: u32 },
    /// Natural completion of a job (validated against current state).
    JobEnd { job_id: u64 },
    /// Scheduled interruption of a job.
    JobKill { job_id: u64, cause: KillCause },
    /// Next root system fault from the renewal process.
    RootFault,
    /// Next transient FATAL alarm.
    TransientFault,
    /// Weekly maintenance window opens over one rack row.
    MaintenanceStart { row: u8 },
    /// Maintenance window closes.
    MaintenanceEnd,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum KillCause {
    /// Placed on hardware broken by an unrepaired persistent fault.
    Broken {
        root: FaultId,
        code: ErrCode,
        midplane: MidplaneId,
    },
    /// The executable's own bug fired.
    AppError { code: ErrCode },
}

#[derive(Debug, Clone)]
struct RunningJob {
    job_id: u64,
    exec_idx: u32,
    partition: Partition,
    queue_time: Timestamp,
    start_time: Timestamp,
    natural_end: Timestamp,
    /// The scheduled kill, if any — used to validate kill events.
    kill_at: Option<Timestamp>,
}

#[derive(Debug, Clone, Copy)]
struct BrokenState {
    root: FaultId,
    code: ErrCode,
    until: Timestamp,
}

/// The simulator. Construct with [`Simulation::new`], run with
/// [`Simulation::run`].
pub struct Simulation {
    cfg: SimConfig,
    rng: SmallRng,
    faults: FaultModel,
    workload: Workload,
    scheduler: Scheduler,
    heap: BinaryHeap<Reverse<(Timestamp, u64, EventBox)>>,
    seq: u64,
    now: Timestamp,
    queue: VecDeque<u32>,                      // exec indices waiting
    queue_times: HashMap<u32, Vec<Timestamp>>, // FIFO of queue times per exec
    running: HashMap<u64, RunningJob>,
    broken: HashMap<usize, BrokenState>,
    buggy_now: Vec<bool>,
    next_job_id: u64,
    records: Vec<RasRecord>,
    job_records: Vec<JobRecord>,
    boots: Vec<(Timestamp, Partition)>,
    truth: GroundTruth,
    /// Cumulative wide-job (≥ 32 midplanes) busy seconds per midplane —
    /// fault intensity couples to this, the paper's Observation-5 mechanism.
    wide_busy_secs: [i64; 80],
    /// Chain kills per persistent root fault — administrators notice after
    /// the second victim and expedite the repair, which is what caps the
    /// Figure-7 category-1 curve at k = 2.
    chain_kills: HashMap<FaultId, u32>,
}

/// Wrapper giving events a total order inside the heap (order value is the
/// sequence number; the enum itself never needs comparing).
#[derive(Debug, Clone, PartialEq, Eq)]
struct EventBox(Event);

impl PartialOrd for EventBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventBox {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl Simulation {
    /// Build a simulator for `cfg`, rejecting configurations that fail
    /// [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Result<Simulation, crate::SimError> {
        cfg.validate().map_err(crate::SimError::InvalidConfig)?;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let faults = FaultModel::standard();
        let workload = Workload::generate(&cfg, &faults, &mut rng);
        let buggy_now = workload.execs.iter().map(|e| e.buggy).collect();
        let mut sim = Simulation {
            now: cfg.start,
            scheduler: Scheduler::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            queue: VecDeque::new(),
            queue_times: HashMap::new(),
            running: HashMap::new(),
            broken: HashMap::new(),
            buggy_now,
            next_job_id: 1,
            records: Vec::new(),
            job_records: Vec::new(),
            boots: Vec::new(),
            truth: GroundTruth::default(),
            wide_busy_secs: [0; 80],
            chain_kills: HashMap::new(),
            rng,
            faults,
            workload,
            cfg,
        };
        sim.prime();
        Ok(sim)
    }

    fn push(&mut self, time: Timestamp, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq, EventBox(event))));
    }

    /// Seed the heap: planned arrivals, the fault processes, maintenance.
    fn prime(&mut self) {
        let arrivals: Vec<(Timestamp, u32)> = self
            .workload
            .arrivals
            .iter()
            .map(|a| (a.queue_time, a.exec_idx))
            .collect();
        for (t, exec_idx) in arrivals {
            self.push(t, Event::Arrival { exec_idx });
        }
        let first_fault = self.sample_fault_gap();
        self.push(self.cfg.start + first_fault, Event::RootFault);
        let first_transient = Duration::seconds(exponential(
            &mut self.rng,
            1.0 / self.cfg.transient_mean_interarrival_secs,
        ) as i64);
        self.push(self.cfg.start + first_transient, Event::TransientFault);
        if self.cfg.maintenance_secs > 0 {
            let mut week = 0u32;
            let mut t = self.cfg.start + Duration::days(3);
            while t < self.cfg.end() {
                self.push(
                    t,
                    Event::MaintenanceStart {
                        row: (week % 5) as u8,
                    },
                );
                self.push(
                    t + Duration::seconds(self.cfg.maintenance_secs),
                    Event::MaintenanceEnd,
                );
                week += 1;
                t += Duration::days(7);
            }
        }
    }

    fn sample_fault_gap(&mut self) -> Duration {
        let shape = self.cfg.system_fault_shape;
        // Choose the Weibull scale so the *mean* matches the configured mean
        // interarrival: mean = scale · Γ(1 + 1/shape).
        let scale = self.cfg.system_fault_mean_interarrival_secs
            / bgp_stats::special::gamma(1.0 + 1.0 / shape);
        Duration::seconds(weibull(&mut self.rng, shape, scale).max(1.0) as i64)
    }

    /// Run to the end of the window and package the output.
    pub fn run(mut self) -> SimOutput {
        let end = self.cfg.end();
        while let Some(Reverse((time, _, EventBox(event)))) = self.heap.pop() {
            if time >= end {
                break;
            }
            self.now = time;
            self.handle(event);
        }
        self.finish()
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrival { exec_idx } => {
                self.queue.push_back(exec_idx);
                self.queue_times.entry(exec_idx).or_default().push(self.now);
                self.try_schedule();
            }
            Event::JobEnd { job_id } => self.on_job_end(job_id),
            Event::JobKill { job_id, cause } => self.on_job_kill(job_id, cause),
            Event::RootFault => self.on_root_fault(),
            Event::TransientFault => self.on_transient_fault(),
            Event::MaintenanceStart { row } => {
                let lo = u32::from(row) * 16;
                let midplanes = (lo..lo + 16).map(|i| MidplaneId::from_index_wrapping(i as u8));
                self.scheduler.begin_maintenance(midplanes);
            }
            Event::MaintenanceEnd => {
                self.scheduler.end_maintenance();
                self.try_schedule();
            }
        }
    }

    // ---------------- scheduling ----------------

    fn try_schedule(&mut self) {
        // FCFS with generous skip-ahead (Cobalt-ish backfill behaviour): an
        // unplaceable wide job must not head-of-line-block the narrow jobs
        // behind it.
        let mut scanned = 0usize;
        let mut i = 0usize;
        // Fault-aware mode: the scheduler is told which midplanes are
        // currently broken and routes around them.
        let avoid = if self.cfg.fault_aware_scheduler {
            Partition::from_midplanes(
                self.broken
                    .iter()
                    .filter(|(_, b)| b.until > self.now)
                    .map(|(&i, _)| MidplaneId::from_index_wrapping(i as u8)),
            )
        } else {
            Partition::empty()
        };
        while i < self.queue.len() && scanned < 512 {
            let exec_idx = self.queue[i];
            scanned += 1;
            let profile = self.workload.profile(exec_idx).clone();
            let placed = self.scheduler.find_partition_avoiding(
                profile.size(),
                profile.exec,
                self.cfg.same_partition_prob,
                &mut self.rng,
                avoid,
            );
            match placed {
                Some(partition) => {
                    self.queue.remove(i);
                    self.start_job(exec_idx, partition);
                    // Stay at position i: the next entry slid into it.
                }
                None => i += 1,
            }
        }
    }

    fn start_job(&mut self, exec_idx: u32, partition: Partition) {
        let profile = self.workload.profile(exec_idx).clone();
        let queue_time = self
            .queue_times
            .get_mut(&exec_idx)
            .and_then(|v| {
                if v.is_empty() {
                    None
                } else {
                    Some(v.remove(0))
                }
            })
            .unwrap_or(self.now);
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        let runtime = self.workload.sample_runtime(exec_idx, &mut self.rng);
        let start_time = self.now;
        let natural_end = start_time + Duration::seconds(runtime);

        // Scheduled interruption: broken hardware dominates, else the
        // executable's own bug.
        let mut kill: Option<(Timestamp, KillCause)> = None;
        for m in partition.midplanes() {
            if let Some(b) = self.broken.get(&m.index()) {
                if b.until > self.now {
                    let exposure =
                        30.0 + exponential(&mut self.rng, 1.0 / self.cfg.broken_exposure_mean_secs);
                    let t = start_time + Duration::seconds(exposure as i64);
                    if t < natural_end {
                        kill = Some((
                            t,
                            KillCause::Broken {
                                root: b.root,
                                code: b.code,
                                midplane: m,
                            },
                        ));
                    }
                    break;
                }
            }
        }
        // Hard bugs fire more often per run than easy ones; combined with
        // fix-probability selection this steepens the Figure-7 category-2
        // curve.
        let fail_prob = self.cfg.buggy_run_fail_prob * (0.58 + 0.7 * profile.difficulty);
        if kill.is_none()
            && self.buggy_now[exec_idx as usize]
            && self.rng.random::<f64>() < fail_prob
        {
            // A failing buggy run crashes before its natural end — early in
            // absolute terms (log-normal around the configured median) and,
            // for short jobs, within the run itself.
            let early = lognormal(
                &mut self.rng,
                self.cfg.app_fail_median_secs.ln(),
                self.cfg.app_fail_sigma,
            );
            let within = runtime as f64 * (0.1 + 0.85 * self.rng.random::<f64>());
            let fail_after = early.min(within).max(5.0);
            let t = (start_time + Duration::seconds(fail_after as i64))
                .min(natural_end - Duration::seconds(1));
            if t > start_time {
                if let Some(code) = profile.app_code {
                    kill = Some((t, KillCause::AppError { code }));
                }
            }
        }

        self.scheduler.place(partition, job_id, profile.exec);
        self.boots.push((start_time, partition));
        self.running.insert(
            job_id,
            RunningJob {
                job_id,
                exec_idx,
                partition,
                queue_time,
                start_time,
                natural_end,
                kill_at: kill.as_ref().map(|(t, _)| *t),
            },
        );
        match kill {
            Some((t, cause)) => self.push(t, Event::JobKill { job_id, cause }),
            None => self.push(natural_end, Event::JobEnd { job_id }),
        }
    }

    fn finalize_job(&mut self, job: &RunningJob, end_time: Timestamp, exit: ExitStatus) {
        if job.partition.len() >= 32 {
            let secs = (end_time - job.start_time).as_secs();
            for m in job.partition.midplanes() {
                self.wide_busy_secs[m.index()] += secs;
            }
        }
        let profile = self.workload.profile(job.exec_idx);
        self.job_records.push(JobRecord {
            job_id: job.job_id,
            exec: profile.exec,
            user: profile.user,
            project: profile.project,
            queue_time: job.queue_time,
            start_time: job.start_time,
            end_time,
            partition: job.partition,
            exit,
        });
        self.scheduler.release(job.partition);
    }

    fn on_job_end(&mut self, job_id: u64) {
        let Some(job) = self.running.get(&job_id).cloned() else {
            return; // superseded
        };
        if job.kill_at.is_some() || job.natural_end != self.now {
            return; // a kill was scheduled instead, or the event is stale
        }
        self.running.remove(&job_id);
        self.finalize_job(&job, self.now, ExitStatus::Completed);
        self.try_schedule();
    }

    // ---------------- interruptions ----------------

    fn on_job_kill(&mut self, job_id: u64, cause: KillCause) {
        let Some(job) = self.running.get(&job_id).cloned() else {
            return;
        };
        if job.kill_at != Some(self.now) {
            return; // stale
        }
        self.running.remove(&job_id);

        match cause {
            KillCause::Broken {
                root,
                code,
                midplane,
            } => {
                self.finalize_job(&job, self.now, ExitStatus::Failed(EXIT_SYSTEM_KILL));
                // A chain occurrence: same root, re-reported now.
                let id = self.new_fault(TrueFault {
                    id: ROOT_SELF, // assigned by new_fault
                    root,
                    time: self.now,
                    location: Location::Midplane(midplane),
                    errcode: code,
                    nature: FaultNature::SystemFailure,
                    persistent: true,
                    interrupted_jobs: vec![job_id],
                    idle_location: false,
                });
                self.truth.job_cause.insert(job_id, id);
                self.storm(code, midplane, Some(job.partition));
                // Repeated victims draw administrator attention: expedite
                // the repair after the second chain kill.
                let kills = self.chain_kills.entry(root).or_insert(0);
                *kills += 1;
                if *kills >= 2 {
                    // Faster than the typical resubmit cycle, so the third
                    // attempt usually finds the hardware fixed.
                    let expedited = self.now
                        + Duration::seconds(
                            (120.0 + exponential(&mut self.rng, 1.0 / 600.0)) as i64,
                        );
                    if let Some(b) = self.broken.get_mut(&midplane.index()) {
                        if b.root == root {
                            b.until = b.until.min(expedited);
                        }
                    }
                }
                self.maybe_resubmit(job.exec_idx);
            }
            KillCause::AppError { code } => {
                self.finalize_job(&job, self.now, ExitStatus::Failed(EXIT_APP_CRASH));
                #[expect(
                    clippy::expect_used,
                    reason = "a running job's partition is non-empty by scheduler construction; no fallback location would be truthful"
                )]
                let epicenter = job.partition.first().expect("non-empty partition");
                let id = self.new_fault(TrueFault {
                    id: ROOT_SELF,
                    root: ROOT_SELF,
                    time: self.now,
                    location: Location::Midplane(epicenter),
                    errcode: code,
                    nature: FaultNature::ApplicationError,
                    persistent: false,
                    interrupted_jobs: vec![job_id],
                    idle_location: false,
                });
                self.truth.job_cause.insert(job_id, id);
                self.storm(code, epicenter, Some(job.partition));

                // Shared-file-system propagation to co-running jobs.
                if self.faults.is_fs_propagating(code) {
                    let mut victims: Vec<RunningJob> = self.running.values().cloned().collect();
                    victims.sort_by_key(|v| v.job_id); // deterministic order
                    victims.truncate(8);
                    let mut propagated = 0;
                    for v in victims {
                        if propagated >= 2 {
                            break;
                        }
                        if self.rng.random::<f64>() < self.cfg.fs_propagation_prob {
                            propagated += 1;
                            self.running.remove(&v.job_id);
                            self.finalize_job(&v, self.now, ExitStatus::Failed(EXIT_APP_CRASH));
                            self.truth.job_cause.insert(v.job_id, id);
                            // Extend the victim list of the fault we created.
                            if let Some(f) = self.truth.faults.iter_mut().find(|f| f.id == id) {
                                f.interrupted_jobs.push(v.job_id);
                            }
                            #[expect(
                                clippy::expect_used,
                                reason = "running jobs occupy a non-empty partition"
                            )]
                            let vm = v.partition.first().expect("non-empty");
                            self.storm(code, vm, Some(v.partition));
                            self.maybe_resubmit(v.exec_idx);
                        }
                    }
                }

                // Bug-fixing dynamics: easy bugs get fixed after a failure,
                // hard ones survive (selection effect → Figure 7 cat. 2).
                let difficulty = self.workload.profile(job.exec_idx).difficulty;
                let p_fix = 0.15 + 0.7 * (1.0 - difficulty);
                if self.rng.random::<f64>() < p_fix {
                    self.buggy_now[job.exec_idx as usize] = false;
                }
                self.maybe_resubmit(job.exec_idx);
            }
        }
        self.try_schedule();
    }

    fn maybe_resubmit(&mut self, exec_idx: u32) {
        if self.rng.random::<f64>() < self.cfg.resubmit_prob {
            let delay = 60.0 + exponential(&mut self.rng, 1.0 / self.cfg.resubmit_delay_mean_secs);
            let t = self.now + Duration::seconds(delay as i64);
            if t < self.cfg.end() {
                self.push(t, Event::Arrival { exec_idx });
            }
        }
    }

    // ---------------- fault processes ----------------

    fn on_root_fault(&mut self) {
        let gap = self.sample_fault_gap();
        let next = self.now + gap;
        self.push(next, Event::RootFault);

        let roll: f64 = self.rng.random::<f64>();
        if roll < self.cfg.stress_fault_fraction {
            // Stress-induced degradation: the fault strikes hardware in
            // proportion to its accumulated wide-job occupancy, busy or not
            // (Observation 5's mechanism — wide jobs wear the middle band).
            let weights: Vec<f64> = (0..80u8)
                .map(|i| self.wide_weight(MidplaneId::from_index_wrapping(i)))
                .collect();
            let m = MidplaneId::from_index_wrapping(bgp_stats::sample::categorical(
                &mut self.rng,
                &weights,
            ) as u8);
            match self.scheduler.slot(m) {
                crate::scheduler::SlotState::Busy(job_id) => self.busy_fault_at(m, job_id),
                _ => self.idle_fault_at(m),
            }
        } else if self.rng.random::<f64>() < self.cfg.idle_fault_fraction {
            self.idle_root_fault();
        } else {
            self.busy_root_fault();
        }
    }

    /// Fault-intensity weight of a midplane: 1 plus a term proportional to
    /// its share of the machine's accumulated wide-job occupancy. This is
    /// the generative counterpart of Observation 5: hardware that hosts wide
    /// jobs sees more stress (full-bandwidth torus traffic, more link/cable
    /// involvement, more complex boots) and fails more.
    fn wide_weight(&self, m: MidplaneId) -> f64 {
        let total: i64 = self.wide_busy_secs.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / 80.0;
        1.0 + 20.0 * self.wide_busy_secs[m.index()] as f64 / mean.max(1.0)
    }

    fn idle_root_fault(&mut self) {
        let idle = self.scheduler.idle_midplanes();
        if idle.is_empty() {
            return self.busy_root_fault();
        }
        let weights: Vec<f64> = idle.iter().map(|&m| self.wide_weight(m)).collect();
        let m = idle[bgp_stats::sample::categorical(&mut self.rng, &weights)];
        self.idle_fault_at(m);
    }

    fn idle_fault_at(&mut self, m: MidplaneId) {
        let code = self.faults.sample_idle_code(&mut self.rng);
        let persistent = self.faults.is_persistent_capable(code)
            && self.rng.random::<f64>() < self.cfg.persistent_fault_prob;
        let id = self.new_fault(TrueFault {
            id: ROOT_SELF,
            root: ROOT_SELF,
            time: self.now,
            location: Location::Midplane(m),
            errcode: code,
            nature: FaultNature::SystemFailure,
            persistent,
            interrupted_jobs: vec![],
            idle_location: true,
        });
        if persistent {
            self.break_midplane(m, id, code);
        }
        self.storm(code, m, None);
    }

    fn busy_root_fault(&mut self) {
        let busy = self.scheduler.busy_midplanes();
        if busy.is_empty() {
            return self.idle_root_fault();
        }
        // Weight midplanes by current *and* accumulated wide-job occupancy:
        // faults cluster where wide jobs run (Observation 5's mechanism).
        let weights: Vec<f64> = busy
            .iter()
            .map(|&(m, job_id)| {
                let wide_now = self
                    .running
                    .get(&job_id)
                    .is_some_and(|j| j.partition.len() >= 32);
                self.wide_weight(m) * if wide_now { 8.0 } else { 1.0 }
            })
            .collect();
        let pick = bgp_stats::sample::categorical(&mut self.rng, &weights);
        let (m, victim_id) = busy[pick];
        self.busy_fault_at(m, victim_id);
    }

    fn busy_fault_at(&mut self, m: MidplaneId, victim_id: u64) {
        let code = self.faults.sample_system_code(&mut self.rng);
        let persistent = self.faults.is_persistent_capable(code)
            && self.rng.random::<f64>() < self.cfg.persistent_fault_prob;

        let Some(victim) = self.running.get(&victim_id).cloned() else {
            return;
        };
        self.running.remove(&victim_id);
        self.finalize_job(&victim, self.now, ExitStatus::Failed(EXIT_SYSTEM_KILL));
        let id = self.new_fault(TrueFault {
            id: ROOT_SELF,
            root: ROOT_SELF,
            time: self.now,
            location: Location::Midplane(m),
            errcode: code,
            nature: FaultNature::SystemFailure,
            persistent,
            interrupted_jobs: vec![victim_id],
            idle_location: false,
        });
        self.truth.job_cause.insert(victim_id, id);
        if persistent {
            self.break_midplane(m, id, code);
        }
        self.storm(code, m, Some(victim.partition));
        self.maybe_resubmit(victim.exec_idx);
        self.try_schedule();
    }

    fn on_transient_fault(&mut self) {
        let gap = Duration::seconds(exponential(
            &mut self.rng,
            1.0 / self.cfg.transient_mean_interarrival_secs,
        ) as i64);
        self.push(self.now + gap, Event::TransientFault);
        // Half the alarms fire under running jobs (the case-3 signature that
        // lets co-analysis mark these codes non-fatal-in-practice).
        let busy = self.scheduler.busy_midplanes();
        let m = if !busy.is_empty() && self.rng.random::<f64>() < 0.5 {
            busy[self.rng.random_range(0..busy.len())].0
        } else {
            MidplaneId::from_index_wrapping(self.rng.random_range(0..80))
        };
        let code = self.faults.sample_transient_code(&mut self.rng);
        let idle = !matches!(self.scheduler.slot(m), crate::scheduler::SlotState::Busy(_));
        self.new_fault(TrueFault {
            id: ROOT_SELF,
            root: ROOT_SELF,
            time: self.now,
            location: Location::Midplane(m),
            errcode: code,
            nature: FaultNature::Transient,
            persistent: false,
            interrupted_jobs: vec![],
            idle_location: idle,
        });
        self.storm(code, m, None);
    }

    fn break_midplane(&mut self, m: MidplaneId, root: FaultId, code: ErrCode) {
        // The component was dying for hours: emit its correctable-error
        // precursor trail (timestamps before now; the final sort fixes
        // ordering).
        crate::emission::emit_precursors(
            &mut self.records,
            &mut self.rng,
            self.now,
            m,
            self.cfg.precursor_mean_count,
        );
        let repair = lognormal(
            &mut self.rng,
            self.cfg.repair_median_secs.ln(),
            self.cfg.repair_sigma,
        )
        .min(72.0 * 3600.0);
        self.broken.insert(
            m.index(),
            BrokenState {
                root,
                code,
                until: self.now + Duration::seconds(repair as i64),
            },
        );
    }

    /// Append a fault to the truth record, assigning its id (and root, if it
    /// is itself a root).
    fn new_fault(&mut self, mut fault: TrueFault) -> FaultId {
        let id = FaultId(self.truth.faults.len() as u64);
        fault.id = id;
        if fault.root == ROOT_SELF {
            fault.root = id;
        }
        self.truth
            .code_nature
            .entry(fault.errcode)
            .or_insert(self.faults.nature_of(fault.errcode));
        self.truth.faults.push(fault);
        id
    }

    fn storm(&mut self, code: ErrCode, epicenter: MidplaneId, partition: Option<Partition>) {
        let shape = StormShape {
            temporal_mean: self.cfg.storm_temporal_mean,
            spatial_mean: self.cfg.storm_spatial_mean,
        };
        emit_storm(
            &mut self.records,
            &mut self.rng,
            shape,
            &self.faults,
            self.now,
            code,
            epicenter,
            partition,
        );
    }

    // ---------------- wrap-up ----------------

    fn finish(mut self) -> SimOutput {
        let end = self.cfg.end();
        // Truncate still-running jobs at the window end.
        let leftovers: Vec<RunningJob> = self.running.values().cloned().collect();
        for job in leftovers {
            let end_time = job.natural_end.min(end);
            self.finalize_job(&job, end_time, ExitStatus::Completed);
        }
        self.running.clear();

        // Record the buggy-executable truth.
        for e in &self.workload.execs {
            if e.buggy {
                self.truth.buggy_execs.insert(e.exec);
            }
        }

        // Background volume, then the global sort and RECID assignment.
        emit_background(
            &mut self.records,
            &mut self.rng,
            &self.boots,
            (self.cfg.start, end),
            self.cfg.noise_scale,
        );
        self.records.sort_by_key(|r| r.event_time);
        for (i, r) in self.records.iter_mut().enumerate() {
            r.recid = i as u64 + 1;
        }

        SimOutput {
            ras: RasLog::from_records(self.records),
            jobs: JobLog::from_jobs(self.job_records),
            truth: self.truth,
            config: self.cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::FaultNature;

    fn run_small(seed: u64) -> SimOutput {
        Simulation::new(SimConfig::small_test(seed))
            .expect("valid config")
            .run()
    }

    #[test]
    fn produces_jobs_and_records() {
        let out = run_small(1);
        assert!(out.jobs.len() > 200, "jobs: {}", out.jobs.len());
        assert!(out.ras.len() > 1_000, "records: {}", out.ras.len());
        assert!(out.ras.fatal().count() > 100);
        assert!(!out.truth.faults.is_empty());
    }

    #[test]
    fn job_times_are_consistent() {
        let out = run_small(2);
        for j in out.jobs.jobs() {
            assert!(j.queue_time <= j.start_time, "job {}", j.job_id);
            assert!(j.start_time <= j.end_time, "job {}", j.job_id);
            assert!(j.end_time <= out.config.end());
            assert!(crate::workload::JOB_SIZES.contains(&j.size_midplanes()));
        }
    }

    #[test]
    fn no_overlapping_jobs_on_a_midplane() {
        let out = run_small(3);
        // For every midplane, job intervals must not overlap.
        for m in bgp_model::MidplaneId::all() {
            let mut intervals: Vec<(i64, i64)> = out
                .jobs
                .jobs()
                .iter()
                .filter(|j| j.partition.contains(m))
                .map(|j| (j.start_time.as_unix(), j.end_time.as_unix()))
                .collect();
            intervals.sort_unstable();
            for pair in intervals.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0,
                    "overlap on {m}: {:?} vs {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn interrupted_jobs_have_causes_and_failed_exits() {
        let out = run_small(4);
        assert!(
            !out.truth.job_cause.is_empty(),
            "no interruptions in a 12-day window"
        );
        for (&job_id, &fault_id) in &out.truth.job_cause {
            let job = out.jobs.by_job_id(job_id).expect("interrupted job logged");
            assert!(
                matches!(job.exit, ExitStatus::Failed(_)),
                "job {job_id} should have failed exit"
            );
            let fault = out.truth.fault(fault_id).expect("cause exists");
            assert!(fault.interrupted_jobs.contains(&job_id));
            // The fault fired while the job ran and the job ends then.
            assert_eq!(fault.time, job.end_time);
            assert!(job.partition.covers_location(fault.location));
        }
    }

    #[test]
    fn idle_faults_have_no_victims() {
        let out = run_small(5);
        let idle_faults: Vec<_> = out
            .truth
            .faults
            .iter()
            .filter(|f| f.idle_location)
            .collect();
        assert!(!idle_faults.is_empty());
        for f in idle_faults {
            assert!(f.interrupted_jobs.is_empty());
        }
    }

    #[test]
    fn chains_share_roots_and_codes() {
        // Chains are rare in tiny windows; scan seeds until one appears.
        for seed in 0..12 {
            let out = run_small(seed);
            let chains: Vec<_> = out.truth.faults.iter().filter(|f| f.is_chain()).collect();
            if chains.is_empty() {
                continue;
            }
            for c in &chains {
                let root = out.truth.fault(c.root).expect("root exists");
                assert!(!root.is_chain(), "root of a chain must be a root");
                assert_eq!(root.errcode, c.errcode, "chains re-report the root code");
                assert!(c.time > root.time);
                assert_eq!(c.location.midplane(), root.location.midplane());
            }
            return;
        }
        panic!("no chain occurrences in 12 seeds");
    }

    #[test]
    fn transients_never_interrupt() {
        let out = run_small(6);
        let transients: Vec<_> = out.truth.of_nature(FaultNature::Transient).collect();
        assert!(!transients.is_empty());
        for f in transients {
            assert!(f.interrupted_jobs.is_empty());
        }
        // And some transients fired on busy hardware (the case-3 signature).
        assert!(
            out.truth
                .of_nature(FaultNature::Transient)
                .any(|f| !f.idle_location),
            "expected busy-location transients"
        );
    }

    #[test]
    fn app_errors_mostly_early() {
        let mut early = 0usize;
        let mut total = 0usize;
        for seed in 0..6 {
            let out = run_small(seed);
            for f in out.truth.of_nature(FaultNature::ApplicationError) {
                for &job_id in &f.interrupted_jobs {
                    if let Some(j) = out.jobs.by_job_id(job_id) {
                        total += 1;
                        if j.runtime().as_secs() < 3_600 {
                            early += 1;
                        }
                    }
                }
            }
        }
        assert!(total > 10, "too few app interruptions to judge: {total}");
        let frac = early as f64 / total as f64;
        assert!(
            frac > 0.55,
            "only {frac:.2} of app interruptions within the first hour"
        );
    }

    #[test]
    fn recids_sequential_and_sorted() {
        let out = run_small(7);
        let recs = out.ras.records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.recid, i as u64 + 1);
        }
        for pair in recs.windows(2) {
            assert!(pair[0].event_time <= pair[1].event_time);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_small(11);
        let b = run_small(11);
        assert_eq!(a.ras.len(), b.ras.len());
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.truth.faults, b.truth.faults);
        assert_eq!(a.ras.records(), b.ras.records());
    }

    #[test]
    fn fault_aware_scheduler_reduces_chains() {
        // The Section VII what-if: with a failure feed, the scheduler stops
        // placing jobs on broken midplanes, so job-related redundancy
        // chains (and their interruptions) shrink. Aggregate across seeds —
        // single small windows are noisy.
        let mut chains_blind = 0usize;
        let mut chains_aware = 0usize;
        let mut int_blind = 0usize;
        let mut int_aware = 0usize;
        for seed in 0..6 {
            let blind = Simulation::new(SimConfig::small_test(seed))
                .expect("valid config")
                .run();
            let mut cfg = SimConfig::small_test(seed);
            cfg.fault_aware_scheduler = true;
            let aware = Simulation::new(cfg).expect("valid config").run();
            chains_blind += blind.truth.chain_faults();
            chains_aware += aware.truth.chain_faults();
            int_blind += blind.truth.total_interruptions();
            int_aware += aware.truth.total_interruptions();
        }
        assert!(
            chains_aware < chains_blind,
            "chains: aware {chains_aware} vs blind {chains_blind}"
        );
        assert!(
            int_aware <= int_blind,
            "interruptions: aware {int_aware} vs blind {int_blind}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_small(1);
        let b = run_small(2);
        assert_ne!(a.ras.len(), b.ras.len());
    }
}
