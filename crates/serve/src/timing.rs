//! Wall-clock instrumentation for the batch pipeline.
//!
//! The core stage executor is deliberately clock-free (it lives inside the
//! determinism lint scope), so timing happens here: [`StageTimer`]
//! implements [`StageObserver`], reads `Instant` around each stage run, and
//! publishes per-stage wall time into a [`Registry`] — the same registry
//! kind the daemon serves at `/metrics`. `coctl analyze --timings` uses it
//! through [`coanalysis::CoAnalysis::run_on_observed`].

use crate::metrics::{Registry, LATENCY_BUCKETS_NANOS};
use coanalysis::{StageId, StageObserver};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Number of stages (fixed by [`StageId::ALL`]).
const STAGES: usize = StageId::ALL.len();

/// Records per-stage wall-clock while a pipeline runs.
///
/// `stage_started` / `stage_finished` arrive on the executor's worker
/// threads; the timer keeps one slot per stage (each stage runs at most once
/// per pipeline execution) and turns the pairs into `stage_wall_nanos_*`
/// gauges plus one `stage_wall_nanos` histogram on the registry.
#[derive(Debug)]
pub struct StageTimer<'a> {
    registry: &'a Registry,
    starts: Mutex<[Option<Instant>; STAGES]>,
    elapsed: Mutex<[Option<u64>; STAGES]>,
}

impl<'a> StageTimer<'a> {
    /// A timer publishing into `registry`.
    pub fn new(registry: &'a Registry) -> StageTimer<'a> {
        StageTimer {
            registry,
            starts: Mutex::new([None; STAGES]),
            elapsed: Mutex::new([None; STAGES]),
        }
    }

    /// Prometheus-safe series name for one stage.
    fn series(id: StageId) -> String {
        format!("stage_wall_nanos_{}", id.name().replace('-', "_"))
    }

    /// Wall-clock nanoseconds for one stage, if it ran.
    pub fn elapsed_nanos(&self, id: StageId) -> Option<u64> {
        self.elapsed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id as usize)
            .copied()
            .flatten()
    }

    /// Human-readable per-stage report in topological order.
    pub fn report(&self) -> String {
        let elapsed = self.elapsed.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("stage timings:\n");
        for id in StageId::ALL {
            if let Some(Some(nanos)) = elapsed.get(id as usize).copied() {
                out.push_str(&format!(
                    "  {:<20} {:>10.3} ms\n",
                    id.name(),
                    nanos as f64 / 1e6
                ));
            }
        }
        out
    }
}

impl StageObserver for StageTimer<'_> {
    fn stage_started(&self, id: StageId) {
        let mut starts = self.starts.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = starts.get_mut(id as usize) {
            *slot = Some(Instant::now());
        }
    }

    fn stage_finished(&self, id: StageId) {
        let start = {
            let mut starts = self.starts.lock().unwrap_or_else(PoisonError::into_inner);
            starts.get_mut(id as usize).and_then(Option::take)
        };
        let Some(start) = start else { return };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(slot) = self
            .elapsed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(id as usize)
        {
            *slot = Some(nanos);
        }
        self.registry
            .gauge(&StageTimer::series(id), "stage wall-clock (ns)")
            .set(i64::try_from(nanos).unwrap_or(i64::MAX));
        self.registry
            .histogram(
                "stage_wall_nanos",
                "per-stage wall-clock (ns)",
                LATENCY_BUCKETS_NANOS,
            )
            .observe(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_pairs_start_and_finish_into_series() {
        let registry = Registry::new();
        let timer = StageTimer::new(&registry);
        timer.stage_started(StageId::TemporalSpatial);
        timer.stage_finished(StageId::TemporalSpatial);
        let nanos = timer
            .elapsed_nanos(StageId::TemporalSpatial)
            .expect("stage timed");
        assert!(timer.elapsed_nanos(StageId::Causal).is_none());
        let series = registry
            .value("stage_wall_nanos_temporal_spatial")
            .expect("gauge registered");
        assert_eq!(series, i64::try_from(nanos).unwrap_or(i64::MAX));
        assert_eq!(registry.value("stage_wall_nanos"), Some(1));
        let report = timer.report();
        assert!(report.contains("temporal-spatial"));
        assert!(!report.contains("causal"));
        // Unpaired finish is ignored, not an error.
        timer.stage_finished(StageId::Causal);
        assert!(timer.elapsed_nanos(StageId::Causal).is_none());
    }

    #[test]
    fn timer_drives_a_real_pipeline_run() {
        let out = bgp_sim::Simulation::new(bgp_sim::SimConfig::small_test(5))
            .expect("valid config")
            .run();
        let ctx = coanalysis::AnalysisContext::new(&out.ras, &out.jobs);
        let registry = Registry::new();
        let timer = StageTimer::new(&registry);
        let pipeline = coanalysis::CoAnalysis::with_config(coanalysis::CoAnalysisConfig::default());
        let set = coanalysis::AnalysisSet::of(&[StageId::TemporalSpatial]);
        let _products = pipeline.run_on_observed(&ctx, set, &timer);
        assert!(timer.elapsed_nanos(StageId::TemporalSpatial).is_some());
        assert!(timer.report().contains("temporal-spatial"));
    }
}
