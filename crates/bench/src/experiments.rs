//! One method per table/figure of the paper.

use crate::render::{bars, pct, table};
use bgp_sim::{FaultNature, SimConfig, SimOutput, Simulation};
use coanalysis::classify::RootCause;
use coanalysis::{CoAnalysis, CoAnalysisResult};
use joblog::write::format_record as format_job;
use raslog::write::format_record as format_ras;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Which preset to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The 237-day calibrated Intrepid window (a few seconds to simulate).
    Full,
    /// The 12-day test preset (sub-second).
    Small,
}

/// A simulated system plus its co-analysis, ready to render experiments.
pub struct Experiments {
    /// The simulator output (logs + ground truth).
    pub out: SimOutput,
    /// The co-analysis result.
    pub result: CoAnalysisResult,
}

impl Experiments {
    /// Simulate and analyze.
    pub fn run(scale: Scale, seed: u64) -> Experiments {
        let cfg = match scale {
            Scale::Full => SimConfig::intrepid_2009(seed),
            Scale::Small => SimConfig::small_test(seed),
        };
        #[expect(
            clippy::expect_used,
            reason = "configs here are the crate's own presets; failing validation is a programmer error with no recovery in a report generator"
        )]
        let out = Simulation::new(cfg).expect("preset config is valid").run();
        let result = CoAnalysis::default().run(&out.ras, &out.jobs);
        Experiments { out, result }
    }

    /// Tables II and III: one example record from each log, field by field.
    pub fn schema(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== Table II: example RAS record ==");
        if let Some(r) = self.out.ras.fatal().next() {
            let line = format_ras(r);
            for (name, value) in [
                "RECID",
                "MSG_ID",
                "COMPONENT",
                "SUBCOMPONENT",
                "ERRCODE",
                "SEVERITY",
                "EVENT_TIME",
                "LOCATION",
                "MESSAGE",
            ]
            .iter()
            .zip(line.split('|'))
            {
                let _ = writeln!(s, "  {name:<13} {value}");
            }
        }
        let _ = writeln!(s, "\n== Table III: example job record ==");
        if let Some(j) = self.out.jobs.jobs().first() {
            let line = format_job(j);
            for (name, value) in [
                "Job ID",
                "Execution File",
                "User",
                "Project",
                "Queuing Time",
                "Starting Time",
                "End Time",
                "Location",
                "Exit",
            ]
            .iter()
            .zip(line.split('|'))
            {
                let _ = writeln!(s, "  {name:<15} {value}");
            }
        }
        s
    }

    /// Table I: summary of both logs.
    pub fn table1(&self) -> String {
        let cfg = &self.out.config;
        // Estimate on-disk sizes from a sample of formatted lines.
        let ras_bytes = estimate_size(self.out.ras.len(), || {
            self.out
                .ras
                .records()
                .iter()
                .take(2_000)
                .map(|r| format_ras(r).len() + 1)
                .sum::<usize>()
                / self.out.ras.len().clamp(1, 2_000)
        });
        let job_bytes = estimate_size(self.out.jobs.len(), || {
            self.out
                .jobs
                .jobs()
                .iter()
                .take(2_000)
                .map(|j| format_job(j).len() + 1)
                .sum::<usize>()
                / self.out.jobs.len().clamp(1, 2_000)
        });
        let mut rows = vec![
            vec![
                "Log Name".into(),
                "Days".into(),
                "Start Date".into(),
                "End Date".into(),
                "Log Size".into(),
                "No. of Records".into(),
            ],
            vec![
                "RAS".into(),
                cfg.days.to_string(),
                fmt_date(cfg.start),
                fmt_date(cfg.end()),
                human_size(ras_bytes),
                group_thousands(self.out.ras.len()),
            ],
            vec![
                "Job".into(),
                cfg.days.to_string(),
                fmt_date(cfg.start),
                fmt_date(cfg.end()),
                human_size(job_bytes),
                group_thousands(self.out.jobs.len()),
            ],
        ];
        let mut s = String::from("== Table I: log summary ==\n");
        s.push_str(&table(&rows));
        rows.clear();
        let _ = writeln!(
            s,
            "FATAL records: {}   distinct FATAL codes: {}   distinct executables: {}",
            group_thousands(self.out.ras.fatal().count()),
            self.out.ras.fatal_only().distinct_fatal_codes(),
            group_thousands(self.out.jobs.distinct_execs()),
        );
        // The paper's Section IV-B lead-in: the share of FATAL events
        // reported from the KERNEL domain (Intrepid: 75 %), which is why
        // COMPONENT alone cannot separate system from application faults.
        let summary = raslog::LogSummary::of(&self.out.ras, 3);
        let _ = writeln!(
            s,
            "FATAL by component: KERNEL {}   (paper: ~75%; APPLICATION contributes none)",
            pct(summary.fatal_component_share(raslog::Component::Kernel)),
        );
        s
    }

    /// Table IV: Weibull parameters before/after job-related filtering.
    pub fn table4(&self) -> String {
        let mut s = String::from("== Table IV: Weibull fits of fatal-event interarrivals ==\n");
        let Some(t) = &self.result.table_iv else {
            return s + "(not enough events to fit)\n";
        };
        let row = |name: &str, f: &coanalysis::analysis::failure_stats::FailureStats| {
            vec![
                name.to_owned(),
                format!("{:.6}", f.fits.weibull.shape),
                format!("{:.1}", f.fits.weibull.scale),
                format!("{:.0}", f.fits.weibull.mean()),
                format!("{:.4e}", f.fits.weibull.variance()),
                f.n_events.to_string(),
            ]
        };
        s.push_str(&table(&[
            vec![
                "".into(),
                "Shape".into(),
                "Scale".into(),
                "Mean".into(),
                "Variance".into(),
                "Events".into(),
            ],
            row("Before job-related filtering", &t.before),
            row("After job-related filtering", &t.after),
        ]));
        let _ = writeln!(
            s,
            "MTBF ratio after/before: {:.2}x   LRT prefers Weibull: before p={:.2e}, after p={:.2e}",
            t.mtbf_ratio(),
            t.before.fits.p_value,
            t.after.fits.p_value
        );
        // Bootstrap CIs quantify how much the shape shift means.
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(13);
        for (name, f) in [("before", &t.before), ("after", &t.after)] {
            if let Ok(ci) = bgp_stats::weibull::fit_mle_bootstrap(&f.interarrivals, 200, &mut rng) {
                let _ = writeln!(
                    s,
                    "shape 90% bootstrap CI ({name}): [{:.3}, {:.3}]",
                    ci.shape_90.0, ci.shape_90.1
                );
            }
        }
        s
    }

    /// Table V: Weibull parameters of interruption interarrivals by cause.
    pub fn table5(&self) -> String {
        let mut s = String::from("== Table V: Weibull fits of job-interruption interarrivals ==\n");
        let mut rows = vec![vec![
            "Interruption Cause".into(),
            "Shape".into(),
            "Scale".into(),
            "Mean".into(),
            "Variance".into(),
            "Count".into(),
        ]];
        for (name, c) in [
            ("System Failures", &self.result.interruption.system),
            ("Application Errors", &self.result.interruption.application),
        ] {
            match &c.fits {
                Some(f) => rows.push(vec![
                    name.into(),
                    format!("{:.6}", f.weibull.shape),
                    format!("{:.1}", f.weibull.scale),
                    format!("{:.0}", f.weibull.mean()),
                    format!("{:.4e}", f.weibull.variance()),
                    c.count.to_string(),
                ]),
                None => rows.push(vec![
                    name.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    c.count.to_string(),
                ]),
            }
        }
        s.push_str(&table(&rows));
        if let (Some(sys), Some(app)) = (
            self.result.interruption.system.mtti(),
            self.result.interruption.application.mtti(),
        ) {
            let _ = writeln!(s, "MTTI(application) / MTTI(system) = {:.2}", app / sys);
        }
        if let Some(t) = &self.result.table_iv {
            if let Some(r) = self.result.interruption.mtti_over_mtbf(t.before.mtbf()) {
                let _ = writeln!(s, "MTTI(system) / MTBF(before filtering) = {:.2}", r);
            }
        }
        s
    }

    /// Table VI: system interruptions / total jobs by size × runtime bucket.
    pub fn table6(&self) -> String {
        let t = &self.result.vulnerability.table;
        let mut rows = Vec::new();
        let mut header: Vec<String> = vec!["".into()];
        header.extend(
            coanalysis::analysis::SizeLengthTable::col_labels()
                .iter()
                .map(|s| s.to_string()),
        );
        header.push("sum:proportion".into());
        rows.push(header);
        for (r, &size) in coanalysis::analysis::vulnerability::SIZE_ROWS
            .iter()
            .enumerate()
        {
            let mut row = vec![format!(
                "{} midplane{}",
                size,
                if size == 1 { "" } else { "s" }
            )];
            for c in 0..4 {
                row.push(format!("{}/{}", t.interrupted[r][c], t.total[r][c]));
            }
            let (i, tt, rate) = t.row_summary()[r];
            row.push(format!("{i}/{tt}={}", pct(rate)));
            rows.push(row);
        }
        let mut footer: Vec<String> = vec!["sum:proportion".into()];
        for (i, tt, rate) in t.col_summary() {
            footer.push(format!("{i}/{tt}={}", pct(rate)));
        }
        let (ti, ttot): (u32, u32) = t
            .row_summary()
            .iter()
            .fold((0, 0), |acc, &(i, t, _)| (acc.0 + i, acc.1 + t));
        footer.push(format!(
            "{ti}/{ttot}={}",
            pct(f64::from(ti) / f64::from(ttot.max(1)))
        ));
        rows.push(footer);
        let mut s =
            String::from("== Table VI: system interruptions / jobs, by size x execution time ==\n");
        s.push_str(&table(&rows));
        let _ = writeln!(
            s,
            "size-rate monotonicity violations (rows with >= 100 jobs): {} (paper's own matrix has 1)",
            t.size_rate_violations(100)
        );
        s
    }

    /// Figure 3: ECDF + fits of fatal interarrivals, with and without
    /// job-related redundancy.
    pub fn fig3(&self) -> String {
        let mut s = String::from("== Figure 3: fatal-event interarrival CDFs ==\n");
        let Some(t) = &self.result.table_iv else {
            return s + "(not enough events)\n";
        };
        for (name, f) in [
            ("(a) with job-related redundancy", &t.before),
            ("(b) without job-related redundancy", &t.after),
        ] {
            let _ = writeln!(s, "{name}:");
            let mut rows = vec![vec![
                "interarrival (s)".into(),
                "empirical".into(),
                "Weibull".into(),
                "exponential".into(),
            ]];
            if let Ok(series) = f.cdf_series(12) {
                for (x, emp, w, e) in series {
                    rows.push(vec![
                        format!("{x:.0}"),
                        format!("{emp:.3}"),
                        format!("{w:.3}"),
                        format!("{e:.3}"),
                    ]);
                }
            }
            s.push_str(&table(&rows));
            let dw = bgp_stats::ks::ks_statistic(&f.interarrivals, |x| f.fits.weibull.cdf(x))
                .unwrap_or(f64::NAN);
            let de = bgp_stats::ks::ks_statistic(&f.interarrivals, |x| f.fits.exponential.cdf(x))
                .unwrap_or(f64::NAN);
            let _ = writeln!(s, "KS distance: Weibull {dw:.4} vs exponential {de:.4}\n");
        }
        s
    }

    /// Figure 4: per-midplane fatal counts, workload, wide-job workload.
    pub fn fig4(&self) -> String {
        let p = &self.result.midplane;
        let mut s = String::from("== Figure 4: per-midplane profile (80 midplanes) ==\n");
        let counts: Vec<f64> = p.fatal_counts.iter().map(|&c| f64::from(c)).collect();
        let _ = writeln!(s, "(a) fatal events per midplane:");
        s.push_str(&bars(&counts, 8));
        let load: Vec<f64> = p.workload_secs.iter().map(|&v| v as f64 / 3600.0).collect();
        let _ = writeln!(s, "(b) workload per midplane (busy hours):");
        s.push_str(&bars(&load, 8));
        let wide: Vec<f64> = p
            .wide_workload_secs
            .iter()
            .map(|&v| v as f64 / 3600.0)
            .collect();
        let _ = writeln!(
            s,
            "(c) wide-job (>= {} midplanes) workload per midplane (busy hours):",
            p.wide_threshold
        );
        s.push_str(&bars(&wide, 8));
        let _ = writeln!(
            s,
            "Pearson(fatal counts, total workload) = {:.3}",
            p.corr_with_workload().unwrap_or(f64::NAN)
        );
        let _ = writeln!(
            s,
            "Pearson(fatal counts, wide workload)  = {:.3}",
            p.corr_with_wide_workload().unwrap_or(f64::NAN)
        );
        let _ = writeln!(
            s,
            "middle-band (midplanes 33-64) share of fatal events: {}",
            pct(p.middle_band_share())
        );
        // Section V-B: Weibull still fits at midplane level.
        let fits = coanalysis::analysis::midplane::per_midplane_fits(&self.result.events, 8);
        if !fits.is_empty() {
            let weibull_wins = fits
                .iter()
                .filter(|(_, f)| f.weibull_preferred(0.05))
                .count();
            let shapes: Vec<f64> = fits.iter().map(|(_, f)| f.weibull.shape).collect();
            let mean_shape = shapes.iter().sum::<f64>() / shapes.len() as f64;
            let _ = writeln!(
                s,
                "midplane-level fits ({} midplanes with >= 8 events): Weibull preferred on {}, mean shape {:.3}",
                fits.len(),
                weibull_wins,
                mean_shape
            );
        }
        s
    }

    /// Ablation: sweep the scheduler's same-partition resubmission
    /// preference (Intrepid: 57.4 %) and watch job-related redundancy
    /// respond — the knob behind Observations 3 and 9.
    pub fn sweep_same_partition(scale: Scale, seed: u64) -> String {
        let mut rows = vec![vec![
            "same-partition probability".into(),
            "chain faults".into(),
            "interruptions".into(),
            "interrupted executables".into(),
        ]];
        for prob in [0.0, 0.3, 0.574, 0.9] {
            let mut cfg = match scale {
                Scale::Full => SimConfig::intrepid_2009(seed),
                Scale::Small => SimConfig::small_test(seed),
            };
            cfg.same_partition_prob = prob;
            #[expect(
                clippy::expect_used,
                reason = "preset config with one probability tweaked; still valid by construction"
            )]
            let out = Simulation::new(cfg).expect("preset config is valid").run();
            let interrupted_execs: std::collections::HashSet<_> = out
                .truth
                .job_cause
                .keys()
                .filter_map(|&id| out.jobs.job(id).map(|j| j.exec))
                .collect();
            rows.push(vec![
                format!("{prob:.3}"),
                out.truth.chain_faults().to_string(),
                out.truth.total_interruptions().to_string(),
                interrupted_execs.len().to_string(),
            ]);
        }
        let mut s = String::from(
            "== Ablation: same-partition resubmission preference vs job-related redundancy ==\n",
        );
        s.push_str(&table(&rows));
        s.push_str(
            "(the paper's 57.4% preference is a major driver of the chains that\n\
             job-related filtering exists to remove)\n",
        );
        s
    }

    /// Figure 5: interruptions per day.
    pub fn fig5(&self) -> String {
        let b = &self.result.burst;
        let mut s = String::from("== Figure 5: job interruptions per day ==\n");
        let series: Vec<f64> = b.per_day.iter().map(|&c| f64::from(c)).collect();
        s.push_str(&bars(&series, 6));
        let _ = writeln!(
            s,
            "interrupted jobs: {} of all jobs; burst days (>=3) among active days: {}",
            pct(b.interrupted_job_fraction),
            pct(b.burst_day_fraction()),
        );
        let _ = writeln!(
            s,
            "re-interruptions of the same executable within {} s: {}; longest consecutive run: {}",
            b.quick_window_secs, b.quick_reinterruptions, b.max_consecutive_one_exec
        );
        // Stationarity sanity check behind the single-fit assumption.
        if let Some(span) = self.out.ras.time_span() {
            let trend =
                coanalysis::analysis::trend::FailureTrend::new(&self.result.events, span.0, span.1);
            if let Some(f) = &trend.fit {
                let _ = writeln!(
                    s,
                    "weekly fatal-event trend: slope {:+.2}/week (r = {:+.2}) -> {}",
                    f.slope,
                    f.r,
                    if trend.is_stationary(0.5, 0.5) {
                        "stationary enough for a single Weibull fit"
                    } else {
                        "non-stationary: interpret Table IV with care"
                    }
                );
            }
        }
        s
    }

    /// Figure 6: interruption interarrival CDFs by cause.
    pub fn fig6(&self) -> String {
        let mut s = String::from("== Figure 6: interruption interarrival CDFs ==\n");
        for (name, c) in [
            (
                "(a) due to system failures",
                &self.result.interruption.system,
            ),
            (
                "(b) due to application errors",
                &self.result.interruption.application,
            ),
        ] {
            let _ = writeln!(s, "{name} ({} interruptions):", c.count);
            match c.cdf_series(10) {
                Ok(series) => {
                    let mut rows = vec![vec![
                        "interarrival (s)".into(),
                        "empirical".into(),
                        "Weibull".into(),
                        "exponential".into(),
                    ]];
                    for (x, emp, w, e) in series {
                        rows.push(vec![
                            format!("{x:.0}"),
                            format!("{emp:.3}"),
                            format!("{w:.3}"),
                            format!("{e:.3}"),
                        ]);
                    }
                    s.push_str(&table(&rows));
                }
                Err(_) => {
                    let _ = writeln!(s, "  (not enough interruptions to fit)");
                }
            }
        }
        s
    }

    /// Figure 7: interruption probability of resubmissions vs. k.
    pub fn fig7(&self) -> String {
        let r = &self.result.vulnerability.resubmission;
        let mut rows = vec![vec![
            "k (consecutive prior interruptions)".into(),
            "category 1 (system)".into(),
            "category 2 (application)".into(),
        ]];
        for k in 1..=3usize {
            let cell = |counts: &[(u32, u32); 3]| {
                let (n, hit) = counts[k - 1];
                if n == 0 {
                    "n/a".to_owned()
                } else {
                    format!("{} ({hit}/{n})", pct(f64::from(hit) / f64::from(n)))
                }
            };
            rows.push(vec![k.to_string(), cell(&r.system), cell(&r.application)]);
        }
        let mut s =
            String::from("== Figure 7: P(interrupted | k consecutive prior interruptions) ==\n");
        s.push_str(&table(&rows));
        s
    }

    /// Figure 7 aggregated across several seeds: the k = 2, 3 cells hold
    /// only a handful of jobs in any single window (the paper's too), so
    /// the stable curve needs pooling.
    pub fn fig7_across_seeds(scale: Scale, base_seed: u64, n: u64) -> String {
        let mut system = [(0u32, 0u32); 3];
        let mut application = [(0u32, 0u32); 3];
        for i in 0..n {
            let e = Experiments::run(scale, base_seed + i);
            let r = &e.result.vulnerability.resubmission;
            for k in 0..3 {
                system[k].0 += r.system[k].0;
                system[k].1 += r.system[k].1;
                application[k].0 += r.application[k].0;
                application[k].1 += r.application[k].1;
            }
        }
        let mut rows = vec![vec![
            "k".into(),
            "category 1 (system)".into(),
            "category 2 (application)".into(),
        ]];
        let cell = |counts: &[(u32, u32); 3], k: usize| {
            let (nn, hit) = counts[k];
            if nn == 0 {
                "n/a".to_owned()
            } else {
                format!("{} ({hit}/{nn})", pct(f64::from(hit) / f64::from(nn)))
            }
        };
        for k in 0..3usize {
            rows.push(vec![
                (k + 1).to_string(),
                cell(&system, k),
                cell(&application, k),
            ]);
        }
        let mut s = format!(
            "== Figure 7 pooled over {n} seeds (base {base_seed}): P(interrupted | k) ==\n"
        );
        s.push_str(&table(&rows));
        s
    }

    /// The twelve observations plus the feature ranking detail and the
    /// paper-shape checklist.
    pub fn observations(&self) -> String {
        let obs = self.result.observations();
        let mut s = obs.to_string();
        let _ = writeln!(s, "\nShape checklist vs the paper:");
        for c in obs.check_against_paper() {
            let _ = writeln!(
                s,
                "  [{}] Obs {:>2}: {}",
                if c.pass { "PASS" } else { "MISS" },
                c.observation,
                c.claim
            );
        }
        let _ = writeln!(s, "\nFeature ranking, category 1 (system) interruptions:");
        for (name, score) in &self.result.vulnerability.ranking_system {
            let _ = writeln!(
                s,
                "  {name:<15} gain ratio {:.5} (gain {:.5})",
                score.gain_ratio, score.gain
            );
        }
        let _ = writeln!(
            s,
            "Feature ranking, category 2 (application) interruptions:"
        );
        for (name, score) in &self.result.vulnerability.ranking_application {
            let _ = writeln!(
                s,
                "  {name:<15} gain ratio {:.5} (gain {:.5})",
                score.gain_ratio, score.gain
            );
        }
        s
    }

    /// Scorecard against the simulator's ground truth — the validation the
    /// paper could only do by interviewing administrators.
    pub fn score(&self) -> Scorecard {
        let truth = &self.out.truth;
        let found = &self.result.matching.job_to_event;
        // Root-cause accuracy over codes that truly interrupted something.
        let mut root_cause_correct = 0usize;
        let mut root_cause_total = 0usize;
        for (&code, &nature) in &truth.code_nature {
            let Some(classified) = self.result.root_cause.cause(code) else {
                continue;
            };
            let truth_cause = match nature {
                FaultNature::ApplicationError => RootCause::ApplicationError,
                FaultNature::SystemFailure | FaultNature::Transient => RootCause::SystemFailure,
            };
            root_cause_total += 1;
            if classified == truth_cause {
                root_cause_correct += 1;
            }
        }
        Scorecard {
            matched_jobs: found.len(),
            matched_truly_interrupted: found
                .keys()
                .filter(|id| truth.job_cause.contains_key(id))
                .count(),
            interrupted_jobs: truth.job_cause.len(),
            root_cause_correct,
            root_cause_total,
            redundancy_flagged: self.result.job_redundant.iter().filter(|&&f| f).count(),
            chain_faults: truth.chain_faults(),
        }
    }

    /// [`Experiments::score`], rendered.
    pub fn scorecard(&self) -> String {
        self.score().to_string()
    }

    /// Per-code verdict table: what Section IV concluded about every FATAL
    /// code that fired — the machine-generated version of the paper's
    /// prose inventory ("BULK_POWER_FATAL is a hardware-related alarm…").
    pub fn codes(&self) -> String {
        use coanalysis::classify::{CodeImpact, RootCause};
        use coanalysis::matching::EventCase;
        let mut per_code: std::collections::HashMap<raslog::ErrCode, (usize, usize)> =
            std::collections::HashMap::new();
        for (e, m) in self
            .result
            .events
            .iter()
            .zip(&self.result.matching.per_event)
        {
            let entry = per_code.entry(e.errcode).or_insert((0, 0));
            entry.0 += 1;
            if m.case == EventCase::Interrupted {
                entry.1 += m.victims.len();
            }
        }
        let mut codes: Vec<_> = per_code.into_iter().collect();
        codes.sort_by_key(|&(c, (n, _))| (std::cmp::Reverse(n), c));
        let mut rows = vec![vec![
            "ERRCODE".into(),
            "events".into(),
            "victims".into(),
            "impact verdict".into(),
            "root cause (rule)".into(),
        ]];
        let cat = raslog::Catalog::standard();
        for (code, (events, victims)) in codes {
            let impact = match self.result.impact.per_code.get(&code) {
                Some(CodeImpact::InterruptionRelated) => "interruption-related",
                Some(CodeImpact::NonFatal) => "non-fatal in practice",
                Some(CodeImpact::UndeterminedIdle) => "undetermined (idle only)",
                Some(CodeImpact::UndeterminedMixed) => "undetermined (mixed)",
                None => "-",
            };
            let cause = match self.result.root_cause.per_code.get(&code) {
                Some((RootCause::SystemFailure, rule)) => format!("system ({rule:?})"),
                Some((RootCause::ApplicationError, rule)) => {
                    format!("application ({rule:?})")
                }
                None => "-".into(),
            };
            rows.push(vec![
                cat.info(code).name.to_owned(),
                events.to_string(),
                victims.to_string(),
                impact.into(),
                cause,
            ]);
        }
        let mut s = String::from("== Per-code verdicts (Section IV, mechanized) ==\n");
        s.push_str(&table(&rows));
        s
    }

    /// Section VII, recommendation 1: warning-policy evaluation — what a
    /// failure predictor gains from co-analysis (impact verdicts + location
    /// awareness).
    pub fn prediction(&self) -> String {
        use coanalysis::predict::{chain_guard, evaluate_policies};
        let scores = evaluate_policies(
            &self.result.events,
            &self.result.matching,
            &self.result.impact,
        );
        let mut rows = vec![vec![
            "warning policy".into(),
            "warnings".into(),
            "useful".into(),
            "false alarms".into(),
            "precision".into(),
            "recall".into(),
        ]];
        for s in &scores {
            rows.push(vec![
                s.policy.name().into(),
                s.warnings.to_string(),
                s.useful.to_string(),
                s.false_alarms().to_string(),
                pct(s.precision()),
                pct(s.recall()),
            ]);
        }
        let mut out = String::from(
            "== Section VII.1: failure-warning policies (co-analysis vs severity-only) ==\n",
        );
        out.push_str(&table(&rows));
        if let (Some(base), Some(best)) = (scores.first(), scores.last()) {
            let _ = writeln!(
                out,
                "co-analysis removes {} of {} false alarms ({}) at {} recall",
                base.false_alarms() - best.false_alarms(),
                base.false_alarms(),
                pct(1.0 - best.false_alarms() as f64 / base.false_alarms().max(1) as f64),
                pct(best.recall()),
            );
        }
        let (predictions, hits) = chain_guard(&self.result.events, &self.result.matching);
        let _ = writeln!(
            out,
            "chain guard (predict repeat interruptions at a struck midplane): {hits}/{predictions} correct",
        );
        // Lead-time prediction from correctable-error precursors.
        let score = coanalysis::predict::PrecursorPredictor::default().evaluate(
            &self.out.ras,
            &self.result.events,
            &self.result.matching,
        );
        let _ = writeln!(
            out,
            "precursor predictor (ECC-warning bursts): {} alerts, precision {}, recall {}, median lead {}",
            score.alerts,
            pct(score.precision()),
            pct(score.recall()),
            score
                .median_lead_secs
                .map(|s| format!("{:.1} min", s as f64 / 60.0))
                .unwrap_or_else(|| "n/a".into()),
        );
        out
    }

    /// Section VII, recommendation 2: checkpoint-policy cost comparison.
    pub fn checkpoint(&self) -> String {
        use coanalysis::analysis::checkpoint::standard_study;
        use coanalysis::classify::RootCause;
        let causes: std::collections::BTreeMap<u64, RootCause> = self
            .result
            .matching
            .job_to_event
            .iter()
            .map(|(&job_id, &idx)| {
                let code = self.result.events[idx].errcode;
                (
                    job_id,
                    self.result
                        .root_cause
                        .cause(code)
                        .unwrap_or(RootCause::SystemFailure),
                )
            })
            .collect();
        let mtti = self.result.interruption.system.mtti().unwrap_or(100_000.0);
        let outcomes = standard_study(&self.out.jobs, &causes, mtti, 300.0, 32);
        let mut rows = vec![vec![
            "policy".into(),
            "lost node-hours".into(),
            "overhead node-hours".into(),
            "total node-hours".into(),
            "jobs checkpointing".into(),
        ]];
        for o in &outcomes {
            rows.push(vec![
                o.policy.name().into(),
                format!("{:.0}", o.lost_node_secs / 3600.0),
                format!("{:.0}", o.overhead_node_secs / 3600.0),
                format!("{:.0}", o.total_cost() / 3600.0),
                o.jobs_checkpointing.to_string(),
            ]);
        }
        let mut out = String::from(
            "== Section VII.2: checkpoint-policy replay (300 s checkpoint cost, Young interval from measured MTTI) ==\n",
        );
        out.push_str(&table(&rows));
        let _ = writeln!(
            out,
            "(MTTI used for the Young interval: {:.1} h)",
            mtti / 3600.0
        );
        out
    }

    /// Section VII, recommendation 3: the fault-aware-scheduler what-if —
    /// rerun the *same seed* with the scheduler subscribed to failure
    /// information and compare.
    pub fn ablation(&self) -> String {
        let mut cfg = self.out.config.clone();
        cfg.fault_aware_scheduler = true;
        #[expect(
            clippy::expect_used,
            reason = "rerun of a config that already validated, with one flag flipped"
        )]
        let aware = Simulation::new(cfg).expect("validated config").run();
        let blind = &self.out;
        let mut rows = vec![
            vec![
                "".into(),
                "fault-blind (real Intrepid)".into(),
                "fault-aware (CiFTS what-if)".into(),
            ],
            vec![
                "job interruptions".into(),
                blind.truth.total_interruptions().to_string(),
                aware.truth.total_interruptions().to_string(),
            ],
            vec![
                "chain (job-related redundant) faults".into(),
                blind.truth.chain_faults().to_string(),
                aware.truth.chain_faults().to_string(),
            ],
            vec![
                "jobs completed".into(),
                blind.jobs.len().to_string(),
                aware.jobs.len().to_string(),
            ],
        ];
        let mut out = String::from(
            "== Section VII.3: fault-aware scheduling what-if (same seed, same faults) ==\n",
        );
        out.push_str(&table(&rows));
        rows.clear();
        let saved = blind
            .truth
            .chain_faults()
            .saturating_sub(aware.truth.chain_faults());
        let _ = writeln!(
            out,
            "a failure feed to the scheduler avoids {saved} of {} chain faults",
            blind.truth.chain_faults()
        );
        out
    }

    /// Everything, in paper order.
    pub fn all(&self) -> String {
        [
            self.table1(),
            self.schema(),
            self.observations(),
            self.table4(),
            self.fig3(),
            self.fig4(),
            self.fig5(),
            self.table5(),
            self.fig6(),
            self.fig7(),
            self.table6(),
            self.prediction(),
            self.checkpoint(),
            self.ablation(),
            self.scorecard(),
        ]
        .join("\n")
    }

    /// Export the figure series as JSON files under `dir` (for external
    /// plotting).
    pub fn export_json(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let write = |name: &str, value: crate::json::Json| -> io::Result<()> {
            std::fs::write(dir.join(name), value.pretty())
        };
        if let Some(t) = &self.result.table_iv {
            write(
                "fig3.json",
                crate::json!({
                    "before": t.before.cdf_series(64).ok(),
                    "after": t.after.cdf_series(64).ok(),
                    "weibull_before": crate::json!({"shape": t.before.fits.weibull.shape,
                                        "scale": t.before.fits.weibull.scale}),
                    "weibull_after": crate::json!({"shape": t.after.fits.weibull.shape,
                                       "scale": t.after.fits.weibull.scale}),
                }),
            )?;
        }
        write(
            "fig4.json",
            crate::json!({
                "fatal_counts": self.result.midplane.fatal_counts,
                "workload_secs": self.result.midplane.workload_secs,
                "wide_workload_secs": self.result.midplane.wide_workload_secs,
            }),
        )?;
        write(
            "fig5.json",
            crate::json!({ "per_day": self.result.burst.per_day }),
        )?;
        write(
            "fig6.json",
            crate::json!({
                "system": self.result.interruption.system.cdf_series(64).ok(),
                "application": self.result.interruption.application.cdf_series(64).ok(),
            }),
        )?;
        write(
            "fig7.json",
            crate::json!({
                "system": self.result.vulnerability.resubmission.system,
                "application": self.result.vulnerability.resubmission.application,
            }),
        )?;
        write(
            "table6.json",
            crate::json!({
                "interrupted": self.result.vulnerability.table.interrupted,
                "total": self.result.vulnerability.table.total,
            }),
        )?;
        write(
            "observations.json",
            crate::json::ToJson::to_json(&self.result.observations()),
        )?;
        Ok(())
    }
}

fn estimate_size(n: usize, avg_line: impl FnOnce() -> usize) -> usize {
    if n == 0 {
        0
    } else {
        n * avg_line()
    }
}

/// How well the analysis recovers what the simulator knows happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scorecard {
    /// Jobs the matcher attributed to an interrupting event.
    pub matched_jobs: usize,
    /// Matched jobs the simulator truly interrupted.
    pub matched_truly_interrupted: usize,
    /// Jobs the simulator truly interrupted.
    pub interrupted_jobs: usize,
    /// Codes whose classified root cause is their true nature.
    pub root_cause_correct: usize,
    /// Codes both classified and known to the ground truth.
    pub root_cause_total: usize,
    /// Events the job-related filter flagged as redundant.
    pub redundancy_flagged: usize,
    /// True chain faults (one fault re-striking resubmissions).
    pub chain_faults: usize,
}

impl Scorecard {
    /// Share of truly interrupted jobs the matcher found.
    pub fn recall(&self) -> f64 {
        self.matched_truly_interrupted as f64 / self.interrupted_jobs.max(1) as f64
    }

    /// Share of matched jobs that were truly interrupted.
    pub fn precision(&self) -> f64 {
        self.matched_truly_interrupted as f64 / self.matched_jobs.max(1) as f64
    }

    /// Share of classified codes given their true root cause.
    pub fn root_cause_accuracy(&self) -> f64 {
        self.root_cause_correct as f64 / self.root_cause_total.max(1) as f64
    }
}

impl std::fmt::Display for Scorecard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== Ground-truth scorecard ==")?;
        writeln!(
            f,
            "interruption matching: recall {} precision {} ({} found, {} true)",
            pct(self.recall()),
            pct(self.precision()),
            self.matched_jobs,
            self.interrupted_jobs
        )?;
        writeln!(
            f,
            "root-cause classification: {}/{} codes correct ({})",
            self.root_cause_correct,
            self.root_cause_total,
            pct(self.root_cause_accuracy())
        )?;
        writeln!(
            f,
            "job-related redundancy: flagged {} events (ground truth: {} chain faults)",
            self.redundancy_flagged, self.chain_faults
        )
    }
}

fn human_size(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

fn group_thousands(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn fmt_date(t: bgp_model::Timestamp) -> String {
    let (y, m, d, _, _, _) = t.to_civil();
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> &'static Experiments {
        use std::sync::OnceLock;
        static E: OnceLock<Experiments> = OnceLock::new();
        E.get_or_init(|| Experiments::run(Scale::Small, 7))
    }

    #[test]
    fn every_experiment_renders() {
        let e = exp();
        for (name, text) in [
            ("table1", e.table1()),
            ("schema", e.schema()),
            ("table4", e.table4()),
            ("table5", e.table5()),
            ("table6", e.table6()),
            ("fig3", e.fig3()),
            ("fig4", e.fig4()),
            ("fig5", e.fig5()),
            ("fig6", e.fig6()),
            ("fig7", e.fig7()),
            ("observations", e.observations()),
            ("scorecard", e.scorecard()),
            ("prediction", e.prediction()),
            ("checkpoint", e.checkpoint()),
        ] {
            assert!(text.len() > 50, "{name} output too short:\n{text}");
        }
        assert!(e.all().contains("Table VI"));
    }

    #[test]
    fn scorecard_holds_its_floors() {
        // Floors at this fixture's values when they were set (43 of 44
        // interrupted jobs matched, none wrongly; 43 of 44 codes given their
        // true root cause; 14 events flagged for 10 chain faults). A kernel
        // change that loses accuracy fails here even when it stays
        // bit-identical to its frozen baseline.
        let s = exp().score();
        assert!(s.recall() >= 43.0 / 44.0, "{s:?}");
        assert!(s.precision() >= 1.0, "{s:?}");
        assert!(s.root_cause_accuracy() >= 43.0 / 44.0, "{s:?}");
        assert!(s.redundancy_flagged >= 14, "{s:?}");
        assert!(s.redundancy_flagged >= s.chain_faults, "{s:?}");
    }

    #[test]
    fn helpers() {
        assert_eq!(group_thousands(1_234_567), "1,234,567");
        assert_eq!(group_thousands(12), "12");
        assert_eq!(human_size(512), "512.0 B");
        assert_eq!(human_size(2048), "2.0 KB");
        assert!(human_size(2_000_000).contains("MB"));
    }

    #[test]
    fn json_export_writes_files() {
        let e = exp();
        let dir = std::env::temp_dir().join("bgp_bench_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        e.export_json(&dir).unwrap();
        for f in [
            "fig4.json",
            "fig5.json",
            "fig7.json",
            "table6.json",
            "observations.json",
        ] {
            assert!(dir.join(f).exists(), "missing {f}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
