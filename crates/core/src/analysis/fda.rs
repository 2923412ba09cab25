//! Fast Dimensional Analysis (FDA): frequent-itemset mining over
//! the interned (errcode, midplane, user, project, executable, job-size)
//! lattice — the multidimensional root-cause kernel of ROADMAP item 3,
//! after the Facebook FDA approach (arXiv 1911.01225).
//!
//! The paper's root-cause stage explains fatals along one dimension at a
//! time. This kernel mines *interaction* explanations: itemsets like
//! `{midplane=R17-M0, exec=app01234.exe}` whose share of interrupted jobs
//! is far above their share of all jobs (lift). The pipeline is:
//!
//! 1. **Intern** every dimension value to a dense `u32` id through a
//!    *sorted* dictionary ([`bgp_model::intern::Interner`]), and lay the
//!    job table out column-per-dimension (structure of arrays). Id order
//!    is value order, so every loop over ids is a deterministic loop over
//!    values — no hash-iteration order can leak into results.
//! 2. **Mine** the lattice Apriori-style, level by level. Candidate
//!    itemsets at each level are generated (join + downward closure over
//!    the previous frequent level), then counted into a support vector in
//!    candidate order.
//! 3. **Prune + rank**: frequent itemsets (fatal support ≥ a relative
//!    minimum) get a total-support count via postings-list intersection
//!    (fatal support is counted the same way, over the fatal rows' lists),
//!    a lift, and a final ranking by (lift desc, fatal support desc,
//!    items lex asc).
//!
//! The kernel is serial: it mines the few hundred interruptions the
//! filters leave, and the stage executor already runs it beside the other
//! stages on its workers.

use crate::event::Event;
use crate::matching::Matching;
use bgp_model::intern::Interner;
use bgp_model::MidplaneId;
use joblog::{ExecId, JobLog, JobRecord, ProjectId, UserId};
use raslog::ErrCode;
use std::fmt;

/// Number of lattice dimensions (errcode, midplane, user, project,
/// executable, job size).
pub const NUM_DIMS: usize = 6;

/// Number of *job-side* dimensions (everything but errcode, which joins
/// in from the matched event stream).
pub const NUM_JOB_DIMS: usize = NUM_DIMS - 1;

/// How many ranked itemsets the `Display` report section prints.
const REPORT_TOP: usize = 15;

/// One dimension of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum FdaDim {
    /// The error code attributed to the interrupted job (id 0 is the
    /// "no interruption" sentinel and never appears in an itemset).
    ErrCode = 0,
    /// First midplane of the job's partition (its anchor location).
    Midplane = 1,
    /// Submitting user.
    User = 2,
    /// Charged project.
    Project = 3,
    /// Executable.
    Exec = 4,
    /// Requested size in midplanes.
    Size = 5,
}

impl FdaDim {
    /// All dimensions, in lattice order.
    pub const ALL: [FdaDim; NUM_DIMS] = [
        FdaDim::ErrCode,
        FdaDim::Midplane,
        FdaDim::User,
        FdaDim::Project,
        FdaDim::Exec,
        FdaDim::Size,
    ];

    /// Short name used in reports (`dim=value`).
    pub fn name(self) -> &'static str {
        match self {
            FdaDim::ErrCode => "errcode",
            FdaDim::Midplane => "midplane",
            FdaDim::User => "user",
            FdaDim::Project => "project",
            FdaDim::Exec => "exec",
            FdaDim::Size => "size",
        }
    }

    fn from_index(i: u8) -> FdaDim {
        *FdaDim::ALL.get(i as usize).unwrap_or(&FdaDim::Size)
    }
}

/// Tuning knobs for the miner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdaParams {
    /// Minimum fatal support as a fraction of interrupted jobs (relative,
    /// so candidate counts stay bounded from paper scale to 100x).
    pub min_support_frac: f64,
    /// Absolute floor on fatal support — itemsets explaining fewer
    /// interruptions than this are noise regardless of scale.
    pub min_support_floor: u32,
    /// Minimum lift for an itemset to be *reported* (frequent itemsets
    /// below this still seed the next level's candidates).
    pub min_lift: f64,
    /// Deepest lattice level to mine (number of items per set).
    pub max_level: usize,
}

impl Default for FdaParams {
    fn default() -> FdaParams {
        FdaParams {
            min_support_frac: 0.01,
            min_support_floor: 5,
            min_lift: 2.0,
            max_level: 3,
        }
    }
}

impl FdaParams {
    /// The resolved absolute minimum fatal support for `n_fatal`
    /// interrupted jobs: `max(floor, ceil(frac × n_fatal), 1)`.
    pub fn min_support(&self, n_fatal: usize) -> u32 {
        let rel = (self.min_support_frac * n_fatal as f64).ceil();
        let rel = if rel.is_finite() && rel >= 0.0 && rel <= f64::from(u32::MAX) {
            rel as u32
        } else {
            u32::MAX
        };
        self.min_support_floor.max(rel).max(1)
    }
}

/// The interned job-side columns: one dense-`u32` column per job
/// dimension and the sorted dictionaries behind the ids (a display name is
/// formatted from the dictionary only when asked for). Built once per
/// [`AnalysisContext`](crate::AnalysisContext) (lazily, on first use) beside
/// the existing sorted shards; rows are the job log's rows, so a job id
/// resolves to its row through [`JobLog::job_row`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobDims {
    /// Column per job dimension, `cols[d][row]` = interned id. Order:
    /// midplane, user, project, exec, size (lattice dims 1..6).
    cols: [Vec<u32>; NUM_JOB_DIMS],
    /// Sorted dictionaries; `dicts[d].len()` is the id universe of
    /// column `d`.
    dicts: [Interner<u64>; NUM_JOB_DIMS],
}

impl JobDims {
    /// Intern the job table into columnar form. Rows are table order
    /// (one row per job record).
    pub fn from_jobs(jobs: &[JobRecord]) -> JobDims {
        let keys: [fn(&JobRecord) -> u64; NUM_JOB_DIMS] = [
            |j| {
                j.partition
                    .first()
                    .map_or(NO_MIDPLANE, |m| m.index() as u64)
            },
            |j| u64::from(j.user.0),
            |j| u64::from(j.project.0),
            |j| u64::from(j.exec.0),
            |j| u64::from(j.size_midplanes()),
        ];
        let interned: [(Interner<u64>, Vec<u32>); NUM_JOB_DIMS] = std::array::from_fn(|d| {
            let column: Vec<u64> = jobs.iter().map(keys[d]).collect();
            Interner::from_column(&column)
        });
        let [a, b, c, e, f] = interned;
        let (dicts, cols) = ([a.0, b.0, c.0, e.0, f.0], [a.1, b.1, c.1, e.1, f.1]);
        JobDims { cols, dicts }
    }

    /// Number of rows (jobs).
    pub fn rows(&self) -> usize {
        self.cols[0].len()
    }

    /// The interned column of job dimension `d` (0 = midplane, 1 = user,
    /// 2 = project, 3 = exec, 4 = size).
    pub fn job_col(&self, d: usize) -> &[u32] {
        self.cols.get(d).map_or(&[], Vec::as_slice)
    }

    /// Distinct values (= id universe size) of job dimension `d`.
    pub fn job_dict_len(&self, d: usize) -> usize {
        self.dicts.get(d).map_or(0, Interner::len)
    }

    /// Display name of `id` in job dimension `d` ("" when out of range).
    pub fn job_name(&self, d: usize, id: u32) -> String {
        self.dicts
            .get(d)
            .and_then(|dict| dict.value(id))
            .map_or_else(String::new, |k| job_label(d, k))
    }
}

/// The midplane key of a job with an empty partition (labelled `"-"`):
/// one past the last midplane index, so it sorts after every midplane.
const NO_MIDPLANE: u64 = bgp_model::topology::NUM_MIDPLANES as u64;

/// The display name of key `k` in job dimension `d`: the midplane, user,
/// project or executable `Display` form, or the size as a number. Keys
/// come from [`JobDims::from_jobs`], so the narrowing casts are lossless.
fn job_label(d: usize, k: u64) -> String {
    match d {
        0 => u8::try_from(k)
            .ok()
            .and_then(|i| MidplaneId::from_index(i).ok())
            .map_or_else(|| "-".to_owned(), |m| m.to_string()),
        1 => UserId(k as u32).to_string(),
        2 => ProjectId(k as u32).to_string(),
        3 => ExecId(k as u32).to_string(),
        _ => k.to_string(),
    }
}

/// An item is `(dimension index, interned id)`; itemsets are sorted by
/// dimension (at most one item per dimension), so tuple lex order is a
/// canonical total order.
type Item = (u8, u32);

/// One ranked over-represented combination.
#[derive(Debug, Clone, PartialEq)]
pub struct FdaItemset {
    /// The `dim=value` components, in dimension order.
    pub items: Vec<FdaItemValue>,
    /// Interrupted jobs matching every item.
    pub fatal_support: u32,
    /// All jobs matching every item.
    pub total_support: u32,
    /// `(fatal_support / n_fatal) / (total_support / n_jobs)` — how
    /// over-represented the combination is among interrupted jobs.
    pub lift: f64,
}

/// One `dim=value` component of an itemset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdaItemValue {
    /// Which dimension.
    pub dim: FdaDim,
    /// The display form of the value.
    pub value: String,
}

/// The FDA stage product: ranked over-represented dimension combinations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FdaAnalysis {
    /// Rows in the lattice (jobs in the log).
    pub n_jobs: usize,
    /// Interrupted rows (jobs attributed to a fatal event).
    pub n_fatal: usize,
    /// The resolved absolute minimum fatal support used.
    pub min_support: u32,
    /// Deepest level mined.
    pub max_level: usize,
    /// Itemsets with lift ≥ `min_lift`, ranked by (lift desc, fatal
    /// support desc, items asc).
    pub ranked: Vec<FdaItemset>,
}

/// The assembled 6-column table the miner scans: the five job-side
/// columns plus the errcode column joined in from the matching.
struct Table<'a> {
    /// `cols[d][row]`, `d` in lattice order.
    cols: [&'a [u32]; NUM_DIMS],
    /// Id-universe size per column.
    sizes: [usize; NUM_DIMS],
    /// Rows attributed to a fatal event, ascending.
    fatal_rows: &'a [u32],
}

impl Table<'_> {
    fn matches(&self, row: u32, items: &[Item]) -> bool {
        items
            .iter()
            .all(|&(d, id)| self.cols[d as usize].get(row as usize) == Some(&id))
    }
}

/// Compressed postings: for each id of one column, the ascending list of
/// the chosen rows carrying it. Built with counting sort, so list order is
/// row order.
struct Postings {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Postings {
    /// The postings of `col` over `rows` (ascending row numbers).
    fn build(col: &[u32], n_ids: usize, rows: impl Iterator<Item = u32> + Clone) -> Postings {
        let id_of = |row: u32| col.get(row as usize).map(|&id| id as usize);
        let mut counts = vec![0u32; n_ids + 1];
        for id in rows.clone().filter_map(id_of) {
            if let Some(c) = counts.get_mut(id + 1) {
                *c += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut listed = vec![0u32; counts.last().copied().unwrap_or(0) as usize];
        let mut cursor = starts.clone();
        for row in rows {
            if let Some(pos) = id_of(row).and_then(|id| cursor.get_mut(id)) {
                if let Some(slot) = listed.get_mut(*pos as usize) {
                    *slot = row;
                }
                *pos += 1;
            }
        }
        Postings {
            starts,
            rows: listed,
        }
    }

    fn list(&self, id: u32) -> &[u32] {
        let lo = self.starts.get(id as usize).copied().unwrap_or(0) as usize;
        let hi = self.starts.get(id as usize + 1).copied().unwrap_or(0) as usize;
        self.rows.get(lo..hi).unwrap_or(&[])
    }
}

impl FdaAnalysis {
    /// Mine the lattice. `events` and `matching` supply the errcode
    /// column and the fatal-row set (a job is fatal iff the matching
    /// attributed it to an event, and its row is the one
    /// [`JobLog::job_row`] resolves); `dims` are the interned columns of
    /// `jobs` ([`JobDims::from_jobs`] of its rows).
    pub fn compute(
        events: &[Event],
        matching: &Matching,
        dims: &JobDims,
        jobs: &JobLog,
        params: &FdaParams,
    ) -> FdaAnalysis {
        let n = dims.rows();
        // Errcode column: id 0 = "no interruption", ids 1.. = rank in the
        // sorted dictionary of attributed codes (+1). Victim lists are
        // event-ordered, so this loop is deterministic.
        let mut attributed: Vec<(u32, u16)> = Vec::new();
        for (i, em) in matching.per_event.iter().enumerate() {
            let code = events.get(i).map_or(0, |e| e.errcode.0);
            for &job_id in &em.victims {
                if let Some(row) = jobs.job_row(job_id) {
                    attributed.push((row, code));
                }
            }
        }
        attributed.sort_unstable();
        attributed.dedup_by_key(|p| p.0);
        let errdict = Interner::from_values(attributed.iter().map(|&(_, c)| c));
        let mut errcol = vec![0u32; n];
        for &(row, code) in &attributed {
            if let Some(slot) = errcol.get_mut(row as usize) {
                *slot = errdict.id(code).unwrap_or(0) + 1;
            }
        }
        let fatal_rows: Vec<u32> = attributed.iter().map(|&(r, _)| r).collect();
        let n_fatal = fatal_rows.len();
        let min_support = params.min_support(n_fatal);
        let max_level = params.max_level.min(NUM_DIMS);

        let table = Table {
            cols: [
                &errcol,
                &dims.cols[0],
                &dims.cols[1],
                &dims.cols[2],
                &dims.cols[3],
                &dims.cols[4],
            ],
            sizes: [
                errdict.len() + 1,
                dims.dicts[0].len(),
                dims.dicts[1].len(),
                dims.dicts[2].len(),
                dims.dicts[3].len(),
                dims.dicts[4].len(),
            ],
            fatal_rows: &fatal_rows,
        };

        let mut analysis = FdaAnalysis {
            n_jobs: n,
            n_fatal,
            min_support,
            max_level,
            ranked: Vec::new(),
        };
        if n == 0 || n_fatal == 0 || max_level == 0 {
            return analysis;
        }

        // Per column, the postings over every row (total support) and over
        // the fatal rows only (fatal support).
        let postings: Vec<Postings> = (0..NUM_DIMS)
            .map(|d| Postings::build(table.cols[d], table.sizes[d], 0..n as u32))
            .collect();
        let fatal_postings: Vec<Postings> = (0..NUM_DIMS)
            .map(|d| {
                Postings::build(
                    table.cols[d],
                    table.sizes[d],
                    table.fatal_rows.iter().copied(),
                )
            })
            .collect();

        // Level 1: fatal support per item from one deterministic pass
        // over the fatal rows.
        let mut level1: Vec<Vec<u32>> = table.sizes.iter().map(|&s| vec![0u32; s]).collect();
        for &row in table.fatal_rows {
            for d in 0..NUM_DIMS {
                let id = table.cols[d].get(row as usize).copied().unwrap_or(0);
                if let Some(c) = level1
                    .get_mut(d)
                    .and_then(|counts| counts.get_mut(id as usize))
                {
                    *c += 1;
                }
            }
        }
        let mut frequent: Vec<Vec<Item>> = Vec::new();
        let mut supports: Vec<u32> = Vec::new();
        for (d, counts) in level1.iter().enumerate() {
            for (id, &c) in counts.iter().enumerate() {
                // Errcode id 0 is the non-fatal sentinel: it never occurs
                // on a fatal row, so `c >= min_support` excludes it.
                if c >= min_support {
                    frequent.push(vec![(d as u8, id as u32)]);
                    supports.push(c);
                }
            }
        }

        let mut mined: Vec<(Vec<Item>, u32, u32, f64)> = Vec::new();
        let mut level = 1;
        loop {
            // Total support + lift for this level's frequent sets.
            let totals = count_support(&table, &postings, &frequent);
            for ((items, &fatal), total) in frequent.iter().zip(&supports).zip(totals) {
                let lift =
                    (f64::from(fatal) * n as f64) / (f64::from(total.max(1)) * n_fatal as f64);
                if lift >= params.min_lift {
                    mined.push((items.clone(), fatal, total, lift));
                }
            }
            level += 1;
            if level > max_level || frequent.is_empty() {
                break;
            }
            let candidates = gen_candidates(&frequent);
            if candidates.is_empty() {
                break;
            }
            let counts = count_support(&table, &fatal_postings, &candidates);
            let mut next_frequent = Vec::new();
            let mut next_supports = Vec::new();
            for (items, c) in candidates.into_iter().zip(counts) {
                if c >= min_support {
                    next_frequent.push(items);
                    next_supports.push(c);
                }
            }
            frequent = next_frequent;
            supports = next_supports;
        }

        // Final ranking: lift desc, fatal support desc, items asc.
        mined.sort_by(|a, b| {
            b.3.total_cmp(&a.3)
                .then_with(|| b.1.cmp(&a.1))
                .then_with(|| a.0.cmp(&b.0))
        });
        analysis.ranked = mined
            .into_iter()
            .map(|(items, fatal, total, lift)| FdaItemset {
                items: items
                    .iter()
                    .map(|&(d, id)| FdaItemValue {
                        dim: FdaDim::from_index(d),
                        value: item_name(dims, &errdict, d, id),
                    })
                    .collect(),
                fatal_support: fatal,
                total_support: total,
                lift,
            })
            .collect();
        analysis
    }
}

/// Display name for one item.
fn item_name(dims: &JobDims, errdict: &Interner<u16>, d: u8, id: u32) -> String {
    if d == 0 {
        return match id.checked_sub(1).and_then(|i| errdict.value(i)) {
            Some(code) => ErrCode(code).to_string(),
            None => "-".to_string(),
        };
    }
    dims.job_name(d as usize - 1, id)
}

/// Apriori join + downward closure: from the lex-sorted frequent
/// `k`-itemsets, every candidate `(k+1)`-itemset whose `k`-subsets are
/// all frequent. Serial; output is lex-sorted by construction.
fn gen_candidates(frequent: &[Vec<Item>]) -> Vec<Vec<Item>> {
    let mut out = Vec::new();
    let k = frequent.first().map_or(0, Vec::len);
    let mut i = 0;
    while i < frequent.len() {
        let prefix = frequent[i].get(..k.saturating_sub(1)).unwrap_or(&[]);
        let mut j = i;
        while j < frequent.len() && frequent[j].get(..k.saturating_sub(1)).unwrap_or(&[]) == prefix
        {
            j += 1;
        }
        for a in i..j {
            for b in (a + 1)..j {
                let (la, lb) = match (frequent[a].last(), frequent[b].last()) {
                    (Some(&la), Some(&lb)) => (la, lb),
                    _ => continue,
                };
                // One item per dimension: the joined last items must be
                // on strictly different dimensions.
                if la.0 >= lb.0 {
                    continue;
                }
                let mut cand = frequent[a].clone();
                cand.push(lb);
                // Downward closure: dropping the last two positions
                // yields `frequent[a]` / `frequent[b]`; check the rest.
                let closed = (0..k.saturating_sub(1)).all(|drop| {
                    let sub: Vec<Item> = cand
                        .iter()
                        .enumerate()
                        .filter_map(|(p, &it)| (p != drop).then_some(it))
                        .collect();
                    frequent.binary_search(&sub).is_ok()
                });
                if closed {
                    out.push(cand);
                }
            }
        }
        i = j;
    }
    out
}

/// Support counts, one per itemset, in itemset order, via postings
/// intersection: walk the shortest posting list among the itemset's items
/// and verify the rest against the columns. With the fatal rows' postings
/// this is the fatal support, with every row's the total support.
fn count_support(table: &Table<'_>, postings: &[Postings], itemsets: &[Vec<Item>]) -> Vec<u32> {
    itemsets
        .iter()
        .map(|items| {
            let shortest = items
                .iter()
                .min_by_key(|&&(d, id)| postings.get(d as usize).map_or(0, |p| p.list(id).len()));
            let Some(&(d, id)) = shortest else { return 0 };
            let list = postings.get(d as usize).map_or(&[][..], |p| p.list(id));
            let mut c = 0u32;
            for &row in list {
                if table.matches(row, items) {
                    c += 1;
                }
            }
            c
        })
        .collect()
}

impl fmt::Display for FdaAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dimensional root cause (FDA)")?;
        writeln!(
            f,
            "  {} jobs, {} interrupted; min support {}, max level {}; {} over-represented combinations",
            self.n_jobs,
            self.n_fatal,
            self.min_support,
            self.max_level,
            self.ranked.len()
        )?;
        for set in self.ranked.iter().take(REPORT_TOP) {
            let items: Vec<String> = set
                .items
                .iter()
                .map(|iv| format!("{}={}", iv.dim.name(), iv.value))
                .collect();
            writeln!(
                f,
                "  {:>7.1}x  {:>6}/{:<8} {}",
                set.lift,
                set.fatal_support,
                set.total_support,
                items.join(", ")
            )?;
        }
        if self.ranked.len() > REPORT_TOP {
            writeln!(f, "  … and {} more", self.ranked.len() - REPORT_TOP)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::{Partition, Timestamp};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The frozen construction `from_jobs` replaced: one `BTreeMap` of
    /// labels per dimension, filled per row, and ids by sort plus binary
    /// search. Kept as the oracle for the direct-rank build and the
    /// on-demand labels; `names[d][id]` is the label of id `id`.
    fn reference_from_jobs(jobs: &[JobRecord]) -> (JobDims, [Vec<String>; NUM_JOB_DIMS]) {
        let n = jobs.len();
        let mut raw: [Vec<u64>; NUM_JOB_DIMS] = std::array::from_fn(|_| Vec::with_capacity(n));
        let mut labels: [BTreeMap<u64, String>; NUM_JOB_DIMS] =
            std::array::from_fn(|_| BTreeMap::new());
        for j in jobs {
            let mp = j.partition.midplanes().next();
            let mp_key = mp.map_or(NO_MIDPLANE, |m| m.index() as u64);
            raw[0].push(mp_key);
            raw[1].push(u64::from(j.user.0));
            raw[2].push(u64::from(j.project.0));
            raw[3].push(u64::from(j.exec.0));
            raw[4].push(u64::from(j.size_midplanes()));
            labels[0]
                .entry(mp_key)
                .or_insert_with(|| mp.map_or_else(|| "-".to_string(), |m| m.to_string()));
            labels[1]
                .entry(u64::from(j.user.0))
                .or_insert_with(|| j.user.to_string());
            labels[2]
                .entry(u64::from(j.project.0))
                .or_insert_with(|| j.project.to_string());
            labels[3]
                .entry(u64::from(j.exec.0))
                .or_insert_with(|| j.exec.to_string());
            labels[4]
                .entry(u64::from(j.size_midplanes()))
                .or_insert_with(|| j.size_midplanes().to_string());
        }
        let dicts: [Interner<u64>; NUM_JOB_DIMS] =
            std::array::from_fn(|d| Interner::from_values(raw[d].iter().copied()));
        let cols: [Vec<u32>; NUM_JOB_DIMS] = std::array::from_fn(|d| {
            raw[d]
                .iter()
                .map(|&k| dicts[d].id(k).unwrap_or(0))
                .collect()
        });
        let names: [Vec<String>; NUM_JOB_DIMS] = std::array::from_fn(|d| {
            dicts[d]
                .values()
                .iter()
                .map(|k| labels[d].get(k).cloned().unwrap_or_default())
                .collect()
        });
        (JobDims { cols, dicts }, names)
    }

    fn assert_dims_match_reference(jobs: &[JobRecord]) {
        let got = JobDims::from_jobs(jobs);
        let (want, names) = reference_from_jobs(jobs);
        assert_eq!(got, want);
        for (d, names) in names.iter().enumerate() {
            for (id, name) in names.iter().enumerate() {
                assert_eq!(&got.job_name(d, id as u32), name);
            }
            assert_eq!(got.job_name(d, names.len() as u32), "");
        }
    }

    #[test]
    fn job_dims_match_the_reference_on_a_simulated_log() {
        let out = bgp_sim::Simulation::new(bgp_sim::SimConfig::small_test(7))
            .unwrap()
            .run();
        assert!(!out.jobs.is_empty());
        assert_dims_match_reference(out.jobs.jobs());
    }

    const FULL_MASK: u128 = (1u128 << bgp_model::topology::NUM_MIDPLANES) - 1;

    prop_compose! {
        // Small id universes so ids, sizes and anchors repeat. Mask shape
        // 0 is the empty partition (the "-" label), 1 a few low midplanes,
        // 2 the whole machine, 3 random bits; user 5 stands for u32::MAX.
        fn arb_job()(
            job_id in 0u64..40,
            exec in 0u32..6,
            user in 0u32..6,
            project in 0u32..4,
            shape in 0u8..4,
            lo in 0u64..=u64::MAX,
            hi in 0u64..=u64::MAX,
        ) -> JobRecord {
            let mask = match shape {
                0 => 0,
                1 => u128::from(lo % 8),
                2 => FULL_MASK,
                _ => (u128::from(hi) << 64 | u128::from(lo)) & FULL_MASK,
            };
            JobRecord {
                job_id,
                exec: ExecId(exec),
                user: UserId(if user == 5 { u32::MAX } else { user }),
                project: ProjectId(project),
                queue_time: Timestamp::from_unix(0),
                start_time: Timestamp::from_unix(1),
                end_time: Timestamp::from_unix(2),
                partition: Partition::from_mask(mask).unwrap(),
                exit: joblog::ExitStatus::Completed,
            }
        }
    }

    proptest! {
        #[test]
        fn job_dims_match_the_reference_on_arbitrary_jobs(
            jobs in collection::vec(arb_job(), 0..60),
        ) {
            assert_dims_match_reference(&jobs);
        }
    }

    #[test]
    fn min_support_is_relative_with_floor() {
        let p = FdaParams::default();
        assert_eq!(p.min_support(0), 5);
        assert_eq!(p.min_support(100), 5);
        assert_eq!(p.min_support(1000), 10);
        assert_eq!(p.min_support(12345), 124);
    }

    #[test]
    fn postings_lists_are_row_sorted() {
        let col = vec![1u32, 0, 1, 2, 0, 1];
        let p = Postings::build(&col, 3, 0..6);
        assert_eq!(p.list(0), &[1, 4]);
        assert_eq!(p.list(1), &[0, 2, 5]);
        assert_eq!(p.list(2), &[3]);
        assert_eq!(p.list(3), &[] as &[u32]);
        // Over a subset of the rows, each list keeps only those rows.
        let p = Postings::build(&col, 3, [0, 3, 5].into_iter());
        assert_eq!(p.list(0), &[] as &[u32]);
        assert_eq!(p.list(1), &[0, 5]);
        assert_eq!(p.list(2), &[3]);
    }

    #[test]
    fn candidate_generation_joins_and_closes() {
        // Frequent 1-itemsets on dims 0,1,2; pair (1,*)+(2,*) frequent
        // only when both singletons are.
        let f1: Vec<Vec<Item>> = vec![vec![(0, 3)], vec![(1, 7)], vec![(2, 1)]];
        let c2 = gen_candidates(&f1);
        assert_eq!(
            c2,
            vec![
                vec![(0, 3), (1, 7)],
                vec![(0, 3), (2, 1)],
                vec![(1, 7), (2, 1)],
            ]
        );
        // With only two of the three pairs frequent, the triple fails
        // downward closure.
        let f2: Vec<Vec<Item>> = vec![vec![(0, 3), (1, 7)], vec![(0, 3), (2, 1)]];
        assert_eq!(gen_candidates(&f2), Vec::<Vec<Item>>::new());
        let f2b: Vec<Vec<Item>> = vec![
            vec![(0, 3), (1, 7)],
            vec![(0, 3), (2, 1)],
            vec![(1, 7), (2, 1)],
        ];
        assert_eq!(gen_candidates(&f2b), vec![vec![(0, 3), (1, 7), (2, 1)]]);
    }

    #[test]
    fn same_dimension_items_never_join() {
        let f1: Vec<Vec<Item>> = vec![vec![(1, 0)], vec![(1, 1)]];
        assert_eq!(gen_candidates(&f1), Vec::<Vec<Item>>::new());
    }
}
