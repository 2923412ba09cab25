//! Loading logs from disk: the pluggable format layer over the ports, plus
//! the transparent `.bgpsnap` snapshot cache.
//!
//! This module is the one place that decides *how* log text becomes records:
//!
//! 1. resolve the input path through [`bgp_ports::resolve_input`] (only the
//!    BG/Q adapter is multi-file);
//! 2. for the BG/P format, if a snapshot directory is configured, open the
//!    source and validate the matching snapshot against it: header and
//!    format version first, then the source text's content hash — streamed
//!    from the file with positioned reads on every core
//!    ([`bgp_model::bytes::content_hash_file`]) while the snapshot body
//!    decodes, and computed at most once per load — then the body. The
//!    lookup order is: for [`load_pair`], the FATAL snapshot
//!    ([`fatal_snapshot_file`]); then the full snapshot ([`snapshot_file`]).
//!    A hit skips parsing; the source is read once, to hash it. Without a
//!    snapshot directory nothing is hashed. A source that is not a regular
//!    file (a pipe) is never hashed on its own, which would consume it: its
//!    snapshots count as unusable, and it is hashed as it is parsed;
//! 3. otherwise decode the source as its [`LogFormat`] says. A BG/P source is **streamed, never held whole**: each worker
//!    reads its share of the file through one fixed window with positioned
//!    reads and parses the whole lines in it
//!    ([`bgp_model::bytes::stream_lines`]), so a load that keeps 2 % of the
//!    records does not hold 100 % of the bytes. A cache miss hashes the
//!    same windows in the same pass and writes the snapshot for next time,
//!    stamped with the content hash of the very bytes parsed (to a temp
//!    file renamed over the old one, so concurrent readers and live
//!    mappings never see a torn snapshot). [`load_pair`] then also writes
//!    the FATAL snapshot from what it keeps; it does the same after a
//!    full-snapshot hit. The source's length is taken once, at the start:
//!    a source that shrinks during the load is a [`LoadError`], and bytes
//!    appended meanwhile are left for the next load. A pipe has no length
//!    to take: one worker reads it to its end. BG/Q, syslog and cassettes
//!    read the file into a buffer and decode it through
//!    [`bgp_ports::decode_ras`]; a cassette replays its recorded byte
//!    stream through its inner format.
//!
//! [`LoadOptions::format`] selects the **RAS** log's format. Job
//! accounting is format-specific only for `bgq`, whose directory layout
//! bundles a `jobs.bgq`; every other format reads the BG/P accounting
//! schema — syslog carries no job log at all, and cassettes captured from
//! the serve daemon record the RAS ingest stream. (Job-stream cassettes can
//! still be decoded directly through `bgp_ports::cassette`.)
//!
//! Every snapshot failure — stale hash, old format version, truncation,
//! corruption, a source that cannot be hashed — is recoverable: the loader
//! falls back to re-parsing and rewrites the snapshot, reporting what
//! happened in [`SnapshotStatus`]. A FATAL snapshot that fails falls back to
//! the full snapshot silently, so the status is then exactly
//! [`load_ras`]'s for the same cache.
//!
//! **What a load keeps.** The entry point decides, with no option to set:
//! [`load_ras`] and [`load_jobs`] keep every record, and [`load_pair`], the
//! co-analysis load, keeps only the RAS log's FATAL records — the stage
//! graph reads nothing else — plus the whole log's span and parsed count.
//! For BG/P the projection happens inside the chunk parser and the snapshot
//! decoder, which still parse and validate every line and every record, so
//! the other ~98 % of records are never built; the other adapters decode
//! in full, then filter. Diagnostics and the full snapshot file are the same
//! whichever entry point loads: a cache miss parses in full and writes the
//! full snapshot, so `coctl summary` and `coctl analyze` share one cache.
//! Only [`load_pair`] reads or writes the FATAL snapshot beside it (about
//! 2 % of its size), which serves its warm hits.

use bgp_model::bytes::content_hash_file;
use bgp_model::mmap::MappedFile;
use bgp_model::snapshot::{SnapshotError, SnapshotHeader, SnapshotKind};
use bgp_ports::SourceBatch;
pub use bgp_ports::{LogFormat, SourceDiagnostic};
use joblog::{JobLog, JobRecord};
use raslog::{Projection, RasLog, RasRecord};
use std::fmt;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// How to load a log file. The default uses every CPU, no snapshot cache
/// and the BG/P format.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Worker threads for parallel parsing; `0` means one per available CPU.
    pub threads: usize,
    /// Directory for `.bgpsnap` snapshots; `None` disables the cache. Only
    /// the BG/P format is snapshot-cached: the other adapters either read
    /// derived inputs (cassettes) or are not hot enough to matter.
    pub snapshot_dir: Option<PathBuf>,
    /// Which source adapter decodes the RAS input (default: BG/P pipes).
    pub format: LogFormat,
}

impl LoadOptions {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

/// What the snapshot cache did during one load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// No snapshot directory was configured (or the format is not cached).
    Disabled,
    /// A valid snapshot was loaded; parsing was skipped.
    Loaded,
    /// No snapshot existed; one was written after parsing.
    Written,
    /// A snapshot existed but was unusable; the log was re-parsed and the
    /// snapshot rewritten.
    Rewritten {
        /// Why the existing snapshot was rejected.
        reason: String,
    },
    /// Parsing succeeded but the snapshot could not be written (the load
    /// itself still succeeds; caching is best-effort).
    WriteFailed {
        /// The I/O error that prevented the write.
        reason: String,
    },
}

impl fmt::Display for SnapshotStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotStatus::Disabled => write!(f, "disabled"),
            SnapshotStatus::Loaded => write!(f, "loaded (parse skipped)"),
            SnapshotStatus::Written => write!(f, "written"),
            SnapshotStatus::Rewritten { reason } => write!(f, "rewritten ({reason})"),
            SnapshotStatus::WriteFailed { reason } => write!(f, "write failed ({reason})"),
        }
    }
}

/// A loaded RAS log with its parse diagnostics.
#[derive(Debug)]
pub struct LoadedRas {
    /// The indexed log: every record from [`load_ras`], only the FATAL
    /// ones from [`load_pair`]. Either way [`RasLog::time_span`] is the
    /// span of every record parsed.
    pub log: RasLog,
    /// Records parsed (on a snapshot hit: stored in the snapshot), before
    /// any projection — `log.len()` for a full load. The records projected
    /// away number `parsed - log.len()`.
    pub parsed: usize,
    /// Malformed lines skipped during decoding, plus any adapter notes
    /// (empty on a snapshot hit — snapshots only store records, and their
    /// line numbers are meaningless once the source text changes anyway).
    pub parse_errors: Vec<SourceDiagnostic>,
    /// What the snapshot cache did.
    pub snapshot: SnapshotStatus,
}

/// A loaded job log with its parse diagnostics.
#[derive(Debug)]
pub struct LoadedJobs {
    /// The indexed log.
    pub log: JobLog,
    /// Malformed lines skipped during decoding (empty on a snapshot hit).
    pub parse_errors: Vec<SourceDiagnostic>,
    /// What the snapshot cache did.
    pub snapshot: SnapshotStatus,
}

/// A load failure: the source file could not be read, or the container as a
/// whole (e.g. a corrupt cassette) was unusable.
#[derive(Debug)]
pub struct LoadError {
    /// The file that failed.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for LoadError {}

/// The snapshot file for `source` inside `dir`: `<file-name>.bgpsnap`.
pub fn snapshot_file(dir: &Path, source: &Path) -> PathBuf {
    let name = source
        .file_name()
        .map_or_else(|| "log".to_owned(), |n| n.to_string_lossy().into_owned());
    dir.join(format!("{name}.bgpsnap"))
}

/// The FATAL snapshot file for `source` inside `dir`, which only
/// [`load_pair`] reads and writes: `<file-name>.bgpsnap.fatal`. Every
/// [`snapshot_file`] name ends in `.bgpsnap`, so no source's full snapshot
/// can share it.
pub fn fatal_snapshot_file(dir: &Path, source: &Path) -> PathBuf {
    let mut name = snapshot_file(dir, source).into_os_string();
    name.push(".fatal");
    name.into()
}

fn cannot_read(path: &Path, e: io::Error) -> LoadError {
    LoadError {
        path: path.to_owned(),
        message: format!("cannot read: {e}"),
    }
}

/// Read a whole non-BG/P source into a buffer.
fn read_file(path: &Path) -> Result<MappedFile, LoadError> {
    MappedFile::read(path).map_err(|e| cannot_read(path, e))
}

/// The record-type specifics of one BG/P log: which snapshots it reads and
/// writes, how its text parses, and what a load keeps of its records.
trait BgpCodec {
    /// One parsed record.
    type Record;
    /// What a load hands back: the kept records, plus any tally of the rest.
    type Kept;
    /// The snapshot kind tag.
    const KIND: SnapshotKind;
    /// The snapshot format version this build reads and writes.
    const VERSION: u32;
    /// Parse the source file, keeping what the load keeps.
    fn parse(
        &self,
        file: &File,
        threads: usize,
    ) -> io::Result<(Self::Kept, Vec<SourceDiagnostic>)> {
        let (batch, _) = Self::parse_all(file, threads, false)?;
        Ok((self.project(batch.records), batch.diagnostics))
    }
    /// Parse the source file in full, for a snapshot write, with the
    /// content hash of the bytes parsed if `hash` is set.
    fn parse_all(
        file: &File,
        threads: usize,
        hash: bool,
    ) -> io::Result<(SourceBatch<Self::Record>, Option<u64>)>;
    /// Keep what the load keeps of a full parse.
    fn project(&self, all: Vec<Self::Record>) -> Self::Kept;
    /// Decode and validate a whole snapshot (its source hash is checked
    /// separately).
    fn decode(snap: &[u8]) -> Result<Vec<Self::Record>, SnapshotError>;
    /// Serialize a full parse, stamped with the source text's hash.
    fn encode(all: &[Self::Record], source_hash: u64) -> Vec<u8>;
    /// The snapshot of just what this load keeps, if it has one: looked up
    /// before the full snapshot, and written from what the load keeps after
    /// a full-snapshot hit or a parse.
    fn kept_snapshot(&self) -> Option<KeptSnapshot<Self::Kept>> {
        None
    }
}

/// A snapshot of just what a load keeps: where it lives and its codec
/// (stamped, like the full snapshot, with the whole source's hash).
struct KeptSnapshot<K> {
    file: fn(&Path, &Path) -> PathBuf,
    kind: SnapshotKind,
    decode: fn(&[u8]) -> Result<K, SnapshotError>,
    encode: fn(&K, u64) -> Vec<u8>,
}

/// The RAS log: every record ([`load_ras`]), or only the FATAL ones plus
/// the whole log's tally ([`load_pair`]), which have a snapshot of their
/// own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RasCodec {
    All,
    Fatal,
}

impl RasCodec {
    fn keep(self) -> fn(&RasRecord) -> bool {
        match self {
            RasCodec::All => |_| true,
            RasCodec::Fatal => RasRecord::is_fatal,
        }
    }
}

impl BgpCodec for RasCodec {
    type Record = RasRecord;
    type Kept = Projection;
    const KIND: SnapshotKind = SnapshotKind::Ras;
    const VERSION: u32 = raslog::snapshot::FORMAT_VERSION;

    fn parse(
        &self,
        file: &File,
        threads: usize,
    ) -> io::Result<(Projection, Vec<SourceDiagnostic>)> {
        bgp_ports::bgp::decode_ras_file_where(file, threads, self.keep())
    }

    fn parse_all(
        file: &File,
        threads: usize,
        hash: bool,
    ) -> io::Result<(SourceBatch<RasRecord>, Option<u64>)> {
        bgp_ports::bgp::decode_ras_file(file, threads, hash)
    }

    fn project(&self, all: Vec<RasRecord>) -> Projection {
        Projection::of(all, self.keep())
    }

    fn decode(snap: &[u8]) -> Result<Vec<RasRecord>, SnapshotError> {
        raslog::snapshot::decode_snapshot(snap, None)
    }

    fn encode(all: &[RasRecord], source_hash: u64) -> Vec<u8> {
        raslog::snapshot::encode_snapshot(all, source_hash)
    }

    fn kept_snapshot(&self) -> Option<KeptSnapshot<Projection>> {
        (*self == RasCodec::Fatal).then_some(KeptSnapshot {
            file: fatal_snapshot_file,
            kind: SnapshotKind::RasFatal,
            decode: |snap| raslog::snapshot::decode_fatal_snapshot(snap, None),
            encode: raslog::snapshot::encode_fatal_snapshot,
        })
    }
}

/// The job log, always loaded in full.
struct JobCodec;

impl BgpCodec for JobCodec {
    type Record = JobRecord;
    type Kept = Vec<JobRecord>;
    const KIND: SnapshotKind = SnapshotKind::Job;
    const VERSION: u32 = joblog::snapshot::FORMAT_VERSION;

    fn parse_all(
        file: &File,
        threads: usize,
        hash: bool,
    ) -> io::Result<(SourceBatch<JobRecord>, Option<u64>)> {
        bgp_ports::bgp::decode_jobs_file(file, threads, hash)
    }

    fn project(&self, all: Vec<JobRecord>) -> Vec<JobRecord> {
        all
    }

    fn decode(snap: &[u8]) -> Result<Vec<JobRecord>, SnapshotError> {
        joblog::snapshot::decode_snapshot(snap, None)
    }

    fn encode(all: &[JobRecord], source_hash: u64) -> Vec<u8> {
        joblog::snapshot::encode_snapshot(all, source_hash)
    }
}

/// The shared BG/P load skeleton. The source is opened once and only ever
/// streamed. Without a snapshot directory it parses projected. With one,
/// the kept snapshot (if the load has one) and then the full snapshot are
/// checked against the source, which is hashed at most once; a full hit is
/// projected. A miss parses the source in full, hashing the same windows,
/// and writes the full snapshot, stamped with the hash of the bytes parsed,
/// then projects. After a full hit or a parse the kept snapshot is written
/// too.
fn load_bgp<C: BgpCodec>(
    path: &Path,
    opts: &LoadOptions,
    codec: &C,
) -> Result<(C::Kept, Vec<SourceDiagnostic>, SnapshotStatus), LoadError> {
    let threads = opts.effective_threads();
    let file = File::open(path).map_err(|e| cannot_read(path, e))?;
    // The content hash exists only to validate and stamp the snapshot, so
    // an uncached load never pays for it.
    let Some(dir) = opts.snapshot_dir.as_deref() else {
        let (kept, diagnostics) = codec
            .parse(&file, threads)
            .map_err(|e| cannot_read(path, e))?;
        return Ok((kept, diagnostics, SnapshotStatus::Disabled));
    };
    let mut source = Source {
        file,
        threads,
        hash: None,
    };
    let kept_snapshot = codec.kept_snapshot().map(|k| ((k.file)(dir, path), k));
    if let Some((kept_path, k)) = &kept_snapshot {
        if let Ok((kept, _)) = source.check(kept_path, k.kind, C::VERSION, k.decode) {
            return Ok((kept, Vec::new(), SnapshotStatus::Loaded));
        }
    }
    let snap_path = snapshot_file(dir, path);
    let (kept, diagnostics, hash, mut status) =
        match source.check(&snap_path, C::KIND, C::VERSION, C::decode) {
            Ok((all, hash)) => (codec.project(all), Vec::new(), hash, SnapshotStatus::Loaded),
            Err(stale_reason) => {
                parse_and_snapshot(path, &source, codec, &snap_path, stale_reason)?
            }
        };
    if let Some((kept_path, k)) = kept_snapshot {
        if let Err(e) = write_snapshot(&kept_path, &(k.encode)(&kept, hash)) {
            if !matches!(status, SnapshotStatus::WriteFailed { .. }) {
                status = SnapshotStatus::WriteFailed {
                    reason: e.to_string(),
                };
            }
        }
    }
    Ok((kept, diagnostics, status))
}

/// The miss path of [`load_bgp`]: parse the source in full, hashing the
/// same windows in the same pass, and write the full snapshot at
/// `snap_path`, stamped with the hash of the very bytes parsed — returned
/// with what the load keeps. `stale_reason` says why an existing snapshot
/// was unusable.
fn parse_and_snapshot<C: BgpCodec>(
    path: &Path,
    source: &Source,
    codec: &C,
    snap_path: &Path,
    stale_reason: Option<String>,
) -> Result<(C::Kept, Vec<SourceDiagnostic>, u64, SnapshotStatus), LoadError> {
    let (batch, hash) =
        C::parse_all(&source.file, source.threads, true).map_err(|e| cannot_read(path, e))?;
    // `parse_all` returns a hash whenever it is asked for one.
    let hash = hash.unwrap_or_default();
    let status = match (
        write_snapshot(snap_path, &C::encode(&batch.records, hash)),
        stale_reason,
    ) {
        (Ok(()), None) => SnapshotStatus::Written,
        (Ok(()), Some(reason)) => SnapshotStatus::Rewritten { reason },
        (Err(e), _) => SnapshotStatus::WriteFailed {
            reason: e.to_string(),
        },
    };
    let kept = codec.project(batch.records);
    Ok((kept, batch.diagnostics, hash, status))
}

/// The source log of a cached load, open for hashing and, on a miss,
/// parsing. The snapshot checks stream its content hash from the file
/// ([`content_hash_file`]) at most once per load; a miss hashes again in
/// its parse pass, so the stamp is of the very bytes parsed.
struct Source {
    file: File,
    threads: usize,
    /// The content hash, once computed, or why it could not be.
    hash: Option<Result<u64, String>>,
}

impl Source {
    /// Validate the snapshot at `snap_path` against the source, returning
    /// what `decode` makes of its body and the source hash it matched.
    /// `Err(None)` means there is no snapshot file; `Err(Some(reason))`
    /// that it is unusable, including when the source cannot be hashed.
    ///
    /// The checks keep one fixed order — header (magic, kind, length),
    /// format version, source hash, body — whichever thread finishes first:
    /// the body decodes on this thread while the hash streams on others, and
    /// a hash mismatch outranks any body error. A hash already computed is
    /// compared before the body decodes.
    #[expect(
        clippy::disallowed_methods,
        reason = "overlaps the source hash with the snapshot decode; the checks keep one fixed order"
    )]
    fn check<T>(
        &mut self,
        snap_path: &Path,
        kind: SnapshotKind,
        version: u32,
        decode: fn(&[u8]) -> Result<T, SnapshotError>,
    ) -> Result<(T, u64), Option<String>> {
        let snap = MappedFile::open(snap_path).map_err(|_| None)?;
        let snap = snap.bytes();
        let reject = |e: SnapshotError| Some(e.to_string());
        let header = SnapshotHeader::parse(snap, kind).map_err(reject)?;
        header.validate(version, None).map_err(reject)?;
        let (hash, body) = match self.hash.clone() {
            Some(hash) => (hash, None),
            None => {
                let (hash, body) = std::thread::scope(|scope| {
                    let hasher = scope.spawn(|| content_hash_file(&self.file, self.threads));
                    let body = decode(snap);
                    match hasher.join() {
                        Ok(hash) => (hash, body),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                });
                let hash = hash.map_err(|e| format!("cannot hash the source: {e}"));
                self.hash = Some(hash.clone());
                (hash, Some(body))
            }
        };
        let hash = hash.map_err(Some)?;
        header.validate(version, Some(hash)).map_err(reject)?;
        let body = body.unwrap_or_else(|| decode(snap)).map_err(reject)?;
        Ok((body, hash))
    }
}

/// Write `bytes` as the snapshot at `target`, creating its directory.
fn write_snapshot(target: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = target.parent() {
        fs::create_dir_all(dir)?;
    }
    replace_file(target, bytes)
}

/// Replace `target` with `bytes` atomically: write a uniquely named temp
/// file in the same directory, then `rename` it over the target. Readers —
/// including live mappings of the old file — see the old snapshot or the
/// new one, never a torn one. A failed write removes the temp file.
fn replace_file(target: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = target
        .file_name()
        .map_or_else(|| "snapshot".into(), |n| n.to_string_lossy());
    let tmp = target.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, target));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Load a RAS log in full as [`LoadOptions::format`] says.
///
/// The BG/P path keeps the parallel parse and the snapshot cache it always
/// had (now reached through the `bgp-ports` adapter — same records, same
/// diagnostics, same bytes on disk). The other formats decode without a
/// cache; their snapshot status is always [`SnapshotStatus::Disabled`].
pub fn load_ras(path: &Path, opts: &LoadOptions) -> Result<LoadedRas, LoadError> {
    load_ras_as(path, opts, RasCodec::All)
}

/// [`load_ras`], keeping in [`LoadedRas::log`] what `codec` keeps; the log
/// still reports the whole input's span, and [`LoadedRas::parsed`] counts
/// every record. The BG/P adapter projects as it parses; the others decode
/// in full, then filter.
fn load_ras_as(path: &Path, opts: &LoadOptions, codec: RasCodec) -> Result<LoadedRas, LoadError> {
    let (kept, parse_errors, snapshot) = if opts.format == LogFormat::Bgp {
        load_bgp(path, opts, &codec)?
    } else {
        let resolved = bgp_ports::resolve_input(opts.format, path);
        let data = read_file(&resolved.ras)?;
        let batch = bgp_ports::decode_ras(opts.format, data.bytes(), opts.effective_threads())
            .map_err(|e| LoadError {
                path: resolved.ras.clone(),
                message: format!("cassette: {e}"),
            })?;
        let mut parse_errors = resolved.notes;
        parse_errors.extend(batch.diagnostics);
        let kept = codec.project(batch.records);
        (kept, parse_errors, SnapshotStatus::Disabled)
    };
    Ok(LoadedRas {
        parsed: kept.parsed(),
        log: kept.into_log(),
        parse_errors,
        snapshot,
    })
}

/// Load a job log (parallel parse + optional snapshot cache).
///
/// Only `bgq` changes the accounting schema (see the module docs); every
/// other format reads BG/P pipes here.
pub fn load_jobs(path: &Path, opts: &LoadOptions) -> Result<LoadedJobs, LoadError> {
    if opts.format == LogFormat::Bgq {
        let resolved = bgp_ports::resolve_input(LogFormat::Bgq, path);
        let jobs_path = resolved.jobs.as_deref().unwrap_or(path);
        let data = read_file(jobs_path)?;
        let batch = bgp_ports::bgq::decode_jobs(data.bytes());
        return Ok(LoadedJobs {
            log: JobLog::from_jobs(batch.records),
            parse_errors: batch.diagnostics,
            snapshot: SnapshotStatus::Disabled,
        });
    }
    let (jobs, parse_errors, snapshot) = load_bgp(path, opts, &JobCodec)?;
    Ok(LoadedJobs {
        log: JobLog::from_jobs(jobs),
        parse_errors,
        snapshot,
    })
}

/// The co-analysis load: both logs, concurrently on two scoped threads —
/// co-analysis always needs both, and neither depends on the other.
///
/// The job log loads in full. The RAS log keeps only its FATAL records,
/// the stage graph's whole input ([`crate::Event::from_fatal_records`]),
/// while [`RasLog::time_span`] still reports the whole log's span (the
/// burst window reads it) and [`LoadedRas::parsed`] counts every record.
/// Every line is still parsed, so the diagnostics are exactly
/// [`load_ras`]'s, and so is the co-analysis report; only the non-FATAL
/// records are never built.
///
/// With a snapshot directory, the RAS side looks up the FATAL snapshot
/// ([`fatal_snapshot_file`]) first: a hit validates and decodes only the
/// stored projection, beside the streamed source hash. Otherwise it falls
/// back to the full snapshot it shares with [`load_ras`] (a hit is
/// projected) and then to a full parse that writes the full snapshot, with
/// exactly [`load_ras`]'s [`SnapshotStatus`]; either way it then writes the
/// FATAL snapshot (a failed write reports [`SnapshotStatus::WriteFailed`]).
#[expect(
    clippy::disallowed_methods,
    reason = "loads the two independent logs side by side and joins both"
)]
pub fn load_pair(
    ras_path: &Path,
    jobs_path: &Path,
    opts: &LoadOptions,
) -> Result<(LoadedRas, LoadedJobs), LoadError> {
    std::thread::scope(|scope| {
        let ras = scope.spawn(|| load_ras_as(ras_path, opts, RasCodec::Fatal));
        let jobs = scope.spawn(|| load_jobs(jobs_path, opts));
        let ras = match ras.join() {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        let jobs = match jobs.join() {
            Ok(j) => j,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        Ok((ras?, jobs?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_ports::cassette::{Recorder, StreamKind};

    fn ras_record() -> raslog::RasRecord {
        raslog::RasRecord::new(
            1,
            bgp_model::Timestamp::from_unix(1_236_000_000),
            "R00-M0".parse().unwrap(),
            raslog::Catalog::standard()
                .lookup("_bgp_err_kernel_panic")
                .unwrap(),
        )
    }

    fn write_fixture(dir: &Path) -> (PathBuf, PathBuf) {
        let ras_path = dir.join("ras.log");
        fs::write(
            &ras_path,
            format!("{}\ngarbage\n", raslog::format_record(&ras_record())),
        )
        .unwrap();
        let job = joblog::JobRecord {
            job_id: 1,
            exec: joblog::ExecId(1),
            user: joblog::UserId(1),
            project: joblog::ProjectId(1),
            queue_time: bgp_model::Timestamp::from_unix(100),
            start_time: bgp_model::Timestamp::from_unix(200),
            end_time: bgp_model::Timestamp::from_unix(300),
            partition: "R00-M0".parse().unwrap(),
            exit: joblog::ExitStatus::Completed,
        };
        let jobs_path = dir.join("jobs.log");
        fs::write(&jobs_path, format!("{}\n", joblog::format_record(&job))).unwrap();
        (ras_path, jobs_path)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coanalysis-load-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn pair_load_without_snapshots() {
        let dir = tmpdir("plain");
        let (ras_path, jobs_path) = write_fixture(&dir);
        let (ras, jobs) = load_pair(&ras_path, &jobs_path, &LoadOptions::default()).unwrap();
        assert_eq!(ras.log.len(), 1);
        assert_eq!(ras.parse_errors.len(), 1);
        assert_eq!(ras.parse_errors[0].line, 2);
        assert_eq!(ras.snapshot, SnapshotStatus::Disabled);
        assert_eq!(jobs.log.len(), 1);
        assert!(jobs.parse_errors.is_empty());
        let missing = dir.join("nope.log");
        assert!(load_ras(&missing, &LoadOptions::default()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_write_load_invalidate_cycle() {
        let dir = tmpdir("snap");
        let (ras_path, jobs_path) = write_fixture(&dir);
        let opts = LoadOptions {
            threads: 2,
            snapshot_dir: Some(dir.join("snaps")),
            ..LoadOptions::default()
        };
        // First load parses and writes.
        let first = load_ras(&ras_path, &opts).unwrap();
        assert_eq!(first.snapshot, SnapshotStatus::Written);
        assert!(dir.join("snaps").join("ras.log.bgpsnap").exists());
        // Second load hits the snapshot; records identical, errors elided.
        let second = load_ras(&ras_path, &opts).unwrap();
        assert_eq!(second.snapshot, SnapshotStatus::Loaded);
        assert_eq!(second.log.records(), first.log.records());
        assert!(second.parse_errors.is_empty());
        // Appending to the source invalidates by hash → re-parse + rewrite.
        let mut text = fs::read_to_string(&ras_path).unwrap();
        let dup = text.lines().next().unwrap().to_owned();
        text.push_str(&dup);
        text.push('\n');
        fs::write(&ras_path, &text).unwrap();
        let third = load_ras(&ras_path, &opts).unwrap();
        assert!(
            matches!(&third.snapshot, SnapshotStatus::Rewritten { reason } if reason.contains("hash")),
            "got {:?}",
            third.snapshot
        );
        assert_eq!(third.log.len(), 2);
        // And the rewritten snapshot is immediately valid again.
        let fourth = load_ras(&ras_path, &opts).unwrap();
        assert_eq!(fourth.snapshot, SnapshotStatus::Loaded);
        // Corrupting the snapshot file also falls back to re-parse.
        let snap = dir.join("snaps").join("jobs.log.bgpsnap");
        let j1 = load_jobs(&jobs_path, &opts).unwrap();
        assert_eq!(j1.snapshot, SnapshotStatus::Written);
        fs::write(&snap, b"BGPSNAP\0 garbage").unwrap();
        let j2 = load_jobs(&jobs_path, &opts).unwrap();
        assert!(matches!(j2.snapshot, SnapshotStatus::Rewritten { .. }));
        assert_eq!(j2.log.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    fn patched(good: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
        let mut bytes = good.to_vec();
        bytes[at..at + with.len()].copy_from_slice(with);
        bytes
    }

    const STALE: [u8; 8] = 0x0123_4567_89ab_cdef_u64.to_le_bytes();
    const STALE_REASON: &str =
        "source hash 0x0123456789abcdef does not match current source 0xc1d5317a068c12ec";

    /// Every way a snapshot can be unusable, with the exact reason the
    /// reload reports. The checks run in a fixed order — header (magic,
    /// kind, length), version, source hash, body — so a snapshot that is
    /// both stale and truncated reports the hash, not the truncation.
    #[test]
    fn snapshot_rejection_reasons_are_pinned() {
        for threads in [1, 0] {
            let dir = tmpdir(&format!("reasons-{threads}"));
            let (ras_path, jobs_path) = write_fixture(&dir);
            let opts = LoadOptions {
                threads,
                snapshot_dir: Some(dir.join("snaps")),
                ..LoadOptions::default()
            };
            let fresh = load_ras(&ras_path, &opts).unwrap();
            assert_eq!(fresh.snapshot, SnapshotStatus::Written);
            load_jobs(&jobs_path, &opts).unwrap();
            let snap = dir.join("snaps").join("ras.log.bgpsnap");
            let good = fs::read(&snap).unwrap();
            let job_snap = fs::read(dir.join("snaps").join("jobs.log.bgpsnap")).unwrap();
            let stale = patched(&good, 24, &STALE);
            let cases: [(&str, Vec<u8>, &str); 9] = [
                (
                    "bad magic",
                    patched(&good, 0, b"X"),
                    "not a .bgpsnap file (bad magic)",
                ),
                (
                    "wrong kind",
                    job_snap,
                    "wrong log kind tag 2 (expected RAS)",
                ),
                (
                    "short header",
                    good[..10].to_vec(),
                    "truncated: need 32 bytes, have 10",
                ),
                (
                    "old version",
                    patched(&good, 12, &0u32.to_le_bytes()),
                    "format version 0 (this build reads 2)",
                ),
                (
                    "old hash scheme",
                    patched(&good, 12, &1u32.to_le_bytes()),
                    "format version 1 (this build reads 2)",
                ),
                ("stale hash", stale.clone(), STALE_REASON),
                (
                    "stale hash, truncated body",
                    stale[..stale.len() - 1].to_vec(),
                    STALE_REASON,
                ),
                (
                    "truncated body, good hash",
                    good[..good.len() - 1].to_vec(),
                    "truncated: need 23 bytes, have 22",
                ),
                (
                    "corrupt body",
                    patched(&good, 52, &u16::MAX.to_le_bytes()),
                    "record 0 corrupt: errcode 65535 outside catalogue",
                ),
            ];
            for (case, bytes, reason) in cases {
                fs::write(&snap, bytes).unwrap();
                let got = load_ras(&ras_path, &opts).unwrap();
                assert_eq!(
                    got.snapshot,
                    SnapshotStatus::Rewritten {
                        reason: reason.to_owned()
                    },
                    "{case} at threads {threads}"
                );
                assert_eq!(got.log.records(), fresh.log.records(), "{case}");
                assert_eq!(got.parse_errors, fresh.parse_errors, "{case}");
                assert_eq!(fs::read(&snap).unwrap(), good, "{case}: rewritten");
            }
            assert!(
                !fatal_snapshot_file(&dir.join("snaps"), &ras_path).exists(),
                "load_ras never writes the FATAL snapshot"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The same rejections of the FATAL snapshot: each reason is pinned at
    /// the decoder, and the load falls back to the (good) full snapshot —
    /// whose status wins — and rewrites the FATAL snapshot.
    #[test]
    fn fatal_snapshot_rejections_fall_back_to_the_full_snapshot() {
        for threads in [1, 0] {
            let dir = tmpdir(&format!("fatal-reasons-{threads}"));
            let (ras_path, jobs_path) = write_fixture(&dir);
            let snaps = dir.join("snaps");
            let opts = LoadOptions {
                threads,
                snapshot_dir: Some(snaps.clone()),
                ..LoadOptions::default()
            };
            let (fresh, _) = load_pair(&ras_path, &jobs_path, &opts).unwrap();
            assert_eq!(fresh.snapshot, SnapshotStatus::Written);
            let fatal = fatal_snapshot_file(&snaps, &ras_path);
            let good = fs::read(&fatal).unwrap();
            let full = fs::read(snapshot_file(&snaps, &ras_path)).unwrap();
            let (hit, _) = load_pair(&ras_path, &jobs_path, &opts).unwrap();
            assert_eq!(hit.snapshot, SnapshotStatus::Loaded);
            assert_eq!(hit.log.records(), fresh.log.records());
            let source_hash = bgp_model::bytes::content_hash_64(&fs::read(&ras_path).unwrap());
            let stale = patched(&good, 24, &STALE);
            let cases: [(&str, Vec<u8>, &str); 9] = [
                (
                    "bad magic",
                    patched(&good, 0, b"X"),
                    "not a .bgpsnap file (bad magic)",
                ),
                (
                    "wrong kind",
                    full.clone(),
                    "wrong log kind tag 1 (expected RAS FATAL)",
                ),
                (
                    "short header",
                    good[..10].to_vec(),
                    "truncated: need 32 bytes, have 10",
                ),
                (
                    "old version",
                    patched(&good, 12, &0u32.to_le_bytes()),
                    "format version 0 (this build reads 2)",
                ),
                (
                    "old hash scheme",
                    patched(&good, 12, &1u32.to_le_bytes()),
                    "format version 1 (this build reads 2)",
                ),
                ("stale hash", stale.clone(), STALE_REASON),
                (
                    "stale hash, truncated body",
                    stale[..stale.len() - 1].to_vec(),
                    STALE_REASON,
                ),
                (
                    "truncated body, good hash",
                    good[..good.len() - 1].to_vec(),
                    "truncated: need 47 bytes, have 46",
                ),
                (
                    "corrupt body",
                    patched(&good, 76, &u16::MAX.to_le_bytes()),
                    "record 0 corrupt: errcode 65535 outside catalogue",
                ),
            ];
            for (case, bytes, reason) in cases {
                assert_eq!(
                    raslog::snapshot::decode_fatal_snapshot(&bytes, Some(source_hash))
                        .unwrap_err()
                        .to_string(),
                    reason,
                    "{case}"
                );
                fs::write(&fatal, bytes).unwrap();
                let (got, _) = load_pair(&ras_path, &jobs_path, &opts).unwrap();
                assert_eq!(
                    got.snapshot,
                    SnapshotStatus::Loaded,
                    "{case} at threads {threads}"
                );
                assert_eq!(got.log.records(), fresh.log.records(), "{case}");
                assert_eq!(got.log.time_span(), fresh.log.time_span(), "{case}");
                assert_eq!(got.parsed, fresh.parsed, "{case}");
                assert_eq!(fs::read(&fatal).unwrap(), good, "{case}: rewritten");
                assert_eq!(
                    fs::read(snapshot_file(&snaps, &ras_path)).unwrap(),
                    full,
                    "{case}: full snapshot untouched"
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Every BG/P path streams the source — uncached (parse), a cache
    /// miss (parse and hash in one pass) and a hit (hash only) — and all
    /// three give the same logs; the miss stamps the snapshot with the
    /// hash of the bytes on disk.
    #[test]
    fn streamed_load_paths_agree() {
        let dir = tmpdir("streamed");
        let (ras_path, jobs_path) = write_fixture(&dir);
        for threads in [1, 3] {
            let plain = LoadOptions {
                threads,
                ..LoadOptions::default()
            };
            let cached = LoadOptions {
                snapshot_dir: Some(dir.join(format!("snaps-{threads}"))),
                ..plain.clone()
            };
            let (ras_u, jobs_u) = load_pair(&ras_path, &jobs_path, &plain).unwrap();
            let (ras_w, jobs_w) = load_pair(&ras_path, &jobs_path, &cached).unwrap();
            let (ras_l, jobs_l) = load_pair(&ras_path, &jobs_path, &cached).unwrap();
            assert_eq!(ras_w.snapshot, SnapshotStatus::Written);
            assert_eq!(jobs_w.snapshot, SnapshotStatus::Written);
            assert_eq!(ras_l.snapshot, SnapshotStatus::Loaded);
            assert_eq!(jobs_l.snapshot, SnapshotStatus::Loaded);
            assert_eq!(ras_w.parse_errors, ras_u.parse_errors);
            for ras in [&ras_w, &ras_l] {
                assert_eq!(ras.log.records(), ras_u.log.records());
                assert_eq!(ras.log.time_span(), ras_u.log.time_span());
                assert_eq!(ras.parsed, ras_u.parsed);
            }
            for jobs in [&jobs_w, &jobs_l] {
                assert_eq!(jobs.log.jobs(), jobs_u.log.jobs());
            }
            let snap = fs::read(snapshot_file(
                cached.snapshot_dir.as_deref().unwrap(),
                &ras_path,
            ))
            .unwrap();
            let stamp = bgp_model::bytes::content_hash_64(&fs::read(&ras_path).unwrap());
            assert_eq!(
                snap[24..32],
                stamp.to_le_bytes(),
                "stamped with the source hash"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A source the reader cannot read is a load error on every BG/P path,
    /// never an empty log: a directory opens but is not a file to stream.
    #[test]
    fn an_unreadable_source_is_a_load_error() {
        let dir = tmpdir("unreadable");
        let (_, jobs_path) = write_fixture(&dir);
        let not_a_file = dir.join("a-directory.log");
        fs::create_dir_all(&not_a_file).unwrap();
        let cached = LoadOptions {
            snapshot_dir: Some(dir.join("snaps")),
            ..LoadOptions::default()
        };
        for opts in [&LoadOptions::default(), &cached] {
            let err = load_ras(&not_a_file, opts).unwrap_err();
            assert!(err.message.starts_with("cannot read"), "{err}");
            assert!(load_jobs(&not_a_file, opts).is_err());
            assert!(load_pair(&not_a_file, &jobs_path, opts).is_err());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rewrite_replaces_the_file_atomically() {
        let dir = tmpdir("atomic");
        let (ras_path, _) = write_fixture(&dir);
        let snaps = dir.join("snaps");
        let opts = LoadOptions {
            snapshot_dir: Some(snaps.clone()),
            ..LoadOptions::default()
        };
        assert_eq!(
            load_ras(&ras_path, &opts).unwrap().snapshot,
            SnapshotStatus::Written
        );
        let snap = snaps.join("ras.log.bgpsnap");
        let old = fs::read(&snap).unwrap();
        let mapped = MappedFile::open(&snap).unwrap();
        // Change the source so the next load rewrites the snapshot while
        // the old one is still mapped.
        let mut text = fs::read_to_string(&ras_path).unwrap();
        text.push_str(&raslog::format_record(&ras_record()));
        text.push('\n');
        fs::write(&ras_path, text).unwrap();
        let reloaded = load_ras(&ras_path, &opts).unwrap();
        assert!(
            matches!(&reloaded.snapshot, SnapshotStatus::Rewritten { reason } if reason.contains("hash")),
            "got {:?}",
            reloaded.snapshot
        );
        assert_ne!(fs::read(&snap).unwrap(), old, "snapshot was rewritten");
        // The live mapping still reads the file it mapped, untorn.
        assert_eq!(mapped.bytes(), old.as_slice());
        drop(mapped);
        let left: Vec<String> = fs::read_dir(&snaps)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left, ["ras.log.bgpsnap"], "no temp files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_snapshot_write_reports_and_cleans_up() {
        let dir = tmpdir("writefail");
        let (ras_path, _) = write_fixture(&dir);
        let snaps = dir.join("snaps");
        // A directory squatting on the snapshot's name: the temp file writes
        // but cannot be renamed over it.
        fs::create_dir_all(snaps.join("ras.log.bgpsnap").join("occupied")).unwrap();
        let opts = LoadOptions {
            snapshot_dir: Some(snaps.clone()),
            ..LoadOptions::default()
        };
        let loaded = load_ras(&ras_path, &opts).unwrap();
        assert_eq!(loaded.log.len(), 1);
        assert!(
            matches!(loaded.snapshot, SnapshotStatus::WriteFailed { .. }),
            "got {:?}",
            loaded.snapshot
        );
        assert_eq!(
            fs::read_dir(&snaps).unwrap().count(),
            1,
            "temp file removed"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fatal_snapshot_write_reports_and_keeps_the_full_snapshot() {
        let dir = tmpdir("fatal-writefail");
        let (ras_path, jobs_path) = write_fixture(&dir);
        let snaps = dir.join("snaps");
        fs::create_dir_all(fatal_snapshot_file(&snaps, &ras_path).join("occupied")).unwrap();
        let opts = LoadOptions {
            snapshot_dir: Some(snaps.clone()),
            ..LoadOptions::default()
        };
        // A miss writes the full snapshot, then fails on the FATAL one; a
        // full-snapshot hit then fails the same way.
        for _ in 0..2 {
            let (ras, jobs) = load_pair(&ras_path, &jobs_path, &opts).unwrap();
            assert_eq!(ras.log.len(), 1);
            assert!(
                matches!(ras.snapshot, SnapshotStatus::WriteFailed { .. }),
                "got {:?}",
                ras.snapshot
            );
            assert_ne!(jobs.snapshot, SnapshotStatus::Disabled);
        }
        assert_eq!(
            load_ras(&ras_path, &opts).unwrap().snapshot,
            SnapshotStatus::Loaded
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_source_that_cannot_be_hashed_is_a_miss() {
        let dir = tmpdir("unhashable");
        let (ras_path, _) = write_fixture(&dir);
        let snaps = dir.join("snaps");
        let opts = LoadOptions {
            snapshot_dir: Some(snaps.clone()),
            ..LoadOptions::default()
        };
        load_ras(&ras_path, &opts).unwrap();
        // A directory opens but cannot be read.
        let mut source = Source {
            file: File::open(&dir).unwrap(),
            threads: 2,
            hash: None,
        };
        let snap = snapshot_file(&snaps, &ras_path);
        let got = source.check(
            &snap,
            SnapshotKind::Ras,
            RasCodec::VERSION,
            RasCodec::decode,
        );
        assert!(
            matches!(&got, Err(Some(reason)) if reason.starts_with("cannot hash the source")),
            "got {got:?}"
        );
        // The failure is remembered: the source is hashed at most once.
        assert!(matches!(source.hash, Some(Err(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn syslog_format_loads_without_snapshot_cache() {
        let dir = tmpdir("syslog");
        let path = dir.join("messages");
        fs::write(
            &path,
            b"<13>Mar  1 12:30:00 host a\nbroken\n<2>Mar  1 12:30:05 host b\n",
        )
        .unwrap();
        let opts = LoadOptions {
            format: LogFormat::Syslog,
            snapshot_dir: Some(dir.join("snaps")), // must be ignored
            ..LoadOptions::default()
        };
        let loaded = load_ras(&path, &opts).unwrap();
        assert_eq!(loaded.log.len(), 2);
        assert_eq!(loaded.parse_errors.len(), 1);
        assert_eq!(loaded.parse_errors[0].line, 2);
        assert_eq!(loaded.snapshot, SnapshotStatus::Disabled);
        assert!(!dir.join("snaps").exists(), "no snapshot for syslog");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bgq_directory_loads_both_logs() {
        let dir = tmpdir("bgq");
        fs::write(
            dir.join("ras.bgq"),
            b"7,1236000000,FATAL,_bgp_err_kernel_panic,R00-M0\n",
        )
        .unwrap();
        fs::write(dir.join("jobs.bgq"), b"1,1,1,1,100,200,300,R00-M0,0\n").unwrap();
        fs::write(dir.join("env.bgq"), b"whatever\n").unwrap();
        let opts = LoadOptions {
            format: LogFormat::Bgq,
            ..LoadOptions::default()
        };
        let (ras, jobs) = load_pair(&dir, &dir, &opts).unwrap();
        assert_eq!(ras.log.len(), 1);
        assert_eq!(jobs.log.len(), 1);
        // The unmapped env log is acknowledged, not silently ignored.
        assert!(ras
            .parse_errors
            .iter()
            .any(|d| d.message.contains("env.bgq")));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `load_pair` through `opts` keeps exactly the FATAL records of
    /// `load_ras`, and everything else it reports is the full load's.
    fn assert_projects(ras_path: &Path, jobs_path: &Path, opts: &LoadOptions) {
        let full = load_ras(ras_path, opts).unwrap();
        let (projected, _) = load_pair(ras_path, jobs_path, opts).unwrap();
        let fatal: Vec<RasRecord> = full.log.fatal().copied().collect();
        assert!(!fatal.is_empty() && fatal.len() < full.log.len());
        assert_eq!(projected.log.records(), fatal.as_slice());
        assert_eq!(projected.log.time_span(), full.log.time_span());
        assert_eq!(projected.parsed, full.log.len());
        assert_eq!(projected.parse_errors, full.parse_errors);
        assert_eq!(projected.snapshot, full.snapshot);
    }

    /// The projection contract is the same for every format: the non-BG/P
    /// adapters decode in full, then filter. Each log here ends on a
    /// non-FATAL record, so a span taken from the kept records would show.
    #[test]
    fn every_format_projects_to_the_fatal_records() {
        let dir = tmpdir("project-formats");
        let (_, jobs_path) = write_fixture(&dir);
        let mut info = ras_record();
        info.recid = 2;
        info.severity = raslog::Severity::Info;
        info.event_time = bgp_model::Timestamp::from_unix(1_236_000_900);
        let text = format!(
            "{}\ngarbage\n{}\n",
            raslog::format_record(&ras_record()),
            raslog::format_record(&info)
        );
        let ras_path = dir.join("ras.log");
        fs::write(&ras_path, &text).unwrap();
        assert_projects(&ras_path, &jobs_path, &LoadOptions::default());

        let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).unwrap();
        rec.push(1000, text.as_bytes());
        let cas_path = dir.join("ras.bgpcas");
        fs::write(&cas_path, rec.finish().encode()).unwrap();
        let cassette = LoadOptions {
            format: LogFormat::Cassette,
            ..LoadOptions::default()
        };
        assert_projects(&cas_path, &jobs_path, &cassette);

        let messages = dir.join("messages");
        fs::write(
            &messages,
            b"<2>Mar  1 12:30:00 host a\nbroken\n<13>Mar  1 12:30:05 host b\n",
        )
        .unwrap();
        let syslog = LoadOptions {
            format: LogFormat::Syslog,
            ..LoadOptions::default()
        };
        assert_projects(&messages, &jobs_path, &syslog);

        let bgq = tmpdir("project-bgq");
        fs::write(
            bgq.join("ras.bgq"),
            b"7,1236000000,FATAL,_bgp_err_kernel_panic,R00-M0\n\
              8,1236000500,INFO,_bgp_err_kernel_panic,R00-M1\n",
        )
        .unwrap();
        fs::write(bgq.join("jobs.bgq"), b"1,1,1,1,100,200,300,R00-M0,0\n").unwrap();
        let bgq_opts = LoadOptions {
            format: LogFormat::Bgq,
            ..LoadOptions::default()
        };
        assert_projects(&bgq, &bgq, &bgq_opts);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&bgq);
    }

    #[test]
    fn cassette_format_replays_identically_to_direct_parse() {
        let dir = tmpdir("cassette");
        let (ras_path, _) = write_fixture(&dir);
        let text = fs::read(&ras_path).unwrap();
        let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).unwrap();
        // Awkward chunking on purpose: boundaries must not matter for batch.
        for chunk in text.chunks(7) {
            rec.push(1000, chunk);
        }
        let cas_path = dir.join("ras.bgpcas");
        fs::write(&cas_path, rec.finish().encode()).unwrap();
        let direct = load_ras(&ras_path, &LoadOptions::default()).unwrap();
        let opts = LoadOptions {
            format: LogFormat::Cassette,
            ..LoadOptions::default()
        };
        let replayed = load_ras(&cas_path, &opts).unwrap();
        assert_eq!(replayed.log.records(), direct.log.records());
        assert_eq!(replayed.parse_errors, direct.parse_errors);
        // A corrupt cassette is a load error, not an empty log.
        fs::write(&cas_path, b"BGPCAS\0\0garbage").unwrap();
        let err = load_ras(&cas_path, &opts).unwrap_err();
        assert!(err.message.contains("cassette"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
