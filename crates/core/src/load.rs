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
//!    decodes — then the section of the body the load keeps. There is one
//!    snapshot file per source ([`snapshot_file`]). A hit skips parsing
//!    and writes nothing; the source is read once, to hash it. [`load_pair`]
//!    reads only the RAS snapshot's front — its FATAL count first, then the
//!    header, tally and FATAL section, about 1 MB of a 237-day site's
//!    12.8 MB — and checks the file's length against it, so a truncation
//!    in the section it skips still fails; [`load_ras`] maps the whole
//!    file. Without a snapshot directory nothing is hashed. A source that
//!    is not a regular file (a pipe) is never hashed on its own, which
//!    would consume it: its snapshots count as unusable, and it is hashed
//!    as it is parsed;
//! 3. otherwise decode the source as its [`LogFormat`] says. A BG/P source
//!    is **streamed, never held whole**: each worker reads its share of the
//!    file through one fixed window with positioned reads and parses the
//!    whole lines in it ([`bgp_model::bytes::stream_lines`]), so a load that
//!    keeps 2 % of the records does not hold 100 % of the bytes. On a cache
//!    miss the reader hashes the same windows in the same pass, and each RAS
//!    worker appends the snapshot columns of every record it parses beside
//!    the records the load keeps, so a [`load_pair`] miss builds no vector
//!    of every record. The file is written from the workers' columns, in
//!    worker order, stamped with the content hash of the very bytes parsed
//!    (to a temp file renamed over the old one, so concurrent readers and
//!    live mappings never see a torn snapshot). At perfbench's paper scale
//!    (288 MB of RAS text, 2 vCPUs) a `coctl analyze --snapshot` miss takes
//!    ~0.31 s and peaks at ~62 MB, against ~0.51 s and ~122 MB when the
//!    miss parsed every record into a vector and then encoded it; an
//!    uncached run takes ~0.24 s and ~21 MB. The job log, 5 MB, is
//!    parsed in full and encoded. The source's length is taken once, at
//!    the start:
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
//! happened in [`SnapshotStatus`].
//!
//! **What a load keeps.** The entry point decides, with no option to set:
//! [`load_ras`] and [`load_jobs`] keep every record, and [`load_pair`], the
//! co-analysis load, keeps only the RAS log's FATAL records — the stage
//! graph reads nothing else — plus the whole log's span and parsed count.
//! For BG/P the projection happens inside the chunk parser, which still
//! parses and validates every line, so the other ~98 % of records are never
//! built; the other adapters decode in full, then filter. Diagnostics and
//! the snapshot file are the same whichever entry point loads: a cache miss
//! writes the snapshot of every record parsed, whatever the load keeps, so
//! `coctl summary` and `coctl analyze` share one cache file. Its front
//! holds the FATAL records and the whole log's tally (`raslog::snapshot`):
//! a [`load_pair`] hit reads only that, a [`load_ras`] hit skips it. Each checks the header, the tally, the file's length and
//! every record of the section it reads, so a corrupt record in the other
//! section is not its miss. `.bgpsnap.fatal` files that older builds wrote
//! beside the snapshot are never read, and may be deleted.

use bgp_model::bytes::content_hash_file;
use bgp_model::mmap::MappedFile;
use bgp_model::snapshot::{SnapshotError, SnapshotHeader, SnapshotKind};
pub use bgp_ports::{LogFormat, SourceDiagnostic};
use joblog::{JobLog, JobRecord};
use raslog::{Projection, RasLog, RasRecord};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
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

/// The record-type specifics of one BG/P log: its snapshot codec, how its
/// text parses, and what a load keeps of its records.
trait BgpCodec {
    /// What a load hands back: the kept records, plus any tally of the rest.
    type Kept;
    /// A snapshot of every record parsed, ready to be written.
    type Snapshot;
    /// The snapshot kind tag.
    const KIND: SnapshotKind;
    /// The snapshot format version this build reads and writes.
    const VERSION: u32;
    /// Parse the source file, keeping what the load keeps.
    fn parse(&self, file: &File, threads: usize)
        -> io::Result<(Self::Kept, Vec<SourceDiagnostic>)>;
    /// Parse the source file on a cache miss: what the load keeps, the
    /// diagnostics, and the snapshot of every record parsed, stamped with
    /// the content hash of the bytes parsed, hashed in the same pass.
    fn parse_missed(
        &self,
        file: &File,
        threads: usize,
    ) -> io::Result<(Self::Kept, Vec<SourceDiagnostic>, Self::Snapshot)>;
    /// Write a snapshot out.
    fn write(snapshot: &Self::Snapshot, out: &mut impl Write) -> io::Result<()>;
    /// Read what [`BgpCodec::decode`] reads of the snapshot file at
    /// `path`: by default all of it, mapped.
    fn read(&self, path: &Path) -> io::Result<SnapshotBytes> {
        MappedFile::open(path).map(SnapshotBytes::Whole)
    }
    /// Decode and validate what the load keeps of a snapshot (its source
    /// hash is checked separately).
    fn decode(&self, snap: &SnapshotBytes) -> Result<Self::Kept, SnapshotError>;
}

/// What a load reads of a snapshot file: all of it, or the first bytes of
/// it with the file's length.
#[derive(Debug)]
enum SnapshotBytes {
    Whole(MappedFile),
    Front { bytes: Vec<u8>, file_len: u64 },
}

impl SnapshotBytes {
    /// The bytes read.
    fn bytes(&self) -> &[u8] {
        match self {
            SnapshotBytes::Whole(file) => file.bytes(),
            SnapshotBytes::Front { bytes, .. } => bytes,
        }
    }

    /// The length of the whole file.
    fn file_len(&self) -> u64 {
        match self {
            SnapshotBytes::Whole(file) => file.bytes().len() as u64,
            SnapshotBytes::Front { file_len, .. } => *file_len,
        }
    }
}

/// The RAS log: every record ([`load_ras`]), or only the FATAL ones plus
/// the whole log's tally ([`load_pair`]), which the snapshot's front holds.
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
    type Kept = Projection;
    type Snapshot = raslog::snapshot::Snapshot;
    const KIND: SnapshotKind = SnapshotKind::Ras;
    const VERSION: u32 = raslog::snapshot::FORMAT_VERSION;

    fn parse(
        &self,
        file: &File,
        threads: usize,
    ) -> io::Result<(Projection, Vec<SourceDiagnostic>)> {
        let (kept, diagnostics, _) =
            bgp_ports::bgp::decode_ras_file_where(file, threads, false, self.keep())?;
        Ok((kept, diagnostics))
    }

    fn parse_missed(
        &self,
        file: &File,
        threads: usize,
    ) -> io::Result<(Projection, Vec<SourceDiagnostic>, Self::Snapshot)> {
        let (kept, diagnostics, snapshot) =
            bgp_ports::bgp::decode_ras_file_where(file, threads, true, self.keep())?;
        // The parser builds a snapshot whenever it is asked for one.
        let snapshot = snapshot.ok_or_else(|| io::Error::other("the parse built no snapshot"))?;
        Ok((kept, diagnostics, snapshot))
    }

    fn write(snapshot: &Self::Snapshot, out: &mut impl Write) -> io::Result<()> {
        snapshot.write_to(out)
    }

    /// [`load_pair`] reads only the front — the header, the tally and the
    /// FATAL section — and the file's length; [`load_ras`] maps it all.
    fn read(&self, path: &Path) -> io::Result<SnapshotBytes> {
        if *self == RasCodec::All {
            return MappedFile::open(path).map(SnapshotBytes::Whole);
        }
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut bytes = vec![0; raslog::snapshot::FRONT_HEAD_LEN.min(file_len as usize)];
        file.read_exact(&mut bytes)?;
        let front = raslog::snapshot::front_len(&bytes).min(file_len) as usize;
        let head = bytes.len();
        bytes.resize(front, 0);
        file.read_exact(&mut bytes[head..])?;
        Ok(SnapshotBytes::Front { bytes, file_len })
    }

    fn decode(&self, snap: &SnapshotBytes) -> Result<Projection, SnapshotError> {
        match self {
            RasCodec::All => raslog::snapshot::decode_snapshot(snap.bytes(), None)
                .map(|r| Projection::of(r, self.keep())),
            RasCodec::Fatal => raslog::snapshot::decode_front(snap.bytes(), snap.file_len(), None),
        }
    }
}

/// The job log, always loaded in full.
struct JobCodec;

impl BgpCodec for JobCodec {
    type Kept = Vec<JobRecord>;
    type Snapshot = Vec<u8>;
    const KIND: SnapshotKind = SnapshotKind::Job;
    const VERSION: u32 = joblog::snapshot::FORMAT_VERSION;

    fn parse(
        &self,
        file: &File,
        threads: usize,
    ) -> io::Result<(Vec<JobRecord>, Vec<SourceDiagnostic>)> {
        let (batch, _) = bgp_ports::bgp::decode_jobs_file(file, threads, false)?;
        Ok((batch.records, batch.diagnostics))
    }

    fn parse_missed(
        &self,
        file: &File,
        threads: usize,
    ) -> io::Result<(Vec<JobRecord>, Vec<SourceDiagnostic>, Vec<u8>)> {
        let (batch, hash) = bgp_ports::bgp::decode_jobs_file(file, threads, true)?;
        // The reader returns a hash whenever it is asked for one.
        let snapshot = joblog::snapshot::encode_snapshot(&batch.records, hash.unwrap_or_default());
        Ok((batch.records, batch.diagnostics, snapshot))
    }

    fn write(snapshot: &Vec<u8>, out: &mut impl Write) -> io::Result<()> {
        out.write_all(snapshot)
    }

    fn decode(&self, snap: &SnapshotBytes) -> Result<Vec<JobRecord>, SnapshotError> {
        joblog::snapshot::decode_snapshot(snap.bytes(), None)
    }
}

/// The shared BG/P load skeleton. The source is opened once and only ever
/// streamed. Without a snapshot directory it parses projected. With one,
/// the snapshot is checked against the source: a hit decodes what the load
/// keeps and writes nothing. A miss parses the source once, keeping what
/// the load keeps while it builds the snapshot of every record and hashes
/// the same windows, then writes the snapshot, stamped with the hash of the
/// very bytes parsed.
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
    let snap_path = snapshot_file(dir, path);
    let stale_reason = match check_snapshot(&snap_path, &file, threads, codec) {
        Ok(kept) => return Ok((kept, Vec::new(), SnapshotStatus::Loaded)),
        Err(reason) => reason,
    };
    let (kept, diagnostics, snapshot) = codec
        .parse_missed(&file, threads)
        .map_err(|e| cannot_read(path, e))?;
    let status = match (
        write_snapshot(&snap_path, |out| C::write(&snapshot, out)),
        stale_reason,
    ) {
        (Ok(()), None) => SnapshotStatus::Written,
        (Ok(()), Some(reason)) => SnapshotStatus::Rewritten { reason },
        (Err(e), _) => SnapshotStatus::WriteFailed {
            reason: e.to_string(),
        },
    };
    Ok((kept, diagnostics, status))
}

/// Validate the snapshot at `snap_path` against the source `file`,
/// returning what `codec` keeps of it. `Err(None)` means there is no
/// snapshot file; `Err(Some(reason))` that it is unusable, including when
/// the source cannot be hashed.
///
/// The checks keep one fixed order — header (magic, kind, length), format
/// version, source hash, body — whichever thread finishes first: the body
/// decodes on this thread while the source's content hash streams from
/// the file on others ([`content_hash_file`]), and a hash mismatch
/// outranks any body error.
#[expect(
    clippy::disallowed_methods,
    reason = "overlaps the source hash with the snapshot decode; the checks keep one fixed order"
)]
fn check_snapshot<C: BgpCodec>(
    snap_path: &Path,
    file: &File,
    threads: usize,
    codec: &C,
) -> Result<C::Kept, Option<String>> {
    let snap = codec.read(snap_path).map_err(|_| None)?;
    let reject = |e: SnapshotError| Some(e.to_string());
    let header = SnapshotHeader::parse(snap.bytes(), C::KIND).map_err(reject)?;
    header.validate(C::VERSION, None).map_err(reject)?;
    let (hash, body) = std::thread::scope(|scope| {
        let hasher = scope.spawn(|| content_hash_file(file, threads));
        let body = codec.decode(&snap);
        match hasher.join() {
            Ok(hash) => (hash, body),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    });
    let hash = hash.map_err(|e| Some(format!("cannot hash the source: {e}")))?;
    header.validate(C::VERSION, Some(hash)).map_err(reject)?;
    body.map_err(reject)
}

/// Write the snapshot at `target` through `write`, creating its directory.
fn write_snapshot(
    target: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    if let Some(dir) = target.parent() {
        fs::create_dir_all(dir)?;
    }
    replace_file(target, write)
}

/// Replace `target` with what `write` writes, atomically: write a uniquely
/// named temp file in the same directory, then `rename` it over the
/// target. Readers — including live mappings of the old file — see the old
/// snapshot or the new one, never a torn one. A failed write removes the
/// temp file.
fn replace_file(
    target: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = target
        .file_name()
        .map_or_else(|| "snapshot".into(), |n| n.to_string_lossy());
    let tmp = target.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = File::create(&tmp)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            write(&mut out)?;
            out.flush()
        })
        .and_then(|()| fs::rename(&tmp, target));
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
        let kept = Projection::of(batch.records, codec.keep());
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
/// With a snapshot directory, the RAS side shares [`load_ras`]'s snapshot
/// file, but a hit reads, validates and decodes only its front — the tally
/// and the FATAL records — beside the streamed source hash. A miss writes
/// the whole snapshot, as [`load_ras`] does, from the columns its parse
/// workers build, while it keeps only the FATAL records.
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

    /// Every way a snapshot can be unusable, with the exact status each
    /// entry point reports: `None` is a hit, `Some(reason)` a rewrite. The
    /// checks run in a fixed order — header (magic, kind, length), version,
    /// source hash, then the file's length and the section the load reads —
    /// so a snapshot that is both stale and truncated reports the hash, not
    /// the truncation, and damage in the section a load skips is no miss.
    /// A hit leaves the file as it was; a rewrite restores the good bytes.
    #[test]
    fn snapshot_rejection_reasons_are_pinned() {
        for threads in [1, 0] {
            let dir = tmpdir(&format!("reasons-{threads}"));
            let (ras_path, jobs_path) = write_fixture(&dir);
            let snaps = dir.join("snaps");
            let opts = LoadOptions {
                threads,
                snapshot_dir: Some(snaps.clone()),
                ..LoadOptions::default()
            };
            let fresh = load_ras(&ras_path, &opts).unwrap();
            assert_eq!(fresh.snapshot, SnapshotStatus::Written);
            load_jobs(&jobs_path, &opts).unwrap();
            let snap = snaps.join("ras.log.bgpsnap");
            let good = fs::read(&snap).unwrap();
            // One record, FATAL: the header and tally, then the FATAL
            // section (56..79) and the section of every record (79..102).
            assert_eq!(good.len(), 102);
            let job_snap = fs::read(snaps.join("jobs.log.bgpsnap")).unwrap();
            let stale = patched(&good, 24, &STALE);
            let errcode = "record 0 corrupt: errcode 65535 outside catalogue";
            let both = |reason| (Some(reason), Some(reason));
            // The rewrite reason of `load_ras`, then of `load_pair`.
            type Reasons<'a> = (Option<&'a str>, Option<&'a str>);
            let cases: [(&str, Vec<u8>, Reasons); 11] = [
                (
                    "bad magic",
                    patched(&good, 0, b"X"),
                    both("not a .bgpsnap file (bad magic)"),
                ),
                (
                    "wrong kind",
                    job_snap,
                    both("wrong log kind tag 2 (expected RAS)"),
                ),
                (
                    "short header",
                    good[..10].to_vec(),
                    both("truncated: need 32 bytes, have 10"),
                ),
                (
                    "old hash scheme",
                    patched(&good, 12, &1u32.to_le_bytes()),
                    both("format version 1 (this build reads 3)"),
                ),
                (
                    "two-file layout",
                    patched(&good, 12, &2u32.to_le_bytes()),
                    both("format version 2 (this build reads 3)"),
                ),
                ("stale hash", stale.clone(), both(STALE_REASON)),
                (
                    "stale hash, truncated body",
                    stale[..stale.len() - 1].to_vec(),
                    both(STALE_REASON),
                ),
                (
                    "truncated body, good hash",
                    good[..good.len() - 1].to_vec(),
                    both("truncated: need 102 bytes, have 101"),
                ),
                (
                    "count too large for the file",
                    patched(&good, 16, &1000u64.to_le_bytes()),
                    both("truncated: need 23079 bytes, have 102"),
                ),
                (
                    "corrupt FATAL section",
                    patched(&good, 76, &u16::MAX.to_le_bytes()),
                    (None, Some(errcode)),
                ),
                (
                    "corrupt section of every record",
                    patched(&good, 99, &u16::MAX.to_le_bytes()),
                    (Some(errcode), None),
                ),
            ];
            for (case, bytes, (ras_reason, pair_reason)) in cases {
                let status = |reason: Option<&str>| {
                    reason.map_or(SnapshotStatus::Loaded, |r| SnapshotStatus::Rewritten {
                        reason: r.to_owned(),
                    })
                };
                let ctx = format!("{case} at threads {threads}");
                fs::write(&snap, &bytes).unwrap();
                let got = load_ras(&ras_path, &opts).unwrap();
                assert_eq!(got.snapshot, status(ras_reason), "load_ras: {ctx}");
                assert_eq!(got.log.records(), fresh.log.records(), "{ctx}");
                let left = if ras_reason.is_some() { &good } else { &bytes };
                assert_eq!(&fs::read(&snap).unwrap(), left, "load_ras: {ctx}");

                fs::write(&snap, &bytes).unwrap();
                let (got, _) = load_pair(&ras_path, &jobs_path, &opts).unwrap();
                assert_eq!(got.snapshot, status(pair_reason), "load_pair: {ctx}");
                assert_eq!(got.log.records(), fresh.log.records(), "{ctx}");
                assert_eq!(got.log.time_span(), fresh.log.time_span(), "{ctx}");
                assert_eq!(got.parsed, fresh.parsed, "{ctx}");
                let left = if pair_reason.is_some() { &good } else { &bytes };
                assert_eq!(&fs::read(&snap).unwrap(), left, "load_pair: {ctx}");
            }
            let mut files: Vec<_> = fs::read_dir(&snaps)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            files.sort();
            assert_eq!(files, ["jobs.log.bgpsnap", "ras.log.bgpsnap"]);
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
        let not_a_file = File::open(&dir).unwrap();
        let snap = snapshot_file(&snaps, &ras_path);
        let got = check_snapshot(&snap, &not_a_file, 2, &RasCodec::Fatal);
        assert!(
            matches!(&got, Err(Some(reason)) if reason.starts_with("cannot hash the source")),
            "got {got:?}"
        );
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
