//! Byte-level helpers shared by the log ingestion layer.
//!
//! Both log crates parse the same way: newline-aligned runs of whole lines
//! are parsed concurrently, one accumulator per worker, and the workers'
//! outputs fold in input order. The helpers here are the deterministic
//! substrate for that: the one rule for what a line is ([`lines`]),
//! chunking that never splits a line and a fork-join map
//! over chunks (for text already in memory), a streaming line reader that
//! feeds the same chunk parsers from a file through fixed per-worker windows
//! ([`stream_lines`]), a field splitter, and a content hash used by the
//! `.bgpsnap` snapshot cache to detect stale snapshots, with a slice hasher
//! and a streaming file hasher.

use std::fs::File;
use std::io;
use std::ops::Range;

/// All lanes of a `u64` filled with one byte.
const fn broadcast(b: u8) -> u64 {
    (b as u64) * 0x0101_0101_0101_0101
}

/// Low bit of every byte lane.
const SWAR_LO: u64 = 0x0101_0101_0101_0101;
/// High bit of every byte lane.
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Position of the first occurrence of `needle` in `hay`.
///
/// SWAR scan: the needle is broadcast into all eight lanes of a `u64`,
/// XORed against each little-endian word of the haystack, and the classic
/// zero-byte trick (`(x - 0x01…01) & !x & 0x80…80`) flags any lane that
/// went to zero — no platform intrinsics, stable Rust. A borrow can flag a
/// lane only above a true hit, so a word's lowest flag is exact. The scan
/// tests four words (32 bytes) per step with one branch, then single words,
/// and the tail shorter than a word falls back to the serial scan.
/// [`find_byte_scalar`] is the byte-at-a-time twin kept as the equivalence
/// oracle; the two must agree on every input.
pub fn find_byte(needle: u8, hay: &[u8]) -> Option<usize> {
    let spread = broadcast(needle);
    let hits = |word: &[u8]| {
        let lanes = u64::from_le_bytes(word.try_into().unwrap_or([0; 8])) ^ spread;
        lanes.wrapping_sub(SWAR_LO) & !lanes & SWAR_HI
    };
    let at = |offset: usize, hit: u64| offset + (hit.trailing_zeros() / 8) as usize;
    let mut blocks = hay.chunks_exact(32);
    let mut offset = 0usize;
    for block in &mut blocks {
        let h: [u64; 4] = std::array::from_fn(|i| hits(&block[8 * i..8 * i + 8]));
        if h[0] | h[1] | h[2] | h[3] != 0 {
            return h
                .iter()
                .zip((offset..).step_by(8))
                .find(|(&hit, _)| hit != 0)
                .map(|(&hit, word)| at(word, hit));
        }
        offset += 32;
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        let hit = hits(word);
        if hit != 0 {
            return Some(at(offset, hit));
        }
        offset += 8;
    }
    find_byte_scalar(needle, words.remainder()).map(|i| offset + i)
}

/// Serial-scalar reference for [`find_byte`]: one byte per step.
///
/// Kept (not merely for the tail) as the equivalence oracle the SWAR scan
/// is property-tested against.
pub fn find_byte_scalar(needle: u8, hay: &[u8]) -> Option<usize> {
    hay.iter().position(|&b| b == needle)
}

/// Low seven bits of every byte lane.
const SWAR_LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Split `line` into at most `N` fields at `sep`, exactly like
/// `line.splitn(N, |&b| b == sep)`: the first `N - 1` separators cut, and
/// the last field keeps the rest of the line, separators included. Returns
/// the fields (unused slots empty) and how many there are.
///
/// SWAR scan: each little-endian word is XORed with the broadcast separator,
/// and the exact zero-byte mask `!(((x & 0x7f…) + 0x7f…) | x) & 0x80…` flags
/// every lane that matched (unlike [`find_byte`]'s test, no borrow can flag
/// a lane falsely), so one word yields all of its separators, popped lowest
/// first. The tail shorter than a word is scanned byte by byte.
pub fn splitn_byte<'a, const N: usize>(sep: u8, line: &'a [u8]) -> ([&'a [u8]; N], usize) {
    let mut fields: [&'a [u8]; N] = [&[]; N];
    let mut count = 0usize;
    let mut start = 0usize;
    let mut cut = |at: usize, fields: &mut [&'a [u8]; N]| {
        fields[count] = &line[start..at];
        count += 1;
        start = at + 1;
        count + 1 == N
    };
    let spread = broadcast(sep);
    let mut words = line.chunks_exact(8);
    let mut base = 0usize;
    let mut full = N <= 1;
    'words: for word in &mut words {
        let x = le_word(word) ^ spread;
        let mut hits = !(((x & SWAR_LOW7) + SWAR_LOW7) | x) & SWAR_HI;
        while hits != 0 && !full {
            full = cut(base + (hits.trailing_zeros() / 8) as usize, &mut fields);
            hits &= hits - 1;
        }
        if full {
            break 'words;
        }
        base += 8;
    }
    if !full {
        for (i, &b) in words.remainder().iter().enumerate() {
            if b == sep && cut(base + i, &mut fields) {
                break;
            }
        }
    }
    if let Some(last) = fields.get_mut(count) {
        *last = &line[start..];
        count += 1;
    }
    (fields, count)
}

/// Split `data` into at most `chunks` pieces whose boundaries fall just
/// *after* a `\n`, so no line ever spans two chunks.
///
/// The concatenation of the returned slices is exactly `data`; empty pieces
/// are omitted (so fewer than `chunks` slices may come back, and an empty
/// input yields none at all). `chunks == 0` is treated as 1.
pub fn line_chunks(data: &[u8], chunks: usize) -> Vec<&[u8]> {
    let n = chunks.max(1);
    let mut out = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 1..=n {
        if start >= data.len() {
            break;
        }
        // Ideal boundary for the i-th piece, then advance past the next '\n'.
        let mut end = if i == n {
            data.len()
        } else {
            data.len() * i / n
        };
        if end <= start {
            continue;
        }
        if end < data.len() {
            end = match find_byte(b'\n', &data[end..]) {
                Some(off) => end + off + 1,
                None => data.len(),
            };
        }
        out.push(&data[start..end]);
        start = end;
    }
    out
}

/// What is left of one line (without its `\n`) once its trailing run of
/// `\r` is trimmed, or `None` if nothing is: a blank line. This is the
/// line rule of every ingest path, the batch parsers ([`lines`]) and the
/// daemon's line decoders alike: a blank line is counted but skipped.
pub fn line_content(line: &[u8]) -> Option<&[u8]> {
    let mut line = line;
    while let [head @ .., b'\r'] = line {
        line = head;
    }
    (!line.is_empty()).then_some(line)
}

/// Walk the lines of `text`: split on `\n`, numbered from 1 (text after the
/// last `\n` is a final line), each trimmed by [`line_content`], blank ones
/// skipped. The walk yields `(number, content)`; [`Lines::number`] then
/// tells how many lines it walked, blank ones included, so a parser fed
/// several runs of one text can number on across them.
pub fn lines(text: &[u8]) -> Lines<'_> {
    Lines {
        rest: text,
        number: 0,
    }
}

/// The walk [`lines`] returns.
#[derive(Debug, Clone)]
pub struct Lines<'a> {
    rest: &'a [u8],
    number: u64,
}

impl Lines<'_> {
    /// The number of the last line walked (0 before the first): once the
    /// walk is over, how many lines the text holds.
    pub fn number(&self) -> u64 {
        self.number
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        while !self.rest.is_empty() {
            let (line, rest) = match find_byte(b'\n', self.rest) {
                Some(i) => (&self.rest[..i], &self.rest[i + 1..]),
                None => (self.rest, &self.rest[self.rest.len()..]),
            };
            self.rest = rest;
            self.number += 1;
            if let Some(line) = line_content(line) {
                return Some((self.number, line));
            }
        }
        None
    }
}

/// Apply `f` to every chunk on its own scoped thread and collect the results
/// in input order: the workspace's one fork-join helper, used by the
/// parsers, the streaming line reader and the stage executor.
///
/// Single-chunk inputs run inline on the caller's thread. A panicking worker
/// is re-raised on the caller with its original payload.
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's fork-join helper: one thread per chunk, results in input order"
)]
pub fn map_chunks_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let f = &f;
    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash of `data`, byte at a time.
///
/// Deterministic across platforms and runs (unlike `std`'s keyed hasher);
/// used where a stable fingerprint of a short byte string is needed.
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The serial word-FNV checksum: FNV-1a-style mixing over little-endian
/// 8-byte words (the tail zero-padded into a last word), one chain, with the
/// length folded into the initial state.
///
/// This is the frame checksum `.bgpcas` cassettes are stamped with; the
/// cassette format pins this exact function. Not interchangeable with
/// [`fnv1a_64`] or [`content_hash_64`].
pub fn word_fnv_64(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET ^ (data.len() as u64).wrapping_mul(FNV_PRIME);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        hash = fnv_step(hash, le_word(word));
    }
    if !words.remainder().is_empty() {
        hash = fnv_step(hash, le_word(words.remainder()));
    }
    hash
}

/// One word-FNV step: fold `word` into `hash`.
#[inline(always)]
fn fnv_step(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Up to eight bytes as a little-endian word, zero-padded on the right.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(word)
}

/// Block size of [`content_hash_64`]: its input is cut into blocks of this
/// many bytes (the last one shorter). The file readers split a file between
/// their workers on block boundaries and read it one block at a time.
pub const HASH_BLOCK: usize = 1 << 20;

/// Independent word-FNV chains per block.
const LANES: usize = 4;

/// The hash of one block: its little-endian words (the tail zero-padded
/// into a last word) dealt round-robin to [`LANES`] word-FNV chains, each
/// seeded with its lane number, then the lane values folded in lane order.
/// The chains are independent, so their multiplies overlap in the
/// pipeline.
fn block_hash(block: &[u8]) -> u64 {
    let mut lanes: [u64; LANES] = std::array::from_fn(|lane| FNV_OFFSET ^ lane as u64);
    let mut rounds = block.chunks_exact(8 * LANES);
    for round in &mut rounds {
        for (lane, word) in lanes.iter_mut().zip(round.chunks_exact(8)) {
            *lane = fnv_step(*lane, le_word(word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(rounds.remainder().chunks(8)) {
        *lane = fnv_step(*lane, le_word(word));
    }
    lanes.into_iter().fold(FNV_OFFSET, fnv_step)
}

/// Fold block hashes, in input order, into the hash of an input of `len`
/// bytes.
fn fold_blocks(len: u64, blocks: impl IntoIterator<Item = u64>) -> u64 {
    blocks
        .into_iter()
        .fold(FNV_OFFSET ^ len.wrapping_mul(FNV_PRIME), fnv_step)
}

/// Stable 64-bit content hash of a (potentially large) byte buffer: the
/// stamp a `.bgpsnap` snapshot carries of the source text it was parsed
/// from.
///
/// Definition: the input is cut into [`HASH_BLOCK`]-byte blocks (the last
/// one shorter). Each block is hashed as four independent word-FNV lanes —
/// its 8-byte little-endian words dealt round-robin, the tail zero-padded
/// into a last word — and the lanes are folded in order. The block hashes
/// are then folded in order, word-FNV style, from a state seeded with the
/// total length. The value depends only on the bytes: this slice hasher and
/// the file readers [`content_hash_file`] and [`stream_lines`] agree at
/// every thread count. Not interchangeable with [`fnv1a_64`] or
/// [`word_fnv_64`].
pub fn content_hash_64(data: &[u8]) -> u64 {
    fold_blocks(data.len() as u64, data.chunks(HASH_BLOCK).map(block_hash))
}

/// [`content_hash_64`] of a file's bytes, read as a stream: the reader of
/// [`stream_lines`] with no line parser, so each worker only reads and
/// hashes its blocks. Anything but a regular file is an `InvalidInput`
/// error: hashing a pipe would consume the bytes a parse needs.
pub fn content_hash_file(file: &File, threads: usize) -> io::Result<u64> {
    if !file.metadata()?.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "not a regular file, so hashing it would consume it",
        ));
    }
    let (_, hash) = stream::<()>(file, HASH_BLOCK as u64, threads, true, None)?;
    Ok(hash.unwrap_or_default())
}

/// The line parser a worker of [`stream`] feeds: `new` makes its
/// accumulator from the byte length of the worker's range, and `feed` hands
/// it a run of whole lines.
struct LineSink<'a, A> {
    new: &'a (dyn Fn(u64) -> A + Sync),
    feed: &'a (dyn Fn(&mut A, &[u8]) + Sync),
}

/// Stream a file's lines to a chunk parser through fixed per-worker
/// windows, hashing the same bytes on the way if `hash` is set.
///
/// A regular file's length is taken once, at the start, and split into
/// [`HASH_BLOCK`] blocks; each of up to `threads` workers (`0` counts as
/// one) owns a contiguous run of them. A worker reads its blocks one at a
/// time with positioned reads (`pread`) into one reused buffer — a block
/// plus the partial line carried into it — and owns the lines that *start*
/// in its range: it skips the tail of a line the previous range started,
/// carries a partial line from one window into the next, and reads past its
/// range end to finish the line that straddles it. It calls `new` once,
/// with its range's byte length, and `feed` with every run of whole lines
/// in order: each run ends just after a `\n`, except that the file's last
/// line may have none. So the runs of all workers concatenate to the file,
/// and the lines they hold are exactly those [`line_chunks`] would give; a
/// chunk parser that numbers its lines from 1 and folds its workers'
/// outputs in order gives every line its global number.
///
/// Anything else — a pipe, a terminal — has no length to split and no
/// offsets to read at, so one worker reads it to its end through the same
/// window with plain reads, calling `new` with 0.
///
/// Returns the accumulators in file order and, if `hash` is set, the
/// [`content_hash_64`] of the bytes read. A regular file that shrinks
/// during the call yields an `UnexpectedEof` error, never a short parse or
/// the hash of fewer bytes; bytes appended meanwhile are not read.
/// Non-unix targets read with one worker.
pub fn stream_lines<A: Send>(
    file: &File,
    threads: usize,
    hash: bool,
    new: impl Fn(u64) -> A + Sync,
    feed: impl Fn(&mut A, &[u8]) + Sync,
) -> io::Result<(Vec<A>, Option<u64>)> {
    let lines = LineSink {
        new: &new,
        feed: &feed,
    };
    stream(file, HASH_BLOCK as u64, threads, hash, Some(&lines))
}

/// [`stream_lines`] with blocks of `block` bytes (the tests use a few), and
/// with no parser at all for a hash.
fn stream<A: Send>(
    file: &File,
    block: u64,
    threads: usize,
    hash: bool,
    lines: Option<&LineSink<'_, A>>,
) -> io::Result<(Vec<A>, Option<u64>)> {
    let meta = file.metadata()?;
    let len = meta.is_file().then_some(meta.len());
    stream_from(file, len, block, threads, hash, lines)
}

/// [`stream`] of a file of length `len`, or of a stream read to its end if
/// `len` is `None`.
fn stream_from<A: Send>(
    file: &File,
    len: Option<u64>,
    block: u64,
    threads: usize,
    hash: bool,
    lines: Option<&LineSink<'_, A>>,
) -> io::Result<(Vec<A>, Option<u64>)> {
    let ranges: Vec<Range<u64>> = match len {
        Some(len) => {
            let blocks = len.div_ceil(block);
            let threads = if cfg!(unix) { threads.max(1) as u64 } else { 1 };
            let threads = threads.min(blocks).max(1);
            let at = |t: u64| (blocks * t / threads * block).min(len);
            (0..threads).map(|t| at(t)..at(t + 1)).collect()
        }
        // One worker, whose range is the whole stream.
        None => std::iter::once(0..u64::MAX).collect(),
    };
    let worker = Worker {
        file,
        len,
        block,
        hash,
    };
    let parts = map_chunks_parallel(&ranges, |range| worker.run(range.clone(), lines));
    let mut accs = Vec::with_capacity(parts.len());
    let mut hashes = Vec::new();
    let mut total = 0;
    for part in parts {
        let (acc, block_hashes, read) = part?;
        accs.extend(acc);
        hashes.extend(block_hashes);
        total += read;
    }
    Ok((accs, hash.then(|| fold_blocks(total, hashes))))
}

/// What every worker of one [`stream`] call shares.
struct Worker<'a> {
    file: &'a File,
    /// The file length taken at the start, or `None` for a stream that one
    /// worker reads to its end.
    len: Option<u64>,
    /// Bytes per block, per read and per hash block.
    block: u64,
    hash: bool,
}

impl Worker<'_> {
    /// Read the bytes `range` of the file (block-aligned): hash them if
    /// asked, and feed the lines that start in them to `lines`. Returns the
    /// accumulator, the hash of each block, in order, and how many bytes of
    /// the range were read.
    fn run<A>(
        &self,
        range: Range<u64>,
        lines: Option<&LineSink<'_, A>>,
    ) -> io::Result<(Option<A>, Vec<u64>, u64)> {
        let Range { start, end } = range;
        let mut hashes = Vec::new();
        let bytes = self.len.map_or(0, |_| end - start);
        let mut parser = lines.map(|lines| (lines, (lines.new)(bytes)));
        // A line belongs to the worker whose range holds its first byte, so
        // skip to just after the first `\n` at or after `start - 1`.
        let mut skipping = false;
        if parser.is_some() && start > 0 {
            let mut before = [0u8];
            self.read_at(&mut before, start - 1)?;
            skipping = before != [b'\n'];
        }
        let mut buf = Vec::new();
        // `buf[..carry]` holds a partial line (no `\n`) from earlier reads.
        let mut carry = 0usize;
        let mut pos = start;
        while pos < end {
            // Each read is a whole block (the last one may be shorter), so
            // the hashes are those of `content_hash_64`'s blocks.
            let n = self.fill(&mut buf, carry, pos, end)?;
            if n == 0 {
                // The end of a stream.
                break;
            }
            let filled = carry + n;
            let fresh = &buf[carry..filled];
            if self.hash {
                hashes.push(block_hash(fresh));
            }
            pos += n as u64;
            let Some((lines, acc)) = &mut parser else {
                continue;
            };
            let mut from = 0;
            if skipping {
                match find_byte(b'\n', fresh) {
                    Some(i) => {
                        from = i + 1;
                        skipping = false;
                    }
                    None => continue,
                }
            }
            // Only the fresh bytes can hold a `\n`; the carry has none.
            let scan = carry.max(from);
            let cut = match buf[scan..filled].iter().rposition(|&b| b == b'\n') {
                Some(i) => {
                    let cut = scan + i + 1;
                    (lines.feed)(acc, &buf[from..cut]);
                    cut
                }
                None => from,
            };
            buf.copy_within(cut..filled, 0);
            carry = filled - cut;
        }
        let read = pos - start;
        if let Some((lines, acc)) = &mut parser {
            if carry > 0 {
                // Finish the line that straddles the range end; at the end
                // of the file or stream it is the last line, with no `\n`.
                let until = self.len.unwrap_or(pos);
                while pos < until {
                    let n = self.fill(&mut buf, carry, pos, until)?;
                    pos += n as u64;
                    if let Some(i) = find_byte(b'\n', &buf[carry..carry + n]) {
                        carry += i + 1;
                        break;
                    }
                    carry += n;
                }
                (lines.feed)(acc, &buf[..carry]);
            }
        }
        Ok((parser.map(|(_, acc)| acc), hashes, read))
    }

    /// Read the file from `pos` into `buf` after its first `at` bytes: up to
    /// one block, and not past `until`. Returns how many bytes were read,
    /// which only a stream's last reads make fewer.
    fn fill(&self, buf: &mut Vec<u8>, at: usize, pos: u64, until: u64) -> io::Result<usize> {
        let n = usize::try_from((until - pos).min(self.block)).unwrap_or(usize::MAX);
        if buf.len() < at + n {
            // Exactly: the buffer is one block plus the carried line.
            buf.reserve_exact(at + n - buf.len());
            buf.resize(at + n, 0);
        }
        let window = &mut buf[at..at + n];
        if self.len.is_none() {
            return read_full(self.file, window);
        }
        self.read_at(window, pos)?;
        Ok(n)
    }

    /// Fill `buf` from the file at `offset`; a file shorter than the length
    /// taken at the start is an error.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        read_at(self.file, buf, offset).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    e.kind(),
                    format!(
                        "the file shrank below the {} bytes it had when the read began",
                        self.len.unwrap_or_default()
                    ),
                )
            } else {
                e
            }
        })
    }
}

/// Read from the file's cursor until `buf` is full or the file ends.
/// Returns how many bytes were read.
fn read_full(mut file: &File, buf: &mut [u8]) -> io::Result<usize> {
    use io::Read;
    let mut got = 0;
    while got < buf.len() {
        match file.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Fill `buf` from `file` at `offset`; a short read is an error.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fill `buf` from `file` at `offset`; a short read is an error. Seeks the
/// shared file cursor, so callers read from one thread.
#[cfg(not(unix))]
fn read_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_number_every_line_and_skip_blank_ones() {
        let text = b"a\r\n\n\r\r\nb\r\r\n\rc\r";
        let mut walk = lines(text);
        let got: Vec<(u64, &[u8])> = walk.by_ref().collect();
        assert_eq!(got, [(1, &b"a"[..]), (4, b"b"), (5, b"\rc")]);
        assert_eq!(walk.number(), 5);
        let mut walk = lines(b"a\n\n");
        assert_eq!(walk.by_ref().count(), 1);
        assert_eq!(walk.number(), 2, "a final `\\n` opens no line");
        assert_eq!(lines(b"").number(), 0);
        assert_eq!(line_content(b"\r\r"), None);
        assert_eq!(line_content(b"x\r\r"), Some(&b"x"[..]));
    }

    #[test]
    fn find_byte_basic() {
        assert_eq!(find_byte(b'|', b"ab|cd"), Some(2));
        assert_eq!(find_byte(b'|', b"abcd"), None);
        assert_eq!(find_byte(b'|', b""), None);
    }

    #[test]
    fn find_byte_agrees_with_scalar_at_word_boundaries() {
        // Hits at every offset around the 8-byte SWAR word edges and the
        // 32-byte step edges, including the first byte of a word, the last,
        // each word of a step, and deep in the tail.
        for hit in 0..100 {
            let mut hay = vec![b'x'; 101];
            if let Some(slot) = hay.get_mut(hit) {
                *slot = b'\n';
            }
            assert_eq!(find_byte(b'\n', &hay), Some(hit), "hit={hit}");
            assert_eq!(
                find_byte(b'\n', &hay),
                find_byte_scalar(b'\n', &hay),
                "hit={hit}"
            );
        }
        // Needle absent entirely, across lengths covering step, word and
        // tail splits.
        for len in 0..72 {
            let hay = vec![b'x'; len];
            assert_eq!(find_byte(b'\n', &hay), None, "len={len}");
        }
    }

    #[test]
    fn find_byte_crlf_and_utf8() {
        // CRLF line endings: '\r' and '\n' are adjacent and must resolve to
        // distinct positions.
        let hay = b"field one\r\nfield two\r\n";
        assert_eq!(find_byte(b'\r', hay), Some(9));
        assert_eq!(find_byte(b'\n', hay), Some(10));
        // Multi-byte UTF-8 in the haystack: continuation bytes (0x80..)
        // exercise the high bit the zero-byte trick masks on.
        let hay = "réacteur|κλμ\u{10348}|x".as_bytes();
        assert_eq!(find_byte(b'|', hay), find_byte_scalar(b'|', hay));
        // A needle equal to a UTF-8 continuation byte is found literally.
        let hay = "é".as_bytes(); // [0xc3, 0xa9]
        assert_eq!(find_byte(0xa9, hay), Some(1));
        assert_eq!(find_byte(0xc3, hay), Some(0));
    }

    use proptest::prelude::*;

    /// Byte palette of realistic log text: pipe-delimited ASCII plus CRLF
    /// pieces and the two bytes of a multi-byte UTF-8 scalar ("é").
    fn log_byte(i: usize) -> u8 {
        *[b'a', b'0', b' ', b'|', b'\n', b'\r', 0xc3, 0xa9, b'x']
            .get(i)
            .unwrap_or(&b'a')
    }

    proptest! {
        /// SWAR and scalar scans agree on arbitrary byte soup, at every
        /// alignment (the prefix shifts hits across word boundaries).
        #[test]
        fn prop_swar_matches_scalar(
            hay in collection::vec(0u8..=255, 0..160),
            prefix in 0usize..16,
            needle in 0u8..=255,
        ) {
            let mut shifted = vec![b'#'; prefix];
            shifted.extend_from_slice(&hay);
            prop_assert_eq!(
                find_byte(needle, &shifted),
                find_byte_scalar(needle, &shifted)
            );
        }

        /// Agreement on log-shaped text: pipe delimiters, CRLF endings, and
        /// embedded multi-byte UTF-8, scanned for each delimiter byte.
        #[test]
        fn prop_swar_matches_scalar_on_log_text(
            data in collection::vec((0usize..9).prop_map(log_byte), 0..160),
            needle in (0usize..4).prop_map(|i| *[b'|', b'\n', b'\r', 0xc3u8].get(i).unwrap_or(&b'|')),
        ) {
            prop_assert_eq!(
                find_byte(needle, &data),
                find_byte_scalar(needle, &data)
            );
        }

        /// `line_chunks` (built on the SWAR scan) still concatenates to its
        /// input with boundaries only after newlines.
        #[test]
        fn prop_chunks_concatenate(
            data in collection::vec((0usize..9).prop_map(log_byte), 0..64),
            n in 0usize..6,
        ) {
            let chunks = line_chunks(&data, n);
            let joined: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            prop_assert_eq!(joined, data);
            for c in chunks.iter().take(chunks.len().saturating_sub(1)) {
                prop_assert_eq!(c.last(), Some(&b'\n'));
            }
        }
    }

    #[test]
    fn chunks_concatenate_to_input() {
        let data = b"one\ntwo\nthree\nfour\nfive";
        for n in 0..=8 {
            let chunks = line_chunks(data, n);
            let joined: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(joined, data, "chunks={n}");
            // Every chunk but the last ends right after a newline.
            for c in chunks.iter().take(chunks.len().saturating_sub(1)) {
                assert_eq!(c.last(), Some(&b'\n'), "chunks={n}");
            }
            assert!(chunks.iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn chunks_edge_cases() {
        assert!(line_chunks(b"", 4).is_empty());
        // No newline at all: one chunk regardless of the requested count.
        assert_eq!(line_chunks(b"no newline here", 4).len(), 1);
        // All newlines.
        let data = b"\n\n\n\n";
        let chunks = line_chunks(data, 2);
        let joined: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(joined, data);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..13).collect();
        let out = map_chunks_parallel(&items, |&i| i * 2);
        assert_eq!(out, (0..13).map(|i| i * 2).collect::<Vec<_>>());
        // Inline path.
        let out = map_chunks_parallel(&items[..1], |&i| i + 1);
        assert_eq!(out, vec![1]);
    }

    /// The [`content_hash_64`] definition, written plainly: blocks, then
    /// words dealt to lanes by index, then the two folds.
    fn reference_hash(data: &[u8]) -> u64 {
        reference_hash_in(data, HASH_BLOCK)
    }

    /// [`reference_hash`] with blocks of `block` bytes: the hash the reader
    /// computes at a test geometry.
    fn reference_hash_in(data: &[u8], block: usize) -> u64 {
        let mut hash = FNV_OFFSET ^ (data.len() as u64).wrapping_mul(FNV_PRIME);
        for block in data.chunks(block) {
            let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
            for (i, word) in block.chunks(8).enumerate() {
                let mut padded = [0u8; 8];
                padded[..word.len()].copy_from_slice(word);
                let lane = &mut lanes[i % 4];
                *lane ^= u64::from_le_bytes(padded);
                *lane = lane.wrapping_mul(FNV_PRIME);
            }
            let mut block_hash = FNV_OFFSET;
            for lane in lanes {
                block_hash = (block_hash ^ lane).wrapping_mul(FNV_PRIME);
            }
            hash = (hash ^ block_hash).wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// `len` pseudo-random bytes (splitmix64 from `seed`).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// A fresh temp file holding `data`, open for reading, and its path.
    fn temp_file(data: &[u8]) -> (std::path::PathBuf, File) {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "bgp-model-bytes-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&path, data).unwrap();
        let file = File::open(&path).unwrap();
        (path, file)
    }

    /// Hash `data` through the slice hasher, the reference, and the file
    /// hasher at several thread counts; all must agree.
    fn assert_hashers_agree(data: &[u8]) {
        let expected = reference_hash(data);
        assert_eq!(content_hash_64(data), expected, "slice, len {}", data.len());
        let (path, file) = temp_file(data);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                content_hash_file(&file, threads).unwrap(),
                expected,
                "file at {threads} threads, len {}",
                data.len()
            );
        }
        drop(file);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hashers_agree_at_block_and_lane_edges() {
        for len in [
            0,
            1,
            7,
            8,
            31,
            32,
            33,
            HASH_BLOCK - 1,
            HASH_BLOCK,
            HASH_BLOCK + 1,
            3 * HASH_BLOCK + 5,
        ] {
            assert_hashers_agree(&noise(len, len as u64));
        }
    }

    proptest! {
        /// Random lengths, from a few bytes to a few blocks, with the
        /// block edges well covered.
        #[test]
        fn prop_hashers_agree(
            blocks in 0usize..3,
            offset in 0usize..5000,
            seed in 0u64..u64::MAX,
        ) {
            let len = (blocks * HASH_BLOCK + offset).saturating_sub(2500);
            assert_hashers_agree(&noise(len, seed));
        }
    }

    #[test]
    fn hash_sees_lane_order_block_order_and_length() {
        let data = noise(2 * HASH_BLOCK + 77, 7);
        let base = content_hash_64(&data);
        // Words 0 and 1 open lanes 0 and 1; words 5 and 10 sit mid-lane in
        // lanes 1 and 2.
        for (a, b) in [(0, 1), (5, 10), (3, 4)] {
            let mut swapped = data.clone();
            for k in 0..8 {
                swapped.swap(a * 8 + k, b * 8 + k);
            }
            assert_ne!(swapped, data);
            assert_ne!(content_hash_64(&swapped), base, "words {a} and {b}");
        }
        let mut blocks = data.clone();
        let (first, rest) = blocks.split_at_mut(HASH_BLOCK);
        first.swap_with_slice(&mut rest[..HASH_BLOCK]);
        assert_ne!(content_hash_64(&blocks), base, "blocks swapped");
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(content_hash_64(&longer), base, "zero byte appended");
        assert_ne!(content_hash_64(&[0]), content_hash_64(&[]));
        assert_ne!(
            content_hash_64(&[0; HASH_BLOCK]),
            content_hash_64(&[0; HASH_BLOCK + 8])
        );
    }

    #[test]
    fn cassette_checksum_is_the_old_serial_word_fnv() {
        // A one-record RAS log text: `word_fnv_64` is the serial word-FNV
        // that `content_hash_64` was before it became block-structured, and
        // committed cassettes are stamped with it, so it must never change.
        let text = b"1|KERN_0014|KERNEL|CNS|_bgp_err_kernel_panic|FATAL|2009-03-02-13.20.00|\
                     R00-M0|Compute node kernel panic: unhandled machine check\ngarbage\n";
        assert_eq!(word_fnv_64(text), 0x9d09_9c2b_1bd1_92e5);
        assert_eq!(content_hash_64(text), 0xc1d5_317a_068c_12ec);
        assert_eq!(word_fnv_64(b""), FNV_OFFSET);
    }

    #[test]
    fn file_hasher_reports_io_errors() {
        let path = std::env::temp_dir().join(format!("bgp-model-hash-dir-{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        // A directory opens but cannot be read: an error, not a hash, and
        // not an empty parse either.
        let dir = File::open(&path).unwrap();
        assert!(content_hash_file(&dir, 2).is_err());
        assert!(stream_lines(&dir, 2, true, |_| (), |(), _| ()).is_err());
        let _ = std::fs::remove_dir_all(&path);
    }

    #[cfg(unix)]
    #[test]
    fn a_pipe_streams_on_one_worker_and_is_never_hashed_alone() {
        use std::process::{Command, Stdio};
        // Lines longer than a block and no final newline, through a real
        // pipe: `cat` copies a file to the pipe this test reads.
        let mut data = Vec::new();
        for i in 0..50_000 {
            data.extend_from_slice(format!("{i}|a line\r\n").as_bytes());
        }
        data.extend(std::iter::repeat_n(b'y', HASH_BLOCK + 7));
        data.extend_from_slice(b"\nlast");
        let (path, _) = temp_file(&data);
        let pipe = || {
            let mut cat = Command::new("cat")
                .arg(&path)
                .stdout(Stdio::piped())
                .spawn()
                .unwrap();
            let out = File::from(std::os::fd::OwnedFd::from(cat.stdout.take().unwrap()));
            (cat, out)
        };
        let (mut cat, out) = pipe();
        let (parts, hash) = stream_lines(
            &out,
            4,
            true,
            |n| (n, 0usize),
            |(_, m), run| *m += run.len(),
        )
        .unwrap();
        assert_eq!(parts, vec![(0, data.len())]);
        assert_eq!(hash, Some(content_hash_64(&data)));
        assert!(cat.wait().unwrap().success());
        // Hashing a pipe would consume it, so the hasher refuses.
        let (mut cat, out) = pipe();
        let err = content_hash_file(&out, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        drop(out);
        let _ = cat.wait();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hashes_are_stable_and_discriminating() {
        // Pinned values: these must never change across releases, or every
        // snapshot in the field silently invalidates.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let h = content_hash_64(b"hello snapshot world");
        assert_eq!(h, content_hash_64(b"hello snapshot world"));
        assert_ne!(h, content_hash_64(b"hello snapshot worle"));
        // Length is part of the state: a buffer of zeros is distinguished
        // from a shorter one.
        assert_ne!(content_hash_64(&[0u8; 8]), content_hash_64(&[0u8; 16]));
        assert_ne!(content_hash_64(&[0u8; 7]), content_hash_64(&[0u8; 8]));
    }

    /// The lines one reader worker was fed: the runs, in order.
    type Fed = Vec<Vec<u8>>;

    /// Stream `data` from a file in blocks of `block` bytes on `threads`
    /// workers, with a parser that records every run it is fed, and check
    /// the reader's contract: the runs concatenate to the file, every run
    /// but the file's last ends just after a `\n` (so each worker's lines
    /// are whole and the workers' outputs fold into global line numbers),
    /// and the hash is the reference hash at that block size.
    ///
    /// The same file read as a stream of unknown length (the path a pipe
    /// takes: one worker, plain reads) must meet the same contract.
    fn assert_streams(data: &[u8], block: u64, threads: usize) {
        let (path, file) = temp_file(data);
        let lines = LineSink {
            new: &|_| Fed::new(),
            feed: &|fed: &mut Fed, run: &[u8]| fed.push(run.to_vec()),
        };
        let want = Some(reference_hash_in(data, block as usize));
        let check = |parts: Vec<Fed>, hash: Option<u64>, at: &str| {
            let runs: Vec<&[u8]> = parts.iter().flatten().map(Vec::as_slice).collect();
            assert_eq!(runs.concat(), data, "{at}");
            for (i, run) in runs.iter().enumerate() {
                assert!(!run.is_empty(), "{at}: empty run");
                if i + 1 < runs.len() {
                    assert_eq!(run.last(), Some(&b'\n'), "{at}: run {i} splits a line");
                }
            }
            assert_eq!(hash, want, "{at}");
        };
        let at = format!("block {block} at {threads} threads, len {}", data.len());
        let (parts, hash) = stream(&file, block, threads, true, Some(&lines)).unwrap();
        check(parts, hash, &at);
        let (none, hash_only) = stream::<()>(&file, block, threads, true, None).unwrap();
        assert!(none.is_empty());
        assert_eq!(hash_only, want, "{at}: hash without a parser");
        let cursor = File::open(&path).unwrap();
        let (parts, hash) = stream_from(&cursor, None, block, threads, true, Some(&lines)).unwrap();
        assert_eq!(parts.len(), 1, "{at}: a stream is read by one worker");
        check(parts, hash, &format!("{at}, as a stream"));
        drop(file);
        let _ = std::fs::remove_file(&path);
    }

    /// One line of log-shaped text for the reader proptest: a record-like
    /// line, a blank or CR-only line, a CRLF line, invalid UTF-8, or a line
    /// long enough to span many windows and several workers' ranges.
    fn arb_reader_line() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            (0usize..90).prop_map(|n| b"1|KERN|x|".iter().copied().cycle().take(n).collect()),
            (0u8..1).prop_map(|_| Vec::new()),
            (0u8..1).prop_map(|_| b"\r".to_vec()),
            (0u8..1).prop_map(|_| b"\r\r\r".to_vec()),
            (0usize..40).prop_map(|n| {
                let mut line = vec![b'a'; n];
                line.push(b'\r');
                line
            }),
            (0u8..1).prop_map(|_| b"msg \xff\xfe|\xc3".to_vec()),
            (100usize..400).prop_map(|n| vec![b'L'; n]),
        ]
    }

    proptest! {
        /// The reader feeds whole lines and hashes every byte at every
        /// block (read window) size from one byte up, on 1 to 8 workers,
        /// with and without a final newline.
        #[test]
        fn prop_stream_feeds_whole_lines_and_hashes(
            lines in collection::vec(arb_reader_line(), 0..30),
            final_newline in 0u8..2,
            block in 1u64..200,
            threads in 1usize..9,
        ) {
            let mut data = lines.join(&b'\n');
            if final_newline == 1 {
                data.push(b'\n');
            }
            assert_streams(&data, block, threads);
        }
    }

    #[test]
    fn stream_at_the_real_block_size_spans_blocks_and_workers() {
        // Short lines, then one line longer than two blocks (so it spans
        // several workers' ranges and many windows), then short lines with
        // no final newline.
        let mut data = Vec::new();
        for i in 0..20_000 {
            data.extend_from_slice(format!("{i}|short line\n").as_bytes());
        }
        data.extend(std::iter::repeat_n(b'x', 2 * HASH_BLOCK + 12_345));
        data.push(b'\n');
        for i in 0..20_000 {
            data.extend_from_slice(format!("{i}|tail\r\n").as_bytes());
        }
        data.extend_from_slice(b"last");
        for threads in [1, 2, 3, 5, 8] {
            assert_streams(&data, HASH_BLOCK as u64, threads);
        }
        assert_eq!(reference_hash(&data), content_hash_64(&data));
        let (path, file) = temp_file(&data);
        let (parts, hash) =
            stream_lines(&file, 4, true, |_| 0usize, |n, run| *n += run.len()).unwrap();
        assert_eq!(parts.iter().sum::<usize>(), data.len());
        assert_eq!(hash, Some(content_hash_64(&data)));
        let (_, hash) = stream_lines(&file, 4, false, |_| (), |(), _| ()).unwrap();
        assert_eq!(hash, None, "no hash unless asked");
        drop(file);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_file_that_shrinks_during_the_stream_is_an_error() {
        let data = noise(3 * HASH_BLOCK + 10, 3);
        for threads in [1, 4] {
            let (path, file) = temp_file(&data);
            // The length is taken before any worker starts; each worker then
            // finds the file cut to one block.
            let shrink = || {
                let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(HASH_BLOCK as u64).unwrap();
            };
            let err = stream_lines(&file, threads, true, |_| shrink(), |(), _| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{threads}");
            assert!(err.to_string().contains("shrank"), "{err}");
            drop(file);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn splitter_matches_splitn_on_named_cases() {
        let cases: [&[u8]; 9] = [
            b"",
            b"|",
            b"a|b|c",
            b"||||||||",
            b"|||||||||||",
            b"1|KERN_0014|KERNEL|CNS|_bgp_err_kernel_panic|FATAL|2009|R00-M0|msg | more",
            "é|κλμ|\u{10348}|x|y|z|w|v|ü|end".as_bytes(),
            b"no pipes at all in this line",
            b"abcdefg|abcdefg|",
        ];
        for line in cases {
            let want: Vec<&[u8]> = line.splitn(9, |&b| b == b'|').collect();
            let (fields, count) = splitn_byte::<9>(b'|', line);
            assert_eq!(&fields[..count], want.as_slice(), "{line:?}");
            assert!(fields[count..].iter().all(|f| f.is_empty()));
        }
        assert_eq!(splitn_byte::<1>(b'|', b"a|b"), ([&b"a|b"[..]], 1));
    }

    proptest! {
        /// The SWAR splitter is `splitn(9, '|')`: pipes at every offset of
        /// a word (the prefix shifts them), multi-byte UTF-8 around them,
        /// and lines with fewer than eight pipes.
        #[test]
        fn prop_splitter_matches_splitn(
            data in collection::vec((0usize..9).prop_map(log_byte), 0..120),
            prefix in 0usize..8,
        ) {
            let mut line = vec![b'p'; prefix];
            line.extend_from_slice(&data);
            let want: Vec<&[u8]> = line.splitn(9, |&b| b == b'|').collect();
            let (fields, count) = splitn_byte::<9>(b'|', &line);
            prop_assert_eq!(&fields[..count], want.as_slice());
        }

        /// Dense pipes: every byte a pipe or one byte of a UTF-8 scalar.
        #[test]
        fn prop_splitter_matches_splitn_on_dense_pipes(
            data in collection::vec((0usize..3).prop_map(|i| [b'|', 0xc3, 0xa9][i]), 0..40),
        ) {
            let want: Vec<&[u8]> = data.splitn(9, |&b| b == b'|').collect();
            let (fields, count) = splitn_byte::<9>(b'|', &data);
            prop_assert_eq!(&fields[..count], want.as_slice());
        }
    }
}
