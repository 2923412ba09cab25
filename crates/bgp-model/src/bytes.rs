//! Byte-level helpers shared by the log ingestion layer.
//!
//! Both log crates parse the same way: a whole file is read into memory once,
//! split into newline-aligned chunks, and the chunks are parsed concurrently
//! on scoped threads. The helpers here are the deterministic substrate for
//! that: chunking that never splits a line, a fork-join map over chunks, and
//! a content hash used by the `.bgpsnap` snapshot cache to detect stale
//! snapshots, with a slice hasher and a streaming file hasher.

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
/// went to zero — eight bytes per step, no platform intrinsics, stable
/// Rust. The tail shorter than a word falls back to the serial scan.
/// [`find_byte_scalar`] is the byte-at-a-time twin kept as the equivalence
/// oracle; the two must agree on every input.
pub fn find_byte(needle: u8, hay: &[u8]) -> Option<usize> {
    let spread = broadcast(needle);
    let mut words = hay.chunks_exact(8);
    let mut offset = 0usize;
    for word in &mut words {
        let lanes = u64::from_le_bytes(word.try_into().unwrap_or([0; 8])) ^ spread;
        let hit = lanes.wrapping_sub(SWAR_LO) & !lanes & SWAR_HI;
        if hit != 0 {
            return Some(offset + (hit.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    find_byte_scalar(needle, words.remainder()).map(|i| offset + i)
}

/// Serial-scalar reference for [`find_byte`]: one byte per step.
///
/// Kept (not merely for the tail) as the equivalence oracle the SWAR scan
/// is property-tested against, and as the baseline the `ingest-simd`
/// benchmark kernel times the word-parallel scan over.
pub fn find_byte_scalar(needle: u8, hay: &[u8]) -> Option<usize> {
    hay.iter().position(|&b| b == needle)
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

/// Apply `f` to every chunk on its own scoped thread and collect the results
/// in input order.
///
/// Single-chunk inputs run inline on the caller's thread. A panicking worker
/// is re-raised on the caller, mirroring the stage-graph fork-join point.
#[expect(
    clippy::disallowed_methods,
    reason = "the kernels' fork-join helper: one thread per chunk, results in input order"
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
/// many bytes (the last one shorter), and every hasher reads and hashes
/// whole blocks.
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
/// the file hasher [`content_hash_file`] agree at every thread count. Not
/// interchangeable with [`fnv1a_64`] or [`word_fnv_64`].
pub fn content_hash_64(data: &[u8]) -> u64 {
    fold_blocks(data.len() as u64, data.chunks(HASH_BLOCK).map(block_hash))
}

/// [`content_hash_64`] of a file's bytes, read as a stream instead of
/// mapped: the blocks are read with positioned reads (`pread`) into one
/// [`HASH_BLOCK`] buffer per thread, their ranges split over `threads`
/// (`0` is treated as 1) by [`map_chunks_parallel`], and the block hashes
/// folded in order.
///
/// Exactly the length `fstat` reports when the call starts is read; a file
/// that shrinks meanwhile yields an `UnexpectedEof` error, never a hash of
/// fewer bytes. Non-unix targets read the blocks sequentially.
pub fn content_hash_file(file: &File, threads: usize) -> io::Result<u64> {
    let len = file.metadata()?.len();
    let block = HASH_BLOCK as u64;
    let blocks = len.div_ceil(block);
    let threads = if cfg!(unix) { threads.max(1) as u64 } else { 1 };
    let threads = threads.min(blocks).max(1);
    let ranges: Vec<Range<u64>> = (0..threads)
        .map(|t| blocks * t / threads..blocks * (t + 1) / threads)
        .collect();
    let parts = map_chunks_parallel(&ranges, |range| {
        let mut buf = vec![0u8; len.min(block) as usize];
        range
            .clone()
            .map(|b| {
                let start = b * block;
                let bytes = &mut buf[..(len - start).min(block) as usize];
                read_at(file, bytes, start)?;
                Ok(block_hash(bytes))
            })
            .collect::<io::Result<Vec<u64>>>()
    });
    let mut hashes = Vec::with_capacity(blocks as usize);
    for part in parts {
        hashes.extend(part?);
    }
    Ok(fold_blocks(len, hashes))
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
    fn find_byte_basic() {
        assert_eq!(find_byte(b'|', b"ab|cd"), Some(2));
        assert_eq!(find_byte(b'|', b"abcd"), None);
        assert_eq!(find_byte(b'|', b""), None);
    }

    #[test]
    fn find_byte_agrees_with_scalar_at_word_boundaries() {
        // Hits at every offset around the 8-byte SWAR word edges, including
        // the first byte of a word, the last, and deep in the tail.
        for hit in 0..40 {
            let mut hay = vec![b'x'; 41];
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
        // Needle absent entirely, across lengths covering word + tail splits.
        for len in 0..24 {
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
            hay in collection::vec(0u8..=255, 0..64),
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
            data in collection::vec((0usize..9).prop_map(log_byte), 0..96),
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
        let mut hash = FNV_OFFSET ^ (data.len() as u64).wrapping_mul(FNV_PRIME);
        for block in data.chunks(HASH_BLOCK) {
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

    /// Hash `data` through the slice hasher, the reference, and the file
    /// hasher at several thread counts; all must agree.
    fn assert_hashers_agree(data: &[u8]) {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let expected = reference_hash(data);
        assert_eq!(content_hash_64(data), expected, "slice, len {}", data.len());
        let path = std::env::temp_dir().join(format!(
            "bgp-model-hash-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&path, data).unwrap();
        let file = File::open(&path).unwrap();
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
        // A directory opens but cannot be read: an error, not a hash.
        let dir = File::open(&path).unwrap();
        assert!(content_hash_file(&dir, 2).is_err());
        let _ = std::fs::remove_dir_all(&path);
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
}
