//! Read-only memory-mapped file input, for `.bgpsnap` snapshots.
//!
//! [`MappedFile`] hands the snapshot loader a `&[u8]` view of a snapshot
//! without copying it through a heap buffer: on unix [`MappedFile::open`]
//! maps the file `PROT_READ` / `MAP_PRIVATE` so decoding runs straight over
//! the page cache; everywhere else (and whenever mapping fails) it falls back
//! to an ordinary read. [`MappedFile::read`] always reads into a buffer; the
//! BG/Q, syslog and cassette adapters take their input that way. Source logs
//! in the BG/P format are never mapped: they are streamed through fixed
//! per-worker windows ([`crate::bytes::stream_lines`]).
//!
//! This is the one module in the workspace allowed to use `unsafe`: the
//! crate root denies `unsafe_code` and every other module inherits that.
//! The safety argument is confined here and is short:
//!
//! * The mapping is private and read-only; nothing through this API can
//!   write to the file or observe another process's `MAP_PRIVATE` writes.
//! * The returned slice borrows the [`MappedFile`], whose `Drop` unmaps,
//!   so the view cannot outlive the mapping.
//! * The caveat that cannot be engineered away: if another process
//!   *truncates* a file while it is mapped, touching the vanished pages
//!   raises `SIGBUS`. That is why only snapshots are mapped: the loader
//!   only ever replaces a `.bgpsnap` file by renaming a new one over it,
//!   never truncates it, and a rename leaves a live mapping on the old
//!   file intact. See DESIGN.md §5h for the operational notes.

#![allow(unsafe_code)] // sanctioned: the workspace's single mmap wrapper

use std::fs::File;
use std::io;
use std::path::Path;

/// A file's bytes, either memory-mapped (unix) or read into a buffer.
#[derive(Debug)]
pub struct MappedFile {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    #[cfg(unix)]
    Mapped(unix_impl::Mapping),
    Owned(Vec<u8>),
}

impl MappedFile {
    /// Map `path` read-only, falling back to a buffered read when mapping
    /// is unavailable (non-unix targets, zero-length files, exotic
    /// filesystems that refuse `mmap`). Only for files that are replaced,
    /// never truncated, while mapped: the `.bgpsnap` snapshots.
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        #[cfg(unix)]
        {
            let file = File::open(path)?;
            // Empty file or the kernel refusing the mapping falls through to
            // the read path rather than failing the load.
            if let Ok(Some(m)) = unix_impl::Mapping::map(&file) {
                return Ok(MappedFile {
                    inner: Inner::Mapped(m),
                });
            }
        }
        Self::read(path)
    }

    /// Read `path` into an owned buffer.
    pub fn read(path: &Path) -> io::Result<MappedFile> {
        Ok(MappedFile {
            inner: Inner::Owned(std::fs::read(path)?),
        })
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(m) => m.as_slice(),
            Inner::Owned(v) => v,
        }
    }

    /// True when the bytes are served by a memory mapping (diagnostics).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(_) => true,
            Inner::Owned(_) => false,
        }
    }
}

#[cfg(unix)]
mod unix_impl {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    // Raw libc bindings: std already links libc on unix, so declaring the
    // two symbols here avoids a dependency on the `libc` crate.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// An active `mmap` region; unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // SAFETY: the region is read-only and owned exclusively by this value;
    // sharing immutable views across threads is sound.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map the whole of `file` read-only. `Ok(None)` means "no mapping
        /// to make" (zero-length file — `mmap` would return `EINVAL`).
        pub(super) fn map(file: &File) -> io::Result<Option<Mapping>> {
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(None);
            }
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "file exceeds usize"))?;
            // SAFETY: fd is a valid open file for the duration of the call;
            // a PROT_READ/MAP_PRIVATE mapping of it aliases no Rust object.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Some(Mapping { ptr, len }))
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes (established in `map`, released only in `drop`), and the
            // returned borrow ties the slice's lifetime to `self`.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe the mapping created in `map`;
            // after this the struct is gone, so no slice can dangle (the
            // borrow in `as_slice` pins `self` alive).
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_and_read_agree() {
        let dir = std::env::temp_dir().join(format!("bgp-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.log");
        let payload = b"line one\nline two with |delims|\n";
        std::fs::write(&path, payload).unwrap();

        let mapped = MappedFile::open(&path).unwrap();
        let read = MappedFile::read(&path).unwrap();
        assert_eq!(mapped.bytes(), payload.as_slice());
        assert_eq!(read.bytes(), payload.as_slice());
        assert!(!read.is_mapped());
        #[cfg(unix)]
        assert!(mapped.is_mapped());

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let dir = std::env::temp_dir().join(format!("bgp-mmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.log");
        std::fs::write(&path, b"").unwrap();
        let mapped = MappedFile::open(&path).unwrap();
        assert!(mapped.bytes().is_empty());
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        let path = Path::new("/nonexistent/definitely/not/here.log");
        assert!(MappedFile::open(path).is_err());
        assert!(MappedFile::read(path).is_err());
    }
}
