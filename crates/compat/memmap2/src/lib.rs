//! Minimal in-tree substitute for the `memmap2` crate.
//!
//! The build environment has no crates.io access, so — like the `rand` shim
//! next door — this crate reimplements exactly the slice of the real
//! `memmap2` API the workspace uses: a read-only [`Mmap`] created from an
//! open [`File`] that dereferences to `&[u8]`.
//!
//! On Unix the mapping is a real `mmap(2)` (`PROT_READ`, `MAP_PRIVATE`)
//! obtained through `extern "C"` declarations resolved by the system libc at
//! link time; the region is `munmap`ed on drop. On other platforms — or if
//! the syscall fails — [`Mmap::map`] falls back to reading the whole file
//! into an anonymous heap buffer, which preserves the API contract (a stable
//! `&[u8]` of the file's bytes) at the cost of residency.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::fs::File;
use std::io;
use std::ops::Deref;

/// A read-only memory map of a file (or a heap copy on fallback paths).
#[derive(Debug)]
pub struct Mmap {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    /// A live `mmap(2)` region. The pointer is valid for `len` bytes until
    /// `munmap` in `Drop`.
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// Heap fallback: the whole file read into memory.
    Heap(Vec<u8>),
}

// SAFETY: the mapped region is immutable (PROT_READ, MAP_PRIVATE) and owned
// exclusively by this value, so it can move to another thread wholesale.
unsafe impl Send for Mmap {}
// SAFETY: with no interior mutability and a read-only mapping, concurrent
// `&Mmap` access is concurrent reads of immutable bytes.
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Maps `len` bytes of `file` read-only. Returns `None` when the kernel
    /// refuses (e.g. the path is on a filesystem without mmap support), in
    /// which case the caller falls back to a heap read.
    pub(crate) fn map_readonly(file: &File, len: usize) -> Option<*const u8> {
        // MAP_PRIVATE means later writes to the file cannot corrupt safety
        // invariants of the returned region (contents may still be loaded
        // lazily; callers treat the bytes as untrusted input regardless).
        // SAFETY: all-zero hint address, a length we just took from the
        // file's metadata, and a file descriptor that outlives the call.
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
        if ptr == MAP_FAILED {
            None
        } else {
            Some(ptr as *const u8)
        }
    }

    /// Unmaps a region previously returned by [`map_readonly`].
    pub(crate) fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: `ptr`/`len` came from a successful `map_readonly` call and
        // are unmapped exactly once (enforced by Drop ownership).
        let rc = unsafe { munmap(ptr as *mut c_void, len) };
        debug_assert_eq!(rc, 0, "munmap failed: {}", io::Error::last_os_error());
    }
}

impl Mmap {
    /// Maps `file` read-only for its full current length.
    ///
    /// # Safety
    ///
    /// As with the real `memmap2`, the caller must ensure the file is not
    /// truncated or rewritten while the map is alive; the operating system
    /// may deliver `SIGBUS` on access to pages past a shrunk file. Treat the
    /// bytes as untrusted input (validate, don't assume).
    // SAFETY: contract is the `# Safety` section above — the caller keeps
    // the file unmodified for the mapping's lifetime.
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map on this platform",
            ));
        }
        let len = len as usize;
        // A zero-length mmap is an error on Linux; model an empty file as an
        // empty heap buffer instead.
        #[cfg(unix)]
        if len > 0 {
            if let Some(ptr) = sys::map_readonly(file, len) {
                return Ok(Mmap {
                    inner: Inner::Mapped { ptr, len },
                });
            }
        }
        let mut buf = Vec::with_capacity(len);
        let mut reader = file;
        io::Read::read_to_end(&mut reader, &mut buf)?;
        Ok(Mmap {
            inner: Inner::Heap(buf),
        })
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { len, .. } => *len,
            Inner::Heap(buf) => buf.len(),
        }
    }

    /// Whether the mapping is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a true kernel mapping (as opposed to the heap-read
    /// fallback). Exposed for diagnostics and tests.
    #[inline]
    pub fn is_kernel_mapping(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
            Inner::Heap(_) => false,
        }
    }
}

impl Deref for Mmap {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: the region is mapped readable for `len` bytes and
                // stays mapped until Drop; u8 has no validity invariants.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Inner::Heap(buf) => buf,
        }
    }
}

impl AsRef<[u8]> for Mmap {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mapped { ptr, len } = self.inner {
            sys::unmap(ptr, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("memmap2_compat_{}_{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("basic");
        let payload = b"hello mapped world";
        std::fs::File::create(&path)
            .unwrap()
            .write_all(payload)
            .unwrap();
        let file = std::fs::File::open(&path).unwrap();
        // SAFETY: the test file is not truncated or rewritten while mapped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&map[..], payload);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        // SAFETY: the test file is not truncated or rewritten while mapped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert!(map.is_empty());
        assert_eq!(&map[..], b"");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn unix_uses_kernel_mapping_for_nonempty_files() {
        let path = temp_path("kernel");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(b"x")
            .unwrap();
        let file = std::fs::File::open(&path).unwrap();
        // SAFETY: the test file is not truncated or rewritten while mapped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert!(map.is_kernel_mapping());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn large_mapping_roundtrips() {
        let path = temp_path("large");
        let payload: Vec<u8> = (0..1usize << 16).map(|i| (i % 251) as u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let file = std::fs::File::open(&path).unwrap();
        // SAFETY: the test file is not truncated or rewritten while mapped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&map[..], &payload[..]);
        let _ = std::fs::remove_file(&path);
    }
}
