//! The one parser of the snapshot container (version 3), for streaming and
//! full decodes alike.
//!
//! [`SnapshotReader::open`] maps the file read-only with `mmap` (a std-only
//! FFI shim in the same spirit as steam-net's epoll shim) and falls back to
//! plain `pread` when mapping is unavailable; [`SnapshotReader::from_bytes`]
//! reads a buffer already in memory. Opening verifies the header and
//! trailer checksums plus the full chunk directory (section order, chunk
//! counts, byte-range contiguity), so a torn or spliced file is rejected
//! before any payload is touched, and a file in a retired container version
//! is rejected with an error that says to regenerate it. Each chunk's
//! payload checksum is then verified at access time, on *every* access: a
//! pass over one section reads only that section's bytes, and resident
//! memory stays bounded by one chunk per worker instead of the whole world.
//!
//! Chunks are read through visitors that decode in place:
//! [`SnapshotReader::visit_friendship_chunk`] and
//! [`SnapshotReader::visit_account_chunk`] hand records to a closure one at
//! a time, and [`SnapshotReader::library_chunk_into`] /
//! [`SnapshotReader::membership_chunk_into`] refill a reusable
//! [`FlatRows`] buffer. Each section has one decoder over `&[u8]` (in
//! [`codec`]); the `Vec`-returning `*_chunk` methods and
//! [`SnapshotReader::materialize`] are collectors over the same decoders.
//! [`decode_snapshot`](crate::codec::decode_snapshot) is `materialize` over
//! an in-memory reader. [`SnapshotReader::stats`] counts, per section, the
//! chunks decoded and payload bytes verified since open.
//!
//! Safety argument for the mmap path: the mapping is `PROT_READ` +
//! `MAP_PRIVATE`, so nothing in this process can write through it, and the
//! pointer/length pair is fixed for the reader's lifetime (unmapped on
//! drop). Chunk bytes are decoded straight from the mapping as a
//! bounds-checked `&[u8]` whose lifetime is tied to the reader's borrow;
//! every decoded value (edges, libraries, strings) is an owned copy, so
//! nothing that outlives a visitor call aliases the mapping. Only the pread
//! backing copies a chunk, into a per-call scratch buffer.

use std::fs::File;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

use crate::account::Account;
use crate::codec::{self, err, section_name, ChunkEntry, SectionDir, SECTION_IDS};
use crate::error::ModelError;
use crate::game::Game;
use crate::group::Group;
use crate::ownership::OwnedGame;
use crate::snapshot::{Friendship, Snapshot};
use crate::time::SimTime;

#[cfg(target_os = "linux")]
mod mm {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
    }
}

/// Where the bytes come from: a read-only mapping, positional file reads,
/// or a buffer already in memory.
enum Backing {
    #[cfg(target_os = "linux")]
    Map {
        ptr: *const u8,
        len: usize,
    },
    File(File),
    Mem(Bytes),
}

// SAFETY: `Map`'s pointer is to an immutable PROT_READ mapping owned by this
// value and unmapped only on drop, so concurrent reads through it are safe;
// `File` (positional reads) and `Bytes` (shared immutable buffer) are
// `Send + Sync` themselves.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backing::Map { ptr, len } = *self {
            unsafe {
                mm::munmap(ptr as *mut _, len);
            }
        }
    }
}

/// `offset..offset + len` as an index range, provided it ends within `total`.
fn span(offset: u64, len: usize, total: usize) -> Result<Range<usize>, ModelError> {
    let start = usize::try_from(offset).map_err(|_| err("offset overflow"))?;
    match start.checked_add(len) {
        Some(end) if end <= total => Ok(start..end),
        _ => Err(err("read past end of snapshot")),
    }
}

impl Backing {
    fn new(file: File, len: u64, try_map: bool) -> Self {
        #[cfg(target_os = "linux")]
        if try_map && len > 0 {
            use std::os::unix::io::AsRawFd;
            if let Ok(l) = usize::try_from(len) {
                let ptr = unsafe {
                    mm::mmap(
                        std::ptr::null_mut(),
                        l,
                        mm::PROT_READ,
                        mm::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr != mm::MAP_FAILED {
                    // The fd can close; the mapping outlives it.
                    return Backing::Map { ptr: ptr as *const u8, len: l };
                }
            }
        }
        let _ = try_map;
        Backing::File(file)
    }

    fn is_mapped(&self) -> bool {
        #[cfg(target_os = "linux")]
        if matches!(self, Backing::Map { .. }) {
            return true;
        }
        false
    }

    /// The `len` bytes at `offset`: borrowed from the mapping or the
    /// in-memory buffer, or read from the file into `scratch`.
    fn bytes<'s>(
        &'s self,
        offset: u64,
        len: usize,
        scratch: &'s mut Vec<u8>,
    ) -> Result<&'s [u8], ModelError> {
        match self {
            #[cfg(target_os = "linux")]
            Backing::Map { ptr, len: map_len } => {
                let r = span(offset, len, *map_len)?;
                // SAFETY: `span` checked `r` lies within the `map_len` bytes
                // mapped at `ptr`, which stay mapped (and unwritten) while
                // `self` lives; the slice borrows `self`.
                Ok(unsafe { std::slice::from_raw_parts(ptr.add(r.start), len) })
            }
            Backing::File(f) => {
                scratch.clear();
                scratch.resize(len, 0);
                read_exact_at(f, scratch, offset)?;
                Ok(scratch)
            }
            Backing::Mem(b) => Ok(&b[span(offset, len, b.len())?]),
        }
    }
}

#[cfg(unix)]
fn read_exact_at(f: &File, buf: &mut [u8], offset: u64) -> Result<(), ModelError> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset).map_err(ModelError::from)
}

#[cfg(not(unix))]
fn read_exact_at(_f: &File, _buf: &mut [u8], _offset: u64) -> Result<(), ModelError> {
    Err(err("positional reads unsupported on this platform"))
}

/// Splits `n` bytes off the front of `buf`, or fails with "truncated `what`".
fn take<'b>(buf: &mut &'b [u8], n: usize, what: &str) -> Result<&'b [u8], ModelError> {
    if buf.len() < n {
        return Err(err(format!("truncated {what}")));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_u32_le(buf: &mut &[u8], what: &str) -> Result<u32, ModelError> {
    Ok(u32::from_le_bytes(take(buf, 4, what)?.try_into().expect("4 bytes")))
}

/// Parses the shared header from a prefix of the file — the only place the
/// container version is checked; returns collected at, scanned id space,
/// and the offset of the first chunk.
fn parse_header(prefix: &[u8]) -> Result<(SimTime, u64, usize), ModelError> {
    let mut buf = prefix;
    if buf.len() < 5 || take(&mut buf, 4, "header")? != codec::MAGIC {
        return Err(err("bad magic"));
    }
    match take(&mut buf, 1, "header")?[0] {
        codec::VERSION_CHUNKED => {}
        version @ (1 | 2) => {
            return Err(err(format!(
                "snapshot container version {version} is no longer readable (this build \
                 reads version {}); regenerate the file with `steam-cli generate` \
                 (or re-crawl it with `steam-cli crawl`)",
                codec::VERSION_CHUNKED
            )))
        }
        version => return Err(err(format!("unsupported snapshot container version {version}"))),
    }
    let collected_at = SimTime::from_unix(codec::read_vari64(&mut buf)?);
    let scanned = codec::read_varu64(&mut buf)?;
    Ok((collected_at, scanned, prefix.len() - buf.len()))
}

/// Parses and verifies the v3 trailer region (`[trailer_offset, len - 8)`):
/// the trailer checksum, section order, per-section chunk-count/cap
/// arithmetic, and the contiguity invariant — chunks tile the byte range
/// `[first_chunk, trailer_offset)` exactly, in section order. Returns the
/// per-section directories and the stored header checksum.
fn parse_directory(
    region: &[u8],
    first_chunk: u64,
    trailer_offset: u64,
) -> Result<(Vec<SectionDir>, u32), ModelError> {
    if region.len() < 9 {
        return Err(err("truncated v3 trailer"));
    }
    let (body, mut sum) = region.split_at(region.len() - 4);
    if codec::checksum32(body) != take_u32_le(&mut sum, "v3 trailer")? {
        return Err(err("checksum mismatch in v3 trailer"));
    }

    let mut t = body;
    let n_sections = codec::read_varu64(&mut t)?;
    if n_sections != SECTION_IDS.len() as u64 {
        return Err(err(format!("expected {} sections, got {n_sections}", SECTION_IDS.len())));
    }
    let mut pos = first_chunk;
    let mut sections = Vec::with_capacity(SECTION_IDS.len());
    for (i, &expected_id) in SECTION_IDS.iter().enumerate() {
        let id = take(&mut t, 1, "v3 trailer")?[0];
        if id != expected_id {
            return Err(err(format!("section {i} has id {id} in trailer")));
        }
        let cap = codec::read_varu64(&mut t)?;
        if cap == 0 {
            return Err(err(format!("zero chunk capacity for {} section", section_name(id))));
        }
        let total_records = codec::read_varu64(&mut t)?;
        let n_chunks =
            usize::try_from(codec::read_varu64(&mut t)?).map_err(|_| err("chunk count"))?;
        if n_chunks as u64 != total_records.div_ceil(cap) {
            return Err(err(format!(
                "{} section: {n_chunks} chunks for {total_records} records at cap {cap}",
                section_name(id)
            )));
        }
        // Each directory entry is at least 3 one-byte varints + 4 checksum
        // bytes; reject counts that cannot fit before allocating.
        if n_chunks > t.len() / 7 {
            return Err(err(format!("implausible chunk count {n_chunks}")));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut records_left = total_records;
        for k in 0..n_chunks {
            let offset = codec::read_varu64(&mut t)?;
            let len = codec::read_varu64(&mut t)?;
            let n_records = codec::read_varu64(&mut t)?;
            let sum = take_u32_le(&mut t, "v3 trailer")?;
            let expect = if k + 1 < n_chunks { cap } else { records_left };
            if n_records != expect {
                return Err(err(format!(
                    "{} section chunk {k}: {n_records} records, expected {expect}",
                    section_name(id)
                )));
            }
            // Every record encodes to at least one byte, so a larger count is
            // a lie that would otherwise size an allocation.
            if n_records > len {
                return Err(err(format!(
                    "{} section chunk {k}: {n_records} records cannot fit in {len} bytes",
                    section_name(id)
                )));
            }
            records_left -= n_records;
            if offset != pos {
                return Err(err(format!(
                    "{} section chunk {k} at offset {pos}, directory says {offset}",
                    section_name(id)
                )));
            }
            pos = pos.saturating_add(codec::frame_len(n_records, len)).saturating_add(len);
            if pos > trailer_offset {
                return Err(err(format!(
                    "{} section chunk {k} overruns the trailer",
                    section_name(id)
                )));
            }
            chunks.push(ChunkEntry { offset, len, n_records, sum });
        }
        sections.push(SectionDir { id, cap, total_records, chunks });
    }
    let header_sum = take_u32_le(&mut t, "v3 trailer")?;
    if !t.is_empty() {
        return Err(err(format!("{} trailing bytes in v3 trailer", t.len())));
    }
    if pos != trailer_offset {
        return Err(err(format!("{} unindexed bytes before v3 trailer", trailer_offset - pos)));
    }
    Ok((sections, header_sum))
}

/// Cross-checks one chunk's inline frame header against its directory
/// entry. `hdr` is exactly the frame length the directory implies. The
/// frame header itself is covered by no checksum — this cross-check (id,
/// count, length, payload sum all mirrored in the checksummed directory) is
/// what detects damage to it.
fn check_chunk_header(mut hdr: &[u8], id: u8, k: usize, e: &ChunkEntry) -> Result<(), ModelError> {
    let truncated = || err(format!("truncated {} section chunk {k}", section_name(id)));
    let got_id = take(&mut hdr, 1, "chunk header").map_err(|_| truncated())?[0];
    let n_records = codec::read_varu64(&mut hdr)?;
    let len = codec::read_varu64(&mut hdr)?;
    let sum = take_u32_le(&mut hdr, "chunk header").map_err(|_| truncated())?;
    if got_id != id || n_records != e.n_records || len != e.len || sum != e.sum || !hdr.is_empty()
    {
        return Err(err(format!(
            "chunk header for {} section chunk {k} disagrees with directory",
            section_name(id)
        )));
    }
    Ok(())
}

/// A per-user chunk decoded flat: every user's records back to back in one
/// buffer, plus the offset where each user's records end. A streaming pass
/// refills one of these per chunk, so it allocates once per pass instead of
/// once per user.
#[derive(Clone, Debug)]
pub struct FlatRows<T> {
    pub(crate) items: Vec<T>,
    pub(crate) ends: Vec<usize>,
}

impl<T> Default for FlatRows<T> {
    fn default() -> Self {
        FlatRows { items: Vec::new(), ends: Vec::new() }
    }
}

impl<T> FlatRows<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Users in the chunk.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The records of the chunk's `i`-th user.
    pub fn row(&self, i: usize) -> &[T] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.items[start..self.ends[i]]
    }

    /// Every user's records, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len()).map(|i| self.row(i))
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }
}

/// One section's work counters in a [`SnapshotReader`] (see
/// [`SnapshotReader::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionStats {
    pub section: &'static str,
    /// Chunks the section has in the file.
    pub n_chunks: usize,
    /// Chunk accesses since open (each verifies and decodes the chunk).
    pub chunks_decoded: u64,
    /// Payload bytes whose checksum was verified since open.
    pub bytes_verified: u64,
}

impl SectionStats {
    /// Chunk decodes per chunk: how many whole passes the section has had.
    pub fn passes(&self) -> f64 {
        if self.n_chunks == 0 {
            0.0
        } else {
            self.chunks_decoded as f64 / self.n_chunks as f64
        }
    }
}

/// Per-section relaxed counters; purely observational.
#[derive(Default)]
struct Counters {
    chunks: [AtomicU64; SECTION_IDS.len()],
    bytes: [AtomicU64; SECTION_IDS.len()],
}

/// A decoded chunk of any section, as [`SnapshotReader::materialize`]
/// collects them.
enum Section {
    Accounts(Vec<Account>),
    Friendships(Vec<Friendship>),
    Ownerships(Vec<Vec<OwnedGame>>),
    Groups(Vec<Group>),
    Memberships(Vec<Vec<u32>>),
    Catalog(Vec<Game>),
}

/// A v3 snapshot opened for streaming chunk access.
///
/// `Sync`: chunk reads are positional and share no mutable state beyond
/// relaxed counters, so worker threads can claim and decode chunks
/// concurrently (as the workers of `steam_par::run_chunks` do).
pub struct SnapshotReader {
    backing: Backing,
    file_len: u64,
    collected_at: SimTime,
    scanned_id_space: u64,
    /// One directory per section, indexed by section id.
    sections: Vec<SectionDir>,
    counters: Counters,
}

impl SnapshotReader {
    /// Opens a v3 snapshot file, preferring mmap, falling back to pread.
    pub fn open(path: &Path) -> Result<Self, ModelError> {
        Self::open_backed(path, true)
    }

    /// Opens with the positional-read backing, never mapping — for tests and
    /// for environments where address space is tighter than page cache.
    pub fn open_pread(path: &Path) -> Result<Self, ModelError> {
        Self::open_backed(path, false)
    }

    /// Reads a v3 snapshot held in memory; chunk reads are bounds-checked
    /// slices of `buf`, never copies.
    pub fn from_bytes(buf: Bytes) -> Result<Self, ModelError> {
        let len = buf.len() as u64;
        Self::from_backing(Backing::Mem(buf), len)
    }

    fn open_backed(path: &Path, try_map: bool) -> Result<Self, ModelError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        Self::from_backing(Backing::new(file, file_len, try_map), file_len)
    }

    fn from_backing(backing: Backing, file_len: u64) -> Result<Self, ModelError> {
        let mut scratch = Vec::new();
        let head = backing.bytes(0, file_len.min(64) as usize, &mut scratch)?;
        let (collected_at, scanned_id_space, first_chunk) = parse_header(head)?;
        if file_len < 5 + 8 + 9 {
            return Err(err("chunked snapshot too short"));
        }
        let tail = backing.bytes(file_len - 8, 8, &mut scratch)?;
        let trailer_offset = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if trailer_offset < first_chunk as u64 || trailer_offset > file_len - 8 {
            return Err(err("trailer offset out of bounds"));
        }
        let region =
            backing.bytes(trailer_offset, (file_len - 8 - trailer_offset) as usize, &mut scratch)?;
        let (sections, header_sum) = parse_directory(region, first_chunk as u64, trailer_offset)?;
        if codec::checksum32(backing.bytes(0, first_chunk, &mut scratch)?) != header_sum {
            return Err(err("checksum mismatch in snapshot header"));
        }
        Ok(SnapshotReader {
            backing,
            file_len,
            collected_at,
            scanned_id_space,
            sections,
            counters: Counters::default(),
        })
    }

    /// Whether the file is mmap-backed (as opposed to pread fallback).
    pub fn is_mapped(&self) -> bool {
        self.backing.is_mapped()
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    pub fn collected_at(&self) -> SimTime {
        self.collected_at
    }

    pub fn scanned_id_space(&self) -> u64 {
        self.scanned_id_space
    }

    pub(crate) fn dir(&self, id: u8) -> &SectionDir {
        &self.sections[id as usize]
    }

    /// Number of accounts (== number of libraries and membership lists).
    pub fn n_users(&self) -> usize {
        self.dir(codec::SECTION_ACCOUNTS).total_records as usize
    }

    /// Number of friendship edges, from the directory — no scan needed.
    pub fn n_friendships(&self) -> u64 {
        self.dir(codec::SECTION_FRIENDSHIPS).total_records
    }

    pub fn n_account_chunks(&self) -> usize {
        self.dir(codec::SECTION_ACCOUNTS).chunks.len()
    }

    pub fn n_friendship_chunks(&self) -> usize {
        self.dir(codec::SECTION_FRIENDSHIPS).chunks.len()
    }

    pub fn n_library_chunks(&self) -> usize {
        self.dir(codec::SECTION_OWNERSHIPS).chunks.len()
    }

    pub fn n_membership_chunks(&self) -> usize {
        self.dir(codec::SECTION_MEMBERSHIPS).chunks.len()
    }

    /// Index of the first account in account chunk `k`.
    pub fn account_chunk_start(&self, k: usize) -> usize {
        (self.dir(codec::SECTION_ACCOUNTS).cap as usize) * k
    }

    /// Index of the first user in library chunk `k`.
    pub fn library_chunk_start(&self, k: usize) -> usize {
        (self.dir(codec::SECTION_OWNERSHIPS).cap as usize) * k
    }

    /// Index of the first user in membership chunk `k`.
    pub fn membership_chunk_start(&self, k: usize) -> usize {
        (self.dir(codec::SECTION_MEMBERSHIPS).cap as usize) * k
    }

    /// Work counters per section, in file order.
    pub fn stats(&self) -> Vec<SectionStats> {
        self.sections
            .iter()
            .map(|d| SectionStats {
                section: section_name(d.id),
                n_chunks: d.chunks.len(),
                chunks_decoded: self.counters.chunks[d.id as usize].load(Ordering::Relaxed),
                bytes_verified: self.counters.bytes[d.id as usize].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The counters of the section named `section` (e.g. `"friendships"`).
    pub fn section_stats(&self, section: &str) -> Option<SectionStats> {
        self.stats().into_iter().find(|s| s.section == section)
    }

    /// Reads chunk `k` of section `id`, cross-checks its frame against the
    /// directory, verifies its payload checksum, and runs `decode` over the
    /// payload with the chunk's record count. `decode` must consume the
    /// payload exactly. The payload is borrowed from the map or the
    /// in-memory buffer; only the pread backing copies it. Errors name the
    /// section and chunk.
    fn with_chunk<T>(
        &self,
        id: u8,
        k: usize,
        decode: impl FnOnce(&mut &[u8], usize) -> Result<T, ModelError>,
    ) -> Result<T, ModelError> {
        let e: ChunkEntry = *self
            .dir(id)
            .chunks
            .get(k)
            .ok_or_else(|| err(format!("{} section has no chunk {k}", section_name(id))))?;
        let frame = codec::frame_len(e.n_records, e.len) as usize;
        let len = usize::try_from(e.len).map_err(|_| err("chunk length overflow"))?;
        let mut scratch = Vec::new();
        let bytes = self.backing.bytes(e.offset, frame + len, &mut scratch)?;
        let (hdr, payload) = bytes.split_at(frame);
        check_chunk_header(hdr, id, k, &e)?;
        if codec::checksum32(payload) != e.sum {
            return Err(err(format!("checksum mismatch in {} section chunk {k}", section_name(id))));
        }
        self.counters.chunks[id as usize].fetch_add(1, Ordering::Relaxed);
        self.counters.bytes[id as usize].fetch_add(e.len, Ordering::Relaxed);
        let mut buf = payload;
        let out = decode(&mut buf, e.n_records as usize)
            .map_err(|e| err(format!("{} section chunk {k}: {e}", section_name(id))))?;
        if !buf.is_empty() {
            return Err(err(format!(
                "{} trailing bytes in {} section chunk {k}",
                buf.len(),
                section_name(id)
            )));
        }
        Ok(out)
    }

    /// Records of a single-record-decoder section chunk, collected.
    fn records<T>(
        &self,
        id: u8,
        k: usize,
        read: fn(&mut &[u8]) -> Result<T, ModelError>,
    ) -> Result<Vec<T>, ModelError> {
        self.with_chunk(id, k, |buf, n| (0..n).map(|_| read(buf)).collect())
    }

    /// Calls `f(i, account)` for every account of chunk `k` in order, `i`
    /// counting from 0 within the chunk (see [`Self::account_chunk_start`]).
    pub fn visit_account_chunk(
        &self,
        k: usize,
        mut f: impl FnMut(usize, Account),
    ) -> Result<(), ModelError> {
        self.with_chunk(codec::SECTION_ACCOUNTS, k, |buf, n| {
            for i in 0..n {
                f(i, codec::read_account(buf)?);
            }
            Ok(())
        })
    }

    /// Decodes account chunk `k` (accounts `start..start + len`, in order).
    pub fn account_chunk(&self, k: usize) -> Result<Vec<Account>, ModelError> {
        self.records(codec::SECTION_ACCOUNTS, k, codec::read_account)
    }

    /// Calls `f(edge)` for every edge of friendship chunk `k`, in file order,
    /// decoding straight from the chunk's bytes.
    pub fn visit_friendship_chunk(
        &self,
        k: usize,
        f: impl FnMut(Friendship),
    ) -> Result<(), ModelError> {
        self.with_chunk(codec::SECTION_FRIENDSHIPS, k, |buf, n| codec::read_friendships(buf, n, f))
    }

    /// Decodes friendship chunk `k` (edges in file order).
    pub fn friendship_chunk(&self, k: usize) -> Result<Vec<Friendship>, ModelError> {
        let mut v = Vec::new();
        self.visit_friendship_chunk(k, |e| v.push(e))?;
        Ok(v)
    }

    /// Decodes library chunk `k` into `out`, one row per user (see
    /// [`Self::library_chunk_start`]).
    pub fn library_chunk_into(
        &self,
        k: usize,
        out: &mut FlatRows<OwnedGame>,
    ) -> Result<(), ModelError> {
        self.with_chunk(codec::SECTION_OWNERSHIPS, k, |buf, n| codec::read_libraries(buf, n, out))
    }

    /// Decodes library chunk `k`: one `Vec<OwnedGame>` per user.
    pub fn library_chunk(&self, k: usize) -> Result<Vec<Vec<OwnedGame>>, ModelError> {
        let mut rows = FlatRows::new();
        self.library_chunk_into(k, &mut rows)?;
        Ok(rows.rows().map(<[OwnedGame]>::to_vec).collect())
    }

    /// Decodes membership chunk `k` into `out`, one group-index row per user
    /// (see [`Self::membership_chunk_start`]).
    pub fn membership_chunk_into(&self, k: usize, out: &mut FlatRows<u32>) -> Result<(), ModelError> {
        self.with_chunk(codec::SECTION_MEMBERSHIPS, k, |buf, n| {
            codec::read_memberships(buf, n, out)
        })
    }

    /// Decodes membership chunk `k`: one group-index list per user.
    pub fn membership_chunk(&self, k: usize) -> Result<Vec<Vec<u32>>, ModelError> {
        let mut rows = FlatRows::new();
        self.membership_chunk_into(k, &mut rows)?;
        Ok(rows.rows().map(<[u32]>::to_vec).collect())
    }

    /// Every record of a small section, chunk by chunk.
    fn whole<T>(
        &self,
        id: u8,
        read: fn(&mut &[u8]) -> Result<T, ModelError>,
    ) -> Result<Vec<T>, ModelError> {
        let d = self.dir(id);
        let mut out = Vec::with_capacity(d.total_records as usize);
        for k in 0..d.chunks.len() {
            out.extend(self.records(id, k, read)?);
        }
        Ok(out)
    }

    /// Decodes the whole group universe (small next to the per-user data).
    pub fn groups(&self) -> Result<Vec<Group>, ModelError> {
        self.whole(codec::SECTION_GROUPS, codec::read_group)
    }

    /// Decodes the whole catalog (small next to the per-user data).
    pub fn catalog(&self) -> Result<Vec<Game>, ModelError> {
        self.whole(codec::SECTION_CATALOG, codec::read_game)
    }

    /// Chunk `k` of section `id`, collected.
    fn section_chunk(&self, id: u8, k: usize) -> Result<Section, ModelError> {
        Ok(match id {
            codec::SECTION_ACCOUNTS => Section::Accounts(self.account_chunk(k)?),
            codec::SECTION_FRIENDSHIPS => Section::Friendships(self.friendship_chunk(k)?),
            codec::SECTION_OWNERSHIPS => Section::Ownerships(self.library_chunk(k)?),
            codec::SECTION_GROUPS => Section::Groups(self.records(id, k, codec::read_group)?),
            codec::SECTION_MEMBERSHIPS => Section::Memberships(self.membership_chunk(k)?),
            codec::SECTION_CATALOG => Section::Catalog(self.records(id, k, codec::read_game)?),
            _ => return Err(err(format!("unknown section id {id}"))),
        })
    }

    /// Verifies and decodes every chunk on up to `jobs` workers into a full
    /// [`Snapshot`]: the in-memory path, equal to any streaming pass.
    pub fn materialize(&self, jobs: usize) -> Result<Snapshot, ModelError> {
        let chunks: Vec<(u8, usize)> = self
            .sections
            .iter()
            .flat_map(|d| (0..d.chunks.len()).map(move |k| (d.id, k)))
            .collect();
        let decoded = steam_par::run_chunks(jobs, chunks.len(), 1, |i, _| {
            self.section_chunk(chunks[i].0, chunks[i].1)
        });
        let records = |id: u8| self.dir(id).total_records as usize;
        let mut s = Snapshot {
            collected_at: self.collected_at,
            scanned_id_space: self.scanned_id_space,
            accounts: Vec::with_capacity(records(codec::SECTION_ACCOUNTS)),
            friendships: Vec::with_capacity(records(codec::SECTION_FRIENDSHIPS)),
            ownerships: Vec::with_capacity(records(codec::SECTION_OWNERSHIPS)),
            groups: Vec::with_capacity(records(codec::SECTION_GROUPS)),
            memberships: Vec::with_capacity(records(codec::SECTION_MEMBERSHIPS)),
            catalog: Vec::with_capacity(records(codec::SECTION_CATALOG)),
        };
        for chunk in decoded {
            match chunk? {
                Section::Accounts(v) => s.accounts.extend(v),
                Section::Friendships(v) => s.friendships.extend(v),
                Section::Ownerships(v) => s.ownerships.extend(v),
                Section::Groups(v) => s.groups.extend(v),
                Section::Memberships(v) => s.memberships.extend(v),
                Section::Catalog(v) => s.catalog.extend(v),
            }
        }
        if s.ownerships.len() != s.accounts.len() || s.memberships.len() != s.accounts.len() {
            return Err(err(format!(
                "per-account sections disagree: {} accounts, {} libraries, {} membership lists",
                s.accounts.len(),
                s.ownerships.len(),
                s.memberships.len()
            )));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_snapshot_v3, synthetic_snapshot, write_snapshot_v3};
    use bytes::{BufMut, BytesMut};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("steam-model-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn reassemble(r: &SnapshotReader) -> crate::snapshot::Snapshot {
        let mut s = crate::snapshot::Snapshot {
            collected_at: r.collected_at(),
            scanned_id_space: r.scanned_id_space(),
            groups: r.groups().unwrap(),
            catalog: r.catalog().unwrap(),
            ..Default::default()
        };
        for k in 0..r.n_account_chunks() {
            assert_eq!(r.account_chunk_start(k), s.accounts.len());
            s.accounts.extend(r.account_chunk(k).unwrap());
        }
        for k in 0..r.n_friendship_chunks() {
            s.friendships.extend(r.friendship_chunk(k).unwrap());
        }
        for k in 0..r.n_library_chunks() {
            assert_eq!(r.library_chunk_start(k), s.ownerships.len());
            s.ownerships.extend(r.library_chunk(k).unwrap());
        }
        for k in 0..r.n_membership_chunks() {
            assert_eq!(r.membership_chunk_start(k), s.memberships.len());
            s.memberships.extend(r.membership_chunk(k).unwrap());
        }
        s
    }

    #[test]
    fn reader_matches_full_decode_on_both_backings() {
        let s = synthetic_snapshot(100);
        let path = temp_path("stream.v3");
        write_snapshot_v3(&path, &s, 2).unwrap();
        for reader in [SnapshotReader::open(&path).unwrap(), SnapshotReader::open_pread(&path).unwrap()]
        {
            assert_eq!(reader.n_users(), s.n_users());
            assert_eq!(reader.n_friendships(), s.n_friendships() as u64);
            let d = reassemble(&reader);
            assert_eq!(d.accounts, s.accounts);
            assert_eq!(d.friendships, s.friendships);
            assert_eq!(d.ownerships, s.ownerships);
            assert_eq!(d.groups, s.groups);
            assert_eq!(d.memberships, s.memberships);
            assert_eq!(d.catalog, s.catalog);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_rejects_retired_versions() {
        let s = synthetic_snapshot(5);
        let path = temp_path("old.snap");
        write_snapshot_v3(&path, &s, 1).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for version in [1u8, 2] {
            let mut raw = clean.clone();
            raw[4] = version;
            std::fs::write(&path, &raw).unwrap();
            let errors = [
                SnapshotReader::open(&path).err(),
                SnapshotReader::from_bytes(Bytes::from(raw.clone())).err(),
                codec::decode_snapshot(Bytes::from(raw)).err(),
            ];
            for e in errors {
                let e = e.unwrap_or_else(|| panic!("version {version} file read as v3"));
                let e = e.to_string();
                assert!(e.contains(&format!("version {version}")) && e.contains("regenerate"), "{e}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Re-frames the v3 file `raw` with `edit` applied to chunk 0 of section
    /// `id`: new payload bytes and, when `n` is given, a new record count
    /// (for a single-chunk section). Every offset and checksum is
    /// recomputed, so the result is internally consistent and only the
    /// edited payload or count can be wrong.
    fn reframe(raw: &[u8], id: u8, n: Option<u64>, edit: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let r = SnapshotReader::from_bytes(Bytes::from(raw.to_vec())).unwrap();
        let mut out = BytesMut::new();
        out.put_slice(&raw[..r.sections[0].chunks[0].offset as usize]);
        let header_sum = codec::checksum32(&out);
        let mut dirs = r.sections.clone();
        for d in &mut dirs {
            if let (true, Some(n)) = (d.id == id, n) {
                assert_eq!(d.chunks.len(), 1, "section must be one chunk");
                d.cap = n;
                d.total_records = n;
            }
            for (k, c) in d.chunks.iter_mut().enumerate() {
                let start = (c.offset + codec::frame_len(c.n_records, c.len)) as usize;
                let mut payload = raw[start..start + c.len as usize].to_vec();
                if d.id == id && k == 0 {
                    payload = edit(&payload);
                    c.n_records = n.unwrap_or(c.n_records);
                    c.len = payload.len() as u64;
                    c.sum = codec::checksum32(&payload);
                }
                c.offset = out.len() as u64;
                out.put_u8(d.id);
                codec::put_varu64(&mut out, c.n_records);
                codec::put_varu64(&mut out, c.len);
                out.put_u32_le(c.sum);
                out.put_slice(&payload);
            }
        }
        let trailer_offset = out.len() as u64;
        codec::append_v3_trailer(&mut out, &dirs, header_sum, trailer_offset);
        out.to_vec()
    }

    /// The v3 file at `path` with section `id`'s single chunk claiming `n`
    /// records.
    fn with_record_count(path: &Path, id: u8, n: u64) -> Vec<u8> {
        reframe(&std::fs::read(path).unwrap(), id, Some(n), <[u8]>::to_vec)
    }

    /// Every section of `r` read through the visitors, chunk by chunk.
    fn visit_everything(r: &SnapshotReader) -> Result<(), ModelError> {
        let mut libs = FlatRows::new();
        let mut ms = FlatRows::new();
        for k in 0..r.n_account_chunks() {
            r.visit_account_chunk(k, |_, _| {})?;
        }
        for k in 0..r.n_friendship_chunks() {
            r.visit_friendship_chunk(k, |_| {})?;
        }
        for k in 0..r.n_library_chunks() {
            r.library_chunk_into(k, &mut libs)?;
        }
        for k in 0..r.n_membership_chunks() {
            r.membership_chunk_into(k, &mut ms)?;
        }
        r.groups()?;
        r.catalog()?;
        Ok(())
    }

    /// `raw` opened through every backing: mmap, pread, and in memory.
    fn every_backing(raw: &[u8], name: &str) -> Vec<(&'static str, SnapshotReader)> {
        let path = temp_path(name);
        std::fs::write(&path, raw).unwrap();
        let readers = vec![
            ("mmap", SnapshotReader::open(&path).unwrap()),
            ("pread", SnapshotReader::open_pread(&path).unwrap()),
            ("bytes", SnapshotReader::from_bytes(Bytes::from(raw.to_vec())).unwrap()),
        ];
        std::fs::remove_file(&path).ok();
        readers
    }

    #[test]
    fn visitors_catch_payload_corruption_on_every_backing() {
        let s = synthetic_snapshot(60);
        let clean = encode_snapshot_v3(&s, 1);
        let clean_reader = SnapshotReader::from_bytes(clean.clone()).unwrap();
        for (id, name) in
            [(codec::SECTION_FRIENDSHIPS, "friendships"), (codec::SECTION_OWNERSHIPS, "ownerships")]
        {
            let e = clean_reader.dir(id).chunks[0];
            let mut raw = clean.to_vec();
            raw[(e.offset + codec::frame_len(e.n_records, e.len) + e.len / 2) as usize] ^= 0x01;
            for (backing, r) in every_backing(&raw, "flip.v3") {
                assert_eq!(r.is_mapped(), backing == "mmap");
                let msg = if id == codec::SECTION_FRIENDSHIPS {
                    r.visit_friendship_chunk(0, |_| {}).unwrap_err().to_string()
                } else {
                    r.library_chunk_into(0, &mut FlatRows::new()).unwrap_err().to_string()
                };
                assert!(
                    msg.contains("checksum") && msg.contains(name) && msg.contains("chunk 0"),
                    "{backing}: {msg}"
                );
                // The untouched sections still read.
                r.membership_chunk_into(0, &mut FlatRows::new()).unwrap();
                assert_eq!(r.catalog().unwrap(), s.catalog);
                assert_eq!(r.section_stats(name).unwrap().chunks_decoded, 0, "{backing}");
            }
        }
    }

    #[test]
    fn truncated_varint_under_a_valid_checksum_is_an_error() {
        // A chunk whose payload ends mid-varint but whose checksum (and
        // directory) were recomputed over the damage: only the bounds-checked
        // decoder stands between it and an out-of-bounds read.
        let raw = encode_snapshot_v3(&synthetic_snapshot(60), 1);
        for (id, name) in
            [(codec::SECTION_FRIENDSHIPS, "friendships"), (codec::SECTION_OWNERSHIPS, "ownerships")]
        {
            let cut = reframe(&raw, id, None, |p| {
                assert!(p[p.len() - 2] & 0x80 != 0, "last varint must span two bytes");
                p[..p.len() - 1].to_vec()
            });
            for (backing, r) in every_backing(&cut, "cut.v3") {
                let msg = visit_everything(&r).unwrap_err().to_string();
                assert!(
                    msg.contains(name) && msg.contains("chunk 0") && msg.contains("truncated"),
                    "{backing}: {msg}"
                );
                assert!(r.materialize(2).is_err(), "{backing}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn visitors_never_panic_on_arbitrary_payloads(
            id in 0u8..6,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            // Any payload behind a valid checksum yields Ok or Err, never a
            // panic, an out-of-bounds read or a runaway allocation.
            let raw = encode_snapshot_v3(&synthetic_snapshot(12), 1);
            let edited = reframe(&raw, id, None, |_| bytes.clone());
            if let Ok(r) = SnapshotReader::from_bytes(Bytes::from(edited)) {
                let _ = visit_everything(&r);
                let _ = r.materialize(1);
            }
        }
    }

    #[test]
    fn inflated_record_count_is_rejected_not_allocated() {
        // Regression test: a consistent directory claiming 2^58 groups for a
        // tiny chunk used to pass `open` and then panic with a capacity
        // overflow when the chunk was decoded.
        let s = synthetic_snapshot(16);
        let path = temp_path("inflate.v3");
        write_snapshot_v3(&path, &s, 1).unwrap();
        let bad_path = temp_path("inflate-bad.v3");
        let honest = with_record_count(&path, codec::SECTION_GROUPS, s.groups.len() as u64);
        std::fs::write(&bad_path, &honest).unwrap();
        assert_eq!(SnapshotReader::open(&bad_path).unwrap().groups().unwrap(), s.groups);
        let len = SnapshotReader::open(&path).unwrap().dir(codec::SECTION_GROUPS).chunks[0].len;
        for n in [1u64 << 58, len + 1] {
            let bad = with_record_count(&path, codec::SECTION_GROUPS, n);
            std::fs::write(&bad_path, &bad).unwrap();
            let msg = match SnapshotReader::open(&bad_path) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("{n} records in {len} bytes opened"),
            };
            assert!(msg.contains("groups") && msg.contains("chunk 0"), "{msg}");
            assert!(codec::decode_snapshot(Bytes::from(bad)).is_err(), "{n} records decoded");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad_path).ok();
    }

    #[test]
    fn reader_rejects_truncated_files() {
        let s = synthetic_snapshot(30);
        let path = temp_path("trunc.v3");
        write_snapshot_v3(&path, &s, 1).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cut = temp_path("trunc-cut.v3");
        for frac in [1usize, 2, 3, 7] {
            std::fs::write(&cut, &full[..full.len() * frac / 8]).unwrap();
            assert!(SnapshotReader::open(&cut).is_err(), "cut to {frac}/8 opened");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut).ok();
    }

    #[test]
    fn payload_corruption_detected_lazily_and_named() {
        let s = synthetic_snapshot(60);
        let path = temp_path("corrupt.v3");
        write_snapshot_v3(&path, &s, 1).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one byte in the middle of the friendships payload area. Locate
        // it via an intact reader's directory.
        let clean = SnapshotReader::open(&path).unwrap();
        let e = clean.dir(codec::SECTION_FRIENDSHIPS).chunks[0];
        raw[e.offset as usize + 10] ^= 0x01;
        drop(clean);
        std::fs::write(&path, &raw).unwrap();
        // Directory still verifies, so open succeeds...
        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.n_users(), s.n_users());
        // ...and the damaged chunk is caught at access time, by name.
        let msg = r.friendship_chunk(0).unwrap_err().to_string();
        assert!(msg.contains("friendships") && msg.contains("chunk 0"), "{msg}");
        // Other sections remain readable.
        assert_eq!(r.catalog().unwrap(), s.catalog);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_chunk_claims_see_consistent_data() {
        let s = synthetic_snapshot(200);
        let path = temp_path("par.v3");
        write_snapshot_v3(&path, &s, 2).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        let lens = steam_par::run_chunks(4, r.n_account_chunks(), 1, |k, _| {
            let chunk = r.account_chunk(k).unwrap();
            assert_eq!(chunk[0], s.accounts[r.account_chunk_start(k)]);
            chunk.len()
        });
        assert_eq!(lens.iter().sum::<usize>(), s.n_users());
        std::fs::remove_file(&path).ok();
    }
}
