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
//! payload checksum is then verified lazily at access time: a pass over one
//! section reads only that section's bytes, and resident memory stays
//! bounded by one chunk per worker instead of the whole world.
//! [`SnapshotReader::materialize`] decodes every chunk into a [`Snapshot`];
//! [`decode_snapshot`](crate::codec::decode_snapshot) is that method over an
//! in-memory reader.
//!
//! Safety argument for the mmap path: the mapping is `PROT_READ` +
//! `MAP_PRIVATE`, so nothing in this process can write through it, and the
//! pointer/length pair is fixed for the reader's lifetime (unmapped on
//! drop). The vendored `bytes::Bytes` owns its storage and cannot borrow
//! foreign memory, so chunk payloads are *copied* out of the map into a
//! `Bytes` before decoding — a bounded, chunk-sized copy, which also means
//! decoded structures never alias the mapping and survive it.

use std::fs::File;
use std::ops::Range;
use std::path::Path;

use bytes::{Buf, Bytes};

use crate::account::Account;
use crate::codec::{self, err, section_name, ChunkEntry, Section, SectionDir, SECTION_IDS};
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

    /// Reads `len` bytes at `offset`: copied out of a mapping or file, a
    /// shared slice of an in-memory buffer.
    fn read(&self, offset: u64, len: usize) -> Result<Bytes, ModelError> {
        match self {
            #[cfg(target_os = "linux")]
            Backing::Map { ptr, len: map_len } => {
                let r = span(offset, len, *map_len)?;
                // SAFETY: `span` checked `r` lies within the `map_len` bytes
                // mapped at `ptr`, which stay mapped while `self` lives.
                let slice = unsafe { std::slice::from_raw_parts(ptr.add(r.start), len) };
                Ok(Bytes::from(slice.to_vec()))
            }
            Backing::File(f) => {
                let mut v = vec![0u8; len];
                read_exact_at(f, &mut v, offset)?;
                Ok(Bytes::from(v))
            }
            Backing::Mem(b) => Ok(b.slice(span(offset, len, b.len())?)),
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

/// Parses the shared header from a prefix of the file — the only place the
/// container version is checked; returns collected at, scanned id space,
/// and the offset of the first chunk.
fn parse_header(prefix: Bytes) -> Result<(SimTime, u64, usize), ModelError> {
    let total = prefix.len();
    let mut buf = prefix;
    if buf.remaining() < 5 || &buf.split_to(4)[..] != codec::MAGIC {
        return Err(err("bad magic"));
    }
    match buf.get_u8() {
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
    let collected_at = SimTime::from_unix(codec::get_vari64(&mut buf)?);
    let scanned = codec::get_varu64(&mut buf)?;
    Ok((collected_at, scanned, total - buf.remaining()))
}

/// Parses and verifies the v3 trailer region (`[trailer_offset, len - 8)`):
/// the trailer checksum, section order, per-section chunk-count/cap
/// arithmetic, and the contiguity invariant — chunks tile the byte range
/// `[first_chunk, trailer_offset)` exactly, in section order. Returns the
/// per-section directories and the stored header checksum.
fn parse_directory(
    region: Bytes,
    first_chunk: u64,
    trailer_offset: u64,
) -> Result<(Vec<SectionDir>, u32), ModelError> {
    if region.len() < 9 {
        return Err(err("truncated v3 trailer"));
    }
    let sum_at = region.len() - 4;
    let stored = u32::from_le_bytes(region[sum_at..].try_into().expect("4 bytes"));
    if codec::checksum32(&region[..sum_at]) != stored {
        return Err(err("checksum mismatch in v3 trailer"));
    }

    let mut t = region.slice(..sum_at);
    let n_sections = codec::get_varu64(&mut t)? as usize;
    if n_sections != SECTION_IDS.len() {
        return Err(err(format!("expected {} sections, got {n_sections}", SECTION_IDS.len())));
    }
    let mut pos = first_chunk;
    let mut sections = Vec::with_capacity(n_sections);
    for (i, &expected_id) in SECTION_IDS.iter().enumerate() {
        if !t.has_remaining() {
            return Err(err("truncated v3 trailer"));
        }
        let id = t.get_u8();
        if id != expected_id {
            return Err(err(format!("section {i} has id {id} in trailer")));
        }
        let cap = codec::get_varu64(&mut t)?;
        if cap == 0 {
            return Err(err(format!("zero chunk capacity for {} section", section_name(id))));
        }
        let total_records = codec::get_varu64(&mut t)?;
        let n_chunks =
            usize::try_from(codec::get_varu64(&mut t)?).map_err(|_| err("chunk count"))?;
        if n_chunks as u64 != total_records.div_ceil(cap) {
            return Err(err(format!(
                "{} section: {n_chunks} chunks for {total_records} records at cap {cap}",
                section_name(id)
            )));
        }
        // Each directory entry is at least 3 one-byte varints + 4 checksum
        // bytes; reject counts that cannot fit before allocating.
        if n_chunks > t.remaining() / 7 {
            return Err(err(format!("implausible chunk count {n_chunks}")));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut records_left = total_records;
        for k in 0..n_chunks {
            let offset = codec::get_varu64(&mut t)?;
            let len = codec::get_varu64(&mut t)?;
            let n_records = codec::get_varu64(&mut t)?;
            if t.remaining() < 4 {
                return Err(err("truncated v3 trailer"));
            }
            let sum = t.get_u32_le();
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
            let frame = 1 + codec::varu64_len(n_records) + codec::varu64_len(len) + 4;
            pos = pos.saturating_add(frame).saturating_add(len);
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
    if t.remaining() < 4 {
        return Err(err("truncated v3 trailer"));
    }
    let header_sum = t.get_u32_le();
    if t.has_remaining() {
        return Err(err(format!("{} trailing bytes in v3 trailer", t.remaining())));
    }
    if pos != trailer_offset {
        return Err(err(format!("{} unindexed bytes before v3 trailer", trailer_offset - pos)));
    }
    Ok((sections, header_sum))
}

/// Cross-checks one chunk's inline frame header against its directory entry;
/// returns the header's byte length. The frame header itself is covered by no
/// checksum — this cross-check (id, count, length, payload sum all mirrored
/// in the checksummed directory) is what detects damage to it.
fn parse_chunk_header(
    hdr: Bytes,
    id: u8,
    k: usize,
    e: &ChunkEntry,
) -> Result<usize, ModelError> {
    let start_len = hdr.remaining();
    let mut hdr = hdr;
    if !hdr.has_remaining() {
        return Err(err(format!("truncated {} section chunk {k}", section_name(id))));
    }
    let got_id = hdr.get_u8();
    let n_records = codec::get_varu64(&mut hdr)?;
    let len = codec::get_varu64(&mut hdr)?;
    if hdr.remaining() < 4 {
        return Err(err(format!("truncated {} section chunk {k}", section_name(id))));
    }
    let sum = hdr.get_u32_le();
    if got_id != id || n_records != e.n_records || len != e.len || sum != e.sum {
        return Err(err(format!(
            "chunk header for {} section chunk {k} disagrees with directory",
            section_name(id)
        )));
    }
    Ok(start_len - hdr.remaining())
}

/// A v3 snapshot opened for streaming chunk access.
///
/// `Sync`: chunk reads are positional and share no mutable state, so worker
/// threads can claim and decode chunks concurrently (the atomic-cursor
/// pattern the rest of the codebase uses).
pub struct SnapshotReader {
    backing: Backing,
    file_len: u64,
    trailer_offset: u64,
    collected_at: SimTime,
    scanned_id_space: u64,
    /// One directory per section, indexed by section id.
    sections: Vec<SectionDir>,
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
        let head = backing.read(0, file_len.min(64) as usize)?;
        let (collected_at, scanned_id_space, first_chunk) = parse_header(head)?;
        if file_len < 5 + 8 + 9 {
            return Err(err("chunked snapshot too short"));
        }
        let trailer_offset = backing.read(file_len - 8, 8)?.get_u64_le();
        if trailer_offset < first_chunk as u64 || trailer_offset > file_len - 8 {
            return Err(err("trailer offset out of bounds"));
        }
        let region = backing.read(trailer_offset, (file_len - 8 - trailer_offset) as usize)?;
        let (sections, header_sum) = parse_directory(region, first_chunk as u64, trailer_offset)?;
        if codec::checksum32(&backing.read(0, first_chunk)?) != header_sum {
            return Err(err("checksum mismatch in snapshot header"));
        }
        Ok(SnapshotReader {
            backing,
            file_len,
            trailer_offset,
            collected_at,
            scanned_id_space,
            sections,
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

    /// Reads, verifies, and decodes one chunk of one section.
    fn chunk(&self, id: u8, k: usize) -> Result<Section, ModelError> {
        let d = self.dir(id);
        let e: ChunkEntry = *d
            .chunks
            .get(k)
            .ok_or_else(|| err(format!("{} section has no chunk {k}", section_name(id))))?;
        let hdr_room = (self.trailer_offset - e.offset).min(32) as usize;
        let hdr = self.backing.read(e.offset, hdr_room)?;
        let hdr_len = parse_chunk_header(hdr, id, k, &e)? as u64;
        let payload = self.backing.read(e.offset + hdr_len, e.len as usize)?;
        if codec::checksum32(&payload) != e.sum {
            return Err(err(format!("checksum mismatch in {} section chunk {k}", section_name(id))));
        }
        codec::decode_v3_chunk(id, k, e.n_records as usize, payload)
    }

    /// Decodes account chunk `k` (accounts `start..start + len`, in order).
    pub fn account_chunk(&self, k: usize) -> Result<Vec<Account>, ModelError> {
        match self.chunk(codec::SECTION_ACCOUNTS, k)? {
            Section::Accounts(v) => Ok(v),
            _ => unreachable!("accounts chunk decoded to wrong section"),
        }
    }

    /// Decodes friendship chunk `k` (edges in file order).
    pub fn friendship_chunk(&self, k: usize) -> Result<Vec<Friendship>, ModelError> {
        match self.chunk(codec::SECTION_FRIENDSHIPS, k)? {
            Section::Friendships(v) => Ok(v),
            _ => unreachable!("friendships chunk decoded to wrong section"),
        }
    }

    /// Decodes library chunk `k`: one `Vec<OwnedGame>` per user.
    pub fn library_chunk(&self, k: usize) -> Result<Vec<Vec<OwnedGame>>, ModelError> {
        match self.chunk(codec::SECTION_OWNERSHIPS, k)? {
            Section::Ownerships(v) => Ok(v),
            _ => unreachable!("ownerships chunk decoded to wrong section"),
        }
    }

    /// Decodes membership chunk `k`: one group-index list per user.
    pub fn membership_chunk(&self, k: usize) -> Result<Vec<Vec<u32>>, ModelError> {
        match self.chunk(codec::SECTION_MEMBERSHIPS, k)? {
            Section::Memberships(v) => Ok(v),
            _ => unreachable!("memberships chunk decoded to wrong section"),
        }
    }

    /// Decodes the whole group universe (small next to the per-user data).
    pub fn groups(&self) -> Result<Vec<Group>, ModelError> {
        let n_chunks = self.dir(codec::SECTION_GROUPS).chunks.len();
        let mut out = Vec::with_capacity(self.dir(codec::SECTION_GROUPS).total_records as usize);
        for k in 0..n_chunks {
            match self.chunk(codec::SECTION_GROUPS, k)? {
                Section::Groups(v) => out.extend(v),
                _ => unreachable!("groups chunk decoded to wrong section"),
            }
        }
        Ok(out)
    }

    /// Decodes the whole catalog (small next to the per-user data).
    pub fn catalog(&self) -> Result<Vec<Game>, ModelError> {
        let n_chunks = self.dir(codec::SECTION_CATALOG).chunks.len();
        let mut out = Vec::with_capacity(self.dir(codec::SECTION_CATALOG).total_records as usize);
        for k in 0..n_chunks {
            match self.chunk(codec::SECTION_CATALOG, k)? {
                Section::Catalog(v) => out.extend(v),
                _ => unreachable!("catalog chunk decoded to wrong section"),
            }
        }
        Ok(out)
    }

    /// Verifies and decodes every chunk on up to `jobs` workers into a full
    /// [`Snapshot`]: the in-memory path, equal to any streaming pass.
    pub fn materialize(&self, jobs: usize) -> Result<Snapshot, ModelError> {
        let chunks: Vec<(u8, usize)> = self
            .sections
            .iter()
            .flat_map(|d| (0..d.chunks.len()).map(move |k| (d.id, k)))
            .collect();
        let decoded =
            codec::map_parallel(jobs, chunks.len(), |i| self.chunk(chunks[i].0, chunks[i].1));
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
    use crate::codec::{synthetic_snapshot, write_snapshot_v3};
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

    /// Re-frames the v3 file at `path` so section `id`'s single chunk claims
    /// `n` records, recomputing every offset and checksum: the result is
    /// internally consistent, and only the count is a lie.
    fn with_record_count(path: &Path, id: u8, n: u64) -> Vec<u8> {
        let raw = std::fs::read(path).unwrap();
        let r = SnapshotReader::open(path).unwrap();
        let mut out = BytesMut::new();
        out.put_slice(&raw[..r.sections[0].chunks[0].offset as usize]);
        let header_sum = codec::checksum32(&out);
        let mut dirs = r.sections.clone();
        for d in &mut dirs {
            if d.id == id {
                assert_eq!(d.chunks.len(), 1, "section must be one chunk");
                d.cap = n;
                d.total_records = n;
            }
            for c in &mut d.chunks {
                let frame = 1 + codec::varu64_len(c.n_records) + codec::varu64_len(c.len) + 4;
                let start = (c.offset + frame) as usize;
                let payload = &raw[start..start + c.len as usize];
                if d.id == id {
                    c.n_records = n;
                }
                c.offset = out.len() as u64;
                out.put_u8(d.id);
                codec::put_varu64(&mut out, c.n_records);
                codec::put_varu64(&mut out, c.len);
                out.put_u32_le(c.sum);
                out.put_slice(payload);
            }
        }
        let trailer_offset = out.len() as u64;
        codec::append_v3_trailer(&mut out, &dirs, header_sum, trailer_offset);
        out.to_vec()
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
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = synthetic_snapshot(200);
        let path = temp_path("par.v3");
        write_snapshot_v3(&path, &s, 2).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        let n = r.n_account_chunks();
        let cursor = AtomicUsize::new(0);
        let counted = std::sync::Mutex::new(0usize);
        crossbeam::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|_| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let chunk = r.account_chunk(k).unwrap();
                    assert_eq!(chunk[0], s.accounts[r.account_chunk_start(k)]);
                    *counted.lock().unwrap() += chunk.len();
                });
            }
        })
        .unwrap();
        assert_eq!(*counted.lock().unwrap(), s.n_users());
        std::fs::remove_file(&path).ok();
    }
}
