//! Compact binary codec for snapshots, plus the checkpoint segment codec.
//!
//! The paper's dataset is hundreds of millions of records; persisting and
//! reloading snapshots must not dominate experiment time. This module defines
//! a simple length-prefixed, varint-based format (no self-description, no
//! compression) with a magic header and version byte.
//!
//! Beyond the snapshot format, the module provides the building blocks the
//! crawler's checkpoint journal is made of (see `steam-api`'s `checkpoint`
//! module): [`write_atomic`] (sibling temp file + fsync + rename, so a crash
//! can never leave a half-written file under the target name) and a segment
//! codec — append-only files of length-prefixed records, each guarded by a
//! [FNV-1a checksum](checksum32), decoded tolerantly so a torn tail loses
//! only the damaged records, never the segment.
//!
//! The snapshot container is the *chunked columnar* format, version 3. Each
//! of six sections is split into fixed-record-count chunks, every chunk
//! independently framed and checksummed, with a seekable chunk directory in
//! the trailer (all integers varint-encoded unless noted):
//!
//! ```text
//! "CSTM" u8(3)
//! collected_at:i64(zigzag) scanned_id_space
//! chunks, sections in id order, chunks in record order:
//!     u8(section_id) n_records payload_len u32le(fnv1a(payload)) payload
//! trailer:    6  6 × { u8(section_id) chunk_cap total_records n_chunks
//!                      n_chunks × { offset payload_len n_records u32le(sum) } }
//!             u32le(fnv1a(header))            -- checksum of bytes before the first chunk
//!             u32le(fnv1a(trailer))           -- checksum of the trailer itself
//! u64le(trailer_offset)                       -- final 8 bytes
//! ```
//!
//! Section ids, in file order: 0 accounts, 1 friendships, 2 ownerships,
//! 3 groups, 4 memberships, 5 catalog. Chunk payloads carry records
//! back-to-back with *no* leading count — counts live in the frame header
//! and the directory, which the reader cross-checks so corruption is pinned
//! to a section *and* chunk. Every chunk except a section's last holds
//! exactly `chunk_cap` records, so record `i` lives in chunk `i / cap`
//! without scanning.
//!
//! This module writes the container and encodes/decodes the records inside
//! chunk payloads. Parsing the container itself — header, directory, chunk
//! frames — happens in one place, [`SnapshotReader`](crate::reader), which
//! also backs [`decode_snapshot`]. Files written by the retired version 1
//! (single stream) and version 2 (six sections) containers are rejected
//! with an error that says to regenerate them.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::account::{Account, Visibility};
use crate::country::CountryCode;
use crate::error::ModelError;
use crate::game::{Achievement, AppId, AppType, Game, GenreSet};
use crate::group::{Group, GroupId, GroupKind};
use crate::id::SteamId;
use crate::ownership::OwnedGame;
use crate::reader::{FlatRows, SnapshotReader};
use crate::snapshot::{Friendship, Snapshot, WeekPanel};
use crate::time::SimTime;

pub(crate) const MAGIC: &[u8; 4] = b"CSTM";
/// Version byte of the week-panel format; independent of the snapshot's.
const PANEL_VERSION: u8 = 1;

/// Section ids of the snapshot container, in file order.
pub(crate) const SECTION_IDS: [u8; 6] = [0, 1, 2, 3, 4, 5];
pub(crate) const SECTION_ACCOUNTS: u8 = 0;
pub(crate) const SECTION_FRIENDSHIPS: u8 = 1;
pub(crate) const SECTION_OWNERSHIPS: u8 = 2;
pub(crate) const SECTION_GROUPS: u8 = 3;
pub(crate) const SECTION_MEMBERSHIPS: u8 = 4;
pub(crate) const SECTION_CATALOG: u8 = 5;

pub(crate) fn section_name(id: u8) -> &'static str {
    match id {
        SECTION_ACCOUNTS => "accounts",
        SECTION_FRIENDSHIPS => "friendships",
        SECTION_OWNERSHIPS => "ownerships",
        SECTION_GROUPS => "groups",
        SECTION_MEMBERSHIPS => "memberships",
        SECTION_CATALOG => "catalog",
        _ => "unknown",
    }
}

pub(crate) fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Codec(msg.into())
}

// --- varint primitives ----------------------------------------------------
//
// Public: the crawler's checkpoint journal encodes its records with the same
// primitives the snapshot format uses, so both stay in one place.
//
// Every decoder reads from the front of a `&mut &[u8]` and advances it past
// what it consumed; nothing is read without a bounds check. The `get_*`
// functions over `Bytes` are thin adapters onto those slice readers (see
// [`advancing`]), so each record type has exactly one decoder.

/// Appends a LEB128-style varint.
pub fn put_varu64(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Reads a varint written by [`put_varu64`] from the front of `buf`.
#[inline]
pub(crate) fn read_varu64(buf: &mut &[u8]) -> Result<u64, ModelError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(err("varint overflow"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            *buf = &buf[i + 1..];
            return Ok(v);
        }
        shift += 7;
    }
    Err(err("truncated varint"))
}

/// Runs the slice decoder `f` over the front of `buf`, then advances `buf`
/// past the bytes it consumed.
fn advancing<T>(
    buf: &mut Bytes,
    f: impl FnOnce(&mut &[u8]) -> Result<T, ModelError>,
) -> Result<T, ModelError> {
    let mut s: &[u8] = buf;
    let out = f(&mut s);
    let used = buf.len() - s.len();
    buf.advance(used);
    out
}

/// Reads a varint written by [`put_varu64`].
pub fn get_varu64(buf: &mut Bytes) -> Result<u64, ModelError> {
    advancing(buf, read_varu64)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a zigzag-encoded signed varint.
pub fn put_vari64(buf: &mut BytesMut, v: i64) {
    put_varu64(buf, zigzag(v));
}

/// Reads a signed varint written by [`put_vari64`] from the front of `buf`.
#[inline]
pub(crate) fn read_vari64(buf: &mut &[u8]) -> Result<i64, ModelError> {
    Ok(unzigzag(read_varu64(buf)?))
}

/// Reads a signed varint written by [`put_vari64`].
pub fn get_vari64(buf: &mut Bytes) -> Result<i64, ModelError> {
    advancing(buf, read_vari64)
}

/// A varint that must fit a `u32`; `what` names the field on overflow.
#[inline]
fn read_u32(buf: &mut &[u8], what: &str) -> Result<u32, ModelError> {
    u32::try_from(read_varu64(buf)?).map_err(|_| err(what))
}

/// One raw byte; `what` names the record on truncation.
#[inline]
fn read_u8(buf: &mut &[u8], what: &str) -> Result<u8, ModelError> {
    let (&b, rest) = buf.split_first().ok_or_else(|| err(format!("truncated {what}")))?;
    *buf = rest;
    Ok(b)
}

/// `N` raw bytes; `what` names the field on truncation.
fn read_array<const N: usize>(buf: &mut &[u8], what: &str) -> Result<[u8; N], ModelError> {
    if buf.len() < N {
        return Err(err(format!("truncated {what}")));
    }
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    Ok(head.try_into().expect("N bytes"))
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_varu64(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Reads a string written by [`put_str`] from the front of `buf`.
pub(crate) fn read_str(buf: &mut &[u8]) -> Result<String, ModelError> {
    let len = read_varu64(buf)?;
    let len = usize::try_from(len).ok().filter(|&l| l <= buf.len());
    let len = len.ok_or_else(|| err("truncated string"))?;
    let (raw, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(raw).map(str::to_owned).map_err(|_| err("invalid utf-8 in string"))
}

/// Reads a string written by [`put_str`].
pub fn get_str(buf: &mut Bytes) -> Result<String, ModelError> {
    advancing(buf, read_str)
}

/// A record count, rejected when it cannot possibly fit in the rest of
/// `buf` at `per_item_min` bytes per item; this bounds allocations when fed
/// corrupt data.
fn read_len(buf: &mut &[u8], per_item_min: usize, what: &str) -> Result<usize, ModelError> {
    let n = read_varu64(buf)?;
    match usize::try_from(n) {
        Ok(n) if per_item_min == 0 || n <= buf.len() / per_item_min => Ok(n),
        _ => Err(err(format!("implausible {what} count {n}"))),
    }
}

// --- entity encoders --------------------------------------------------------

/// Appends one account record (the same encoding the snapshot body uses).
pub fn put_account(buf: &mut BytesMut, a: &Account) {
    put_varu64(buf, a.id.index());
    put_vari64(buf, a.created_at.unix());
    buf.put_u8(a.visibility.tag());
    match a.country {
        None => put_varu64(buf, 0),
        Some(c) => put_varu64(buf, c.dense_index() as u64 + 1),
    }
    match a.city {
        None => put_varu64(buf, 0),
        Some(c) => put_varu64(buf, u64::from(c) + 1),
    }
    put_varu64(buf, u64::from(a.level));
    buf.put_u8(u8::from(a.facebook_linked));
}

/// Reads an account written by [`put_account`] from the front of `buf`.
pub(crate) fn read_account(buf: &mut &[u8]) -> Result<Account, ModelError> {
    let id = SteamId::from_index(read_varu64(buf)?);
    let created_at = SimTime::from_unix(read_vari64(buf)?);
    let visibility = Visibility::from_tag(read_u8(buf, "account")?)
        .ok_or_else(|| err("bad visibility tag"))?;
    let country = match read_varu64(buf)? {
        0 => None,
        c => Some(
            CountryCode::from_dense_index(c as usize - 1)
                .ok_or_else(|| err("bad country index"))?,
        ),
    };
    let city = match read_varu64(buf)? {
        0 => None,
        c => Some(u16::try_from(c - 1).map_err(|_| err("city index out of range"))?),
    };
    let level = u16::try_from(read_varu64(buf)?).map_err(|_| err("level out of range"))?;
    let facebook_linked = read_u8(buf, "account")? != 0;
    Ok(Account { id, created_at, visibility, country, city, level, facebook_linked })
}

/// Reads an account written by [`put_account`].
pub fn get_account(buf: &mut Bytes) -> Result<Account, ModelError> {
    advancing(buf, read_account)
}

/// Appends one catalog entry (the same encoding the snapshot body uses).
pub fn put_game(buf: &mut BytesMut, g: &Game) {
    put_varu64(buf, u64::from(g.app_id.0));
    put_str(buf, &g.name);
    buf.put_u8(g.app_type.tag());
    put_varu64(buf, u64::from(g.genres.bits()));
    put_varu64(buf, u64::from(g.price_cents));
    buf.put_u8(u8::from(g.multiplayer));
    put_vari64(buf, g.release_date.unix());
    match g.metacritic {
        None => buf.put_u8(0),
        Some(m) => {
            buf.put_u8(1);
            buf.put_u8(m);
        }
    }
    put_varu64(buf, g.achievements.len() as u64);
    for a in &g.achievements {
        put_str(buf, &a.name);
        buf.put_f32_le(a.global_completion_pct);
    }
}

/// Reads a catalog entry written by [`put_game`] from the front of `buf`.
pub(crate) fn read_game(buf: &mut &[u8]) -> Result<Game, ModelError> {
    let app_id = AppId(read_u32(buf, "app id overflow")?);
    let name = read_str(buf)?;
    let app_type = AppType::from_tag(read_u8(buf, "game")?).ok_or_else(|| err("bad app type"))?;
    let genres =
        GenreSet::from_bits(u16::try_from(read_varu64(buf)?).map_err(|_| err("genre bits"))?);
    let price_cents = read_u32(buf, "price overflow")?;
    let multiplayer = read_u8(buf, "game")? != 0;
    let release_date = SimTime::from_unix(read_vari64(buf)?);
    let metacritic = match read_u8(buf, "game")? {
        0 => None,
        _ => Some(read_u8(buf, "metacritic")?),
    };
    let n_ach = read_len(buf, 5, "achievement")?;
    let mut achievements = Vec::with_capacity(n_ach);
    for _ in 0..n_ach {
        let name = read_str(buf)?;
        let pct = f32::from_le_bytes(read_array(buf, "achievement pct")?);
        achievements.push(Achievement { name, global_completion_pct: pct });
    }
    Ok(Game {
        app_id,
        name,
        app_type,
        genres,
        price_cents,
        multiplayer,
        release_date,
        metacritic,
        achievements,
    })
}

/// Reads a catalog entry written by [`put_game`].
pub fn get_game(buf: &mut Bytes) -> Result<Game, ModelError> {
    advancing(buf, read_game)
}

/// Appends one group record (the same encoding the snapshot body uses).
pub fn put_group(buf: &mut BytesMut, g: &Group) {
    put_varu64(buf, u64::from(g.id.0));
    buf.put_u8(g.kind.tag());
    put_str(buf, &g.name);
}

/// Reads a group written by [`put_group`] from the front of `buf`.
pub(crate) fn read_group(buf: &mut &[u8]) -> Result<Group, ModelError> {
    let id = GroupId(read_u32(buf, "group id")?);
    let kind = GroupKind::from_tag(read_u8(buf, "group")?).ok_or_else(|| err("bad group kind"))?;
    let name = read_str(buf)?;
    Ok(Group { id, kind, name })
}

/// Reads a group written by [`put_group`].
pub fn get_group(buf: &mut Bytes) -> Result<Group, ModelError> {
    advancing(buf, read_group)
}

// --- chunk payload decoders -------------------------------------------------
//
// One decoder per per-record section of the snapshot container, each over
// the `&[u8]` of a chunk payload; `n` is the record count from the chunk's
// (checksummed) directory entry. Accounts, groups and catalog entries are
// read one record at a time with the decoders above.

/// Decodes `n` friendship records from the front of `buf`, handing each to
/// `f` in file order.
#[inline]
pub(crate) fn read_friendships(
    buf: &mut &[u8],
    n: usize,
    mut f: impl FnMut(Friendship),
) -> Result<(), ModelError> {
    for _ in 0..n {
        let a = read_u32(buf, "edge endpoint")?;
        let b = read_u32(buf, "edge endpoint")?;
        let created_at = SimTime::from_unix(read_vari64(buf)?);
        f(Friendship { a, b, created_at });
    }
    Ok(())
}

/// Decodes `n` libraries from the front of `buf` into `out`, replacing its
/// contents.
pub(crate) fn read_libraries(
    buf: &mut &[u8],
    n: usize,
    out: &mut FlatRows<OwnedGame>,
) -> Result<(), ModelError> {
    out.clear();
    out.ends.reserve(n);
    for _ in 0..n {
        let m = read_len(buf, 3, "owned game")?;
        out.items.reserve(m);
        for _ in 0..m {
            let app_id = AppId(read_u32(buf, "app id")?);
            let forever = read_u32(buf, "playtime")?;
            let two_weeks = read_u32(buf, "playtime")?;
            out.items.push(OwnedGame {
                app_id,
                playtime_forever_min: forever,
                playtime_2weeks_min: two_weeks,
            });
        }
        out.ends.push(out.items.len());
    }
    Ok(())
}

/// Decodes `n` membership lists from the front of `buf` into `out`,
/// replacing its contents.
pub(crate) fn read_memberships(
    buf: &mut &[u8],
    n: usize,
    out: &mut FlatRows<u32>,
) -> Result<(), ModelError> {
    out.clear();
    out.ends.reserve(n);
    for _ in 0..n {
        let m = read_len(buf, 1, "membership")?;
        out.items.reserve(m);
        for _ in 0..m {
            out.items.push(read_u32(buf, "group index")?);
        }
        out.ends.push(out.items.len());
    }
    Ok(())
}

// --- checkpoint segments ----------------------------------------------------
//
// A segment is an append-only file of length-prefixed records, each guarded by
// a checksum. The crawler's checkpoint journal is a directory of these;
// every flush rewrites one bounded segment atomically, so the failure mode of
// a crash is losing at most the unflushed tail, never corrupting history.

/// Magic prefix of a checkpoint segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"CSEG";
/// Version byte following [`SEGMENT_MAGIC`].
pub const SEGMENT_VERSION: u8 = 1;

/// 32-bit FNV-1a, used as the per-record checksum in checkpoint segments.
/// Not cryptographic: it guards against torn writes and bit rot, not malice.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Starts a new, empty segment buffer (magic + version header).
pub fn new_segment() -> BytesMut {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_slice(SEGMENT_MAGIC);
    buf.put_u8(SEGMENT_VERSION);
    buf
}

/// Appends one record to a segment: varint payload length, `u32` LE FNV-1a
/// checksum of the payload, then the payload bytes.
pub fn append_record(seg: &mut BytesMut, payload: &[u8]) {
    put_varu64(seg, payload.len() as u64);
    seg.put_u32_le(checksum32(payload));
    seg.put_slice(payload);
}

/// Decodes a segment into its record payloads.
///
/// Returns the records that decode cleanly plus a flag that is `true` when
/// the whole segment was consumed without damage. A truncated or corrupt tail
/// stops the scan at the last good record instead of failing the segment —
/// crash recovery must salvage everything before the tear. A bad header is a
/// hard error: nothing in the file can be trusted.
pub fn decode_segment(mut seg: Bytes) -> Result<(Vec<Bytes>, bool), ModelError> {
    if seg.remaining() < 5 || &seg.split_to(4)[..] != SEGMENT_MAGIC {
        return Err(err("bad segment magic"));
    }
    let version = seg.get_u8();
    if version != SEGMENT_VERSION {
        return Err(err(format!("unsupported segment version {version}")));
    }
    let mut records = Vec::new();
    while seg.has_remaining() {
        // Probe on a clone: a torn record must not consume bytes from `seg`
        // before we know it is whole.
        let mut probe = seg.clone();
        let Ok(len) = get_varu64(&mut probe) else { return Ok((records, false)) };
        let Ok(len) = usize::try_from(len) else { return Ok((records, false)) };
        if probe.remaining() < 4 + len {
            return Ok((records, false));
        }
        let sum = probe.get_u32_le();
        let payload = probe.split_to(len);
        if checksum32(&payload) != sum {
            return Ok((records, false));
        }
        records.push(payload);
        seg = probe;
    }
    Ok((records, true))
}

/// Writes `bytes` to `path` atomically: sibling temp file, fsync, rename.
///
/// A crash at any point leaves either the old file (or no file) or the
/// complete new one under `path` — never a truncated hybrid. The parent
/// directory is fsynced best-effort so the rename itself is durable.
///
/// The temp name carries the pid plus a process-wide counter, so concurrent
/// writers to the same target never share a temp file: each rename installs
/// one writer's complete bytes (last rename wins), never an interleaving.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), ModelError> {
    use std::io::Write;
    let tmp = temp_sibling(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    fsync_parent(path);
    Ok(())
}

/// Temp-file path next to `path`, unique per writer (pid + process-wide
/// counter), so concurrent writers to one target never share a temp file.
fn temp_sibling(path: &std::path::Path) -> std::path::PathBuf {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::path::PathBuf::from(tmp)
}

/// Best-effort fsync of `path`'s parent directory so a rename is durable.
fn fsync_parent(path: &std::path::Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
}

// --- snapshot ---------------------------------------------------------------

/// Fully decodes an in-memory v3 snapshot.
pub fn decode_snapshot(buf: Bytes) -> Result<Snapshot, ModelError> {
    decode_snapshot_jobs(buf, 1)
}

/// Like [`decode_snapshot`], verifying and decoding chunks on up to `jobs`
/// worker threads: a [`SnapshotReader`] over `buf`, fully materialized.
pub fn decode_snapshot_jobs(buf: Bytes, jobs: usize) -> Result<Snapshot, ModelError> {
    SnapshotReader::from_bytes(buf)?.materialize(jobs)
}

/// Version byte of the chunked columnar snapshot container, the only one.
pub const VERSION_CHUNKED: u8 = 3;

/// Records per chunk by section, as chosen by this writer. The caps are
/// recorded in the directory, so readers never assume these exact values.
pub(crate) fn default_chunk_cap(id: u8) -> u64 {
    match id {
        // Friendship records are small (three varints); catalog entries carry
        // names + achievement lists and are by far the fattest.
        SECTION_FRIENDSHIPS => 16 * 1024,
        SECTION_CATALOG => 1024,
        _ => 4 * 1024,
    }
}

/// Directory entry for one chunk of a v3 section.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChunkEntry {
    /// File offset of the chunk's frame header.
    pub offset: u64,
    /// Payload bytes, excluding the frame header.
    pub len: u64,
    pub n_records: u64,
    /// FNV-1a of the payload.
    pub sum: u32,
}

/// Directory for one v3 section.
#[derive(Clone, Debug)]
pub(crate) struct SectionDir {
    pub id: u8,
    /// Records per chunk; every chunk but the last holds exactly this many.
    pub cap: u64,
    pub total_records: u64,
    pub chunks: Vec<ChunkEntry>,
}

/// Encoded byte length of a varint.
pub(crate) fn varu64_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Byte length of a chunk's frame header: section id, record count,
/// payload length, payload checksum.
pub(crate) fn frame_len(n_records: u64, payload_len: u64) -> u64 {
    1 + varu64_len(n_records) + varu64_len(payload_len) + 4
}

fn section_records(s: &Snapshot, id: u8) -> usize {
    match id {
        SECTION_ACCOUNTS => s.accounts.len(),
        SECTION_FRIENDSHIPS => s.friendships.len(),
        SECTION_OWNERSHIPS => s.ownerships.len(),
        SECTION_GROUPS => s.groups.len(),
        SECTION_MEMBERSHIPS => s.memberships.len(),
        SECTION_CATALOG => s.catalog.len(),
        _ => unreachable!("unknown section id {id}"),
    }
}

/// `(section_id, first_record, one_past_last)` for every chunk, in file order.
fn v3_chunk_specs(s: &Snapshot, cap: fn(u8) -> u64) -> Vec<(u8, usize, usize)> {
    let mut specs = Vec::new();
    for &id in &SECTION_IDS {
        let total = section_records(s, id);
        let cap = cap(id).max(1) as usize;
        let mut start = 0;
        while start < total {
            let end = (start + cap).min(total);
            specs.push((id, start, end));
            start = end;
        }
    }
    specs
}

/// Encodes records `[start, end)` of one section as a v3 chunk payload:
/// records back-to-back, no leading count (counts live in the directory).
fn encode_v3_chunk_payload(s: &Snapshot, id: u8, start: usize, end: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity((end - start) * 12 + 16);
    match id {
        SECTION_ACCOUNTS => {
            for a in &s.accounts[start..end] {
                put_account(&mut buf, a);
            }
        }
        SECTION_FRIENDSHIPS => {
            for e in &s.friendships[start..end] {
                put_varu64(&mut buf, u64::from(e.a));
                put_varu64(&mut buf, u64::from(e.b));
                put_vari64(&mut buf, e.created_at.unix());
            }
        }
        SECTION_OWNERSHIPS => {
            for lib in &s.ownerships[start..end] {
                put_varu64(&mut buf, lib.len() as u64);
                for o in lib {
                    put_varu64(&mut buf, u64::from(o.app_id.0));
                    put_varu64(&mut buf, u64::from(o.playtime_forever_min));
                    put_varu64(&mut buf, u64::from(o.playtime_2weeks_min));
                }
            }
        }
        SECTION_GROUPS => {
            for g in &s.groups[start..end] {
                put_group(&mut buf, g);
            }
        }
        SECTION_MEMBERSHIPS => {
            for ms in &s.memberships[start..end] {
                put_varu64(&mut buf, ms.len() as u64);
                for &g in ms {
                    put_varu64(&mut buf, u64::from(g));
                }
            }
        }
        SECTION_CATALOG => {
            for g in &s.catalog[start..end] {
                put_game(&mut buf, g);
            }
        }
        _ => unreachable!("unknown section id {id}"),
    }
    buf
}

/// Magic, version, and shared header of a v3 file.
fn encode_v3_header(s: &Snapshot) -> BytesMut {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION_CHUNKED);
    put_vari64(&mut buf, s.collected_at.unix());
    put_varu64(&mut buf, s.scanned_id_space);
    buf
}

/// Appends the v3 trailer (directory + header/trailer checksums + offset
/// pointer) to `buf`; `trailer_offset` is the file offset the trailer
/// starts at.
pub(crate) fn append_v3_trailer(buf: &mut BytesMut, dirs: &[SectionDir], header_sum: u32, trailer_offset: u64) {
    let tstart = buf.len();
    put_varu64(buf, dirs.len() as u64);
    for d in dirs {
        buf.put_u8(d.id);
        put_varu64(buf, d.cap);
        put_varu64(buf, d.total_records);
        put_varu64(buf, d.chunks.len() as u64);
        for c in &d.chunks {
            put_varu64(buf, c.offset);
            put_varu64(buf, c.len);
            put_varu64(buf, c.n_records);
            buf.put_u32_le(c.sum);
        }
    }
    buf.put_u32_le(header_sum);
    let trailer_sum = checksum32(&buf[tstart..]);
    buf.put_u32_le(trailer_sum);
    buf.put_u64_le(trailer_offset);
}

/// Serializes a snapshot into the v3 container in memory, encoding chunks on
/// up to `jobs` workers. Byte-identical for every `jobs >= 1`, and to what
/// [`write_snapshot_v3`] streams to disk: both run the same writer.
pub fn encode_snapshot_v3(s: &Snapshot, jobs: usize) -> Bytes {
    encode_snapshot_v3_caps(s, jobs, default_chunk_cap)
}

pub(crate) fn encode_snapshot_v3_caps(s: &Snapshot, jobs: usize, cap: fn(u8) -> u64) -> Bytes {
    let mut buf = Vec::new();
    stream_v3(&mut buf, s, jobs, cap).expect("writing to a Vec cannot fail");
    Bytes::from(buf)
}

/// Writes a snapshot in the v3 container without ever materializing the
/// full encoding: chunks stream to a sibling temp file, then fsync + rename
/// as in [`write_atomic`]. Output bytes are identical to
/// [`encode_snapshot_v3`] for any `jobs`.
pub fn write_snapshot_v3(
    path: &std::path::Path,
    s: &Snapshot,
    jobs: usize,
) -> Result<(), ModelError> {
    let tmp = temp_sibling(path);
    let written = (|| -> Result<(), ModelError> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        stream_v3(&mut f, s, jobs, default_chunk_cap)?;
        let f = f.into_inner().map_err(|e| err(format!("snapshot flush failed: {e}")))?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    fsync_parent(path);
    Ok(())
}

/// Writes the v3 encoding of `s` to `out`. Chunks are encoded in parallel
/// windows of `4 × jobs` and drained in file order, so peak transient memory
/// is one window of encoded chunks and the bytes never depend on `jobs`.
fn stream_v3(
    out: &mut impl std::io::Write,
    s: &Snapshot,
    jobs: usize,
    cap: fn(u8) -> u64,
) -> Result<(), ModelError> {
    let header = encode_v3_header(s);
    let header_sum = checksum32(&header);
    out.write_all(&header)?;
    let mut offset = header.len() as u64;

    let specs = v3_chunk_specs(s, cap);
    let mut dirs: Vec<SectionDir> = SECTION_IDS
        .iter()
        .map(|&id| SectionDir {
            id,
            cap: cap(id).max(1),
            total_records: section_records(s, id) as u64,
            chunks: Vec::new(),
        })
        .collect();
    for window in specs.chunks(jobs.max(1) * 4) {
        let encoded = steam_par::run_chunks(jobs, window.len(), 1, |j, _| {
            let (id, start, stop) = window[j];
            let payload = encode_v3_chunk_payload(s, id, start, stop);
            let sum = checksum32(&payload);
            (payload, sum)
        });
        for (&(id, start, stop), (payload, sum)) in window.iter().zip(&encoded) {
            let mut hdr = BytesMut::with_capacity(24);
            hdr.put_u8(id);
            put_varu64(&mut hdr, (stop - start) as u64);
            put_varu64(&mut hdr, payload.len() as u64);
            hdr.put_u32_le(*sum);
            out.write_all(&hdr)?;
            out.write_all(payload)?;
            dirs[id as usize].chunks.push(ChunkEntry {
                offset,
                len: payload.len() as u64,
                n_records: (stop - start) as u64,
                sum: *sum,
            });
            offset += hdr.len() as u64 + payload.len() as u64;
        }
    }

    let mut trailer = BytesMut::with_capacity(64 + specs.len() * 24);
    append_v3_trailer(&mut trailer, &dirs, header_sum, offset);
    out.write_all(&trailer)?;
    Ok(())
}

/// Serializes a week panel (Figure 12 sample).
pub fn encode_panel(p: &WeekPanel) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + p.users.len() * 16);
    buf.put_slice(b"CSWP");
    buf.put_u8(PANEL_VERSION);
    put_varu64(&mut buf, p.users.len() as u64);
    for (u, days) in p.users.iter().zip(&p.daily_minutes) {
        put_varu64(&mut buf, u64::from(*u));
        for &m in days {
            put_varu64(&mut buf, u64::from(m));
        }
    }
    buf.freeze()
}

/// Deserializes a week panel; the inverse of [`encode_panel`].
pub fn decode_panel(buf: Bytes) -> Result<WeekPanel, ModelError> {
    let mut buf: &[u8] = &buf;
    if buf.len() < 5 || &buf[..4] != b"CSWP" {
        return Err(err("bad panel magic"));
    }
    if buf[4] != PANEL_VERSION {
        return Err(err("unsupported panel version"));
    }
    buf = &buf[5..];
    let n = read_len(&mut buf, 8, "panel user")?;
    let mut panel = WeekPanel { users: Vec::with_capacity(n), daily_minutes: Vec::with_capacity(n) };
    for _ in 0..n {
        panel.users.push(read_u32(&mut buf, "panel user")?);
        let mut days = [0u32; 7];
        for d in &mut days {
            *d = read_u32(&mut buf, "panel minutes")?;
        }
        panel.daily_minutes.push(days);
    }
    if !buf.is_empty() {
        return Err(err("trailing bytes after panel"));
    }
    Ok(panel)
}

/// Reads and fully decodes a snapshot file.
pub fn read_snapshot(path: &std::path::Path) -> Result<Snapshot, ModelError> {
    read_snapshot_jobs(path, 1)
}

/// Reads a snapshot file into memory and decodes it on up to `jobs` workers.
pub fn read_snapshot_jobs(path: &std::path::Path, jobs: usize) -> Result<Snapshot, ModelError> {
    let raw = std::fs::read(path)?;
    decode_snapshot_jobs(Bytes::from(raw), jobs)
}

/// Deterministic synthetic snapshot used by codec and reader tests: `n`
/// users with edges, libraries, groups, and a catalog, all invariants valid.
#[cfg(test)]
pub(crate) fn synthetic_snapshot(n: usize) -> Snapshot {
    let n_games = (n / 4).max(3);
    let n_groups = (n / 8).max(2);
    let accounts: Vec<Account> = (0..n)
        .map(|i| Account {
            id: SteamId::from_index(i as u64 * 2),
            created_at: SimTime::from_ymd(2005 + (i % 8) as i32, 1 + (i % 12) as u32, 1 + (i % 28) as u32),
            visibility: if i % 3 == 0 { Visibility::Private } else { Visibility::Public },
            country: if i % 2 == 0 { Some(CountryCode::UnitedStates) } else { None },
            city: if i % 5 == 0 { Some((i % 300) as u16) } else { None },
            level: (i % 20) as u16,
            facebook_linked: i % 7 == 0,
        })
        .collect();
    let mut friendships = Vec::new();
    for i in 0..n.saturating_sub(1) {
        friendships.push(Friendship::new(
            i as u32,
            (i + 1) as u32,
            SimTime::from_ymd(2009 + (i % 5) as i32, 6, 15),
        ));
        if i + 7 < n && i % 3 == 0 {
            friendships.push(Friendship::new(
                i as u32,
                (i + 7) as u32,
                SimTime::from_ymd(2008 + (i % 6) as i32, 3, 3),
            ));
        }
    }
    let catalog: Vec<Game> = (0..n_games)
        .map(|g| Game {
            app_id: AppId(10 + 10 * g as u32),
            name: format!("game-{g}"),
            app_type: AppType::Game,
            genres: GenreSet::EMPTY,
            price_cents: (g as u32 % 7) * 499,
            multiplayer: g % 2 == 0,
            release_date: SimTime::from_ymd(2007, 1, 1),
            metacritic: if g % 3 == 0 { Some(60 + (g % 40) as u8) } else { None },
            achievements: if g % 4 == 0 {
                vec![Achievement { name: format!("ach-{g}"), global_completion_pct: 12.5 }]
            } else {
                Vec::new()
            },
        })
        .collect();
    let ownerships: Vec<Vec<OwnedGame>> = (0..n)
        .map(|i| {
            (0..n_games)
                .filter(|g| (i + g) % 3 == 0)
                .map(|g| OwnedGame {
                    app_id: AppId(10 + 10 * g as u32),
                    playtime_forever_min: ((i * 31 + g * 7) % 9000) as u32,
                    playtime_2weeks_min: ((i * 31 + g * 7) % 9000 / 10) as u32,
                })
                .collect()
        })
        .collect();
    let groups: Vec<Group> = (0..n_groups)
        .map(|g| Group {
            id: GroupId(100 + g as u32),
            kind: if g % 2 == 0 { GroupKind::SingleGame } else { GroupKind::GameServer },
            name: format!("group-{g}"),
        })
        .collect();
    let memberships: Vec<Vec<u32>> = (0..n)
        .map(|i| (0..n_groups as u32).filter(|g| (i as u32 + g).is_multiple_of(4)).collect())
        .collect();
    Snapshot {
        collected_at: SimTime::from_ymd(2013, 11, 5),
        scanned_id_space: (n as u64 * 2).max(1),
        accounts,
        friendships,
        ownerships,
        groups,
        memberships,
        catalog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Genre;

    fn sample_snapshot() -> Snapshot {
        let accounts = vec![
            Account {
                id: SteamId::from_index(0),
                created_at: SimTime::from_ymd(2004, 2, 2),
                visibility: Visibility::Public,
                country: Some(CountryCode::UnitedStates),
                city: Some(12),
                level: 3,
                facebook_linked: true,
            },
            Account {
                id: SteamId::from_index(5),
                created_at: SimTime::from_ymd(2012, 7, 9),
                visibility: Visibility::Private,
                country: None,
                city: None,
                level: 0,
                facebook_linked: false,
            },
        ];
        let catalog = vec![Game {
            app_id: AppId(440),
            name: "Team Fortress 2".into(),
            app_type: AppType::Game,
            genres: GenreSet::new().with(Genre::Action).with(Genre::FreeToPlay),
            price_cents: 0,
            multiplayer: true,
            release_date: SimTime::from_ymd(2007, 10, 10),
            metacritic: Some(92),
            achievements: vec![Achievement { name: "first_blood".into(), global_completion_pct: 43.5 }],
        }];
        Snapshot {
            collected_at: SimTime::from_ymd(2013, 11, 5),
            scanned_id_space: 10,
            accounts,
            friendships: vec![Friendship::new(0, 1, SimTime::from_ymd(2012, 8, 1))],
            ownerships: vec![
                vec![OwnedGame { app_id: AppId(440), playtime_forever_min: 6000, playtime_2weeks_min: 90 }],
                vec![],
            ],
            groups: vec![Group { id: GroupId(9), kind: GroupKind::GameServer, name: "srv".into() }],
            memberships: vec![vec![0], vec![]],
            catalog,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample_snapshot();
        let bytes = encode_snapshot_v3(&s, 1);
        let d = decode_snapshot(bytes).unwrap();
        assert_eq!(d.collected_at, s.collected_at);
        assert_eq!(d.scanned_id_space, s.scanned_id_space);
        assert_eq!(d.accounts.len(), 2);
        assert_eq!(d.accounts[0].id, s.accounts[0].id);
        assert_eq!(d.accounts[0].country, s.accounts[0].country);
        assert_eq!(d.accounts[0].friend_cap(), s.accounts[0].friend_cap());
        assert_eq!(d.friendships, s.friendships);
        assert_eq!(d.ownerships, s.ownerships);
        assert_eq!(d.catalog[0].name, "Team Fortress 2");
        assert_eq!(d.catalog[0].achievements, s.catalog[0].achievements);
        assert_eq!(d.groups[0].kind, GroupKind::GameServer);
        assert_eq!(d.memberships, s.memberships);
        d.validate().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(decode_snapshot(Bytes::from_static(b"NOPE\x01")).is_err());
        assert!(decode_snapshot(Bytes::new()).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let mut raw = encode_snapshot_v3(&sample_snapshot(), 1).to_vec();
        raw[4] = 99;
        assert!(decode_snapshot(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let raw = encode_snapshot_v3(&sample_snapshot(), 1);
        // Chopping the buffer at any point must produce an error, not a panic
        // or a silently-wrong snapshot.
        for cut in 0..raw.len() {
            let r = decode_snapshot(raw.slice(..cut));
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut raw = encode_snapshot_v3(&sample_snapshot(), 1).to_vec();
        raw.push(0);
        assert!(decode_snapshot(Bytes::from(raw)).is_err());
    }

    #[test]
    fn panel_round_trips() {
        let p = WeekPanel {
            users: vec![3, 9],
            daily_minutes: vec![[0, 10, 20, 30, 40, 50, 60], [5; 7]],
        };
        let d = decode_panel(encode_panel(&p)).unwrap();
        assert_eq!(d.users, p.users);
        assert_eq!(d.daily_minutes, p.daily_minutes);
    }

    #[test]
    fn varint_extremes_round_trip() {
        let mut buf = BytesMut::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            put_varu64(&mut buf, v);
        }
        let mut b = buf.freeze();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(get_varu64(&mut b).unwrap(), v);
        }
        let mut buf = BytesMut::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            put_vari64(&mut buf, v);
        }
        let mut b = buf.freeze();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(get_vari64(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn segment_round_trips() {
        let mut seg = new_segment();
        let payloads: Vec<&[u8]> = vec![b"", b"a", b"hello world", &[0xff; 300]];
        for p in &payloads {
            append_record(&mut seg, p);
        }
        let (records, clean) = decode_segment(seg.freeze()).unwrap();
        assert!(clean);
        assert_eq!(records.len(), payloads.len());
        for (r, p) in records.iter().zip(&payloads) {
            assert_eq!(&r[..], *p);
        }
    }

    #[test]
    fn empty_segment_is_clean() {
        let (records, clean) = decode_segment(new_segment().freeze()).unwrap();
        assert!(clean);
        assert!(records.is_empty());
    }

    #[test]
    fn segment_rejects_bad_header() {
        assert!(decode_segment(Bytes::from_static(b"NOPE\x01")).is_err());
        assert!(decode_segment(Bytes::from_static(b"CSE")).is_err());
        let mut seg = BytesMut::new();
        seg.put_slice(SEGMENT_MAGIC);
        seg.put_u8(99);
        assert!(decode_segment(seg.freeze()).is_err());
    }

    #[test]
    fn truncated_tail_salvages_whole_records() {
        let mut seg = new_segment();
        append_record(&mut seg, b"first");
        append_record(&mut seg, b"second");
        let full = seg.freeze();
        // Chopping anywhere inside the second record must still yield the
        // first, flagged unclean; never a panic or a hard error.
        let second_start = 5 + 1 + 4 + 5; // header + len + sum + "first"
        for cut in second_start + 1..full.len() {
            let (records, clean) = decode_segment(full.slice(..cut)).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(&records[0][..], b"first");
            assert!(!clean, "cut at {cut}");
        }
        let (records, clean) = decode_segment(full.clone()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(clean);
    }

    #[test]
    fn checksum_mismatch_stops_decode() {
        let mut seg = new_segment();
        append_record(&mut seg, b"good");
        let flip_at = seg.len() - 1; // last payload byte of "good"
        append_record(&mut seg, b"tail");
        let mut raw = seg.freeze().to_vec();
        raw[flip_at] ^= 0x40;
        let (records, clean) = decode_segment(Bytes::from(raw)).unwrap();
        // The corrupted record and everything after it are dropped.
        assert!(records.is_empty());
        assert!(!clean);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("steam-codec-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_concurrent_writers_never_interleave() {
        // Regression test: the temp-file suffix used to be a fixed ".tmp",
        // so two concurrent writers shared one temp file and the rename
        // could install an interleaving of their bytes.
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join(format!("steam-codec-concurrent-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = Arc::new(dir.join("contended.bin"));
        let mut handles = Vec::new();
        for w in 0..8u8 {
            let path = Arc::clone(&path);
            handles.push(std::thread::spawn(move || {
                let body = vec![w; 64 * 1024];
                for _ in 0..20 {
                    write_atomic(&path, &body).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_bytes = std::fs::read(&*path).unwrap();
        assert_eq!(final_bytes.len(), 64 * 1024);
        assert!(
            final_bytes.iter().all(|&b| b == final_bytes[0]),
            "file mixes bytes from different writers"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("steam-model-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let s = sample_snapshot();
        write_snapshot_v3(&path, &s, 1).unwrap();
        let d = read_snapshot(&path).unwrap();
        assert_eq!(d.n_users(), s.n_users());
        let d = read_snapshot_jobs(&path, 4).unwrap();
        assert_eq!(d.accounts, s.accounts);
        std::fs::remove_dir_all(&dir).ok();
    }

    // --- v3 (chunked columnar) ----------------------------------------------

    fn cap3(_: u8) -> u64 {
        3
    }

    #[test]
    fn chunked_round_trips_multi_chunk() {
        let s = synthetic_snapshot(17);
        for jobs in [1, 4] {
            let bytes = encode_snapshot_v3_caps(&s, jobs, cap3);
            assert_eq!(bytes[4], VERSION_CHUNKED);
            for decode_jobs in [1, 4] {
                let d = decode_snapshot_jobs(bytes.clone(), decode_jobs).unwrap();
                assert_eq!(d.collected_at, s.collected_at);
                assert_eq!(d.scanned_id_space, s.scanned_id_space);
                assert_eq!(d.accounts, s.accounts);
                assert_eq!(d.friendships, s.friendships);
                assert_eq!(d.ownerships, s.ownerships);
                assert_eq!(d.groups, s.groups);
                assert_eq!(d.memberships, s.memberships);
                assert_eq!(d.catalog, s.catalog);
                d.validate().unwrap();
            }
        }
    }

    #[test]
    fn chunked_round_trips_default_caps() {
        let s = sample_snapshot();
        let d = decode_snapshot(encode_snapshot_v3(&s, 2)).unwrap();
        assert_eq!(d.accounts, s.accounts);
        assert_eq!(d.ownerships, s.ownerships);
        assert_eq!(d.catalog, s.catalog);
    }

    #[test]
    fn chunked_handles_empty_sections() {
        let s = Snapshot { scanned_id_space: 1, ..Snapshot::default() };
        let d = decode_snapshot(encode_snapshot_v3(&s, 1)).unwrap();
        assert_eq!(d.n_users(), 0);
        assert!(d.catalog.is_empty());
    }

    #[test]
    fn chunked_encode_is_jobs_invariant() {
        let s = synthetic_snapshot(17);
        let serial = encode_snapshot_v3_caps(&s, 1, cap3);
        let parallel = encode_snapshot_v3_caps(&s, 6, cap3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn streamed_writer_matches_in_memory_encoder() {
        let dir = std::env::temp_dir().join(format!("steam-model-v3w-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.v3");
        let s = synthetic_snapshot(23);
        write_snapshot_v3(&path, &s, 3).unwrap();
        let streamed = std::fs::read(&path).unwrap();
        assert_eq!(Bytes::from(streamed), encode_snapshot_v3(&s, 1));
        let d = read_snapshot(&path).unwrap();
        assert_eq!(d.accounts, s.accounts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_rejects_truncation_anywhere() {
        let raw = encode_snapshot_v3_caps(&synthetic_snapshot(8), 1, cap3);
        for cut in 0..raw.len() {
            let r = decode_snapshot(raw.slice(..cut));
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn chunked_rejects_corrupt_byte_everywhere() {
        let clean = encode_snapshot_v3_caps(&synthetic_snapshot(8), 1, cap3);
        for at in 0..clean.len() {
            let mut raw = clean.to_vec();
            raw[at] ^= 0x01;
            let r = decode_snapshot(Bytes::from(raw));
            assert!(r.is_err(), "flip at {at} decoded successfully");
        }
    }

    #[test]
    fn chunked_names_section_and_chunk() {
        let s = synthetic_snapshot(12);
        let clean = encode_snapshot_v3_caps(&s, 1, cap3);
        // Locate chunk 1 of the accounts section via the directory, then
        // corrupt one payload byte so only its checksum can notice.
        let e = SnapshotReader::from_bytes(clean.clone()).unwrap().dir(SECTION_ACCOUNTS).chunks[1];
        let hdr_len = frame_len(e.n_records, e.len);
        let mut raw = clean.to_vec();
        raw[(e.offset + hdr_len) as usize] ^= 0xff;
        let msg = decode_snapshot(Bytes::from(raw)).unwrap_err().to_string();
        assert!(
            msg.contains("accounts") && msg.contains("chunk 1"),
            "error should name section and chunk: {msg}"
        );
    }

}
