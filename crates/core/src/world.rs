//! A uniform view over a snapshot's six sections: fully materialized in
//! memory, or streamed chunk-by-chunk from a chunked (v3) container file.
//!
//! Every analysis that walks a whole section does it through a visitor on
//! [`WorldView`], so the in-memory and streaming paths share one loop body
//! and produce byte-identical results. In streaming mode only the small
//! shared sections (catalog, groups) are cached; the per-user sections
//! (accounts, libraries, memberships) and the friendship edges are decoded
//! one chunk at a time, bounding resident memory by one chunk per
//! concurrent pass instead of the whole section.
//!
//! The streaming visitors decode in place: friendship and account records
//! go from the chunk's bytes (borrowed from the file mapping) straight to
//! the closure, and library and membership chunks are refilled into one
//! reused [`FlatRows`] buffer per pass, never a `Vec` per user. Every chunk
//! access still verifies the chunk's checksum. Analyses over the friendship
//! edges are built to need few passes — one per distinct question (the
//! per-year degree table answers Table 4's ten windows and Figure 2's five
//! in one pass each) — since each pass re-reads and re-verifies every edge
//! chunk.
//!
//! Chunk reads that fail mid-pass abort the process with a message naming
//! the failing section and chunk. The reader validates the header, the
//! chunk directory, and both container checksums at open time, so a
//! mid-pass failure means the file was corrupted or truncated underneath a
//! running analysis — there is no useful partial result to salvage.

use steam_graph::EdgeChunks;
use steam_model::{
    Account, FlatRows, Friendship, Game, Group, ModelError, OwnedGame, Snapshot, SnapshotReader,
};

/// Visitor for [`WorldView::for_each_membership_lib`]: receives the user
/// index, that user's group indices, and their library.
pub type MembershipLibVisitor<'a> = dyn FnMut(usize, &[u32], &[OwnedGame]) + 'a;

/// A borrowed world: either a fully decoded [`Snapshot`] or a chunk-streaming
/// [`SnapshotReader`] over a v3 file.
pub enum WorldView<'a> {
    Mem(&'a Snapshot),
    Stream(StreamView<'a>),
}

/// The streaming side of [`WorldView`]: the open reader plus the cached
/// small sections.
pub struct StreamView<'a> {
    pub reader: &'a SnapshotReader,
    catalog: Vec<Game>,
    groups: Vec<Group>,
}

/// Adapter exposing a reader's friendship section as [`EdgeChunks`] for the
/// two-pass chunked CSR build.
pub struct FriendshipChunks<'a>(pub &'a SnapshotReader);

impl EdgeChunks for FriendshipChunks<'_> {
    fn n_chunks(&self) -> usize {
        self.0.n_friendship_chunks()
    }

    fn for_each(&self, k: usize, f: &mut dyn FnMut(u32, u32)) {
        chunk_or_die(self.0.visit_friendship_chunk(k, |e| f(e.a, e.b)), "friendships", k);
    }
}

fn chunk_or_die<T>(r: Result<T, ModelError>, section: &str, k: usize) -> T {
    r.unwrap_or_else(|e| {
        panic!("streaming pass over {section} section failed at chunk {k}: {e}")
    })
}

impl<'a> WorldView<'a> {
    pub fn mem(snapshot: &'a Snapshot) -> Self {
        WorldView::Mem(snapshot)
    }

    /// Builds a streaming view, eagerly decoding (and verifying) the catalog
    /// and groups sections, which every report pass consults at random.
    pub fn stream(reader: &'a SnapshotReader) -> Result<Self, ModelError> {
        Ok(WorldView::Stream(StreamView {
            catalog: reader.catalog()?,
            groups: reader.groups()?,
            reader,
        }))
    }

    pub fn n_users(&self) -> usize {
        match self {
            WorldView::Mem(s) => s.n_users(),
            WorldView::Stream(v) => v.reader.n_users(),
        }
    }

    /// Total friendship edges, from the edge list (mem) or the chunk
    /// directory (stream) — no edge decode either way.
    pub fn n_friendships(&self) -> u64 {
        match self {
            WorldView::Mem(s) => s.n_friendships() as u64,
            WorldView::Stream(v) => v.reader.n_friendships(),
        }
    }

    pub fn catalog(&self) -> &[Game] {
        match self {
            WorldView::Mem(s) => &s.catalog,
            WorldView::Stream(v) => &v.catalog,
        }
    }

    pub fn groups(&self) -> &[Group] {
        match self {
            WorldView::Mem(s) => &s.groups,
            WorldView::Stream(v) => &v.groups,
        }
    }

    /// Calls `f(u, &account)` for every user in index order.
    pub fn for_each_account(&self, f: &mut dyn FnMut(usize, &Account)) {
        match self {
            WorldView::Mem(s) => {
                for (u, a) in s.accounts.iter().enumerate() {
                    f(u, a);
                }
            }
            WorldView::Stream(v) => {
                for k in 0..v.reader.n_account_chunks() {
                    let base = v.reader.account_chunk_start(k);
                    let visited = v.reader.visit_account_chunk(k, |i, a| f(base + i, &a));
                    chunk_or_die(visited, "accounts", k);
                }
            }
        }
    }

    /// Calls `f(&edge)` for every friendship in file order.
    pub fn for_each_friendship(&self, f: &mut dyn FnMut(&Friendship)) {
        match self {
            WorldView::Mem(s) => {
                for e in &s.friendships {
                    f(e);
                }
            }
            WorldView::Stream(v) => {
                for k in 0..v.reader.n_friendship_chunks() {
                    chunk_or_die(v.reader.visit_friendship_chunk(k, |e| f(&e)), "friendships", k);
                }
            }
        }
    }

    /// Calls `f(u, &library)` for every user in index order.
    pub fn for_each_library(&self, f: &mut dyn FnMut(usize, &[OwnedGame])) {
        match self {
            WorldView::Mem(s) => {
                for (u, lib) in s.ownerships.iter().enumerate() {
                    f(u, lib);
                }
            }
            WorldView::Stream(v) => {
                let mut rows = FlatRows::new();
                for k in 0..v.reader.n_library_chunks() {
                    let base = v.reader.library_chunk_start(k);
                    chunk_or_die(v.reader.library_chunk_into(k, &mut rows), "ownerships", k);
                    for (i, lib) in rows.rows().enumerate() {
                        f(base + i, lib);
                    }
                }
            }
        }
    }

    /// Calls `f(u, &group_indices)` for every user in index order.
    pub fn for_each_memberships(&self, f: &mut dyn FnMut(usize, &[u32])) {
        match self {
            WorldView::Mem(s) => {
                for (u, ms) in s.memberships.iter().enumerate() {
                    f(u, ms);
                }
            }
            WorldView::Stream(v) => {
                let mut rows = FlatRows::new();
                for k in 0..v.reader.n_membership_chunks() {
                    let base = v.reader.membership_chunk_start(k);
                    chunk_or_die(v.reader.membership_chunk_into(k, &mut rows), "memberships", k);
                    for (i, ms) in rows.rows().enumerate() {
                        f(base + i, ms);
                    }
                }
            }
        }
    }

    /// Calls `f(u, &group_indices, &library)` for every user in index order.
    /// The memberships and ownerships sections may be chunked on different
    /// boundaries, so the streaming path advances two chunk cursors in
    /// lockstep — at most one chunk of each section is resident.
    pub fn for_each_membership_lib(&self, f: &mut MembershipLibVisitor<'_>) {
        match self {
            WorldView::Mem(s) => {
                for (u, ms) in s.memberships.iter().enumerate() {
                    f(u, ms, &s.ownerships[u]);
                }
            }
            WorldView::Stream(v) => {
                let n = v.reader.n_users();
                let mut ms_rows = FlatRows::new();
                let mut ms_base = 0usize;
                let mut ms_k = 0usize;
                let mut lib_rows = FlatRows::new();
                let mut lib_base = 0usize;
                let mut lib_k = 0usize;
                for u in 0..n {
                    while u >= ms_base + ms_rows.len() {
                        ms_base = v.reader.membership_chunk_start(ms_k);
                        let read = v.reader.membership_chunk_into(ms_k, &mut ms_rows);
                        chunk_or_die(read, "memberships", ms_k);
                        ms_k += 1;
                    }
                    while u >= lib_base + lib_rows.len() {
                        lib_base = v.reader.library_chunk_start(lib_k);
                        let read = v.reader.library_chunk_into(lib_k, &mut lib_rows);
                        chunk_or_die(read, "ownerships", lib_k);
                        lib_k += 1;
                    }
                    f(u, ms_rows.row(u - ms_base), lib_rows.row(u - lib_base));
                }
            }
        }
    }
}
