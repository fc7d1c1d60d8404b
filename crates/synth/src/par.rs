//! Chunk sizes of the generator stages.
//!
//! The decomposition contract: every stage splits its item range into chunks
//! of a **compile-time size** (never a function of the worker count), gives
//! each chunk its own seed stream (see [`crate::seed`]), and runs the chunks
//! through `steam_par::run_chunks`, which returns them in chunk-index order.
//! The output is therefore byte-identical for any `jobs`, including
//! `jobs = 1`, which runs inline without spawning.

/// Users per chunk in the per-user stages (accounts, ownership, groups,
/// evolve). Changing this re-baselines every seed-sensitive assertion.
pub const USERS_CHUNK: usize = 4096;
/// Products per chunk in catalog generation.
pub const PRODUCTS_CHUNK: usize = 1024;
/// Games per chunk in the achievement-assignment pass.
pub const GAMES_CHUNK: usize = 512;
/// Edges per chunk when drawing friendship timestamps.
pub const EDGES_CHUNK: usize = 16_384;
/// Panel users per chunk when drawing the seven-day diaries.
pub const PANEL_CHUNK: usize = 1_024;
