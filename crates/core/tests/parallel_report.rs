//! End-to-end determinism contract of the parallel report engine: the full
//! experiment set must render byte-identical text for any worker count
//! (`report --jobs 1` vs `--jobs 8` in CLI terms), streamed or in memory.

use steam_analysis::{render_full_report, render_full_report_timed, Ctx, ReportInput};
use steam_model::{codec, SnapshotReader};
use steam_synth::{Generator, SynthConfig};

#[test]
fn full_report_is_byte_identical_for_any_job_count() {
    // Smaller than the unit-test world: the full report (Table 4 included)
    // renders three times here.
    let mut cfg = SynthConfig::small(2016);
    cfg.n_users = 8_000;
    cfg.n_groups = 250;
    let world = Generator::new(cfg).generate_world();
    let ctx = Ctx::new(&world.snapshot);
    let second = Ctx::new(&world.second_snapshot);
    let input = ReportInput { ctx: &ctx, second: Some(&second), panel: Some(&world.panel) };

    let serial = render_full_report(&input, 1);
    assert!(serial.contains("==== table4 ===="), "full report must include Table 4");
    assert!(serial.contains("==== network-structure ===="));
    for jobs in [2usize, 8] {
        let parallel = render_full_report(&input, jobs);
        assert_eq!(serial, parallel, "report text diverged at jobs={jobs}");
    }
}

#[test]
fn report_identical_with_observability_enabled() {
    // The observability layer must be purely observational: the timed path,
    // even with tracing cranked to its most verbose level, renders the exact
    // bytes the plain path renders.
    let mut cfg = SynthConfig::small(77);
    cfg.n_users = 4_000;
    cfg.n_groups = 120;
    let world = Generator::new(cfg).generate_world();
    let ctx = Ctx::new(&world.snapshot);
    let input = ReportInput { ctx: &ctx, second: None, panel: Some(&world.panel) };

    let plain = render_full_report(&input, 4);

    let prior = steam_obs::level();
    steam_obs::set_level(steam_obs::Level::Trace);
    let (timed, timings) = render_full_report_timed(&input, 4);
    steam_obs::set_level(prior);

    assert_eq!(plain, timed, "observability changed the report bytes");
    assert!(!timings.per_experiment.is_empty());
    assert!(timings.busy() >= timings.per_experiment[0].wall);
}

#[test]
fn parallel_context_feeds_identical_report() {
    // `steam-cli report --jobs N` also builds the Ctx with N threads; the
    // parallel CSR build must not change any downstream text.
    let mut cfg = SynthConfig::small(99);
    cfg.n_users = 4_000;
    cfg.n_groups = 120;
    let world = Generator::new(cfg).generate_world();
    let serial_ctx = Ctx::new(&world.snapshot);
    let parallel_ctx = Ctx::new_with_jobs(&world.snapshot, 8);
    let serial_input = ReportInput { ctx: &serial_ctx, second: None, panel: None };
    let parallel_input = ReportInput { ctx: &parallel_ctx, second: None, panel: None };
    assert_eq!(render_full_report(&serial_input, 1), render_full_report(&parallel_input, 4));
}

#[test]
fn streamed_full_report_matches_in_memory_within_a_pass_budget() {
    // The full report streamed from v3 files — Table 4, its second-snapshot
    // rows and Figure 12 included — must render the in-memory report's
    // bytes at any worker count. Each pass over the friendship section
    // re-reads and re-verifies every edge chunk, so the report must also
    // stay within a fixed budget of such passes per snapshot.
    let mut cfg = SynthConfig::small(2016);
    cfg.n_users = 8_000;
    cfg.n_groups = 250;
    let world = Generator::new(cfg).generate_world();
    let dir = std::env::temp_dir().join(format!("stream-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (first_path, second_path) = (dir.join("first.snap"), dir.join("second.snap"));
    codec::write_snapshot_v3(&first_path, &world.snapshot, 2).unwrap();
    codec::write_snapshot_v3(&second_path, &world.second_snapshot, 2).unwrap();

    let mem = Ctx::new(&world.snapshot);
    let mem_second = Ctx::new(&world.second_snapshot);
    let mem_input = ReportInput { ctx: &mem, second: Some(&mem_second), panel: Some(&world.panel) };
    let reference = render_full_report(&mem_input, 1);
    assert!(reference.contains("(2nd snapshot)"), "Table 4 must carry second-snapshot rows");

    for jobs in [1usize, 4] {
        assert_eq!(render_full_report(&mem_input, jobs), reference, "in-memory, jobs={jobs}");
        let first = SnapshotReader::open(&first_path).unwrap();
        let second = SnapshotReader::open(&second_path).unwrap();
        let ctx = Ctx::from_reader(&first, jobs).unwrap();
        let second_ctx = Ctx::from_reader(&second, jobs).unwrap();
        let input =
            ReportInput { ctx: &ctx, second: Some(&second_ctx), panel: Some(&world.panel) };
        let streamed = render_full_report(&input, jobs);
        assert!(streamed == reference, "streamed report diverged at jobs={jobs}");

        // Context build (two CSR passes) plus the report's own passes. The
        // second snapshot feeds only Table 4's game-data rows and §8, so
        // only its CSR build walks its edges.
        for (reader, budget, which) in [(&first, 8, "first"), (&second, 2, "second")] {
            let s = reader.section_stats("friendships").unwrap();
            assert!(
                s.chunks_decoded <= budget * s.n_chunks as u64,
                "{which} snapshot: {} friendship chunk decodes over {} chunks exceeds \
                 {budget} passes (jobs={jobs})",
                s.chunks_decoded,
                s.n_chunks
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
