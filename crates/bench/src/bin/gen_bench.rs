//! World-synthesis + snapshot-codec throughput benchmark: generates the same
//! world serially and in parallel, encodes/decodes it through the v3
//! container in memory at 1 and N jobs, writes it to a file and opens it
//! for streaming, and reports users/sec and MB/sec for each, establishing
//! the BENCH trajectory for the generate hot path.
//!
//! The parallel world must be byte-identical to the serial one, and the
//! in-memory encodings at 1 and N jobs and the streamed file must be the
//! same bytes — parallelism is not allowed to change a single output byte.
//! On a single-core host the interesting number is parity, not speedup.
//!
//! ```text
//! cargo run --release -p steam-bench --bin gen_bench
//! cargo run --release -p steam-bench --bin gen_bench -- --users 20000 --jobs 8 --out BENCH_gen.json
//! ```

use std::time::Instant;

use steam_model::codec;
use steam_net::Json;
use steam_synth::{Generator, SynthConfig};

struct Run {
    name: &'static str,
    jobs: usize,
    elapsed_secs: f64,
    /// users/sec for synth runs, MB/sec for codec runs.
    rate: f64,
    rate_unit: &'static str,
}

impl Run {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("jobs", Json::Num(self.jobs as f64)),
            ("elapsed_secs", Json::Num(self.elapsed_secs)),
            ("rate", Json::Num(self.rate)),
            ("rate_unit", Json::Str(self.rate_unit.to_string())),
        ])
    }
}

fn report_run(name: &'static str, jobs: usize, elapsed: f64, work: f64, unit: &'static str) -> Run {
    let run = Run { name, jobs, elapsed_secs: elapsed, rate: work / elapsed.max(1e-9), rate_unit: unit };
    eprintln!(
        "# {name:<16} jobs={jobs:<2} {:>7.3}s = {:>10.1} {unit}",
        run.elapsed_secs, run.rate
    );
    run
}

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let users: usize = arg("--users").and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let jobs: usize = arg("--jobs")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(2016);
    let out = arg("--out").unwrap_or_else(|| "BENCH_gen.json".into());

    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = users;
    cfg.n_groups = (users / 33).max(10);
    cfg.validate().expect("config");
    eprintln!("# synthesizing {users} users (seed {seed}, up to {jobs} jobs)...");

    // --- synthesis: serial vs parallel, worlds must match byte-for-byte ---
    let start = Instant::now();
    let serial_world = Generator::new(cfg.clone()).generate_world_jobs(1);
    let synth_serial =
        report_run("synth", 1, start.elapsed().as_secs_f64(), users as f64, "users/s");

    let start = Instant::now();
    let parallel_world = Generator::new(cfg).generate_world_jobs(jobs);
    let synth_parallel =
        report_run("synth", jobs, start.elapsed().as_secs_f64(), users as f64, "users/s");

    let serial_bytes = codec::encode_snapshot_v3(&serial_world.snapshot, 1);
    assert_eq!(
        serial_bytes,
        codec::encode_snapshot_v3(&parallel_world.snapshot, 1),
        "parallel synthesis diverged from serial"
    );
    assert_eq!(
        codec::encode_panel(&serial_world.panel),
        codec::encode_panel(&parallel_world.panel),
        "parallel panel diverged from serial"
    );
    eprintln!("# worlds byte-identical at jobs=1 and jobs={jobs}");
    drop(parallel_world);
    let snapshot = serial_world.snapshot;
    let mb = serial_bytes.len() as f64 / (1024.0 * 1024.0);

    // --- in-memory encode and decode, serial and parallel ---
    let start = Instant::now();
    let encoded = codec::encode_snapshot_v3(&snapshot, 1);
    let enc_serial = report_run("encode_v3", 1, start.elapsed().as_secs_f64(), mb, "MB/s");

    let start = Instant::now();
    let parallel_bytes = codec::encode_snapshot_v3(&snapshot, jobs);
    let enc_parallel = report_run("encode_v3", jobs, start.elapsed().as_secs_f64(), mb, "MB/s");
    assert_eq!(encoded, parallel_bytes, "parallel v3 encoding diverged from serial");
    drop(parallel_bytes);

    let start = Instant::now();
    let d = codec::decode_snapshot_jobs(encoded.clone(), 1).expect("v3 decode");
    let dec_serial = report_run("decode_v3", 1, start.elapsed().as_secs_f64(), mb, "MB/s");
    assert_eq!(d.n_users(), snapshot.n_users());
    drop(d);

    let start = Instant::now();
    let d = codec::decode_snapshot_jobs(encoded.clone(), jobs).expect("v3 decode");
    let dec_parallel = report_run("decode_v3", jobs, start.elapsed().as_secs_f64(), mb, "MB/s");
    assert_eq!(d.n_users(), snapshot.n_users());
    drop(d);

    // --- chunk-at-a-time file write, then a streaming open ---
    let v3_path = std::env::temp_dir().join(format!("gen-bench-v3-{}.snap", std::process::id()));
    let start = Instant::now();
    codec::write_snapshot_v3(&v3_path, &snapshot, jobs).expect("v3 write");
    let write = report_run("write_v3", jobs, start.elapsed().as_secs_f64(), mb, "MB/s");
    let streamed = std::fs::read(&v3_path).expect("read back the v3 file");
    assert!(streamed == encoded[..], "streamed v3 file diverged from the in-memory encoding");
    drop(streamed);
    eprintln!("# v3 bytes identical: in-memory at jobs=1 and jobs={jobs}, streamed file");

    let start = Instant::now();
    let reader = steam_model::SnapshotReader::open(&v3_path).expect("v3 open");
    assert_eq!(reader.n_users(), snapshot.n_users());
    let open = report_run("open_v3", 1, start.elapsed().as_secs_f64(), mb, "MB/s");
    drop(reader);
    std::fs::remove_file(&v3_path).ok();

    let peak_rss = steam_obs::peak_rss_bytes();
    if let Some(peak) = peak_rss {
        eprintln!("# peak_rss_bytes = {peak} ({:.1} MB)", peak as f64 / (1024.0 * 1024.0));
    }

    let report = Json::obj([
        ("bench", Json::Str("gen".into())),
        ("users", Json::Num(users as f64)),
        ("jobs", Json::Num(jobs as f64)),
        ("seed", Json::Num(seed as f64)),
        ("snapshot_mb", Json::Num(mb)),
        (
            "synth",
            Json::Arr(vec![synth_serial.to_json(), synth_parallel.to_json()]),
        ),
        (
            "encode",
            Json::Arr(vec![enc_serial.to_json(), enc_parallel.to_json(), write.to_json()]),
        ),
        (
            "decode",
            Json::Arr(vec![dec_serial.to_json(), dec_parallel.to_json(), open.to_json()]),
        ),
        (
            "peak_rss_bytes",
            peak_rss.map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        (
            "synth_speedup",
            Json::Num(synth_parallel.rate / synth_serial.rate.max(1e-9)),
        ),
        ("outputs_identical", Json::Bool(true)),
    ]);
    let text = report.to_text();
    std::fs::write(&out, &text).expect("write BENCH_gen.json");
    println!("{text}");
    eprintln!("# wrote {out}");
}
