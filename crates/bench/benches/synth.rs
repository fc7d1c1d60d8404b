//! Generation throughput: users/second end-to-end, plus the per-stage cost
//! split and the codec round-trip (how fast snapshots persist).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use steam_model::codec::{decode_snapshot, encode_snapshot_v3};
use steam_synth::{Generator, SynthConfig};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    for n in [5_000usize, 20_000, 60_000] {
        let mut cfg = SynthConfig::small(3);
        cfg.n_users = n;
        cfg.n_groups = (n / 33).max(5);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("snapshot", n), &cfg, |b, cfg| {
            b.iter(|| black_box(Generator::new(cfg.clone()).generate()))
        });
        group.bench_with_input(BenchmarkId::new("full_world", n), &cfg, |b, cfg| {
            b.iter(|| black_box(Generator::new(cfg.clone()).generate_world()))
        });
    }
    group.finish();
}

fn bench_archetype_mixture(c: &mut Criterion) {
    // Ablation: how much do the collector/idle-farmer archetypes cost?
    // (Collectors own thousands of games each.)
    let mut group = c.benchmark_group("archetypes");
    group.sample_size(10);
    let n = 20_000usize;
    for (label, collector_rate) in [("baseline", 1.5e-4f64), ("no_collectors", 0.0), ("heavy_collectors", 2e-3)] {
        let mut cfg = SynthConfig::small(5);
        cfg.n_users = n;
        cfg.n_groups = 600;
        cfg.collector_rate = collector_rate;
        group.bench_with_input(BenchmarkId::new(label, n), &cfg, |b, cfg| {
            b.iter(|| black_box(Generator::new(cfg.clone()).generate()))
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(10);
    let mut cfg = SynthConfig::small(9);
    cfg.n_users = 20_000;
    cfg.n_groups = 600;
    let snap = Generator::new(cfg).generate();
    let encoded = encode_snapshot_v3(&snap, 1);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(encode_snapshot_v3(&snap, 1))));
    group.bench_function("decode", |b| {
        b.iter(|| black_box(decode_snapshot(encoded.clone()).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_archetype_mixture, bench_codec);
criterion_main!(benches);
