//! The metric catalogue and the one-line result every run prints last.

use std::collections::BTreeMap;

use steam_net::Json;

/// A metric the benchmark defines: name, unit, and which direction is
/// better. `BENCHMARK.json` lists the same names and units (a test keeps
/// the two in step).
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics: every workload reports each of them in an untraced
/// run. What each means per workload is in `perfbench/README.md`.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("run_s", "s"),
    lower("p50_ms", "ms"),
    lower("setup_rss_mb", "MB"),
    lower("run_rss_mb", "MB"),
];

/// Per-layer metrics: every workload reports each of them in a traced run,
/// `0` for a layer the workload does not exercise.
pub const PER_LAYER: [MetricDef; 47] = [
    lower("synth.friendships_s", "s"),
    lower("synth.evolve_s", "s"),
    lower("synth.ownership_s", "s"),
    lower("synth.other_s", "s"),
    lower("model.write_v3_s", "s"),
    lower("model.free_s", "s"),
    lower("model.snapshot_mb", "MB"),
    lower("model.open_s", "s"),
    lower("core.ctx_build_s", "s"),
    lower("core.table4_s", "s"),
    lower("core.figure2_s", "s"),
    lower("core.network_structure_s", "s"),
    lower("core.experiments_other_s", "s"),
    higher("core.busy_share", "ratio"),
    lower("paper.generate_unaccounted_s", "s"),
    lower("paper.report_unaccounted_s", "s"),
    lower("crawl.census_s", "s"),
    lower("crawl.harvest_s", "s"),
    lower("crawl.catalog_s", "s"),
    lower("crawl.requests", "count"),
    lower("crawl.retries", "count"),
    lower("crawl.request_p50_ms", "ms"),
    lower("crawl.request_p99_ms", "ms"),
    higher("net.pool_reuse_ratio", "ratio"),
    lower("net.reconnects", "count"),
    lower("net.reactor_busy_share.direct", "ratio"),
    lower("net.reactor_busy_share.router", "ratio"),
    lower("net.reactor_busy_share.shard", "ratio"),
    higher("api.cache_hit_ratio.crawl", "ratio"),
    higher("api.cache_hit_ratio.direct", "ratio"),
    higher("api.cache_hit_ratio.shard", "ratio"),
    lower("api.handler_p50_ms.summaries", "ms"),
    lower("api.handler_p50_ms.friends", "ms"),
    lower("api.handler_p50_ms.games", "ms"),
    lower("api.handler_p50_ms.groups", "ms"),
    lower("api.handler_p50_ms.appdetails", "ms"),
    lower("router.hop_p50_ms", "ms"),
    lower("router.retries", "count"),
    lower("router.errors", "count"),
    lower("serve.direct_p50_ms", "ms"),
    lower("serve.direct_p99_ms", "ms"),
    lower("serve.routed_p99_ms", "ms"),
    higher("serve.direct_max_rps", "1/s"),
    higher("serve.routed_max_rps", "1/s"),
    lower("gen.late_p99_ms", "ms"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.spans", "count"),
];

/// The metric set a run prints: end-to-end untraced, per-layer traced.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Values collected by a workload, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A finished run: its checks, its operation counts, and its metrics.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The result line: exactly the catalogue's metrics for this mode, a
    /// layer the workload did not exercise reading `0`.
    pub fn to_line(&self, traced: bool) -> String {
        let metrics: BTreeMap<String, Json> = catalogue(traced)
            .iter()
            .map(|m| {
                let value = self.values.get(m.name).unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_text()
    }
}

/// Checks a result line against the schema: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`; whole-number counts with
/// `attempted >= 1`; and exactly the catalogue's metrics, each a finite
/// number with its unit.
pub fn validate(line: &str, traced: bool) -> Result<(), String> {
    let json = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    let Json::Obj(top) = &json else {
        return Err("not a JSON object".into());
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    top["correct"]
        .as_bool()
        .ok_or("`correct` is not a boolean")?;
    let attempted = top["attempted"]
        .as_u64()
        .ok_or("`attempted` is not a whole number")?;
    if attempted < 1 {
        return Err("`attempted` is below 1".into());
    }
    top["failed"]
        .as_u64()
        .ok_or("`failed` is not a whole number")?;
    let Json::Obj(metrics) = &top["metrics"] else {
        return Err("`metrics` is not an object".into());
    };
    let want = catalogue(traced);
    if metrics.len() != want.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            want.len()
        ));
    }
    for m in want {
        let entry = metrics
            .get(m.name)
            .ok_or_else(|| format!("missing metric {}", m.name))?;
        let Json::Obj(fields) = entry else {
            return Err(format!("{} is not an object", m.name));
        };
        if fields.len() != 2 {
            return Err(format!("{} has keys other than value and unit", m.name));
        }
        let value = entry.get("value").and_then(Json::as_f64);
        if !value.is_some_and(f64::is_finite) {
            return Err(format!("{} has no finite value", m.name));
        }
        if entry.get("unit").and_then(Json::as_str) != Some(m.unit) {
            return Err(format!("{} does not carry unit {}", m.name, m.unit));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        values.set("run_s", 1.5);
        Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            values,
        }
    }

    #[test]
    fn result_lines_validate_in_both_modes() {
        for traced in [false, true] {
            let line = outcome().to_line(traced);
            validate(&line, traced).unwrap();
            // The other mode's catalogue does not match.
            assert!(validate(&line, !traced).is_err());
        }
        assert!(outcome()
            .to_line(false)
            .contains(r#""setup_s":{"unit":"s","value":0.8127}"#));
    }

    #[test]
    fn schema_violations_are_caught() {
        let good = outcome().to_line(false);
        let cases = [
            good.replace(r#""attempted":1000"#, r#""attempted":0"#),
            good.replace(r#""attempted":1000"#, r#""attempted":1.5"#),
            good.replace(r#""failed":0"#, r#""failed":-1"#),
            good.replace(r#""correct":true"#, r#""correct":1"#),
            good.replace(
                r#""unit":"s","value":0.8127"#,
                r#""unit":"ms","value":0.8127"#,
            ),
            good.replace(
                r#""unit":"s","value":0.8127"#,
                r#""unit":"s","value":"fast""#,
            ),
            good.replace(r#""correct":true,"#, r#""correct":true,"extra":1,"#),
            good.replace(r#","metrics""#, r#","metric""#),
            "not json".to_string(),
        ];
        for bad in cases {
            assert_ne!(bad, good);
            assert!(validate(&bad, false).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(
                listed, ours,
                "{key} in BENCHMARK.json drifted from the catalogue"
            );
        }
    }
}
