//! The host and build facts printed with every result, because numbers
//! from different hosts or builds are not comparable.

use steam_net::Json;

/// Online CPUs as the kernel lists them (`/sys/devices/system/cpu/online`,
/// e.g. `0-1`), which may exceed what this process may use.
fn cpus_online() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut n = 0;
    for part in text.trim().split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(n)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Threads the workloads size their worker pools to.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `meta` block: host, build, seed and the workload's world sizes.
pub fn block(workload: &str, seed: u64, seconds: u64, traced: bool, sizes: Json) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| std::env::consts::OS.to_string());
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(traced)),
        (
            "nproc",
            cpus_online().map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("available_parallelism", Json::Num(parallelism() as f64)),
        ("kernel", Json::Str(kernel)),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC_VERSION").into())),
        ("git_rev", Json::Str(git_rev())),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("sizes", sizes),
    ])
}
