//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload finetune|dist|serve|multiworld --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with all tracing
//! off; with `--trace 1` it alternates untraced and traced rounds and
//! prints the per-layer metrics instead. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Spans of a traced run are written to `perfbench/out/`.

mod checks;
mod decor;
mod dist;
mod driver;
mod finetune;
mod multiworld;
mod probes;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("samples_per_s", "rows/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A
/// workload that never enters a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 52] = [
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.pool_busy_share", "ratio"),
    ("tensor.scratch_reuse_ratio", "ratio"),
    ("nn.layer_fwd_us", "us"),
    ("nn.layer_bwd_us", "us"),
    ("peft.backbone_fwd_ms", "ms"),
    ("peft.cached_step_ms", "ms"),
    ("peft.cache_hit_rate", "ratio"),
    ("peft.cache_bytes", "bytes"),
    ("peft.ckpt_encode_us", "us"),
    ("peft.ckpt_decode_us", "us"),
    ("peft.ckpt_bytes", "bytes"),
    ("parallel.dp_step_tokens_ms", "ms"),
    ("parallel.dp_step_cached_ms", "ms"),
    ("parallel.allreduce_us", "us"),
    ("parallel.allreduce_bytes", "bytes"),
    ("parallel.bubble_fraction", "ratio"),
    ("parallel.stage_busy_share", "ratio"),
    ("core.phase1_ms_per_step", "ms"),
    ("core.phase2_ms_per_step", "ms"),
    ("core.burst_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("net.bytes_per_step", "bytes"),
    ("net.msgs_per_step", "count"),
    ("net.coord_bytes_per_step", "bytes"),
    ("net.coord_msgs_per_step", "count"),
    ("net.recv_wait_ms_per_step", "ms"),
    ("net.step_p50_ms", "ms"),
    ("net.step_p99_ms", "ms"),
    ("net.wakeups_per_step", "count"),
    ("net.idle_wakeup_share", "ratio"),
    ("net.setup_ms", "ms"),
    ("net.multiworld_over_serialized", "ratio"),
    ("store.commit_us_p50", "us"),
    ("store.commit_us_p99", "us"),
    ("store.read_us", "us"),
    ("store.commits", "per_round"),
    ("store.bytes_written", "bytes/round"),
    ("store.dedup_share", "ratio"),
    ("serve.hit_rate", "ratio"),
    ("serve.warm_load_us", "us"),
    ("serve.cold_load_us", "us"),
    ("serve.publish_us", "us"),
    ("serve.fetch_us", "us"),
    ("serve.evictions", "per_job"),
    ("serve.resident_peak_bytes", "bytes"),
    ("self_share.pac-core", "ratio"),
    ("self_share.pac-parallel", "ratio"),
    ("self_share.pac-net", "ratio"),
    ("self_share.pac-store", "ratio"),
    ("self_share.pac-serve", "ratio"),
    ("trace_overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(rows: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, v)) in rows.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    out.push('}');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload finetune|dist|serve|multiworld --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut w: Box<dyn driver::Workload> = match args.workload.as_str() {
        "finetune" => Box::new(finetune::Finetune::new(args.seed)),
        "dist" => Box::new(dist::Dist::new(args.seed)),
        "serve" => Box::new(serve::Serve::new(args.seed, args.trace)),
        "multiworld" => Box::new(multiworld::MultiWorld::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {} pool width {} kernel {:?} \
         profile {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::pool::pool_width(),
        pac_tensor::ops::kernel_mode(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    let m = driver::run(w.as_mut(), args.seconds, args.trace);
    let rows: Vec<(&str, &str, f64)> = if args.trace {
        let got: BTreeMap<&str, f64> = m.layers.iter().copied().collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, got.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let rates = |work: &[u64]| -> Vec<f64> {
            work.iter()
                .zip(&m.round_s)
                .map(|(&n, &s)| n as f64 / s)
                .collect()
        };
        // A round's latency is charged to each of its jobs. Every timed
        // round of a workload carries the same number of jobs, so job
        // percentiles are round percentiles, and the rounds are the
        // independent samples the tail rule counts.
        let round_ms: Vec<f64> = m.round_s.iter().map(|s| s * 1e3).collect();
        let (p99_at, p99) = stats::tail(&round_ms, 99.0).unwrap_or((0.0, 0.0));
        eprintln!(
            "perfbench: {} rounds, {} jobs; job_p99_ms is p{p99_at} of the {} round latencies",
            m.round_s.len(),
            m.round_jobs.iter().sum::<u64>(),
            round_ms.len(),
        );
        let values = [
            m.setup_s,
            stats::median(&rates(&m.round_rows)),
            stats::median(&rates(&m.round_jobs)),
            stats::median(&round_ms),
            p99,
            m.peak_rss_mb,
            1.0 - m.failed as f64 / m.attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for (name, unit, v) in &rows {
        eprintln!("  {name:<28} {v:>16.6} {unit}");
    }
    if args.trace {
        let spans = trace::take();
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(&spans)))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        json_metrics(&rows)
    );
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `(name, unit)` of every entry of the array `key` in the
    /// repository's `BENCHMARK.json`, in order.
    fn listed(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let at = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[at..];
        let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
        let field = |entry: &str, name: &str| -> String {
            let tag = format!("\"{name}\": \"");
            let from = entry.find(&tag).expect("field present") + tag.len();
            entry[from..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(owned(&END_TO_END), listed("end_to_end"));
        assert_eq!(owned(&PER_LAYER), listed("per_layer"));
    }
}
