//! The measurement loop every workload shares.
//!
//! A run sets the workload up several times, runs one untimed warm-up
//! round that also yields the reference outputs, runs rounds until
//! `--seconds` have passed, and sets up several times again. With
//! `--trace 1` the rounds alternate between untraced and traced, so the
//! tracing overhead is measured on the same inputs in the same process.

use crate::{stats, trace};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest set-up repetitions per run.
pub const SETUP_REPS: usize = 21;
/// Seconds a run spends repeating its set-up, once before the rounds and
/// once after them. Other tenants of a shared host can halve the speed of
/// floating-point work for seconds at a time; two windows far apart are
/// unlikely both to fall in such a period.
pub const SETUP_SECONDS: f64 = 1.0;

/// Work and verdicts of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Training rows completed.
    pub rows: u64,
    /// Jobs completed (each charged the round's latency).
    pub jobs: u64,
    /// Operations attempted: steps or jobs, plus output checks.
    pub attempted: u64,
    /// Operations that failed, failed output checks included.
    pub failed: u64,
}

impl Round {
    /// Counts one output check; a failed check is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Generates inputs and constructs the program objects. Timed, and
    /// repeated before the first round and after the last.
    fn setup(&mut self);
    /// Runs one round, traced or not.
    fn round(&mut self, traced: bool) -> Round;
    /// Seconds of set-up the program does inside the untraced rounds so
    /// far, one value per world it spawned: launch to the last worker's
    /// `Ready`. Empty for a workload that spawns no world.
    fn spawn_setup_s(&mut self) -> Vec<f64> {
        Vec::new()
    }
    /// Untimed upkeep before each timed round.
    fn maintain(&mut self) -> Round {
        Round::default()
    }
    /// Per-layer metrics from the traced rounds and the layer probes.
    /// `tel` holds the program's telemetry summed over the traced rounds,
    /// `traced_ns` their wall time.
    fn layers(&mut self, tel: &BTreeMap<String, u64>, traced_ns: f64) -> Vec<(&'static str, f64)>;
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up seconds: the fastest construction repetition plus the
    /// median world spawn and rendezvous.
    pub setup_s: f64,
    /// Wall seconds of each untraced timed round.
    pub round_s: Vec<f64>,
    /// Training rows per untraced round.
    pub round_rows: Vec<u64>,
    /// Jobs per untraced round.
    pub round_jobs: Vec<u64>,
    /// Wall seconds of each traced round.
    pub traced_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Peak resident set after the warm-up and the first timed round,
    /// MiB: the same amount of work in every run.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs `w` for `seconds` of rounds.
pub fn run(w: &mut dyn Workload, seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let mut construct_s = Vec::new();
    repeat_setup(w, &mut construct_s);
    let warm = w.round(false);
    m.attempted += warm.attempted;
    m.failed += warm.failed;
    // The warm-up's worlds start cold; set-up counts the timed rounds'.
    let cold_spawns = w.spawn_setup_s().len();

    let mut tel: BTreeMap<String, u64> = BTreeMap::new();
    let mut traced_ns = 0.0;
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed().as_secs_f64() < seconds || m.round_s.len() < 3 {
        let upkeep = w.maintain();
        m.attempted += upkeep.attempted;
        m.failed += upkeep.failed;
        op += 1;
        trace::set_op(op);
        let t0 = Instant::now();
        let r = w.round(false);
        let s = t0.elapsed().as_secs_f64();
        m.round_s.push(s);
        m.round_rows.push(r.rows);
        m.round_jobs.push(r.jobs);
        m.attempted += r.attempted;
        m.failed += r.failed;
        if m.round_s.len() == 1 {
            m.peak_rss_mb = peak_rss_mb();
        }
        if traced {
            pac_telemetry::reset();
            pac_telemetry::set_enabled(true);
            trace::set_enabled(true);
            let pool0 = rayon::pool::stats().busy_ns;
            let scratch0 = pac_tensor::scratch::stats();
            let t0 = Instant::now();
            let r = w.round(true);
            let s = t0.elapsed().as_secs_f64();
            trace::set_enabled(false);
            pac_telemetry::set_enabled(false);
            m.traced_s.push(s);
            traced_ns += s * 1e9;
            m.attempted += r.attempted;
            m.failed += r.failed;
            let scratch1 = pac_tensor::scratch::stats();
            for (k, v) in pac_telemetry::snapshot() {
                *tel.entry(k).or_default() += v;
            }
            *tel.entry("bench.pool_busy_ns".into()).or_default() +=
                rayon::pool::stats().busy_ns - pool0;
            *tel.entry("bench.scratch_reuses".into()).or_default() +=
                scratch1.reuses - scratch0.reuses;
            *tel.entry("bench.scratch_allocs".into()).or_default() +=
                scratch1.allocs - scratch0.allocs;
        }
    }
    repeat_setup(w, &mut construct_s);
    // Construction is short deterministic work: its fastest repetition is
    // its cost without outside interference. Spawn and rendezvous wait
    // on threads and sockets, so they take the median over every world.
    let spawn_s = w.spawn_setup_s().split_off(cold_spawns);
    let fastest = construct_s.iter().copied().fold(f64::INFINITY, f64::min);
    m.setup_s = fastest + stats::median(&spawn_s);
    eprintln!(
        "perfbench: set-up {:.1} us construction (fastest of {}, median {:.1} us) + \
         {:.1} us spawn and rendezvous (median of {} worlds)",
        fastest * 1e6,
        construct_s.len(),
        stats::median(&construct_s) * 1e6,
        stats::median(&spawn_s) * 1e6,
        spawn_s.len(),
    );
    if traced {
        let shares = self_shares(&trace::snapshot(), traced_ns);
        trace::set_enabled(true);
        m.layers = w.layers(&tel, traced_ns);
        trace::set_enabled(false);
        m.layers.extend(shares);
        let untraced: f64 = m.round_s.iter().sum();
        let traced_total: f64 = m.traced_s.iter().sum();
        m.layers
            .push(("trace_overhead_share", (traced_total - untraced) / untraced));
    }
    m
}

/// Repeats `w`'s set-up for [`SETUP_SECONDS`] (at least [`SETUP_REPS`]
/// times), recording each repetition's seconds.
fn repeat_setup(w: &mut dyn Workload, secs: &mut Vec<f64>) {
    let begun = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || begun.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = Instant::now();
        w.setup();
        secs.push(t0.elapsed().as_secs_f64());
        reps += 1;
    }
}

/// Self time of each layer in [`LAYERS`] as a share of the traced
/// rounds' wall time, named `self_share.<layer>`.
pub fn self_shares(spans: &[trace::Span], traced_ns: f64) -> Vec<(&'static str, f64)> {
    let by = trace::self_ns_by_layer(spans);
    LAYERS
        .iter()
        .map(|&(layer, metric)| {
            let ns = by.get(layer).copied().unwrap_or(0) as f64;
            (metric, ns / traced_ns.max(1.0))
        })
        .collect()
}

/// The crates a workload's spans can enter, with their share metric.
pub const LAYERS: [(&str, &str); 5] = [
    ("pac-core", "self_share.pac-core"),
    ("pac-parallel", "self_share.pac-parallel"),
    ("pac-net", "self_share.pac-net"),
    ("pac-store", "self_share.pac-store"),
    ("pac-serve", "self_share.pac-serve"),
];

/// Peak resident set of this process so far (`VmHWM`), MiB; 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
