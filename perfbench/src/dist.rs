//! `dist`: one distributed training job per round, `DistTrainer` over
//! loopback TCP with thread workers, 2 stages x 2 lanes, 1F1B. Small
//! micro-batches keep the per-step protocol (Step/Done, Act/Grad frames,
//! the networked AllReduce, heartbeats) a visible share of each step. No
//! activation cache, no registry.

use crate::decor::{NetStats, StoreStats, TimedSpawner, TimedStore};
use crate::driver::{Round, Workload};
use crate::{checks, decor, probes, stats, trace};
use pac_model::ModelConfig;
use pac_net::{DistConfig, DistTrainer};
use pac_parallel::engine::MicroBatch;
use pac_parallel::{FaultPlan, SimResult};
use pac_store::MemStore;
use pac_tensor::rng::seeded;
use rand::Rng as _;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const STAGES: usize = 2;
const LANES: usize = 2;
const STEPS: usize = 8;
const MICROS: usize = 4;
const ROWS: usize = 4;
const SEQ: usize = 8;

/// Lockstep mini-batches: `steps` steps of `micros` micro-batches of
/// `rows` rows, seeded.
pub fn batches(
    seed: u64,
    steps: usize,
    micros: usize,
    rows: usize,
    seq: usize,
) -> Vec<Vec<MicroBatch>> {
    let mut rng = seeded(seed);
    (0..steps)
        .map(|_| {
            (0..micros)
                .map(|_| {
                    let toks = (0..rows)
                        .map(|_| (0..seq).map(|_| rng.gen_range(0..64usize)).collect())
                        .collect();
                    let labels = (0..rows).map(|_| rng.gen_range(0..2usize)).collect();
                    (toks, labels)
                })
                .collect()
        })
        .collect()
}

/// Net metrics from the coordinator-side decorator and the program's
/// `net.*` counters, per lockstep step.
pub fn net_metrics(
    tel: &BTreeMap<String, u64>,
    net: &NetStats,
    steps: f64,
) -> Vec<(&'static str, f64)> {
    let get = |k: &str| tel.get(k).copied().unwrap_or(0) as f64;
    let steps = steps.max(1.0);
    let tail = stats::tail(&net.step_ns, 99.0).map_or(0.0, |(_, v)| v);
    vec![
        (
            "net.bytes_per_step",
            (get("net.bytes_sent") + get("net.bytes_recv")) / steps,
        ),
        ("net.msgs_per_step", get("net.msgs") / steps),
        (
            "net.coord_bytes_per_step",
            (net.bytes_sent + net.bytes_recv) as f64 / steps,
        ),
        (
            "net.coord_msgs_per_step",
            (net.msgs_sent + net.msgs_recv) as f64 / steps,
        ),
        (
            "net.recv_wait_ms_per_step",
            net.recv_wait_ns as f64 / 1e6 / steps,
        ),
        ("net.step_p50_ms", stats::median(&net.step_ns) / 1e6),
        ("net.step_p99_ms", tail / 1e6),
        ("net.wakeups_per_step", net.wakeups as f64 / steps),
        (
            "net.idle_wakeup_share",
            net.idle_wakeups as f64 / (net.wakeups as f64).max(1.0),
        ),
        ("net.setup_ms", stats::median(&net.setup_ns) / 1e6),
        (
            "parallel.allreduce_us",
            get("net.allreduce.ns") / 1e3 / get("net.allreduce.calls").max(1.0),
        ),
        (
            "parallel.allreduce_bytes",
            get("allreduce.bytes") / get("allreduce.reductions").max(1.0),
        ),
    ]
}

/// The `dist` workload.
pub struct Dist {
    seed: u64,
    cfg: DistConfig,
    batches: Vec<Vec<MicroBatch>>,
    reference: Option<Vec<u32>>,
    net: Arc<Mutex<NetStats>>,
    /// Launch-to-Ready times of the untraced rounds.
    spawn: Arc<Mutex<NetStats>>,
    store: Arc<Mutex<StoreStats>>,
    /// `(bubble_fraction, stage_busy_share)` of each traced round's last
    /// step, from its measured op timeline.
    timeline: Vec<(f64, f64)>,
}

impl Dist {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut cfg = DistConfig::loopback(STAGES, LANES);
        cfg.seed = seed;
        Dist {
            seed,
            cfg,
            batches: Vec::new(),
            reference: None,
            net: Arc::new(Mutex::new(NetStats::default())),
            spawn: Arc::new(Mutex::new(NetStats::setup_only())),
            store: Arc::new(Mutex::new(StoreStats::default())),
            timeline: Vec::new(),
        }
    }
}

impl Workload for Dist {
    fn setup(&mut self) {
        self.batches = batches(self.seed ^ 0xd157, STEPS, MICROS, ROWS, SEQ);
    }

    fn round(&mut self, traced: bool) -> Round {
        let out = if traced {
            let mut cfg = self.cfg.clone();
            cfg.telemetry = true;
            let spawner = TimedSpawner::new(self.net.clone());
            let mut store = TimedStore::new(MemStore::new(), self.store.clone());
            let _span = trace::span("pac-net", "net.dist_run");
            DistTrainer::new(cfg).run_with_store(
                &spawner,
                &self.batches,
                &FaultPlan::none(),
                &mut store,
            )
        } else {
            DistTrainer::new(self.cfg.clone()).run(
                &TimedSpawner::new(self.spawn.clone()),
                &self.batches,
                &FaultPlan::none(),
            )
        };
        let mut r = Round {
            attempted: STEPS as u64,
            ..Round::default()
        };
        let report = match out {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: dist run failed: {e}");
                r.failed = STEPS as u64;
                return r;
            }
        };
        if traced {
            let sim = SimResult::from_events(report.last_events.clone(), report.stages);
            let busiest = (0..report.stages)
                .map(|s| {
                    report
                        .last_events
                        .iter()
                        .filter(|e| e.stage == s)
                        .map(|e| e.end - e.start)
                        .sum::<f64>()
                })
                .fold(0.0, f64::max);
            self.timeline.push((
                sim.bubble_fraction,
                busiest / sim.makespan_s.max(f64::MIN_POSITIVE),
            ));
        }
        r.rows = (STEPS * MICROS * ROWS) as u64;
        r.jobs = 1;
        r.check(
            "dist: every step loss is finite",
            checks::finite(&report.losses, STEPS),
        );
        let reference = self
            .reference
            .get_or_insert_with(|| checks::bits(&report.losses));
        r.check(
            "dist: losses bitwise equal across repeats and traced/untraced",
            checks::same_bits(reference, &report.losses),
        );
        r
    }

    fn spawn_setup_s(&mut self) -> Vec<f64> {
        decor::spawn_setup_s(&self.spawn)
    }

    fn layers(&mut self, tel: &BTreeMap<String, u64>, traced_ns: f64) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let traced_rounds = self.timeline.len() as f64;
        let mut net = self.net.lock().expect("net stats poisoned");
        net.close_wakeup();
        out.extend(net_metrics(tel, &net, traced_rounds * STEPS as f64));
        drop(net);
        let (bubble, busy): (Vec<f64>, Vec<f64>) = self.timeline.iter().copied().unzip();
        out.extend([
            ("parallel.bubble_fraction", stats::median(&bubble)),
            ("parallel.stage_busy_share", stats::median(&busy)),
        ]);
        // Per-lane micro-batch rows through a 2-layer stage of hidden 16.
        let rows = ROWS / LANES;
        let stage = ModelConfig::micro(self.cfg.partition[0], 0, self.cfg.hidden, self.cfg.heads);
        let (fwd_us, bwd_us) =
            probes::layer_us(self.seed, &stage, &probes::token_rows(self.seed, rows, SEQ));
        out.extend([("nn.layer_fwd_us", fwd_us), ("nn.layer_bwd_us", bwd_us)]);
        out.extend(probes::tensor_metrics(
            self.seed,
            tel,
            traced_ns,
            rows * SEQ,
            self.cfg.hidden,
        ));
        let st = self.store.lock().expect("store stats poisoned").clone();
        out.extend(decor::store_metrics(&st, self.timeline.len()));
        out
    }
}
