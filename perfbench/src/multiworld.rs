//! `multiworld`: one round is `run_multiworld` over loopback TCP with four
//! tenant worlds of the mixed shapes (2,1), (2,2), (3,1) and (2,1),
//! admitted at staggered step counts. The only workload that exercises
//! the poll-driven coordinator: `wait_ready` wakeups, `try_recv`
//! reassembly, admission and retirement. TCP rather than the simulated
//! network, whose poll waits are virtual.

use crate::decor::{NetStats, TimedSpawner};
use crate::dist::{batches, net_metrics};
use crate::driver::{Round, Workload};
use crate::{checks, decor, probes, stats, trace};
use pac_model::ModelConfig;
use pac_net::{run_multiworld, DistConfig, DistTrainer, Spawner, TenantJob};
use pac_parallel::FaultPlan;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `(stages, lanes, admit_after_steps)` per tenant world.
const WORLDS: [(usize, usize, u64); 4] = [(2, 1, 0), (2, 2, 0), (3, 1, 3), (2, 1, 6)];
const STEPS: usize = 4;
const MICROS: usize = 2;
const ROWS: usize = 8;
const SEQ: usize = 12;

/// The `multiworld` workload.
pub struct MultiWorld {
    seed: u64,
    jobs: Vec<TenantJob>,
    /// Each tenant's losses from its solo `DistTrainer::run`, as bits.
    solo: Vec<Vec<u32>>,
    net: Arc<Mutex<NetStats>>,
    /// Launch-to-Ready times of the untraced rounds.
    spawn: Arc<Mutex<NetStats>>,
    /// Wall seconds of the untraced rounds.
    round_s: Vec<f64>,
}

impl MultiWorld {
    /// The workload for `seed`. Computes every tenant's solo reference
    /// here, outside both the timed rounds and the set-up timing.
    pub fn new(seed: u64) -> Self {
        let mut w = MultiWorld {
            seed,
            jobs: Vec::new(),
            solo: Vec::new(),
            net: Arc::new(Mutex::new(NetStats::default())),
            spawn: Arc::new(Mutex::new(NetStats::setup_only())),
            round_s: Vec::new(),
        };
        w.setup();
        w.solo = w
            .serialized()
            .into_iter()
            .map(|l| checks::bits(&l))
            .collect();
        w
    }

    /// Every tenant's job as a solo `DistTrainer::run`, back to back:
    /// the serialized baseline. A failed run yields no losses.
    fn serialized(&self) -> Vec<Vec<f32>> {
        self.jobs
            .iter()
            .map(|j| {
                DistTrainer::new(j.cfg.clone())
                    .run(&Spawner::Threads, &j.batches, &FaultPlan::none())
                    .map(|r| r.losses)
                    .unwrap_or_default()
            })
            .collect()
    }
}

impl Workload for MultiWorld {
    fn setup(&mut self) {
        self.jobs = WORLDS
            .iter()
            .enumerate()
            .map(|(t, &(stages, lanes, admit))| {
                let mut cfg = DistConfig::loopback(stages, lanes);
                cfg.seed = self.seed.wrapping_add(t as u64);
                let b = batches(self.seed ^ (0x3a11 + t as u64), STEPS, MICROS, ROWS, SEQ);
                let mut job = TenantJob::new(t as u64, cfg, b);
                job.admit_after_steps = admit;
                job
            })
            .collect();
    }

    fn round(&mut self, traced: bool) -> Round {
        let out = if traced {
            let jobs: Vec<TenantJob> = self
                .jobs
                .iter()
                .cloned()
                .map(|mut j| {
                    j.cfg.telemetry = true;
                    j
                })
                .collect();
            let _span = trace::span("pac-net", "net.multiworld");
            run_multiworld(&TimedSpawner::new(self.net.clone()), jobs)
        } else {
            let t0 = Instant::now();
            let out = run_multiworld(&TimedSpawner::new(self.spawn.clone()), self.jobs.clone());
            self.round_s.push(t0.elapsed().as_secs_f64());
            out
        };
        let steps = (WORLDS.len() * STEPS) as u64;
        let mut r = Round {
            attempted: steps,
            ..Round::default()
        };
        let report = match out {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: multiworld run failed: {e}");
                r.failed = steps;
                return r;
            }
        };
        r.rows = steps * (MICROS * ROWS) as u64;
        r.jobs = report.worlds.len() as u64;
        r.check(
            "multiworld: every tenant world retired",
            report.worlds.len() == WORLDS.len(),
        );
        for w in &report.worlds {
            r.check(
                "multiworld: tenant losses bitwise equal to its solo run",
                self.solo
                    .get(w.tenant as usize)
                    .is_some_and(|s| checks::same_bits(s, &w.losses)),
            );
        }
        r
    }

    fn spawn_setup_s(&mut self) -> Vec<f64> {
        decor::spawn_setup_s(&self.spawn)
    }

    fn layers(&mut self, tel: &BTreeMap<String, u64>, traced_ns: f64) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let mut net = self.net.lock().expect("net stats poisoned");
        net.close_wakeup();
        let steps = tel.get("multiworld.steps").copied().unwrap_or(0) as f64;
        out.extend(net_metrics(tel, &net, steps));
        drop(net);
        let cfg = DistConfig::loopback(2, 1);
        let stage = ModelConfig::micro(cfg.partition[0], 0, cfg.hidden, cfg.heads);
        let (fwd_us, bwd_us) =
            probes::layer_us(self.seed, &stage, &probes::token_rows(self.seed, ROWS, SEQ));
        out.extend([("nn.layer_fwd_us", fwd_us), ("nn.layer_bwd_us", bwd_us)]);
        out.extend(probes::tensor_metrics(
            self.seed,
            tel,
            traced_ns,
            ROWS * SEQ,
            cfg.hidden,
        ));
        // The coordinator against running the same jobs one after another.
        let serialized: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                self.serialized();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        out.push((
            "net.multiworld_over_serialized",
            stats::median(&self.round_s) / stats::median(&serialized),
        ));
        out
    }
}
