//! `finetune`: the paper's personalization flow. One round is a whole
//! `PacSession::run_with_store`: Parallel Adapters on a frozen micro
//! encoder-decoder, an epoch-1 cache fill over two simulated devices,
//! then cached data-parallel epochs. Kernels, nn layers, the peft tuner
//! and cache and the in-process DP engine do nearly all the work; pac-net
//! and pac-serve do none.

use crate::decor::{StoreStats, TimedStore};
use crate::driver::{Round, Workload};
use crate::{checks, decor, probes, trace};
use pac_cluster::{Cluster, CostModel};
use pac_core::{PacConfig, PacSession};
use pac_data::TaskKind;
use pac_model::{EncDecModel, ModelConfig};
use pac_parallel::engine::allreduce_mean;
use pac_parallel::FaultPlan;
use pac_peft::Technique;
use pac_planner::Planner;
use pac_store::MemStore;
use pac_tensor::rng::seeded;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Micro backbone: 4 encoder + 1 decoder layers, hidden 64, 4 heads.
const ENC: usize = 4;
const DEC: usize = 1;
const HIDDEN: usize = 64;
const HEADS: usize = 4;
const DEVICES: usize = 2;
const REDUCTION: usize = 8;
/// One cache-fill epoch and five cached epochs, so both phases show.
const EPOCHS: usize = 6;
const BATCH: usize = 8;
const TRAIN_N: usize = 48;
const EVAL_N: usize = 16;
/// Sequence length `PacSession` generates its dataset with.
const SEQ: usize = 13;
const TASK: TaskKind = TaskKind::Sst2;

/// The `finetune` workload.
pub struct Finetune {
    seed: u64,
    model: ModelConfig,
    session: PacSession,
    backbone: Option<EncDecModel>,
    reference: Option<Vec<u32>>,
    store_stats: Arc<Mutex<StoreStats>>,
    cache: (f64, f64),
    traced_rounds: usize,
}

impl Finetune {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Finetune {
            seed,
            model: ModelConfig::micro(ENC, DEC, HIDDEN, HEADS),
            session: PacSession::new(PacConfig {
                devices: DEVICES,
                reduction: REDUCTION,
                epochs: EPOCHS,
                batch_size: BATCH,
                lr: 1e-2,
                seed,
                checkpoint_every: 4,
                cache_int8: false,
            }),
            backbone: None,
            reference: None,
            store_stats: Arc::new(Mutex::new(StoreStats::default())),
            cache: (0.0, 0.0),
            traced_rounds: 0,
        }
    }
}

impl Workload for Finetune {
    fn setup(&mut self) {
        // Drop the previous backbone first, so every repetition builds
        // into the same allocator state.
        self.backbone = None;
        self.backbone = Some(EncDecModel::new(
            &self.model,
            TASK.n_out(),
            &mut seeded(self.seed),
        ));
    }

    fn round(&mut self, traced: bool) -> Round {
        let backbone = self
            .backbone
            .clone()
            .expect("set up before the first round");
        let report = if traced {
            let mut store = TimedStore::new(MemStore::new(), self.store_stats.clone());
            let _span = trace::span("pac-core", "core.session");
            self.session.run_with_store(
                backbone,
                TASK,
                TRAIN_N,
                EVAL_N,
                &FaultPlan::none(),
                &mut store,
            )
        } else {
            self.session.run_with_store(
                backbone,
                TASK,
                TRAIN_N,
                EVAL_N,
                &FaultPlan::none(),
                &mut MemStore::new(),
            )
        };
        let steps = (TRAIN_N / BATCH * EPOCHS) as u64;
        let mut r = Round {
            attempted: steps,
            ..Round::default()
        };
        let report = match report {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: finetune session failed: {e}");
                r.failed = steps;
                return r;
            }
        };
        if traced {
            self.traced_rounds += 1;
            // The session's own spans ran inside `core.session`: the DP
            // engine's steps (AllReduce included) belong to pac-parallel.
            let dp_ns = ["dp.step_tokens.ns", "dp.step_cached.ns"]
                .iter()
                .filter_map(|k| pac_telemetry::get(k))
                .sum();
            if let Some(session) = trace::last_named("core.session") {
                trace::derived_child(&session, "pac-parallel", "telemetry.dp_steps", dp_ns);
            }
            let cs = &report.cache_stats;
            self.cache = (
                cs.hits as f64 / (cs.hits + cs.misses).max(1) as f64,
                cs.bytes as f64,
            );
        }
        r.rows = (TRAIN_N / BATCH * BATCH * EPOCHS) as u64;
        r.jobs = 1;
        let losses = &report.epoch_losses;
        r.check(
            "finetune: every epoch loss is finite",
            checks::finite(losses, EPOCHS),
        );
        r.check(
            "finetune: last epoch loss below the first",
            checks::improved(losses),
        );
        let reference = self.reference.get_or_insert_with(|| checks::bits(losses));
        r.check(
            "finetune: losses bitwise equal across repeats and traced/untraced",
            checks::same_bits(reference, losses),
        );
        r
    }

    fn layers(&mut self, tel: &BTreeMap<String, u64>, traced_ns: f64) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let get = |k: &str| tel.get(k).copied().unwrap_or(0) as f64;
        let per_call =
            |base: &str| get(&format!("{base}.ns")) / get(&format!("{base}.calls")).max(1.0);

        // Probes at this workload's shapes: one device's shard is
        // BATCH / DEVICES rows of SEQ tokens.
        let rows = BATCH / DEVICES;
        let batch = probes::token_rows(self.seed, rows, SEQ);
        let enc = ModelConfig::micro(ENC, 0, HIDDEN, HEADS);
        let (fwd_us, bwd_us) = probes::layer_us(self.seed, &enc, &batch);
        let peft = probes::peft(self.seed, &self.model, REDUCTION, rows, SEQ);
        let mut replicas = vec![peft.tuner.clone(), peft.tuner];
        let allreduce_s = probes::time_median("pac-parallel", "probe.allreduce_mean", || {
            allreduce_mean(&mut replicas).expect("replicas share one structure");
        });
        let cost = CostModel::new(
            self.model.clone(),
            Technique::ParallelAdapters {
                reduction: REDUCTION,
            },
            16,
        );
        let planner = Planner::paper_defaults(Cluster::nanos(DEVICES), BATCH.max(DEVICES));
        let plan_s = probes::time_median("pac-planner", "probe.plan", || {
            std::hint::black_box(planner.plan(&cost));
        });

        let st = self
            .store_stats
            .lock()
            .expect("store stats poisoned")
            .clone();
        let rounds = self.traced_rounds;
        out.extend(probes::tensor_metrics(
            self.seed,
            tel,
            traced_ns,
            rows * SEQ,
            HIDDEN,
        ));
        out.extend([
            ("nn.layer_fwd_us", fwd_us),
            ("nn.layer_bwd_us", bwd_us),
            ("peft.backbone_fwd_ms", peft.backbone_fwd_ms),
            ("peft.cached_step_ms", peft.cached_step_ms),
            ("peft.cache_hit_rate", self.cache.0),
            ("peft.cache_bytes", self.cache.1),
            ("peft.ckpt_encode_us", peft.encode_us),
            ("peft.ckpt_decode_us", peft.decode_us),
            ("peft.ckpt_bytes", peft.ckpt_bytes),
            (
                "parallel.dp_step_tokens_ms",
                per_call("dp.step_tokens") / 1e6,
            ),
            (
                "parallel.dp_step_cached_ms",
                per_call("dp.step_cached") / 1e6,
            ),
            ("parallel.allreduce_us", allreduce_s * 1e6),
            (
                "parallel.allreduce_bytes",
                get("allreduce.bytes") / get("allreduce.reductions").max(1.0),
            ),
            ("core.phase1_ms_per_step", per_call("session.phase1") / 1e6),
            ("core.phase2_ms_per_step", per_call("session.phase2") / 1e6),
            ("planner.plan_ms", plan_s * 1e3),
        ]);
        out.extend(decor::store_metrics(&st, rounds));
        out
    }
}
