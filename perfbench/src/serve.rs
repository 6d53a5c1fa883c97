//! `serve`: one long-lived `ServePlatform` (2 ranks) driven by a single
//! closed-loop client that submits one wave of tenant jobs at a time
//! through `ServePlatform::run` and waits for it. The tenant stream mixes
//! a hot set that fits in ranks x cache slots (revisited every wave, so
//! warm) with a cold tail whose reuse distance exceeds that capacity (a
//! registry fetch and decode each time), 48 of 64 jobs warm by
//! construction. Every `PHASE_WAVES` waves the hot set moves to another
//! tenant group, whose adapters were evicted long ago: the hit-rate
//! collapse on a phase change stays in the measurement.

use crate::decor::{StoreStats, TimedStore};
use crate::driver::{Round, Workload};
use crate::{checks, decor, probes, trace};
use pac_core::{run_tenant_burst, BurstSpec};
use pac_model::{EncDecModel, ModelConfig};
use pac_peft::ParallelTuner;
use pac_serve::{AdapterRegistry, JobSpec, ServeConfig, ServePlatform, ServeReport};
use pac_store::MemStore;
use pac_tensor::rng::seeded;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const RANKS: usize = 2;
/// Resident adapters per rank: the cache holds `RANKS * SLOTS`.
const SLOTS: usize = 48;
/// Hot tenants per phase, each submitted once per wave.
const HOT: u64 = 48;
/// Tenant groups the hot set rotates through.
const HOT_GROUPS: u64 = 3;
/// Waves per hot-set phase.
const PHASE_WAVES: u64 = 20;
/// Cold-tail tenants per wave and in total: each returns after
/// `COLD_TAIL / COLD_PER_WAVE` waves, long after its eviction.
const COLD_PER_WAVE: u64 = 16;
const COLD_TAIL: u64 = 240;
const COLD_BASE: u64 = 1000;
/// Cached training steps per job.
const STEPS: usize = 12;
/// Waves one platform serves before it is replaced, untimed, by a fresh
/// one: the registry keeps every published version, so this bounds the
/// process's memory.
const LIFETIME: u64 = 60;

type Timed = TimedStore<MemStore>;

/// The `serve` workload.
pub struct Serve {
    seed: u64,
    traced_mode: bool,
    cfg: ServeConfig,
    plain: Option<ServePlatform<MemStore>>,
    timed: Option<ServePlatform<Timed>>,
    store: Arc<Mutex<StoreStats>>,
    wave: u64,
    versions: BTreeMap<u64, u32>,
    /// The plain platform's `(version, final loss bits)` per job of the
    /// current wave, for the traced twin to match.
    pending: Option<Vec<(u32, u32)>>,
    traced_reports: Vec<ServeReport>,
}

impl Serve {
    /// The workload for `seed`; `traced_mode` adds a decorated twin
    /// platform that replays every wave.
    pub fn new(seed: u64, traced_mode: bool) -> Self {
        let mut cfg = ServeConfig::micro(RANKS);
        cfg.seed = seed;
        cfg.cached_adapters_per_rank = SLOTS;
        Serve {
            seed,
            traced_mode,
            cfg,
            plain: None,
            timed: None,
            store: Arc::new(Mutex::new(StoreStats::default())),
            wave: 0,
            versions: BTreeMap::new(),
            pending: None,
            traced_reports: Vec::new(),
        }
    }

    fn job(&self, tenant: u64) -> JobSpec {
        JobSpec {
            tenant,
            steps: STEPS,
            seed: self.seed ^ self.wave.rotate_left(32),
            fault_at: None,
            park: true,
        }
    }

    /// Wave 0 publishes every tenant once; later waves are the hot set of
    /// the current phase plus the next cold-tail tenants, interleaved.
    fn wave_jobs(&self) -> Vec<JobSpec> {
        if self.wave == 0 {
            return (0..HOT * HOT_GROUPS)
                .chain(COLD_BASE..COLD_BASE + COLD_TAIL)
                .map(|t| self.job(t))
                .collect();
        }
        let group = (self.wave / PHASE_WAVES) % HOT_GROUPS;
        let mut jobs: Vec<JobSpec> = (0..HOT).map(|i| self.job(group * HOT + i)).collect();
        for c in 0..COLD_PER_WAVE {
            let tenant = COLD_BASE + (self.wave * COLD_PER_WAVE + c) % COLD_TAIL;
            let at = ((c + 1) * HOT / (COLD_PER_WAVE + 1)) as usize + c as usize;
            jobs.insert(at, self.job(tenant));
        }
        jobs
    }

    /// Checks one wave's outcomes; returns them as `(version, loss bits)`.
    fn check(
        &mut self,
        r: &mut Round,
        jobs: &[JobSpec],
        report: &ServeReport,
        twin: bool,
    ) -> Vec<(u32, u32)> {
        let got: Vec<(u32, u32)> = report
            .job_outcomes
            .iter()
            .map(|o| (o.version, o.final_loss.to_bits()))
            .collect();
        r.check(
            "serve: every job answered, none faulted",
            checks::all_answered(jobs, &report.job_outcomes),
        );
        if twin {
            r.check(
                "serve: traced twin answers bitwise like the untraced platform",
                self.pending.take().is_some_and(|p| p == got),
            );
        } else {
            r.check(
                "serve: each published job bumps its tenant's version once",
                checks::versions_bumped_once(&mut self.versions, jobs, &report.job_outcomes),
            );
        }
        got
    }
}

impl Workload for Serve {
    fn setup(&mut self) {
        // Drop the old platforms first: a replacement must not hold two
        // registries at once.
        (self.plain, self.timed) = (None, None);
        self.plain =
            Some(ServePlatform::new(self.cfg.clone(), MemStore::new()).expect("serve platform"));
        if self.traced_mode {
            let store = TimedStore::new(MemStore::new(), self.store.clone());
            self.timed = Some(ServePlatform::new(self.cfg.clone(), store).expect("serve platform"));
        }
    }

    fn round(&mut self, traced: bool) -> Round {
        let jobs = self.wave_jobs();
        let mut r = Round {
            attempted: jobs.len() as u64,
            ..Round::default()
        };
        let out = if traced {
            let _span = trace::span("pac-serve", "serve.run");
            self.timed.as_mut().expect("set up").run(&jobs)
        } else {
            self.plain.as_mut().expect("set up").run(&jobs)
        };
        let report = match out {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: serve wave failed: {e}");
                r.failed = jobs.len() as u64;
                return r;
            }
        };
        let got = self.check(&mut r, &jobs, &report, traced);
        r.jobs = report.jobs_completed;
        r.rows = report.jobs_completed * (STEPS * self.cfg.rows) as u64;
        if traced {
            self.traced_reports.push(report);
        }
        // The priming wave (every tenant fresh) is never traced, so the
        // twin is primed right after the plain platform.
        if self.traced_mode && !traced && self.wave == 0 {
            // The store metrics describe the traced waves only.
            let kept = self.store.lock().expect("store stats poisoned").clone();
            let out = self
                .timed
                .as_mut()
                .expect("set up")
                .run(&jobs)
                .expect("prime twin");
            *self.store.lock().expect("store stats poisoned") = kept;
            self.pending = Some(got);
            self.check(&mut r, &jobs, &out, true);
        } else if self.traced_mode && !traced {
            self.pending = Some(got);
            return r;
        }
        self.wave += 1;
        r
    }

    fn maintain(&mut self) -> Round {
        if self.wave < LIFETIME {
            return Round::default();
        }
        self.setup();
        self.versions.clear();
        self.wave = 0;
        self.round(false)
    }

    fn layers(&mut self, tel: &BTreeMap<String, u64>, traced_ns: f64) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let reps = &self.traced_reports;
        let sum = |f: fn(&ServeReport) -> u64| reps.iter().map(f).sum::<u64>() as f64;
        let (warm, cold) = (sum(|s| s.warm_hits), sum(|s| s.cold_misses));
        let jobs = sum(|s| s.jobs_completed).max(1.0);
        out.extend([
            ("serve.hit_rate", warm / (warm + cold).max(1.0)),
            (
                "serve.warm_load_us",
                sum(|s| s.warm_ns_avg * s.warm_hits) / warm.max(1.0) / 1e3,
            ),
            (
                "serve.cold_load_us",
                sum(|s| s.cold_ns_avg * s.cold_misses) / cold.max(1.0) / 1e3,
            ),
            ("serve.evictions", sum(|s| s.evictions) / jobs),
            (
                "serve.resident_peak_bytes",
                reps.iter()
                    .map(|s| s.resident_peak_bytes)
                    .max()
                    .unwrap_or(0) as f64,
            ),
        ]);

        // Probes at the platform's shapes: one tenant burst of `rows`
        // rows x `seq` tokens on a rank's tuner.
        let c = &self.cfg;
        let model = EncDecModel::new(&c.model, c.n_out, &mut seeded(c.seed));
        let mut tuner = ParallelTuner::new(model, c.reduction, c.n_out, &mut seeded(c.seed + 1));
        let baseline = tuner.baseline();
        let spec = BurstSpec {
            tenant: 7,
            seed: self.seed,
            steps: STEPS,
            rows: c.rows,
            seq: c.seq,
            lr: c.lr,
            fault_at: None,
        };
        let mut ckpt = None;
        let burst_s = probes::time_median("pac-core", "probe.burst", || {
            ckpt =
                Some(run_tenant_burst(&mut tuner, &baseline, None, &spec, false).expect("burst"));
        });
        let ckpt = ckpt.expect("at least one burst").checkpoint;
        let mut registry = AdapterRegistry::open(MemStore::new()).expect("empty registry");
        let mut tenant = 0;
        let publish_s = probes::time_median("pac-serve", "probe.publish", || {
            tenant += 1;
            registry.publish(tenant, &ckpt).expect("publish");
        });
        let fetch_s = probes::time_median("pac-serve", "probe.fetch", || {
            std::hint::black_box(registry.fetch(1, 1).expect("fetch"));
        });
        let peft = probes::peft(self.seed, &c.model, c.reduction, c.rows, c.seq);
        let enc = ModelConfig::micro(c.model.enc_layers, 0, c.model.hidden, c.model.heads);
        let (fwd_us, bwd_us) = probes::layer_us(
            self.seed,
            &enc,
            &probes::token_rows(self.seed, c.rows, c.seq),
        );
        out.extend([
            ("core.burst_ms", burst_s * 1e3),
            ("serve.publish_us", publish_s * 1e6),
            ("serve.fetch_us", fetch_s * 1e6),
            ("peft.backbone_fwd_ms", peft.backbone_fwd_ms),
            ("peft.cached_step_ms", peft.cached_step_ms),
            ("peft.ckpt_encode_us", peft.encode_us),
            ("peft.ckpt_decode_us", peft.decode_us),
            ("peft.ckpt_bytes", peft.ckpt_bytes),
            ("nn.layer_fwd_us", fwd_us),
            ("nn.layer_bwd_us", bwd_us),
        ]);
        out.extend(probes::tensor_metrics(
            self.seed,
            tel,
            traced_ns,
            c.rows * c.seq,
            c.model.hidden,
        ));
        let st = self.store.lock().expect("store stats poisoned").clone();
        out.extend(decor::store_metrics(&st, self.traced_reports.len()));
        out
    }
}
