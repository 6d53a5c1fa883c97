//! Layer probes: direct, timed calls into one crate's public entry point
//! at a workload's shapes. They run only in the traced run, after the
//! workload's rounds, and their spans are marked as probes so they never
//! count toward the workload's own layer attribution.

use crate::trace;
use pac_model::{EncoderModel, ModelConfig};
use pac_nn::{cross_entropy, Module};
use pac_peft::{Technique, TrainCheckpoint, Tuner};
use pac_tensor::rng::seeded;
use pac_tensor::{init, ops};
use rand::Rng as _;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock budget of one probe.
const BUDGET: Duration = Duration::from_millis(60);

/// Repeats `f` for at least [`BUDGET`] and 5 calls; median seconds per
/// call. The median keeps one preempted call from moving the probe.
pub fn time_median(layer: &'static str, name: &'static str, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < BUDGET {
        let _span = trace::probe(layer, name);
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples)
}

/// Token rows of `seq` ids below 64, seeded.
pub fn token_rows(seed: u64, rows: usize, seq: usize) -> Vec<Vec<usize>> {
    let mut rng = seeded(seed);
    (0..rows)
        .map(|_| (0..seq).map(|_| rng.gen_range(0..64)).collect())
        .collect()
}

/// `ops::matmul` of an `[m, k] x [k, n]` product; GFLOP/s.
pub fn matmul_gflops(seed: u64, m: usize, k: usize, n: usize) -> f64 {
    let mut rng = seeded(seed);
    let a = init::randn(&mut rng, [m, k], 1.0);
    let b = init::randn(&mut rng, [k, n], 1.0);
    let s = time_median("pac-tensor", "probe.matmul", || {
        std::hint::black_box(ops::matmul(std::hint::black_box(&a), &b).expect("matmul"));
    });
    2.0 * (m * k * n) as f64 / s / 1e9
}

/// `Profile::measure_micro` over an encoder stack of `cfg`: mean forward
/// and backward microseconds per layer for the whole `batch`.
pub fn layer_us(seed: u64, cfg: &ModelConfig, batch: &[Vec<usize>]) -> (f64, f64) {
    let model = EncoderModel::new(cfg, 2, &mut seeded(seed));
    let _span = trace::probe("pac-planner", "probe.measure_micro");
    let profile = pac_planner::Profile::measure_micro(&model, batch, 20);
    // measure_micro reports seconds per sample as FLOPs on a 1 FLOP/s
    // device.
    let per_batch = batch.len() as f64 / profile.layers.len().max(1) as f64;
    let fwd: f64 = profile.layers.iter().map(|l| l.fwd_flops).sum();
    let bwd: f64 = profile.layers.iter().map(|l| l.bwd_flops).sum();
    (fwd * per_batch * 1e6, bwd * per_batch * 1e6)
}

/// What the Parallel-Adapters probes measured.
pub struct PeftProbe {
    /// `Tuner::forward` per batch, ms.
    pub backbone_fwd_ms: f64,
    /// `forward_cached` + loss + `backward` per batch, ms.
    pub cached_step_ms: f64,
    /// `TrainCheckpoint::to_bytes`, us.
    pub encode_us: f64,
    /// `TrainCheckpoint::from_bytes`, us.
    pub decode_us: f64,
    /// Encoded checkpoint size.
    pub ckpt_bytes: f64,
    /// The tuner after one backward, with gradients set.
    pub tuner: Tuner,
}

/// Parallel-Adapters tuner calls at `cfg` with `rows` rows of `seq`
/// tokens.
pub fn peft(seed: u64, cfg: &ModelConfig, reduction: usize, rows: usize, seq: usize) -> PeftProbe {
    let mut tuner = Tuner::new(
        Technique::ParallelAdapters { reduction },
        cfg,
        2,
        &mut seeded(seed),
    );
    let toks = token_rows(seed ^ 0x70c5, rows, seq);
    let targets: Vec<usize> = (0..rows).map(|i| i % 2).collect();
    let backbone_fwd_ms = 1e3
        * time_median("pac-peft", "probe.tuner_forward", || {
            std::hint::black_box(tuner.forward(&toks).expect("tuner forward"));
        });
    let (_, ctx) = tuner.forward(&toks).expect("tuner forward");
    let acts = tuner
        .cacheable_acts(&ctx)
        .expect("Parallel Adapters cache their backbone activations")
        .to_vec();
    let cached_step_ms = 1e3
        * time_median("pac-peft", "probe.cached_step", || {
            let (logits, c) = tuner.forward_cached(&acts).expect("cached forward");
            let (_, dl) = cross_entropy(&logits, &targets).expect("loss");
            tuner.zero_grads();
            tuner.backward(&c, &dl).expect("cached backward");
        });
    let ck = TrainCheckpoint::capture(&tuner, 1, 1, 1);
    let bytes = ck.to_bytes().expect("encode checkpoint");
    let encode_us = 1e6
        * time_median("pac-peft", "probe.ckpt_encode", || {
            std::hint::black_box(ck.to_bytes().expect("encode checkpoint"));
        });
    let decode_us = 1e6
        * time_median("pac-peft", "probe.ckpt_decode", || {
            std::hint::black_box(TrainCheckpoint::from_bytes(&bytes).expect("decode checkpoint"));
        });
    PeftProbe {
        backbone_fwd_ms,
        cached_step_ms,
        encode_us,
        decode_us,
        ckpt_bytes: bytes.len() as f64,
        tuner,
    }
}

/// Tensor-layer metrics over the traced rounds, plus `ops::matmul` at
/// the workload's dominant shape: `[m, h] x [h, 4h]`, the feed-forward
/// up-projection.
pub fn tensor_metrics(
    seed: u64,
    tel: &BTreeMap<String, u64>,
    traced_ns: f64,
    m: usize,
    h: usize,
) -> Vec<(&'static str, f64)> {
    let get = |k: &str| tel.get(k).copied().unwrap_or(0) as f64;
    let width = rayon::pool::pool_width() as f64;
    let (reuses, allocs) = (get("bench.scratch_reuses"), get("bench.scratch_allocs"));
    vec![
        ("tensor.matmul_gflops", matmul_gflops(seed, m, h, 4 * h)),
        (
            "tensor.pool_busy_share",
            get("bench.pool_busy_ns") / (traced_ns.max(1.0) * width),
        ),
        (
            "tensor.scratch_reuse_ratio",
            reuses / (reuses + allocs).max(1.0),
        ),
    ]
}
