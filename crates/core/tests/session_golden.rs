//! Golden bitwise pins for `PacSession`.
//!
//! Every epoch-loss bit, the eval metric bits and the activation-cache
//! statistics of a small session are pinned to recorded values, for the
//! f32 and the int8 cache at pool widths 1, 2 and 8. A change to how
//! epoch 1 fills the cache, how shards are formed or how losses are
//! averaged must leave all of these untouched.

use pac_core::{PacConfig, PacSession};
use pac_data::TaskKind;
use pac_model::{EncDecModel, ModelConfig};
use pac_peft::CacheStats;
use pac_tensor::rng::seeded;
use std::sync::Mutex;

const WIDTHS: [usize; 3] = [1, 2, 8];
const TASK: TaskKind = TaskKind::Sst2;
const TRAIN_N: usize = 48;
const EVAL_N: usize = 12;

/// Pool width is process-global: runs that set it must not interleave.
static POOL: Mutex<()> = Mutex::new(());

/// What a session run is pinned by.
#[derive(Debug, PartialEq)]
struct Observed {
    loss_bits: Vec<u32>,
    metric_bits: u64,
    stats: CacheStats,
}

fn session(cache_int8: bool) -> PacSession {
    PacSession::new(PacConfig {
        devices: 4,
        reduction: 4,
        epochs: 3,
        batch_size: 12,
        lr: 1e-2,
        seed: 5,
        checkpoint_every: 3,
        cache_int8,
    })
}

fn observe(width: usize, cache_int8: bool) -> Observed {
    let _guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    rayon::pool::set_max_concurrency(width);
    let cfg = ModelConfig::micro(2, 1, 16, 2);
    let backbone = EncDecModel::new(&cfg, TASK.n_out(), &mut seeded(5));
    let report = session(cache_int8).run_with_backbone(backbone, TASK, TRAIN_N, EVAL_N);
    rayon::pool::set_max_concurrency(usize::MAX);
    let report = report.expect("fault-free session");
    Observed {
        loss_bits: report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        metric_bits: report.metric.to_bits(),
        stats: report.cache_stats,
    }
}

fn stats(bytes: usize, hits: usize) -> CacheStats {
    CacheStats {
        entries: TRAIN_N,
        bytes,
        logical_bytes: 82_944,
        hits,
        misses: 0,
    }
}

#[test]
fn f32_cache_session_matches_golden_at_every_width() {
    let golden = Observed {
        loss_bits: vec![1060883511, 1060128378, 1059781098],
        metric_bits: 4633406504130226859,
        stats: stats(82_944, 96),
    };
    for width in WIDTHS {
        assert_eq!(observe(width, false), golden, "f32 cache, width {width}");
    }
}

#[test]
fn int8_cache_session_matches_golden_at_every_width() {
    let golden = Observed {
        loss_bits: vec![1060883511, 1060122425, 1059774654],
        metric_bits: 4633406504130226859,
        stats: stats(25_920, 96),
    };
    for width in WIDTHS {
        assert_eq!(observe(width, true), golden, "int8 cache, width {width}");
    }
}

/// The repository benchmark's `finetune` session (4 encoder + 1 decoder
/// layers, hidden 64, two devices, one fill epoch and five cached epochs)
/// at seed 1.
#[test]
fn benchmark_finetune_session_matches_golden() {
    let _guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ModelConfig::micro(4, 1, 64, 4);
    let backbone = EncDecModel::new(&cfg, TASK.n_out(), &mut seeded(1));
    let report = PacSession::new(PacConfig {
        devices: 2,
        reduction: 8,
        epochs: 6,
        batch_size: 8,
        lr: 1e-2,
        seed: 1,
        checkpoint_every: 4,
        cache_int8: false,
    })
    .run_with_backbone(backbone, TASK, 48, 16)
    .expect("fault-free session");
    let bits: Vec<u32> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        bits,
        [1064117548, 1057839763, 1054779501, 1050402899, 1046064116, 1040682379]
    );
    assert_eq!(
        report.cache_stats,
        CacheStats {
            entries: 48,
            bytes: 651_264,
            logical_bytes: 651_264,
            hits: 240,
            misses: 0,
        }
    );
}
