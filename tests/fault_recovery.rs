//! Fault-injection acceptance tests: a real `PacSession` run must survive
//! a mid-epoch fail-stop (replan + checkpoint resume) and must be
//! bit-identical to a fault-free run under transient AllReduce faults.

use pac_core::prelude::*;
use pac_core::trainer::{finetune, TrainConfig};
use pac_data::{Dataset, TaskKind};
use pac_model::ModelConfig;
use pac_parallel::faults::TimelineKind;
use pac_parallel::{Fault, FaultPlan};
use pac_peft::{Technique, Tuner};
use pac_tensor::rng::seeded;

/// A briefly pretrained backbone (the paper personalizes a *pretrained*
/// LLM; frozen random features would not clear the quality bar).
fn pretrained_backbone(cfg: &ModelConfig) -> pac_model::EncDecModel {
    let mut full = Tuner::new(Technique::Full, cfg, 2, &mut seeded(41));
    let pre = Dataset::generate(TaskKind::Sst2, 80, 13, 999);
    let (ptrain, peval) = pre.split(0.9);
    finetune(
        &mut full,
        &ptrain,
        &peval,
        &TrainConfig {
            epochs: 4,
            lr: 3e-3,
            ..Default::default()
        },
    )
    .unwrap();
    match full {
        Tuner::Full(f) => f.model,
        _ => unreachable!(),
    }
}

fn session(devices: usize) -> PacSession {
    PacSession::new(PacConfig {
        devices,
        reduction: 4,
        epochs: 3,
        batch_size: 8,
        lr: 1e-2,
        seed: 42,
        checkpoint_every: 4,
        cache_int8: false,
    })
}

/// Mid-epoch fail-stop: the session must replan over the survivors,
/// restore the last checkpoint, replay, and still reach fault-free-grade
/// quality.
#[test]
fn fail_stop_recovers_via_replan_and_checkpoint_resume() {
    let cfg = ModelConfig::micro(2, 1, 32, 4);
    let backbone = pretrained_backbone(&cfg);
    let task = TaskKind::Sst2;

    let clean = session(3)
        .run_with_faults(backbone.clone(), task, 48, 16, &FaultPlan::none())
        .unwrap();
    assert_eq!(clean.recovery.replans, 0);
    assert_eq!(clean.recovery.final_devices, 3);
    assert_eq!(clean.recovery.faults_injected, 0);
    // Fault-free runs still checkpoint (initial + periodic).
    assert!(clean.recovery.checkpoints >= 2);

    // Device 2 fail-stops mid-epoch-2 (18 planned steps; snapshots land
    // every 4th step, so the last one predates the fault).
    let plan = FaultPlan::none().with(Fault::FailStop { step: 9, device: 2 });
    let faulty = session(3)
        .run_with_faults(backbone, task, 48, 16, &plan)
        .unwrap();

    assert_eq!(faulty.recovery.replans, 1, "one fail-stop, one replan");
    assert_eq!(faulty.recovery.final_devices, 2);
    assert_eq!(faulty.recovery.faults_injected, 1);
    assert!(faulty.recovery.checkpoint_bytes > 0);
    let kinds: Vec<TimelineKind> = faulty.recovery.timeline.iter().map(|e| e.kind).collect();
    for needed in [
        TimelineKind::Checkpoint,
        TimelineKind::Injected,
        TimelineKind::Replan,
        TimelineKind::Resume,
    ] {
        assert!(kinds.contains(&needed), "timeline missing {needed:?}");
    }
    // The injection must precede replan, which precedes resume.
    let at = |k: TimelineKind| kinds.iter().position(|&x| x == k).unwrap();
    assert!(at(TimelineKind::Injected) < at(TimelineKind::Replan));
    assert!(at(TimelineKind::Replan) < at(TimelineKind::Resume));

    // Quality: both clear the repo's 60-point bar, and recovery stays
    // within a modest band of the fault-free run.
    assert!(clean.metric > 60.0, "clean {}", clean.metric);
    assert!(faulty.metric > 60.0, "faulty {}", faulty.metric);
    assert!(
        (clean.metric - faulty.metric).abs() < 20.0,
        "recovery drifted too far: clean {} vs faulty {}",
        clean.metric,
        faulty.metric
    );
}

/// Transient AllReduce faults within the retry budget must be absorbed by
/// bounded retries and leave the whole run bit-identical to fault-free.
#[test]
fn transient_allreduce_is_retried_and_bitwise_transparent() {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let task = TaskKind::Sst2;
    let mk = || {
        PacSession::new(PacConfig {
            devices: 2,
            reduction: 4,
            epochs: 2,
            batch_size: 4,
            lr: 1e-2,
            seed: 7,
            checkpoint_every: 3,
            cache_int8: false,
        })
    };
    let backbone = pac_model::EncDecModel::new(&cfg, task.n_out(), &mut seeded(77));

    let clean = mk()
        .run_with_faults(backbone.clone(), task, 24, 8, &FaultPlan::none())
        .unwrap();
    let plan = FaultPlan::none()
        .with(Fault::AllReduceTransient {
            step: 1,
            failures: 2,
            lane: None,
        })
        .with(Fault::AllReduceTransient {
            step: 4,
            failures: 1,
            lane: Some(1),
        });
    let faulty = mk().run_with_faults(backbone, task, 24, 8, &plan).unwrap();

    assert_eq!(faulty.recovery.retries, 3, "2 + 1 bounded retries");
    assert_eq!(faulty.recovery.replans, 0, "transients never replan");
    assert_eq!(faulty.recovery.final_devices, 2);
    // Injection happens before any gradient math, so the runs are
    // bitwise-identical: same per-epoch losses, same final metric.
    for (a, b) in clean.epoch_losses.iter().zip(faulty.epoch_losses.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch losses diverged");
    }
    assert_eq!(clean.metric.to_bits(), faulty.metric.to_bits());
}

/// Losing every device is unrecoverable and must surface as a typed error,
/// not a hang or a panic.
#[test]
fn losing_all_devices_is_a_typed_unplannable_error() {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let backbone = pac_model::EncDecModel::new(&cfg, 2, &mut seeded(78));
    let plan = FaultPlan::none()
        .with(Fault::FailStop { step: 1, device: 0 })
        .with(Fault::FailStop { step: 2, device: 1 });
    let err = PacSession::new(PacConfig {
        devices: 2,
        epochs: 2,
        batch_size: 4,
        ..Default::default()
    })
    .run_with_faults(backbone, TaskKind::Sst2, 16, 8, &plan)
    .unwrap_err();
    assert!(
        matches!(err, pac_parallel::EngineError::Unplannable { survivors: 0 }),
        "unexpected error: {err}"
    );
}

/// Pool width is process-global: runs that set it must not interleave.
static POOL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One fault plan against a small four-device session (12-row batches, so
/// every survivor count down to one still shards a batch whole), run at
/// pool width `width`.
fn cache_fault_run(
    width: usize,
    cache_int8: bool,
    plan: &FaultPlan,
) -> (Vec<u32>, u64, pac_peft::CacheStats) {
    let _guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    rayon::pool::set_max_concurrency(width);
    let cfg = ModelConfig::micro(2, 1, 16, 2);
    let task = TaskKind::Sst2;
    let backbone = pac_model::EncDecModel::new(&cfg, task.n_out(), &mut seeded(5));
    let report = PacSession::new(PacConfig {
        devices: 4,
        reduction: 4,
        epochs: 3,
        batch_size: 12,
        lr: 1e-2,
        seed: 5,
        checkpoint_every: 3,
        cache_int8,
    })
    .run_with_faults(backbone, task, 48, 12, plan);
    rayon::pool::set_max_concurrency(usize::MAX);
    let report = report.expect("session recovers");
    (
        report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        report.metric.to_bits(),
        report.cache_stats,
    )
}

/// Every fault path ends with the activation cache whole — one entry per
/// training row, no misses — and with the recorded loss, metric and cache
/// bits, at pool widths 1, 2 and 8 and for both cache precisions. The
/// plans strike the epoch-1 fill (a lane panic, an AllReduce that drops an
/// unreachable lane, a fail-stop) and a cached epoch (a lane panic).
#[test]
fn fault_paths_keep_the_cache_whole_and_bitwise() {
    use pac_parallel::engine::MAX_ALLREDUCE_RETRIES;
    let stats = |bytes, hits| pac_peft::CacheStats {
        entries: 48,
        bytes,
        logical_bytes: 82_944,
        hits,
        misses: 0,
    };
    // (plan, f32 loss bits, int8 loss bits, metric bits, cache hits)
    let cases = [
        (
            "lane panic in the fill epoch",
            Fault::LanePanic {
                step: 1,
                lane: 2,
                stage: 0,
            },
            [1060883511, 1060128378, 1059781097],
            [1060883511, 1060122424, 1059774654],
            4633406504130226859,
            96,
        ),
        (
            "unreachable lane dropped in the fill epoch",
            Fault::AllReduceTransient {
                step: 2,
                failures: MAX_ALLREDUCE_RETRIES + 1,
                lane: Some(3),
            },
            [1060906501, 1060075908, 1059724942],
            [1060906501, 1060069866, 1059718286],
            4634391666548714154,
            96,
        ),
        (
            "fail-stop in the fill epoch",
            Fault::FailStop { step: 2, device: 0 },
            [1060883511, 1060128378, 1059781097],
            [1060883511, 1060122424, 1059774654],
            4633406504130226859,
            96,
        ),
        (
            "lane panic in a cached epoch",
            Fault::LanePanic {
                step: 6,
                lane: 1,
                stage: 0,
            },
            [1060883511, 1060128377, 1059781097],
            [1060883511, 1060122425, 1059774654],
            4633406504130226859,
            108,
        ),
    ];
    for (name, fault, f32_bits, int8_bits, metric_bits, hits) in cases {
        let plan = FaultPlan::none().with(fault);
        for width in [1, 2, 8] {
            let (losses, metric, cache) = cache_fault_run(width, false, &plan);
            assert_eq!(losses, f32_bits, "{name}: f32 losses, width {width}");
            assert_eq!(metric, metric_bits, "{name}: f32 metric, width {width}");
            assert_eq!(
                cache,
                stats(82_944, hits),
                "{name}: f32 cache, width {width}"
            );
            let (losses, metric, cache) = cache_fault_run(width, true, &plan);
            assert_eq!(losses, int8_bits, "{name}: int8 losses, width {width}");
            assert_eq!(metric, metric_bits, "{name}: int8 metric, width {width}");
            assert_eq!(
                cache,
                stats(25_920, hits),
                "{name}: int8 cache, width {width}"
            );
        }
    }
}
