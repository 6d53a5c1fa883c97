//! Output checks. Each returns whether the program's output is correct;
//! the workloads count a `false` as a failed operation.

use pac_serve::{JobOutcome, JobSpec};
use std::collections::BTreeMap;

/// Loss bits, for bitwise comparison.
pub fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// `n` losses, every one finite.
pub fn finite(losses: &[f32], n: usize) -> bool {
    losses.len() == n && losses.iter().all(|l| l.is_finite())
}

/// Training made progress: the last epoch's loss is below the first's.
pub fn improved(losses: &[f32]) -> bool {
    matches!((losses.first(), losses.last()), (Some(a), Some(b)) if b < a)
}

/// The losses equal `reference` bit for bit (a repeat of one seed, a
/// traced repeat, or a tenant's solo run).
pub fn same_bits(reference: &[u32], losses: &[f32]) -> bool {
    !reference.is_empty() && reference == bits(losses).as_slice()
}

/// Every job has an outcome for its own tenant and none faulted.
pub fn all_answered(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> bool {
    jobs.len() == outcomes.len()
        && jobs
            .iter()
            .zip(outcomes)
            .all(|(j, o)| j.tenant == o.tenant && !o.faulted)
}

/// Each job published its tenant's next version: one more than the
/// version `versions` last recorded for it. Updates `versions`.
pub fn versions_bumped_once(
    versions: &mut BTreeMap<u64, u32>,
    jobs: &[JobSpec],
    outcomes: &[JobOutcome],
) -> bool {
    let mut ok = jobs.len() == outcomes.len();
    for (job, o) in jobs.iter().zip(outcomes) {
        let prev = versions.insert(job.tenant, o.version).unwrap_or(0);
        ok &= o.version == prev + 1;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: u64) -> JobSpec {
        JobSpec {
            tenant,
            steps: 1,
            seed: 0,
            fault_at: None,
            park: true,
        }
    }

    fn done(tenant: u64, version: u32) -> JobOutcome {
        JobOutcome {
            tenant,
            version,
            faulted: false,
            final_loss: 0.5,
        }
    }

    #[test]
    fn wrong_losses_fail_their_checks() {
        let good = [0.7f32, 0.6, 0.5];
        assert!(finite(&good, 3) && improved(&good) && same_bits(&bits(&good), &good));
        assert!(!finite(&[0.7, f32::NAN, 0.5], 3), "a NaN loss");
        assert!(!finite(&good, 4), "a missing epoch");
        assert!(!improved(&[0.5, 0.6, 0.7]), "loss went up");
        let nudged = [0.7f32, 0.6, f32::from_bits(0.5f32.to_bits() + 1)];
        assert!(!same_bits(&bits(&good), &nudged), "one ulp apart");
        assert!(!same_bits(&[], &good), "no reference to match");
    }

    #[test]
    fn wrong_serve_outcomes_fail_their_checks() {
        let jobs = [job(1), job(2)];
        assert!(all_answered(&jobs, &[done(1, 1), done(2, 1)]));
        assert!(!all_answered(&jobs, &[done(1, 1)]), "a job unanswered");
        assert!(
            !all_answered(&jobs, &[done(1, 1), done(3, 1)]),
            "answer for another tenant"
        );
        let mut faulted = done(2, 0);
        faulted.faulted = true;
        assert!(
            !all_answered(&jobs, &[done(1, 1), faulted]),
            "a faulted job"
        );

        let mut versions = BTreeMap::new();
        assert!(versions_bumped_once(
            &mut versions,
            &jobs,
            &[done(1, 1), done(2, 1)]
        ));
        assert!(versions_bumped_once(
            &mut versions,
            &jobs,
            &[done(1, 2), done(2, 2)]
        ));
        let mut twice = versions.clone();
        assert!(
            !versions_bumped_once(&mut twice, &jobs, &[done(1, 4), done(2, 3)]),
            "a version skipped"
        );
        assert!(
            !versions_bumped_once(&mut versions, &jobs, &[done(1, 2), done(2, 3)]),
            "a version not bumped"
        );
    }
}
