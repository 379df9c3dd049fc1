//! Property-based tests of the scheduler contracts: work conservation
//! and weight-proportional sharing for arbitrary weight vectors.

use proptest::prelude::*;
use ss_netsim::SimRng;
use ss_sched::{Drr, Lottery, Scheduler, Sfq, StrictPriority, Stride};

fn service_shares(s: &mut dyn Scheduler, weights: &[u64], rounds: usize) -> Vec<f64> {
    for (c, &w) in weights.iter().enumerate() {
        s.set_weight(c, w);
        s.set_backlogged(c, true);
    }
    let mut rng = SimRng::new(7);
    let mut counts = vec![0u64; weights.len()];
    for _ in 0..rounds {
        let c = s.pick(&mut rng).expect("work conservation");
        counts[c] += 1;
        s.charge(c, 1);
    }
    let total: u64 = counts.iter().sum();
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

fn check_proportional(
    s: &mut dyn Scheduler,
    weights: &[u64],
    tol: f64,
) -> Result<(), TestCaseError> {
    let rounds = 20_000;
    let shares = service_shares(s, weights, rounds);
    let wtotal: u64 = weights.iter().sum();
    for (c, (&got, &w)) in shares.iter().zip(weights).enumerate() {
        let want = w as f64 / wtotal as f64;
        prop_assert!(
            (got - want).abs() <= tol,
            "class {c}: share {got:.4} vs weight share {want:.4} ({})",
            s.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deterministic proportional-share policies track arbitrary weight
    /// vectors tightly.
    #[test]
    fn deterministic_policies_are_proportional(
        weights in prop::collection::vec(1u64..50, 2..8),
    ) {
        check_proportional(&mut Stride::new(), &weights, 0.01)?;
        check_proportional(&mut Sfq::new(), &weights, 0.01)?;
        check_proportional(&mut Drr::new(1), &weights, 0.02)?;
    }

    /// Lottery tracks weights statistically.
    #[test]
    fn lottery_is_proportional(weights in prop::collection::vec(1u64..50, 2..6)) {
        check_proportional(&mut Lottery::new(), &weights, 0.03)?;
    }

    /// Work conservation: as long as any class is backlogged with a
    /// positive weight, every policy picks something; with none, nothing.
    #[test]
    fn work_conservation(
        weights in prop::collection::vec(0u64..5, 1..8),
        backlog in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let n = weights.len().min(backlog.len());
        let eligible = (0..n).any(|c| weights[c] > 0 && backlog[c]);
        let mut rng = SimRng::new(3);
        let policies: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Lottery::new()),
            Box::new(Stride::new()),
            Box::new(Sfq::new()),
            Box::new(Drr::new(1)),
            Box::new(StrictPriority::new()),
        ];
        for mut s in policies {
            for c in 0..n {
                s.set_weight(c, weights[c]);
                s.set_backlogged(c, backlog[c]);
            }
            let picked = s.pick(&mut rng);
            prop_assert_eq!(
                picked.is_some(),
                eligible,
                "{}: eligible={} picked={:?}",
                s.name(),
                eligible,
                picked
            );
            if let Some(c) = picked {
                prop_assert!(weights[c] > 0 && backlog[c], "{} picked ineligible", s.name());
            }
        }
    }

}
