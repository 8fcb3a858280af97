//! The combiner and reducer shared by every sampling job: MR-SQE,
//! MR-MQE, and CPS's combined-SQE and residual phases.
//!
//! Each `(map task, key)` folds its tuples into an Algorithm R
//! reservoir ([`SampleAcc`]) seeded from the task context, so only
//! `min(f, N̄)` tuples per key leave the map task; the reducer merges the
//! intermediate samples with the unified sampler (Algorithm 1).

use crate::input::wire_bytes;
use crate::reservoir::Reservoir;
use crate::unified::{unified_sampler, IntermediateSample};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratmr_mapreduce::TaskCtx;
use stratmr_population::Individual;

/// Combiner state of one key within one map task: a reservoir of the
/// key's frequency and the RNG seeded by the task context.
#[derive(Debug, Clone)]
pub struct SampleAcc<T> {
    reservoir: Reservoir<T>,
    rng: ChaCha8Rng,
}

impl<T> SampleAcc<T> {
    /// An empty reservoir of `capacity` items, seeded with `ctx.seed`.
    pub fn new(ctx: &TaskCtx, capacity: usize) -> Self {
        Self {
            reservoir: Reservoir::new(capacity),
            rng: ChaCha8Rng::seed_from_u64(ctx.seed),
        }
    }

    /// Fold the next item of the key's stream in.
    #[inline]
    pub fn observe(&mut self, item: T) {
        self.reservoir.observe(item, &mut self.rng);
    }

    /// The intermediate sample `(S̄, N̄)` shipped to the reducer.
    pub fn finish(self) -> IntermediateSample<T> {
        let (sample, seen) = self.reservoir.into_parts();
        IntermediateSample::new(sample, seen)
    }
}

/// Merge one key's intermediate samples into a final sample of `f`
/// tuples with the unified sampler. Returns the sample and the number of
/// candidates the combiners observed (Σ `drawn_from`).
pub(crate) fn merge_samples(
    ctx: &TaskCtx,
    values: Vec<IntermediateSample<Individual>>,
    f: usize,
) -> (Vec<Individual>, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
    let seen: u64 = values.iter().map(|s| s.drawn_from as u64).sum();
    (unified_sampler(values, f, &mut rng), seen)
}

/// Simulated wire size of an intermediate sample: its projected tuples
/// plus the `(key, N̄)` header.
pub(crate) fn sample_bytes(s: &IntermediateSample<Individual>) -> u64 {
    s.sample.iter().map(wire_bytes).sum::<u64>() + 16
}
