//! The one reservoir-sampling job behind MR-SQE, MR-MQE, and CPS's
//! combined-SQE and residual phases.
//!
//! The four differ only in their *mapping schema*: which reducer keys a
//! tuple goes to, and how many tuples each key wants. A crate-private
//! router supplies exactly those two things; the job does the rest. Each
//! `(map task, key)` folds its tuples into an Algorithm R reservoir
//! whose RNG is seeded from the task context, so only `min(f, N̄)`
//! tuples per key leave the map task; the reducer merges the
//! intermediate samples with the unified sampler (Algorithm 1) and
//! returns the final sample with the number of candidates the combiners
//! observed (Σ `N̄`), from which the caller builds the key's audit trail.

use crate::input::wire_bytes;
use crate::reservoir::Reservoir;
use crate::unified::{unified_sampler, IntermediateSample};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hash::Hash;
use stratmr_mapreduce::{Cluster, CombineJob, Emitter, InputSplit, JobError, JobOutput, TaskCtx};
use stratmr_population::Individual;

/// The mapping schema of one sampling job.
pub(crate) trait Router: Send + Sync {
    /// The reducer key.
    type Key: Clone + Eq + Hash + Send + Sync;

    /// Emit `t` once under each of its keys.
    fn route(&self, t: &Individual, out: &mut Emitter<Self::Key, Individual>);

    /// How many tuples `key` wants: its reservoir capacity and the size
    /// of its final sample.
    fn frequency(&self, key: &Self::Key) -> usize;
}

/// A key's final sample and its candidates, Σ `N̄` over its
/// intermediate samples.
pub(crate) type KeySample = (Vec<Individual>, u64);

struct ReservoirJob<'a, R>(&'a R);

impl<R: Router> CombineJob for ReservoirJob<'_, R> {
    type Input = Individual;
    type Key = R::Key;
    type MapOut = Individual;
    /// The key's reservoir within one map task, and its RNG.
    type Acc = (Reservoir<Individual>, ChaCha8Rng);
    type CombOut = IntermediateSample<Individual>;
    type ReduceOut = KeySample;

    fn map(&self, _ctx: &TaskCtx, t: &Individual, out: &mut Emitter<R::Key, Individual>) {
        self.0.route(t, out);
    }

    fn init(&self, ctx: &TaskCtx, key: &R::Key) -> Self::Acc {
        let reservoir = Reservoir::new(self.0.frequency(key));
        (reservoir, ChaCha8Rng::seed_from_u64(ctx.seed))
    }

    fn observe(&self, (reservoir, rng): &mut Self::Acc, t: Individual) {
        reservoir.observe(t, rng);
    }

    fn finish(&self, _key: &R::Key, (reservoir, _): Self::Acc) -> IntermediateSample<Individual> {
        let (sample, seen) = reservoir.into_parts();
        IntermediateSample::new(sample, seen)
    }

    fn reduce(
        &self,
        ctx: &TaskCtx,
        key: &R::Key,
        values: Vec<IntermediateSample<Individual>>,
    ) -> KeySample {
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
        let seen = values.iter().map(|s| s.drawn_from as u64).sum();
        let f = self.0.frequency(key);
        (unified_sampler(values, f, &mut rng), seen)
    }

    fn input_bytes(&self, t: &Individual) -> u64 {
        t.payload_bytes as u64
    }

    /// The projected tuples plus the `(key, N̄)` header.
    fn comb_bytes(&self, _key: &R::Key, s: &IntermediateSample<Individual>) -> u64 {
        s.sample.iter().map(wire_bytes).sum::<u64>() + 16
    }
}

/// Run the reservoir-sampling job that `router` describes on `cluster`:
/// one [`KeySample`] per key that at least one tuple reached.
pub(crate) fn try_sample<R: Router>(
    cluster: &Cluster,
    router: &R,
    splits: &[InputSplit<Individual>],
    seed: u64,
) -> Result<JobOutput<R::Key, KeySample>, JobError> {
    cluster.try_run_with_combiner(&ReservoirJob(router), splits, seed)
}
