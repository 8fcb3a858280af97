//! A fixed host-speed probe, independent of the program's code.
//!
//! The benchmark's host is a shared VM whose speed drifts by ±15% over
//! minutes as other tenants load it. Each probe pass does the kind of
//! work a map phase does — walk a table of reference-counted rows in
//! random memory order, test a few attributes per row, clone the
//! matching rows into a vector and sort it by key — on as many threads
//! as the program's map phase, split statically the way the vendored
//! rayon splits. Its time moves with the host and with nothing the
//! program does, so the passes around a timed call measure the host's
//! speed during it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::mix;

/// Rows in the probe's table.
const ROWS: u64 = 400_000;
/// Attributes per row; the first six are tested, as many as the Medium
/// group's SSDs.
const ATTRS: u64 = 8;

pub struct Probe {
    rows: Vec<Arc<[i64]>>,
    threads: usize,
}

impl Probe {
    /// The same table on every run: rows allocated in order, then
    /// shuffled so that a pass visits them in random memory order.
    pub fn new(threads: usize) -> Self {
        let mut rows: Vec<Arc<[i64]>> = (0..ROWS)
            .map(|i| (0..ATTRS).map(|k| mix(i, k) as i64).collect())
            .collect();
        for i in (1..rows.len()).rev() {
            let j = (mix(ROWS, i as u64) % (i as u64 + 1)) as usize;
            rows.swap(i, j);
        }
        Self {
            rows,
            threads: threads.max(1),
        }
    }

    /// One pass; its wall seconds.
    pub fn pass(&self) -> f64 {
        let chunk = self.rows.len().div_ceil(self.threads);
        let t = Instant::now();
        std::thread::scope(|s| {
            for part in self.rows.chunks(chunk) {
                s.spawn(move || {
                    let mut out: Vec<(u32, Arc<[i64]>)> = Vec::new();
                    for row in part {
                        for k in 0..6 {
                            if row[k] % 3 != 0 {
                                out.push((k as u32, Arc::clone(row)));
                            }
                        }
                    }
                    out.sort_by_key(|p| p.0);
                    black_box(out.len())
                });
            }
        });
        t.elapsed().as_secs_f64()
    }
}

/// Probe passes between consecutive timed calls: each call gets the mean
/// of the pass right before it and the pass right after it, so a long
/// call is compared with the host's speed at both of its ends.
pub struct Bracket<'a> {
    probe: &'a Probe,
    before: f64,
}

impl<'a> Bracket<'a> {
    /// Makes the pass before the first call.
    pub fn new(probe: &'a Probe) -> Self {
        Self {
            before: probe.pass(),
            probe,
        }
    }

    /// Call after each timed call: makes the pass after it, which is
    /// also the pass before the next, and returns the call's probe time.
    pub fn after_call(&mut self) -> f64 {
        let after = self.probe.pass();
        let around = (self.before + after) / 2.0;
        self.before = after;
        around
    }
}
