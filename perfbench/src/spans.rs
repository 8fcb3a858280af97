//! In-memory spans recorded by the benchmark around its calls into the
//! program, with self-time accounting and a nesting check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Slack allowed when comparing intervals measured by different timers:
/// the program's phase timers start and stop a few microseconds inside
/// the calls the benchmark times, and telemetry exports round to 1 µs.
pub const TIMER_SLACK_S: f64 = 1e-4;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Answer id shared by every span of one answer.
    pub answer: Option<u64>,
    /// Seconds since the tracer started.
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The spans of one run, kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds from the tracer's start to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Record a span; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        answer: Option<u64>,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            answer,
            start_s,
            end_s,
        });
        self.spans.len() - 1
    }

    /// Record child spans known only by their durations, laid out back
    /// to back from the parent's start in the order the program ran
    /// them. Returns their ids.
    pub fn record_sequence(&mut self, parent: usize, durations: &[(String, f64)]) -> Vec<usize> {
        let answer = self.spans[parent].answer;
        let mut at = self.spans[parent].start_s;
        durations
            .iter()
            .map(|(name, d)| {
                let id = self.record(name, Some(parent), answer, at, at + d);
                at += d;
                id
            })
            .collect()
    }

    /// Summed durations of each span's children.
    fn child_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.dur();
            }
        }
        sums
    }

    /// No span ends before it starts, and the children of one span add
    /// up to no more than it, within [`TIMER_SLACK_S`]. Children are laid
    /// out back to back from their parent's start, so this also keeps
    /// each child inside its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (s, sum) in self.spans.iter().zip(self.child_sums()) {
            if s.dur() < 0.0 {
                return Err(format!("span {} ends before it starts", s.name));
            }
            if sum > s.dur() + TIMER_SLACK_S {
                return Err(format!(
                    "children of span {} add up to {sum:.6} s, more than its {:.6} s",
                    s.name,
                    s.dur()
                ));
            }
        }
        Ok(())
    }

    /// Per span name: (number of spans, total duration, total self time),
    /// where self time is a span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, sum) in self.spans.iter().zip(self.child_sums()) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur();
            e.2 += s.dur() - sum;
        }
        out
    }

    /// Every span as JSON, one per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"answer\": {}, \"start_s\": {}, \"end_s\": {}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.answer),
                s.start_s,
                s.end_s
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
