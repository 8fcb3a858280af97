//! Wall-clock benchmark of MR-MQE and MR-CPS over a 1M-individual
//! DBLP-like population on a simulated 10-machine cluster.
//!
//! ```text
//! stratmr-perfbench --workload <mqe-medium|cps-large|mqe-observed>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client answers query groups one at a time (closed loop) for the
//! given number of seconds, checking every answer. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. Any failed check
//! makes the exit code non-zero. See README.md for the metrics.

mod adapter;
mod check;
mod probe;
mod spans;

use adapter::{Algo, Inputs, Observed};
use spans::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;
use stratmr_mapreduce::{JobStats, SimTime};
use stratmr_query::{MssdAnswer, MssdQuery};

/// Individuals in the generated population.
const POPULATION: usize = 1_000_000;
/// Individuals requested per SSD.
const SAMPLE_SIZE: usize = 1_000;
/// Seed of the query-group pool. It is fixed, so every run answers the
/// same query designs (on its own population, with its own sampling
/// seeds): on `cps-large` one group can cost twice another, and a
/// seed-drawn pool of a few groups moved a run's median by a third.
const GROUP_POOL_SEED: u64 = 0x5EED_6209;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `answer_s.tail` is the highest percentile with at least this many
/// answers beyond it, or a quarter of the answers in a shorter run.
const TAIL_BEYOND: usize = 10;
/// Where a traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";
/// Median seconds of one probe pass on the development host when the
/// benchmark was written: the speed the wall-clock metrics are scaled to.
const PROBE_REF_S: f64 = 0.095;

struct Workload {
    name: &'static str,
    group: &'static str,
    algo: Algo,
    /// Attach a fresh telemetry registry and trace sink to every answer.
    observed: bool,
    /// Query groups generated at set-up; a sweep answers each once.
    /// Groups of one size differ in cost by up to 1.7×; many of them
    /// spread the answer times evenly, so that the median does not fall
    /// in the gap between two groups. Fewer for the slower algorithm,
    /// so a run still fits two sweeps.
    pool: usize,
    /// Seconds one sweep took when the benchmark was written. It fixes
    /// the number of sweeps from `--seconds` alone, so faster and slower
    /// code get the same number of answers and the same tail percentile.
    sweep_s: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mqe-medium",
        group: "Medium",
        algo: Algo::Mqe,
        observed: false,
        pool: 14,
        sweep_s: 11.8,
    },
    Workload {
        name: "cps-large",
        group: "Large",
        algo: Algo::Cps,
        observed: false,
        pool: 6,
        sweep_s: 15.0,
    },
    Workload {
        name: "mqe-observed",
        group: "Medium",
        algo: Algo::Mqe,
        observed: true,
        pool: 11,
        sweep_s: 11.0,
    },
];

const USAGE: &str = "usage: stratmr-perfbench --workload <mqe-medium|cps-large|mqe-observed> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64 finaliser: independent seeds from one workload seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process CPU seconds (user + system) from `/proc/self/stat`.
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // after the command name: state is field 3, utime 14, stime 15
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest integer percentile with at least [`TAIL_BEYOND`] values
/// above its nearest-rank value (a quarter of them, at least one, when
/// there are fewer than `4 · TAIL_BEYOND`), and that value.
fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let beyond = TAIL_BEYOND.min(n / 4).max(1);
    let p = (100 * n.saturating_sub(beyond) / n.max(1)) as u32;
    // nearest rank: the ceil(p/100 · n)-th smallest value
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, v.get(rank - 1).copied().unwrap_or(0.0))
}

/// Deterministic hash of the inputs, compared across set-ups.
fn fingerprint(inputs: &Inputs) -> u64 {
    let mut h = DefaultHasher::new();
    for s in &inputs.splits {
        (s.id, s.home_machine).hash(&mut h);
        for t in &s.records {
            (t.id, t.values(), t.payload_bytes).hash(&mut h);
        }
    }
    format!("{:?}", inputs.groups).hash(&mut h);
    h.finish()
}

/// Order-independent digest of which ids each stratum holds.
fn answer_digest(answer: &MssdAnswer) -> u64 {
    let mut h = DefaultHasher::new();
    for (i, a) in answer.answers().iter().enumerate() {
        for k in 0..a.num_strata() {
            let mut ids: Vec<u64> = a.stratum(k).iter().map(|t| t.id).collect();
            ids.sort_unstable();
            (i, k, ids).hash(&mut h);
        }
    }
    h.finish()
}

/// What one answer measured.
struct Rec {
    start: Instant,
    wall_s: f64,
    cpu_s: f64,
    jobs: Vec<(String, JobStats)>,
    cps: Option<adapter::CpsFacts>,
    /// Realised cost and the unshared cost of the same answer.
    cost: (f64, f64),
    telemetry: Option<Observed>,
    digest: u64,
}

impl Rec {
    fn sum(&self, f: impl Fn(&JobStats) -> u64) -> u64 {
        self.jobs.iter().map(|(_, s)| f(s)).sum()
    }
    fn job_wall_s(&self) -> f64 {
        self.jobs.iter().map(|(_, s)| s.wall_secs).sum()
    }
    fn phase_s(&self, label: impl Fn(&str) -> bool) -> f64 {
        self.jobs
            .iter()
            .filter(|(l, _)| label(l))
            .map(|(_, s)| s.wall_secs)
            .sum()
    }
    fn sim(&self) -> SimTime {
        let mut sim = SimTime::default();
        for (_, s) in &self.jobs {
            sim.map_us += s.sim.map_us;
            sim.combine_us += s.sim.combine_us;
            sim.shuffle_us += s.sim.shuffle_us;
            sim.reduce_us += s.sim.reduce_us;
            sim.makespan_us += s.sim.makespan_us;
        }
        sim
    }
    fn cost_ratio(&self) -> f64 {
        self.cost.0 / self.cost.1
    }
    /// The counts two answers with the same seed must reproduce exactly.
    fn counts(&self) -> String {
        format!(
            "{{\"mapreduce.jobs\": {}, \"mapreduce.map_output_records\": {}, \
             \"mapreduce.combine_output_pairs\": {}, \"mapreduce.shuffle_bytes\": {}, \
             \"sim_makespan_s\": {}, \"survey_cost_ratio\": {}, \"lp.variables\": {}, \
             \"answer_digest\": \"{:016x}\"}}",
            self.jobs.len(),
            self.sum(|s| s.map_output_records),
            self.sum(|s| s.combine_output_pairs),
            self.sum(|s| s.shuffle_bytes),
            self.sim().makespan_secs(),
            self.cost_ratio(),
            self.cps.map_or(0, |c| c.variables),
            self.digest
        )
    }
}

/// Answer `group` once and check the answer.
fn answer(
    inputs: &Inputs,
    group: &MssdQuery,
    algo: Algo,
    observed: bool,
    seed: u64,
) -> Result<(Rec, MssdAnswer), String> {
    let (cluster, obs) = adapter::cluster(observed);
    let cpu0 = cpu_secs();
    let start = Instant::now();
    let out = adapter::answer(&cluster, inputs, group, algo, seed);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_secs() - cpu0;
    let out = out?;
    let telemetry = obs.map(|(r, s)| adapter::observed(&r, &s)).transpose()?;
    let cost = adapter::costs(&out.answer, group);
    check::check(&out.answer, group, algo == Algo::Cps, cost)?;
    let rec = Rec {
        start,
        wall_s,
        cpu_s,
        digest: answer_digest(&out.answer),
        jobs: out.jobs,
        cps: out.cps,
        cost,
        telemetry,
    };
    Ok((rec, out.answer))
}

/// Record an answer's span and its jobs (with the LP between the
/// limits job and the combined SQE job, where MR-CPS solves it) as
/// children; on an observed answer with one job, the registry's
/// `mr.job/{map,shuffle,reduce}` spans become children of that job.
fn record_answer(tracer: &mut Tracer, id: u64, rec: &Rec) {
    let start = tracer.at(rec.start);
    let root = tracer.record("sampling.answer", None, Some(id), start, start + rec.wall_s);
    let mut children = Vec::new();
    for (label, stats) in &rec.jobs {
        children.push((format!("mapreduce.job[{label}]"), stats.wall_secs));
        if let (Some(cps), "selection limits") = (rec.cps, label.as_str()) {
            children.push(("lp.formulate".to_string(), cps.formulate_s));
            children.push(("lp.solve".to_string(), cps.solve_s));
        }
    }
    let ids = tracer.record_sequence(root, &children);
    if let (Some(t), [job]) = (&rec.telemetry, ids.as_slice()) {
        let phases = [
            ("mr.job/map".to_string(), t.map_s),
            ("mr.job/shuffle".to_string(), t.shuffle_s),
            ("mr.job/reduce".to_string(), t.reduce_s),
        ];
        tracer.record_sequence(*job, &phases);
    }
}

/// How an answer is executed. Each cycle of a traced run runs the same
/// group and seed in both modes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// As in the untraced run; a traced run records its spans.
    Plain,
    /// Telemetry flipped relative to the workload, no spans.
    Toggled,
}

struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0
        self.entries.push((name, value + 0.0, unit));
    }
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push('}');
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // keep the map/reduce worker threads within the host's cores
    if adapter::rayon_threads() > nproc() {
        std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One benchmark run; `Ok(false)` when any check failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let spec = adapter::group_spec(w.group);
    let group_seeds: Vec<u64> = (0..w.pool as u64)
        .map(|j| mix(GROUP_POOL_SEED, j))
        .collect();
    let answer_seed = |i: u64| mix(args.seed, 1_000 + i);
    println!(
        "# header {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"rayon_threads\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"population\": {}, \
         \"machines\": {}, \"splits\": {}, \"sample_size\": {SAMPLE_SIZE}, \"group\": \"{}\", \
         \"group_pool\": {}, \"setups\": {SETUPS}, \"seconds\": {}}}",
        w.name,
        args.seed,
        args.trace as u8,
        nproc(),
        adapter::rayon_threads(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
        POPULATION,
        adapter::MACHINES,
        adapter::SPLITS,
        w.group,
        w.pool,
        args.seconds
    );
    let mut tracer = args.trace.then(Tracer::new);
    // the untraced run's host-speed probe, built before any timing
    let probe = (!args.trace).then(|| probe::Probe::new(adapter::rayon_threads()));
    let mut problems: Vec<String> = Vec::new();

    // ---- set-up, repeated; every set-up from one seed must build the
    // same inputs
    let mut setup_times = Vec::new();
    let mut setup_probe_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut inputs = None;
    let mut bracket = probe.as_ref().map(probe::Bracket::new);
    for _ in 0..SETUPS {
        drop(inputs.take()); // free the previous population first
        let t0 = tracer.as_ref().map(Tracer::now);
        let (inp, times) = adapter::set_up(POPULATION, args.seed, &spec, SAMPLE_SIZE, &group_seeds);
        if let Some(b) = bracket.as_mut() {
            setup_probe_s.push(b.after_call());
        }
        if let (Some(tr), Some(t0)) = (tracer.as_mut(), t0) {
            let root = tr.record("setup", None, None, t0, t0 + times.total());
            tr.record_sequence(
                root,
                &[
                    ("population.generate".to_string(), times.generate_s),
                    ("population.distribute".to_string(), times.distribute_s),
                    ("input.to_splits".to_string(), times.to_splits_s),
                    ("query.group_gen".to_string(), times.group_gen_s),
                ],
            );
        }
        setup_times.push(times);
        fingerprints.push(fingerprint(&inp));
        inputs = Some(inp);
    }
    let inputs = inputs.expect("at least one set-up ran");
    if fingerprints.iter().any(|&f| f != fingerprints[0]) {
        problems.push("set-ups from one seed produced different inputs".to_string());
    }

    // ---- warm-up answer, whose counts two runs with one seed must
    // print alike, and the checker's self-test on it
    let (rec, warm) = answer(
        &inputs,
        &inputs.groups[0],
        w.algo,
        w.observed,
        answer_seed(0),
    )?;
    println!("# counts {}", rec.counts());
    if let Err(e) = check::self_test(&warm, &inputs.groups[0], w.algo == Algo::Cps, rec.cost) {
        problems.push(e);
    }
    drop(warm);

    // ---- per-layer passes (traced run only)
    let mut passes = (0.0, 0.0, 0.0);
    if let Some(tr) = tracer.as_mut() {
        let t0 = tr.now();
        let (match_ns, matches_per_row) = adapter::match_pass(&inputs, &inputs.groups[0]);
        let t1 = tr.now();
        tr.record("query.match_pass", None, None, t0, t1);
        let selection_ns = adapter::selection_pass(&inputs, &inputs.groups[0]);
        tr.record("sst.selection_pass", None, None, t1, tr.now());
        passes = (match_ns, matches_per_row, selection_ns);
    }

    // ---- closed loop, one client
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut attempt = |i: u64, observed: bool| -> Option<Rec> {
        attempted += 1;
        let group = &inputs.groups[(i - 1) as usize % w.pool];
        match answer(&inputs, group, w.algo, observed, answer_seed(i)) {
            Ok((rec, _)) => Some(rec),
            Err(e) => {
                failed += 1;
                problems.push(format!("answer {i}: {e}"));
                None
            }
        }
    };
    let mut recs: Vec<(Mode, Rec)> = Vec::new();
    // per spanned answer: its wall time plus the time spent recording its
    // spans, i.e. what the answer costs a traced run
    let mut traced_s = Vec::new();
    // untraced run: the probe time around each recorded answer
    let mut probe_s = Vec::new();
    let loop_start = Instant::now();
    let mut i = 0u64;
    if let Some(tr) = tracer.as_mut() {
        // each cycle runs one group and seed in both modes
        while loop_start.elapsed().as_secs_f64() < args.seconds {
            i += 1;
            for mode in [Mode::Plain, Mode::Toggled] {
                if let Some(rec) = attempt(i, w.observed != (mode == Mode::Toggled)) {
                    if mode == Mode::Plain {
                        let t = Instant::now();
                        record_answer(tr, i, &rec);
                        traced_s.push(rec.wall_s + t.elapsed().as_secs_f64());
                    }
                    recs.push((mode, rec));
                }
            }
        }
    } else {
        // A fixed number of sweeps over the same answers, one per pool
        // group, as many as fit in `--seconds` at the pace the benchmark
        // was written against (at least two). Every answer of every
        // sweep counts. Every sweep must reproduce every count of its
        // first sweep.
        // Probe passes between the answers measure the host's speed
        // around each.
        let sweeps = ((args.seconds / w.sweep_s) as usize).max(2);
        let mut bracket =
            probe::Bracket::new(probe.as_ref().expect("an untraced run builds the probe"));
        let mut first: Vec<Option<String>> = vec![None; w.pool];
        let mut mismatches = Vec::new();
        for _ in 0..sweeps {
            for (j, slot) in first.iter_mut().enumerate() {
                i = j as u64 + 1;
                let rec = attempt(i, w.observed);
                let around = bracket.after_call();
                let Some(rec) = rec else {
                    continue;
                };
                probe_s.push(around);
                match slot {
                    Some(counts) if *counts != rec.counts() => mismatches.push(format!(
                        "answer {i} repeated with other counts: {counts} vs {}",
                        rec.counts()
                    )),
                    Some(_) => {}
                    None => *slot = Some(rec.counts()),
                }
                recs.push((Mode::Plain, rec));
            }
        }
        println!("# sweeps {sweeps}");
        problems.extend(mismatches);
    }

    let walls = |m: Mode| -> Vec<f64> {
        recs.iter()
            .filter(|(mode, _)| *mode == m)
            .map(|(_, r)| r.wall_s)
            .collect()
    };
    let plain = walls(Mode::Plain);
    let (tail_pct, tail_s) = tail(&plain);
    println!(
        "# run {{\"answers\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"tail_percentile\": {tail_pct}, \"loop_s\": {}}}",
        plain.len(),
        loop_start.elapsed().as_secs_f64()
    );
    println!("# answer_s {plain:?}");

    let mut m = Metrics {
        entries: Vec::new(),
    };
    let med_setup =
        |f: fn(&adapter::SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    if let Some(tr) = tracer.as_ref() {
        let spanned: Vec<&Rec> = recs
            .iter()
            .filter(|(mode, _)| *mode == Mode::Plain)
            .map(|(_, r)| r)
            .collect();
        let observed: Vec<&Observed> = recs
            .iter()
            .filter_map(|(_, r)| r.telemetry.as_ref())
            .collect();
        let med =
            |f: &dyn Fn(&Rec) -> f64| median(&spanned.iter().map(|r| f(r)).collect::<Vec<_>>());
        let med_obs = |f: &dyn Fn(&Observed) -> f64| {
            median(&observed.iter().map(|o| f(o)).collect::<Vec<_>>())
        };
        let cps = |f: fn(&adapter::CpsFacts) -> f64| med(&|r| r.cps.as_ref().map_or(0.0, f));
        let rows = POPULATION as f64;
        let (telemetry_on, telemetry_off) = if w.observed {
            (Mode::Plain, Mode::Toggled)
        } else {
            (Mode::Toggled, Mode::Plain)
        };
        let cpu: f64 = spanned.iter().map(|r| r.cpu_s).sum();
        let wall: f64 = spanned.iter().map(|r| r.wall_s).sum();

        m.put("population.generate_s", med_setup(|t| t.generate_s), "s");
        m.put(
            "population.distribute_s",
            med_setup(|t| t.distribute_s),
            "s",
        );
        m.put("input.to_splits_s", med_setup(|t| t.to_splits_s), "s");
        m.put("query.group_gen_s", med_setup(|t| t.group_gen_s), "s");
        m.put("query.match_ns", passes.0, "ns");
        m.put("query.matches_per_row", passes.1, "count");
        m.put("sst.selection_ns", passes.2, "ns");
        m.put("mapreduce.jobs", med(&|r| r.jobs.len() as f64), "count");
        m.put("mapreduce.job_wall_s", med(&Rec::job_wall_s), "s");
        m.put(
            "mapreduce.map_output_records",
            med(&|r| r.sum(|s| s.map_output_records) as f64),
            "count",
        );
        m.put(
            "mapreduce.combine_output_pairs",
            med(&|r| r.sum(|s| s.combine_output_pairs) as f64),
            "count",
        );
        m.put(
            "mapreduce.reduce_input_values",
            med(&|r| r.sum(|s| s.reduce_input_values) as f64),
            "count",
        );
        m.put(
            "mapreduce.combine_keep_frac",
            med(&|r| {
                r.sum(|s| s.combine_output_pairs) as f64 / r.sum(|s| s.map_output_records) as f64
            }),
            "frac",
        );
        m.put(
            "mapreduce.shuffle_bytes_per_row",
            med(&|r| r.sum(|s| s.shuffle_bytes) as f64 / rows),
            "B",
        );
        m.put(
            "mapreduce.sim_map_frac",
            med(&|r| r.sim().phase_fractions().0),
            "frac",
        );
        m.put(
            "mapreduce.sim_combine_frac",
            med(&|r| r.sim().phase_fractions().1),
            "frac",
        );
        m.put(
            "mapreduce.sim_reduce_frac",
            med(&|r| r.sim().phase_fractions().2),
            "frac",
        );
        m.put("mapreduce.cpu_util", cpu / (wall * nproc() as f64), "frac");
        m.put(
            "mapreduce.combine_task_s_sum",
            med_obs(&|o| o.combine_task_s_sum),
            "s",
        );
        m.put(
            "sampling.driver_s",
            med(&|r| r.wall_s - r.job_wall_s()),
            "s",
        );
        m.put(
            "cps.initial_mqe_s",
            med(&|r| r.phase_s(|l| l == "initial MR-MQE")),
            "s",
        );
        m.put(
            "cps.limits_s",
            med(&|r| r.phase_s(|l| l == "selection limits")),
            "s",
        );
        m.put(
            "cps.combined_sqe_s",
            med(&|r| r.phase_s(|l| l == "combined MR-SQE")),
            "s",
        );
        m.put(
            "cps.residual_s",
            med(&|r| r.phase_s(|l| l.starts_with("residual"))),
            "s",
        );
        m.put(
            "cps.relevant_selections",
            cps(|c| c.relevant_selections as f64),
            "count",
        );
        m.put(
            "cps.residual_selections",
            cps(|c| c.residual_selections as f64),
            "count",
        );
        m.put("lp.formulate_s", cps(|c| c.formulate_s), "s");
        m.put("lp.solve_s", cps(|c| c.solve_s), "s");
        m.put("lp.variables", cps(|c| c.variables as f64), "count");
        m.put("lp.constraints", cps(|c| c.constraints as f64), "count");
        m.put(
            "telemetry.overhead_frac",
            median(&walls(telemetry_on)) / median(&walls(telemetry_off)) - 1.0,
            "frac",
        );
        m.put(
            "telemetry.counters",
            med_obs(&|o| o.counters as f64),
            "count",
        );
        m.put(
            "telemetry.trace_events",
            med_obs(&|o| o.trace_events as f64),
            "count",
        );
        m.put(
            "trace_overhead_frac",
            median(&traced_s) / median(&plain) - 1.0,
            "frac",
        );

        if let Err(e) = tr.check_nesting() {
            problems.push(format!("spans do not nest: {e}"));
        }
        for (name, (n, total, self_s)) in tr.self_times() {
            println!("# self_s {name}: spans {n}, total {total:.6} s, self {self_s:.6} s");
        }
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.json", w.name, args.seed);
        std::fs::create_dir_all(SPAN_DIR)
            .and_then(|_| std::fs::write(&path, tr.to_json()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# spans written to {path}");
    } else {
        let recs: Vec<&Rec> = recs.iter().map(|(_, r)| r).collect();
        let med = |f: &dyn Fn(&Rec) -> f64| median(&recs.iter().map(|r| f(r)).collect::<Vec<_>>());
        // Wall-clock metrics are scaled to the probe's reference speed:
        // an answer run while the probe read 10% slow counts 10% less.
        println!("# probe_s {probe_s:?}");
        let scaled: Vec<f64> = plain
            .iter()
            .zip(&probe_s)
            .map(|(wall, probe)| wall * PROBE_REF_S / probe)
            .collect();
        let rows_per_s = |xs: &[f64]| POPULATION as f64 * xs.len() as f64 / xs.iter().sum::<f64>();
        let setup_s = med_setup(adapter::SetupTimes::total);
        let setup_scaled: Vec<f64> = setup_times
            .iter()
            .zip(&setup_probe_s)
            .map(|(t, probe)| t.total() * PROBE_REF_S / probe)
            .collect();
        println!(
            "# host {{\"probe_s.p50\": {}, \"wall answer_s.p50\": {}, \
             \"wall answer_s.tail\": {tail_s}, \"wall rows_per_s\": {}, \"wall setup_s\": {setup_s}}}",
            median(&probe_s),
            median(&plain),
            rows_per_s(&plain)
        );
        m.put("answer_s.p50", median(&scaled), "s");
        m.put("answer_s.tail", tail(&scaled).1, "s");
        m.put("rows_per_s", rows_per_s(&scaled), "1/s");
        m.put("setup_s", median(&setup_scaled), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("sim_makespan_s", med(&|r| r.sim().makespan_secs()), "s");
        m.put("survey_cost_ratio", med(&Rec::cost_ratio), "ratio");
        m.put(
            "ok_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "frac",
        );
    }

    for p in &problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.to_json()
    );
    Ok(correct)
}
