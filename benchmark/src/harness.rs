//! Round control, sample collection and result printing shared by the
//! five workloads.
//!
//! A run is a sequence of *rounds*. Every round is a complete,
//! independent replica of the workload: set-up (generate the inputs
//! from the seed, build the system, register blocks), a timed phase,
//! and the output checks. The first round is an untimed warm-up; rounds
//! repeat until `--seconds` have passed. A timed phase is cut into
//! slices of equal work (10 to 120 ms each).
//!
//! A timing's value is its **fastest repetition**. On the shared
//! two-core box the noise is one-sided and bimodal — a busy neighbour
//! slows everything, processor-bound loops included, by ~1.3x in bursts
//! of tens of milliseconds to seconds (README, "Noise") — so a median
//! lands in whichever mode held the majority of the run, while the
//! fastest of several repetitions of the same work is the program's own
//! cost. Rounds are replicas, so slice `i` does the same work in every
//! round: throughput is the round's decisions over the sum of each
//! slice's fastest repetition ([`SliceTable`]) — every slice counts,
//! slow ones (a compaction cycle) included — and latency is the median
//! over slices of each slice's lowest median.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::catalogue::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::trace::Tracer;

/// Tasks in flight in every closed loop: 256 tenants, each waiting for
/// its final decision before sending the next task.
pub const WINDOW: usize = 256;

/// Fewest measured rounds a run reports a median over.
const MIN_ROUNDS: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// ~1 % sizes, for `--smoke` and the tests.
    pub smoke: bool,
    pub aa: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--smoke] [--aa]`.
    ///
    /// # Errors
    ///
    /// A message naming the flag that is unknown or malformed.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut seconds = None;
        let mut args = Self {
            workload: None,
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: false,
            aa: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => {
                    args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be > 0".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    };
                }
                "--smoke" => args.smoke = true,
                "--aa" => args.aa = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        // A smoke run is a check, not a measurement: the fewest rounds.
        args.seconds = seconds.unwrap_or(if args.smoke { 0.2 } else { RUN_SECONDS as f64 });
        Ok(args)
    }
}

/// How the next round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// Discarded: lets caches fill and lazy set-up finish.
    WarmUp,
    /// Raw storage, sink and transport; no spans.
    Untraced,
    /// Decorators installed, a span around every call.
    Traced,
}

/// One run of one workload: decides what each round is, collects the
/// per-round samples and output-check failures, and prints the result.
pub struct Bench {
    pub seed: u64,
    pub smoke: bool,
    seconds: f64,
    started: Instant,
    warmed: bool,
    round: Round,
    measured: usize,
    traced_rounds: usize,
    samples: BTreeMap<&'static str, Vec<f64>>,
    untraced: SliceTable,
    traced: SliceTable,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    tracer: Option<Arc<Tracer>>,
}

impl Bench {
    pub fn new(args: &Args) -> Self {
        Self {
            seed: args.seed,
            smoke: args.smoke,
            seconds: args.seconds,
            started: Instant::now(),
            warmed: false,
            round: Round::WarmUp,
            measured: 0,
            traced_rounds: 0,
            samples: BTreeMap::new(),
            untraced: SliceTable::default(),
            traced: SliceTable::default(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            tracer: args.trace.then(Tracer::new),
        }
    }

    /// Picks `full` or its smoke-size stand-in.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Starts the next round, or returns `None` once `--seconds` have
    /// passed (and the minimum number of rounds ran). An untraced run
    /// is warm-up then untraced rounds; a traced run alternates
    /// untraced and traced rounds, so the two are paired in time.
    pub fn next_round(&mut self) -> Option<Round> {
        let next = if !self.warmed {
            self.warmed = true;
            Round::WarmUp
        } else {
            let enough = if self.is_traced() {
                self.traced_rounds >= 2 && self.measured.is_multiple_of(2)
            } else {
                self.measured >= MIN_ROUNDS
            };
            if enough && self.started.elapsed().as_secs_f64() >= self.seconds {
                return None;
            }
            self.measured += 1;
            if self.is_traced() && self.measured.is_multiple_of(2) {
                self.traced_rounds += 1;
                Round::Traced
            } else {
                Round::Untraced
            }
        };
        self.round = next;
        Some(next)
    }

    /// Whether this is a `--trace 1` run.
    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// The tracer while a traced round runs, `None` otherwise.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        match self.round {
            Round::Traced => self.tracer.as_ref(),
            _ => None,
        }
    }

    /// The tracer regardless of the round (isolated probes of a traced
    /// run record spans too).
    pub fn probe_tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Adds one per-round value of a metric; warm-up values are dropped.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.round != Round::WarmUp {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Adds the slices of this round's timed phase (dropped in the
    /// warm-up; traced and untraced rounds are kept apart, so that the
    /// tracing overhead compares like with like).
    pub fn slices(&mut self, slices: &[Slice]) {
        match self.round {
            Round::WarmUp => {}
            Round::Untraced => {
                self.untraced.add_round(slices);
                // The whole round, for the spread a reader sees next
                // to the reported value.
                let decisions: u64 = slices.iter().map(|s| s.decisions).sum();
                let seconds: f64 = slices.iter().map(|s| s.seconds).sum();
                let p50s: Vec<f64> = slices.iter().map(|s| s.p50_ms).collect();
                self.sample("decisions_per_s", decisions as f64 / seconds);
                self.sample("decision_p50_ms", median(&p50s));
            }
            Round::Traced => self.traced.add_round(slices),
        }
    }

    /// Adds a value measured once per run, outside the rounds.
    pub fn once(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Counts operations attempted and failed in this round (warm-up
    /// included: a failure there is still a failure).
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an output check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks that a count that must repeat exactly did so in every
    /// round (the rounds are replicas of one seeded input).
    pub fn check_exact(&mut self, name: &'static str) {
        if let Some(values) = self.samples.get(name) {
            if values.windows(2).any(|w| w[0] != w[1]) {
                self.failures
                    .push(format!("{name} differs between rounds: {values:?}"));
            }
        }
    }

    /// The output checks that failed so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The value a metric would be reported with now: throughput and
    /// latency from the slice table, everything else its best repetition
    /// in the metric's own direction. 0 for no samples.
    pub fn value_of(&self, name: &str) -> f64 {
        match name {
            "decisions_per_s" => self.untraced.decisions_per_s(),
            "decision_p50_ms" => self.untraced.p50_ms(),
            _ => {
                let higher = END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .find(|m| m.name == name)
                    .is_some_and(|m| m.higher_is_better);
                self.samples.get(name).map_or(0.0, |v| best(v, higher))
            }
        }
    }

    /// Prints every sampled metric (value, min, max, n) for people,
    /// then the one-line JSON result the driver reads. Returns whether
    /// the run was correct.
    pub fn finish(mut self, workload: &str) -> bool {
        self.once("peak_rss_mb", peak_rss_mb());
        let listed: &[Metric] = if self.is_traced() {
            PER_LAYER
        } else {
            END_TO_END
        };
        if let Some(tracer) = self.tracer.clone() {
            self.report_trace(workload, &tracer);
            if !self.traced.is_empty() {
                self.once(
                    "bench.trace_overhead_ratio",
                    self.untraced.decisions_per_s() / self.traced.decisions_per_s(),
                );
            }
        }
        println!(
            "# {workload}: seed {} · {} measured rounds · {:.1} s",
            self.seed,
            self.measured,
            self.started.elapsed().as_secs_f64()
        );
        let mut body = Vec::new();
        for m in listed {
            // A layer the workload bypasses reports 0.
            let values = self.samples.get(m.name).cloned().unwrap_or_default();
            if values.is_empty() && !self.is_traced() {
                self.failures.push(format!("{} was not measured", m.name));
            }
            let value = self.value_of(m.name);
            println!(
                "{:<40} {:>16} {:<8} (min {}, median {}, max {}, n {})",
                m.name,
                fmt_num(value),
                m.unit,
                fmt_num(best(&values, false)),
                fmt_num(median(&values)),
                fmt_num(best(&values, true)),
                values.len()
            );
            body.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(value),
                m.unit
            ));
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.failures.is_empty() && self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }

    /// Writes the trace file and prints the self-time table; the layer
    /// shares become `trace.*_self_share` metrics.
    fn report_trace(&mut self, workload: &str, tracer: &Tracer) {
        let table = tracer.self_times();
        let layers = crate::trace::layer_table(&table);
        // The round and set-up spans are the benchmark's own frame, not
        // a layer of the program.
        let program_ns: u64 = layers
            .iter()
            .filter(|(l, _)| l != "bench")
            .map(|(_, ns)| ns)
            .sum();
        println!("# self time per layer (span minus the part its children cover), traced rounds");
        for (layer, ns) in &layers {
            println!(
                "#   {:<12} {:>10.1} ms {:>6.1} %",
                layer,
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / program_ns.max(1) as f64
            );
        }
        println!("# self time per span name");
        let mut rows: Vec<_> = table.iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
        for (name, t) in rows {
            println!(
                "#   {:<28} calls {:>8}  total {:>10.1} ms  self {:>10.1} ms",
                name,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        for (name, layer) in [
            ("trace.core_self_share", "core"),
            ("trace.service_self_share", "service"),
            ("trace.wal_self_share", "wal"),
            ("trace.net_self_share", "net"),
        ] {
            let ns = layers
                .iter()
                .find(|(l, _)| l == layer)
                .map_or(0, |(_, ns)| *ns);
            self.once(name, ns as f64 / program_ns.max(1) as f64);
        }
        let dir = results_dir();
        let path = dir.join(format!("trace-{workload}.json"));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(workload)))
        {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => self
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
    }
}

/// Prints a number with all the digits it was measured with.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The best of the values in the metric's direction; 0 for none.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// One slice of a timed phase: a fixed piece of a round's work.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Decisions the slice delivered.
    pub decisions: u64,
    pub seconds: f64,
    /// Median submit-to-decision latency of those decisions.
    pub p50_ms: f64,
}

/// The slices of identical rounds, aligned by position: entry `i` holds
/// every repetition of slice `i`.
#[derive(Debug, Default)]
pub struct SliceTable {
    by_index: Vec<Vec<Slice>>,
}

impl SliceTable {
    pub fn add_round(&mut self, slices: &[Slice]) {
        if self.by_index.len() < slices.len() {
            self.by_index.resize_with(slices.len(), Vec::new);
        }
        for (reps, slice) in self.by_index.iter_mut().zip(slices) {
            reps.push(*slice);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.by_index.is_empty()
    }

    /// A round's decisions over the sum of each slice's fastest
    /// repetition.
    pub fn decisions_per_s(&self) -> f64 {
        let fastest = self
            .by_index
            .iter()
            .filter_map(|reps| reps.iter().min_by(|a, b| a.seconds.total_cmp(&b.seconds)));
        let (decisions, seconds) = fastest.fold((0u64, 0.0), |(d, s), slice| {
            (d + slice.decisions, s + slice.seconds)
        });
        decisions as f64 / seconds
    }

    /// The median over slices of each slice's lowest median latency.
    pub fn p50_ms(&self) -> f64 {
        let lowest: Vec<f64> = self
            .by_index
            .iter()
            .map(|reps| reps.iter().map(|s| s.p50_ms).fold(f64::INFINITY, f64::min))
            .collect();
        median(&lowest)
    }
}

/// The `q`-quantile by nearest rank; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    dpack_core::metrics::quantile(values, q).unwrap_or(0.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

pub fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// The process's peak resident set (VmHWM) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where trace files and scratch directories go: inside the
/// benchmark's own directory, so a run writes nothing outside its
/// checkout.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A directory under `results/` for WAL and spill files, removed on
/// drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// # Panics
    ///
    /// Panics if the directory cannot be created: no workload can run
    /// without it.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = results_dir().join(format!("scratch-{}-{label}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("scratch directory under benchmark/results");
        Self { path }
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
