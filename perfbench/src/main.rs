//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-packet --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all --seed 1
//! ```
//!
//! One invocation measures one workload (`sim-packet`, `sim-coherent`,
//! `serve-closed`, `serve-pair`) for `--seconds` of repeated passes. Each
//! pass builds its system from the seed (the set-up), runs a fixed amount
//! of work, and checks its outputs. `--trace 0` reports the end-to-end
//! metrics over the passes (see `QUIET_SHARE`); `--trace 1` alternates
//! untraced and traced passes and reports the per-layer metrics from the
//! traced ones.
//! `--workload all` runs every workload both ways in child processes.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Any failed correctness gate makes `correct` false and the exit code 1.
//! A build with debug assertions refuses to report timings.

mod alloc;
mod gen;
mod serve;
mod shadow;
mod sim;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Spans;
use stats::{quantile, quiet_cutoff, Accounting, LatencySummary, Tail};

#[global_allocator]
static GLOBAL: alloc::GatedAlloc = alloc::GatedAlloc;

const WORKLOADS: [&str; 4] = ["sim-packet", "sim-coherent", "serve-closed", "serve-pair"];

/// End-to-end metrics: name, unit. The latency tail is the p95, not the
/// p99: on a shared 2-vCPU VM a pass's p99 follows host preemption, most of
/// it too short for the steal counter's 10 ms ticks. serve-closed passes
/// with 2–5% steal had p99 2.0–2.3× the steal-free median but p95 1.2×
/// (README.md). The p99 is still printed per pass.
const END_TO_END: [(&str, &str); 7] = [
    ("decisions_per_s", "1/s"),
    ("verdict_p50_us", "us"),
    ("verdict_p95_us", "us"),
    ("grant_ratio", "ratio"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name, unit, and the workloads that exercise the
/// layer (elsewhere the metric reads 0).
const PER_LAYER: [(&str, &str, &[&str]); 30] = [
    ("traffic.ns_per_slot", "ns", &WORKLOADS),
    ("interconnect.ns_per_slot", "ns", &WORKLOADS),
    ("interconnect.self_ns_per_slot", "ns", &WORKLOADS),
    ("interconnect.allocs_per_slot", "count", &WORKLOADS),
    ("core.ns_per_call", "ns", &WORKLOADS),
    ("core.calls_per_slot", "count", &WORKLOADS),
    ("core.grants_per_call", "count", &WORKLOADS),
    ("core.repair_ratio", "ratio", &WORKLOADS),
    ("core.fallback_ratio", "ratio", &WORKLOADS),
    ("protocol.encode_ns_per_frame", "ns", &WORKLOADS),
    ("protocol.decode_ns_per_frame", "ns", &WORKLOADS),
    ("protocol.bytes_per_request", "bytes", &WORKLOADS),
    ("engine.submit_ns_per_request", "ns", &WORKLOADS),
    ("engine.run_slot_ns", "ns", &WORKLOADS),
    ("engine.requests_per_slot", "count", &WORKLOADS),
    ("engine.queue_full", "count", &WORKLOADS),
    ("engine.reserve_ns", "ns", &["serve-pair"]),
    ("session.submit_call_us", "us", &SERVE),
    ("session.first_verdict_us", "us", &SERVE),
    ("session.drain_us", "us", &SERVE),
    ("session.unattributed_us", "us", &SERVE),
    ("reservation.ack_us", "us", &["serve-pair"]),
    ("reservation.admit_ratio", "ratio", &["serve-pair"]),
    ("reservation.activation_ratio", "ratio", &["serve-pair"]),
    ("gen.ns_per_batch", "ns", &WORKLOADS),
    ("reconcile.covered_share", "ratio", &WORKLOADS),
    ("reconcile.unattributed_share", "ratio", &WORKLOADS),
    ("reconcile.tracing_overhead", "ratio", &WORKLOADS),
    ("split.core_share", "ratio", &WORKLOADS),
    ("split.engine_share", "ratio", &WORKLOADS),
];

const SERVE: [&str; 2] = ["serve-closed", "serve-pair"];

/// One pass of a workload: its set-up, its measured section, and what it
/// observed.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Seconds from construction to the first measured slot or round.
    pub setup_s: f64,
    /// Seconds of the measured section.
    pub measured_s: f64,
    /// Requests sent, answered, granted and failed in the measured section.
    pub acct: Accounting,
    /// Cell requests answered (`acct.answered` minus reservation
    /// admission replies); the denominator of `grant_ratio`.
    pub cell_answered: u64,
    /// Verdict latency percentiles.
    pub latency: LatencySummary,
    /// Whether spans, shadows and allocation counting were on.
    pub traced: bool,
    /// Share of the VM's CPU time the host stole during the pass (set-up
    /// included), from `/proc/stat`. `drive_passes` fills it in; it stays 0
    /// where `/proc/stat` cannot be read.
    pub steal: f64,
}

impl Pass {
    /// Requests answered per second of the measured section.
    pub fn decisions_per_s(&self) -> f64 {
        if self.measured_s > 0.0 {
            self.acct.answered as f64 / self.measured_s
        } else {
            0.0
        }
    }
}

/// Runs `pass(traced)` until `seconds` of measured time have accumulated:
/// at least three passes; with tracing, untraced and traced alternate and
/// there are at least two of each.
pub fn drive_passes(
    seconds: f64,
    trace: bool,
    mut pass: impl FnMut(bool) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let min = if trace { 4 } else { 3 };
    let mut passes = Vec::new();
    let mut measured = 0.0;
    while passes.len() < min || measured < seconds {
        let before = cpu_ticks();
        let mut p = pass(trace && passes.len() % 2 == 1)?;
        if let (Some((steal0, all0)), Some((steal1, all1))) = (before, cpu_ticks()) {
            p.steal = ratio(steal1.saturating_sub(steal0), all1.saturating_sub(all0));
        }
        measured += p.measured_s;
        passes.push(p);
    }
    Ok(passes)
}

/// Stolen and total CPU ticks of the whole VM, from the `cpu` line of
/// `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Median decisions per second of the (traced, untraced) passes.
pub fn dps_medians(passes: &[Pass]) -> (f64, f64) {
    let of = |traced: bool| {
        let v: Vec<f64> =
            passes.iter().filter(|p| p.traced == traced).map(Pass::decisions_per_s).collect();
        quantile(&v, 0.5).unwrap_or(0.0)
    };
    (of(true), of(false))
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metric values by name.
#[derive(Debug, Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Every pass, traced or not.
    pub passes: Vec<Pass>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Lines for the human-readable report.
    pub report: Vec<String>,
    /// Failed correctness gates.
    pub errors: Vec<String>,
    /// Span records of the traced passes.
    pub spans: Option<Spans>,
    /// Peak resident memory in MiB when the measured passes ended, before
    /// any check that runs after them.
    pub peak_rss_mib: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Measure only the peak resident memory (see `MEMORY_SECONDS`).
    memory: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, memory: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--memory" => args.memory = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

const USAGE: &str =
    "usage: perfbench --workload <sim-packet|sim-coherent|serve-closed|serve-pair|all> \
     [--seed N] [--seconds S] [--trace 0|1]";

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit of the checkout in the working directory, read from `.git`
/// without running git; "none" outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "none".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"debug_assertions\": {}, \"simd\": {}}}",
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_commit()),
        cfg!(debug_assertions),
        cfg!(feature = "simd"),
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn tail_us(t: Tail) -> String {
    t.ns.map_or_else(|| "n/a".to_owned(), |ns| format!("{:.1} us", ns as f64 / 1_000.0))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// End-to-end timings come from the quiet passes: those the host stole no
/// more CPU time from than from the quietest tenth of passes (see
/// `stats::quiet_cutoff`). The VM shares its host, and in busy phases the
/// host steals up to a third of its CPU time, which halved decisions/s and
/// multiplied p99 by ten in the passes it hit. A change to the code moves
/// every pass; a busy phase moves only the passes it overlaps.
const QUIET_SHARE: f64 = 0.1;

/// End-to-end metrics from the untraced passes.
fn end_to_end(
    args: &Args,
    run: &Run,
    errors: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let untraced: Vec<&Pass> = run.passes.iter().filter(|p| !p.traced).collect();
    let steal: Vec<f64> = untraced.iter().map(|p| p.steal).collect();
    let cutoff = quiet_cutoff(&steal, QUIET_SHARE);
    let quiet: Vec<&Pass> = untraced.iter().copied().filter(|p| p.steal <= cutoff).collect();
    println!(
        "  timings from the {} of {} passes with steal at most {cutoff:.3}",
        quiet.len(),
        untraced.len()
    );
    let median = |f: &dyn Fn(&Pass) -> Option<f64>| {
        quantile(&quiet.iter().filter_map(|p| f(p)).collect::<Vec<f64>>(), 0.5)
    };
    let mut acct = Accounting::default();
    let mut cells = 0;
    for p in &untraced {
        acct.merge(&p.acct);
        cells += p.cell_answered;
    }
    let p95 = median(&|p| p.latency.p95.ns.map(|ns| ns as f64 / 1_000.0));
    if p95.is_none() {
        errors.push("no pass had 10 verdicts beyond its p95".to_owned());
    }
    let values = [
        median(&|p| Some(p.decisions_per_s())),
        median(&|p| Some(p.latency.p50_ns as f64 / 1_000.0)),
        p95,
        Some(ratio(acct.grants, cells)),
        Some(1.0 - acct.failed_frac()),
        median(&|p| Some(p.setup_s)),
        memory_run(args).map_err(|e| errors.push(e)).ok(),
    ];
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v.unwrap_or(0.0))).collect()
}

/// Memory runs per end-to-end run; `peak_rss_mib` is their median.
const MEMORY_RUNS: usize = 5;

/// Measured seconds of one memory run: short enough that it stops after the
/// minimum of three passes.
const MEMORY_SECONDS: &str = "0.1";

/// Peak resident memory of the workload: the median over `MEMORY_RUNS` runs
/// of it, each in a child process with a single malloc arena. With glibc's
/// default per-thread arenas the daemon workloads' peak jumped between
/// about 8 and 12.5 MiB from run to run, depending on which threads got an
/// arena of their own. Even with one arena, the peak of a daemon session
/// depends on thread timing: one seed gave 4.8–5.9 MiB from run to run.
/// The timed passes keep the default arenas, so only this figure is
/// steadied.
fn memory_run(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let mut peaks = Vec::with_capacity(MEMORY_RUNS);
    for _ in 0..MEMORY_RUNS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", MEMORY_SECONDS, "--trace", "0", "--memory"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("memory run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let value = stdout.lines().last().and_then(|l| l.strip_prefix("peak_rss_mib "));
        match value.map(str::parse::<f64>) {
            Some(Ok(mib)) if out.status.success() => peaks.push(mib),
            _ => return Err(format!("memory run failed ({}): {}", out.status, stdout.trim())),
        }
    }
    quantile(&peaks, 0.5).ok_or_else(|| "no memory run".to_owned())
}

fn write_spans(spans: &Spans, workload: &str, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?.join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let (written, dropped) = spans.write_jsonl(&mut out).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!("spans: {written} written to {} ({dropped} more aggregated only)", path.display()))
}

fn run_workload(args: &Args) -> Result<Run, String> {
    match args.workload.as_str() {
        "sim-packet" => sim::run(sim::SimKind::Packet, args.seed, args.seconds, args.trace),
        "sim-coherent" => sim::run(sim::SimKind::Coherent, args.seed, args.seconds, args.trace),
        "serve-closed" => serve::run(serve::ServeKind::Closed, args.seed, args.seconds, args.trace),
        "serve-pair" => serve::run(serve::ServeKind::Pair, args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn one(args: &Args) -> ExitCode {
    let mut run = match run_workload(args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut errors = std::mem::take(&mut run.errors);
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for (i, p) in run.passes.iter().enumerate() {
        println!(
            "  pass {i:>2}{}: setup {:.4} s, measured {:.3} s, {} answered ({} samples, {} beyond p95, {} beyond p99), {:.0} decisions/s, p50 {:.1} us, p95 {}, p99 {}, steal {:.3}",
            if p.traced { " traced" } else { "" },
            p.setup_s,
            p.measured_s,
            p.acct.answered,
            p.latency.count,
            p.latency.p95.beyond,
            p.latency.p99.beyond,
            p.decisions_per_s(),
            p.latency.p50_ns as f64 / 1_000.0,
            tail_us(p.latency.p95),
            tail_us(p.latency.p99),
            p.steal
        );
    }
    for line in &run.report {
        println!("  {line}");
    }
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        for &(name, unit, on) in &PER_LAYER {
            let value = run.layers.get(name).filter(|_| on.contains(&args.workload.as_str()));
            let shown = value.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.4}"));
            println!("  layer {name:<32} {shown:>14} {unit}");
            metrics.push((name, unit, value.unwrap_or(0.0)));
        }
        if let Some(spans) = &run.spans {
            for (name, t) in spans.all_totals() {
                println!(
                    "  span {name:<32} count {:>9} total {:>12.3} ms self {:>12.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
            match write_spans(spans, &args.workload, args.seed) {
                Ok(line) => println!("  {line}"),
                Err(e) => println!("  spans not written: {e}"),
            }
        }
        let split = |n| run.layers.get(n).unwrap_or(0.0);
        if args.workload.starts_with("sim") {
            println!(
                "  prediction: core holds most of the slot: core share {:.3} ({})",
                split("split.core_share"),
                if split("split.core_share") > 0.5 { "holds" } else { "fails" }
            );
        } else {
            let wire = 1.0 - split("split.engine_share");
            println!(
                "  prediction: protocol + session hold most of the round trip: share {wire:.3} ({})",
                if wire > 0.5 { "holds" } else { "fails" }
            );
        }
    } else {
        metrics = end_to_end(args, &run, &mut errors);
        for (name, unit, value) in &metrics {
            println!("  {name:<18} {value:>16.4} {unit}");
        }
    }
    let mut acct = Accounting::default();
    for p in &run.passes {
        acct.merge(&p.acct);
    }
    for e in &errors {
        println!("  CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(n), json_num(*v), json_str(u))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acct.sent.max(1),
        acct.failed(),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload end to end and traced, each in its own
/// child process (so each reports its own peak memory).
fn all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the perfbench executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    println!("{w} --trace {trace}: exit {s}");
                    ok = false;
                }
                Err(e) => {
                    println!("{w} --trace {trace}: {e}");
                    ok = false;
                }
            }
        }
    }
    println!("{}", if ok { "all workloads correct" } else { "a workload failed" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to report timings from a build with debug assertions; build with --release");
        return ExitCode::from(2);
    }
    // The timed passes run with glibc's default arena limit, 8 per core on
    // a 64-bit host, and the memory run with one (see `memory_run`). Both
    // are set here so that an inherited MALLOC_ARENA_MAX changes neither.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let arenas = if args.memory { 1 } else { i32::try_from(8 * nproc).unwrap_or(i32::MAX) };
    if let Err(e) = alloc::set_arena_max(arenas) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    // A request the daemon never answers would block a client forever; the
    // watchdog turns that into a failed run (after 150 s for a 45 s run).
    let deadline = Duration::from_secs_f64(args.seconds * 2.0 + 60.0);
    if args.workload != "all" {
        std::thread::spawn(move || {
            let start = Instant::now();
            std::thread::sleep(deadline);
            eprintln!(
                "perfbench: no result after {:.0} s; giving up",
                start.elapsed().as_secs_f64()
            );
            std::process::exit(3);
        });
    }
    if args.memory {
        return match run_workload(&args) {
            Ok(run) => {
                println!("peak_rss_mib {}", run.peak_rss_mib);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench {} memory run: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    println!("fingerprint {}", fingerprint());
    if args.workload == "all" {
        return all(&args);
    }
    one(&args)
}
