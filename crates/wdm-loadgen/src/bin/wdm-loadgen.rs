//! `wdm-loadgen` — drive a running `wdm-serve` daemon and report grant
//! latency and throughput.
//!
//! ```sh
//! wdm-loadgen --addr 127.0.0.1:4780 --batches 500 --load 0.3 --seed 42
//! wdm-loadgen --addr 127.0.0.1:4780 --mode open --interval-us 500 \
//!     --batches 1000 --out report.json --shutdown --expect-clean
//! ```
//!
//! `--expect-clean` makes the exit code a CI gate: any
//! `InvalidRequest` deny (a bug by construction — the generator only emits
//! in-range requests) or protocol error fails the run. Overload and
//! contention denies are normal operation and do not.

use std::process::ExitCode;
use std::time::Duration;

use wdm_loadgen::{run, LoadgenConfig, Mode};

fn usage() -> &'static str {
    "usage: wdm-loadgen --addr <host:port> [--mode closed|open] [--interval-us <us>]\n       [--batches <count>] [--load <0..1>] [--seed <u64>] [--mean-duration <slots>]\n       [--reserve-fraction <0..1>] [--reserve-lead <slots>]\n       [--scenario <plan.toml>] [--out <report.json>] [--shutdown] [--expect-clean]\n\n  --scenario drives a compiled scenario plan: its seed, slot count, load\n  shape, and holding-time model override --load/--batches/--seed/\n  --mean-duration, and the closed-loop report gains per-phase and\n  before/during/after-disruption breakdowns. Point the daemon at the same plan with\n  `wdm-serve serve --scenario`."
}

struct Args {
    config: LoadgenConfig,
    out: Option<String>,
    expect_clean: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut config = LoadgenConfig {
        addr: String::new(),
        mode: Mode::Closed,
        load: 0.3,
        batches: 500,
        seed: 42,
        mean_duration: 1.0,
        reserve_fraction: 0.0,
        reserve_lead: 4,
        shutdown_server: false,
        scenario: None,
    };
    let mut out = None;
    let mut scenario_path: Option<String> = None;
    let mut expect_clean = false;
    let mut open = false;
    let mut interval_us = 1000u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--mode" => match value("--mode")?.as_str() {
                "closed" => open = false,
                "open" => open = true,
                other => return Err(format!("--mode: unknown mode {other}")),
            },
            "--interval-us" => {
                interval_us = parse_num(&value("--interval-us")?, "--interval-us")?;
            }
            "--batches" => config.batches = parse_num(&value("--batches")?, "--batches")?,
            "--load" => config.load = parse_num(&value("--load")?, "--load")?,
            "--seed" => config.seed = parse_num(&value("--seed")?, "--seed")?,
            "--mean-duration" => {
                config.mean_duration = parse_num(&value("--mean-duration")?, "--mean-duration")?;
            }
            "--reserve-fraction" => {
                config.reserve_fraction =
                    parse_num(&value("--reserve-fraction")?, "--reserve-fraction")?;
            }
            "--reserve-lead" => {
                config.reserve_lead = parse_num(&value("--reserve-lead")?, "--reserve-lead")?;
            }
            "--scenario" => scenario_path = Some(value("--scenario")?),
            "--out" => out = Some(value("--out")?),
            "--shutdown" => config.shutdown_server = true,
            "--expect-clean" => expect_clean = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if config.addr.is_empty() {
        return Err("--addr is required".to_owned());
    }
    if let Some(path) = scenario_path {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let plan = wdm_scenario::load_plan(&text).map_err(|e| format!("{path}: {e}"))?;
        config.scenario = Some(std::sync::Arc::new(plan));
    }
    if open {
        if config.reserve_fraction > 0.0 {
            return Err("--reserve-fraction requires --mode closed".to_owned());
        }
        config.mode = Mode::Open { interval: Duration::from_micros(interval_us) };
    }
    Ok(Args { config, out, expect_clean })
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: not a number: {text}"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wdm-loadgen: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wdm-loadgen: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("wdm-loadgen: serialize report: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("wdm-loadgen: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wdm-loadgen: wrote {path}");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "wdm-loadgen: {} requests, {} grants, {} slots at {:.0} slots/s; grant latency p50={}ns p99={}ns p999={}ns",
        report.requests,
        report.grants,
        report.slots,
        report.slots_per_sec,
        report.p50_grant_latency_ns,
        report.p99_grant_latency_ns,
        report.p999_grant_latency_ns,
    );
    let w = &report.windows;
    if !w.phases.is_empty() {
        for window in w.phases.iter().chain([&w.before, &w.during, &w.after]) {
            eprintln!(
                "wdm-loadgen: window `{}`: {} slots, {} offered, {} granted, loss {:.4}",
                window.name,
                window.slots,
                window.offered,
                window.granted,
                window.loss_probability(),
            );
        }
    }
    if report.reservations > 0 {
        eprintln!(
            "wdm-loadgen: {} reservations: {} acked, {} granted, {} expired, {} denied (capacity) / {} (horizon)",
            report.reservations,
            report.reservation_acks,
            report.reservation_grants,
            report.reservation_expiries,
            report.reserve_denied_capacity,
            report.reserve_denied_horizon,
        );
    }
    if args.expect_clean && !report.clean() {
        eprintln!(
            "wdm-loadgen: --expect-clean failed: {} InvalidRequest denies",
            report.denies_invalid
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
