//! The repository's end-to-end benchmark (see `README.md` beside
//! `Cargo.toml`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --rate 25 --workload solve_uniform --seed 1 --seconds 34 --trace 0
//! ```
//!
//! It drives the workspace only through public functions of
//! `dcover_hypergraph`, `dcover_core` and `dcover_congest`, timing each
//! call from these files. It prints context and every metric as `# `
//! lines, then one JSON line with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A failed correctness check makes it exit 1.

mod gen;
mod report;
mod serve;
mod solve;
mod trace;

use report::Report;
use solve::{Family, Spec};

/// The ε of every solve (the `dcover` default).
pub const EPSILON: f64 = 0.5;
/// Set-up runs at least this many times, and until `SETUP_SPAN` has
/// passed; `setup_s` is the median. Spreading the repetitions over a
/// couple of seconds keeps one slow moment of the machine out of it.
const SETUP_REPEATS: usize = 3;
const SETUP_SPAN: std::time::Duration = std::time::Duration::from_secs(2);
const SETUP_MAX_REPEATS: usize = 25;

/// Runs `set_up` as `SETUP_REPEATS` and `SETUP_SPAN` ask, and returns the
/// median time in seconds with the last repetition's output. Each earlier
/// output is dropped before the next repetition starts.
pub fn repeat_setup<T>(mut set_up: impl FnMut() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS
        || (start.elapsed() < SETUP_SPAN && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let t = std::time::Instant::now();
        let out = set_up();
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (
        report::median(&times),
        last.expect("set-up ran at least once"),
    )
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Arrivals per second of the serving workload.
    pub rate: Option<f64>,
}

fn usage(why: &str) -> ! {
    eprintln!("{why}");
    eprintln!(
        "usage: perfbench --workload solve_uniform|solve_skewed_par|serve_mixed \
         --seed N --seconds S --trace 0|1 [--rate REQ_PER_S]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rate = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |_| usage(&format!("bad value `{value}` for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().unwrap_or_else(bad)),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(bad)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage(&format!("bad value `{value}` for {flag}")),
            },
            "--rate" => match value.parse::<f64>() {
                Ok(r) if r > 0.0 && r.is_finite() => rate = Some(r),
                _ => usage(&format!("bad value `{value}` for {flag}")),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        rate,
    }
}

fn main() {
    let args = parse_args();
    let mut rep = Report::default();
    let cpu_start = report::cpu_times();
    match args.workload.as_str() {
        // The ROADMAP reference instance: a 700k-node network whose
        // working set is far beyond the caches, on the sequential engine.
        "solve_uniform" => solve::run(
            &Spec {
                family: Family::Uniform,
                n: 200_000,
                m: 500_000,
                rank: 3,
                threads: None,
            },
            &args,
            &mut rep,
        ),
        // Hubs: a larger Δ, more rounds, unbalanced chunks and mail that
        // crosses them, on the pool scheduler. Never more threads than
        // cores, so no figure here is a claim about scaling.
        "solve_skewed_par" => solve::run(
            &Spec {
                family: Family::Preferential,
                n: 200_000,
                m: 400_000,
                rank: 4,
                threads: Some(report::nproc().min(2)),
            },
            &args,
            &mut rep,
        ),
        "serve_mixed" => serve::run(&args, &mut rep),
        other => usage(&format!("unknown workload {other}")),
    }
    rep.note(report::steal_note(cpu_start));
    rep.print();
    if !rep.correct() {
        std::process::exit(1);
    }
}
