//! The serving workload: an open-loop stream of mixed requests against
//! one `SolveService`.
//!
//! One generator thread sleeps until each request's due time (a fixed
//! absolute rate, no busy-spinning), parses the record the way
//! `dcover serve` does on arrival, and submits it. The service runs
//! `max(1, nproc − 1)` workers, pinned away from the generator's CPU, so
//! the generator keeps a core of its own.
//! The main thread redeems tickets in arrival order and certifies every
//! result against its own graph, revisions against their revised graph.
//! Latency runs from a request's due time to its completion, which is
//! rebuilt from the ticket's queue and run times, so a ticket redeemed
//! late is still timed right.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dcover_core::{
    ClassMetrics, MwhvcConfig, MwhvcSolver, RequestClass, ServiceMetrics, SolveService,
    SubmitOptions, Ticket,
};
use dcover_hypergraph::{format, Hypergraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::gen;
use crate::report::{self, max, mean, median, ms, quantile, Report};
use crate::solve::check;
use crate::trace::Trace;
use crate::{repeat_setup, Args, EPSILON};

/// Request kinds per block of ten arrivals, shuffled within each block:
/// 70% bulk cold solves, 20% interactive solves, 10% revisions.
const BLOCK: [Kind; 10] = [
    Kind::Bulk,
    Kind::Bulk,
    Kind::Bulk,
    Kind::Bulk,
    Kind::Bulk,
    Kind::Bulk,
    Kind::Bulk,
    Kind::Interactive,
    Kind::Interactive,
    Kind::Revision,
];
/// Vertex counts of a block's bulk requests, in shuffled order. Every seed
/// gets the same sizes, so the latency tail differs between seeds by the
/// order of arrivals and the graphs, not by how many large requests drew.
const BULK_N: [usize; 7] = [1500, 1750, 2000, 2250, 2500, 2750, 3000];
/// A revision revises the latest bulk request at least this many arrivals
/// older, so its base has almost always completed and the choice does not
/// depend on timing.
const BASE_LAG: usize = 8;
/// Large enough that the open loop never blocks on a full queue.
const QUEUE_CAPACITY: usize = 4096;
/// Every this-many-th bulk instance is re-solved after the window, traced,
/// for the engine's layer profile.
const PROFILE_EVERY: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Bulk,
    Interactive,
    Revision,
}

struct Request {
    kind: Kind,
    text: String,
}

/// Builds the request stream for `count` arrivals from `seed`.
fn stream(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    // (kind, vertex count) per arrival. A revision's count is used only
    // when it has no base yet and turns into a bulk request.
    let mut kinds = Vec::with_capacity(count);
    while kinds.len() < count {
        let mut block = BLOCK;
        block.shuffle(&mut rng);
        let mut bulk_n = BULK_N;
        bulk_n.shuffle(&mut rng);
        let mut bulk_n = bulk_n.into_iter();
        let mut interactive_n = [rng.gen_range(60..=90), rng.gen_range(91..=120)].into_iter();
        kinds.extend(block.map(|kind| {
            let n = match kind {
                Kind::Bulk => bulk_n.next(),
                Kind::Interactive => interactive_n.next(),
                Kind::Revision => None,
            };
            (kind, n.unwrap_or(BULK_N[BULK_N.len() / 2]))
        }));
    }
    kinds.truncate(count);
    let mut graphs: Vec<Option<Hypergraph>> = Vec::with_capacity(count);
    let mut requests = Vec::with_capacity(count);
    let mut last_bulk: Vec<usize> = Vec::new();
    for (i, &(kind, n)) in kinds.iter().enumerate() {
        let base = i
            .checked_sub(BASE_LAG)
            .and_then(|newest| last_bulk.iter().rev().find(|&&b| b <= newest).copied());
        let (kind, text, graph) = match (kind, base) {
            (Kind::Interactive, _) => {
                let g = gen::uniform(n, 2 * n, 2, &mut rng);
                (kind, format::serialize(&g), None)
            }
            (Kind::Revision, Some(base)) => {
                let g = graphs[base]
                    .as_ref()
                    .expect("bulk requests keep their graph");
                let delta = gen::revision(g, 3, &mut rng);
                (kind, format::serialize_delta(base as u64, &delta), None)
            }
            // A revision too early to have a base is a bulk request of
            // the middle size.
            (Kind::Bulk | Kind::Revision, _) => {
                let g = gen::uniform(n, 5 * n / 2, 3, &mut rng);
                last_bulk.push(i);
                (Kind::Bulk, format::serialize(&g), Some(g))
            }
        };
        graphs.push(graph);
        requests.push(Request { kind, text });
    }
    requests
}

/// What the generator hands the collector for each arrival.
enum Arrival {
    Submitted(Submitted),
    Failed { index: usize, why: String },
}

struct Submitted {
    index: usize,
    kind: Kind,
    due: Instant,
    woke: Instant,
    parsed: Instant,
    /// After any wait for a revision's base.
    submit_start: Instant,
    submitted: Instant,
    ticket: Ticket,
    graph: Arc<Hypergraph>,
}

/// One completed request, as measured.
struct Sample {
    kind: Kind,
    latency_ms: f64,
    lag_ms: f64,
    parse_s: f64,
    submit_s: f64,
    queue_ms: f64,
    run_ms: f64,
    verify_s: f64,
    rounds: u64,
    messages: u64,
    ratio: f64,
    text_bytes: usize,
}

/// Completion flags the generator waits on before revising a base.
struct Done {
    flags: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl Done {
    fn mark(&self, index: usize) {
        self.flags.lock().expect("done flags")[index] = true;
        self.cv.notify_all();
    }

    fn wait(&self, index: usize) {
        let mut flags = self.flags.lock().expect("done flags");
        while !flags[index] {
            flags = self.cv.wait(flags).expect("done flags");
        }
    }

    fn is_done(&self, index: usize) -> bool {
        self.flags.lock().expect("done flags")[index]
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let Some(rate) = args.rate else {
        eprintln!("serve_mixed needs --rate REQ_PER_S");
        std::process::exit(2);
    };
    let count = (rate * args.seconds as f64).ceil() as usize;
    let workers = report::nproc().saturating_sub(1).max(1);
    let config = MwhvcConfig::new(EPSILON).expect("ε = 0.5 is valid");

    // The generator (and this thread, which redeems tickets) get the last
    // allowed CPU to themselves; the workers, spawned while this thread is
    // pinned to the other CPUs, inherit those. Without it a waking
    // generator can wait out a worker's time slice on a shared CPU.
    let cpus = report::allowed_cpus();
    let pinned = match cpus.split_last() {
        Some((&generator_cpu, worker_cpus)) if !worker_cpus.is_empty() => {
            report::pin_current_thread(worker_cpus).then_some(generator_cpu)
        }
        _ => None,
    };

    // Set-up: the request stream and the service.
    let (setup_s, (requests, service)) = repeat_setup(|| {
        (
            stream(args.seed, count),
            SolveService::with_queue_capacity(config.clone(), workers, QUEUE_CAPACITY),
        )
    });
    if let Some(cpu) = pinned {
        report::pin_current_thread(&[cpu]);
    }
    let solver = MwhvcSolver::new(config.clone());
    let done = Done {
        flags: Mutex::new(vec![false; count]),
        cv: Condvar::new(),
    };
    let mut trace = Trace::default();
    let mut samples: Vec<Sample> = Vec::with_capacity(count);
    let mut base_waits = 0usize;
    let mut revisions: Vec<(Arc<Hypergraph>, u64)> = Vec::new();

    let start = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel::<Arrival>();
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(&requests, rate, start, &service, &done, tx));
        for arrival in rx {
            rep.attempted += 1;
            let s = match arrival {
                Arrival::Failed { index, why } => {
                    done.mark(index);
                    rep.fail(format!("request {index}: {why}"));
                    continue;
                }
                Arrival::Submitted(s) => s,
            };
            let (result, timing) = s.ticket.wait_timed();
            done.mark(s.index);
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    rep.fail(format!("request {}: {e}", s.index));
                    continue;
                }
            };
            let verify_start = Instant::now();
            let ratio = match check(&s.graph, &result, &solver) {
                Ok(r) => r,
                Err(why) => {
                    rep.fail(format!("request {}: {why}", s.index));
                    continue;
                }
            };
            let verify_s = verify_start.elapsed().as_secs_f64();
            // The worker may start before `submit` returns, since waking
            // it can preempt the generator, so the queue wait is counted
            // from the start of the submit call. That leaves out only the
            // call's own work before it enqueues: microseconds, plus the
            // delta application of a revision.
            let run_start = s.submit_start + timing.queue;
            let end = run_start + timing.run;
            if args.trace {
                let id = s.index as u64;
                let root = trace.record("bench.request", id, None, s.due, end);
                trace.record("bench.generator.lag", id, Some(root), s.due, s.woke);
                trace.record("hypergraph.format.parse", id, Some(root), s.woke, s.parsed);
                trace.record(
                    "core.service.submit",
                    id,
                    Some(root),
                    s.submit_start,
                    s.submitted,
                );
                trace.record(
                    "core.service.queue",
                    id,
                    Some(root),
                    s.submit_start,
                    run_start,
                );
                trace.record("core.service.run", id, Some(root), run_start, end);
                if s.kind == Kind::Revision {
                    revisions.push((Arc::clone(&s.graph), result.report.rounds));
                }
            }
            samples.push(Sample {
                kind: s.kind,
                latency_ms: ms(end.saturating_duration_since(s.due)),
                lag_ms: ms(s.woke.saturating_duration_since(s.due)),
                parse_s: (s.parsed - s.woke).as_secs_f64(),
                submit_s: (s.submitted - s.submit_start).as_secs_f64(),
                queue_ms: ms(timing.queue),
                run_ms: ms(timing.run),
                verify_s,
                rounds: result.report.rounds,
                messages: result.report.total_messages,
                ratio,
                text_bytes: requests[s.index].text.len(),
            });
        }
        base_waits = generator.join().expect("generator thread");
    });
    let window = start.elapsed();
    let metrics = service.metrics();
    service.shutdown();
    if pinned.is_some() {
        report::pin_current_thread(&cpus);
    }

    let rss = report::peak_rss_mb();
    rep.note(report::context_note(rss));
    rep.note(format!(
        "workload seed={} rate={rate}/s arrivals={count} workers={workers} generator_threads=1 generator_cpu={} window_s={:.3} base_waits={base_waits}",
        args.seed,
        pinned.map_or("unpinned".to_string(), |c| c.to_string()),
        window.as_secs_f64()
    ));
    if samples.is_empty() {
        return;
    }
    let of = |kind: Option<Kind>, f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(f)
            .collect()
    };
    let all_ms = of(None, &|s| s.latency_ms);
    let interactive_ms = of(Some(Kind::Interactive), &|s| s.latency_ms);
    rep.note(format!(
        "latency samples all={} interactive={} bulk={} revisions={}",
        all_ms.len(),
        interactive_ms.len(),
        of(Some(Kind::Bulk), &|s| s.run_ms).len(),
        of(Some(Kind::Revision), &|s| s.run_ms).len()
    ));
    let messages: u64 = samples.iter().map(|s| s.messages).sum();
    let run_s: f64 = samples.iter().map(|s| s.run_ms / 1e3).sum();
    let lag = of(None, &|s| s.lag_ms);
    rep.note(format!(
        "generator lag_p99_ms={:.3} lag_max_ms={:.3}",
        quantile(&lag, 0.99),
        max(&lag)
    ));

    report::tails(rep, args.trace, &all_ms, &interactive_ms);
    if args.trace {
        layers(
            rep, &samples, &requests, &solver, &revisions, &metrics, window, workers, &mut trace,
        );
        trace.write(args);
        return;
    }
    rep.metric("setup_s", setup_s, "s");
    rep.metric(
        "solve_s",
        median(&of(Some(Kind::Bulk), &|s| {
            s.parse_s + s.run_ms / 1e3 + s.verify_s
        })),
        "s",
    );
    rep.metric("msgs_per_s", messages as f64 / run_s, "1/s");
    rep.metric("rounds", mean(&of(None, &|s| s.rounds as f64)), "count");
    rep.metric("ratio", mean(&of(None, &|s| s.ratio)), "ratio");
    rep.metric("peak_rss_mb", rss, "MiB");
    rep.metric("serve_p50_ms", median(&all_ms), "ms");
    rep.metric("interactive_p50_ms", median(&interactive_ms), "ms");
}

/// The generator thread: one arrival per `1/rate` seconds from `start`.
/// Returns how many revisions had to wait for their base to complete.
fn generate(
    requests: &[Request],
    rate: f64,
    start: Instant,
    service: &SolveService,
    done: &Done,
    tx: mpsc::Sender<Arrival>,
) -> usize {
    let mut seqs: Vec<Option<u64>> = vec![None; requests.len()];
    let mut base_waits = 0;
    for (index, req) in requests.iter().enumerate() {
        let due = start + Duration::from_secs_f64(index as f64 / rate);
        let now = Instant::now();
        if due > now {
            // wall-clock: an open-loop generator sleeps until each
            // request is due, by design.
            std::thread::sleep(due - now);
        }
        let woke = Instant::now();
        let submitted = match req.kind {
            Kind::Bulk | Kind::Interactive => format::parse(&req.text)
                .map_err(|e| format!("parse: {e}"))
                .and_then(|g| {
                    let parsed = Instant::now();
                    let g = Arc::new(g);
                    let opts = if req.kind == Kind::Interactive {
                        SubmitOptions::interactive()
                    } else {
                        SubmitOptions::bulk()
                    };
                    let ticket = service
                        .submit_with(Arc::clone(&g), EPSILON, opts)
                        .map_err(|e| format!("submit: {e}"))?;
                    Ok((parsed, parsed, ticket, g))
                }),
            Kind::Revision => format::parse_delta(&req.text)
                .map_err(|e| format!("parse: {e}"))
                .and_then(|record| {
                    let parsed = Instant::now();
                    let base = record.base as usize;
                    // A revision cannot be resolved before its base, so
                    // the reader waits, as `dcover serve` does.
                    if !done.is_done(base) {
                        base_waits += 1;
                        done.wait(base);
                    }
                    let base_seq = seqs[base].ok_or("base request was not submitted")?;
                    let submit_start = Instant::now();
                    service
                        .submit_delta_with(base_seq, &record.delta, None, SubmitOptions::bulk())
                        .map(|(ticket, g)| (parsed, submit_start, ticket, g))
                        .map_err(|e| format!("submit revision: {e}"))
                }),
        };
        let arrival = match submitted {
            Ok((parsed, submit_start, ticket, graph)) => {
                let submitted = Instant::now();
                seqs[index] = Some(ticket.seq());
                Arrival::Submitted(Submitted {
                    index,
                    kind: req.kind,
                    due,
                    woke,
                    parsed,
                    submit_start,
                    submitted,
                    ticket,
                    graph,
                })
            }
            Err(why) => Arrival::Failed { index, why },
        };
        if tx.send(arrival).is_err() {
            break;
        }
    }
    base_waits
}

/// The per-layer metrics of a traced serving run. The engine layers come
/// from re-solving every `PROFILE_EVERY`-th bulk instance after the window,
/// stepped and timed as in the solve workloads; the service layers from
/// the tickets' timings and `SolveService::metrics()`.
#[allow(clippy::too_many_arguments)]
fn layers(
    rep: &mut Report,
    samples: &[Sample],
    requests: &[Request],
    solver: &MwhvcSolver,
    revisions: &[(Arc<Hypergraph>, u64)],
    metrics: &ServiceMetrics,
    window: Duration,
    workers: usize,
    trace: &mut Trace,
) {
    let of = |kind: Option<Kind>, f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(f)
            .collect()
    };
    let bulk_parse: f64 = of(Some(Kind::Bulk), &|s| s.parse_s).iter().sum();
    let bulk_bytes: f64 = of(Some(Kind::Bulk), &|s| s.text_bytes as f64).iter().sum();

    let profile = crate::solve::profile(
        requests
            .iter()
            .filter(|r| r.kind == Kind::Bulk)
            .step_by(PROFILE_EVERY)
            .map(|r| r.text.as_str()),
        solver,
        trace,
        rep,
    );
    rep.metric(
        "hypergraph.format.parse_s",
        median(&of(Some(Kind::Bulk), &|s| s.parse_s)),
        "s",
    );
    rep.metric(
        "hypergraph.format.parse_mb_per_s",
        bulk_bytes / 1e6 / bulk_parse,
        "MB/s",
    );
    profile.engine_layers(rep);
    rep.metric(
        "core.certificate.verify_s",
        median(&of(None, &|s| s.verify_s)),
        "s",
    );

    rep.metric(
        "core.service.submit_s",
        median(&of(None, &|s| s.submit_s)),
        "s",
    );
    for (class, kind) in [("interactive", Kind::Interactive), ("bulk", Kind::Bulk)] {
        let waits = of(Some(kind), &|s| s.queue_ms);
        let name = |m: &str| format!("core.service.{class}.{m}");
        rep.metric(&name("queue_wait_p50_ms"), median(&waits), "ms");
        rep.metric(&name("queue_wait_p99_ms"), quantile(&waits, 0.99), "ms");
        rep.metric(
            &name("run_p50_ms"),
            median(&of(Some(kind), &|s| s.run_ms)),
            "ms",
        );
    }
    rep.metric(
        "core.service.worker_busy_frac",
        metrics.worker_busy.as_secs_f64() / (window.as_secs_f64() * workers as f64),
        "ratio",
    );
    rep.metric(
        "core.service.queue_depth_high_water",
        metrics.queue_depth_high_water as f64,
        "count",
    );
    let both = |f: &dyn Fn(&ClassMetrics) -> u64| {
        (f(metrics.class(RequestClass::Interactive)) + f(metrics.class(RequestClass::Bulk))) as f64
    };
    rep.metric("core.service.rejected", both(&|c| c.rejected), "count");
    rep.metric("core.service.shed", both(&|c| c.shed), "count");
    rep.metric("core.service.expired", both(&|c| c.expired), "count");

    // The same revisions solved cold, for the warm/cold round ratio.
    let ratios: Vec<f64> = revisions
        .iter()
        .filter_map(|(g, warm_rounds)| match solver.solve(g) {
            Ok(cold) => Some(*warm_rounds as f64 / cold.report.rounds.max(1) as f64),
            Err(e) => {
                rep.fail(format!("cold solve of a revision: {e}"));
                None
            }
        })
        .collect();
    rep.metric(
        "core.warm.delta_run_p50_ms",
        median(&of(Some(Kind::Revision), &|s| s.run_ms)),
        "ms",
    );
    rep.metric("core.warm.rounds_vs_cold", median(&ratios), "ratio");
    let lag = of(None, &|s| s.lag_ms);
    rep.metric("bench.generator.lag_p99_ms", quantile(&lag, 0.99), "ms");
    rep.metric("bench.generator.lag_max_ms", max(&lag), "ms");
    rep.metric("bench.trace.overhead_frac", profile.overhead(), "ratio");
    rep.metric("bench.samples", samples.len() as f64, "count");
}

/// The service, revision and generator layers, which only the serving
/// workload exercises: zero elsewhere.
pub fn no_service_layers(rep: &mut Report) {
    for name in [
        "core.service.submit_s",
        "core.service.interactive.queue_wait_p50_ms",
        "core.service.interactive.queue_wait_p99_ms",
        "core.service.interactive.run_p50_ms",
        "core.service.bulk.queue_wait_p50_ms",
        "core.service.bulk.queue_wait_p99_ms",
        "core.service.bulk.run_p50_ms",
        "core.service.worker_busy_frac",
        "core.service.queue_depth_high_water",
        "core.service.rejected",
        "core.service.shed",
        "core.service.expired",
        "core.warm.delta_run_p50_ms",
        "core.warm.rounds_vs_cold",
        "bench.generator.lag_p99_ms",
        "bench.generator.lag_max_ms",
    ] {
        rep.metric(name, 0.0, unit_of(name));
    }
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_frac") || name.ends_with("_vs_cold") {
        "ratio"
    } else {
        "count"
    }
}
