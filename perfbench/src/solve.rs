//! The two single-instance workloads: one large instance, solved again
//! and again from its text to a certified cover, in a closed loop of one
//! client.
//!
//! The untraced run times `format::parse`, then `MwhvcSolver::solve`
//! (or `solve_parallel`), then `Certificate::verify`. The traced run
//! alternates such untraced iterations with a stepped rebuild of the same
//! solve from public calls (`build_network`, simulator construction, a
//! `step()` loop, `run(limit)` to finish), timing each call; every stepped
//! solve must reproduce its untraced twin's cover, duals, levels and
//! `SimReport` exactly, or the layer numbers would describe another
//! program.

use std::time::{Duration, Instant};

use dcover_congest::{BitBudget, ParallelSimulator, PartitionPolicy, SimReport, Simulator};
use dcover_core::{build_network, Certificate, CoverResult, MwhvcConfig, MwhvcNode, MwhvcSolver};
use dcover_hypergraph::{format, Cover, Hypergraph, InstanceStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen;
use crate::report::{self, max, median, Report};
use crate::trace::Trace;
use crate::{repeat_setup, Args, EPSILON};

/// Which generator family a workload's instance comes from.
#[derive(Clone, Copy)]
pub enum Family {
    Uniform,
    Preferential,
}

/// One single-instance workload.
pub struct Spec {
    pub family: Family,
    pub n: usize,
    pub m: usize,
    pub rank: usize,
    /// `Some(threads)` solves on the pool scheduler with the locality
    /// partition; `None` on the sequential one.
    pub threads: Option<usize>,
}

/// Fewest iterations a run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// One untraced iteration: text to certified cover.
struct Certified {
    solve_s: f64,
    verify_s: f64,
    total_s: f64,
    ratio: f64,
    result: CoverResult,
    g: Hypergraph,
}

/// The per-layer times of one stepped (traced) iteration.
struct Stepped {
    parse_s: f64,
    build_s: f64,
    setup_s: f64,
    step_s: f64,
    round_ms: Vec<f64>,
    total_s: f64,
    report: SimReport,
}

pub fn run(spec: &Spec, args: &Args, rep: &mut Report) {
    let threads = spec.threads;
    let mut config = MwhvcConfig::new(EPSILON).expect("ε = 0.5 is valid");
    if threads.is_some() {
        config = config.with_partition(PartitionPolicy::Locality);
    }
    let solver = MwhvcSolver::new(config);

    // Set-up: generate and serialize the instance.
    let (setup_s, text) = repeat_setup(|| {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let g = match spec.family {
            Family::Uniform => gen::uniform(spec.n, spec.m, spec.rank, &mut rng),
            Family::Preferential => gen::preferential(spec.n, spec.m, spec.rank, &mut rng),
        };
        format::serialize(&g)
    });

    // Only the first iteration's instance and result are kept, so peak
    // memory does not grow with the number of iterations.
    let mut first: Option<Certified> = None;
    let mut profile = Profile::default();
    let mut trace = Trace::default();
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    while start.elapsed() < window || profile.plain.len() < MIN_ITERATIONS {
        let c = if args.trace {
            profile.add(&text, &solver, threads, &mut trace, rep)
        } else {
            profile.add_plain(&text, &solver, threads, rep)
        };
        let Some(c) = c else {
            break;
        };
        match &first {
            Some(f) if c.result.cover != f.result.cover || c.result.report != f.result.report => {
                rep.fail("a repeated solve of the same text gave another result".into());
                break;
            }
            Some(_) => {}
            None => first = Some(c),
        }
    }
    let Some(first) = first else {
        return;
    };

    let g = &first.g;
    let r = &first.result.report;
    rep.note(format!(
        "workload seed={} threads={} partition={} text_mb={:.1} {}",
        args.seed,
        threads.map_or("1 (sequential)".to_string(), |t| t.to_string()),
        if threads.is_some() {
            "locality"
        } else {
            "none"
        },
        text.len() as f64 / 1e6,
        InstanceStats::of(g).summary()
    ));
    rep.note(format!(
        "solution rounds={} round_limit={} messages={} bits={} cross_fraction={:.4} iterations={} ratio={:.6} bound f+ε={}",
        r.rounds,
        solver.round_limit(g),
        r.total_messages,
        r.total_bits,
        r.cross_fraction(),
        profile.plain.len(),
        first.ratio,
        f64::from(g.rank()) + EPSILON
    ));
    let totals: Vec<String> = profile
        .plain
        .iter()
        .map(|t| format!("{:.3}", t.total_s))
        .collect();
    rep.note(format!("iteration_s=[{}]", totals.join(" ")));
    let rss = report::peak_rss_mb();
    rep.note(report::context_note(rss));
    // One request class in a closed loop of one client: every iteration
    // is a request, and the class percentiles are those of all requests.
    let totals_ms: Vec<f64> = profile.plain.iter().map(|t| t.total_s * 1e3).collect();
    report::tails(rep, args.trace, &totals_ms, &totals_ms);
    if args.trace {
        rep.metric(
            "hypergraph.format.parse_s",
            profile.median_stepped(|s| s.parse_s),
            "s",
        );
        rep.metric(
            "hypergraph.format.parse_mb_per_s",
            text.len() as f64 / 1e6 / profile.median_stepped(|s| s.parse_s),
            "MB/s",
        );
        profile.engine_layers(rep);
        rep.metric(
            "core.certificate.verify_s",
            profile.median_plain(|t| t.verify_s),
            "s",
        );
        crate::serve::no_service_layers(rep);
        rep.metric("bench.trace.overhead_frac", profile.overhead(), "ratio");
        rep.metric("bench.samples", profile.plain.len() as f64, "count");
        trace.write(args);
        return;
    }
    rep.metric("setup_s", setup_s, "s");
    rep.metric("solve_s", profile.median_plain(|t| t.total_s), "s");
    rep.metric(
        "msgs_per_s",
        r.total_messages as f64 / profile.median_plain(|t| t.solve_s),
        "1/s",
    );
    rep.metric("rounds", r.rounds as f64, "count");
    rep.metric("ratio", first.ratio, "ratio");
    rep.metric("peak_rss_mb", rss, "MiB");
    rep.metric("serve_p50_ms", median(&totals_ms), "ms");
    rep.metric("interactive_p50_ms", median(&totals_ms), "ms");
}

/// The times of one untraced iteration.
struct Timing {
    solve_s: f64,
    verify_s: f64,
    total_s: f64,
}

/// Untraced iterations and the stepped iterations that alternate with
/// them.
#[derive(Default)]
pub struct Profile {
    plain: Vec<Timing>,
    stepped: Vec<Stepped>,
}

/// Re-solves each of `texts` untraced and then stepped, for the engine's
/// layer profile of a stream of small instances.
pub fn profile<'a>(
    texts: impl Iterator<Item = &'a str>,
    solver: &MwhvcSolver,
    trace: &mut Trace,
    rep: &mut Report,
) -> Profile {
    let mut profile = Profile::default();
    for text in texts {
        profile.add(text, solver, None, trace, rep);
    }
    profile
}

impl Profile {
    /// One untraced iteration.
    fn add_plain(
        &mut self,
        text: &str,
        solver: &MwhvcSolver,
        threads: Option<usize>,
        rep: &mut Report,
    ) -> Option<Certified> {
        rep.attempted += 1;
        let c = certified(text, solver, threads, rep)?;
        self.plain.push(Timing {
            solve_s: c.solve_s,
            verify_s: c.verify_s,
            total_s: c.total_s,
        });
        Some(c)
    }

    /// One untraced iteration, then one stepped iteration checked against
    /// it.
    fn add(
        &mut self,
        text: &str,
        solver: &MwhvcSolver,
        threads: Option<usize>,
        trace: &mut Trace,
        rep: &mut Report,
    ) -> Option<Certified> {
        let c = self.add_plain(text, solver, threads, rep)?;
        rep.attempted += 1;
        let id = self.stepped.len() as u64;
        match stepped_solve(text, solver, threads, &c, trace, id) {
            Ok(s) => self.stepped.push(s),
            Err(why) => {
                rep.fail(why);
                return None;
            }
        }
        Some(c)
    }

    fn median_plain(&self, f: impl Fn(&Timing) -> f64) -> f64 {
        median(&self.plain.iter().map(f).collect::<Vec<_>>())
    }

    fn median_stepped(&self, f: impl Fn(&Stepped) -> f64) -> f64 {
        median(&self.stepped.iter().map(f).collect::<Vec<_>>())
    }

    /// Traced over untraced time from text to certified cover, less one.
    pub fn overhead(&self) -> f64 {
        self.median_stepped(|s| s.total_s) / self.median_plain(|t| t.total_s) - 1.0
    }

    /// The engine's layers: medians per stepped solve.
    pub fn engine_layers(&self, rep: &mut Report) {
        rep.metric(
            "core.protocol.build_network_s",
            self.median_stepped(|s| s.build_s),
            "s",
        );
        rep.metric(
            "congest.partition.setup_s",
            self.median_stepped(|s| s.setup_s),
            "s",
        );
        rep.metric(
            "congest.partition.cross_fraction",
            self.median_stepped(|s| s.report.cross_fraction()),
            "ratio",
        );
        rep.metric(
            "congest.engine.step_s",
            self.median_stepped(|s| s.step_s),
            "s",
        );
        rep.metric(
            "congest.engine.round_p50_ms",
            self.median_stepped(|s| median(&s.round_ms)),
            "ms",
        );
        rep.metric(
            "congest.engine.round_max_ms",
            self.median_stepped(|s| max(&s.round_ms)),
            "ms",
        );
        rep.metric(
            "congest.engine.ns_per_msg",
            self.median_stepped(|s| s.step_s * 1e9 / s.report.total_messages.max(1) as f64),
            "ns",
        );
        rep.metric(
            "congest.engine.messages",
            self.median_stepped(|s| s.report.total_messages as f64),
            "count",
        );
        rep.metric(
            "congest.engine.bits",
            self.median_stepped(|s| s.report.total_bits as f64),
            "count",
        );
        // Derived, not measured: each untraced solve call less its stepped
        // twin's build, simulator set-up and rounds.
        let derived: Vec<f64> = self
            .plain
            .iter()
            .zip(&self.stepped)
            .map(|(t, s)| t.solve_s - s.build_s - s.setup_s - s.step_s)
            .collect();
        rep.metric("core.solver.assemble_s", median(&derived), "s");
    }
}

/// Parses, solves and certifies one copy of `text`, checking the result
/// against the paper's guarantees. `None` after a failure (recorded).
fn certified(
    text: &str,
    solver: &MwhvcSolver,
    threads: Option<usize>,
    rep: &mut Report,
) -> Option<Certified> {
    let t0 = Instant::now();
    let g = match format::parse(text) {
        Ok(g) => g,
        Err(e) => {
            rep.fail(format!("parse: {e}"));
            return None;
        }
    };
    let t1 = Instant::now();
    let solved = match threads {
        None => solver.solve(&g),
        Some(t) => solver.solve_parallel(&g, t),
    };
    let t2 = Instant::now();
    let result = match solved {
        Ok(r) => r,
        Err(e) => {
            rep.fail(format!("solve: {e}"));
            return None;
        }
    };
    let ratio = match check(&g, &result, solver) {
        Ok(r) => r,
        Err(why) => {
            rep.fail(why);
            return None;
        }
    };
    let t3 = Instant::now();
    Some(Certified {
        solve_s: (t2 - t1).as_secs_f64(),
        verify_s: (t3 - t2).as_secs_f64(),
        total_s: (t3 - t0).as_secs_f64(),
        ratio,
        result,
        g,
    })
}

/// The correctness gate every cover passes: `Certificate::verify`, a ratio
/// within `f + ε`, all nodes halted, and rounds within the solver's
/// Theorem 8 round limit. Returns the certified ratio.
pub fn check(g: &Hypergraph, result: &CoverResult, solver: &MwhvcSolver) -> Result<f64, String> {
    let eps = solver.config().epsilon();
    let ratio = Certificate::from_result(result, eps)
        .verify(g)
        .map_err(|e| format!("certificate: {e}"))?;
    let bound = f64::from(g.rank().max(1)) + eps;
    if ratio > bound * (1.0 + 1e-9) {
        return Err(format!("ratio {ratio} above f+ε = {bound}"));
    }
    let limit = solver.round_limit(g);
    if result.report.rounds > limit {
        return Err(format!(
            "{} rounds above the round limit {limit}",
            result.report.rounds
        ));
    }
    if !result.report.all_halted {
        return Err("solve ended with nodes still running".into());
    }
    Ok(ratio)
}

/// The two schedulers behind one stepping interface.
enum Sim {
    Seq(Simulator<MwhvcNode>),
    Par(ParallelSimulator<MwhvcNode>),
}

impl Sim {
    fn all_halted(&self) -> bool {
        match self {
            Sim::Seq(s) => s.all_halted(),
            Sim::Par(s) => s.all_halted(),
        }
    }

    fn rounds(&self) -> u64 {
        match self {
            Sim::Seq(s) => s.report().rounds,
            Sim::Par(s) => s.report().rounds,
        }
    }

    fn step(&mut self) -> Result<(), String> {
        let stepped = match self {
            Sim::Seq(s) => s.step(),
            Sim::Par(s) => s.step(),
        };
        stepped.map(|_| ()).map_err(|e| format!("step: {e}"))
    }

    fn finish(mut self, limit: u64) -> Result<(Vec<MwhvcNode>, SimReport), String> {
        let ran = match &mut self {
            Sim::Seq(s) => s.run(limit),
            Sim::Par(s) => s.run(limit),
        };
        ran.map_err(|e| format!("run: {e}"))?;
        Ok(match self {
            Sim::Seq(s) => s.into_parts(),
            Sim::Par(s) => s.into_parts(),
        })
    }
}

/// Rebuilds one solve from public calls, timing each layer, and checks
/// that it reproduces `twin`, the untraced solve of the same text.
fn stepped_solve(
    text: &str,
    solver: &MwhvcSolver,
    threads: Option<usize>,
    twin: &Certified,
    trace: &mut Trace,
    id: u64,
) -> Result<Stepped, String> {
    let config = solver.config();
    let root = trace.open("bench.solve", id, None);

    let span = trace.open("hypergraph.format.parse", id, Some(root));
    let g = format::parse(text).map_err(|e| format!("parse: {e}"))?;
    let parse_s = trace.close(span);

    let span = trace.open("core.protocol.build_network", id, Some(root));
    let (topo, nodes) = build_network(&g, config);
    let build_s = trace.close(span);

    let span = trace.open("congest.partition.setup", id, Some(root));
    let budget = BitBudget::congest(g.n() + g.m(), 32);
    let mut sim = match threads {
        None => Sim::Seq(Simulator::new(topo, nodes).with_budget(budget)),
        Some(t) => Sim::Par(
            ParallelSimulator::with_partition(topo, nodes, t, config.partition())
                .with_budget(budget),
        ),
    };
    let setup_s = trace.close(span);

    let limit = solver.round_limit(&g);
    let run = trace.open("congest.engine.run", id, Some(root));
    let mut round_ms = Vec::new();
    while !sim.all_halted() && sim.rounds() < limit {
        let span = trace.open("congest.engine.step", id, Some(run));
        sim.step()?;
        round_ms.push(trace.close(span) * 1e3);
    }
    // A bare `step()` loop leaves `all_halted` unset in the report;
    // `run(limit)` takes no further round and sets it.
    let (nodes, report) = sim.finish(limit)?;
    trace.close(run);
    let step_s = round_ms.iter().sum::<f64>() / 1e3;

    // Read the cover, levels and duals back out of the node states.
    let span = trace.open("bench.collect", id, Some(root));
    let mut cover = Cover::empty(g.n());
    let mut levels = vec![0; g.n()];
    let mut duals = vec![f64::NAN; g.m()];
    for v in g.vertices() {
        let node = &nodes[v.index()];
        if node.in_cover() == Some(true) {
            cover.insert(v);
        }
        levels[v.index()] = node.level().unwrap_or(u32::MAX);
        let port_duals = node.port_duals().unwrap_or(&[]);
        for (&e, &d) in g.incident_edges(v).iter().zip(port_duals) {
            duals[e.index()] = d;
        }
    }
    trace.close(span);

    let want = &twin.result;
    if report != want.report {
        return Err(format!(
            "stepped run's report {report:?} differs from the solver's {:?}",
            want.report
        ));
    }
    let same_duals = duals.len() == want.duals.len()
        && duals
            .iter()
            .zip(&want.duals)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if cover != want.cover || levels != want.levels || !same_duals {
        return Err("stepped run's cover, levels or duals differ from the solver's".into());
    }

    let span = trace.open("core.certificate.verify", id, Some(root));
    let result = CoverResult {
        weight: cover.weight(&g),
        dual_total: duals.iter().sum(),
        cover,
        duals,
        levels,
        iterations: want.iterations,
        report: report.clone(),
    };
    check(&g, &result, solver).map_err(|why| format!("stepped run: {why}"))?;
    trace.close(span);
    let total_s = trace.close(root);
    Ok(Stepped {
        parse_s,
        build_s,
        setup_s,
        step_s,
        round_ms,
        total_s,
        report,
    })
}
