//! End-to-end and per-layer routing benchmark.
//!
//! ```text
//! routebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop in one process that routes one design at
//! a time. A run's designs are the suite's largest pair (`s19t9` /
//! `s19t9m`: 22,400 nets on a 140x140 G-cell grid, capacity 4.4, the
//! suite's hotspot and blockage formula) relabelled by `--seed` and by
//! seeds drawn from it (see [`relabel`] and [`designs`]). With the default
//! seed `0x1909` (the suite's own generator seed) the first design is the
//! suite design exactly.
//!
//! * `congested-l`: 5 metal layers, `RouterConfig::fastgr_l()`. RRR is
//!   about half of route time, so maze search, the task-graph executor
//!   and atomic commits show here; its task-graph RRR is the path whose
//!   results vary from run to run.
//! * `routable-h`: 9 metal layers, `RouterConfig::fastgr_h()`. The hybrid
//!   pattern kernels take about three quarters of route time and RRR
//!   under 1%, so pattern kernels, the DP and the cost prober show here
//!   and maze or RRR changes must not.
//! * `baseline-cugr`: the `congested-l` design through
//!   `RouterConfig::cugr()`: the pattern stage commits and refreshes the
//!   prober after every net and batch-barrier RRR runs tasks serially.
//!
//! Every run loads its designs and routes the first once to warm up. With
//! `--trace 0` it then routes the designs in turn through `Router::run`
//! (`run_with_recorder` with a disabled recorder) until `--seconds` have
//! passed, at least once each; the median is `route_s`. Between routes it
//! times a load of each design; their median is `setup_s` (see
//! [`Setup`]). With `--trace 1` it runs the traced pass of [`layers`]
//! instead. Every route is checked (see [`check`]). The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! print every metric by name and unit, the quality spread over the
//! routes, and the environment. Metric metadata (clock, layer, what each
//! metric should move and where) is in `metrics.json` beside this package.
//!
//! Every time is host wall-clock, except per-layer metrics with unit
//! `s_modelled`: the paper's modelled device and parallel seconds, which
//! are never added to a host time.

mod check;
mod layers;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fastgr_core::{PatternEngine, QualityMetrics, Router, RouterConfig, RrrStrategy};
use fastgr_design::{BenchmarkSpec, Design, Net, NetId, Pin, SplitMix64};
use fastgr_gpu::HostPool;
use fastgr_grid::{CostParams, Point2, Rect};

use crate::check::{check, self_check, Solution};

/// Metadata of every metric: clock, layer, what it should move and where.
const METADATA: &str = include_str!("../metrics.json");
/// The seed that routes suite designs `s19t9` / `s19t9m` unchanged.
const DEFAULT_SEED: u64 = 0x1909;
/// Designs each run routes, all relabellings of one suite design.
const DESIGNS_PER_RUN: usize = 4;
/// Timed routes per run at the least, whatever `--seconds` says: one per
/// design.
const MIN_TIMED_ROUTES: usize = DESIGNS_PER_RUN;

/// One benchmark workload: a suite design shape and a router preset.
pub struct Workload {
    pub name: &'static str,
    /// Suite benchmark whose shape (and, at the default seed, netlist) the
    /// workload routes.
    pub spec: &'static str,
    pub config: fn() -> RouterConfig,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "congested-l",
        spec: "s19t9m",
        config: RouterConfig::fastgr_l,
    },
    Workload {
        name: "routable-h",
        spec: "s19t9",
        config: RouterConfig::fastgr_h,
    },
    Workload {
        name: "baseline-cugr",
        spec: "s19t9m",
        config: RouterConfig::cugr,
    },
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The checks of one run: nets attempted and failed over every checked
/// result, and whether every other check (self-check, replay fidelity,
/// design round trip) held.
#[derive(Debug)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

impl Default for Checks {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

impl Checks {
    /// Records a failed check that is not a per-net failure.
    pub fn fail(&mut self, why: &str) {
        println!("check failed: {why}");
        self.correct = false;
    }

    /// Routes `design` once with `router` (tracing per `recorder`), checks
    /// the result and counts it. Returns the host seconds of the routing
    /// call and the outcome; a routing error counts every net as failed.
    pub fn route(
        &mut self,
        router: &Router,
        design: &Design,
        recorder: &fastgr_telemetry::Recorder,
    ) -> (f64, Option<fastgr_core::RoutingOutcome>) {
        let nets = design.nets().len();
        let start = Instant::now();
        let result = router.run_with_recorder(design, recorder);
        let seconds = start.elapsed().as_secs_f64();
        self.attempted += nets;
        match result {
            Ok(outcome) => {
                let verdict = check(design, router.config().cost, &solution(&outcome));
                let failed = verdict.failed(nets);
                if failed > 0 {
                    println!(
                        "check failed: {failed} nets (first {:?}); {}",
                        &verdict.failed_nets[..verdict.failed_nets.len().min(5)],
                        verdict.whole_result.as_deref().unwrap_or("per-net checks")
                    );
                }
                self.failed += failed;
                (seconds, Some(outcome))
            }
            Err(e) => {
                println!("route failed: {e}");
                self.failed += nets;
                (seconds, None)
            }
        }
    }
}

/// The checked view of a routing outcome.
pub fn solution(outcome: &fastgr_core::RoutingOutcome) -> Solution<'_> {
    Solution {
        routes: &outcome.routes,
        report: &outcome.report,
        guides: &outcome.guides,
        metrics: &outcome.metrics,
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = parse_seed(&value).ok_or(format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or(format!("--workload is required: {}", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Host threads of the two parallel stages of a run.
pub struct Threads {
    /// Host pool of the pattern stage.
    pub pattern: usize,
    /// Executor threads of the RRR stage.
    pub rrr: usize,
}

/// Prints the run's environment (host CPUs, threads, `FASTGR_WORKERS`,
/// compiler, commit) and returns the host threads `config` routes with.
/// Fails when `FASTGR_WORKERS` asks for more threads than the host has.
fn threads(config: &RouterConfig, host_cpus: usize) -> Result<Threads, String> {
    let env = std::env::var("FASTGR_WORKERS").ok();
    if let Some(n) = env.as_deref().and_then(|v| v.parse::<usize>().ok()) {
        if n > host_cpus {
            return Err(format!(
                "FASTGR_WORKERS={n} exceeds the host's {host_cpus} CPUs"
            ));
        }
    }
    let pattern = match config.engine {
        PatternEngine::GpuFlow(device) => HostPool::resolve(device.host_workers),
        PatternEngine::ParallelCpu { workers } => workers,
        _ => 1,
    };
    // The task-graph executor runs min(host CPUs, workers) threads; the
    // other strategies run tasks on the calling thread.
    let rrr = match config.rrr_strategy {
        RrrStrategy::TaskGraph => host_cpus.min(config.workers),
        _ => 1,
    };
    let used = pattern.max(rrr);
    if used > host_cpus {
        return Err(format!(
            "the run would use {used} threads on {host_cpus} CPUs"
        ));
    }
    println!(
        "env host_cpus={host_cpus} threads={used} (pattern pool {pattern}, rrr executor {rrr}) \
         FASTGR_WORKERS={} rustc=\"{}\" commit={}",
        env.as_deref().unwrap_or("unset"),
        env!("ROUTEBENCH_RUSTC"),
        commit()
    );
    Ok(Threads { pattern, rrr })
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|h| h.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The workload's input for `seed`: the suite design itself for
/// [`DEFAULT_SEED`], otherwise the same design mirrored in x and/or y and
/// with its nets in a shuffled order, all drawn from `seed`.
///
/// Fresh generator seeds would move the hotspots and blockages, and with
/// them the design's character: over generator seeds 1-5, the 5-layer shape
/// ends with 545-2030 shorts and the 9-layer shape with 1.5-235, and route
/// time varies twofold. A relabelled design poses the same routing problem
/// while still changing what the router sees: net ids, so ordering ties
/// and batches, and the direction of every search.
fn relabel(design: Design, seed: u64) -> Design {
    if seed == DEFAULT_SEED {
        return design;
    }
    let mut rng = SplitMix64::new(seed);
    let (w, h) = (design.width(), design.height());
    let (flip_x, flip_y) = (rng.next_bool(0.5), rng.next_bool(0.5));
    let map = |p: Point2| {
        Point2::new(
            if flip_x { w - 1 - p.x } else { p.x },
            if flip_y { h - 1 - p.y } else { p.y },
        )
    };
    let mut order: Vec<usize> = (0..design.nets().len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let nets = order
        .iter()
        .enumerate()
        .map(|(id, &old)| {
            let net = &design.nets()[old];
            let pins = net
                .pins()
                .iter()
                .map(|p| Pin::new(map(p.position), p.layer))
                .collect();
            Net::new(NetId(id as u32), net.name(), pins)
        })
        .collect();
    let blockages = design
        .blockages()
        .iter()
        .map(|b| {
            let mut b = *b;
            b.region = Rect::new(map(b.region.lo), map(b.region.hi));
            b
        })
        .collect();
    Design::new(
        design.name().to_owned(),
        w,
        h,
        design.layers(),
        design.capacity(),
        blockages,
        nets,
    )
}

/// The [`DESIGNS_PER_RUN`] designs of a run: `spec`'s design relabelled
/// by `seed` and then by seeds drawn from it.
fn designs(spec: &BenchmarkSpec, seed: u64) -> Vec<Design> {
    let mut rng = SplitMix64::new(seed);
    let base = spec.generate();
    (0..DESIGNS_PER_RUN)
        .map(|k| relabel(base.clone(), if k == 0 { seed } else { rng.next_u64() }))
        .collect()
}

/// Peak resident set of this process in MiB.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s, then fourteen `long`s, the first `ru_maxrss`),
    // and `usage` is a valid, writable instance for the call's duration.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// Timed loads of the run's designs from their text: `Design::from_text`
/// then `Design::build_graph`, as a user loads a design.
///
/// The loads are taken between routes, spread over the whole run: the
/// host's speed changes from one part of a run to the next (load times
/// switch between two levels about 1.5x apart), and loads spread over the
/// run sample those levels as the routes do.
pub struct Setup {
    texts: Vec<String>,
    cost: CostParams,
    parse: Vec<f64>,
    build: Vec<f64>,
    total: Vec<f64>,
}

impl Setup {
    /// Times one load of each design.
    pub fn time_loads(&mut self) -> Result<(), String> {
        for text in &self.texts {
            let start = Instant::now();
            let design = Design::from_text(text).map_err(|e| format!("parse: {e}"))?;
            let parsed = start.elapsed().as_secs_f64();
            let graph = design
                .build_graph(self.cost)
                .map_err(|e| format!("build_graph: {e}"))?;
            let loaded = start.elapsed().as_secs_f64();
            std::hint::black_box((&design, &graph));
            self.parse.push(parsed);
            self.build.push(loaded - parsed);
            self.total.push(loaded);
        }
        Ok(())
    }

    /// Prints the loads' spread and returns the medians of the parse, the
    /// graph build and the whole load.
    pub fn medians(&self) -> (f64, f64, f64) {
        let (parse, build, total) = (
            median(&self.parse),
            median(&self.build),
            median(&self.total),
        );
        let (lo, hi) = min_max(self.total.iter().copied());
        println!(
            "setup_s: median of {} loads, min {lo:.5} max {hi:.5}; parse median {parse:.5}, \
             build_graph median {build:.5}",
            self.total.len()
        );
        (parse, build, total)
    }
}

/// Parses the run's designs from their text (a parsed design that differs
/// from the generated one fails the run's checks) and warms up with one
/// checked and self-checked route of the first.
fn prepare(
    generated: &[Design],
    router: &Router,
    checks: &mut Checks,
) -> Result<(Vec<Design>, Setup), String> {
    let cost = router.config().cost;
    let texts: Vec<String> = generated.iter().map(Design::to_text).collect();
    let mut designs = Vec::new();
    for (text, original) in texts.iter().zip(generated) {
        let design = Design::from_text(text).map_err(|e| format!("parse: {e}"))?;
        if &design != original {
            checks.fail("a parsed design differs from the generated one");
        }
        designs.push(design);
    }

    let off = fastgr_telemetry::Recorder::disabled();
    let (_, warm) = checks.route(router, &designs[0], &off);
    match warm.map(|o| self_check(&designs[0], cost, &solution(&o))) {
        Some(Ok(verdict)) => println!("self-check: {verdict}"),
        Some(Err(e)) => checks.fail(&format!("self-check: {e}")),
        None => checks.fail("self-check: the warm-up route failed"),
    }
    let setup = Setup {
        texts,
        cost,
        parse: Vec::new(),
        build: Vec::new(),
        total: Vec::new(),
    };
    Ok((designs, setup))
}

/// The tracing-off closed loop: `route_s`, quality and their spread.
fn timed_routes(
    router: &Router,
    designs: &[Design],
    setup: &mut Setup,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let off = fastgr_telemetry::Recorder::disabled();
    let mut times = Vec::new();
    // Quality of every successful route, by design.
    let mut quality: Vec<Vec<QualityMetrics>> = vec![Vec::new(); designs.len()];
    let budget = Duration::from_secs_f64(seconds);
    let clock = Instant::now();
    for i in 0.. {
        // The timed routes cycle through the designs.
        let d = i % designs.len();
        let (secs, outcome) = checks.route(router, &designs[d], &off);
        times.push(secs);
        if let Some(outcome) = outcome {
            let q = outcome.metrics;
            println!(
                "route {i}: design {d}, {secs:.4} s, shorts {} wirelength {} vias {} nets_ripped {:?}",
                q.shorts,
                q.wirelength,
                q.vias,
                outcome.trace.nets_ripped()
            );
            quality[d].push(q);
        }
        setup.time_loads()?;
        if times.len() >= MIN_TIMED_ROUTES && clock.elapsed() >= budget {
            break;
        }
    }
    let all: Vec<QualityMetrics> = quality.concat();
    if all.is_empty() {
        return Err("no route succeeded".to_owned());
    }

    let (t_lo, t_hi) = min_max(times.iter().copied());
    println!(
        "route_s: median of {} timed routes, min {t_lo:.4} max {t_hi:.4}",
        times.len()
    );
    for (d, q) in quality.iter().enumerate() {
        let spread = |f: fn(&QualityMetrics) -> f64| {
            let (lo, hi) = min_max(q.iter().map(f));
            format!("min {lo} max {hi}")
        };
        println!(
            "quality spread, design {d} over {} routes: shorts {}, wirelength {}, vias {}",
            q.len(),
            spread(|q| q.shorts),
            spread(|q| q.wirelength as f64),
            spread(|q| q.vias as f64)
        );
    }

    let med = |f: fn(&QualityMetrics) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    // Shorts and failed_frac are printed, not gated: both are 0 on a
    // clean run of a routable design, and a gate needs a nonzero median.
    // `score` carries shorts at weight 500.
    println!("shorts: {} track (median over routes)", med(|q| q.shorts));
    Ok(vec![
        Metric::new("route_s", median(&times), "s"),
        Metric::new("setup_s", setup.medians().2, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new("wirelength", med(|q| q.wirelength as f64), "gcell"),
        Metric::new("vias", med(|q| q.vias as f64), "count"),
        Metric::new("score", med(|q| q.score()), "score"),
    ])
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = args.workload;
    let config = (workload.config)();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let spec = BenchmarkSpec::find(workload.spec).expect("workload names a suite benchmark");
    let generated = designs(&spec, args.seed);
    println!(
        "routebench workload={} seed={:#x} designs={}x{} nets={} grid={}x{} layers={} trace={}",
        workload.name,
        args.seed,
        generated.len(),
        workload.spec,
        generated[0].nets().len(),
        generated[0].width(),
        generated[0].height(),
        generated[0].layers(),
        u8::from(args.trace)
    );
    let threads = threads(&config, host_cpus)?;
    let mut checks = Checks::default();
    let router = Router::new(config);
    let (designs, mut setup) = prepare(&generated, &router, &mut checks)?;
    drop(generated);

    let metrics = if args.trace {
        layers::traced_pass(
            &router,
            &designs[0],
            &mut setup,
            &threads,
            args.seconds,
            &mut checks,
        )?
    } else {
        timed_routes(&router, &designs, &mut setup, args.seconds, &mut checks)?
    };

    for m in &metrics {
        if !m.value.is_finite() {
            checks.fail(&format!("metric {} is not a finite number", m.name));
        }
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        if !METADATA.contains(&entry) {
            checks.fail(&format!(
                "metric {} ({}) is not described in metrics.json",
                m.name, m.unit
            ));
        }
    }
    println!(
        "failed_frac: {} ({} of {} nets attempted)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for m in &metrics {
        println!("{:<34} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = checks.correct && checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("routebench: {e}");
            ExitCode::from(2)
        }
    }
}
