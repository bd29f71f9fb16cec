//! # perfbench
//!
//! End-to-end and per-layer benchmark of the PreInfer pipeline, measured
//! from outside the program: in-process calls into the public functions of
//! the pipeline crates for offline work, and a separate `preinferd` process
//! driven over TCP for serving. See `README.md` in this directory for the
//! workloads, the metrics and the layer each metric belongs to.

pub mod corpus;
pub mod daemon;
pub mod inputs;
pub mod pipeline;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod steady;

use stats::Metrics;
use std::path::PathBuf;

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["corpus_eval", "serve_repeat", "serve_fresh"];

/// Timed phases end at the first whole pass (or round) after the run time
/// is up *and* this many operations were timed, so every run reports a p99
/// from at least this many samples.
pub const MIN_SAMPLES: usize = 1000;

/// Set-ups per untraced run (and sub-runs per untraced serve run);
/// `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One benchmark run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `preinferd` binary (serve workloads only).
    pub daemon: Option<PathBuf>,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every operation that did not fail produced correct output.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why `correct` is false, or what failed; printed to stderr.
    pub notes: Vec<String>,
}

/// The per-layer figures of a traced run, every one per method (or
/// request) unless its name says otherwise. A figure a workload does not
/// exercise stays 0 (see the README's layer map).
#[derive(Debug, Default)]
pub struct Layers {
    pub compile_ms: f64,
    pub generate_ms: f64,
    pub tests: f64,
    pub solve_ms: f64,
    pub queries: f64,
    pub cache_hit_ratio: f64,
    pub simplex_answers: f64,
    pub prune_ms: f64,
    pub dynamic_runs: f64,
    pub predicates_removed: f64,
    pub generalize_ms: f64,
    pub assemble_ms: f64,
    pub passing_guard_ms: f64,
    pub fixit_ms: f64,
    pub dysy_ms: f64,
    pub score_ms: f64,
    pub queue_ms: f64,
    pub service_ms: f64,
    pub transport_ms: f64,
    pub parse_request_us: f64,
    pub render_response_us: f64,
    pub daemon_cpu_ms_per_request: f64,
    pub rss_growth_kb_per_request: f64,
    pub residue_ms: f64,
    pub trace_overhead_ms: f64,
}

impl Layers {
    pub fn put(&self, m: &mut Metrics) {
        m.put("minilang.compile_ms", self.compile_ms, "ms");
        m.put("testgen.generate_ms", self.generate_ms, "ms");
        m.put("testgen.tests", self.tests, "count");
        m.put("solver.solve_ms", self.solve_ms, "ms");
        m.put("solver.queries", self.queries, "count");
        m.put("solver.cache_hit_ratio", self.cache_hit_ratio, "ratio");
        m.put("solver.simplex_answers", self.simplex_answers, "count");
        m.put("preinfer_core.prune_ms", self.prune_ms, "ms");
        m.put("preinfer_core.dynamic_runs", self.dynamic_runs, "count");
        m.put("preinfer_core.predicates_removed", self.predicates_removed, "count");
        m.put("preinfer_core.generalize_ms", self.generalize_ms, "ms");
        m.put("preinfer_core.assemble_ms", self.assemble_ms, "ms");
        m.put("preinfer_core.passing_guard_ms", self.passing_guard_ms, "ms");
        m.put("baselines.fixit_ms", self.fixit_ms, "ms");
        m.put("baselines.dysy_ms", self.dysy_ms, "ms");
        m.put("report.score_ms", self.score_ms, "ms");
        m.put("server.queue_ms", self.queue_ms, "ms");
        m.put("server.service_ms", self.service_ms, "ms");
        m.put("server.transport_ms", self.transport_ms, "ms");
        m.put("server.parse_request_us", self.parse_request_us, "us");
        m.put("server.render_response_us", self.render_response_us, "us");
        m.put("server.daemon_cpu_ms_per_request", self.daemon_cpu_ms_per_request, "ms");
        m.put("server.rss_growth_kb_per_request", self.rss_growth_kb_per_request, "kB");
        m.put("residue_ms", self.residue_ms, "ms");
        m.put("trace_overhead_ms", self.trace_overhead_ms, "ms");
    }
}

/// Times `parse_request` and `render_infer_response` on one request's
/// payload and its expected outcome, as spans of their own.
pub fn time_protocol(spans: &spans::Spans, payload: &str, outcome: &server::InferOutcome) {
    use server::protocol::parse_request;
    use server::service::render_infer_response;
    let cache = solver::SolverCache::new();
    let parsed = spans.time(spans::Layer::ParseRequest, None, || parse_request(payload));
    std::hint::black_box(parsed.is_ok());
    let rendered = spans.time(spans::Layer::RenderResponse, None, || {
        render_infer_response(None, 1, outcome, 0.0, &cache)
    });
    std::hint::black_box(rendered.len());
}

/// Worker threads and connections: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "corpus_eval" => Ok(corpus::run(args)),
        "serve_repeat" => serve::run(args, serve::Kind::Repeat),
        "serve_fresh" => serve::run(args, serve::Kind::Fresh),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}
