//! `corpus_eval`: the paper's Table IV–VI evaluation, `report::evaluate_method`
//! on one thread over every corpus method, in whole passes with a seeded
//! order. No server is involved.

use crate::inputs::pass_order;
use crate::pipeline::{both_if_scored, check_program, evaluate_traced, scored, Counters, Scored};
use crate::spans::{Layer, Spans};
use crate::stats::{fast_decile, median, segments, Metrics};
use crate::{daemon, nproc, time_protocol, Args, Layers, Outcome, MIN_SAMPLES, SETUPS};
use preinfer_core::map_parallel;
use report::{evaluate_method, EvalConfig};
use server::protocol::render_infer;
use server::InferRequest;
use std::hint::black_box;
use std::time::{Duration, Instant};
use subjects::SubjectMethod;

/// The configuration `tables` evaluates with, on one thread and with the
/// report's own stage timing off (the benchmark measures from outside).
fn eval_config() -> EvalConfig {
    EvalConfig { jobs: 1, trace: false, ..EvalConfig::default() }
}

/// Set-up: the inputs and one untimed warm-up pass, whose results are the
/// reference every timed pass must reproduce.
fn setup(cfg: &EvalConfig) -> (Vec<SubjectMethod>, Vec<Scored>) {
    let methods = subjects::all_subjects();
    let warm = methods.iter().map(|m| scored(&evaluate_method(m, cfg))).collect();
    (methods, warm)
}

/// Timed passes until `seconds` are up and [`MIN_SAMPLES`] calls were
/// timed. Returns per-call `(completion s, latency ms)` samples, the number
/// of passes, the wall time, and how many results differed from the
/// warm-up reference.
fn timed_passes(
    methods: &[SubjectMethod],
    warm: &[Scored],
    cfg: &EvalConfig,
    seed: u64,
    seconds: f64,
) -> (Vec<(f32, f32)>, u64, Duration, u64) {
    let mut lat = Vec::with_capacity(1 << 15);
    let mut mismatches = 0;
    let mut pass = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || lat.len() < MIN_SAMPLES {
        for i in pass_order(seed, pass, methods.len()) {
            let t = Instant::now();
            let r = black_box(evaluate_method(&methods[i], cfg));
            lat.push((start.elapsed().as_secs_f32(), t.elapsed().as_secs_f32() * 1e3));
            mismatches += u64::from(scored(&r) != warm[i]);
        }
        pass += 1;
    }
    (lat, pass, start.elapsed(), mismatches)
}

pub fn run(args: &Args) -> Outcome {
    let cfg = eval_config();
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        inputs = Some(setup(&cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (methods, warm) = inputs.expect("at least one set-up");

    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let (mut lat, passes, wall, mismatches) =
        timed_passes(&methods, &warm, &cfg, args.seed, seconds);
    let rss_kb = daemon::status_kb("self", "VmHWM").unwrap_or(0);
    if mismatches > 0 {
        out.correct = false;
        out.notes.push(format!("{mismatches} timed results differ from the warm-up pass"));
    }

    // Traced phase: the same passes, through the span-instrumented mirror.
    let spans = if args.trace { Spans::recording() } else { Spans::off() };
    let mut traced = Counters::default();
    let mut traced_wall = Duration::ZERO;
    if args.trace {
        let start = Instant::now();
        for pass in 0..passes {
            for i in pass_order(args.seed, pass, methods.len()) {
                let root = spans.begin(Layer::Method, None);
                let (s, c) = evaluate_traced(&methods[i], &cfg, &spans, root.map(|r| r.0));
                spans.end(Layer::Method, root);
                traced.add(&c);
                if s != warm[i] {
                    out.correct = false;
                    out.notes.push(format!("traced evaluation of {} differs", methods[i].name));
                }
            }
        }
        traced_wall = start.elapsed();
    }

    // Checks, outside all timing: each method's ψ against the library
    // pipeline for the same source, and against the interpreter.
    let checked =
        map_parallel(&methods, nproc(), |m| check_program(m.source, m.name, &Spans::off(), None));
    let mut failing = 0u64;
    let mut psi_both = 0u64;
    for ((m, c), s) in methods.iter().zip(&checked).zip(&warm) {
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                out.correct = false;
                out.notes.push(format!("{}: {e}", m.name));
                continue;
            }
        };
        match both_if_scored(s, c, c.psis()) {
            Some(b) => psi_both += b,
            None => {
                out.correct = false;
                out.notes.push(format!("{}: evaluated ψ differs from the library's", m.name));
            }
        }
        if !c.admitting.is_empty() {
            failing += 1;
            out.notes.push(format!("{}: ψ admits a failing test at {:?}", m.name, c.admitting));
        }
        if args.trace {
            let req = InferRequest {
                program: m.source.to_string(),
                func: Some(m.name.to_string()),
                deadline_ms: None,
                tests: None,
                jobs: 1,
                trace: None,
            };
            time_protocol(&spans, &render_infer(None, &req), &c.outcome);
        }
    }
    let acls: usize = warm.iter().map(Vec::len).sum();
    if psi_both == 0 || psi_both as usize > acls {
        out.correct = false;
        out.notes.push(format!("psi_both {psi_both} is outside 1..={acls}"));
    }
    let phases = if args.trace { 2 } else { 1 };
    out.attempted = phases * passes * methods.len() as u64;
    out.failed = phases * passes * failing;

    if args.trace {
        out.metrics =
            layer_metrics(&spans, &traced, passes * methods.len() as u64, wall, traced_wall);
        let path = args.out_dir.join(format!("corpus_eval-seed{}.spans.jsonl", args.seed));
        if let Err(e) = spans.write(&path) {
            out.correct = false;
            out.notes.push(format!("span file: {e}"));
        }
    } else {
        let mut m = Metrics::default();
        m.put("setup_s", median(&setup_s), "s");
        let t = fast_decile(&segments(&mut lat));
        m.put("methods_per_s", t.per_s, "1/s");
        m.put("latency_p50_ms", t.p50_ms, "ms");
        m.put("latency_p99_ms", t.p99_ms, "ms");
        m.put("rss_mb", rss_kb as f64 / 1024.0, "MB");
        m.put("psi_both", psi_both as f64, "count");
        out.metrics = m;
    }
    out
}

/// Per-method layer figures of the traced passes (`n` calls).
fn layer_metrics(
    spans: &Spans,
    c: &Counters,
    n: u64,
    untraced: Duration,
    traced: Duration,
) -> Metrics {
    use obs::Stage;
    let n = n as f64;
    let per = |layer| spans.total_ms(layer) / n;
    let mean_us = |layer| spans.total_ms(layer) * 1e3 / spans.count(layer).max(1) as f64;
    let attributed: f64 = [Layer::Compile, Layer::Generate, Layer::Infer, Layer::FixIt]
        .into_iter()
        .chain([Layer::DySy, Layer::Score])
        .map(per)
        .sum();
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    let l = Layers {
        compile_ms: per(Layer::Compile),
        generate_ms: per(Layer::Generate),
        tests: c.tests as f64 / n,
        solve_ms: spans.stage_ms(Stage::Solver) / n,
        queries: lookups / n,
        cache_hit_ratio: c.cache_hits as f64 / lookups.max(1.0),
        simplex_answers: c.simplex_answers as f64 / n,
        prune_ms: spans.stage_ms(Stage::Prune) / n,
        dynamic_runs: c.dynamic_runs as f64 / n,
        predicates_removed: c.predicates_removed as f64 / n,
        generalize_ms: spans.stage_ms(Stage::Generalize) / n,
        assemble_ms: spans.stage_ms(Stage::Assemble) / n,
        passing_guard_ms: spans.stage_ms(Stage::PassingGuard) / n,
        fixit_ms: per(Layer::FixIt),
        dysy_ms: per(Layer::DySy),
        score_ms: per(Layer::Score),
        parse_request_us: mean_us(Layer::ParseRequest),
        render_response_us: mean_us(Layer::RenderResponse),
        residue_ms: traced.as_secs_f64() * 1e3 / n - attributed,
        trace_overhead_ms: (traced.as_secs_f64() - untraced.as_secs_f64()) * 1e3 / n,
        ..Layers::default()
    };
    let mut m = Metrics::default();
    l.put(&mut m);
    m
}
