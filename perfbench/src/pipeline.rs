//! The library reference the benchmark checks served and evaluated output
//! against, the interpreter check, and the span-instrumented mirror of
//! `report::evaluate_method` that traced runs use.

use crate::spans::{Layer, Spans};
use baselines::{infer_dysy, infer_fixit};
use interp::{run, ExecResult, InterpConfig};
use minilang::{program_check_sites, CheckId, MethodEntryState};
use preinfer_core::{
    evaluate_precondition, infer_all_preconditions, infer_precondition, random_probe, validates,
    PreInferConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{EvalConfig, MethodResult};
use server::service::{AclOutcome, InferOutcome};
use solver::{SolverCache, TierCounters};
use std::sync::Arc;
use subjects::SubjectMethod;
use symbolic::Formula;
use testgen::{generate_tests, TestGenConfig};

/// Solver and pruning counters gathered while running the pipeline.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub tests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub simplex_answers: u64,
    pub dynamic_runs: u64,
    pub predicates_removed: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.tests += o.tests;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.simplex_answers += o.simplex_answers;
        self.dynamic_runs += o.dynamic_runs;
        self.predicates_removed += o.predicates_removed;
    }
}

/// One program run through `compile` → `generate_tests` →
/// `infer_all_preconditions` (the pipeline `preinferd` serves) and checked
/// against the interpreter.
#[derive(Debug, Clone)]
pub struct Checked {
    /// What `infer` should serve for this program, ACLs sorted by id.
    pub outcome: InferOutcome,
    /// For each triggered ACL in first-trigger order (the order
    /// `evaluate_method` reports): its kind and its index in `outcome.acls`.
    pub triggered: Vec<(String, Option<usize>)>,
    /// ACLs whose ψ is true on a suite state the interpreter shows failing
    /// at that ACL — the paper's "ψ blocks every failing test", broken.
    pub admitting: Vec<String>,
}

impl Checked {
    pub fn psis(&self) -> impl Iterator<Item = &str> {
        self.outcome.acls.iter().map(|a| a.psi.as_str())
    }
}

/// Pipeline configs for one program: a private solver cache and tier
/// counters, and `sink` (an aggregate sink, for stage timings) on every
/// traced config.
fn configs(
    sink: &Option<Arc<obs::TraceSink>>,
) -> (TestGenConfig, PreInferConfig, Arc<SolverCache>, Arc<TierCounters>) {
    let cache = Arc::new(SolverCache::new());
    let tiers = Arc::new(TierCounters::default());
    let mut tg = TestGenConfig {
        solver_cache: Some(cache.clone()),
        trace: sink.clone(),
        ..TestGenConfig::default()
    };
    tg.solver.trace = sink.clone();
    tg.solver.tiers = tiers.clone();
    let mut cfg = PreInferConfig::default();
    cfg.prune.solver_cache = Some(cache.clone());
    cfg.prune.solver.trace = sink.clone();
    cfg.prune.solver.tiers = tiers.clone();
    cfg.prune.trace = sink.clone();
    (tg, cfg, cache, tiers)
}

/// Runs the library pipeline on `src` with entry function `func` and
/// checks every ψ against the interpreter. `spans` records one span per
/// public call, under `parent`.
pub fn check_program(
    src: &str,
    func: &str,
    spans: &Spans,
    parent: Option<u64>,
) -> Result<Checked, String> {
    let program = spans.time(Layer::Compile, parent, || minilang::compile(src))?;
    let f = program.func(func).ok_or_else(|| format!("no function `{func}`"))?;
    let (tg, cfg, _, _) = configs(&spans.stage_sink());
    let suite = spans.time(Layer::Generate, parent, || generate_tests(&program, func, &tg));
    let inferred = spans
        .time(Layer::Infer, parent, || infer_all_preconditions(&program, func, &suite, &cfg, 1));

    let mut failing_at: Vec<(CheckId, &MethodEntryState)> = Vec::new();
    for t in &suite.runs {
        if let ExecResult::Failed(e) =
            run(&program, func, &t.state, &InterpConfig::default()).result
        {
            failing_at.push((e.check, &t.state));
        }
    }
    let admitting = inferred
        .iter()
        .filter(|(acl, inf)| {
            failing_at.iter().any(|(c, s)| c == acl && validates(&inf.precondition.psi, s))
        })
        .map(|(acl, _)| format!("{acl:?}"))
        .collect();

    let triggered = suite
        .triggered_acls()
        .into_iter()
        .map(|acl| (acl.kind.to_string(), inferred.iter().position(|(c, _)| *c == acl)))
        .collect();
    let acls = inferred
        .iter()
        .map(|(acl, inf)| AclOutcome {
            acl: format!("{acl:?}"),
            kind: acl.kind.to_string(),
            psi: inf.precondition.psi.to_string(),
            alpha: inf.precondition.alpha.to_string(),
            quantified: inf.precondition.quantified,
            examined: inf.prune_stats.examined,
            removed: inf.prune_stats.removed,
            dynamic_runs: inf.prune_stats.dynamic_runs,
        })
        .collect();
    let outcome = InferOutcome {
        func: func.to_string(),
        tests: suite.len(),
        coverage_percent: suite.coverage_percent(f),
        acls,
        timed_out: false,
        elapsed_ms: 0.0,
    };
    Ok(Checked { outcome, triggered, admitting })
}

/// How `report` renders a ψ in a [`MethodResult`] (long formulas are
/// truncated there).
pub fn report_rendering(psi: &str) -> String {
    if psi.len() > 400 {
        format!("{}… [{} chars]", &psi[..400], psi.len())
    } else {
        psi.to_string()
    }
}

/// One method as the report scores it: per ACL in first-trigger order,
/// the check kind, PreInfer's ψ as rendered, and whether it is both
/// sufficient and necessary (Table V "P-Bth").
pub type Scored = Vec<(String, String, bool)>;

pub fn scored(r: &MethodResult) -> Scored {
    r.acls.iter().map(|a| (a.kind.clone(), a.preinfer.psi.clone(), a.preinfer.both())).collect()
}

/// The number of `#Both` ACLs in `s`, provided every ACL's ψ in `psis`
/// (served order of `c`) is the one the report scored; `None` otherwise.
pub fn both_if_scored<'a>(
    s: &Scored,
    c: &Checked,
    psis: impl IntoIterator<Item = &'a str>,
) -> Option<u64> {
    let psis: Vec<&str> = psis.into_iter().collect();
    if s.len() != c.triggered.len() || psis.len() != c.outcome.acls.len() {
        return None;
    }
    let mut both = 0;
    for ((kind, psi, b), (tkind, pos)) in s.iter().zip(&c.triggered) {
        let served = psis.get((*pos)?)?;
        if kind != tkind || report_rendering(served) != *psi {
            return None;
        }
        both += u64::from(*b);
    }
    Some(both)
}

/// `report::evaluate_method` with its public calls split out, so each gets
/// a span under `parent`: compile, test generation, probe classification
/// and scoring, PreInfer, FixIt and DySy. Traced runs check that it scores
/// exactly what `evaluate_method` scores.
pub fn evaluate_traced(
    m: &SubjectMethod,
    cfg: &EvalConfig,
    spans: &Spans,
    parent: Option<u64>,
) -> (Scored, Counters) {
    let tp = spans.time(Layer::Compile, parent, || m.compile());
    let func = m.func(&tp).clone();
    let (tg, infer_cfg, cache, tiers) = configs(&spans.stage_sink());
    let suite = spans.time(Layer::Generate, parent, || generate_tests(&tp, m.name, &tg));
    let sites = program_check_sites(tp.program());
    let probes = spans.time(Layer::Score, parent, || {
        let mut rng = StdRng::seed_from_u64(cfg.probes.rng_seed ^ 0x9E37);
        let mut out = Vec::with_capacity(cfg.check_probes);
        for _ in 0..cfg.check_probes {
            let state = random_probe(&func, &mut rng);
            match run(&tp, &func.name, &state, &InterpConfig::default()).result {
                ExecResult::OutOfFuel | ExecResult::CallDepthExceeded => {}
                ExecResult::Completed(_) => out.push((state, None)),
                ExecResult::Failed(e) => out.push((state, Some(e.check))),
            }
        }
        out
    });
    let mut counters = Counters { tests: suite.len() as u64, ..Counters::default() };
    let mut out = Scored::new();
    for acl in suite.triggered_acls() {
        if !sites.iter().any(|s| s.id == acl) {
            continue;
        }
        let truth_psi = m.truth_alpha(&tp, acl).map(|a| a.negated());
        let (pass, fail) = suite.partition(acl);
        let mut pass_states: Vec<&MethodEntryState> = pass.iter().map(|r| &r.state).collect();
        let mut fail_states: Vec<&MethodEntryState> = fail.iter().map(|r| &r.state).collect();
        for (state, failed_at) in &probes {
            if *failed_at == Some(acl) {
                fail_states.push(state);
            } else {
                pass_states.push(state);
            }
        }
        let both = |psi: &Formula| -> bool {
            spans.time(Layer::Score, parent, || {
                evaluate_precondition(
                    psi,
                    &func,
                    &pass_states,
                    &fail_states,
                    truth_psi.as_ref(),
                    &cfg.probes,
                )
                .both()
            })
        };
        let inferred = spans.time(Layer::Infer, parent, || {
            infer_precondition(&tp, m.name, acl, &suite, &infer_cfg)
        });
        if let Some(inf) = &inferred {
            counters.dynamic_runs += inf.prune_stats.dynamic_runs as u64;
            counters.predicates_removed += inf.prune_stats.removed as u64;
        }
        let psi = inferred.map(|inf| inf.precondition.psi).unwrap_or_else(Formula::t);
        let psi_both = both(&psi);
        let fixit = spans.time(Layer::FixIt, parent, || infer_fixit(acl, &suite));
        both(&fixit.map(|p| p.psi).unwrap_or_else(Formula::t));
        let dysy = spans.time(Layer::DySy, parent, || infer_dysy(acl, &suite));
        both(&dysy.map(|p| p.psi).unwrap_or_else(Formula::t));
        out.push((acl.kind.to_string(), report_rendering(&psi.to_string()), psi_both));
    }
    let stats = cache.stats();
    counters.cache_hits = stats.hits;
    counters.cache_misses = stats.misses;
    counters.simplex_answers = tiers.snapshot().answered_by_simplex;
    (out, counters)
}
