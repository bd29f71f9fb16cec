//! `serve_repeat` and `serve_fresh`: closed-loop `infer` traffic from at
//! most `nproc` connections to one `preinferd` spawned per run.

use crate::daemon::{self, Daemon, Exit};
use crate::inputs::{has_shiftable_literal, pass_order, shift_literals, Offsets};
use crate::pipeline::{both_if_scored, check_program, evaluate_traced, scored, Checked};
use crate::spans::{Layer, Spans};
use crate::stats::{fast_decile, median, segments, Metrics};
use crate::{nproc, time_protocol, Args, Layers, Outcome, MIN_SAMPLES, SETUPS};
use preinfer_core::map_parallel;
use report::{evaluate_method, EvalConfig};
use server::json::{self, Json};
use server::protocol::{read_frame, render_infer, write_frame};
use server::InferRequest;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use subjects::SubjectMethod;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The corpus programs, again and again.
    Repeat,
    /// A literal-shifted variant per request; no text repeats in a run.
    Fresh,
}

/// Corpus methods `serve_fresh` leaves out although they have a literal to
/// shift, because whether a variant's ψ passes the interpreter check
/// depends on the offset, so the share of failed requests would depend on
/// the seed. Each is a `FOUND:` line in `CHANGES.md`.
pub const FRESH_EXCLUDED: &[&str] = &["bounded_sum_gate"];

/// One request: which method, which literal offset (0 = the corpus text).
type Key = (usize, u64);

/// The seeded inputs of one run.
struct Plan {
    kind: Kind,
    seed: u64,
    /// Every corpus method; the warm-up pass sends each once, unshifted.
    corpus: Vec<SubjectMethod>,
    /// Indices into `corpus` of the methods timed rounds send.
    timed: Vec<usize>,
    offsets: Offsets,
    /// The unshifted requests, rendered once: `serve_repeat` sends only
    /// these, so its client does no per-request rendering.
    unshifted: Vec<String>,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Plan {
        let corpus = subjects::all_subjects();
        let timed = (0..corpus.len())
            .filter(|&i| {
                kind == Kind::Repeat
                    || (has_shiftable_literal(corpus[i].source)
                        && !FRESH_EXCLUDED.contains(&corpus[i].name))
            })
            .collect();
        let unshifted = corpus.iter().map(|m| render(m, m.source.to_string())).collect();
        Plan { kind, seed, corpus, timed, offsets: Offsets::new(seed), unshifted }
    }

    fn source(&self, (m, offset): Key) -> String {
        match offset {
            0 => self.corpus[m].source.to_string(),
            k => shift_literals(self.corpus[m].source, k),
        }
    }

    fn payload(&self, key: Key) -> Cow<'_, str> {
        match key.1 {
            0 => Cow::Borrowed(&self.unshifted[key.0]),
            _ => Cow::Owned(render(&self.corpus[key.0], self.source(key))),
        }
    }

    /// Round `r`: every timed method once, in the round's seeded order.
    fn round(&self, r: u64) -> Vec<(Key, Cow<'_, str>)> {
        let offset = match self.kind {
            Kind::Repeat => 0,
            Kind::Fresh => self.offsets.of_round(r),
        };
        pass_order(self.seed, r, self.timed.len())
            .into_iter()
            .map(|i| {
                let key = (self.timed[i], offset);
                (key, self.payload(key))
            })
            .collect()
    }
}

/// The `infer` request for `program`, entry function `m.name`.
fn render(m: &SubjectMethod, program: String) -> String {
    let req = InferRequest {
        program,
        func: Some(m.name.to_string()),
        deadline_ms: None,
        tests: None,
        jobs: 1,
        trace: None,
    };
    render_infer(None, &req)
}

/// A parsed `infer` reply.
struct Reply {
    labels: Vec<String>,
    psis: Vec<String>,
    queue_ms: f64,
    service_ms: f64,
    tests: u64,
    dynamic_runs: u64,
    removed: u64,
}

fn parse_reply(raw: &str) -> Result<Reply, String> {
    let v = json::parse(raw).map_err(|e| e.to_string())?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error reply: {raw}"));
    }
    if v.get("timed_out").and_then(Json::as_bool) != Some(false) {
        return Err("reply timed out".to_string());
    }
    let f = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("reply lacks `{k}`"));
    let acls = v.get("acls").and_then(Json::as_array).ok_or("reply lacks `acls`")?;
    let mut r = Reply {
        labels: Vec::new(),
        psis: Vec::new(),
        queue_ms: f("queue_ms")?,
        service_ms: f("elapsed_ms")?,
        tests: f("tests")? as u64,
        dynamic_runs: 0,
        removed: 0,
    };
    for a in acls {
        r.labels.push(a.str_field("acl").ok_or("acl lacks `acl`")?.to_string());
        r.psis.push(a.str_field("psi").ok_or("acl lacks `psi`")?.to_string());
        let prune = a.get("prune").ok_or("acl lacks `prune`")?;
        r.dynamic_runs += prune.u64_field("dynamic_runs").unwrap_or(0);
        r.removed += prune.u64_field("removed").unwrap_or(0);
    }
    Ok(r)
}

/// What one program text was served, and how often.
struct Served {
    labels: Vec<String>,
    psis: Vec<String>,
    requests: u64,
}

/// One connection's record of a phase.
#[derive(Default)]
struct Tally {
    /// `(completion s since the phase started, round trip ms)` per reply.
    latency_ms: Vec<(f32, f32)>,
    served: HashMap<Key, Served>,
    /// Requests whose reply was an error or unreadable.
    errors: Vec<String>,
    /// Replies that differ from an earlier reply for the same text.
    mismatches: u64,
    queue_ms: f64,
    service_ms: f64,
    tests: u64,
    dynamic_runs: u64,
    removed: u64,
}

impl Tally {
    fn serve(&mut self, key: Key, labels: Vec<String>, psis: Vec<String>, requests: u64) {
        match self.served.get_mut(&key) {
            Some(s) => {
                self.mismatches += u64::from(s.labels != labels || s.psis != psis);
                s.requests += requests;
            }
            None => {
                self.served.insert(key, Served { labels, psis, requests });
            }
        }
    }

    fn merge(&mut self, o: Tally) {
        self.latency_ms.extend(o.latency_ms);
        self.errors.extend(o.errors);
        self.mismatches += o.mismatches;
        self.queue_ms += o.queue_ms;
        self.service_ms += o.service_ms;
        self.tests += o.tests;
        self.dynamic_runs += o.dynamic_runs;
        self.removed += o.removed;
        for (key, s) in o.served {
            self.serve(key, s.labels, s.psis, s.requests);
        }
    }

    fn requests(&self) -> u64 {
        self.latency_ms.len() as u64 + self.errors.len() as u64
    }
}

/// One closed-loop connection.
struct Conn(TcpStream);

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        Ok(Conn(s))
    }

    /// Sends one request and waits for its reply; the time is send to reply.
    fn round_trip(&mut self, payload: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        write_frame(&mut self.0, payload).map_err(|e| e.to_string())?;
        let reply = read_frame(&mut self.0).map_err(|e| e.to_string())?;
        Ok((reply, t.elapsed().as_secs_f64() * 1e3))
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
enum Until {
    /// At the first round boundary after this many seconds, once
    /// [`RSS_AT`] requests were timed.
    Seconds(f64),
    /// After exactly this many rounds.
    Rounds(u64),
}

/// Requests after which a sub-run reads the daemon's peak RSS: memory is
/// compared at equal work, so a faster daemon is not charged for the
/// extra requests it serves in the same time.
const RSS_AT: usize = 2 * MIN_SAMPLES;

/// Drives every connection on its own thread. Connections claim whole
/// rounds, so every claimed round completes. Returns the merged tally, the
/// number of rounds, the wall time, and, given `rss_of` (the daemon's pid),
/// its peak RSS in kB when the [`RSS_AT`]-th reply arrived.
fn drive<'p>(
    conns: &mut [Conn],
    until: Until,
    round_of: &(dyn Fn(u64) -> Vec<(Key, Cow<'p, str>)> + Sync),
    spans: &Spans,
    rss_of: Option<u32>,
) -> (Tally, u64, Duration, Option<u64>) {
    let next = AtomicU64::new(0);
    let samples = AtomicUsize::new(0);
    let rss_kb = std::sync::OnceLock::new();
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let (next, samples, rss_kb) = (&next, &samples, &rss_kb);
                s.spawn(move || {
                    pin_to_nth_cpu(i);
                    let mut t = Tally::default();
                    loop {
                        if let Until::Seconds(secs) = until {
                            if start.elapsed().as_secs_f64() >= secs
                                && samples.load(Ordering::Relaxed) >= RSS_AT
                            {
                                break;
                            }
                        }
                        let r = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(until, Until::Rounds(n) if r >= n) {
                            break;
                        }
                        for (key, payload) in round_of(r) {
                            request(conn, &mut t, key, &payload, spans, start);
                            if samples.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT {
                                if let Some(pid) = rss_of {
                                    let kb = daemon::status_kb(&pid.to_string(), "VmHWM");
                                    let _ = rss_kb.set(kb.unwrap_or(0));
                                }
                            }
                        }
                    }
                    t
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed();
    let rounds = match until {
        Until::Rounds(n) => n,
        Until::Seconds(_) => next.load(Ordering::Relaxed),
    };
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    (all, rounds, wall, rss_kb.into_inner())
}

fn request(conn: &mut Conn, t: &mut Tally, key: Key, payload: &str, spans: &Spans, start: Instant) {
    let open = spans.begin(Layer::RoundTrip, None);
    let reply = conn.round_trip(payload).and_then(|(raw, ms)| Ok((parse_reply(&raw)?, ms)));
    match reply {
        Ok((r, ms)) => {
            if let Some((id, _)) = open {
                spans.record(Layer::Queue, Some(id), Duration::from_secs_f64(r.queue_ms / 1e3));
                spans.record(Layer::Service, Some(id), Duration::from_secs_f64(r.service_ms / 1e3));
            }
            spans.end(Layer::RoundTrip, open);
            t.latency_ms.push((start.elapsed().as_secs_f32(), ms as f32));
            t.queue_ms += r.queue_ms;
            t.service_ms += r.service_ms;
            t.tests += r.tests;
            t.dynamic_runs += r.dynamic_runs;
            t.removed += r.removed;
            t.serve(key, r.labels, r.psis, 1);
        }
        Err(e) => {
            spans.end(Layer::RoundTrip, open);
            t.errors.push(e);
        }
    }
}

/// Pins the calling thread to the `i`-th CPU it may run on (modulo their
/// number), so each connection's client thread stays on one core. On a
/// two-core host, unpinned client threads moved `serve_repeat` throughput
/// by about a fifth between runs, pinned ones by about a tenth. Best
/// effort: on any error the thread stays unpinned.
fn pin_to_nth_cpu(i: usize) {
    const WORDS: usize = 16; // a 1024-CPU `cpu_set_t`
    let mut allowed = [0u64; WORDS];
    // SAFETY: pid 0 names the calling thread; the pointer is to a live,
    // writable array whose size in bytes is the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> =
        (0..WORDS * 64).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    let Some(&cpu) = cpus.get(i % cpus.len().max(1)) else { return };
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the array is only read.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A daemon after set-up: started, connections open, warm-up pass done.
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
    /// The warm-up replies: every corpus method once, unshifted.
    warm: Tally,
}

fn set_up(plan: &Plan, bin: &std::path::Path) -> Result<Live, String> {
    let daemon = Daemon::start(bin)?;
    let mut conns =
        (0..nproc()).map(|_| Conn::open(&daemon.addr)).collect::<Result<Vec<_>, _>>()?;
    let warm_round = |r: u64| -> Vec<(Key, Cow<'_, str>)> {
        let m = r as usize;
        if m < plan.corpus.len() {
            vec![((m, 0), plan.payload((m, 0)))]
        } else {
            Vec::new()
        }
    };
    let n = plan.corpus.len() as u64;
    let (warm, ..) = drive(&mut conns, Until::Rounds(n), &warm_round, &Spans::off(), None);
    if !warm.errors.is_empty() {
        return Err(format!("warm-up failed: {}", warm.errors[0]));
    }
    Ok(Live { daemon, conns, warm })
}

/// Closes the connections and stops the daemon; a dirty exit is noted.
fn tear_down(live: Live, out: &mut Outcome) {
    drop(live.conns);
    match live.daemon.stop() {
        Exit::Clean => {}
        e => {
            out.correct = false;
            out.notes.push(format!("preinferd did not drain cleanly: {e:?}"));
        }
    }
}

/// Daemon-side counters from the `stats` verb.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonStats {
    hits: f64,
    misses: f64,
    simplex: f64,
    testgen_ms: f64,
    partition_ms: f64,
    prune_ms: f64,
    generalize_ms: f64,
    assemble_ms: f64,
    passing_guard_ms: f64,
    solver_ms: f64,
}

impl DaemonStats {
    fn read(d: &Daemon) -> Result<DaemonStats, String> {
        let v = d.stats()?;
        let num = |path: &[&str]| -> f64 {
            path.iter().try_fold(&v, |j, k| j.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let stage = |s: &str| num(&["stages", s, "total_us"]) / 1e3;
        Ok(DaemonStats {
            hits: num(&["cache", "hits"]),
            misses: num(&["cache", "misses"]),
            simplex: num(&["solver_tiers", "answered_by_simplex"]),
            testgen_ms: stage("testgen"),
            partition_ms: stage("partition"),
            prune_ms: stage("prune"),
            generalize_ms: stage("generalize"),
            assemble_ms: stage("assemble"),
            passing_guard_ms: stage("passing_guard"),
            solver_ms: stage("solver"),
        })
    }

    fn minus(self, o: DaemonStats) -> DaemonStats {
        DaemonStats {
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            simplex: self.simplex - o.simplex,
            testgen_ms: self.testgen_ms - o.testgen_ms,
            partition_ms: self.partition_ms - o.partition_ms,
            prune_ms: self.prune_ms - o.prune_ms,
            generalize_ms: self.generalize_ms - o.generalize_ms,
            assemble_ms: self.assemble_ms - o.assemble_ms,
            passing_guard_ms: self.passing_guard_ms - o.passing_guard_ms,
            solver_ms: self.solver_ms - o.solver_ms,
        }
    }
}

/// Readings of the traced phase, taken from outside the daemon.
struct TracedPhase {
    tally: Tally,
    wall: Duration,
    stats: DaemonStats,
    cpu_ms: f64,
    rss_growth_kb: f64,
}

pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let bin = args.daemon.as_deref().ok_or("serve workloads need --daemon PATH")?;
    let mut out = Outcome { correct: true, ..Outcome::default() };

    // Input generation, timed once and counted in every set-up.
    let t = Instant::now();
    let plan = Plan::new(kind, args.seed);
    let plan_s = t.elapsed().as_secs_f64();

    // Sub-runs, each on a daemon of its own: on a small shared host, serving
    // throughput swings by a fifth from one few-second stretch to the next,
    // and thread placement is fixed per daemon, so an untraced run takes
    // `SETUPS` sub-runs and reports the fast-side deciles over all their
    // segments (`stats::fast_decile`). Rounds continue across sub-runs,
    // so no shifted text is sent twice in a run.
    let subruns = if args.trace { 1 } else { SETUPS };
    let seconds = args.seconds / if args.trace { 2.0 } else { subruns as f64 };
    let (mut setup_s, mut figures, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut all, mut warm) = (Tally::default(), Tally::default());
    let (mut rounds, mut wall) = (0u64, Duration::ZERO);
    for _ in 0..subruns {
        let t = Instant::now();
        let mut live = set_up(&plan, bin)?;
        setup_s.push(plan_s + t.elapsed().as_secs_f64());
        let base = rounds;
        let round_of = |r: u64| plan.round(base + r);
        let pid = live.daemon.pid();
        let (mut tally, n, w, rss_kb) =
            drive(&mut live.conns, Until::Seconds(seconds), &round_of, &Spans::off(), Some(pid));
        rounds += n;
        wall += w;
        rss_mb.push(rss_kb.unwrap_or(0) as f64 / 1024.0);
        figures.extend(segments(&mut tally.latency_ms));
        out.attempted += tally.requests();
        warm.merge(std::mem::take(&mut live.warm));
        tear_down(live, &mut out);
        all.merge(tally);
    }
    let round_of = |r: u64| plan.round(r);

    // Traced phase: a fresh daemon, the same rounds, spans on.
    let spans = if args.trace { Spans::recording() } else { Spans::off() };
    let mut traced = None;
    if args.trace {
        let mut live = set_up(&plan, bin)?;
        let pid = live.daemon.pid();
        let before = DaemonStats::read(&live.daemon)?;
        let (cpu0, rss0) = (daemon::cpu_ns(pid), daemon::status_kb(&pid.to_string(), "VmRSS"));
        let (t, _, traced_wall, _) =
            drive(&mut live.conns, Until::Rounds(rounds), &round_of, &spans, None);
        let stats = DaemonStats::read(&live.daemon)?.minus(before);
        let cpu_ms = (daemon::cpu_ns(pid).saturating_sub(cpu0)) as f64 / 1e6;
        let rss1 = daemon::status_kb(&pid.to_string(), "VmRSS");
        let rss_growth_kb = rss1.unwrap_or(0) as f64 - rss0.unwrap_or(0) as f64;
        tear_down(live, &mut out);
        traced = Some(TracedPhase { tally: t, wall: traced_wall, stats, cpu_ms, rss_growth_kb });
    }

    // Checks, outside all timing.
    out.attempted += traced.as_ref().map_or(0, |t| t.tally.requests());
    if let Some(t) = &traced {
        let mut copy = Tally { errors: t.tally.errors.clone(), ..Tally::default() };
        for (key, s) in &t.tally.served {
            copy.serve(*key, s.labels.clone(), s.psis.clone(), s.requests);
        }
        all.merge(copy);
    }
    out.failed = all.errors.len() as u64;
    for e in all.errors.iter().take(3) {
        out.notes.push(format!("request failed: {e}"));
    }
    if all.mismatches + warm.mismatches > 0 {
        out.correct = false;
        out.notes.push(format!(
            "{} replies differ for the same program text",
            all.mismatches + warm.mismatches
        ));
    }
    let keys: Vec<Key> = all.served.keys().copied().collect();
    let checked = map_parallel(&keys, nproc(), |&key| {
        let c = check_program(&plan.source(key), plan.corpus[key.0].name, &spans, None);
        if let Ok(c) = &c {
            if spans.enabled() {
                time_protocol(&spans, &plan.payload(key), &c.outcome);
            }
        }
        c
    });
    let mut failing_keys = 0;
    for (key, c) in keys.iter().zip(checked) {
        let s = &all.served[key];
        let name = plan.corpus[key.0].name;
        match c {
            Err(e) => {
                out.correct = false;
                out.notes.push(format!("{name}+{}: {e}", key.1));
            }
            Ok(c) => {
                let labels: Vec<&str> = c.outcome.acls.iter().map(|a| a.acl.as_str()).collect();
                if s.labels != labels || !s.psis.iter().map(String::as_str).eq(c.psis()) {
                    out.correct = false;
                    out.notes
                        .push(format!("{name}+{}: served ψ differs from the library's", key.1));
                }
                if !c.admitting.is_empty() {
                    out.failed += s.requests;
                    failing_keys += 1;
                    if failing_keys <= 3 {
                        out.notes.push(format!("{name}+{}: ψ admits a failing test", key.1));
                    }
                }
            }
        }
    }
    let psi_both = score_warm_up(&plan, &warm, &spans, &mut out);

    if let Some(t) = traced {
        out.metrics = layer_metrics(&spans, t, wall);
        let path = args.out_dir.join(format!(
            "{}-seed{}.spans.jsonl",
            if kind == Kind::Repeat { "serve_repeat" } else { "serve_fresh" },
            args.seed
        ));
        if let Err(e) = spans.write(&path) {
            out.correct = false;
            out.notes.push(format!("span file: {e}"));
        }
    } else {
        let mut m = Metrics::default();
        let t = fast_decile(&figures);
        m.put("setup_s", median(&setup_s), "s");
        m.put("methods_per_s", t.per_s, "1/s");
        m.put("latency_p50_ms", t.p50_ms, "ms");
        m.put("latency_p99_ms", t.p99_ms, "ms");
        m.put("rss_mb", median(&rss_mb), "MB");
        m.put("psi_both", psi_both as f64, "count");
        out.metrics = m;
    }
    Ok(out)
}

/// `psi_both` of what the daemon served for the unshifted corpus in the
/// warm-up pass: the report's `#Both` over every ACL whose served ψ is the
/// one the report scored. Traced runs score through the span-instrumented
/// mirror, so the baselines and scoring layers get spans here too.
fn score_warm_up(plan: &Plan, warm: &Tally, spans: &Spans, out: &mut Outcome) -> u64 {
    let cfg = EvalConfig { jobs: 1, trace: false, ..EvalConfig::default() };
    let mut psi_both = 0;
    for (m, method) in plan.corpus.iter().enumerate() {
        let Some(served) = warm.served.get(&(m, 0)) else {
            out.correct = false;
            out.notes.push(format!("{}: no warm-up reply", method.name));
            continue;
        };
        let s = if spans.enabled() {
            let root = spans.begin(Layer::Method, None);
            let (s, _) = evaluate_traced(method, &cfg, spans, root.map(|r| r.0));
            spans.end(Layer::Method, root);
            s
        } else {
            scored(&evaluate_method(method, &cfg))
        };
        let both = check_program(method.source, method.name, &Spans::off(), None)
            .ok()
            .and_then(|c: Checked| both_if_scored(&s, &c, served.psis.iter().map(String::as_str)));
        match both {
            Some(b) => psi_both += b,
            None => {
                out.correct = false;
                out.notes
                    .push(format!("{}: served ψ is not the one the report scores", method.name));
            }
        }
    }
    psi_both
}

fn layer_metrics(spans: &Spans, t: TracedPhase, untraced_wall: Duration) -> Metrics {
    let n = t.tally.latency_ms.len().max(1) as f64;
    let rtt: f64 = t.tally.latency_ms.iter().map(|s| f64::from(s.1)).sum();
    let s = t.stats;
    let lookups = s.hits + s.misses;
    let mean_ms = |layer| spans.total_ms(layer) / spans.count(layer).max(1) as f64;
    let per_method = |layer| spans.total_ms(layer) / spans.count(Layer::Method).max(1) as f64;
    let stages = s.testgen_ms + s.partition_ms + s.prune_ms + s.generalize_ms + s.assemble_ms;
    let l = Layers {
        compile_ms: mean_ms(Layer::Compile),
        generate_ms: s.testgen_ms / n,
        tests: t.tally.tests as f64 / n,
        solve_ms: s.solver_ms / n,
        queries: lookups / n,
        cache_hit_ratio: s.hits / lookups.max(1.0),
        simplex_answers: s.simplex / n,
        prune_ms: s.prune_ms / n,
        dynamic_runs: t.tally.dynamic_runs as f64 / n,
        predicates_removed: t.tally.removed as f64 / n,
        generalize_ms: s.generalize_ms / n,
        assemble_ms: s.assemble_ms / n,
        passing_guard_ms: s.passing_guard_ms / n,
        fixit_ms: per_method(Layer::FixIt),
        dysy_ms: per_method(Layer::DySy),
        score_ms: per_method(Layer::Score),
        queue_ms: t.tally.queue_ms / n,
        service_ms: t.tally.service_ms / n,
        transport_ms: (rtt - t.tally.queue_ms - t.tally.service_ms) / n,
        parse_request_us: mean_ms(Layer::ParseRequest) * 1e3,
        render_response_us: mean_ms(Layer::RenderResponse) * 1e3,
        daemon_cpu_ms_per_request: t.cpu_ms / n,
        rss_growth_kb_per_request: t.rss_growth_kb / n,
        residue_ms: (t.tally.service_ms - stages) / n,
        trace_overhead_ms: (t.wall.as_secs_f64() - untraced_wall.as_secs_f64()) * 1e3 / n,
    };
    let mut m = Metrics::default();
    l.put(&mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every `serve_fresh` variant compiles, and no program text repeats
    /// within a run, including past the first sweep of offsets.
    #[test]
    fn fresh_variants_compile_and_never_repeat() {
        for seed in [1, 2, 3] {
            let plan = Plan::new(Kind::Fresh, seed);
            assert!(plan.timed.len() > 30, "most literal-bearing methods are timed");
            let mut seen = HashSet::new();
            for r in 0..crate::inputs::OFFSET_SPAN + 64 {
                for ((m, offset), _) in plan.round(r) {
                    let src = plan.source((m, offset));
                    let program = minilang::compile(&src).unwrap_or_else(|e| {
                        panic!("{} shifted by {offset}: {e}", plan.corpus[m].name)
                    });
                    assert!(program.func(plan.corpus[m].name).is_some());
                    assert!(seen.insert(src), "{} repeats at round {r}", plan.corpus[m].name);
                }
            }
        }
    }

    /// The same seed gives the same requests; another seed another order.
    #[test]
    fn rounds_repeat_for_a_seed() {
        let a = Plan::new(Kind::Fresh, 5);
        let b = Plan::new(Kind::Fresh, 5);
        let c = Plan::new(Kind::Fresh, 6);
        assert_eq!(a.round(3), b.round(3));
        assert_ne!(a.round(3), c.round(3));
        let r = Plan::new(Kind::Repeat, 5);
        assert_eq!(r.round(0).len(), r.corpus.len());
    }
}
