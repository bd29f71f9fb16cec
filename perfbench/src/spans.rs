//! Spans the benchmark records around its own calls into the program.
//!
//! A traced run keeps two sinks: a recording [`obs::TraceSink`] holding one
//! `span_start`/`span_end` pair per call (written out as JSON lines that
//! `preinfer-trace` reads), and an aggregate sink handed to the pipeline
//! configs, whose per-stage histograms are the `obs` stage aggregates.
//! Untraced runs hold neither and pay nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layers the benchmark attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Compile,
    Generate,
    Infer,
    FixIt,
    DySy,
    Score,
    ParseRequest,
    RenderResponse,
    /// One `evaluate_method`-equivalent call (the root of its layer spans).
    Method,
    /// One `infer` round trip, send to reply.
    RoundTrip,
    Queue,
    Service,
}

const LAYERS: usize = 12;

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Compile => "minilang.compile",
            Layer::Generate => "testgen.generate",
            Layer::Infer => "preinfer_core.infer",
            Layer::FixIt => "baselines.fixit",
            Layer::DySy => "baselines.dysy",
            Layer::Score => "report.score",
            Layer::ParseRequest => "server.parse_request",
            Layer::RenderResponse => "server.render_response",
            Layer::Method => "report.evaluate_method",
            Layer::RoundTrip => "client.round_trip",
            Layer::Queue => "server.queue",
            Layer::Service => "server.service",
        }
    }
}

/// Span recorder; `Spans::off()` is the untraced run's no-op.
pub struct Spans {
    sink: Option<Arc<obs::TraceSink>>,
    stages: Option<Arc<obs::TraceSink>>,
    total_ns: [AtomicU64; LAYERS],
    count: [AtomicU64; LAYERS],
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            sink: None,
            stages: None,
            total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            count: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub fn recording() -> Spans {
        Spans {
            sink: Some(Arc::new(obs::TraceSink::recording())),
            stages: Some(Arc::new(obs::TraceSink::aggregate())),
            ..Spans::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The aggregate sink for pipeline configs (`None` when untraced).
    pub fn stage_sink(&self) -> Option<Arc<obs::TraceSink>> {
        self.stages.clone()
    }

    /// Opens a span; pair with [`Spans::end`].
    pub fn begin(&self, layer: Layer, parent: Option<u64>) -> Option<(u64, Instant)> {
        self.sink.as_ref().map(|s| (s.begin_span(layer.label(), parent), Instant::now()))
    }

    pub fn end(&self, layer: Layer, open: Option<(u64, Instant)>) {
        if let Some((id, start)) = open {
            self.close(layer, id, start.elapsed());
        }
    }

    /// Times `f` as one span of `layer` under `parent`.
    pub fn time<R>(&self, layer: Layer, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, parent);
        let r = f();
        self.end(layer, open);
        r
    }

    /// Records a span whose duration was measured elsewhere (the daemon's
    /// queue and service times, reported in each reply).
    pub fn record(&self, layer: Layer, parent: Option<u64>, dur: Duration) {
        if let Some(s) = &self.sink {
            let id = s.begin_span(layer.label(), parent);
            self.close(layer, id, dur);
        }
    }

    fn close(&self, layer: Layer, id: u64, dur: Duration) {
        if let Some(s) = &self.sink {
            s.end_span(id, layer.label(), dur);
            let i = layer as usize;
            self.total_ns[i].fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
            self.count[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total recorded time of `layer`, in milliseconds.
    pub fn total_ms(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize].load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Number of spans recorded for `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer as usize].load(Ordering::Relaxed)
    }

    /// Total inclusive time of an `obs` pipeline stage, in milliseconds.
    pub fn stage_ms(&self, stage: obs::Stage) -> f64 {
        self.stages.as_ref().map_or(0.0, |s| s.snapshot(stage).total_us as f64 / 1e3)
    }

    /// Writes the recorded spans as JSON lines and checks that the trace
    /// analyzer reads them back as a span tree.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let Some(sink) = &self.sink else { return Ok(()) };
        let lines = sink.lines();
        let analysis = obs::TraceAnalysis::from_lines(lines.iter().map(String::as_str))?;
        if analysis.spans.is_empty() || analysis.skipped > 0 {
            return Err(format!("trace analyzer skipped {} lines", analysis.skipped));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        sink.write_jsonl(&mut f).map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut f).map_err(|e| e.to_string())
    }
}
