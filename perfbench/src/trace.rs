//! Spans recorded from outside the library, `/proc` memory probes and
//! the helpers the binary reports through.
//!
//! A span brackets one call the benchmark makes into a layer (world
//! build, harness build, `prime`, warm-up, one `run_until` chunk, one
//! engine trial, one exploration, `finish`, the audit). Spans live in
//! memory and are written out once, at exit, so recording one costs two
//! clock reads and a push into a pre-sized vector.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use serde_json::{Map, Value};

/// One recorded span. `parent` is the index of the enclosing span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Work done inside the span (sessions, ops, executions), 0 if none.
    work: u64,
}

/// The in-memory span sink. When off, [`Tracer::span`] still times its
/// closure (set-up phases are always timed) but records nothing.
pub struct Tracer {
    on: bool,
    /// Whether spans are being recorded right now: `on`, except inside
    /// the untraced chunks of a traced run.
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(seconds, work)` summed over untraced `[0]` and traced `[1]`
    /// chunks.
    sides: [(f64, f64); 2],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            recording: on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 14 } else { 0 }),
            open: Vec::new(),
            sides: [(0.0, 0.0); 2],
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses every span recorded until the matching
    /// [`Tracer::close`]. Returns its index (meaningless when off).
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        if self.recording {
            let start_ns = self.ns(Instant::now());
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
                work: 0,
            });
            self.open.push(id);
        }
        id
    }

    pub fn close(&mut self, id: usize, work: u64) {
        if self.recording {
            let end_ns = self.ns(Instant::now());
            let span = &mut self.spans[id];
            span.end_ns = end_ns;
            span.work = work;
            self.open.pop();
        }
    }

    /// Runs `f`, recording it as a span when tracing, and returns its
    /// result with the elapsed wall seconds.
    pub fn span<T>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.recording {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                work,
            });
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Runs measured chunk `i`; `f` returns its result and the work it
    /// did (ops, or 1 per fixed unit). A traced run records every odd chunk (and
    /// the spans `f` records inside it) and only times the even ones, so
    /// [`Tracer::overhead`] compares the two interleaved.
    pub fn chunk<T>(
        &mut self,
        i: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> (T, f64) {
        let traced = self.on && i % 2 == 1;
        self.recording = traced;
        let id = self.open(name);
        let start = Instant::now();
        let (out, work) = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.close(id, work);
        self.recording = self.on;
        let side = &mut self.sides[usize::from(traced)];
        side.0 += secs;
        side.1 += work as f64;
        (out, secs)
    }

    /// Traced ÷ untraced wall time per unit of chunk work.
    pub fn overhead(&self) -> f64 {
        let [(plain_s, plain_w), (traced_s, traced_w)] = self.sides;
        (traced_s / traced_w) / (plain_s / plain_w)
    }

    /// Durations in milliseconds of every recorded span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON line to `path`, tagged with `run`.
    pub fn write(&self, path: &str, run: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.work
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// A `VmRSS`/`VmHWM` field of `/proc/self/status`, in MiB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resident set size now, in MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Peak resident set size of this process so far, in MiB.
pub fn hwm_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` by linear interpolation (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Chainable numeric inserts into a JSON object.
pub trait Put {
    fn num(&mut self, key: &str, v: f64) -> &mut Self;
    fn int(&mut self, key: &str, v: u64) -> &mut Self;
}

impl Put for Map {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.insert(key.into(), Value::from(v));
        self
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.insert(key.into(), Value::from(v));
        self
    }
}
