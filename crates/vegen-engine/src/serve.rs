//! `vegen-engine serve` — a resident compile service over the engine.
//!
//! The daemon reads newline-delimited JSON requests (one object per
//! line) from a Unix socket or stdio and answers each with one JSON
//! line. Protocol grammar (see DESIGN §13 for the full spec):
//!
//! ```text
//! request  := compile | metrics | stats | ping | kernels | shutdown
//! compile  := {"op":"compile", "id":<any>,
//!              "kernel":<suite name> | "function":<serdes Function>,
//!              ["target":<name>] ["beam":<width>]
//!              ["deadline_ms":<n>] ["decisions":<bool>]}
//! metrics  := {"op":"metrics", "id":<any>}
//! stats    := {"op":"stats", "id":<any>, ["format":"prometheus"]}
//! ping     := {"op":"ping", "id":<any>}
//! kernels  := {"op":"kernels", "id":<any>}
//! shutdown := {"op":"shutdown", "id":<any>}
//!
//! response := {"id":<echoed>, "ok":true,  "result":{...}}
//!           | {"id":<echoed>, "ok":false, "error":{"stage","tag","message"}}
//! ```
//!
//! `metrics` answers with engine counters, cache/disk stats, queue depth,
//! and the full metrics registry snapshot under `registry` — latency
//! histograms with exact p50/p90/p99. `stats` is the exposition-only
//! subset: just the registry, or the Prometheus text format when
//! `"format":"prometheus"` is given (the text lands in the response as
//! `{"prometheus": "<text>"}` so the framing stays NDJSON). A `compile`
//! result is [`report::result_json`]: a report's kernel row without its
//! `detail` block.
//!
//! Request identity: a request is read by a borrowing scanner that leaves
//! the `function` member as raw text; if the engine's alias tier has seen
//! exactly those bytes under the same settings, the job is enqueued by
//! content address and never parsed, canonicalized or hashed (DESIGN §13,
//! "Request identity and the alias tier"). Everything below — admission,
//! deadlines, draining, events, metrics, framing — is the same for such a
//! job. A request line may be at most 16 MiB; a longer one is discarded
//! and answered with a typed `protocol` error.
//!
//! Admission control: compile requests land in a bounded queue. A full
//! queue sheds the request immediately with a typed
//! [`ErrorCause::Overloaded`] error instead of blocking the client or
//! aborting the daemon. A dispatcher thread drains the queue in
//! micro-batches onto [`Engine::compile_batch`] — the same work-stealing
//! pool batch jobs use — so concurrent clients share the machine fairly.
//! A request that spends its whole `deadline_ms` waiting in the queue is
//! dropped with a typed `Deadline` error at [`Stage::Admission`]; one
//! that gets dispatched runs with its deadline as the compile window.
//!
//! Shutdown is graceful: the `shutdown` op (or EOF on stdio) stops
//! admission, the dispatcher drains every queued job to a response, and
//! only then does the daemon exit. In socket mode, compile requests
//! arriving on *other* connections during the drain are rejected with
//! tag `"draining"`.

use crate::cache::{RequestSource, SourceKind};
use crate::events::{fault_json, JobEvent};
use crate::json::{scan_members, Doc, Json, Node};
use crate::{report, serdes, Engine, Job, JobResult, Rung};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vegen::error::{CompileError, ErrorCause, Stage};
use vegen_isa::TargetIsa;

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound on the admission queue; a full queue sheds with a typed
    /// `Overloaded` response.
    pub queue_capacity: usize,
    /// Target for requests that don't name one.
    pub target: TargetIsa,
    /// Beam width for requests that don't name one.
    pub beam_width: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { queue_capacity: 64, target: TargetIsa::avx2(), beam_width: 16 }
    }
}

/// What one daemon run did (for logs and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests parsed (any op).
    pub requests: u64,
    /// Compile jobs that ran through the engine to a response.
    pub compiles: u64,
    /// Compile requests shed by the full queue.
    pub shed: u64,
    /// Compile requests dropped after expiring in the queue.
    pub expired: u64,
    /// Compile requests rejected during the shutdown drain.
    pub rejected_draining: u64,
    /// Lines that were not a well-formed request.
    pub protocol_errors: u64,
}

/// A client output stream: one response line per call, best-effort (a
/// client that hung up mid-drain just loses its responses).
type Sink = Arc<Mutex<dyn Write + Send>>;

fn send_line(sink: &Sink, doc: &Json) {
    let mut w = sink.lock().unwrap_or_else(|e| e.into_inner());
    let _ = writeln!(w, "{}", doc.render());
    let _ = w.flush();
}

fn ok_response(id: &Json, result: Json) -> Json {
    Json::obj([("id", id.clone()), ("ok", Json::Bool(true)), ("result", result)])
}

/// A failed request: `error` is a fault as [`fault_json`] spells it.
fn error_response(id: &Json, error: Json) -> Json {
    Json::obj([("id", id.clone()), ("ok", Json::Bool(false)), ("error", error)])
}

/// A request that failed with `e`, described in full.
fn compile_error(id: &Json, e: &CompileError) -> Json {
    error_response(id, fault_json(e.stage, e.cause.tag(), e.to_string()))
}

fn protocol_error(id: &Json, message: impl Into<String>) -> Json {
    error_response(id, fault_json(Stage::Admission, "protocol", message.into()))
}

/// Longest request line a client may send. `BufRead::lines` would buffer
/// a line of any length, so one client that never sends `\n` could take
/// the daemon's memory; this is far above any real kernel (6 000× the
/// median request of the perf corpus) and still a bounded allocation.
const MAX_LINE_BYTES: usize = 16 << 20;

/// Capacity the per-connection line buffer is trimmed back to after a
/// large request.
const LINE_BUFFER_KEEP: usize = 64 << 10;

/// What [`read_line_capped`] found.
enum LineRead {
    /// A line (terminator dropped) is in the buffer.
    Line,
    /// The line ran past the cap; all of it was consumed and discarded.
    TooLong,
    /// End of input with nothing left to return.
    Eof,
}

/// Read one `\n`-terminated line (or the unterminated tail at EOF) into
/// `line`, never holding more than `cap` bytes of it.
fn read_line_capped<R: BufRead>(
    input: &mut R,
    line: &mut Vec<u8>,
    cap: usize,
) -> io::Result<LineRead> {
    line.clear();
    let (mut any, mut too_long) = (false, false);
    let ended = |too_long| if too_long { LineRead::TooLong } else { LineRead::Line };
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if any { ended(too_long) } else { LineRead::Eof });
        }
        any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !too_long && line.len() + take > cap {
            too_long = true;
            line.clear();
        }
        if !too_long {
            line.extend_from_slice(&chunk[..take]);
        }
        input.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(ended(too_long));
        }
    }
}

/// One request line, read once: every top-level member parsed except
/// `function`, which stays the client's bytes until something needs it
/// decoded (an alias hit never does), or a node of the whole line.
struct Request<'a> {
    /// The top-level members, parsed (after a scan, all but `function`).
    doc: Json,
    /// A compile request's `function` member, as far as it has been read.
    function: Option<FunctionMember<'a>>,
}

/// A request's `function` member, as far as it has been read.
#[derive(Clone, Copy)]
enum FunctionMember<'a> {
    /// The client's bytes, unparsed: the scanner read the line.
    Raw(&'a str),
    /// Tokenized with the rest of the line by the whole-line parser.
    Parsed(Node<'a>),
}

impl<'a> Request<'a> {
    /// Read `line` with the borrowing scanner: the small members go
    /// through the ordinary value parser, `function` is kept as a span.
    /// `None` when the scanner declines the line or a member does not
    /// parse — the whole-line parser then decides what the line is.
    fn scan(line: &'a str) -> Option<Request<'a>> {
        let members = scan_members(line)?;
        // Only a compile request may leave `function` unread: there it is
        // either resolved by alias (bytes that parsed before) or parsed
        // on the way to a job. A `function` beside any other spelling of
        // `op` is the whole-line parser's, so a line is never answered
        // without all of it having been read by a parser.
        let compile = members.iter().any(|(key, span)| *key == "op" && *span == "\"compile\"");
        let mut function = None;
        let mut pairs = Vec::with_capacity(members.len());
        for (key, span) in members {
            if key == "function" {
                if !compile {
                    return None;
                }
                function = Some(FunctionMember::Raw(span));
            } else {
                pairs.push((key.to_string(), Json::parse_member(span).ok()?));
            }
        }
        Some(Request { doc: Json::Obj(pairs), function })
    }

    /// The request a line the whole-line parser read spells.
    fn parse(line: &'a Doc<'a>) -> Request<'a> {
        let root = line.root();
        Request { doc: root.to_json(), function: root.get("function").map(FunctionMember::Parsed) }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.doc.get(key)
    }
}

/// Target, search configuration and deadline of a compile request.
type CompileSettings = (vegen::driver::PipelineConfig, Option<Duration>);

/// The function an inline `function` member describes: decoded, then
/// checked by the IR verifier. Request bytes are untrusted, and the
/// compiler assumes what the verifier guarantees — an out-of-bounds load
/// offset, for one, sends pack enumeration into an unbounded loop.
fn inline_function(doc: Node<'_>) -> Result<vegen_ir::Function, String> {
    let function = serdes::function_from_node(doc).map_err(|e| format!("function: {e}"))?;
    vegen_ir::verify::verify(&function).map_err(|e| format!("function: {e}"))?;
    Ok(function)
}

/// The job for a request whose function had to be built: the function's
/// own error first, then the settings', as requests were always checked.
fn new_job(
    function: Result<vegen_ir::Function, String>,
    source: Option<RequestSource>,
    settings: Result<CompileSettings, String>,
) -> Result<Job, String> {
    let function = function?;
    let (pipeline, deadline) = settings?;
    Ok(Job::from_request(function, source, pipeline).with_deadline(deadline))
}

/// One admitted compile request.
struct QueuedJob {
    id: Json,
    job: Job,
    enqueued: Instant,
    sink: Sink,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<QueuedJob>,
    draining: bool,
}

/// Everything the reader and dispatcher threads share.
struct ServeState<'e> {
    engine: &'e Engine,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    cond: Condvar,
    requests: AtomicU64,
    compiles: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    rejected_draining: AtomicU64,
    protocol_errors: AtomicU64,
    /// Read every line with the whole-line parser and never the scanner:
    /// the reference reader the fuzz test compares the real one against.
    #[cfg(test)]
    full_parse_only: bool,
}

impl<'e> ServeState<'e> {
    fn new(engine: &'e Engine, cfg: ServeConfig) -> ServeState<'e> {
        ServeState {
            engine,
            cfg,
            queue: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            requests: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            #[cfg(test)]
            full_parse_only: false,
        }
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Stop admission and wake the dispatcher for its final drain.
    fn start_drain(&self) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).draining = true;
        self.cond.notify_all();
    }

    fn metrics_json(&self) -> Json {
        let q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let depth = q.items.len();
        let draining = q.draining;
        drop(q);
        Json::obj([
            ("counters", report::counters_json(&self.engine.counters())),
            ("cache", report::cache_json(&self.engine.cache_stats())),
            ("disk", self.engine.disk_stats().as_ref().map_or(Json::Null, report::disk_json)),
            (
                "queue",
                Json::obj([
                    ("depth", Json::int(depth as u64)),
                    ("capacity", Json::int(self.cfg.queue_capacity as u64)),
                ]),
            ),
            ("draining", Json::Bool(draining)),
            ("registry", report::metrics_registry_json()),
        ])
    }

    fn compile_settings(&self, req: &Request<'_>) -> Result<CompileSettings, String> {
        let target = match req.get("target") {
            Some(t) => {
                let name = t.as_str().ok_or("\"target\" must be a string")?;
                TargetIsa::from_name(name).ok_or(format!("unknown target {name:?}"))?
            }
            None => self.cfg.target.clone(),
        };
        let width = match req.get("beam") {
            Some(b) => {
                let v = b.as_f64().filter(|v| *v >= 1.0 && v.trunc() == *v);
                v.ok_or("\"beam\" must be a positive integer")? as usize
            }
            None => self.cfg.beam_width,
        };
        let deadline = match req.get("deadline_ms") {
            Some(d) => {
                let v = d.as_f64().filter(|v| *v >= 0.0 && v.trunc() == *v);
                Some(Duration::from_millis(v.ok_or("\"deadline_ms\" must be an integer")? as u64))
            }
            None => None,
        };
        let mut pipeline = vegen::driver::PipelineConfig::new(target, width);
        if let Some(Json::Bool(true)) = req.get("decisions") {
            pipeline.beam.log_decisions = true;
        }
        Ok((pipeline, deadline))
    }

    /// Build the [`Job`] a compile request describes: by address when the
    /// alias tier has seen these bytes under these settings, from the
    /// parsed function otherwise. `None` when the raw `function` span is
    /// not JSON — then neither is the line, and the whole-line parser
    /// owns the error.
    fn parse_compile(&self, req: &Request<'_>) -> Option<Result<Job, String>> {
        // Resolved first because the alias probe needs them, reported last
        // because a bad function has always been the first complaint.
        let settings = self.compile_settings(req);
        let (kind, text) = match (req.get("kernel"), req.function) {
            (Some(k), None) => match k.as_str() {
                Some(name) => (SourceKind::Kernel, name),
                None => return Some(Err("\"kernel\" must be a string".into())),
            },
            (None, Some(FunctionMember::Raw(span))) => (SourceKind::Function, span),
            // Read by the whole-line parser: there are no request bytes
            // to look up or remember.
            (None, Some(FunctionMember::Parsed(doc))) => {
                return Some(new_job(inline_function(doc), None, settings));
            }
            (_, function) => {
                // Nothing to compile, but still a line to vouch for.
                if let Some(FunctionMember::Raw(span)) = function {
                    Doc::parse_member(span).ok()?;
                }
                return Some(Err("need exactly one of \"kernel\" or \"function\"".into()));
            }
        };
        let settings = match settings {
            Ok((pipeline, deadline)) => match self.engine.aliases.lookup(kind, text, &pipeline) {
                Some(hit) => return Some(Ok(Job::resolved(hit, pipeline).with_deadline(deadline))),
                None => Ok((pipeline, deadline)),
            },
            Err(e) => Err(e),
        };
        let source = RequestSource { kind, text: text.into() };
        let function = match kind {
            SourceKind::Kernel => source.function(),
            SourceKind::Function => inline_function(Doc::parse_member(text).ok()?.root()),
        };
        Some(new_job(function, Some(source), settings))
    }

    /// Admit a compile job or shed it. The response for shed/draining is
    /// sent here; admitted jobs are answered by the dispatcher.
    fn enqueue(&self, id: Json, mut job: Job, sink: &Sink) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.draining {
            self.rejected_draining.fetch_add(1, Ordering::Relaxed);
            drop(q);
            send_line(sink, &protocol_error(&id, "daemon is draining; request rejected"));
            return;
        }
        if q.items.len() >= self.cfg.queue_capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            let e = CompileError::new(
                Stage::Admission,
                &job.name,
                ErrorCause::Overloaded { capacity: self.cfg.queue_capacity },
            );
            drop(q);
            vegen_trace::instant("serve", "shed");
            vegen_trace::metrics::counter("serve_shed_total").inc();
            send_line(sink, &compile_error(&id, &e));
            return;
        }
        // Serve jobs are admitted here, at the queue boundary — the event
        // goes out now (with the queue depth at admission) and the flag
        // stops `compile_batch` from noting a second `admitted` at
        // dispatch time.
        self.engine.note(job.id(), JobEvent::Admitted(Some(q.items.len())));
        job.pre_admitted = true;
        q.items.push_back(QueuedJob { id, job, enqueued: Instant::now(), sink: sink.clone() });
        vegen_trace::metrics::gauge("serve_queue_depth").set(q.items.len() as f64);
        drop(q);
        self.cond.notify_all();
    }

    /// Handle one request line from a client. Returns `true` when the
    /// request asked the daemon to shut down.
    ///
    /// There is one request reader: the borrowing scanner, with the
    /// whole-line parser as the authority on every line the scanner (or
    /// the value parser, on one of its spans) will not vouch for — so a
    /// malformed line is answered exactly as it always was.
    fn handle_line(&self, line: &str, sink: &Sink) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return false;
        }
        if let Some(shutdown) = self.scan(line).and_then(|req| self.handle_request(&req, sink)) {
            return shutdown;
        }
        match Doc::parse(line) {
            Ok(doc) => self
                .handle_request(&Request::parse(&doc), sink)
                .expect("a fully parsed request has no raw span left to decline"),
            Err(e) => {
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_line(sink, &protocol_error(&Json::Null, format!("unparseable request: {e}")));
                false
            }
        }
    }

    fn scan<'a>(&self, line: &'a str) -> Option<Request<'a>> {
        #[cfg(test)]
        if self.full_parse_only {
            return None;
        }
        Request::scan(line)
    }

    /// Answer one well-formed request. `None` — before anything has been
    /// counted or sent — when its raw `function` span turns out not to
    /// parse (see [`ServeState::parse_compile`]).
    fn handle_request(&self, req: &Request<'_>, sink: &Sink) -> Option<bool> {
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let op = req.get("op").and_then(Json::as_str).unwrap_or("");
        let compile = if op == "compile" { Some(self.parse_compile(req)?) } else { None };
        self.requests.fetch_add(1, Ordering::Relaxed);
        let _sp =
            vegen_trace::enabled().then(|| vegen_trace::span_owned("serve", format!("op:{op}")));
        match op {
            "ping" => send_line(sink, &ok_response(&id, Json::obj([("pong", Json::Bool(true))]))),
            "metrics" => send_line(sink, &ok_response(&id, self.metrics_json())),
            "stats" => {
                let body = match req.get("format").and_then(Json::as_str) {
                    Some("prometheus") => {
                        Json::obj([("prometheus", Json::str(report::metrics_prometheus()))])
                    }
                    Some(other) => {
                        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        send_line(sink, &protocol_error(&id, format!("unknown format {other:?}")));
                        return Some(false);
                    }
                    None => report::metrics_registry_json(),
                };
                send_line(sink, &ok_response(&id, body));
            }
            "kernels" => {
                let names = vegen_kernels::all().into_iter().map(|k| Json::str(k.name)).collect();
                send_line(sink, &ok_response(&id, Json::obj([("kernels", Json::Arr(names))])));
            }
            "shutdown" => {
                send_line(sink, &ok_response(&id, Json::obj([("draining", Json::Bool(true))])));
                return Some(true);
            }
            "compile" => match compile.expect("parsed above for this op") {
                Ok(job) => self.enqueue(id, job, sink),
                Err(message) => {
                    self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    send_line(sink, &protocol_error(&id, message));
                }
            },
            other => {
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_line(sink, &protocol_error(&id, format!("unknown op {other:?}")));
            }
        }
        Some(false)
    }

    /// Read a client stream to EOF (or shutdown). Returns `true` on
    /// shutdown. One buffer serves every line of the connection, and no
    /// line may grow it past [`MAX_LINE_BYTES`].
    fn read_client<R: BufRead>(&self, mut input: R, sink: &Sink) -> bool {
        let mut line = Vec::new();
        loop {
            match read_line_capped(&mut input, &mut line, MAX_LINE_BYTES) {
                Ok(LineRead::Line) => {
                    // As `BufRead::lines` did: bytes that are not UTF-8
                    // end the connection's input.
                    let Ok(text) = std::str::from_utf8(&line) else { return false };
                    if self.handle_line(text, sink) {
                        return true;
                    }
                }
                Ok(LineRead::TooLong) => {
                    self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let message =
                        format!("request line longer than {MAX_LINE_BYTES} bytes; discarded");
                    send_line(sink, &protocol_error(&Json::Null, message));
                }
                Ok(LineRead::Eof) | Err(_) => return false,
            }
            line.clear();
            line.shrink_to(LINE_BUFFER_KEEP);
        }
    }

    /// The dispatcher: drain whatever is queued as one micro-batch onto
    /// the engine's work-stealing pool, respond per job, repeat; exit
    /// once the queue is empty *and* the daemon is draining.
    fn dispatch(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if !q.items.is_empty() {
                        let items = std::mem::take(&mut q.items);
                        vegen_trace::metrics::gauge("serve_queue_depth").set(0.0);
                        break items;
                    }
                    if q.draining {
                        return;
                    }
                    q = self.cond.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            // Requests that spent their whole deadline waiting are
            // answered without burning pool time on them.
            let mut live = Vec::with_capacity(batch.len());
            for qj in batch {
                match qj.job.deadline {
                    Some(limit) if qj.enqueued.elapsed() >= limit => {
                        self.expired.fetch_add(1, Ordering::Relaxed);
                        vegen_trace::instant("serve", "expired_in_queue");
                        vegen_trace::metrics::counter("serve_expired_total").inc();
                        let mut expired = JobResult::new(qj.job.id(), Rung::Failed);
                        expired.faults = vec![CompileError::new(
                            Stage::Admission,
                            &qj.job.name,
                            ErrorCause::Deadline { limit },
                        )];
                        expired.wall = qj.enqueued.elapsed();
                        let event = JobEvent::Completed { result: &expired, compiled: false };
                        self.engine.note(qj.job.id(), event);
                        send_line(&qj.sink, &compile_error(&qj.id, &expired.faults[0]));
                    }
                    _ => live.push(qj),
                }
            }
            if live.is_empty() {
                continue;
            }
            let jobs: Vec<Job> = live.iter().map(|qj| qj.job.clone()).collect();
            let results = self.engine.compile_batch(&jobs);
            for (qj, result) in live.iter().zip(&results) {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                send_line(&qj.sink, &ok_response(&qj.id, report::result_json(result)));
            }
        }
    }
}

/// One final flight dump when a daemon run ends, so a post-mortem has
/// the tail of the last window even on a clean exit.
fn shutdown_dump(engine: &Engine) {
    if let Some(flight) = engine.flight_recorder() {
        let tail = engine.event_log().map(|log| log.tail()).unwrap_or_default();
        if let Err(e) = flight.dump("shutdown", &tail) {
            vegen_trace::instant_owned("flight", format!("dump_error: {e}"));
        }
    }
}

/// Run the line protocol over one input/output pair (the `--stdio` mode;
/// also the in-process harness the protocol tests drive). Returns after
/// EOF or a `shutdown` op, with every admitted job drained to a
/// response.
pub fn serve_lines<R, W>(engine: &Engine, cfg: &ServeConfig, input: R, output: W) -> ServeSummary
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let state = ServeState::new(engine, cfg.clone());
    let sink: Sink = Arc::new(Mutex::new(output));
    std::thread::scope(|scope| {
        let dispatcher = scope.spawn(|| state.dispatch());
        state.read_client(input, &sink);
        state.start_drain();
        let _ = dispatcher.join();
    });
    shutdown_dump(engine);
    state.summary()
}

/// Bind `path` and serve until a client sends `shutdown`. Each
/// connection gets its own reader thread; all share one admission queue
/// and one dispatcher. Returns after the drain completes.
///
/// # Errors
///
/// Returns a message when the socket cannot be bound.
pub fn serve_socket(
    engine: &Engine,
    cfg: &ServeConfig,
    path: &Path,
) -> Result<ServeSummary, String> {
    // A leftover socket file from a dead daemon would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    let state = ServeState::new(engine, cfg.clone());
    let shutdown = AtomicBool::new(false);
    // Read-half clones of every live connection, so shutdown can unblock
    // their readers with an EOF.
    let clients: Mutex<Vec<UnixStream>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let dispatcher = scope.spawn(|| state.dispatch());
        let mut readers = Vec::new();
        for stream in listener.incoming() {
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { break };
            if let Ok(clone) = stream.try_clone() {
                clients.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
            }
            let write_half = match stream.try_clone() {
                Ok(w) => w,
                Err(_) => continue,
            };
            let state = &state;
            let shutdown = &shutdown;
            let clients = &clients;
            readers.push(scope.spawn(move || {
                let sink: Sink = Arc::new(Mutex::new(write_half));
                if state.read_client(BufReader::new(stream), &sink) {
                    // This client asked for shutdown: stop admission,
                    // unblock the accept loop and every other reader.
                    shutdown.store(true, Ordering::Relaxed);
                    state.start_drain();
                    for c in clients.lock().unwrap_or_else(|e| e.into_inner()).iter() {
                        let _ = c.shutdown(std::net::Shutdown::Read);
                    }
                    let _ = UnixStream::connect(path);
                }
            }));
        }
        state.start_drain();
        for r in readers {
            let _ = r.join();
        }
        let _ = dispatcher.join();
    });
    let _ = std::fs::remove_file(path);
    shutdown_dump(engine);
    Ok(state.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use vegen_ir::rng::XorShift;
    use vegen_ir::{FunctionBuilder, Type};

    /// A small inline function, as its wire JSON.
    fn tiny_function_json() -> String {
        let mut b = FunctionBuilder::new("tiny");
        let (a, c) = (b.param("A", Type::I32, 4), b.param("C", Type::I32, 4));
        for i in 0..4 {
            let x = b.load(a, i);
            let y = b.add(x, x);
            b.store(c, i, y);
        }
        serdes::function_to_json(&b.finish()).render()
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig { threads: 1, verify_trials: 1, ..Default::default() })
    }

    /// A sink that keeps what it is sent.
    fn capture() -> (Sink, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        (Arc::new(Mutex::new(Buf(buf.clone()))), buf)
    }

    /// Response lines with what legitimately differs between two runs
    /// removed: `corr`, `wall_us`, and the bodies of `stats` / `metrics`
    /// (the registry is process-wide and other tests write to it).
    fn normalized(buf: &Mutex<Vec<u8>>) -> Vec<Json> {
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text.lines()
            .map(|line| {
                let Json::Obj(mut response) = Json::parse(line).unwrap() else {
                    panic!("response is not an object: {line}")
                };
                for (key, value) in &mut response {
                    if let ("result", Json::Obj(result)) = (key.as_str(), &mut *value) {
                        result.retain(|(k, _)| k != "corr" && k != "wall_us");
                        if result.iter().any(|(k, _)| {
                            matches!(k.as_str(), "registry" | "histograms" | "prometheus")
                        }) {
                            *value = Json::Null;
                        }
                    }
                }
                Json::Obj(response)
            })
            .collect()
    }

    /// One line through a daemon of its own over `engine`: read, drained,
    /// answered. Returns `(responses, summary, asked to shut down)`.
    fn answer(
        engine: &Engine,
        cfg: &ServeConfig,
        line: &str,
        full_parse_only: bool,
    ) -> (Vec<Json>, ServeSummary, bool) {
        let mut state = ServeState::new(engine, cfg.clone());
        state.full_parse_only = full_parse_only;
        let (sink, buf) = capture();
        let shutdown = state.handle_line(line, &sink);
        state.start_drain();
        state.dispatch();
        (normalized(&buf), state.summary(), shutdown)
    }

    /// Every spelling of a target means the same ISA to `--target` (the
    /// CLI, and so the daemon's default) and to a request's `"target"`
    /// member, and both refuse what the other refuses.
    #[test]
    fn target_names_resolve_identically_through_cli_and_serve() {
        let engine = engine();
        let state = ServeState::new(&engine, ServeConfig::default());
        let served = |name: &str| {
            let doc = Json::obj([("target", Json::str(name))]);
            state.compile_settings(&Request { doc, function: None }).map(|(p, _)| p.target.name)
        };
        for (names, isa) in [
            (&["avx2", "AVX2"][..], TargetIsa::avx2()),
            (&["avx512vnni", "avx512-vnni", "vnni", "AVX512-VNNI"][..], TargetIsa::avx512vnni()),
            (&["sse4", "sse4.1", "SSE4.1"][..], TargetIsa::sse4()),
        ] {
            for name in names {
                assert_eq!(crate::cli::parse_target(name).map(|t| t.name), Ok(isa.name.clone()));
                assert_eq!(served(name), Ok(isa.name.clone()), "{name}");
            }
        }
        for name in ["neon", "sse4.2", ""] {
            assert_eq!(crate::cli::parse_target(name), Err(format!("unknown target {name:?}")));
            assert_eq!(served(name), Err(format!("unknown target {name:?}")));
        }
    }

    /// The request lines the fuzz mutates. `flips` says whether random
    /// byte edits are allowed: not on a line with a deadline, where a
    /// flipped digit would make the answer depend on the clock.
    fn seed_lines() -> Vec<(String, bool)> {
        let f = tiny_function_json();
        let mut lines = vec![
            (format!(r#"{{"op":"compile","id":1,"function":{f}}}"#), true),
            (format!(r#"{{"op":"compile","id":"two","function":{f},"beam":2}}"#), true),
            (
                format!(
                    r#"{{"id":{{"k":[3,null]}},"beam":2,"target":"sse4","function":{f},"op":"compile"}}"#
                ),
                true,
            ),
            (
                format!(r#"{{"op":"compile","id":4,"function":{f},"decisions":true,"beam":3}}"#),
                true,
            ),
            (format!(r#"{{"op":"compile","id":5,"function":{f},"deadline_ms":0}}"#), false),
            (r#"{"op":"compile","id":6,"kernel":"max_pd","beam":2}"#.to_string(), true),
            (r#"{"op":"compile","id":7,"kernel":"max_pd","deadline_ms":0}"#.to_string(), false),
            (r#"{"op":"compile","id":8,"kernel":"max_pd","function":{}}"#.to_string(), true),
            (r#"{"op":"compile","id":9}"#.to_string(), true),
        ];
        for line in [
            r#"{"op":"ping","id":10}"#,
            r#"{"op":"ping"}"#,
            r#"{"op":"stats","id":[11]}"#,
            r#"{"op":"stats","id":12,"format":"prometheus"}"#,
            r#"{"op":"stats","id":13,"format":"xml"}"#,
            r#"{"op":"metrics","id":14}"#,
            r#"{"op":"kernels","id":15}"#,
            r#"{"op":"shutdown","id":16}"#,
            r#"{"op":"frobnicate","id":"a \" quote, a ] and a } in a string"}"#,
        ] {
            lines.push((line.to_string(), true));
        }
        lines
    }

    /// One seeded edit of `line`. Lines are ASCII and stay ASCII.
    fn mutate(rng: &mut XorShift, line: &str, flips: bool, seeds: &[(String, bool)]) -> String {
        let mut s = line.to_string();
        let at = |rng: &mut XorShift, s: &str| rng.below(s.len().max(1)).min(s.len());
        let members = |s: &str| -> Option<Vec<(String, String)>> {
            Some(scan_members(s)?.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect())
        };
        let assemble = |m: &[(String, String)]| {
            let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        };
        match rng.below(if flips { 14 } else { 8 }) {
            // Structure-level edits, safe on every line.
            0 => {}
            1 => {
                // Reorder the members.
                if let Some(mut m) = members(&s) {
                    for i in (1..m.len()).rev() {
                        m.swap(i, rng.below(i + 1));
                    }
                    s = assemble(&m);
                }
            }
            2 => {
                // Duplicate a member (first or last position).
                if let Some(mut m) = members(&s).filter(|m| !m.is_empty()) {
                    let dup = m[rng.below(m.len())].clone();
                    if rng.bool() {
                        m.insert(0, dup);
                    } else {
                        m.push(dup);
                    }
                    s = assemble(&m);
                }
            }
            3 => {
                // Whitespace at a structural position of the top level.
                if let Some(m) = members(&s) {
                    let pad = [" ", "\t", "  ", "\r"][rng.below(4)];
                    let body: Vec<String> =
                        m.iter().map(|(k, v)| format!("{pad}\"{k}\"{pad}:{pad}{v}{pad}")).collect();
                    s = format!("{pad}{{{}}}{pad}", body.join(","));
                }
            }
            4 => s.push_str([" x", "}", ",", "]", " null", "\"", "\\"][rng.below(7)]),
            5 => {
                // A second object on the line.
                s.push_str([" ", ",", ""][rng.below(3)]);
                s.push_str(&seeds[rng.below(seeds.len())].0);
            }
            6 => {
                // A `\u` escape (or a plain escape) in a key.
                let key = ["op", "id", "function", "kernel", "beam"][rng.below(5)];
                let escaped = format!("\\u{:04x}{}", key.as_bytes()[0], &key[1..]);
                s = s.replacen(&format!("\"{key}\""), &format!("\"{escaped}\""), 1);
            }
            7 => {
                // Deep (and sometimes lopsided) nesting as the id.
                let depth = [1, 7, 255, 256, 257, 400][rng.below(6)];
                let (open, close) = if rng.bool() { ("[", "]") } else { ("{\"a\":", "}") };
                let closes = depth - usize::from(rng.below(8) == 0);
                let id = format!("{}0{}", open.repeat(depth), close.repeat(closes));
                if let Some(mut m) = members(&s) {
                    m.retain(|(k, _)| k != "id");
                    m.push(("id".into(), id));
                    s = assemble(&m);
                }
            }
            // Byte-level edits.
            8 => s.truncate(at(rng, &s)),
            9 | 10 => {
                // Overwrite one byte with one that matters to a parser.
                const BYTES: &[u8] = b"\"\\{}[],: \t0123456789-+.eEtfnulxa\x01\x7f";
                if !s.is_empty() {
                    let i = at(rng, &s).min(s.len() - 1);
                    s.replace_range(i..=i, &(BYTES[rng.below(BYTES.len())] as char).to_string());
                }
            }
            11 => {
                // Quotes, escapes and brackets dropped into the text
                // (often inside a string).
                let i = at(rng, &s);
                s.insert_str(
                    i,
                    ["\\\"", "\"", "\\", "]", "}", "{", "[", "\\u00e9", "\\ud800"][rng.below(9)],
                );
            }
            12 if !s.is_empty() => {
                s.remove(at(rng, &s).min(s.len() - 1));
            }
            _ => {
                let (i, j) = (at(rng, &s), at(rng, &s));
                s.replace_range(i.min(j)..i.max(j), "");
            }
        }
        s
    }

    /// Differential fuzz of the request reader. Per line: the scanner
    /// does not panic; when it lists members, parsing each span and
    /// reassembling is `Json::parse` of the whole line (and a span that
    /// does not parse means the line does not); and a daemon reading with
    /// the scanner answers exactly as one that always parses the whole
    /// line.
    #[test]
    fn the_scanning_reader_is_indistinguishable_from_the_parsing_reader() {
        const LINES: usize = 20_000;
        let seed = 0x5ca9_0001_u64;
        let seeds = seed_lines();
        let (scanning, parsing) = (engine(), engine());
        let cfg = ServeConfig::default();
        let mut rng = XorShift::new(seed);
        let (mut scanned, mut resolved_before) = (0usize, 0u64);
        for n in 0..LINES {
            let (base, flips) = &seeds[rng.below(seeds.len())];
            let mut line = base.clone();
            for _ in 0..[0, 1, 1, 1, 2, 3][rng.below(6)] {
                line = mutate(&mut rng, &line, *flips, &seeds);
            }
            let context = || format!("seed {seed:#x}, line {n}: {line:?}");

            let whole = Json::parse(line.trim());
            if let Some(members) = scan_members(line.trim()) {
                scanned += 1;
                let parsed: Result<Vec<(String, Json)>, String> = members
                    .iter()
                    .map(|(k, span)| Ok((k.to_string(), Json::parse_member(span)?)))
                    .collect();
                match parsed {
                    Ok(pairs) => assert_eq!(whole, Ok(Json::Obj(pairs)), "{}", context()),
                    Err(_) => {
                        assert!(whole.is_err(), "a span fails, the line parses: {}", context())
                    }
                }
            }

            let with_scanner = answer(&scanning, &cfg, &line, false);
            let with_parser = answer(&parsing, &cfg, &line, true);
            assert_eq!(with_scanner, with_parser, "{}", context());
            assert_eq!(
                (scanning.cache_stats(), scanning.counters()),
                (parsing.cache_stats(), parsing.counters()),
                "{}",
                context()
            );
            // Resolved requests are part of what is being compared.
            resolved_before = scanning.alias_stats().hits.max(resolved_before);
        }
        assert!(scanned > LINES / 4, "the scanner vouched for only {scanned} of {LINES} lines");
        assert!(resolved_before > LINES as u64 / 20, "only {resolved_before} alias hits");
        assert_eq!(parsing.alias_stats().fallbacks + scanning.alias_stats().fallbacks, 0);
    }

    /// `"compil\u0065"` is `"compile"`: the scanner leaves that line to
    /// the whole-line parser, whose `function` is a node of the line, and
    /// the answer is the plain spelling's.
    #[test]
    fn an_escaped_op_compiles_the_same_function() {
        let f = tiny_function_json();
        let cfg = ServeConfig::default();
        let run = |op: &str| {
            let line = format!(r#"{{"op":"{op}","id":1,"function":{f}}}"#);
            assert_eq!(Request::scan(&line).is_some(), op == "compile");
            answer(&engine(), &cfg, &line, false).0
        };
        let plain = run("compile");
        assert_eq!(plain[0].get("ok"), Some(&Json::Bool(true)), "{plain:?}");
        assert_eq!(run("compil\\u0065"), plain);
    }

    /// Identity test (e): a zero deadline, a full queue and a draining
    /// daemon treat a request resolved by alias as they treat any other.
    #[test]
    fn admission_control_does_not_tell_resolved_requests_apart() {
        let f = tiny_function_json();
        let respelled = f.replace(',', ", ");
        let script = |f: &str| {
            [
                format!(r#"{{"op":"compile","id":1,"function":{f},"deadline_ms":0}}"#),
                format!(r#"{{"op":"compile","id":2,"function":{f}}}"#),
                format!(r#"{{"op":"compile","id":3,"function":{f}}}"#),
                format!(r#"{{"op":"compile","id":4,"function":{f}}}"#),
            ]
        };
        let run = |spelling: &str, hits: u64| {
            let engine = engine();
            let cfg = ServeConfig { queue_capacity: 2, ..Default::default() };
            // The alias tier knows `f`, and only `f`.
            let (primed, ..) =
                answer(&engine, &cfg, &format!(r#"{{"op":"compile","function":{f}}}"#), false);
            assert_eq!(primed[0].get("ok"), Some(&Json::Bool(true)));
            // No dispatcher yet: the queue keeps what it admits.
            let state = ServeState::new(&engine, cfg);
            let (sink, buf) = capture();
            let [expiring, queued, shed, late] = script(spelling);
            state.handle_line(&expiring, &sink);
            state.handle_line(&queued, &sink);
            state.handle_line(&shed, &sink);
            state.start_drain();
            state.handle_line(&late, &sink);
            state.dispatch();
            assert_eq!(engine.alias_stats().hits, hits, "{spelling}");
            (normalized(&buf), state.summary())
        };
        let (resolved, resolved_summary) = run(&f, 4);
        let (parsed, parsed_summary) = run(&respelled, 0);
        assert_eq!(resolved, parsed);
        assert_eq!(resolved_summary, parsed_summary);
        let tags: Vec<Option<&str>> = (1..=4)
            .map(|id| {
                let r = resolved.iter().find(|r| r.get("id") == Some(&Json::int(id))).unwrap();
                r.get("error").and_then(|e| e.get("tag")).and_then(Json::as_str)
            })
            .collect();
        assert_eq!(tags, [Some("deadline"), None, Some("overloaded"), Some("protocol")]);
        let expected = ServeSummary {
            requests: 4,
            compiles: 1,
            shed: 1,
            expired: 1,
            rejected_draining: 1,
            protocol_errors: 0,
        };
        assert_eq!(resolved_summary, expected);
    }
}
