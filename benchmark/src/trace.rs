//! Spans recorded by the driver around each call into a layer.
//!
//! The program under test is not instrumented: a span is a pair of
//! `Instant` reads in the benchmark's own code around one public call.
//! Spans live in memory until the run ends; aggregation uses all of
//! them, the trace file a seeded sample of whole ops.

use std::time::Instant;

use crate::json::Json;
use crate::rng::Rng;

/// The span names. `Op` is one workload operation; the others are the
/// layer calls made on its behalf (or, with no op, during set-up).
/// `HitCall` is a compile call that performed no back-end compile (the
/// memo, the shared cache or the disk store answered it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Op,
    CompileCall,
    HitCall,
    ExecuteCall,
    Invalidate,
    SessionNew,
    SessionDrop,
    PersistOpen,
    PersistFlush,
}

impl SpanName {
    pub const ALL: [SpanName; 9] = [
        SpanName::Op,
        SpanName::CompileCall,
        SpanName::HitCall,
        SpanName::ExecuteCall,
        SpanName::Invalidate,
        SpanName::SessionNew,
        SpanName::SessionDrop,
        SpanName::PersistOpen,
        SpanName::PersistFlush,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::CompileCall => "tickc.compile_call",
            SpanName::HitCall => "tickc.hit_call",
            SpanName::ExecuteCall => "vm.execute_call",
            SpanName::Invalidate => "cache.invalidate",
            SpanName::SessionNew => "tickc.session_new",
            SpanName::SessionDrop => "tickc.session_drop",
            SpanName::PersistOpen => "cache.persist_open",
            SpanName::PersistFlush => "cache.persist_flush",
        }
    }
}

/// "No parent" / "no op".
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same buffer, or [`NONE`].
    pub parent: u32,
    /// Operation id shared by every span of one op, or [`NONE`].
    pub op: u32,
    /// Worker thread that recorded it.
    pub worker: u8,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Every workload times its ops through this
/// whether or not spans are kept, so the traced and untraced passes run
/// the same code; with recording off the only cost is the two clock
/// reads per op that latency needs anyway.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    worker: u8,
    spans: Vec<Span>,
    /// Index of the open op span, or [`NONE`] outside an op.
    open_op: u32,
    ops: u32,
}

impl Tracer {
    pub fn new(recording: bool, epoch: Instant, worker: u8) -> Tracer {
        Tracer {
            recording,
            epoch,
            worker,
            spans: Vec::new(),
            open_op: NONE,
            ops: 0,
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Starts an op; pass the returned instant to [`Tracer::end_op`].
    #[inline]
    pub fn begin_op(&mut self) -> Instant {
        let now = Instant::now();
        if self.recording {
            self.open_op = self.spans.len() as u32;
            let t = (now - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name: SpanName::Op,
                start_ns: t,
                end_ns: t,
                parent: NONE,
                op: self.ops,
                worker: self.worker,
            });
        }
        now
    }

    /// Ends the op begun at `start`; returns its latency in ns.
    #[inline]
    pub fn end_op(&mut self, start: Instant) -> u64 {
        let now = Instant::now();
        if self.recording {
            self.spans[self.open_op as usize].end_ns = (now - self.epoch).as_nanos() as u64;
            self.open_op = NONE;
            self.ops += 1;
        }
        (now - start).as_nanos() as u64
    }

    /// Runs `f` as a child of the open op (or parentless during
    /// set-up), recording a span around it when recording is on.
    /// Returns `f`'s value and the span's duration — 0 when recording
    /// is off, so the untraced pass pays no clock reads here.
    #[inline]
    pub fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.recording {
            return (f(), 0);
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: (t1 - self.epoch).as_nanos() as u64,
            parent: self.open_op,
            op: if self.open_op == NONE { NONE } else { self.ops },
            worker: self.worker,
        });
        (r, (t1 - t0).as_nanos() as u64)
    }

    /// Renames the span just recorded (a compile call that turned out
    /// to be answered from a memo becomes a hit call).
    #[inline]
    pub fn rename_last(&mut self, name: SpanName) {
        if let Some(last) = self.spans.last_mut() {
            last.name = name;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (one tracer's buffer) to `all`, keeping parent links
/// and op ids distinct from what `all` already holds.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    let op_base = all
        .iter()
        .filter(|s| s.op != NONE)
        .map(|s| s.op + 1)
        .max()
        .unwrap_or(0);
    all.extend(more.into_iter().map(|mut s| {
        if s.parent != NONE {
            s.parent += base;
        }
        if s.op != NONE {
            s.op += op_base;
        }
        s
    }));
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by direct children.
    pub self_ns: u64,
}

/// Per-name totals over every span, indexed by `SpanName as usize`.
pub fn totals(spans: &[Span]) -> [NameTotals; SpanName::ALL.len()] {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    let mut out = [NameTotals::default(); SpanName::ALL.len()];
    for (s, covered) in spans.iter().zip(&child_ns) {
        let t = &mut out[s.name as usize];
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(*covered);
    }
    out
}

/// Share of op time covered by the ops' child spans (1 − the ops' self
/// time share). 0 with no ops.
pub fn coverage(spans: &[Span]) -> f64 {
    let op = totals(spans)[SpanName::Op as usize];
    if op.total_ns == 0 {
        return 0.0;
    }
    (op.total_ns - op.self_ns) as f64 / op.total_ns as f64
}

/// Durations of every span called `name`, ascending.
pub fn durations(spans: &[Span], name: SpanName) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect();
    v.sort_unstable();
    v
}

/// Cap on spans written to a trace file.
pub const FILE_SPAN_CAP: usize = 50_000;

/// The trace file: every set-up span and a seeded sample of whole ops
/// (an op is kept or dropped with all its children), at most
/// [`FILE_SPAN_CAP`] spans, parent links rewritten to file positions.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let keep_p = (FILE_SPAN_CAP as f64 / spans.len().max(1) as f64).min(1.0);
    let mut rng = Rng::for_stream(seed, "trace-sample", 0);
    let mut new_index = vec![NONE; spans.len()];
    let mut rows = Vec::new();
    let mut kept_op = NONE;
    for (i, s) in spans.iter().enumerate() {
        let keep = if s.op == NONE {
            true
        } else if s.name == SpanName::Op {
            let k = rng.next_f64() < keep_p;
            kept_op = if k { s.op } else { NONE };
            k
        } else {
            s.op == kept_op
        };
        if !keep || rows.len() >= FILE_SPAN_CAP {
            continue;
        }
        new_index[i] = rows.len() as u32;
        let link = |v: u32| {
            if v == NONE {
                Json::Null
            } else {
                Json::from(v)
            }
        };
        rows.push(Json::obj(vec![
            ("name", Json::from(s.name.as_str())),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            (
                "parent",
                link(if s.parent == NONE {
                    NONE
                } else {
                    new_index[s.parent as usize]
                }),
            ),
            ("op", link(s.op)),
            ("worker", Json::from(s.worker as u32)),
        ]));
    }
    Json::obj(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("spans_recorded", Json::from(spans.len())),
        ("spans_written", Json::from(rows.len())),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start: u64, end: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            worker: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100) → compile [10,40), execute [50,90); a set-up span
        // with no op beside it.
        let spans = vec![
            span(SpanName::SessionNew, 0, 7, NONE, NONE),
            span(SpanName::Op, 0, 100, NONE, 0),
            span(SpanName::CompileCall, 10, 40, 1, 0),
            span(SpanName::ExecuteCall, 50, 90, 1, 0),
        ];
        let t = totals(&spans);
        assert_eq!(
            t[SpanName::Op as usize],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(t[SpanName::CompileCall as usize].self_ns, 30);
        assert_eq!(t[SpanName::ExecuteCall as usize].total_ns, 40);
        assert_eq!(t[SpanName::SessionNew as usize].self_ns, 7);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
        assert_eq!(durations(&spans, SpanName::CompileCall), vec![30]);
        assert_eq!(coverage(&spans[..1]), 0.0);
    }

    #[test]
    fn tracer_links_children_to_the_open_op() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.span(SpanName::SessionNew, || ());
        for _ in 0..2 {
            let s = t.begin_op();
            t.span(SpanName::CompileCall, || ());
            t.span(SpanName::ExecuteCall, || ());
            t.end_op(s);
        }
        let spans = t.into_spans();
        assert_eq!(spans.len(), 7);
        assert_eq!((spans[0].parent, spans[0].op), (NONE, NONE));
        assert_eq!((spans[1].name, spans[1].op), (SpanName::Op, 0));
        assert_eq!((spans[2].parent, spans[2].op), (1, 0));
        assert_eq!((spans[5].parent, spans[5].op), (4, 1));
        assert!(spans
            .iter()
            .all(|s| s.worker == 3 && s.end_ns >= s.start_ns));
        assert!(
            spans[1].end_ns >= spans[3].end_ns,
            "op closes after children"
        );
    }

    #[test]
    fn an_idle_tracer_records_nothing_but_still_times_ops() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let s = t.begin_op();
        assert_eq!(t.span(SpanName::CompileCall, || 5), (5, 0));
        let _ns = t.end_op(s);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_ops() {
        let mut all = vec![
            span(SpanName::Op, 0, 10, NONE, 0),
            span(SpanName::CompileCall, 1, 5, 0, 0),
        ];
        let again = all.clone();
        merge(&mut all, again);
        assert_eq!((all[2].parent, all[2].op), (NONE, 1));
        assert_eq!((all[3].parent, all[3].op), (2, 1));
        assert!((coverage(&all) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn trace_file_keeps_whole_ops_and_valid_parents() {
        let mut spans = vec![span(SpanName::PersistFlush, 0, 1, NONE, NONE)];
        for op in 0..(FILE_SPAN_CAP as u32) {
            let base = spans.len() as u32;
            spans.push(span(SpanName::Op, 0, 10, NONE, op));
            spans.push(span(SpanName::CompileCall, 1, 5, base, op));
        }
        let doc = to_json("w", 9, &spans);
        assert_eq!(doc, to_json("w", 9, &spans), "sample is seeded");
        let rows = crate::json::get(&doc, "spans")
            .and_then(crate::json::as_arr)
            .unwrap();
        assert!(rows.len() <= FILE_SPAN_CAP && rows.len() > FILE_SPAN_CAP / 4);
        for (i, row) in rows.iter().enumerate() {
            let name = crate::json::get(row, "name").and_then(crate::json::as_str);
            if name == Some("tickc.compile_call") {
                let parent = crate::json::get(row, "parent").and_then(crate::json::as_u64);
                assert_eq!(parent, Some(i as u64 - 1), "child follows its op");
            }
        }
    }
}
