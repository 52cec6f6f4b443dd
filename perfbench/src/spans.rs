//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public API (the
//! library itself is not instrumented). Each span has a name, its layer,
//! start and end offsets from the recorder's origin, the span that was
//! open when it began, and the request id of the operation it belongs to.
//! Recording is off unless [`enable`] was called, and then costs one
//! `Instant::now` pair and a `Vec` push per span. Spans stay in memory
//! until [`finish`] writes them out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: u64,
    /// Summed duration of the direct children (they never overlap: every
    /// span is opened and closed on the one benchmark thread).
    child: f64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns recording on for the calling thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Runs `f` inside a span named `layer.name`, attributed to `request`.
pub fn span<T>(layer: &'static str, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            rec.spans.push(Span {
                layer,
                name,
                start: rec.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: rec.open.last().copied(),
                request,
                child: 0.0,
            });
            rec.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder outlives its spans");
            let end = rec.origin.elapsed().as_secs_f64();
            rec.open.pop();
            let span = &mut rec.spans[id];
            span.end = end;
            let (dur, parent) = (end - span.start, span.parent);
            if let Some(p) = parent {
                rec.spans[p].child += dur;
            }
        });
    }
    out
}

/// Self time summed per layer, in seconds (duration minus the part its
/// child spans cover). Empty when recording is off.
pub fn self_time_by_layer() -> BTreeMap<&'static str, f64> {
    RECORDER.with(|r| {
        let mut out = BTreeMap::new();
        if let Some(rec) = r.borrow().as_ref() {
            for s in &rec.spans {
                *out.entry(s.layer).or_insert(0.0) += (s.end - s.start) - s.child;
            }
        }
        out
    })
}

/// Writes every recorded span as one JSON object per line to `path`.
pub fn finish(path: &std::path::Path) -> std::io::Result<usize> {
    RECORDER.with(|r| {
        let r = r.borrow();
        let Some(rec) = r.as_ref() else {
            return Ok(0);
        };
        let mut text = String::new();
        for (id, s) in rec.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{id},\"layer\":\"{}\",\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}\n",
                s.layer,
                s.name,
                s.request,
                s.start,
                s.end,
                (s.end - s.start) - s.child
            ));
        }
        std::fs::write(path, text)?;
        Ok(rec.spans.len())
    })
}
