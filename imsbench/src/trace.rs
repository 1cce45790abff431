//! Spans for the traced run.
//!
//! Workloads call [`Tracer::item`] around each item and [`Tracer::span`]
//! around each public call into a layer. The untraced run passes [`Off`],
//! whose hooks are plain calls, so end-to-end numbers carry no tracing
//! cost. The traced run passes a [`Recorder`], which keeps every span in
//! memory; [`Recorder::write`] writes them out once the run has ended.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Hooks around items and layer calls.
pub trait Tracer {
    /// Whether spans are recorded. Calls made only to time a layer that
    /// the engine hides (see `serve.rs`) run only when this is true.
    const ON: bool;
    /// Runs one item; every span opened inside is its child.
    fn item<R>(&mut self, id: usize, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Runs one public call of `layer`.
    fn span<R>(&mut self, layer: &'static str, call: &'static str, f: impl FnOnce() -> R) -> R;
}

/// No tracing.
pub struct Off;

impl Tracer for Off {
    const ON: bool = false;
    #[inline(always)]
    fn item<R>(&mut self, _: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
    #[inline(always)]
    fn span<R>(&mut self, _: &'static str, _: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Item spans have layer `"item"` and no parent;
/// every other span's parent is its item's span.
pub struct Span {
    pub pass: u32,
    pub item: u32,
    pub layer: &'static str,
    pub call: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory.
pub struct Recorder {
    origin: Instant,
    /// Pass number stamped on new spans.
    pub pass: u32,
    open: Option<(u32, u32)>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            pass: 0,
            open: None,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per-layer totals over the recorded spans.
    pub fn summary(&self) -> Summary {
        let mut s = Summary::default();
        for span in &self.spans {
            if span.parent.is_none() {
                s.item_ns += span.ns();
            } else {
                s.child_ns += span.ns();
                s.layer_ns.entry(span.layer).or_default().push(span.ns());
            }
        }
        s
    }

    /// Writes one JSON line per span, then one line listing the items
    /// that failed their check.
    pub fn write(&self, out: &mut impl Write, failed_items: &[usize]) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"pass\":{},\"item\":{},\"name\":\"{}\",\"call\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.pass, s.item, s.layer, s.call, s.start_ns, s.end_ns
            )?;
        }
        let list: Vec<String> = failed_items.iter().map(usize::to_string).collect();
        writeln!(out, "{{\"failed_items\":[{}]}}", list.join(","))
    }
}

impl Tracer for Recorder {
    const ON: bool = true;

    fn item<R>(&mut self, id: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            pass: self.pass,
            item: id as u32,
            layer: "item",
            call: "",
            parent: None,
            start_ns: start,
            end_ns: start,
        });
        self.open = Some((idx as u32, id as u32));
        let r = f(self);
        self.open = None;
        self.spans[idx].end_ns = self.now();
        r
    }

    fn span<R>(&mut self, layer: &'static str, call: &'static str, f: impl FnOnce() -> R) -> R {
        let (parent, item) = self.open.expect("layer spans open inside an item");
        let start = self.now();
        let r = f();
        let end = self.now();
        self.spans.push(Span {
            pass: self.pass,
            item,
            layer,
            call,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
        });
        r
    }
}

/// Totals over a recording.
#[derive(Default)]
pub struct Summary {
    /// Σ item-span durations.
    pub item_ns: u64,
    /// Σ layer-span durations.
    pub child_ns: u64,
    /// Every layer span's duration, by layer.
    pub layer_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Summary {
    /// Σ durations of one layer's spans.
    pub fn busy_ns(&self, layer: &str) -> u64 {
        self.layer_ns.get(layer).map_or(0, |v| v.iter().sum())
    }
}
