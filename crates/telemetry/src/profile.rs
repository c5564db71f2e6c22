//! Collapsed-stack profile aggregation and flamegraph rendering.
//!
//! The span model (PR 5) records *causal* structure — every
//! [`Event::SpanEnd`] carries its parent span id — but answering "where
//! does the time/gas go" requires folding those parent chains into
//! collapsed stacks, the `root;child;leaf <weight>` format popularised by
//! Brendan Gregg's flamegraph tooling. [`ProfileAggregator`] is a
//! [`Sink`] that does this fold incrementally as events arrive, so a
//! long-running `slicerd` can serve its live profile at any moment
//! without retaining the raw event stream.
//!
//! Two weightings are maintained side by side over the same stacks:
//!
//! * **wall** — the span's *self* time in nanoseconds: its duration
//!   minus the summed durations of its direct children, so a stack's
//!   weight is time spent in exactly that frame, and the root frame's
//!   inclusive total equals the sum of all its stacks.
//! * **gas** — the span's *self* gas: the sum of its `gas.used`
//!   attributes minus gas claimed by its children's `gas.used` attrs.
//!   Spans without gas attributes contribute zero weight but still
//!   shape the stacks, so gas flamegraphs share frame geometry with
//!   wall ones.
//!
//! Cross-process adoption (`span_in_trace`) is bridged: when a span's
//! parent is `None` but its trace's root span is open in this process
//! (the in-process client case) the fold grafts it under that root, so
//! client and daemon halves of one trace land in one stack.
//!
//! Rendering is hermetic: [`Profile::to_folded`] emits the text format,
//! [`Profile::to_svg`] a self-contained SVG flamegraph.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::sink::{Event, Sink};
use crate::trace::AttrValue;

/// Span attribute key carrying gas consumption (set by `crates/chain`
/// transaction spans and the protocol phase spans in `crates/core`).
pub const GAS_ATTR: &str = "gas.used";

/// Default cap on distinct collapsed stacks retained by an aggregator.
pub const DEFAULT_MAX_STACKS: usize = 4096;

/// Which weighting of a [`Profile`] to export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// Self wall-clock nanoseconds per stack.
    Wall,
    /// Self gas per stack (from `gas.used` span attributes).
    Gas,
}

impl ProfileMode {
    /// Human-readable unit suffix (`"ns"` / `"gas"`).
    pub fn unit(self) -> &'static str {
        match self {
            ProfileMode::Wall => "ns",
            ProfileMode::Gas => "gas",
        }
    }
}

/// One collapsed stack with both weightings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Semicolon-joined frame names, root first (`a;b;c`).
    pub stack: String,
    /// Self wall-nanoseconds attributed to exactly this stack.
    pub wall_ns: u64,
    /// Self gas attributed to exactly this stack.
    pub gas: u64,
    /// Number of span ends that landed on this stack.
    pub count: u64,
}

/// A point-in-time collapsed-stack profile: every distinct stack seen,
/// sorted lexicographically for deterministic output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// The stacks, sorted by `stack`.
    pub entries: Vec<ProfileEntry>,
    /// Stacks discarded because the aggregator hit its cap.
    pub dropped_stacks: u64,
}

impl Profile {
    /// Total weight across all stacks under `mode` — for wall this is
    /// the inclusive time of all roots, for gas the total attributed
    /// gas.
    pub fn total(&self, mode: ProfileMode) -> u64 {
        self.entries.iter().map(|e| e.weight(mode)).sum()
    }

    /// Inclusive weight of one root frame: the sum over every stack
    /// whose first frame is `root`.
    #[cfg(test)]
    fn root_total(&self, root: &str, mode: ProfileMode) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.stack.split(';').next() == Some(root))
            .map(|e| e.weight(mode))
            .sum()
    }

    /// The collapsed-stack text export: one `stack weight` line per
    /// entry with a nonzero weight under `mode`, sorted by stack.
    /// Feedable to any external flamegraph tool.
    pub fn to_folded(&self, mode: ProfileMode) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let w = e.weight(mode);
            if w == 0 {
                continue;
            }
            out.push_str(&e.stack);
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders a self-contained SVG flamegraph (icicle layout, root at
    /// the top) of the `mode` weighting. Frame names and the title are
    /// XML-escaped, and the document needs no external assets.
    pub fn to_svg(&self, mode: ProfileMode, title: &str) -> String {
        render_svg(self, mode, title)
    }
}

impl ProfileEntry {
    /// The entry's weight under `mode`.
    pub fn weight(&self, mode: ProfileMode) -> u64 {
        match mode {
            ProfileMode::Wall => self.wall_ns,
            ProfileMode::Gas => self.gas,
        }
    }
}

/// A span currently open (SpanStart seen, SpanEnd not yet), accumulating
/// its children's inclusive weights so self weight can be derived.
#[derive(Debug, Clone)]
struct OpenSpan {
    name: String,
    parent: Option<u64>,
    child_wall_ns: u64,
    child_gas: u64,
}

#[derive(Debug, Default)]
struct AggState {
    /// Open spans by span id.
    open: BTreeMap<u64, OpenSpan>,
    /// Accumulated (wall, gas, count) per collapsed stack.
    stacks: BTreeMap<String, (u64, u64, u64)>,
    /// Span ends discarded because `stacks` was full.
    dropped: u64,
}

/// Incremental collapsed-stack aggregator; plug it into a
/// [`TelemetryHandle`](crate::TelemetryHandle) as its [`Sink`] and call
/// [`snapshot`](ProfileAggregator::snapshot) at any time.
#[derive(Debug)]
pub struct ProfileAggregator {
    state: Mutex<AggState>,
    max_stacks: usize,
}

impl Default for ProfileAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileAggregator {
    /// An aggregator retaining up to [`DEFAULT_MAX_STACKS`] distinct
    /// stacks.
    pub fn new() -> Self {
        Self::with_max_stacks(DEFAULT_MAX_STACKS)
    }

    /// An aggregator retaining up to `max_stacks` distinct stacks
    /// (minimum 1); span ends whose stack is novel beyond the cap are
    /// counted in [`dropped_stacks`](ProfileAggregator::dropped_stacks)
    /// instead of growing memory without bound.
    pub fn with_max_stacks(max_stacks: usize) -> Self {
        ProfileAggregator {
            state: Mutex::new(AggState::default()),
            max_stacks: max_stacks.max(1),
        }
    }

    /// Telemetry must never take the process down: recover the state
    /// from a poisoned lock instead of propagating the panic.
    fn locked(&self) -> std::sync::MutexGuard<'_, AggState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Stacks discarded so far because the cap was hit.
    pub fn dropped_stacks(&self) -> u64 {
        self.locked().dropped
    }

    /// A copy of the accumulated profile, deterministically ordered.
    pub fn snapshot(&self) -> Profile {
        let state = self.locked();
        Profile {
            entries: state
                .stacks
                .iter()
                .map(|(stack, &(wall_ns, gas, count))| ProfileEntry {
                    stack: stack.clone(),
                    wall_ns,
                    gas,
                    count,
                })
                .collect(),
            dropped_stacks: state.dropped,
        }
    }

    fn on_span_end(
        &self,
        trace: u64,
        span: u64,
        parent: Option<u64>,
        name: &str,
        duration_ns: u64,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let own_gas: u64 = attrs
            .iter()
            .filter(|(k, _)| *k == GAS_ATTR)
            .filter_map(|(_, v)| match v {
                AttrValue::U64(g) => Some(*g),
                _ => None,
            })
            .sum();

        let mut state = self.locked();
        let (child_wall, child_gas) = match state.open.remove(&span) {
            Some(o) => (o.child_wall_ns, o.child_gas),
            // SpanEnd without a matching SpanStart (aggregator attached
            // mid-span): treat it as leaf-only.
            None => (0, 0),
        };
        let self_wall = duration_ns.saturating_sub(child_wall);
        let self_gas = own_gas.saturating_sub(child_gas);

        // Build the stack root-first by walking the open parent chain.
        // The cycle guard bounds the walk: parent ids are sequence-
        // assigned so real chains are acyclic, but a sink must not trust
        // its input with its own termination.
        let mut frames = vec![sanitize_frame(name)];
        let mut cursor = parent;
        let mut last_span = span;
        for _ in 0..MAX_DEPTH {
            match cursor {
                Some(p) => match state.open.get(&p) {
                    Some(o) => {
                        frames.push(sanitize_frame(&o.name));
                        last_span = p;
                        cursor = o.parent;
                    }
                    // Ancestor already closed or never seen: the chain
                    // is cut here and the stack is rooted at this frame.
                    None => break,
                },
                None => {
                    // Adoption bridge: a root-of-trace span has
                    // `span == trace`; a parentless span whose id is
                    // *not* the trace id was adopted via
                    // `span_in_trace`. If the trace's true root is open
                    // here (in-process client), graft under it.
                    if last_span != trace {
                        if let Some(root) = state.open.get(&trace) {
                            frames.push(sanitize_frame(&root.name));
                        }
                    }
                    break;
                }
            }
        }

        // Credit this span's inclusive weights to its effective parent
        // so the parent's self weight excludes them.
        let effective_parent = match parent {
            Some(p) => Some(p),
            None if span != trace => Some(trace),
            None => None,
        };
        if let Some(p) = effective_parent {
            if let Some(po) = state.open.get_mut(&p) {
                po.child_wall_ns = po.child_wall_ns.saturating_add(duration_ns);
                po.child_gas = po.child_gas.saturating_add(own_gas);
            }
        }

        frames.reverse();
        let stack = frames.join(";");
        if let Some(slot) = state.stacks.get_mut(&stack) {
            slot.0 = slot.0.saturating_add(self_wall);
            slot.1 = slot.1.saturating_add(self_gas);
            slot.2 += 1;
        } else if state.stacks.len() < self.max_stacks {
            state.stacks.insert(stack, (self_wall, self_gas, 1));
        } else {
            state.dropped += 1;
        }
    }
}

/// Upper bound on stack depth during the parent walk.
const MAX_DEPTH: usize = 512;

impl Sink for ProfileAggregator {
    fn record(&self, event: Event) {
        match event {
            Event::SpanStart {
                span, parent, name, ..
            } => {
                self.locked().open.insert(
                    span.0,
                    OpenSpan {
                        name,
                        parent: parent.map(|p| p.0),
                        child_wall_ns: 0,
                        child_gas: 0,
                    },
                );
            }
            Event::SpanEnd {
                trace,
                span,
                parent,
                name,
                duration_ns,
                attrs,
                ..
            } => {
                self.on_span_end(
                    trace.0,
                    span.0,
                    parent.map(|p| p.0),
                    &name,
                    duration_ns,
                    &attrs,
                );
            }
            Event::Counter { .. } | Event::Gauge { .. } => {}
        }
    }
}

/// Folds a recorded event stream (e.g.
/// [`MemorySink::events`](crate::MemorySink::events)) into a [`Profile`] in one shot — the
/// offline counterpart of attaching a live [`ProfileAggregator`].
pub fn fold_events(events: &[Event]) -> Profile {
    let agg = ProfileAggregator::new();
    for e in events {
        agg.record(e.clone());
    }
    agg.snapshot()
}

/// Frame names must not contain the folded-format separators; replace
/// `;`, whitespace and control characters with `_`.
fn sanitize_frame(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// SVG rendering
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct FrameNode {
    /// Inclusive weight (self + descendants).
    total: u64,
    /// Weight attributed to exactly this frame.
    self_weight: u64,
    /// Span-end count for stacks terminating here.
    count: u64,
    children: BTreeMap<String, FrameNode>,
}

const SVG_WIDTH: f64 = 1200.0;
const FRAME_HEIGHT: f64 = 17.0;
const TEXT_PAD: f64 = 3.0;
/// Approximate glyph advance for the 12px monospace label font.
const CHAR_WIDTH: f64 = 7.2;
/// Frames narrower than this are drawn but unlabeled.
const MIN_LABEL_WIDTH: f64 = 3.0 * CHAR_WIDTH;

fn render_svg(profile: &Profile, mode: ProfileMode, title: &str) -> String {
    // Assemble the frame tree.
    let mut root = FrameNode::default();
    for e in &profile.entries {
        let w = e.weight(mode);
        if w == 0 {
            continue;
        }
        root.total = root.total.saturating_add(w);
        let mut node = &mut root;
        for frame in e.stack.split(';') {
            node = node.children.entry(frame.to_string()).or_default();
            node.total = node.total.saturating_add(w);
        }
        node.self_weight = node.self_weight.saturating_add(w);
        node.count += e.count;
    }

    let depth = tree_depth(&root);
    let rows = depth.max(1) as f64 + 1.0; // +1 for the synthetic "all" row
    let header = 26.0;
    let height = header + rows * FRAME_HEIGHT + 8.0;

    let mut svg = String::new();
    svg.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH}\" \
         height=\"{height}\" viewBox=\"0 0 {SVG_WIDTH} {height}\" \
         font-family=\"monospace\" font-size=\"12\">\n"
    ));
    svg.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{SVG_WIDTH}\" height=\"{height}\" fill=\"#f8f8f8\"/>\n"
    ));
    let mut escaped_title = String::new();
    write_escaped(&mut escaped_title, title);
    svg.push_str(&format!(
        "<text x=\"{TEXT_PAD}\" y=\"17\" font-size=\"14\">{escaped_title} \
         ({} total, unit={})</text>\n",
        root.total,
        mode.unit()
    ));

    if root.total == 0 {
        svg.push_str(&format!(
            "<text x=\"{TEXT_PAD}\" y=\"{}\">no samples</text>\n",
            header + FRAME_HEIGHT
        ));
    } else {
        // Synthetic root frame spanning the whole width.
        draw_frame(
            &mut svg, "all", root.total, root.total, 0, 0.0, SVG_WIDTH, header, mode,
        );
        draw_children(
            &mut svg,
            &root,
            root.total,
            0.0,
            SVG_WIDTH,
            header + FRAME_HEIGHT,
            mode,
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Appends `value` to `out` with the five XML special characters escaped,
/// for attribute values and text content.
fn write_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

fn tree_depth(node: &FrameNode) -> usize {
    1 + node.children.values().map(tree_depth).max().unwrap_or(0)
}

fn draw_children(
    svg: &mut String,
    node: &FrameNode,
    grand_total: u64,
    x: f64,
    width: f64,
    y: f64,
    mode: ProfileMode,
) {
    let denom = node.total.max(1) as f64;
    let mut cursor = x;
    for (name, child) in &node.children {
        let w = width * (child.total as f64 / denom);
        draw_frame(
            svg,
            name,
            child.total,
            grand_total,
            child.count,
            cursor,
            w,
            y,
            mode,
        );
        draw_children(svg, child, grand_total, cursor, w, y + FRAME_HEIGHT, mode);
        cursor += w;
    }
}

#[allow(clippy::too_many_arguments)]
fn draw_frame(
    svg: &mut String,
    name: &str,
    total: u64,
    grand_total: u64,
    count: u64,
    x: f64,
    width: f64,
    y: f64,
    mode: ProfileMode,
) {
    let (r, g, b) = frame_color(name);
    let pct = 100.0 * total as f64 / grand_total.max(1) as f64;
    let mut label = String::new();
    write_escaped(&mut label, name);
    svg.push_str(&format!(
        "<g><title>{label}: {total} {} ({pct:.2}%, {count} ends)</title>\n",
        mode.unit()
    ));
    svg.push_str(&format!(
        "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
         fill=\"rgb({r},{g},{b})\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>\n",
        width.max(0.2),
        FRAME_HEIGHT - 1.0
    ));
    if width >= MIN_LABEL_WIDTH {
        let budget = ((width - 2.0 * TEXT_PAD) / CHAR_WIDTH) as usize;
        let shown: String = if name.chars().count() > budget {
            name.chars()
                .take(budget.saturating_sub(1))
                .collect::<String>()
                + "…"
        } else {
            name.to_string()
        };
        let mut text = String::new();
        write_escaped(&mut text, &shown);
        svg.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\">{text}</text>\n",
            x + TEXT_PAD,
            y + FRAME_HEIGHT - 5.0
        ));
    }
    svg.push_str("</g>\n");
}

/// Deterministic warm-palette color from an FNV-1a hash of the frame
/// name, so the same frame is the same color in every render.
fn frame_color(name: &str) -> (u8, u8, u8) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let r = 205 + (h % 50) as u8;
    let g = 60 + ((h >> 8) % 120) as u8;
    let b = ((h >> 16) % 40) as u8;
    (r, g, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogicalClock, MemorySink, TelemetryHandle};
    use std::sync::Arc;

    /// Drives real spans through a handle and folds the recorded stream.
    fn folded_fixture() -> Profile {
        let sink = Arc::new(MemorySink::new());
        let t = TelemetryHandle::with(
            Arc::new(LogicalClock::with_step(100)),
            Arc::clone(&sink) as Arc<dyn Sink>,
        );
        {
            let mut root = t.span("request");
            root.attr(GAS_ATTR, 1000u64);
            {
                let mut child = t.span("token");
                child.attr(GAS_ATTR, 300u64);
            }
            {
                let _leafless = t.span("verify");
            }
        }
        fold_events(&sink.events())
    }

    #[test]
    fn folds_parent_chains_into_stacks() {
        let p = folded_fixture();
        let stacks: Vec<&str> = p.entries.iter().map(|e| e.stack.as_str()).collect();
        assert_eq!(stacks, vec!["request", "request;token", "request;verify"]);
    }

    #[test]
    fn wall_self_time_excludes_children() {
        let p = folded_fixture();
        let by_stack = |s: &str| p.entries.iter().find(|e| e.stack == s).unwrap();
        // LogicalClock advances 100 per reading. Child spans consume
        // readings inside the root, so root self < root inclusive, and
        // the root frame's inclusive total reconstructs the full span.
        let root = by_stack("request");
        let token = by_stack("request;token");
        let verify = by_stack("request;verify");
        assert!(root.wall_ns > 0);
        assert!(token.wall_ns > 0);
        assert!(verify.wall_ns > 0);
        // Inclusive root total = sum of all self weights under it.
        let inclusive = p.root_total("request", ProfileMode::Wall);
        assert_eq!(inclusive, root.wall_ns + token.wall_ns + verify.wall_ns);
    }

    #[test]
    fn gas_self_weight_subtracts_child_gas() {
        let p = folded_fixture();
        let by_stack = |s: &str| p.entries.iter().find(|e| e.stack == s).unwrap();
        assert_eq!(by_stack("request").gas, 700); // 1000 own − 300 child
        assert_eq!(by_stack("request;token").gas, 300);
        assert_eq!(by_stack("request;verify").gas, 0);
        assert_eq!(p.root_total("request", ProfileMode::Gas), 1000);
    }

    #[test]
    fn folded_text_skips_zero_weights_and_is_sorted() {
        let p = folded_fixture();
        let folded = p.to_folded(ProfileMode::Gas);
        // `request;verify` has zero gas: absent from the gas folding.
        assert!(!folded.contains("request;verify"));
        assert!(folded.contains("request 700\n"));
        assert!(folded.contains("request;token 300\n"));
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn adopted_spans_graft_under_the_open_trace_root() {
        // Simulates the daemon case: the client opens `cli.search`, the
        // daemon adopts the trace via span_in_trace (parent=None, span id
        // != trace id) while the client span is still open.
        let sink = Arc::new(MemorySink::new());
        let t = TelemetryHandle::with(
            Arc::new(LogicalClock::with_step(10)),
            Arc::clone(&sink) as Arc<dyn Sink>,
        );
        {
            let _client = t.span("cli.search");
            let trace = _client.ctx().expect("enabled span has a context").trace;
            {
                let _adopted = t.span_in_trace("daemon.request", trace);
                let _inner = t.span("protocol.search");
            }
        }
        let p = fold_events(&sink.events());
        let stacks: Vec<&str> = p.entries.iter().map(|e| e.stack.as_str()).collect();
        assert!(
            stacks.contains(&"cli.search;daemon.request;protocol.search"),
            "stacks: {stacks:?}"
        );
        assert!(
            stacks.contains(&"cli.search;daemon.request"),
            "stacks: {stacks:?}"
        );
    }

    #[test]
    fn orphan_adopted_span_roots_its_own_stack() {
        // The real cross-process case: the trace root lives in another
        // process, so there is nothing to graft under.
        use crate::{SpanId, TraceId};
        let events = vec![Event::SpanEnd {
            trace: TraceId(999),
            span: SpanId(5),
            parent: None,
            name: "daemon.request".into(),
            start_ns: 0,
            duration_ns: 50,
            attrs: Vec::new(),
        }];
        let p = fold_events(&events);
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.entries[0].stack, "daemon.request");
        assert_eq!(p.entries[0].wall_ns, 50);
    }

    #[test]
    fn stack_cap_counts_dropped() {
        let agg = ProfileAggregator::with_max_stacks(1);
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            agg.record(Event::SpanEnd {
                trace: crate::TraceId(i as u64 + 1),
                span: crate::SpanId(i as u64 + 1),
                parent: None,
                name: (*name).into(),
                start_ns: 0,
                duration_ns: 1,
                attrs: Vec::new(),
            });
        }
        let p = agg.snapshot();
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.dropped_stacks, 2);
        assert_eq!(agg.dropped_stacks(), 2);
    }

    #[test]
    fn frame_names_are_sanitized() {
        let events = vec![Event::SpanEnd {
            trace: crate::TraceId(1),
            span: crate::SpanId(1),
            parent: None,
            name: "weird name;with\tseps".into(),
            start_ns: 0,
            duration_ns: 1,
            attrs: Vec::new(),
        }];
        let p = fold_events(&events);
        assert_eq!(p.entries[0].stack, "weird_name_with_seps");
    }

    /// The renderer's document shape: the XML declaration, then one
    /// `<svg …>` root holding only the tags the renderer writes, `<g>`
    /// groups balanced, and every `&` starting one of the five escapes.
    fn assert_svg_structure(svg: &str) {
        let body = svg
            .strip_prefix("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<svg ")
            .unwrap_or_else(|| panic!("no declaration + <svg> root: {svg}"));
        assert!(body.ends_with("</svg>\n"), "root not closed last: {svg}");
        const TAGS: [&str; 7] = [
            "<svg ", "</svg>", "<rect ", "<text ", "</text>", "<title>", "</title>",
        ];
        let mut depth = 0i64;
        for (at, _) in svg.match_indices('<').skip(1) {
            let rest = &svg[at..];
            if rest.starts_with("<g>") {
                depth += 1;
            } else if rest.starts_with("</g>") {
                depth -= 1;
                assert!(depth >= 0, "unbalanced </g> at byte {at}");
            } else {
                assert!(
                    TAGS.iter().any(|t| rest.starts_with(t)),
                    "raw '<' at byte {at}: {}",
                    &rest[..rest.len().min(40)]
                );
            }
        }
        assert_eq!(depth, 0, "unclosed <g>");
        assert_eq!(svg.matches("<svg ").count(), 1);
        assert_eq!(svg.matches("</svg>").count(), 1);
        for (at, _) in svg.match_indices('&') {
            let rest = &svg[at..];
            assert!(
                ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;"]
                    .iter()
                    .any(|e| rest.starts_with(e)),
                "raw '&' at byte {at}"
            );
        }
    }

    #[test]
    fn svg_is_well_formed_xml_in_both_modes() {
        let p = folded_fixture();
        for mode in [ProfileMode::Wall, ProfileMode::Gas] {
            let svg = p.to_svg(mode, "test profile");
            assert_svg_structure(&svg);
            assert!(svg.contains("http://www.w3.org/2000/svg"));
            assert!(svg.contains("request"));
        }
    }

    #[test]
    fn svg_escapes_frame_names_and_title() {
        let raw = "a<b&c\"d'e>f";
        let escaped = "a&lt;b&amp;c&quot;d&apos;e&gt;f";
        let events = vec![Event::SpanEnd {
            trace: crate::TraceId(1),
            span: crate::SpanId(1),
            parent: None,
            name: raw.into(),
            start_ns: 0,
            duration_ns: 1,
            attrs: Vec::new(),
        }];
        let svg = fold_events(&events).to_svg(ProfileMode::Wall, raw);
        assert_svg_structure(&svg);
        assert!(!svg.contains(raw), "unescaped name or title: {svg}");
        // Once in the title, then in the frame's tooltip and its label.
        assert_eq!(svg.matches(escaped).count(), 3, "{svg}");
    }

    #[test]
    fn empty_profile_renders_well_formed_svg() {
        let p = Profile::default();
        let svg = p.to_svg(ProfileMode::Wall, "empty");
        assert_svg_structure(&svg);
        assert!(svg.contains("no samples"));
    }

    #[test]
    fn totals_reconcile_with_mode() {
        let p = folded_fixture();
        assert_eq!(p.total(ProfileMode::Gas), 1000);
        assert_eq!(
            p.total(ProfileMode::Wall),
            p.root_total("request", ProfileMode::Wall)
        );
    }
}
