//! Per-request trace spans.
//!
//! A [`Trace`] installs itself in a thread-local; while installed, every
//! [`span`] guard that opens and closes on that thread appends a node to
//! the trace's span tree (nesting follows guard scopes). Span guards
//! *also* record their duration into a registry histogram
//! (`pte_span_<name>_us`) whether or not a trace is installed — the
//! trace adds the per-request tree on top of the always-on aggregate.
//!
//! Spans work across the serve stack without any context plumbing
//! because the single-flight cache runs the leader's compute closure on
//! the calling worker thread: the thread that installed the trace is the
//! thread the search starts on. Fan-out work inside `wave::map_ordered`
//! (one search task per layer class, the Evaluator's candidate waves)
//! runs on pool threads, so the wave carries the trace across: [`fork`]
//! captures a `Send` [`TraceFork`] (trace id + epoch) on the calling
//! thread, [`TraceFork::run`] records each item into its own child stack
//! on whichever thread runs it, and [`graft`] attaches the items' closed
//! subtrees under the caller's open span in input order — the same tree,
//! node cap included, that running the items inline would have built.

use std::cell::RefCell;
use std::time::Instant;

use crate::Histogram;

/// Upper bound on nodes attached to one trace; beyond it new nodes are
/// counted in [`TraceReport::truncated`] instead of growing the tree
/// (a generous search can open thousands of stage spans).
pub const MAX_TRACE_NODES: usize = 512;

/// One closed span in a trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name (static at the call site).
    pub name: &'static str,
    /// Microseconds from trace start to span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub elapsed_us: u64,
    /// Spans opened and closed while this one was open.
    pub children: Vec<SpanNode>,
}

/// The finished span tree a traced request carries back in its envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Seeded id (the serve layer derives it from the request key, so a
    /// given request traces under a reproducible id).
    pub trace_id: u64,
    /// Top-level spans in open order.
    pub spans: Vec<SpanNode>,
    /// Nodes dropped after [`MAX_TRACE_NODES`].
    pub truncated: u64,
}

struct OpenSpan {
    name: &'static str,
    start_us: u64,
    children: Vec<SpanNode>,
}

struct TraceState {
    trace_id: u64,
    started: Instant,
    stack: Vec<OpenSpan>,
    roots: Vec<SpanNode>,
    nodes: usize,
    truncated: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<TraceState>> = const { RefCell::new(None) };
    /// Each span name's `pte_span_<name>_us` histogram, looked up in the
    /// registry once per thread so span drops stay lock-free.
    static SPAN_HISTOGRAMS: RefCell<Vec<(&'static str, Histogram)>> =
        const { RefCell::new(Vec::new()) };
}

/// splitmix64 — the same mixing function `pte_tensor::rng::derive_seed`
/// uses, reimplemented locally so this crate stays dependency-free.
pub fn derive_trace_id(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RAII guard installing a trace on the current thread. Dropping (or
/// [`Trace::finish`]ing) uninstalls it; a nested `begin` replaces the
/// outer trace (the serve layer never nests).
pub struct Trace {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Trace {
    /// Installs a trace with the given id on this thread.
    pub fn begin(trace_id: u64) -> Trace {
        ACTIVE.with(|a| {
            *a.borrow_mut() = Some(TraceState {
                trace_id,
                started: Instant::now(),
                stack: Vec::new(),
                roots: Vec::new(),
                nodes: 0,
                truncated: 0,
            });
        });
        Trace { _not_send: std::marker::PhantomData }
    }

    /// Uninstalls the trace and returns its span tree. Spans still open
    /// at finish time are folded in with their elapsed-so-far durations
    /// (defensive; guard scoping makes that unreachable in practice).
    pub fn finish(self) -> TraceReport {
        let state = ACTIVE.with(|a| a.borrow_mut().take());
        let Some(state) = state else {
            return TraceReport { trace_id: 0, spans: Vec::new(), truncated: 0 };
        };
        let state = close_open(state);
        TraceReport { trace_id: state.trace_id, spans: state.roots, truncated: state.truncated }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.borrow_mut().take());
    }
}

fn saturating_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Folds spans still open into the tree with their elapsed-so-far
/// durations.
fn close_open(mut state: TraceState) -> TraceState {
    while let Some(open) = state.stack.pop() {
        let now_us = saturating_us(state.started.elapsed());
        let node = SpanNode {
            name: open.name,
            start_us: open.start_us,
            elapsed_us: now_us.saturating_sub(open.start_us),
            children: open.children,
        };
        attach(&mut state, node);
    }
    state
}

/// Where the next closed node goes: under the innermost open span, or at
/// the top level.
fn open_parent(state: &mut TraceState) -> &mut Vec<SpanNode> {
    match state.stack.last_mut() {
        Some(parent) => &mut parent.children,
        None => &mut state.roots,
    }
}

fn attach(state: &mut TraceState, node: SpanNode) {
    if state.nodes >= MAX_TRACE_NODES {
        state.truncated += 1;
        return;
    }
    state.nodes += 1;
    open_parent(state).push(node);
}

/// A `Send` handle to the trace installed on the thread that called
/// [`fork`]: its id and epoch, so spans recorded on another thread share
/// the trace's clock origin.
#[derive(Debug, Clone, Copy)]
pub struct TraceFork {
    trace_id: u64,
    started: Instant,
}

/// The closed span subtrees one [`TraceFork::run`] recorded, waiting to be
/// [`graft`]ed into the forking trace.
#[derive(Debug, Default)]
pub struct TraceBranch {
    roots: Vec<SpanNode>,
    /// Nodes the branch attached (including any later lost with a dropped
    /// ancestor) — the branch's own node-cap accounting.
    nodes: usize,
    truncated: u64,
}

/// Captures a fork handle for the trace installed on this thread, if any.
pub fn fork() -> Option<TraceFork> {
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|s| TraceFork { trace_id: s.trace_id, started: s.started })
    })
}

/// Puts a saved trace back on the thread when dropped — also on unwind.
struct Reinstall(Option<TraceState>);

impl Drop for Reinstall {
    fn drop(&mut self) {
        let saved = self.0.take();
        ACTIVE.with(|a| *a.borrow_mut() = saved);
    }
}

impl TraceFork {
    /// Runs `f` on this thread under a child trace with the handle's id and
    /// epoch and an empty span stack, and returns `f`'s result with the
    /// spans it closed. Whatever trace this thread already had — the
    /// forking trace itself when a pool runs the item inline, or an
    /// enclosing item's child — is saved and reinstalled afterwards.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> (R, TraceBranch) {
        let child = TraceState {
            trace_id: self.trace_id,
            started: self.started,
            stack: Vec::new(),
            roots: Vec::new(),
            nodes: 0,
            truncated: 0,
        };
        let saved = Reinstall(ACTIVE.with(|a| a.borrow_mut().replace(child)));
        let out = f();
        let child = ACTIVE.with(|a| a.borrow_mut().take());
        drop(saved);
        let branch = match child.map(close_open) {
            Some(c) => TraceBranch { roots: c.roots, nodes: c.nodes, truncated: c.truncated },
            None => TraceBranch::default(),
        };
        (out, branch)
    }
}

/// Attaches `branches`, in the order given, under the span open on this
/// thread (or at the top level), exactly as if their spans had closed here
/// one branch after another. The [`MAX_TRACE_NODES`] cap is applied in
/// that same post-order: a branch's nodes past the remaining capacity are
/// counted as truncated, and a dropped node takes its subtree with it.
/// A no-op when no trace is installed.
pub fn graft(branches: impl IntoIterator<Item = TraceBranch>) {
    ACTIVE.with(|a| {
        let mut active = a.borrow_mut();
        let Some(state) = active.as_mut() else { return };
        for branch in branches {
            let capacity = MAX_TRACE_NODES.saturating_sub(state.nodes);
            let mut seen = 0;
            let kept: Vec<SpanNode> = branch
                .roots
                .into_iter()
                .filter_map(|root| cut_post_order(root, capacity, &mut seen))
                .collect();
            open_parent(state).extend(kept);
            let attached = branch.nodes.min(capacity);
            state.nodes += attached;
            state.truncated += branch.truncated + (branch.nodes - attached) as u64;
        }
    });
}

/// Keeps the nodes of `node`'s subtree whose post-order index, counted on
/// from `*seen`, is below `capacity`. A branch's surviving nodes are a
/// prefix of its attach order, so these indices are the serial ones.
fn cut_post_order(mut node: SpanNode, capacity: usize, seen: &mut usize) -> Option<SpanNode> {
    node.children = std::mem::take(&mut node.children)
        .into_iter()
        .filter_map(|child| cut_post_order(child, capacity, seen))
        .collect();
    let index = *seen;
    *seen += 1;
    (index < capacity).then_some(node)
}

/// RAII span guard: on drop, records the duration into the registry
/// histogram `pte_span_<name>_us` and — if a trace is installed on this
/// thread — appends a node to the trace tree.
pub struct Span {
    name: &'static str,
    start: Instant,
    traced: bool,
}

/// Opens a span. Neither opening nor closing takes a lock, except the
/// first close of a span name on a thread (registry lookup) — and spans
/// only run on worker/driver threads, never the serve event loop.
pub fn span(name: &'static str) -> Span {
    let traced = ACTIVE.with(|a| {
        let mut active = a.borrow_mut();
        if let Some(state) = active.as_mut() {
            let start_us = saturating_us(state.started.elapsed());
            state.stack.push(OpenSpan { name, start_us, children: Vec::new() });
            true
        } else {
            false
        }
    });
    Span { name, start: Instant::now(), traced }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        if crate::enabled() {
            SPAN_HISTOGRAMS.with(|cache| {
                let mut cache = cache.borrow_mut();
                let ix = match cache.iter().position(|(name, _)| *name == self.name) {
                    Some(ix) => ix,
                    None => {
                        let name = format!("pte_span_{}_us", self.name);
                        cache.push((self.name, crate::global().histogram(&name)));
                        cache.len() - 1
                    }
                };
                cache[ix].1.record_always(saturating_us(elapsed));
            });
        }
        if self.traced {
            ACTIVE.with(|a| {
                let mut active = a.borrow_mut();
                let Some(state) = active.as_mut() else { return };
                // Pop our own frame. A replaced trace could desync the
                // stack; matching on name keeps a stale guard harmless.
                let Some(pos) = state.stack.iter().rposition(|o| o.name == self.name) else {
                    return;
                };
                let open = state.stack.remove(pos);
                let node = SpanNode {
                    name: open.name,
                    start_us: open.start_us,
                    elapsed_us: saturating_us(elapsed),
                    children: open.children,
                };
                attach(state, node);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_a_tree() {
        let trace = Trace::begin(42);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _second = span("second");
        }
        let report = trace.finish();
        assert_eq!(report.trace_id, 42);
        assert_eq!(report.truncated, 0);
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[0].children.len(), 1);
        assert_eq!(report.spans[0].children[0].name, "inner");
        assert_eq!(report.spans[1].name, "second");
        assert!(report.spans[1].children.is_empty());
    }

    #[test]
    fn spans_without_a_trace_only_hit_the_registry() {
        {
            let _s = span("registry_only");
        }
        let h = crate::global().histogram("pte_span_registry_only_us");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn node_cap_counts_truncation() {
        let trace = Trace::begin(1);
        for _ in 0..(MAX_TRACE_NODES + 10) {
            let _s = span("leaf");
        }
        let report = trace.finish();
        assert_eq!(report.spans.len(), MAX_TRACE_NODES);
        assert_eq!(report.truncated, 10);
    }

    /// Names and nesting of a span forest, times ignored.
    fn shape(nodes: &[SpanNode]) -> String {
        let parts: Vec<String> = nodes
            .iter()
            .map(|n| {
                if n.children.is_empty() {
                    n.name.to_string()
                } else {
                    format!("{}({})", n.name, shape(&n.children))
                }
            })
            .collect();
        parts.join(",")
    }

    /// One work item: an `item` span holding `i` leaves, one of which
    /// nests a `deep` span.
    fn item(i: usize) {
        let _item = span("item");
        for l in 0..i {
            let _leaf = span("leaf");
            if l == 1 {
                let _deep = span("deep");
            }
        }
    }

    /// Runs `items` under an `outer` span on a fresh trace: inline on this
    /// thread (the reference), or forked — each item on its own thread, in
    /// reverse spawn order, grafted back in input order.
    fn traced(prefill: usize, items: &[usize], forked: bool) -> TraceReport {
        let trace = Trace::begin(7);
        for _ in 0..prefill {
            let _s = span("prefill");
        }
        {
            let _outer = span("outer");
            if forked {
                let handle = fork().expect("a trace is installed");
                let mut branches: Vec<(usize, TraceBranch)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = items
                        .iter()
                        .enumerate()
                        .rev()
                        .map(|(ix, &i)| scope.spawn(move || (ix, handle.run(|| item(i)).1)))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                branches.sort_by_key(|&(ix, _)| ix);
                graft(branches.into_iter().map(|(_, b)| b));
            } else {
                items.iter().for_each(|&i| item(i));
            }
        }
        trace.finish()
    }

    fn assert_same_tree(a: &TraceReport, b: &TraceReport) {
        assert_eq!(shape(&a.spans), shape(&b.spans));
        assert_eq!(a.truncated, b.truncated);
    }

    #[test]
    fn pooled_items_graft_like_inline_spans() {
        let items = [3, 0, 5, 2];
        let inline = traced(0, &items, false);
        let pooled = traced(0, &items, true);
        assert_eq!(shape(&inline.spans), "outer(item(leaf,leaf(deep),leaf),item,item(leaf,leaf(deep),leaf,leaf,leaf),item(leaf,leaf(deep)))");
        assert_same_tree(&inline, &pooled);
        assert_eq!(pooled.trace_id, 7);
    }

    #[test]
    fn inline_fork_restores_the_callers_trace() {
        let trace = Trace::begin(3);
        {
            let _outer = span("outer");
            let handle = fork().unwrap();
            // Run inline: the item records into its own child stack, never
            // into the forking trace, which is reinstalled afterwards.
            let (seen_id, branch) = handle.run(|| {
                item(2);
                fork().map(|f| f.trace_id)
            });
            assert_eq!(seen_id, Some(3), "a forked item runs under the forking trace id");
            let ((), empty) = handle.run(|| ());
            graft([branch, empty]);
        }
        let report = trace.finish();
        assert_eq!(shape(&report.spans), "outer(item(leaf,leaf(deep)))");
        assert_eq!(report.truncated, 0);
    }

    #[test]
    fn nested_forks_graft_into_their_enclosing_item() {
        let nested = |forked: bool| {
            let trace = Trace::begin(9);
            {
                let _outer = span("outer");
                let run_class = |c: usize| {
                    let _class = span("class");
                    let items = [c, c + 1];
                    if forked {
                        let handle = fork().unwrap();
                        let branches: Vec<TraceBranch> = std::thread::scope(|scope| {
                            let hs: Vec<_> = items
                                .iter()
                                .map(|&i| scope.spawn(move || handle.run(|| item(i)).1))
                                .collect();
                            hs.into_iter().map(|h| h.join().unwrap()).collect()
                        });
                        graft(branches);
                    } else {
                        items.iter().for_each(|&i| item(i));
                    }
                };
                if forked {
                    let handle = fork().unwrap();
                    let branches: Vec<TraceBranch> = std::thread::scope(|scope| {
                        let hs: Vec<_> = (0..3)
                            .map(|c| scope.spawn(move || handle.run(|| run_class(c)).1))
                            .collect();
                        hs.into_iter().map(|h| h.join().unwrap()).collect()
                    });
                    graft(branches);
                } else {
                    (0..3).for_each(run_class);
                }
            }
            trace.finish()
        };
        let inline = nested(false);
        let pooled = nested(true);
        assert!(shape(&inline.spans).starts_with("outer(class(item,item(leaf)),class("));
        assert_same_tree(&inline, &pooled);
    }

    #[test]
    fn node_cap_crossed_mid_graft_matches_inline() {
        let items = [4, 1, 3, 6];
        // Every item is 1 + i + (i >= 2) nodes; sweep the remaining
        // capacity across every position of the forked subtrees.
        for left in 0..=20 {
            let prefill = MAX_TRACE_NODES - left;
            let inline = traced(prefill, &items, false);
            let pooled = traced(prefill, &items, true);
            assert_same_tree(&inline, &pooled);
            assert!(inline.truncated > 0, "capacity {left} must truncate");
        }
    }

    #[test]
    fn graft_without_a_trace_is_a_no_op() {
        let handle = {
            let _trace = Trace::begin(5);
            fork().unwrap()
        };
        let ((), branch) = handle.run(|| item(2));
        assert!(fork().is_none(), "the child trace is uninstalled after the run");
        graft([branch]);
        assert!(fork().is_none());
    }

    #[test]
    fn derive_trace_id_is_stable_and_stream_sensitive() {
        assert_eq!(derive_trace_id(7, 0), derive_trace_id(7, 0));
        assert_ne!(derive_trace_id(7, 0), derive_trace_id(7, 1));
    }
}
