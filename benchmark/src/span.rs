//! Span recorder for the traced run.
//!
//! The decorators in [`crate::wrap`] call [`enter`] / [`exit`] around every
//! call into a layer, and [`crate::replica`] opens a root span around each
//! `Simulator::run_until`. Every call is counted. A call made directly from
//! the event loop is timed when it is the [`STRIDE`]-th of its layer; the
//! calls nested inside a timed call are timed with it, so a timed tree is
//! complete and self time (span minus child spans) is exact within it. The
//! state is per thread: the traced run is single-threaded, and the
//! decorators stay `Send` because they hold no handle to it.

use std::cell::RefCell;
use std::time::Instant;

/// A layer whose calls are wrapped. `Netsim` is the root: the event loop
/// itself, everything inside `run_until` that is not a wrapped call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Netsim = 0,
    Aqm = 1,
    Sender = 2,
    Receiver = 3,
    Cca = 4,
}

pub const N_LAYERS: usize = 5;
pub const LAYERS: [Layer; N_LAYERS] = [
    Layer::Netsim,
    Layer::Aqm,
    Layer::Sender,
    Layer::Receiver,
    Layer::Cca,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Netsim => "netsim.run_until",
            Layer::Aqm => "aqm",
            Layer::Sender => "tcp.sender",
            Layer::Receiver => "tcp.receiver",
            Layer::Cca => "cca",
        }
    }
}

/// One in this many event-loop-level calls of a layer is timed. Prime, so
/// it cannot lock onto a periodic call pattern (an ACK every 2 segments,
/// an 8-phase gain cycle).
pub const STRIDE: u64 = 17;

/// A wrapped call that takes longer than this was interrupted (the largest
/// real one handles a window of a few dozen segments in microseconds; a
/// descheduled virtual CPU is gone for milliseconds). Scaled by the stride,
/// one such span would move a layer's share by whole percents, so it is
/// counted but left out of the sums.
pub const INTERRUPTED_NS: u64 = 1_000_000;

/// Spans kept per cell beyond its root spans; later ones are only summed.
pub const SPANS_PER_CELL: usize = 2048;

/// CCA kinds get their own `on_ack` accumulator; index = position in
/// `CcaKind::ALL`, the last one shared by kinds added beyond it.
pub const N_CCA_KINDS: usize = 8;

/// A recorded span: the layer, its interval on the run's clock, the
/// recorded span that caused it and the cell it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing recorded span, `None` for a root.
    pub parent: Option<u32>,
    pub cell: u32,
}

/// Sums over the calls of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed (interrupted ones excluded).
    pub timed: u64,
    /// Timed calls left out for taking longer than [`INTERRUPTED_NS`].
    pub interrupted: u64,
    /// Summed duration of the timed calls, children included.
    pub incl_ns: u64,
    /// Summed duration of timed spans opened directly inside them.
    pub child_ns: u64,
    /// How many such child spans there were.
    pub child_timed: u64,
    /// Calls that were timer firings (`on_timer`).
    pub timer_calls: u64,
}

/// Per-CCA-kind `on_ack` sums over timed calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnAck {
    pub timed: u64,
    pub ns: u64,
}

/// Everything a traced run accumulated.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub totals: [LayerTotals; N_LAYERS],
    pub on_ack: [OnAck; N_CCA_KINDS],
    pub spans: Vec<Span>,
    /// Timed spans that were summed but not kept (over the per-cell cap).
    pub spans_dropped: u64,
}

struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    child_timed: u64,
    /// Slot in `Trace::spans`, `None` when over the cap.
    slot: Option<u32>,
}

struct Tracer {
    epoch: Instant,
    trace: Trace,
    open: Vec<Frame>,
    /// Wrapped calls currently open, timed or not (the root is not one).
    call_depth: u32,
    /// Whether the open event-loop-level call is a timed one.
    timing: bool,
    cell: u32,
    kept_in_cell: usize,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            trace: Trace::default(),
            open: Vec::with_capacity(8),
            call_depth: 0,
            timing: false,
            cell: 0,
            kept_in_cell: 0,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, layer: Layer, keep: bool) {
        let start_ns = self.now_ns();
        let slot = if keep {
            let parent = self.open.iter().rev().find_map(|f| f.slot);
            self.trace.spans.push(Span {
                layer,
                start_ns,
                end_ns: 0,
                parent,
                cell: self.cell,
            });
            Some((self.trace.spans.len() - 1) as u32)
        } else {
            self.trace.spans_dropped += 1;
            None
        };
        self.open.push(Frame {
            layer,
            start_ns,
            child_ns: 0,
            child_timed: 0,
            slot,
        });
    }

    /// Close the innermost open span; its duration unless it was interrupted.
    fn close_span(&mut self, layer: Layer) -> Option<u64> {
        let end_ns = self.now_ns();
        let frame = self.open.pop().expect("exit without enter");
        debug_assert_eq!(frame.layer, layer, "spans must nest");
        let dur = end_ns - frame.start_ns;
        let t = &mut self.trace.totals[layer as usize];
        let interrupted = layer != Layer::Netsim && dur > INTERRUPTED_NS;
        if interrupted {
            t.interrupted += 1;
        } else {
            t.timed += 1;
            t.incl_ns += dur;
            t.child_ns += frame.child_ns;
            t.child_timed += frame.child_timed;
        }
        if let Some(slot) = frame.slot {
            self.trace.spans[slot as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
            parent.child_timed += 1;
        }
        (!interrupted).then_some(dur)
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Forget everything recorded on this thread and restart the clock.
pub fn reset() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// Take what was recorded on this thread since the last [`reset`].
pub fn take() -> Trace {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().trace))
}

/// Spans recorded from now on belong to `cell`.
pub fn set_cell(cell: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.cell = cell;
        t.kept_in_cell = 0;
    });
}

/// Open a root span (one `run_until` call). Always timed and kept.
pub fn enter_root() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.trace.totals[Layer::Netsim as usize].calls += 1;
        t.open_span(Layer::Netsim, true);
    });
}

/// Close the root span opened by [`enter_root`].
pub fn exit_root() {
    TRACER.with(|t| {
        t.borrow_mut().close_span(Layer::Netsim);
    });
}

/// Count a call into `layer` and decide whether it is timed; the answer
/// goes back to [`exit`].
#[inline]
pub fn enter(layer: Layer, is_timer: bool) -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let totals = &mut t.trace.totals[layer as usize];
        totals.calls += 1;
        totals.timer_calls += u64::from(is_timer);
        let calls = totals.calls;
        if t.call_depth == 0 {
            t.timing = calls % STRIDE == 0;
        }
        t.call_depth += 1;
        if t.timing {
            let keep = t.kept_in_cell < SPANS_PER_CELL;
            t.kept_in_cell += usize::from(keep);
            t.open_span(layer, keep);
        }
        t.timing
    })
}

/// Close the call opened by [`enter`]; the duration when it was timed and
/// not interrupted.
#[inline]
pub fn exit(layer: Layer, timed: bool) -> Option<u64> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.call_depth -= 1;
        if timed {
            t.close_span(layer)
        } else {
            None
        }
    })
}

/// Add one timed `on_ack` of CCA kind `kind` (its index in `CcaKind::ALL`).
pub fn note_on_ack(kind: usize, ns: u64) {
    TRACER.with(|t| {
        let slot = &mut t.borrow_mut().trace.on_ack[kind];
        slot.timed += 1;
        slot.ns += ns;
    });
}

/// What the instrumentation itself costs, measured by [`calibrate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Duration an empty timed span reports (the part of its two clock
    /// reads that falls inside the interval).
    pub inner_ns: f64,
    /// What an empty timed span costs its surroundings (both clock reads
    /// and the bookkeeping).
    pub outer_ns: f64,
    /// What a counted but untimed call costs its surroundings.
    pub count_ns: f64,
}

/// Measure the instrumentation on this thread with empty spans: the lowest
/// of five batches for each cost, since the machine only ever adds to them.
/// Resets the recorder before and after.
pub fn calibrate() -> Calibration {
    const BATCHES: usize = 5;
    const N: u64 = 40_000;
    let lowest = |batch: &dyn Fn() -> [f64; 2]| {
        (0..BATCHES)
            .map(|_| batch())
            .fold([f64::INFINITY; 2], |best, b| {
                [best[0].min(b[0]), best[1].min(b[1])]
            })
    };
    // All timed: children of one timed call.
    let [inner_ns, outer_ns] = lowest(&|| {
        reset();
        enter_root();
        let started_ns = TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.call_depth = 1;
            t.timing = true;
            t.kept_in_cell = SPANS_PER_CELL;
            t.now_ns()
        });
        for _ in 0..N {
            let timed = enter(Layer::Cca, false);
            std::hint::black_box(exit(Layer::Cca, timed));
        }
        let batch_ns = TRACER.with(|t| t.borrow().now_ns()) - started_ns;
        let cca = take().totals[Layer::Cca as usize];
        [
            cca.incl_ns as f64 / cca.timed as f64,
            batch_ns as f64 / N as f64,
        ]
    });
    // Stride-timed: N calls from the event-loop level, N/STRIDE of them timed.
    let [mixed_ns, _] = lowest(&|| {
        reset();
        TRACER.with(|t| t.borrow_mut().kept_in_cell = SPANS_PER_CELL);
        let started = Instant::now();
        for _ in 0..N {
            let timed = enter(Layer::Aqm, false);
            std::hint::black_box(exit(Layer::Aqm, timed));
        }
        [started.elapsed().as_nanos() as f64, 0.0]
    });
    reset();
    let timed = (N / STRIDE) as f64;
    Calibration {
        inner_ns,
        outer_ns,
        count_ns: ((mixed_ns - timed * outer_ns) / (N as f64 - timed)).max(0.0),
    }
}

/// A layer's share of a traced unit, instrumentation removed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerEstimate {
    pub calls: u64,
    /// Time inside the layer's calls, children included.
    pub incl_ns: f64,
    /// Time inside the layer's calls and outside any wrapped child call.
    pub self_ns: f64,
    /// `self_ns` over the corrected root time; the shares of all layers
    /// sum to 1.
    pub self_share: f64,
}

impl LayerEstimate {
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64
        }
    }
}

/// Turn the sums of a traced unit into per-layer time.
///
/// A wrapped layer's timed calls are a stride sample of all its calls, so
/// its sums are scaled by `calls / timed`. From each timed span the
/// recorder's own cost is removed first: `inner_ns` from the span itself
/// and `outer_ns` for every timed child that ran inside it. The root is
/// timed in full; what is left of it after the instrumentation of every
/// wrapped call (`outer_ns` per timed, `count_ns` per untimed) and the self
/// time of every wrapped layer is the event loop's own time.
pub fn estimate(totals: &[LayerTotals; N_LAYERS], cal: &Calibration) -> [LayerEstimate; N_LAYERS] {
    let mut out = [LayerEstimate::default(); N_LAYERS];
    let mut overhead_ns = 0.0;
    let mut wrapped_self_ns = 0.0;
    for layer in LAYERS {
        let t = &totals[layer as usize];
        let e = &mut out[layer as usize];
        e.calls = t.calls;
        if layer == Layer::Netsim || t.timed == 0 {
            continue;
        }
        let scale = t.calls as f64 / t.timed as f64;
        let incl =
            t.incl_ns as f64 - t.timed as f64 * cal.inner_ns - t.child_timed as f64 * cal.outer_ns;
        let children = t.child_ns as f64 - t.child_timed as f64 * cal.inner_ns;
        e.incl_ns = (incl * scale).max(0.0);
        e.self_ns = ((incl - children) * scale).max(0.0);
        overhead_ns += t.timed as f64 * cal.outer_ns + (t.calls - t.timed) as f64 * cal.count_ns;
        wrapped_self_ns += e.self_ns;
    }
    let root = &totals[Layer::Netsim as usize];
    let root_ns = (root.incl_ns as f64 - overhead_ns).max(wrapped_self_ns);
    let netsim = &mut out[Layer::Netsim as usize];
    netsim.incl_ns = root_ns;
    netsim.self_ns = root_ns - wrapped_self_ns;
    if root_ns > 0.0 {
        for e in &mut out {
            e.self_share = e.self_ns / root_ns;
        }
    }
    out
}

/// Self time of every recorded span: its duration minus the durations of
/// the recorded spans it directly caused.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(Layer::Netsim, 0, 1000, None),
            span(Layer::Sender, 100, 400, Some(0)),
            span(Layer::Cca, 150, 250, Some(1)),
            span(Layer::Aqm, 500, 560, Some(0)),
        ];
        // root: 1000 - 300 - 60; sender: 300 - 100; leaves keep their own.
        assert_eq!(self_times(&spans), vec![640, 200, 100, 60]);
    }

    #[test]
    fn stride_times_one_call_in_seventeen_with_its_children() {
        reset();
        enter_root();
        for _ in 0..(STRIDE * 4) {
            let s = enter(Layer::Sender, false);
            let c = enter(Layer::Cca, false);
            assert_eq!(c, s, "a nested call is timed exactly when its parent is");
            exit(Layer::Cca, c);
            exit(Layer::Sender, s);
        }
        exit_root();
        let trace = take();
        let sender = trace.totals[Layer::Sender as usize];
        let cca = trace.totals[Layer::Cca as usize];
        assert_eq!((sender.calls, sender.timed), (STRIDE * 4, 4));
        assert_eq!((cca.calls, cca.timed), (STRIDE * 4, 4));
        assert_eq!(sender.child_timed, 4);
        assert!(sender.incl_ns >= sender.child_ns);
        // 1 root + 4 sender + 4 cca spans, children pointing at parents.
        assert_eq!(trace.spans.len(), 9);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        reset();
    }

    #[test]
    fn spans_over_the_cell_cap_are_summed_not_kept() {
        reset();
        set_cell(3);
        enter_root();
        let calls = (SPANS_PER_CELL as u64 + 10) * STRIDE;
        for _ in 0..calls {
            let t = enter(Layer::Aqm, false);
            exit(Layer::Aqm, t);
        }
        exit_root();
        let trace = take();
        assert_eq!(
            trace.totals[Layer::Aqm as usize].timed,
            SPANS_PER_CELL as u64 + 10
        );
        assert_eq!(trace.spans.len(), 1 + SPANS_PER_CELL);
        assert_eq!(trace.spans_dropped, 10);
        assert!(trace.spans.iter().all(|s| s.cell == 3));
        reset();
    }

    #[test]
    fn an_interrupted_span_is_counted_but_not_summed() {
        reset();
        enter_root();
        for i in 0..(STRIDE * 2) {
            let t = enter(Layer::Sender, false);
            if t && i < STRIDE {
                std::thread::sleep(std::time::Duration::from_nanos(2 * INTERRUPTED_NS));
            }
            assert_eq!(exit(Layer::Sender, t).is_some(), t && i >= STRIDE);
        }
        exit_root();
        let sender = take().totals[Layer::Sender as usize];
        assert_eq!(
            (sender.calls, sender.timed, sender.interrupted),
            (STRIDE * 2, 1, 1)
        );
        assert!(sender.incl_ns < INTERRUPTED_NS);
        reset();
    }

    #[test]
    fn estimate_removes_instrumentation_and_scales_the_sample() {
        let cal = Calibration {
            inner_ns: 10.0,
            outer_ns: 40.0,
            count_ns: 2.0,
        };
        let mut totals = [LayerTotals::default(); N_LAYERS];
        // 170 sender calls, 10 timed at a measured 300 ns each; each timed
        // call held one timed cca child of a measured 60 ns.
        totals[Layer::Sender as usize] = LayerTotals {
            calls: 170,
            timed: 10,
            incl_ns: 3000,
            child_ns: 600,
            child_timed: 10,
            ..LayerTotals::default()
        };
        totals[Layer::Cca as usize] = LayerTotals {
            calls: 170,
            timed: 10,
            incl_ns: 600,
            ..LayerTotals::default()
        };
        totals[Layer::Netsim as usize] = LayerTotals {
            calls: 1,
            timed: 1,
            incl_ns: 100_000,
            ..LayerTotals::default()
        };
        let est = estimate(&totals, &cal);
        // cca: (60 - 10) * 17 per timed call.
        assert_eq!(est[Layer::Cca as usize].self_ns, 50.0 * 170.0);
        // sender incl: 300 - 10 (own read) - 40 (child's span) = 250; its
        // child really took 50, so self is 200 per call.
        assert_eq!(est[Layer::Sender as usize].incl_ns, 250.0 * 170.0);
        assert_eq!(est[Layer::Sender as usize].self_ns, 200.0 * 170.0);
        // root: 100000 - 2 layers * (10 * 40 + 160 * 2) of instrumentation.
        let root = 100_000.0 - 2.0 * (400.0 + 320.0);
        assert_eq!(est[Layer::Netsim as usize].incl_ns, root);
        assert_eq!(est[Layer::Netsim as usize].self_ns, root - 250.0 * 170.0);
        let shares: f64 = est.iter().map(|e| e.self_share).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_orders_its_costs() {
        let cal = calibrate();
        assert!(cal.inner_ns > 0.0);
        assert!(cal.outer_ns >= cal.inner_ns, "{cal:?}");
        assert!(cal.count_ns < cal.outer_ns, "{cal:?}");
    }
}
