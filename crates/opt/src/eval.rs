//! Incremental noise evaluation — the state machine that makes noise
//! checks cheap enough to sit *inside* the word-length search loops.
//!
//! The from-scratch path ([`Optimizer::noise_of`]) pays, per candidate, a
//! fresh [`WlConfig`] (`O(#nodes)` allocations) plus either a full
//! [`sna_core::NaModel`] evaluation (`O(#sources · #outputs)`, with
//! report/string allocations) or — on the nonlinear fallback — a complete
//! histogram propagation (`O(#nodes · bins²)`).  Every search algorithm,
//! however, explores by *single-coordinate moves*: trim one node, widen
//! one node, undo.  [`NoiseEval`] exploits that structure:
//!
//! * **NA backend (linear graphs)** — per-node noise contributions
//!   `(mean_k, var_k)` toward each output are precomputed functions of the
//!   node's own width (and its arguments' widths, through the
//!   precision-loss rule).  A [`NoiseEval::set`] re-derives only the moved
//!   node's and its direct consumers' contributions from the
//!   [`sna_core::NaModel`] gain terms and updates running totals —
//!   `O(fan-out · #outputs)` work, effectively **O(1)** per move, with no
//!   allocation.  Running totals are rebuilt from the stored per-node
//!   contributions every [`REBUILD_PERIOD`] moves so float drift stays
//!   orders of magnitude below the `1e-12` equivalence bound.
//!
//! * **Histogram backend (nonlinear combinational graphs)** — per-node
//!   `(value, error)` histograms are cached; a width change at node *i*
//!   re-propagates only `i`'s downstream cone
//!   ([`sna_dfg::Dfg::downstream_cone`]), reusing every histogram outside
//!   the cone.  Recomputed states are additionally memoized per
//!   `(bins, node, upstream widths)` in a **shared concurrent**
//!   [`HistMemo`] owned by the compiled session, so neighbouring
//!   candidates in greedy/annealing walks (probe, undo, re-probe) hit the
//!   memo instead of redoing `O(bins²)` convolutions — including across
//!   the per-thread evaluators of parallel searches and across successive
//!   searches over one compiled program.  Cone recomputation performs the
//!   identical float operations as a full propagation, so results are
//!   bit-equal to the scratch path.
//!
//! Both backends support a one-deep [`NoiseEval::undo`] that restores the
//! pre-move state exactly (saved contributions / saved cone states), which
//! is the probe-shaped access pattern of every optimizer in this crate.

use std::sync::{Arc, OnceLock};

use sna_core::{
    loses_precision, CoeffSite, DfgEngine, EngineOptions, HistMemo, NaModel, NoiseSource, Session,
    Uncertain, Value,
};
use sna_dfg::{Dfg, NodeId, Op};
use sna_fixp::{Format, Overflow, Quantizer, Rounding, WlConfig};
use sna_interval::Interval;

use crate::optimizer::MAX_WIDTH;
use crate::{OptError, Optimizer};

/// Histogram resolution per operation on the nonlinear fallback.
pub(crate) const HIST_BINS: usize = 64;

/// Moves between full rebuilds of the NA running totals (drift control).
const REBUILD_PERIOD: u32 = 1024;

// ----------------------------------------------------------------------
// Shared precomputed structure (built once per Optimizer)
// ----------------------------------------------------------------------

/// How candidate noise is evaluated inside the search loops, together
/// with the structure every evaluator (and every search thread) derived
/// from one [`Optimizer`] shares.
#[derive(Debug)]
pub(crate) enum NoiseBackend {
    /// Linear graphs (with or without feedback): the session's
    /// precomputed [`NaModel`] — `O(#nodes)` per from-scratch candidate —
    /// plus consumer lists and coefficient-site grouping (cheap, built
    /// eagerly).
    Na {
        /// The session's NA moment model, shared without cloning.
        model: Arc<NaModel>,
        /// Consumer lists and coefficient-site grouping.
        shared: NaShared,
    },
    /// Nonlinear *combinational* graphs: per-candidate [`DfgEngine`]
    /// histogram propagation at [`HIST_BINS`] — slower but
    /// assumption-free, the paper's "SNA inside the optimization loop"
    /// configuration.
    Hist {
        /// The session's concurrent state memo, so parallel searches (and
        /// repeated searches over one compiled program) hit each other's
        /// entries.
        memo: Arc<HistMemo>,
        /// Downstream cones + upstream sets.  Cone extraction is
        /// `O(#nodes²)` time and memory, so it is built lazily on the
        /// first [`Optimizer::evaluator`] call — paths that never search
        /// (e.g. `uniform`) skip it entirely.
        shared: OnceLock<HistShared>,
    },
}

impl NoiseBackend {
    /// The backend for a session's graph: NA for linear graphs,
    /// histograms for nonlinear combinational ones.
    ///
    /// # Errors
    ///
    /// The NA model's failure on everything else (nonlinear *sequential*
    /// graphs, unstable feedback, range failures).
    pub(crate) fn for_session(session: &Session) -> Result<Self, OptError> {
        let dfg = session.dfg();
        match session.na_model() {
            Ok(model) => Ok(NoiseBackend::Na {
                shared: NaShared::build(dfg, &model),
                model,
            }),
            // The histogram engine needs no linearity but cannot cross
            // delays; sequential nonlinear graphs keep the error.
            Err(_) if !dfg.is_linear() && dfg.is_combinational() => Ok(NoiseBackend::Hist {
                memo: Arc::clone(session.hist_memo()),
                shared: OnceLock::new(),
            }),
            Err(e) => Err(e.into()),
        }
    }
}

/// NA-backend invariants: who consumes whom, and which coefficient sites
/// a constant's width change re-prices.
#[derive(Debug)]
pub(crate) struct NaShared {
    /// `consumers[i]` = nodes with `i` among their arguments (deduplicated).
    consumers: Vec<Vec<u32>>,
    /// Indices into `NaModel::coeff_sites()`, grouped by constant node.
    coeff_by_const: Vec<Vec<u32>>,
}

impl NaShared {
    fn build(dfg: &Dfg, model: &NaModel) -> Self {
        let n = dfg.len();
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, node) in dfg.nodes() {
            for &a in node.args() {
                let list = &mut consumers[a.index()];
                if list.last() != Some(&(id.index() as u32)) {
                    list.push(id.index() as u32);
                }
            }
        }
        let mut coeff_by_const: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (k, cs) in model.coeff_sites().iter().enumerate() {
            coeff_by_const[cs.const_node().index()].push(k as u32);
        }
        NaShared {
            consumers,
            coeff_by_const,
        }
    }
}

/// Histogram-backend invariants: per-node downstream cones (the region a
/// move re-propagates) and upstream cones (the memo key domain).
#[derive(Debug)]
pub(crate) struct HistShared {
    /// `cones[i]` = downstream cone of node `i`, in evaluation order.
    cones: Vec<Vec<NodeId>>,
    /// `upstream[i]` = sorted node indices whose width the state of `i`
    /// depends on (its upstream cone, `i` included).
    upstream: Vec<Vec<u32>>,
}

impl HistShared {
    fn build(dfg: &Dfg) -> Self {
        let n = dfg.len();
        let cones: Vec<Vec<NodeId>> = (0..n)
            .map(|i| dfg.downstream_cone(NodeId::from_index(i)))
            .collect();
        // Invert: `m` is upstream of every node in `cone(m)`.
        let mut upstream: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (m, cone) in cones.iter().enumerate() {
            for node in cone {
                upstream[node.index()].push(m as u32);
            }
        }
        // Pushed in ascending `m`, so each list is already sorted.
        HistShared { cones, upstream }
    }
}

// ----------------------------------------------------------------------
// Per-node quantizer table
// ----------------------------------------------------------------------

/// Quantizers for every `(node, width)` pair the search may visit,
/// precomputed so a move never re-derives a format.
#[derive(Debug)]
struct QuantTable {
    /// `rows[i]` holds quantizers for widths `min_w[i]..=max_w`.
    rows: Vec<Vec<Quantizer>>,
    min_w: Vec<u8>,
}

impl QuantTable {
    fn build(node_ranges: &[Interval], min_w: &[u8], max_w: u8) -> Result<Self, OptError> {
        let rows = node_ranges
            .iter()
            .zip(min_w.iter())
            .map(|(&r, &lo)| {
                (lo..=max_w.max(lo))
                    .map(|w| {
                        Format::from_range(r, w)
                            .map(|f| Quantizer::new(f, Rounding::Nearest, Overflow::Saturate))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QuantTable {
            rows,
            min_w: min_w.to_vec(),
        })
    }

    fn quantizer(&self, i: usize, w: u8) -> &Quantizer {
        let lo = self.min_w[i];
        debug_assert!(w >= lo, "width {w} below node {i} minimum {lo}");
        &self.rows[i][(w - lo) as usize]
    }

    /// Whether `(i, w)` is inside the table — the widths the search
    /// bounds admit for node `i`.
    fn supports(&self, i: usize, w: u8) -> bool {
        self.rows
            .get(i)
            .zip(self.min_w.get(i))
            .is_some_and(|(row, &lo)| w >= lo && usize::from(w - lo) < row.len())
    }

    fn frac_bits(&self, i: usize, w: u8) -> u8 {
        self.quantizer(i, w).format.frac_bits()
    }
}

// ----------------------------------------------------------------------
// NA backend
// ----------------------------------------------------------------------

/// A Neumaier-compensated accumulator.
///
/// Running totals see large cancellations (a walk through 4-bit widths
/// adds contributions ~2^40 larger than those at 24 bits; subtracting
/// them back leaves thousands of ulps of dust in a plain `f64`).  The
/// compensation term captures each add/subtract's rounding error exactly,
/// keeping the incremental totals within ~1 ulp of a fresh summation —
/// orders of magnitude inside the 1e-12 equivalence bound.
#[derive(Clone, Copy, Debug, Default)]
struct Acc {
    s: f64,
    c: f64,
}

impl Acc {
    fn add(&mut self, x: f64) {
        let t = self.s + x;
        if self.s.abs() >= x.abs() {
            self.c += (self.s - t) + x;
        } else {
            self.c += (x - t) + self.s;
        }
        self.s = t;
    }

    fn value(&self) -> f64 {
        self.s + self.c
    }

    fn reset(&mut self) {
        self.s = 0.0;
        self.c = 0.0;
    }
}

/// O(1)-move evaluator over the precomputed [`NaModel`] gain terms.
#[derive(Debug)]
struct NaEval<'a> {
    dfg: &'a Dfg,
    model: &'a NaModel,
    shared: &'a NaShared,
    table: QuantTable,
    n_out: usize,
    w: Vec<u8>,
    /// Flattened `[node][output]` contributions to the output error mean.
    contrib_mean: Vec<f64>,
    /// Flattened `[node][output]` contributions to the output variance.
    contrib_var: Vec<f64>,
    total_mean: Vec<Acc>,
    total_var: Vec<Acc>,
    moves: u32,
    undo: Option<NaUndo>,
}

#[derive(Debug)]
struct NaUndo {
    node: usize,
    old_w: u8,
    /// `(node, saved mean row, saved var row)` for every recomputed node.
    saved: Vec<(u32, Vec<f64>, Vec<f64>)>,
}

impl<'a> NaEval<'a> {
    fn new(
        dfg: &'a Dfg,
        model: &'a NaModel,
        shared: &'a NaShared,
        table: QuantTable,
        w: Vec<u8>,
    ) -> Self {
        let n = dfg.len();
        let n_out = model.n_outputs();
        let mut ev = NaEval {
            dfg,
            model,
            shared,
            table,
            n_out,
            w,
            contrib_mean: vec![0.0; n * n_out],
            contrib_var: vec![0.0; n * n_out],
            total_mean: vec![Acc::default(); n_out],
            total_var: vec![Acc::default(); n_out],
            moves: 0,
            undo: None,
        };
        for i in 0..n {
            ev.write_contribution(i);
        }
        ev.rebuild_totals();
        ev
    }

    /// [`sna_core::loses_precision`] for node `i`, read off the quantizer
    /// table instead of a materialized `WlConfig`.
    fn introduces_noise(&self, i: usize) -> bool {
        let node = self.dfg.node(NodeId::from_index(i));
        loses_precision(node.op(), self.table.frac_bits(i, self.w[i]), |k| {
            let a = node.args()[k].index();
            self.table.frac_bits(a, self.w[a])
        })
    }

    /// Recomputes node `i`'s rows of `contrib_mean` / `contrib_var` from
    /// the model's gain terms under the current width vector.  Pure in
    /// `(w[i], w[args(i)])`, so identical inputs give identical rows.
    fn write_contribution(&mut self, i: usize) {
        let base = i * self.n_out;
        self.contrib_mean[base..base + self.n_out].fill(0.0);
        self.contrib_var[base..base + self.n_out].fill(0.0);
        let id = NodeId::from_index(i);
        let node = self.dfg.node(id);
        let Some(gains) = self.model.gains_from(id) else {
            return;
        };
        let q = *self.table.quantizer(i, self.w[i]);
        match node.op() {
            Op::Const(c) => {
                // Deterministic rounding offset through the DC gains.
                let offset = q.quantize(c) - c;
                if offset != 0.0 {
                    for (k, og) in gains.iter().enumerate() {
                        self.contrib_mean[base + k] += offset * og.dc;
                    }
                }
            }
            _ => {
                if self.introduces_noise(i) {
                    let src = NoiseSource::for_quantizer(id, &q);
                    for (k, og) in gains.iter().enumerate() {
                        self.contrib_mean[base + k] += src.offset * og.dc;
                        self.contrib_var[base + k] += src.variance() * og.l2_squared;
                    }
                }
            }
        }
        // Coefficient pseudo-sources priced by *this* constant's width but
        // propagated through the consuming multiplier/divider's gains.
        for &cs_idx in &self.shared.coeff_by_const[i] {
            let cs: &CoeffSite = &self.model.coeff_sites()[cs_idx as usize];
            let delta = cs.delta(&q);
            if delta == 0.0 {
                continue;
            }
            let src = cs.source_for_delta(delta);
            let site_gains = self
                .model
                .gains_from(cs.site())
                .expect("coefficient sites refer to analyzed nodes");
            for (k, og) in site_gains.iter().enumerate() {
                self.contrib_mean[base + k] += src.offset * og.dc;
                self.contrib_var[base + k] += src.variance() * og.l2_squared;
            }
        }
    }

    fn rebuild_totals(&mut self) {
        for acc in self.total_mean.iter_mut().chain(self.total_var.iter_mut()) {
            acc.reset();
        }
        for i in 0..self.w.len() {
            let base = i * self.n_out;
            for k in 0..self.n_out {
                self.total_mean[k].add(self.contrib_mean[base + k]);
                self.total_var[k].add(self.contrib_var[base + k]);
            }
        }
    }

    fn power(&self) -> f64 {
        let mut p = 0.0;
        for k in 0..self.n_out {
            let mean = self.total_mean[k].value();
            p += self.total_var[k].value() + mean * mean;
        }
        p
    }

    /// Re-derives the contribution of `i`, updating totals by delta.
    fn refresh(&mut self, i: usize, saved: &mut Vec<(u32, Vec<f64>, Vec<f64>)>) {
        let base = i * self.n_out;
        saved.push((
            i as u32,
            self.contrib_mean[base..base + self.n_out].to_vec(),
            self.contrib_var[base..base + self.n_out].to_vec(),
        ));
        for k in 0..self.n_out {
            self.total_mean[k].add(-self.contrib_mean[base + k]);
            self.total_var[k].add(-self.contrib_var[base + k]);
        }
        self.write_contribution(i);
        for k in 0..self.n_out {
            self.total_mean[k].add(self.contrib_mean[base + k]);
            self.total_var[k].add(self.contrib_var[base + k]);
        }
    }

    fn set(&mut self, i: usize, w: u8) -> f64 {
        let shared = self.shared;
        let mut saved = Vec::with_capacity(1 + shared.consumers[i].len());
        let old_w = self.w[i];
        self.w[i] = w;
        self.refresh(i, &mut saved);
        for &c in &shared.consumers[i] {
            self.refresh(c as usize, &mut saved);
        }
        self.undo = Some(NaUndo {
            node: i,
            old_w,
            saved,
        });
        self.moves += 1;
        if self.moves.is_multiple_of(REBUILD_PERIOD) {
            self.rebuild_totals();
        }
        self.power()
    }

    fn undo(&mut self) {
        let Some(u) = self.undo.take() else {
            return;
        };
        self.w[u.node] = u.old_w;
        for (node, mean_row, var_row) in u.saved {
            let base = node as usize * self.n_out;
            for k in 0..self.n_out {
                self.total_mean[k].add(-self.contrib_mean[base + k]);
                self.total_mean[k].add(mean_row[k]);
                self.total_var[k].add(-self.contrib_var[base + k]);
                self.total_var[k].add(var_row[k]);
                self.contrib_mean[base + k] = mean_row[k];
                self.contrib_var[base + k] = var_row[k];
            }
        }
    }
}

// ----------------------------------------------------------------------
// Histogram backend
// ----------------------------------------------------------------------

/// Cone-limited histogram re-propagation with a shared, concurrent
/// per-`(node, upstream widths)` memo (see [`HistMemo`]).
#[derive(Debug)]
struct HistEval<'a> {
    engine: DfgEngine,
    dfg: &'a Dfg,
    input_ranges: &'a [Interval],
    shared: &'a HistShared,
    table: QuantTable,
    w: Vec<u8>,
    cfg: WlConfig,
    states: Vec<Uncertain>,
    power: f64,
    undo: Option<HistUndo>,
    /// The session's concurrent memo: every evaluator derived from the
    /// same optimizer — including the per-thread evaluators of parallel
    /// searches — reads and feeds one map, so neighbouring candidates
    /// hit across threads.
    memo: &'a HistMemo,
}

#[derive(Debug)]
struct HistUndo {
    node: usize,
    old_w: u8,
    old_q: Quantizer,
    saved: Vec<(u32, Uncertain)>,
    old_power: f64,
}

impl<'a> HistEval<'a> {
    /// An evaluator at `w`, starting from one full propagation under
    /// the optimizer's execution budget.
    fn new(
        opt: &Optimizer<'a>,
        shared: &'a HistShared,
        memo: &'a HistMemo,
        table: QuantTable,
        w: Vec<u8>,
    ) -> Result<Self, OptError> {
        let cfg = WlConfig::from_precomputed_ranges(&opt.node_ranges, &w)?;
        let engine = DfgEngine::new(EngineOptions::default().with_bins(HIST_BINS));
        let states = engine.propagate(opt.dfg, &cfg, opt.input_ranges, &opt.exec_budget)?;
        let mut ev = HistEval {
            engine,
            dfg: opt.dfg,
            input_ranges: opt.input_ranges,
            shared,
            table,
            w,
            cfg,
            states,
            power: 0.0,
            undo: None,
            memo,
        };
        ev.power = ev.output_power();
        // Seed the memo with the initial states so the first probes around
        // the start point already reuse them — one bulk insertion (first
        // writer wins when several thread evaluators start at the same
        // point, so the duplicates cost one lock acquisition, not n).
        let bins = HIST_BINS as u32;
        ev.memo.insert_many(ev.dfg.nodes().map(|(id, _)| {
            (
                (bins, id.index() as u32, ev.memo_widths(id.index())),
                ev.states[id.index()].clone(),
            )
        }));
        Ok(ev)
    }

    /// The widths of `i`'s upstream cone (`i` included) — exactly the
    /// inputs its state depends on, so equal keys imply bit-equal states.
    fn memo_widths(&self, i: usize) -> Vec<u8> {
        self.shared.upstream[i]
            .iter()
            .map(|&m| self.w[m as usize])
            .collect()
    }

    fn output_power(&self) -> f64 {
        self.dfg
            .outputs()
            .iter()
            .map(|(_, id)| match &self.states[id.index()].error {
                Value::Const(c) => c * c,
                Value::Hist(h) => h.noise_power(),
            })
            .sum()
    }

    fn set(&mut self, i: usize, w: u8) -> Result<f64, OptError> {
        let shared = self.shared;
        let old_w = self.w[i];
        let old_q = *self.cfg.quantizer(NodeId::from_index(i));
        let cone = &shared.cones[i];
        let mut saved = Vec::with_capacity(cone.len());
        for node in cone {
            saved.push((node.index() as u32, self.states[node.index()].clone()));
        }
        self.w[i] = w;
        self.cfg
            .set_quantizer(NodeId::from_index(i), *self.table.quantizer(i, w))
            .map_err(OptError::Fixp)?;
        let bins = HIST_BINS as u32;
        for &node in cone {
            let widths = self.memo_widths(node.index());
            let state = match self.memo.lookup(bins, node.index() as u32, widths) {
                Ok(s) => s,
                Err(key) => {
                    let s = match self.engine.node_state(
                        self.dfg,
                        &self.cfg,
                        self.input_ranges,
                        node,
                        &self.states,
                    ) {
                        Ok(s) => s,
                        Err(e) => {
                            // Roll back so the evaluator stays usable; the
                            // previous move is committed, so drop its undo
                            // record too.
                            self.w[i] = old_w;
                            self.cfg
                                .set_quantizer(NodeId::from_index(i), old_q)
                                .expect("restoring a previously valid quantizer");
                            for (n, s) in saved {
                                self.states[n as usize] = s;
                            }
                            self.undo = None;
                            return Err(e.into());
                        }
                    };
                    self.memo.insert_key(key, s.clone());
                    s
                }
            };
            self.states[node.index()] = state;
        }
        let old_power = self.power;
        self.power = self.output_power();
        self.undo = Some(HistUndo {
            node: i,
            old_w,
            old_q,
            saved,
            old_power,
        });
        Ok(self.power)
    }

    fn undo(&mut self) {
        let Some(u) = self.undo.take() else {
            return;
        };
        self.w[u.node] = u.old_w;
        self.cfg
            .set_quantizer(NodeId::from_index(u.node), u.old_q)
            .expect("restoring a previously valid quantizer");
        for (n, s) in u.saved {
            self.states[n as usize] = s;
        }
        self.power = u.old_power;
    }
}

// ----------------------------------------------------------------------
// The facade
// ----------------------------------------------------------------------

/// An incremental noise evaluator positioned at one word-length
/// configuration.
///
/// Created by [`Optimizer::evaluator`]; holds the current width vector and
/// total output noise power, and advances by single-coordinate
/// [`NoiseEval::set`] moves with a one-deep exact [`NoiseEval::undo`].
///
/// # Complexity per move
///
/// | backend | [`set`](NoiseEval::set) | [`undo`](NoiseEval::undo) |
/// |---|---|---|
/// | NA (linear graphs) | `O(fan-out · #outputs)` coefficient reads, no allocation of configs or reports | `O(fan-out · #outputs)` |
/// | histogram (nonlinear) | `O(cone(i) · bins²)` worst case, `O(cone(i))` clones on a full memo hit | `O(cone(i))` state restores |
///
/// Compare with the from-scratch [`Optimizer::noise_of`]: `O(#nodes)`
/// config + source allocations per candidate (NA) or a full-graph
/// `O(#nodes · bins²)` propagation (histogram).
#[derive(Debug)]
pub struct NoiseEval<'a> {
    backend: Backend<'a>,
}

#[derive(Debug)]
enum Backend<'a> {
    Na(NaEval<'a>),
    Hist(HistEval<'a>),
}

impl<'a> NoiseEval<'a> {
    pub(crate) fn from_optimizer(opt: &'a Optimizer<'a>, w: &[u8]) -> Result<Self, OptError> {
        let table = QuantTable::build(&opt.node_ranges, &opt.min_w, MAX_WIDTH)?;
        if w.len() != opt.dfg.len() {
            return Err(OptError::WrongWidthCount {
                expected: opt.dfg.len(),
                got: w.len(),
            });
        }
        if let Some((node, &width)) = w
            .iter()
            .enumerate()
            .find(|&(i, &wi)| !table.supports(i, wi))
        {
            return Err(OptError::InvalidMove { node, width });
        }
        let backend = match &opt.backend {
            NoiseBackend::Na { model, shared } => {
                Backend::Na(NaEval::new(opt.dfg, model, shared, table, w.to_vec()))
            }
            NoiseBackend::Hist { memo, shared } => {
                let shared = shared.get_or_init(|| HistShared::build(opt.dfg));
                Backend::Hist(HistEval::new(opt, shared, memo, table, w.to_vec())?)
            }
        };
        Ok(NoiseEval { backend })
    }

    /// Total output noise power at the current width vector.
    pub fn power(&self) -> f64 {
        match &self.backend {
            Backend::Na(e) => e.power(),
            Backend::Hist(e) => e.power,
        }
    }

    /// The current width vector.
    pub fn widths(&self) -> &[u8] {
        match &self.backend {
            Backend::Na(e) => &e.w,
            Backend::Hist(e) => &e.w,
        }
    }

    /// Moves node `i` to width `w` and returns the new total power.
    ///
    /// The previous move (if any) is committed; only this move can be
    /// reverted by [`NoiseEval::undo`].
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidMove`] for a node index outside the graph or a
    /// width outside the optimizer's `[min_w, 40]` search range
    /// (the position is unchanged); histogram-propagation failures are
    /// propagated (the evaluator rolls back to its pre-move state
    /// first). Within the search range the NA backend cannot fail.
    pub fn set(&mut self, i: usize, w: u8) -> Result<f64, OptError> {
        let supported = match &self.backend {
            Backend::Na(e) => e.table.supports(i, w),
            Backend::Hist(e) => e.table.supports(i, w),
        };
        if !supported {
            return Err(OptError::InvalidMove { node: i, width: w });
        }
        match &mut self.backend {
            Backend::Na(e) => Ok(e.set(i, w)),
            Backend::Hist(e) => e.set(i, w),
        }
    }

    /// Reverts the most recent [`NoiseEval::set`] exactly (contributions /
    /// cone states are restored, not recomputed).  No-op when there is
    /// nothing to undo.
    pub fn undo(&mut self) {
        match &mut self.backend {
            Backend::Na(e) => e.undo(),
            Backend::Hist(e) => e.undo(),
        }
    }

    /// Evaluates the power of the single-coordinate deviation `i → w`
    /// without leaving the current configuration (set + undo).
    ///
    /// # Errors
    ///
    /// Same as [`NoiseEval::set`].
    pub fn probe(&mut self, i: usize, w: u8) -> Result<f64, OptError> {
        let p = self.set(i, w)?;
        self.undo();
        Ok(p)
    }

    /// Walks the evaluator to `target` coordinate by coordinate, returning
    /// the resulting power.  Clears the undo history.
    ///
    /// # Errors
    ///
    /// Same as [`NoiseEval::set`].
    pub fn set_vector(&mut self, target: &[u8]) -> Result<f64, OptError> {
        if target.len() != self.widths().len() {
            return Err(OptError::WrongWidthCount {
                expected: self.widths().len(),
                got: target.len(),
            });
        }
        for (i, &t) in target.iter().enumerate() {
            if self.widths()[i] != t {
                self.set(i, t)?;
            }
        }
        match &mut self.backend {
            Backend::Na(e) => e.undo = None,
            Backend::Hist(e) => e.undo = None,
        }
        Ok(self.power())
    }
}
