use std::sync::Arc;

use sna_core::{Budget, DfgEngine, EngineOptions, NaModel, Session};
use sna_dfg::Dfg;
use sna_fixp::WlConfig;
use sna_hls::{synthesize, CostReport, FuKind, SynthesisConstraints};
use sna_interval::Interval;

use crate::eval::{NoiseBackend, NoiseEval, HIST_BINS};
use crate::OptError;

/// Smallest word length any search assigns (per node, raised further by
/// the node's integer-part requirement).
pub(crate) const MIN_WIDTH: u8 = 4;

/// Largest word length any search assigns.
pub(crate) const MAX_WIDTH: u8 = 40;

/// Weights of the multi-objective cost `wa·area + wp·power + wl·latency`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostWeights {
    /// Weight of area (µm²).
    pub area: f64,
    /// Weight of power (µW).
    pub power: f64,
    /// Weight of latency (cycles).
    pub latency: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            area: 1.0,
            power: 1.0,
            latency: 1.0,
        }
    }
}

/// A fully evaluated word-length configuration.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The word length of every node.
    pub word_lengths: Vec<u8>,
    /// The corresponding fixed-point configuration.
    pub config: WlConfig,
    /// Implementation cost from the real HLS flow.
    pub cost: CostReport,
    /// Total output noise power under the NA model.
    pub noise_power: f64,
    /// The weighted scalar objective.
    pub weighted_cost: f64,
}

/// The shared optimization context over one compiled [`Session`]: noise
/// backend, node ranges and cost proxy; individual algorithms live in
/// sibling modules.
#[derive(Debug)]
pub struct Optimizer<'a> {
    pub(crate) dfg: &'a Dfg,
    pub(crate) constraints: SynthesisConstraints,
    pub(crate) weights: CostWeights,
    /// The noise model (or histogram memo) plus the structure every
    /// incremental evaluator shares.
    pub(crate) backend: NoiseBackend,
    pub(crate) input_ranges: &'a [Interval],
    pub(crate) node_ranges: Arc<Vec<Interval>>,
    /// Per-node lower bound: integer part must fit.
    pub(crate) min_w: Vec<u8>,
    /// Per-node integer bits implied by the value range.
    pub(crate) int_bits: Vec<u8>,
    /// Per-`FuKind` node partition + register/energy inventory for the
    /// cost proxy, computed once instead of per call.
    proxy_static: ProxyStatic,
    /// Cooperative wall-clock/cancellation budget checked inside the
    /// search loops; unlimited by default.
    pub(crate) exec_budget: Budget,
}

/// The node partition behind [`Optimizer::proxy_cost`]: which nodes bind
/// to which functional-unit kind, and which carry registers.
#[derive(Debug)]
struct ProxyStatic {
    /// Node indices per [`FuKind`], in node-id order.
    fu_nodes: [Vec<u32>; 3],
    /// Nodes that occupy a register (everything but constants), id order.
    reg_nodes: Vec<u32>,
}

impl ProxyStatic {
    fn build(dfg: &Dfg) -> Self {
        let mut fu_nodes: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut reg_nodes = Vec::new();
        for (id, node) in dfg.nodes() {
            if !matches!(node.op(), sna_dfg::Op::Const(_)) {
                reg_nodes.push(id.index() as u32);
            }
            if let Some(kind) = FuKind::for_op(node.op()) {
                fu_nodes[kind as usize].push(id.index() as u32);
            }
        }
        ProxyStatic {
            fu_nodes,
            reg_nodes,
        }
    }
}

/// Reusable width buffers for [`Optimizer::proxy_cost_with`] — the hot
/// ranking loops allocate these once instead of three `Vec`s per call.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProxyScratch {
    widths: [Vec<u8>; 3],
}

impl<'a> Optimizer<'a> {
    /// Builds the context on top of a compiled [`Session`]: the noise
    /// model, node ranges and histogram memo come from the session's
    /// shared artifact chain instead of being rebuilt, so "compile once,
    /// then optimize" pays the impulse-response analysis exactly once.
    ///
    /// Linear graphs use the session's [`NaModel`]; nonlinear
    /// *combinational* graphs fall back to per-candidate [`DfgEngine`]
    /// histogram propagation (see [`Optimizer::na_model`]).
    ///
    /// # Errors
    ///
    /// Propagates noise-model failures (nonlinear *sequential* graphs,
    /// unstable feedback, range failures).
    pub fn new(session: &'a Session, constraints: SynthesisConstraints) -> Result<Self, OptError> {
        let dfg = session.dfg();
        let backend = NoiseBackend::for_session(session)?;
        let node_ranges = session.node_ranges()?;
        let min_w = node_ranges
            .iter()
            .map(|&r| {
                (2..=MAX_WIDTH)
                    .find(|&w| sna_fixp::Format::from_range(r, w).is_ok())
                    .unwrap_or(MAX_WIDTH)
                    .max(MIN_WIDTH)
            })
            .collect();
        let int_bits = node_ranges
            .iter()
            .map(|&r| {
                sna_fixp::Format::from_range(r, sna_fixp::MAX_WORD_LENGTH)
                    .map(|f| f.int_bits())
                    .unwrap_or(sna_fixp::MAX_WORD_LENGTH - 1)
            })
            .collect();
        Ok(Optimizer {
            dfg,
            constraints,
            weights: CostWeights::default(),
            backend,
            input_ranges: session.input_ranges(),
            node_ranges,
            min_w,
            int_bits,
            proxy_static: ProxyStatic::build(dfg),
            exec_budget: Budget::unlimited(),
        })
    }

    /// Widens exactness-preserving operations (add/sub/neg/delay) so their
    /// fraction keeps every argument bit — used by allocators whose
    /// per-node sensitivity model treats such nodes as noise-free.
    pub(crate) fn widen_exact_nodes(&self, w: &mut [u8]) {
        use sna_dfg::Op;
        // Process in topological order so chains propagate.
        for &id in self.dfg.topo_order() {
            let node = self.dfg.node(id);
            if !matches!(node.op(), Op::Add | Op::Sub | Op::Neg | Op::Delay) {
                continue;
            }
            let needed_frac = node
                .args()
                .iter()
                .map(|a| {
                    let wa = w[a.index()];
                    wa.saturating_sub(1)
                        .saturating_sub(self.int_bits[a.index()])
                })
                .max()
                .unwrap_or(0);
            let target = needed_frac + 1 + self.int_bits[id.index()];
            w[id.index()] = w[id.index()]
                .max(target.min(MAX_WIDTH))
                .clamp(self.min_w[id.index()], MAX_WIDTH);
        }
        // Delay nodes are excluded from the combinational topo order; fix
        // them afterwards (their arg is computed by then).
        for &d in self.dfg.delay_nodes() {
            let a = self.dfg.node(d).args()[0];
            let frac = w[a.index()]
                .saturating_sub(1)
                .saturating_sub(self.int_bits[a.index()]);
            let target = frac + 1 + self.int_bits[d.index()];
            w[d.index()] = w[d.index()]
                .max(target.min(MAX_WIDTH))
                .clamp(self.min_w[d.index()], MAX_WIDTH);
        }
    }

    /// Overrides the cost weights.
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Attaches a cooperative *execution* budget (wall-clock deadline
    /// and/or cancellation flag) — distinct from the noise-power budget
    /// the search methods take as a parameter.
    ///
    /// The search loops poll it at cheap strided checkpoints (every
    /// ~1024 exhaustive candidates, ~256 annealing proposals, once per
    /// greedy trim round) and abort with
    /// [`sna_core::SnaError::DeadlineExceeded`] /
    /// [`sna_core::SnaError::Cancelled`] wrapped in [`OptError::Sna`]
    /// once the budget is overrun.  A budget that never fires leaves
    /// every search result bit-identical to the unlimited run.
    pub fn with_exec_budget(mut self, budget: Budget) -> Self {
        self.exec_budget = budget;
        self
    }

    /// The prebuilt NA moment model, when the graph is linear; `None`
    /// when the histogram fallback is in use.
    pub fn na_model(&self) -> Option<&NaModel> {
        match &self.backend {
            NoiseBackend::Na { model, .. } => Some(model),
            NoiseBackend::Hist { .. } => None,
        }
    }

    /// Per-node minimum feasible word lengths.
    pub fn min_word_lengths(&self) -> &[u8] {
        &self.min_w
    }

    // ------------------------------------------------------------------
    // Inner-loop primitives shared by the algorithms
    // ------------------------------------------------------------------

    /// An incremental evaluator positioned at `w` — the object the search
    /// loops move instead of paying [`Optimizer::noise_of`] per candidate
    /// (see [`NoiseEval`] for the complexity model).
    ///
    /// # Errors
    ///
    /// Format-table construction and (histogram backend) the initial full
    /// propagation can fail; failures are propagated.
    pub fn evaluator(&self, w: &[u8]) -> Result<NoiseEval<'_>, OptError> {
        NoiseEval::from_optimizer(self, w)
    }

    /// Noise power of a word-length vector, evaluated *from scratch* —
    /// the reference implementation the incremental [`NoiseEval`] is
    /// equivalence-tested against, and the right call for one-off
    /// evaluations outside a search loop.
    ///
    /// # Errors
    ///
    /// Configuration construction and noise-model failures are propagated.
    pub fn noise_of(&self, w: &[u8]) -> Result<f64, OptError> {
        let cfg = WlConfig::from_precomputed_ranges(&self.node_ranges, w)?;
        self.noise_of_config(&cfg)
    }

    /// Total output noise power of a configuration under the active model.
    fn noise_of_config(&self, cfg: &WlConfig) -> Result<f64, OptError> {
        match &self.backend {
            NoiseBackend::Na { model, .. } => Ok(model.total_power(self.dfg, cfg)),
            NoiseBackend::Hist { .. } => {
                let reports = DfgEngine::new(EngineOptions::default().with_bins(HIST_BINS))
                    .analyze(self.dfg, cfg, self.input_ranges, &self.exec_budget)?;
                Ok(reports.iter().map(|(_, r)| r.power).sum())
            }
        }
    }

    /// Per-node noise sensitivity `cᵢ` measured at the evaluator's
    /// current configuration: the noise contribution of node `i` behaves
    /// as `cᵢ·4^(−wᵢ)` under the uniform-quantization model, so one probe
    /// per node suffices.
    ///
    /// On the NA path each probe is *analytic* — an `O(fan-out)`
    /// re-pricing of the moved node's precomputed gain terms — instead of
    /// the former n+1 full model evaluations; the histogram path probes
    /// via cone-limited re-propagation.  The evaluator must already be
    /// positioned at the probe point; its position is preserved.
    pub(crate) fn sensitivities_with(&self, ev: &mut NoiseEval<'_>) -> Result<Vec<f64>, OptError> {
        let at = ev.widths().to_vec();
        let base = ev.power();
        // Deltas below the float resolution of the total are incremental
        // bookkeeping dust, not signal: a from-scratch pair of sums would
        // cancel them to exactly 0, and downstream allocators branch on
        // zero sensitivity.
        let floor = base.abs() * 1e-13;
        let mut c = vec![0.0; at.len()];
        for i in 0..at.len() {
            if at[i] <= self.min_w[i] {
                continue;
            }
            let dn = ev.probe(i, at[i] - 1)? - base;
            let dn = if dn <= floor { 0.0 } else { dn };
            // dn = cᵢ·(4^−(w−1) − 4^−w) = 3·cᵢ·4^−w.
            c[i] = dn / 3.0 * 4f64.powi(at[i] as i32);
        }
        Ok(c)
    }

    /// A fresh scratch buffer for [`Optimizer::proxy_cost_with`]; hot
    /// loops (and each search thread) hold one across calls.
    pub(crate) fn proxy_scratch(&self) -> ProxyScratch {
        ProxyScratch::default()
    }

    /// Implementation-cost proxy used for move ranking.
    ///
    /// Mirrors the real cost structure: functional units are *shared*, so
    /// the FU area of each kind is set by the widest operation bound to
    /// it; registers and switching energy accrue per node; latency is the
    /// serialized multi-cycle estimate per kind.  Monotone in every `wᵢ`.
    pub fn proxy_cost(&self, w: &[u8]) -> f64 {
        self.proxy_cost_with(w, &mut self.proxy_scratch())
    }

    /// [`Optimizer::proxy_cost`] over the precomputed node partition,
    /// reusing the caller's scratch buffers — no allocation per call.
    pub(crate) fn proxy_cost_with(&self, w: &[u8], scratch: &mut ProxyScratch) -> f64 {
        let tech = &self.constraints.tech;
        let clock = self.constraints.clock_ns;
        let widths = &mut scratch.widths;
        let mut cycles = [0u64; 3];
        let mut reg_area = 0.0;
        let mut energy_pj = 0.0;
        // Constants are wired, not registered (matches the binder).
        for &i in &self.proxy_static.reg_nodes {
            reg_area += tech.register_area(w[i as usize]);
        }
        for kind in FuKind::ALL {
            let k = kind as usize;
            widths[k].clear();
            for &i in &self.proxy_static.fu_nodes[k] {
                let wi = w[i as usize];
                widths[k].push(wi);
                cycles[k] += u64::from(tech.cycles(kind, wi, clock));
                energy_pj += tech.fu_energy_pj(kind, wi);
            }
        }
        let mut fu_area = 0.0;
        let mut latency = 1u64;
        for kind in FuKind::ALL {
            let k = kind as usize;
            if widths[k].is_empty() {
                continue;
            }
            widths[k].sort_unstable_by(|a, b| b.cmp(a));
            // With `n` width-affine units, unit `i` serves roughly the
            // i-th descending width quantile of the operations.
            let n = self
                .constraints
                .resources
                .count(kind)
                .max(1)
                .min(widths[k].len());
            for i in 0..n {
                let idx = i * widths[k].len() / n;
                fu_area += tech.fu_area(kind, widths[k][idx]);
            }
            latency = latency.max(cycles[k].div_ceil(n as u64));
        }
        let area = fu_area + reg_area;
        // Same unit convention as CostReport: pJ / ns × 1000 = µW.
        let power_uw =
            energy_pj / (latency as f64 * clock) * 1000.0 + area * tech.leakage_uw_per_um2;
        self.weights.area * area
            + self.weights.power * power_uw
            + self.weights.latency * latency as f64
    }

    /// Full evaluation: real synthesis + noise.
    pub(crate) fn evaluate(&self, w: Vec<u8>) -> Result<Evaluation, OptError> {
        let config = WlConfig::from_precomputed_ranges(&self.node_ranges, &w)?;
        let imp = synthesize(self.dfg, &config, &self.constraints)?;
        let noise_power = self.noise_of_config(&config)?;
        let weighted_cost =
            imp.cost
                .weighted(self.weights.area, self.weights.power, self.weights.latency);
        Ok(Evaluation {
            word_lengths: w,
            config,
            cost: imp.cost,
            noise_power,
            weighted_cost,
        })
    }

    /// Clamps a uniform target to each node's feasible minimum.
    pub(crate) fn uniform_vector(&self, w: u8) -> Vec<u8> {
        self.min_w.iter().map(|&m| w.clamp(m, MAX_WIDTH)).collect()
    }

    // ------------------------------------------------------------------
    // Baselines
    // ------------------------------------------------------------------

    /// The uniform-word-length reference design (the "Fixed WL" column of
    /// the paper's tables).  Nodes whose integer part does not fit in `w`
    /// are widened to their minimum.
    ///
    /// # Errors
    ///
    /// Synthesis failures are propagated.
    pub fn uniform(&self, w: u8) -> Result<Evaluation, OptError> {
        self.evaluate(self.uniform_vector(w))
    }

    /// Exhaustive search over `w0 ± radius` per node (proxy-ranked,
    /// real-synthesis result).  Only for small graphs.
    ///
    /// The odometer's candidate space is split into one contiguous chunk
    /// of linear indices per worker (`threads == 0` means available
    /// parallelism; see [`sna_vm::worker_count`]), and the chunks run as
    /// [`sna_vm::run_ordered`] jobs.  Each chunk is walked with an
    /// incremental [`NoiseEval`] (odometer steps amortize to O(1)
    /// coordinate moves per candidate) and reports its best feasible
    /// `(proxy, index, widths)`.  The merge prefers lower proxy cost and
    /// breaks ties by candidate index, which makes the winner identical
    /// for every thread count — including `threads == 1`, the serial
    /// order of the classic implementation.
    ///
    /// # Errors
    ///
    /// [`OptError::SearchSpaceTooLarge`] when the candidate count exceeds
    /// `cap`; [`OptError::Infeasible`] when nothing meets the budget.
    pub fn exhaustive(
        &self,
        budget: f64,
        w0: u8,
        radius: u8,
        cap: u128,
        threads: usize,
    ) -> Result<Evaluation, OptError> {
        let base = self.uniform_vector(w0);
        let levels: Vec<Vec<u8>> = base
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let lo = b.saturating_sub(radius).max(self.min_w[i]);
                let hi = b.saturating_add(radius).min(MAX_WIDTH);
                (lo..=hi).collect()
            })
            .collect();
        let candidates: u128 = levels.iter().map(|l| l.len() as u128).product();
        if candidates > cap {
            return Err(OptError::SearchSpaceTooLarge { candidates, cap });
        }
        let workers =
            sna_vm::worker_count(usize::try_from(candidates).unwrap_or(usize::MAX), threads);
        let levels = &levels;
        // Decodes a linear candidate index into per-node level indices
        // (coordinate 0 is the fastest-cycling digit, as in the serial
        // odometer).
        let decode = |mut c: u128| -> Vec<usize> {
            levels
                .iter()
                .map(|l| {
                    let d = (c % l.len() as u128) as usize;
                    c /= l.len() as u128;
                    d
                })
                .collect()
        };
        type Best = Option<(f64, u128, Vec<u8>)>;
        let chunk = |t: usize| -> (u128, u128) {
            let t = t as u128;
            let n = workers as u128;
            (candidates * t / n, candidates * (t + 1) / n)
        };
        let limited = !self.exec_budget.is_unlimited();
        let run_chunk = |lo: u128, hi: u128| -> Result<Best, OptError> {
            let mut idx = decode(lo);
            let mut w: Vec<u8> = idx.iter().zip(levels).map(|(&d, l)| l[d]).collect();
            let mut ev = self.evaluator(&w)?;
            let mut scratch = self.proxy_scratch();
            let mut best: Best = None;
            let mut c = lo;
            let mut since_check = 0u32;
            loop {
                // Budget checkpoint every ~1024 candidates: cheap enough
                // to be noise, frequent enough that an overrun request
                // stops within a few thousand odometer steps.
                if limited {
                    if since_check == 0 {
                        self.exec_budget.check()?;
                    }
                    since_check = (since_check + 1) & 1023;
                }
                if ev.power() <= budget {
                    let proxy = self.proxy_cost_with(&w, &mut scratch);
                    if best.as_ref().map(|(p, _, _)| proxy < *p).unwrap_or(true) {
                        best = Some((proxy, c, w.clone()));
                    }
                }
                c += 1;
                if c == hi {
                    return Ok(best);
                }
                // Odometer advance; `c < candidates` guarantees a carry
                // never runs off the last digit.
                let mut k = 0;
                loop {
                    idx[k] += 1;
                    if idx[k] < levels[k].len() {
                        w[k] = levels[k][idx[k]];
                        ev.set(k, w[k])?;
                        break;
                    }
                    idx[k] = 0;
                    if w[k] != levels[k][0] {
                        w[k] = levels[k][0];
                        ev.set(k, w[k])?;
                    }
                    k += 1;
                }
            }
        };
        let mut merged: Best = None;
        for partial in sna_vm::run_ordered(workers, workers, |t| {
            let (lo, hi) = chunk(t);
            run_chunk(lo, hi)
        }) {
            if let Some((proxy, c, w)) = partial? {
                let better = merged
                    .as_ref()
                    .map(|(bp, bc, _)| proxy < *bp || (proxy == *bp && c < *bc))
                    .unwrap_or(true);
                if better {
                    merged = Some((proxy, c, w));
                }
            }
        }
        let (_, _, w) = merged.ok_or(OptError::Infeasible {
            budget,
            best_noise: f64::INFINITY,
        })?;
        self.evaluate(w)
    }

    /// Grouped greedy (Kum/Sung-style): one shared word length per node
    /// class (inputs, constants, adders, multipliers, dividers, delays),
    /// trimmed greedily under the budget.
    ///
    /// # Errors
    ///
    /// [`OptError::Infeasible`] when even the widest configuration misses
    /// the budget.
    pub fn group_greedy(&self, budget: f64, start_w: u8) -> Result<Evaluation, OptError> {
        use sna_dfg::Op;
        let group_of = |op: Op| -> usize {
            match op {
                Op::Input(_) => 0,
                Op::Const(_) => 1,
                Op::Add | Op::Sub | Op::Neg => 2,
                Op::Mul => 3,
                Op::Div => 4,
                Op::Delay => 5,
            }
        };
        let groups: Vec<usize> = self.dfg.nodes().map(|(_, n)| group_of(n.op())).collect();
        let n_groups = 6;
        let mut gw = vec![start_w.min(MAX_WIDTH); n_groups];
        let expand = |gw: &[u8], this: &Self| -> Vec<u8> {
            groups
                .iter()
                .enumerate()
                .map(|(i, &g)| gw[g].clamp(this.min_w[i], MAX_WIDTH))
                .collect()
        };
        let mut w = expand(&gw, self);
        let mut ev = self.evaluator(&w)?;
        let start_noise = ev.power();
        if start_noise > budget {
            return Err(OptError::Infeasible {
                budget,
                best_noise: start_noise,
            });
        }
        let mut scratch = self.proxy_scratch();
        let limited = !self.exec_budget.is_unlimited();
        loop {
            // One checkpoint per trim round — each round walks the
            // evaluator across every group, so rounds are coarse enough
            // that an unstrided check costs nothing.
            if limited {
                self.exec_budget.check()?;
            }
            let mut best: Option<(f64, usize)> = None;
            let current_proxy = self.proxy_cost_with(&w, &mut scratch);
            for g in 0..n_groups {
                if gw[g] == 0 {
                    continue;
                }
                let mut trial = gw.clone();
                trial[g] -= 1;
                let tw = expand(&trial, self);
                if tw == w {
                    continue; // clamped away: no actual change
                }
                // Group moves are a handful of coordinate deltas: walk the
                // evaluator there and back instead of re-evaluating from
                // scratch.
                let noise = ev.set_vector(&tw)?;
                let feasible = noise <= budget;
                let gain = if feasible {
                    current_proxy - self.proxy_cost_with(&tw, &mut scratch)
                } else {
                    0.0
                };
                ev.set_vector(&w)?;
                if !feasible {
                    continue;
                }
                if gain > 0.0 && best.as_ref().map(|(bg, _)| gain > *bg).unwrap_or(true) {
                    best = Some((gain, g));
                }
            }
            match best {
                Some((_, g)) => {
                    gw[g] -= 1;
                    w = expand(&gw, self);
                    ev.set_vector(&w)?;
                }
                None => return self.evaluate(w),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::{DfgBuilder, LtiOptions};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    fn small_session() -> Session {
        // y = 0.3·x1 + 0.6·x2 + 0.05·x3
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let x3 = b.input("x3");
        let t1 = b.mul_const(0.3, x1);
        let t2 = b.mul_const(0.6, x2);
        let t3 = b.mul_const(0.05, x3);
        let s1 = b.add(t1, t2);
        let y = b.add(s1, t3);
        b.output("y", y);
        Session::new(
            b.build().unwrap(),
            vec![iv(-1.0, 1.0), iv(-1.0, 1.0), iv(-1.0, 1.0)],
        )
        .unwrap()
    }

    fn optimizer(session: &Session) -> Optimizer<'_> {
        Optimizer::new(session, SynthesisConstraints::default()).unwrap()
    }

    #[test]
    fn uniform_reference_is_feasible_and_monotone() {
        let s = small_session();
        let opt = optimizer(&s);
        let e8 = opt.uniform(8).unwrap();
        let e16 = opt.uniform(16).unwrap();
        assert!(e16.noise_power < e8.noise_power);
        assert!(e16.cost.area_um2 > e8.cost.area_um2);
        // Noise drops ~2^-2W: 8 extra bits ⇒ ×≈1/65536; allow slack for
        // the coefficient-rounding terms.
        assert!(e8.noise_power / e16.noise_power > 1.0e3);
    }

    #[test]
    fn exhaustive_beats_or_matches_uniform() {
        let s = small_session();
        let opt = optimizer(&s);
        let fixed = opt.uniform(10).unwrap();
        let best = opt
            .exhaustive(fixed.noise_power, 10, 1, 10_000_000, 0)
            .unwrap();
        assert!(best.noise_power <= fixed.noise_power * (1.0 + 1e-12));
        let fixed_proxy = opt.proxy_cost(&fixed.word_lengths);
        let best_proxy = opt.proxy_cost(&best.word_lengths);
        assert!(best_proxy <= fixed_proxy + 1e-9);
    }

    #[test]
    fn exhaustive_respects_cap() {
        let s = small_session();
        let opt = optimizer(&s);
        assert!(matches!(
            opt.exhaustive(1.0, 10, 4, 10, 0),
            Err(OptError::SearchSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn exhaustive_at_radius_255_reports_the_cap_instead_of_panicking() {
        // `w0 + radius` saturates at the width ceiling, so every node keeps
        // a non-empty level list and the count hits the cap guard.
        let s = small_session();
        let opt = optimizer(&s);
        match opt.exhaustive(1.0, 4, 255, 2_000_000, 0) {
            Err(OptError::SearchSpaceTooLarge { candidates, cap }) => {
                assert_eq!(cap, 2_000_000);
                assert!(candidates > cap);
            }
            other => panic!("expected the cap error, got {other:?}"),
        }
    }

    #[test]
    fn group_greedy_meets_budget() {
        let s = small_session();
        let opt = optimizer(&s);
        let fixed = opt.uniform(10).unwrap();
        let grouped = opt.group_greedy(fixed.noise_power, 18).unwrap();
        assert!(grouped.noise_power <= fixed.noise_power * (1.0 + 1e-12));
    }

    #[test]
    fn infeasible_budget_is_reported() {
        let s = small_session();
        let opt = optimizer(&s);
        assert!(matches!(
            opt.group_greedy(1e-300, 12),
            Err(OptError::Infeasible { .. })
        ));
    }

    #[test]
    fn nonlinear_combinational_uses_the_histogram_fallback() {
        // y = x·x + 0.5·x — nonlinear, so the NA model cannot build; the
        // optimizer must still work via DfgEngine noise evaluation.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let sq = b.mul(x, x);
        let t = b.mul_const(0.5, x);
        let y = b.add(sq, t);
        b.output("y", y);
        let s = Session::new(b.build().unwrap(), vec![iv(-1.0, 1.0)]).unwrap();
        let opt = optimizer(&s);
        assert!(opt.na_model().is_none());
        let fixed = opt.uniform(10).unwrap();
        assert!(fixed.noise_power > 0.0);
        let tuned = opt.greedy(fixed.noise_power, 14).unwrap();
        assert!(tuned.noise_power <= fixed.noise_power * (1.0 + 1e-12));
        let fixed_proxy = opt.proxy_cost(&fixed.word_lengths);
        let tuned_proxy = opt.proxy_cost(&tuned.word_lengths);
        assert!(tuned_proxy <= fixed_proxy * (1.0 + 1e-9));
    }

    #[test]
    fn nonlinear_sequential_still_errors() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let sq = b.mul(fb, fb);
        let scaled = b.mul_const(0.1, sq);
        let y = b.add(x, scaled);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let s = Session::new(b.build().unwrap(), vec![iv(-0.5, 0.5)]).unwrap();
        assert!(Optimizer::new(&s, SynthesisConstraints::default()).is_err());
    }

    #[test]
    fn from_session_matches_standalone_construction() {
        let s = small_session();
        let opt = optimizer(&s);
        // Reference: a model built from scratch over the same graph.
        let scratch = NaModel::build(s.dfg(), s.input_ranges(), &LtiOptions::default()).unwrap();
        let reference = |w: &[u8]| {
            let cfg = WlConfig::from_precomputed_ranges(&opt.node_ranges, w).unwrap();
            scratch.total_power(s.dfg(), &cfg)
        };
        let w = opt.uniform_vector(10);
        assert_eq!(opt.noise_of(&w).unwrap().to_bits(), reference(&w).to_bits());
        let tuned = opt
            .greedy(opt.uniform(10).unwrap().noise_power, 14)
            .unwrap();
        assert_eq!(
            tuned.noise_power.to_bits(),
            reference(&tuned.word_lengths).to_bits()
        );
        // The session's model is reused, not rebuilt.
        assert_eq!(s.stats().na_builds, 1);
    }

    #[test]
    fn session_evaluators_share_one_histogram_memo() {
        // Nonlinear: y = x·x (histogram fallback).
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let sq = b.mul(x, x);
        b.output("y", sq);
        let session = Session::new(b.build().unwrap(), vec![iv(-1.0, 1.0)]).unwrap();
        let opt = optimizer(&session);
        assert!(opt.na_model().is_none());
        let start = opt.uniform_vector(12);

        let mut ev1 = opt.evaluator(&start).unwrap();
        let p1 = ev1.probe(0, 10).unwrap();
        let populated = session.hist_memo().len();
        assert!(populated > 0, "first evaluator feeds the shared memo");

        // A second evaluator (as a parallel search thread would create)
        // replays the same probe entirely from the shared memo.
        let mut ev2 = opt.evaluator(&start).unwrap();
        let before = session.hist_memo().len();
        let p2 = ev2.probe(0, 10).unwrap();
        assert_eq!(p1.to_bits(), p2.to_bits());
        assert_eq!(
            session.hist_memo().len(),
            before,
            "replayed probe added no new states"
        );
    }

    #[test]
    fn pre_cancelled_exec_budget_stops_every_search() {
        use crate::AnnealOptions;
        let s = small_session();
        let fixed = optimizer(&s).uniform(10).unwrap();
        let opt = optimizer(&s).with_exec_budget(Budget::pre_cancelled());
        let cancelled = |res: Result<Evaluation, OptError>| {
            assert!(
                matches!(res, Err(OptError::Sna(sna_core::SnaError::Cancelled))),
                "expected a cancellation"
            );
        };
        cancelled(opt.exhaustive(fixed.noise_power, 10, 1, 10_000_000, 0));
        cancelled(opt.group_greedy(fixed.noise_power, 18));
        cancelled(opt.anneal(fixed.noise_power, 14, &AnnealOptions::default()));
    }

    #[test]
    fn overrun_deadline_surfaces_as_deadline_exceeded() {
        let s = small_session();
        let fixed = optimizer(&s).uniform(10).unwrap();
        let opt = optimizer(&s).with_exec_budget(Budget::with_timeout(std::time::Duration::ZERO));
        match opt.exhaustive(fixed.noise_power, 10, 1, 10_000_000, 0) {
            Err(OptError::Sna(e)) => {
                assert_eq!(e.to_string(), "deadline exceeded");
            }
            other => panic!("expected a deadline error, got {other:?}"),
        }
    }

    #[test]
    fn generous_exec_budget_is_bit_identical_to_unlimited() {
        let s = small_session();
        let plain = optimizer(&s);
        let fixed = plain.uniform(10).unwrap();
        let best = plain
            .exhaustive(fixed.noise_power, 10, 1, 10_000_000, 0)
            .unwrap();
        let budgeted = optimizer(&s)
            .with_exec_budget(Budget::with_timeout(std::time::Duration::from_secs(3600)));
        let best_b = budgeted
            .exhaustive(fixed.noise_power, 10, 1, 10_000_000, 0)
            .unwrap();
        assert_eq!(best.word_lengths, best_b.word_lengths);
        assert_eq!(best.noise_power.to_bits(), best_b.noise_power.to_bits());
    }

    #[test]
    fn min_word_lengths_fit_ranges() {
        let s = small_session();
        let opt = optimizer(&s);
        for (i, &m) in opt.min_word_lengths().iter().enumerate() {
            assert!(
                sna_fixp::Format::from_range(opt.node_ranges[i], m).is_ok(),
                "node {i} min {m}"
            );
        }
    }
}
