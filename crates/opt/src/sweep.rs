//! Resumable Pareto design-space exploration.
//!
//! [`pareto_explore`] sweeps the word-length design space along two
//! axes — a geometric ladder of noise budgets and the three unit cost
//! objectives (area, power, latency) — running one deterministic
//! noise-constrained search per (budget, objective) candidate and
//! folding every result into a canonical Pareto front over
//! (area, power, latency, noise).
//!
//! The sweep is built to survive being killed:
//!
//! * candidates are processed in **blocks** of
//!   [`ParetoSweepSpec::checkpoint_every`]; inside a block they fan out
//!   through [`sna_vm::run_ordered`], which returns results in candidate
//!   order, so the frontier after each block is independent of the
//!   thread count;
//! * after each block the cursor and the frontier's word-length vectors
//!   are checkpointed to a [`sna_store::Store`] (kind
//!   [`CKPT_KIND`]), keyed by a hash of the full sweep identity —
//!   graph shape *and* constants, input ranges, and every spec knob;
//! * a later call with the same session and spec **resumes** from the
//!   checkpoint: stored word-length vectors are re-evaluated (synthesis
//!   and noise evaluation are deterministic), the remaining candidates
//!   run, and because [`crate::pareto_front`] is a pure function of the
//!   point *set*, the resumed frontier is bit-identical to an
//!   uninterrupted run's.
//!
//! A corrupt, truncated or foreign checkpoint is discarded and the
//! sweep starts cold — never a panic, never a wrong frontier.

use sna_core::Session;
use sna_hls::SynthesisConstraints;
use sna_store::{Store, WireError, WireReader, WireWriter};

use crate::pareto::{canonical_cmp, dominates};
use crate::{Evaluation, OptError, Optimizer};

/// Store object kind under which sweep checkpoints live.
pub const CKPT_KIND: &str = "pareto-ckpt";

/// The unit cost objective a sweep candidate minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepObjective {
    /// Minimize area (µm²) under the noise budget.
    Area,
    /// Minimize power (µW) under the noise budget.
    Power,
    /// Minimize latency (cycles) under the noise budget.
    Latency,
}

impl SweepObjective {
    /// All objectives, in candidate order.
    pub const ALL: [SweepObjective; 3] = [
        SweepObjective::Area,
        SweepObjective::Power,
        SweepObjective::Latency,
    ];

    /// Stable display name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SweepObjective::Area => "area",
            SweepObjective::Power => "power",
            SweepObjective::Latency => "latency",
        }
    }

    fn weights(self) -> crate::CostWeights {
        let mut w = crate::CostWeights {
            area: 0.0,
            power: 0.0,
            latency: 0.0,
        };
        match self {
            SweepObjective::Area => w.area = 1.0,
            SweepObjective::Power => w.power = 1.0,
            SweepObjective::Latency => w.latency = 1.0,
        }
        w
    }

    fn tag(self) -> u8 {
        match self {
            SweepObjective::Area => 0,
            SweepObjective::Power => 1,
            SweepObjective::Latency => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<SweepObjective> {
        SweepObjective::ALL.into_iter().find(|o| o.tag() == tag)
    }
}

/// Shape of a Pareto sweep: which designs are visited and how often the
/// frontier is checkpointed.  Every field is part of the checkpoint
/// identity — changing any knob starts a fresh sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParetoSweepSpec {
    /// Uniform width whose noise sets the *loosest* budget.
    pub w_lo: u8,
    /// Uniform width whose noise sets the *tightest* budget; also the
    /// per-candidate search start.
    pub w_hi: u8,
    /// Number of noise budgets on the geometric ladder.
    pub noise_points: usize,
    /// Candidates per checkpointed block.
    pub checkpoint_every: usize,
    /// Worker threads per block (`0` = available parallelism, at most
    /// [`sna_vm::MAX_WORKERS`]).  Not part of the result: any thread
    /// count produces the same frontier.
    pub threads: usize,
}

impl Default for ParetoSweepSpec {
    fn default() -> Self {
        ParetoSweepSpec {
            w_lo: 6,
            w_hi: 14,
            noise_points: 8,
            checkpoint_every: 6,
            threads: 0,
        }
    }
}

/// One point of the swept frontier.
#[derive(Clone, Debug)]
pub struct FrontPoint {
    /// The unit objective whose search produced the point.
    pub objective: SweepObjective,
    /// The full evaluation (widths, cost report, noise).
    pub eval: Evaluation,
}

/// Result of [`pareto_explore`].
#[derive(Debug)]
pub struct ParetoOutcome {
    /// The non-dominated set, in canonical order.
    pub frontier: Vec<FrontPoint>,
    /// Total candidates in the sweep.
    pub total: usize,
    /// Candidates evaluated by *this* call.
    pub evaluated: usize,
    /// Cursor restored from a store checkpoint (`0` = cold start).
    pub resumed_at: usize,
    /// Checkpoints written by this call.
    pub checkpoints: usize,
}

/// The canonical Pareto filter over tagged points: same order and
/// semantics as [`crate::pareto_front`], with the objective tag as the
/// final tiebreak so duplicate configurations collapse
/// deterministically (lowest tag survives).
fn front_tagged(mut points: Vec<(u8, Evaluation)>) -> Vec<(u8, Evaluation)> {
    points.sort_by(|a, b| canonical_cmp(&a.1, &b.1).then(a.0.cmp(&b.0)));
    points.dedup_by(|a, b| canonical_cmp(&a.1, &b.1) == std::cmp::Ordering::Equal);
    let mut kept: Vec<(u8, Evaluation)> = Vec::new();
    'points: for p in points {
        for k in &kept {
            if dominates(&k.1, &p.1) {
                continue 'points;
            }
        }
        kept.push(p);
    }
    kept
}

/// The full identity of a sweep: graph shape, constants, input ranges
/// and every spec knob except the (result-neutral) thread count.  The
/// checkpoint key is this text's FNV-1a hash; the text itself rides in
/// the payload so a key collision reads as a miss, never as a wrong
/// resume.
fn spec_text(session: &Session, spec: &ParetoSweepSpec) -> String {
    use std::fmt::Write;
    let mut out = session.dfg().shape_signature();
    for c in session.dfg().const_values() {
        let _ = writeln!(out, "c {:016x}", c.to_bits());
    }
    for r in session.input_ranges() {
        let _ = writeln!(out, "r {:016x} {:016x}", r.lo().to_bits(), r.hi().to_bits());
    }
    let _ = writeln!(
        out,
        "sweep w {}..{} k {} block {}",
        spec.w_lo, spec.w_hi, spec.noise_points, spec.checkpoint_every
    );
    out
}

fn encode_checkpoint(
    text: &str,
    total: usize,
    cursor: usize,
    frontier: &[(u8, Evaluation)],
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.str(text);
    w.u64(total as u64);
    w.u64(cursor as u64);
    w.len(frontier.len());
    for (tag, e) in frontier {
        w.u8(*tag);
        w.bytes(&e.word_lengths);
    }
    w.finish()
}

/// Decoded checkpoint body: candidate cursor plus (objective tag,
/// widths) per frontier point.
type CheckpointBody = (usize, Vec<(u8, Vec<u8>)>);

fn decode_checkpoint(
    bytes: &[u8],
    text: &str,
    total: usize,
    n_nodes: usize,
) -> Result<Option<CheckpointBody>, WireError> {
    let mut r = WireReader::new(bytes);
    if r.str()? != text {
        // A different sweep's checkpoint under a colliding key: not
        // corruption, just not ours.
        return Ok(None);
    }
    if r.u64()? != total as u64 {
        return Err(WireError::new("candidate count mismatch"));
    }
    let cursor = usize::try_from(r.u64()?).map_err(|_| WireError::new("cursor"))?;
    if cursor > total {
        return Err(WireError::new("cursor out of range"));
    }
    let n = r.read_count(9)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        if SweepObjective::from_tag(tag).is_none() {
            return Err(WireError::new(format!("bad objective tag {tag}")));
        }
        let widths = r.bytes()?;
        if widths.len() != n_nodes {
            return Err(WireError::new("width vector length mismatch"));
        }
        points.push((tag, widths));
    }
    r.expect_end()?;
    Ok(Some((cursor, points)))
}

/// Sweeps the design space and returns the Pareto frontier, resuming
/// from (and checkpointing to) `store` when one is given.
///
/// Candidates are `noise_points` geometric noise budgets — spanning the
/// noise of the uniform `w_hi` design (tight) to the uniform `w_lo`
/// design (loose) — crossed with the three unit objectives; each runs
/// the deterministic grouped-greedy search from `w_hi`.  The frontier
/// and its order depend only on the candidate *set*, so thread counts,
/// checkpoint boundaries and kill/resume cycles cannot change the
/// result.
///
/// # Errors
///
/// Spec validation, noise-model, synthesis and configuration failures
/// are propagated.  Store I/O failures while *writing* checkpoints are
/// ignored (the sweep still completes); unreadable checkpoints degrade
/// to a cold start.
pub fn pareto_explore(
    session: &Session,
    constraints: SynthesisConstraints,
    spec: &ParetoSweepSpec,
    store: Option<&Store>,
) -> Result<ParetoOutcome, OptError> {
    if spec.noise_points == 0 || spec.checkpoint_every == 0 || spec.w_lo > spec.w_hi {
        return Err(OptError::InvalidSweepSpec {
            w_lo: spec.w_lo,
            w_hi: spec.w_hi,
            noise_points: spec.noise_points,
            checkpoint_every: spec.checkpoint_every,
        });
    }
    let mut optimizers = Vec::with_capacity(SweepObjective::ALL.len());
    for obj in SweepObjective::ALL {
        optimizers.push(Optimizer::new(session, constraints.clone())?.with_weights(obj.weights()));
    }
    let optimizers = &optimizers;

    // The budget ladder: geometric between the tight (wide design) and
    // loose (narrow design) uniform noise levels, linear fallback if a
    // degenerate model yields non-positive noise.
    let n_tight = optimizers[0].noise_of(&optimizers[0].uniform_vector(spec.w_hi))?;
    let n_loose = optimizers[0].noise_of(&optimizers[0].uniform_vector(spec.w_lo))?;
    let k = spec.noise_points;
    let budgets: Vec<f64> = (0..k)
        .map(|i| {
            let t = if k == 1 {
                0.0
            } else {
                i as f64 / (k - 1) as f64
            };
            // Exact endpoints: `exp(ln(x))` loses the last bits, and a
            // budget one ulp under the start design's own noise would
            // make the tightest candidate spuriously infeasible.
            if i == 0 {
                n_tight
            } else if i == k - 1 {
                n_loose
            } else if n_tight > 0.0 && n_loose > 0.0 {
                (n_tight.ln() * (1.0 - t) + n_loose.ln() * t).exp()
            } else {
                n_tight * (1.0 - t) + n_loose * t
            }
        })
        .collect();
    let budgets = &budgets;
    let total = k * SweepObjective::ALL.len();

    // One candidate: index → (objective, budget) → deterministic search.
    // An infeasible budget yields no point rather than failing the
    // sweep (cannot happen on the ladder above, but spec'd budgets may
    // later come from elsewhere).
    let objective_of = |c: usize| SweepObjective::ALL[c % SweepObjective::ALL.len()];
    let run_candidate = |c: usize| -> Result<Option<Evaluation>, OptError> {
        let obj = objective_of(c);
        let budget = budgets[c / SweepObjective::ALL.len()];
        match optimizers[obj.tag() as usize].group_greedy(budget, spec.w_hi) {
            Ok(e) => Ok(Some(e)),
            Err(OptError::Infeasible { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    };

    let text = spec_text(session, spec);
    let key = sna_store::fnv1a_64(text.as_bytes());
    let n_nodes = session.dfg().len();

    // Resume: re-evaluate the checkpointed widths (deterministic), or
    // start cold on any damage.
    let mut cursor = 0usize;
    let mut frontier: Vec<(u8, Evaluation)> = Vec::new();
    if let Some(store) = store {
        if let Some(payload) = store.get(CKPT_KIND, key) {
            match decode_checkpoint(&payload, &text, total, n_nodes) {
                Ok(Some((at, points))) => {
                    let mut restored = Vec::with_capacity(points.len());
                    let mut ok = true;
                    for (tag, widths) in points {
                        match optimizers[tag as usize].evaluate(widths) {
                            Ok(e) => restored.push((tag, e)),
                            Err(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        cursor = at;
                        frontier = front_tagged(restored);
                    } else {
                        store.discard(CKPT_KIND, key);
                    }
                }
                Ok(None) => {}
                Err(_) => store.discard(CKPT_KIND, key),
            }
        }
    }

    let resumed_at = cursor;
    let mut checkpoints = 0usize;

    while cursor < total {
        let hi = (cursor + spec.checkpoint_every).min(total);
        // Fan the block out; results come back in candidate order.
        let block = sna_vm::run_ordered(hi - cursor, spec.threads, |j| run_candidate(cursor + j))
            .into_iter()
            .collect::<Result<Vec<_>, OptError>>()?;
        for (c, eval) in (cursor..hi).zip(block) {
            if let Some(e) = eval {
                frontier.push((objective_of(c).tag(), e));
            }
        }
        frontier = front_tagged(frontier);
        cursor = hi;
        if let Some(store) = store {
            // Best-effort: a full disk must not fail the sweep.
            if store
                .put(
                    CKPT_KIND,
                    key,
                    &encode_checkpoint(&text, total, cursor, &frontier),
                )
                .is_ok()
            {
                checkpoints += 1;
            }
        }
    }

    Ok(ParetoOutcome {
        frontier: frontier
            .into_iter()
            .map(|(tag, eval)| FrontPoint {
                objective: SweepObjective::from_tag(tag).expect("tags are internal"),
                eval,
            })
            .collect(),
        total,
        evaluated: total - resumed_at,
        resumed_at,
        checkpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::DfgBuilder;
    use sna_interval::Interval;

    fn session() -> Session {
        // A 3-tap FIR: enough structure for the objectives to disagree.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let x1 = b.delay(x);
        let x2 = b.delay(x1);
        let t0 = b.mul_const(0.25, x);
        let t1 = b.mul_const(0.5, x1);
        let t2 = b.mul_const(0.25, x2);
        let s = b.add(t0, t1);
        let y = b.add(s, t2);
        b.output("y", y);
        Session::new(b.build().unwrap(), vec![Interval::new(-1.0, 1.0).unwrap()]).unwrap()
    }

    fn spec() -> ParetoSweepSpec {
        ParetoSweepSpec {
            w_lo: 6,
            w_hi: 12,
            noise_points: 3,
            checkpoint_every: 4,
            threads: 2,
        }
    }

    fn frontier_fingerprint(outcome: &ParetoOutcome) -> Vec<(u8, Vec<u8>, u64, u64)> {
        outcome
            .frontier
            .iter()
            .map(|p| {
                (
                    p.objective.tag(),
                    p.eval.word_lengths.clone(),
                    p.eval.noise_power.to_bits(),
                    p.eval.cost.area_um2.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_produces_a_nondominated_frontier() {
        let s = session();
        let outcome = pareto_explore(&s, SynthesisConstraints::default(), &spec(), None).unwrap();
        assert_eq!(outcome.total, 9);
        assert_eq!(outcome.evaluated, 9);
        assert_eq!(outcome.resumed_at, 0);
        assert!(!outcome.frontier.is_empty());
        for (i, a) in outcome.frontier.iter().enumerate() {
            for (j, b) in outcome.frontier.iter().enumerate() {
                if i != j {
                    assert!(!dominates(&a.eval, &b.eval));
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_frontier() {
        let s = session();
        let mut serial = spec();
        serial.threads = 1;
        let mut wide = spec();
        wide.threads = 8;
        let a = pareto_explore(&s, SynthesisConstraints::default(), &serial, None).unwrap();
        let b = pareto_explore(&s, SynthesisConstraints::default(), &wide, None).unwrap();
        assert_eq!(frontier_fingerprint(&a), frontier_fingerprint(&b));
    }

    #[test]
    fn checkpointed_resume_is_bit_identical() {
        let s = session();
        let spec = spec();
        let dir = std::env::temp_dir().join(format!("sna-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();

        let uninterrupted =
            pareto_explore(&s, SynthesisConstraints::default(), &spec, None).unwrap();

        // Simulate a kill after the first checkpoint: run once with the
        // store, then *rewind* the checkpoint to its first-block state
        // by rewriting it from a truncated run. Easiest faithful way:
        // run a fresh sweep against an empty store but stop it by
        // making every candidate after the first block fail — instead,
        // just write the real first-block checkpoint by hand.
        let full =
            pareto_explore(&s, SynthesisConstraints::default(), &spec, Some(&store)).unwrap();
        assert!(full.checkpoints >= 2, "{full:?}");
        assert_eq!(
            frontier_fingerprint(&full),
            frontier_fingerprint(&uninterrupted)
        );

        // Resume from a *partial* checkpoint: reconstruct the cursor-4
        // state (first block only) and verify the resumed run matches
        // the uninterrupted frontier bit for bit.
        let text = spec_text(&s, &spec);
        let key = sna_store::fnv1a_64(text.as_bytes());
        let mut partial: Vec<(u8, Evaluation)> = Vec::new();
        {
            // Recompute the first block exactly as the sweep does.
            let mut one_block = spec;
            one_block.threads = 1;
            let constraints = SynthesisConstraints::default();
            let opts: Vec<Optimizer> = SweepObjective::ALL
                .iter()
                .map(|o| {
                    Optimizer::new(&s, constraints.clone())
                        .unwrap()
                        .with_weights(o.weights())
                })
                .collect();
            let n_tight = opts[0]
                .noise_of(&opts[0].uniform_vector(spec.w_hi))
                .unwrap();
            let n_loose = opts[0]
                .noise_of(&opts[0].uniform_vector(spec.w_lo))
                .unwrap();
            for c in 0..one_block.checkpoint_every {
                let i = c / 3;
                let t = i as f64 / (spec.noise_points - 1) as f64;
                let budget = match i {
                    0 => n_tight,
                    i if i == spec.noise_points - 1 => n_loose,
                    _ => (n_tight.ln() * (1.0 - t) + n_loose.ln() * t).exp(),
                };
                let e = opts[c % 3].group_greedy(budget, spec.w_hi).unwrap();
                partial.push(((c % 3) as u8, e));
            }
            partial = front_tagged(partial);
        }
        store
            .put(
                CKPT_KIND,
                key,
                &encode_checkpoint(&text, 9, spec.checkpoint_every, &partial),
            )
            .unwrap();
        let resumed =
            pareto_explore(&s, SynthesisConstraints::default(), &spec, Some(&store)).unwrap();
        assert_eq!(resumed.resumed_at, spec.checkpoint_every);
        assert_eq!(resumed.evaluated, 9 - spec.checkpoint_every);
        assert_eq!(
            frontier_fingerprint(&resumed),
            frontier_fingerprint(&uninterrupted)
        );

        // A *finished* checkpoint short-circuits the whole sweep.
        let warm =
            pareto_explore(&s, SynthesisConstraints::default(), &spec, Some(&store)).unwrap();
        assert_eq!(warm.evaluated, 0);
        assert_eq!(warm.resumed_at, 9);
        assert_eq!(
            frontier_fingerprint(&warm),
            frontier_fingerprint(&uninterrupted)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_degrade_to_a_cold_start() {
        let s = session();
        let spec = spec();
        let dir = std::env::temp_dir().join(format!("sna-sweep-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let text = spec_text(&s, &spec);
        let key = sna_store::fnv1a_64(text.as_bytes());

        // Schema-valid frame, garbage payload.
        store.put(CKPT_KIND, key, b"not a checkpoint").unwrap();
        let outcome =
            pareto_explore(&s, SynthesisConstraints::default(), &spec, Some(&store)).unwrap();
        assert_eq!(outcome.resumed_at, 0, "corrupt checkpoint must not resume");
        assert!(store.stats().corrupt >= 1);

        // A checkpoint for a *different* spec under our key: plain miss.
        let mut other = spec;
        other.noise_points += 1;
        let other_text = spec_text(&s, &other);
        store
            .put(CKPT_KIND, key, &encode_checkpoint(&other_text, 12, 12, &[]))
            .unwrap();
        let outcome =
            pareto_explore(&s, SynthesisConstraints::default(), &spec, Some(&store)).unwrap();
        assert_eq!(outcome.resumed_at, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let s = session();
        let mut bad = spec();
        bad.noise_points = 0;
        assert!(matches!(
            pareto_explore(&s, SynthesisConstraints::default(), &bad, None),
            Err(OptError::InvalidSweepSpec { .. })
        ));
        let mut bad = spec();
        bad.w_lo = 14;
        bad.w_hi = 6;
        assert!(matches!(
            pareto_explore(&s, SynthesisConstraints::default(), &bad, None),
            Err(OptError::InvalidSweepSpec { .. })
        ));
    }
}
