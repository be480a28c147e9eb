//! The correctness gate: every distinct response the server gave is
//! compared with a reference computed in-process on a fresh session
//! (no cache, no transport), plus the paper's cross-engine promise (LTI
//! moments equal NA moments) and seeded-simulation repeatability.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use sna_service::Json;

use crate::client::{Phase, Tier};
use crate::verbs;
use crate::workload::Stream;

/// Numbers in shape-hit responses come from patched gains and may
/// differ from a fresh compile by this much, relative.
pub const SHAPE_HIT_TOL: f64 = 1e-9;

#[derive(Default)]
pub struct Verdict {
    /// Requests that failed: error responses, wrong results, lost replies.
    pub failed: u64,
    /// Independent checks that failed (cross-engine, repeatability).
    pub broken_checks: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn note(&mut self, note: String) {
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Structural facts of one design, recorded for every design a run sends.
#[derive(Clone, Copy, Debug)]
pub struct Facts {
    pub nodes: usize,
    pub delays: usize,
    pub inputs: usize,
    pub linear: bool,
}

/// The in-process answer to one request body.
pub struct Reference {
    /// The `result` member `sna serve` should answer with.
    pub result: Result<Json, String>,
    pub facts: Option<Facts>,
}

/// References for every body of `stream`, computed on `threads` threads.
pub fn references(stream: &Stream, threads: usize) -> HashMap<u32, Reference> {
    let next = AtomicUsize::new(0);
    let bodies = &stream.bodies;
    let parts: Vec<Vec<(u32, Reference)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(k) else { break };
                        out.push((k as u32, reference(&body.text)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

fn reference(body: &str) -> Reference {
    let mut facts = None;
    let mut answer = || -> Result<Json, String> {
        let doc = Json::parse(&format!("{{{body}}}"))?;
        let (source, params) = verbs::params(&doc)?;
        let entry = verbs::fresh_entry(source)?;
        let dfg = entry.session.dfg();
        facts = Some(Facts {
            nodes: dfg.len(),
            delays: dfg.delay_nodes().len(),
            inputs: dfg.n_inputs(),
            linear: dfg.is_linear(),
        });
        let outcome = verbs::execute(&entry, &params)?;
        // Through the wire format, so non-finite numbers read as `null`
        // on both sides.
        Json::parse(&verbs::render(&outcome, &params).to_compact())
    };
    let result = answer();
    Reference { result, facts }
}

/// Checks every response of `phases` (which all ran `stream`).
pub fn check(stream: &Stream, phases: &[&Phase], refs: &HashMap<u32, Reference>) -> Verdict {
    let mut verdict = Verdict::default();

    // (source, bits) → resolved engine → reports, for the LTI/NA check.
    let mut moments: BTreeMap<(String, u64), Vec<(String, Json)>> = BTreeMap::new();
    // Simulate body → its distinct results.
    let mut sim_results: HashMap<u32, Vec<Json>> = HashMap::new();

    for phase in phases {
        verdict.failed += phase.lost;
        for e in &phase.errors {
            verdict.note(e.clone());
        }
        for (text, &(count, first)) in &phase.responses {
            let body_idx = stream.ids[first as usize];
            let class = &stream.bodies[body_idx as usize].class;
            let body = &stream.bodies[body_idx as usize].text;
            let request = Json::parse(&format!("{{{body}}}")).expect("generated JSON");
            match check_one(text, &request, &refs[&body_idx].result) {
                Ok(result) => {
                    let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or("");
                    let source = request.get("source").and_then(Json::as_str).unwrap_or("");
                    let bits = request.get("bits").and_then(Json::as_f64).unwrap_or(12.0);
                    if cmd == "analyze" {
                        if let (Some(engine), Some(reports)) = (
                            result.get("engine").and_then(Json::as_str),
                            result.get("reports"),
                        ) {
                            moments
                                .entry((source.to_string(), bits as u64))
                                .or_default()
                                .push((engine.to_string(), reports.clone()));
                        }
                    } else if cmd == "simulate" {
                        let seen = sim_results.entry(body_idx).or_default();
                        if !seen.iter().any(|r| verbs::same(r, &result, 0.0)) {
                            seen.push(result);
                        }
                    }
                }
                Err(why) => {
                    verdict.failed += count;
                    verdict.note(format!("request {first} ({class}): {why}"));
                }
            }
        }
    }

    for ((source, bits), runs) in &moments {
        let lti = runs.iter().find(|(e, _)| e == "lti");
        let na = runs.iter().find(|(e, _)| e == "na");
        if let (Some((_, lti)), Some((_, na))) = (lti, na) {
            if !moments_equal(lti, na) {
                verdict.broken_checks += 1;
                let first_line = source.lines().next().unwrap_or("");
                verdict.note(format!(
                    "LTI moments differ from NA moments ({first_line} …, {bits} bits)"
                ));
            }
        }
    }
    for (body_idx, results) in &sim_results {
        if results.len() > 1 {
            verdict.broken_checks += 1;
            verdict.note(format!(
                "seeded simulate body {body_idx} answered {} different results",
                results.len()
            ));
        }
    }
    verdict
}

/// Checks one normalized response against its reference; returns the
/// response's `result` member.
fn check_one(text: &str, request: &Json, reference: &Result<Json, String>) -> Result<Json, String> {
    let response =
        Json::parse(&format!("{{{text}")).map_err(|e| format!("unparsable response ({e})"))?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = response.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("error response: {error}"));
    }
    if response.get("cmd") != request.get("cmd") {
        return Err("response echoes another cmd".to_string());
    }
    let reference = reference
        .as_ref()
        .map_err(|e| format!("reference failed: {e}"))?;
    let result = response.get("result").ok_or("response without result")?;
    let tier = response.get("cache").and_then(Json::as_str).unwrap_or("");
    let tol = if tier == Tier::ShapeHit.name() {
        SHAPE_HIT_TOL
    } else {
        0.0
    };
    if let Some(diff) = verbs::first_difference(result, reference, tol) {
        return Err(format!(
            "result differs from the in-process reference ({tier}) at result{diff}"
        ));
    }
    Ok(result.clone())
}

/// Mean, variance and support of every output agree exactly.
fn moments_equal(lti: &Json, na: &Json) -> bool {
    let (Json::Arr(a), Json::Arr(b)) = (lti, na) else {
        return false;
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            ["output", "mean", "variance", "support"]
                .iter()
                .all(|k| x.get(k) == y.get(k))
        })
}
