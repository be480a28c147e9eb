//! The three workloads as seeded request streams.
//!
//! A request line is `{"id":N,<body>}`; bodies are interned, so a stream
//! of a million tiny requests stores a handful of strings plus one index
//! per request. The server only ever sees the generated lines.
//!
//! Every stream is a sequence of *decks*: one deck holds a fixed multiset
//! of request kinds, shuffled per cycle from the seed. The seed therefore
//! changes the order, the coefficients and the design structure, but not
//! the cost mix — which keeps run-to-run spread small across seeds.

use std::collections::HashMap;
use std::path::Path;

use sna_service::Json;

use crate::rng::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmMix,
    ColdSweep,
    TinyPipelined,
}

/// Concurrent connections, each driven by its own closed-loop thread:
/// at most `nproc`, and two at most. On two cores a single connection
/// left latency at the mercy of thread wake-ups (tiny-pipelined's p90
/// varied by 0.43 of its median over ten seeds; with two connections,
/// which keep the server's workers fed, by 0.17).
pub fn connections(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmMix,
        Workload::ColdSweep,
        Workload::TinyPipelined,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMix => "warm-mix",
            Workload::ColdSweep => "cold-sweep",
            Workload::TinyPipelined => "tiny-pipelined",
        }
    }

    /// Requests written per batch before the caller waits for replies.
    pub fn depth(self) -> usize {
        match self {
            Workload::TinyPipelined => 64,
            Workload::WarmMix | Workload::ColdSweep => 1,
        }
    }
}

/// Warm-mix designs: every shipped example, with the analytic engines
/// that apply to it and the word lengths its ranges fit. `cartesian` is
/// exponential in the input count, so it runs at 16 bins.
const EXAMPLES: [(&str, &[&str], [u8; 2]); 7] = [
    ("biquad", &["auto", "na", "lti", "dfg", "symbolic"], [8, 12]),
    ("diffeq", &["auto", "na", "lti", "dfg", "symbolic"], [8, 12]),
    ("fir", &["auto", "na", "lti", "dfg", "symbolic"], [8, 12]),
    (
        "fir_taps",
        &["auto", "na", "lti", "dfg", "symbolic"],
        [8, 12],
    ),
    (
        "quadratic",
        &["auto", "dfg", "symbolic", "cartesian"],
        [8, 12],
    ),
    // The constant 128 needs more than 8 bits.
    (
        "rgb",
        &["auto", "na", "lti", "dfg", "symbolic", "cartesian"],
        [12, 16],
    ),
    (
        "vec_dot",
        &["auto", "na", "lti", "dfg", "symbolic", "cartesian"],
        [8, 12],
    ),
];

/// Monte-Carlo paths of every warm-mix `simulate` request.
const SIM_PATHS: usize = 4096;

/// Distinct `simulate` seeds per warm-mix run; repeats of one seed must
/// answer identically.
const SIM_SEEDS: usize = 2;

/// One interned request body plus what the reports need to know about it.
#[derive(Clone, Debug)]
pub struct Body {
    pub text: String,
    /// Design family, e.g. `fir` (an example) or `fir24` (generated).
    pub class: String,
    pub verb: &'static str,
}

pub struct Stream {
    pub workload: Workload,
    gen: Gen,
    pub bodies: Vec<Body>,
    index: HashMap<String, u32>,
    /// Body index of request id `i`.
    pub ids: Vec<u32>,
    pending: Vec<(String, String)>,
    cycle: u64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, examples: &Path) -> Result<Stream, String> {
        let gen = match workload {
            Workload::WarmMix => Gen::Warm(WarmGen::new(seed, examples)?),
            Workload::ColdSweep => Gen::Cold(ColdGen::new(seed)),
            Workload::TinyPipelined => Gen::Tiny(TinyGen::new(seed)),
        };
        Ok(Stream {
            workload,
            gen,
            bodies: Vec::new(),
            index: HashMap::new(),
            ids: Vec::new(),
            pending: Vec::new(),
            cycle: 0,
        })
    }

    fn push(&mut self, text: String, class: String) -> (u64, String) {
        let id = self.ids.len() as u64;
        let idx = match self.index.get(&text) {
            Some(&i) => i,
            None => {
                let i = self.bodies.len() as u32;
                self.index.insert(text.clone(), i);
                let verb = ["analyze", "simulate", "optimize"]
                    .into_iter()
                    .find(|v| text.starts_with(&format!("\"cmd\":\"{v}\"")))
                    .expect("bodies start with their cmd");
                self.bodies.push(Body { text, class, verb });
                i
            }
        };
        self.ids.push(idx);
        (id, line(id, &self.bodies[idx as usize].text))
    }

    /// The requests that warm the workload's working set before timing.
    /// Call once, before the first [`Stream::next`].
    pub fn warmup(&mut self) -> Vec<(u64, String)> {
        let bodies = match &mut self.gen {
            Gen::Warm(g) => g.deck(0),
            Gen::Cold(_) => Vec::new(),
            Gen::Tiny(g) => (0..64).map(|i| g.body(i)).collect(),
        };
        bodies
            .into_iter()
            .map(|(text, class)| self.push(text, class))
            .collect()
    }

    /// The next timed request: `(id, line)`.
    pub fn next(&mut self) -> (u64, String) {
        if self.pending.is_empty() {
            self.cycle += 1;
            let mut deck = match &mut self.gen {
                Gen::Warm(g) => g.deck(self.cycle),
                Gen::Cold(g) => g.deck(self.cycle),
                Gen::Tiny(g) => (0..64).map(|i| g.body(self.cycle * 64 + i)).collect(),
            };
            deck.reverse();
            self.pending = deck;
        }
        let (text, class) = self.pending.pop().expect("decks are never empty");
        self.push(text, class)
    }

    pub fn body_of(&self, id: u64) -> &Body {
        &self.bodies[self.ids[id as usize] as usize]
    }
}

pub fn line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}\n")
}

/// The members of a JSON object without its braces (the request body
/// that follows `"id"`).
fn members(fields: Vec<(&str, Json)>) -> String {
    let doc = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let text = doc.to_compact();
    text[1..text.len() - 1].to_string()
}

enum Gen {
    Warm(WarmGen),
    Cold(ColdGen),
    Tiny(TinyGen),
}

// ---------------------------------------------------------------------
// warm-mix
// ---------------------------------------------------------------------

struct WarmGen {
    seed: u64,
    /// One deck with simulate seed slot 0; `deck` rewrites the slot.
    templates: Vec<(String, String, Option<usize>)>,
    sim_seeds: [u64; SIM_SEEDS],
}

impl WarmGen {
    fn new(seed: u64, examples: &Path) -> Result<WarmGen, String> {
        let mut templates = Vec::new();
        for (stem, engines, bits) in EXAMPLES {
            let path = examples.join(format!("{stem}.sna"));
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let src = || ("source", Json::str(source.clone()));
            for &engine in engines {
                for b in bits {
                    for pdf in [true, false] {
                        let mut fields = vec![("cmd", Json::str("analyze")), src()];
                        if engine != "auto" {
                            fields.push(("engine", Json::str(engine)));
                        }
                        if engine == "cartesian" {
                            fields.push(("bins", Json::int(16)));
                        }
                        fields.push(("bits", Json::int(b.into())));
                        fields.push(("pdf", Json::Bool(pdf)));
                        templates.push((members(fields), stem.to_string(), None));
                    }
                }
            }
            for b in bits {
                for pdf in [true, false] {
                    // The seed member is appended per deck (see `deck`).
                    let fields = vec![
                        ("cmd", Json::str("simulate")),
                        src(),
                        ("bits", Json::int(b.into())),
                        ("pdf", Json::Bool(pdf)),
                        ("paths", Json::int(SIM_PATHS)),
                        ("workers", Json::int(1)),
                    ];
                    for slot in 0..SIM_SEEDS {
                        templates.push((members(fields.clone()), stem.to_string(), Some(slot)));
                    }
                }
            }
            let fields = vec![
                ("cmd", Json::str("optimize")),
                src(),
                ("method", Json::str("greedy")),
            ];
            templates.push((members(fields), stem.to_string(), None));
        }
        let mut r = Rng::derive(seed, 1);
        let sim_seeds = std::array::from_fn(|_| r.next_u64() >> 33);
        Ok(WarmGen {
            seed,
            templates,
            sim_seeds,
        })
    }

    /// Every template once, shuffled for `cycle`. The warm-up deck
    /// (cycle 0) is not shuffled and sends each simulate only once.
    fn deck(&mut self, cycle: u64) -> Vec<(String, String)> {
        let mut deck: Vec<(String, String)> = self
            .templates
            .iter()
            .filter(|(_, _, slot)| cycle > 0 || slot.unwrap_or(0) == 0)
            .map(|(text, class, slot)| match slot {
                Some(s) => (
                    format!("{text},\"seed\":{}", self.sim_seeds[*s]),
                    class.clone(),
                ),
                None => (text.clone(), class.clone()),
            })
            .collect();
        if cycle > 0 {
            Rng::derive(self.seed, 100 + cycle).shuffle(&mut deck);
        }
        deck
    }
}

// ---------------------------------------------------------------------
// cold-sweep
// ---------------------------------------------------------------------

/// A generated design family and its size.
#[derive(Clone, Copy, Debug)]
enum Class {
    /// Sparse FIR: `taps` taps spread over about `taps * 3 / 2` delays.
    Fir(usize),
    /// Cascade of direct-form-I biquad sections.
    Biquad(usize),
    /// Layered matrix-vector bank: width, layer height, layers.
    MatVec(usize, usize, usize),
}

/// Sizes are capped so one miss costs a few milliseconds here; FIR-128
/// or a 32-wide bank would dominate the run on their own. The smallest
/// designs are left out: sub-millisecond requests made the run measure
/// thread wake-ups more than compilation.
const CLASSES: [Class; 10] = [
    Class::Fir(24),
    Class::Fir(32),
    Class::Fir(48),
    Class::Fir(64),
    Class::Biquad(2),
    Class::Biquad(3),
    Class::MatVec(8, 4, 2),
    Class::MatVec(16, 4, 1),
    Class::MatVec(8, 8, 2),
    Class::MatVec(16, 8, 2),
];

impl Class {
    fn label(self) -> String {
        match self {
            Class::Fir(t) => format!("fir{t}"),
            Class::Biquad(s) => format!("biquad{s}"),
            Class::MatVec(w, h, l) => format!("matvec{w}x{h}x{l}"),
        }
    }
}

/// The structure of one generated design: everything but coefficient
/// values, so a re-spin keeps the shape and lands in the shape tier.
#[derive(Clone, Debug)]
enum Shape {
    /// Tap delays.
    Fir(Vec<usize>),
    /// Per section: whether the b1/b2 taps exist, and the accumulator's
    /// `range` override bound (part of the shape key).
    Biquad(Vec<(bool, bool, u32)>),
    /// Per layer, per output, the kept input terms.
    MatVec(usize, Vec<Vec<Vec<usize>>>),
}

/// How many recent shapes per class a re-spin may pick from. Small
/// enough that the donor is always still cached (LRU keeps 256).
const RING: usize = 4;

/// Re-spins per class per deck (fresh shapes are one per class).
const RESPINS: usize = 2;

/// Exact repeats of an earlier request per deck.
const REPEATS: usize = 3;

struct ColdGen {
    seed: u64,
    rng: Rng,
    rings: Vec<Vec<Shape>>,
    last_deck: Vec<(String, String)>,
}

#[derive(Clone, Copy)]
enum Action {
    Fresh(usize),
    Respin(usize),
    Repeat,
}

impl ColdGen {
    fn new(seed: u64) -> ColdGen {
        ColdGen {
            seed,
            rng: Rng::derive(seed, 2),
            rings: vec![Vec::new(); CLASSES.len()],
            last_deck: Vec::new(),
        }
    }

    fn deck(&mut self, cycle: u64) -> Vec<(String, String)> {
        let mut actions = Vec::new();
        for c in 0..CLASSES.len() {
            actions.push(Action::Fresh(c));
            actions.extend(std::iter::repeat_n(Action::Respin(c), RESPINS));
        }
        actions.extend(std::iter::repeat_n(Action::Repeat, REPEATS));
        Rng::derive(self.seed, 200 + cycle).shuffle(&mut actions);
        let mut deck = Vec::with_capacity(actions.len());
        for action in actions {
            let item = match action {
                Action::Fresh(c) => self.design(c, true),
                Action::Respin(c) => self.design(c, self.rings[c].is_empty()),
                Action::Repeat if self.last_deck.is_empty() => {
                    let c = self.rng.below(CLASSES.len());
                    self.design(c, true)
                }
                Action::Repeat => self.last_deck[self.rng.below(self.last_deck.len())].clone(),
            };
            deck.push(item);
        }
        self.last_deck.clone_from(&deck);
        deck
    }

    fn design(&mut self, c: usize, fresh: bool) -> (String, String) {
        let class = CLASSES[c];
        let shape = if fresh {
            let shape = self.fresh_shape(class);
            let ring = &mut self.rings[c];
            if ring.len() == RING {
                ring.remove(0);
            }
            ring.push(shape.clone());
            shape
        } else {
            let ring = &self.rings[c];
            ring[self.rng.below(ring.len())].clone()
        };
        let source = self.source(&shape);
        let bits = [10, 12, 16][self.rng.below(3)];
        let body = members(vec![
            ("cmd", Json::str("analyze")),
            ("source", Json::str(source)),
            ("engine", Json::str("na")),
            ("bits", Json::int(bits)),
            ("pdf", Json::Bool(false)),
        ]);
        (body, class.label())
    }

    fn fresh_shape(&mut self, class: Class) -> Shape {
        let r = &mut self.rng;
        match class {
            Class::Fir(taps) => {
                // Gaps of at most one missing tap: the NA model's impulse
                // analysis declares a response settled after 8 quiet
                // steps (`LtiOptions::settle_steps`), so a longer run of
                // zero taps truncates a fresh build's gains (see
                // e2e/README.md).
                let mut delay = r.below(2);
                let delays = (0..taps)
                    .map(|_| {
                        let d = delay;
                        delay += 1 + r.below(2);
                        d
                    })
                    .collect();
                Shape::Fir(delays)
            }
            Class::Biquad(sections) => Shape::Biquad(
                (0..sections)
                    .map(|_| (r.below(4) != 0, r.below(4) != 0, 8 + r.below(64) as u32))
                    .collect(),
            ),
            Class::MatVec(width, height, layers) => {
                let mut prev = width;
                let mut kept = Vec::new();
                for _ in 0..layers {
                    let layer = (0..height)
                        .map(|_| {
                            let mut terms: Vec<usize> =
                                (0..prev).filter(|_| r.below(4) != 0).collect();
                            if terms.is_empty() {
                                terms.push(r.below(prev));
                            }
                            terms
                        })
                        .collect();
                    kept.push(layer);
                    prev = height;
                }
                Shape::MatVec(width, kept)
            }
        }
    }

    /// DSL text for `shape` with freshly drawn coefficients.
    fn source(&mut self, shape: &Shape) -> String {
        let r = &mut self.rng;
        let mut coeff = |scale: f64| {
            let sign = if r.below(2) == 0 { -1.0 } else { 1.0 };
            sign * r.range(0.2, 1.0) * scale
        };
        let mut out = String::new();
        match shape {
            Shape::Fir(delays) => {
                out.push_str("input x in [-1, 1];\n");
                let scale = 2.0 / delays.len() as f64;
                let mut terms = Vec::new();
                for (i, &d) in delays.iter().enumerate() {
                    out.push_str(&format!("let c{i} = {:.6};\n", coeff(scale)));
                    terms.push(if d == 0 {
                        format!("c{i}*x")
                    } else {
                        format!("c{i}*x[n-{d}]")
                    });
                }
                out.push_str(&format!("output y = {};\n", terms.join(" + ")));
            }
            Shape::Biquad(sections) => {
                out.push_str("input x in [-0.5, 0.5];\n");
                let mut src = "x".to_string();
                for (s, &(b1, b2, bound)) in sections.iter().enumerate() {
                    // Poles at radius 0.3..0.8: stable, so the NA model
                    // builds.
                    let radius = r.range(0.3, 0.8);
                    let angle = r.range(0.2, 2.5);
                    let a1 = 2.0 * radius * angle.cos();
                    let a2 = -radius * radius;
                    let mut terms = vec![format!("{:.6}*{src}", r.range(0.05, 0.3))];
                    if b1 {
                        terms.push(format!("{:.6}*{src}[n-1]", r.range(0.05, 0.3)));
                    }
                    if b2 {
                        terms.push(format!("{:.6}*{src}[n-2]", r.range(0.05, 0.3)));
                    }
                    terms.push(format!("{a1:.6}*y{s}[n-1]"));
                    terms.push(format!("{a2:.6}*y{s}[n-2]"));
                    let bound = f64::from(bound) / 16.0;
                    out.push_str(&format!(
                        "acc{s} = {} range [-{bound}, {bound}];\ny{s} = acc{s};\n",
                        terms.join(" + ")
                    ));
                    src = format!("y{s}");
                }
                out.push_str(&format!("output out = {src};\n"));
            }
            Shape::MatVec(width, layers) => {
                out.push_str(&format!("input v[{width}] in [-1, 1];\n"));
                let mut prev: Vec<String> = (0..*width).map(|i| format!("v[{i}]")).collect();
                for (l, layer) in layers.iter().enumerate() {
                    let mut names = Vec::new();
                    for (j, kept) in layer.iter().enumerate() {
                        let scale = 1.0 / kept.len() as f64;
                        let terms: Vec<String> = kept
                            .iter()
                            .map(|&i| format!("{:.6}*{}", coeff(scale), prev[i]))
                            .collect();
                        let name = format!("h{l}_{j}");
                        out.push_str(&format!("{name} = {};\n", terms.join(" + ")));
                        names.push(name);
                    }
                    prev = names;
                }
                for (j, name) in prev.iter().enumerate() {
                    out.push_str(&format!("output o{j} = {name};\n"));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// tiny-pipelined
// ---------------------------------------------------------------------

struct TinyGen {
    source: String,
    bits: [u8; 4],
}

impl TinyGen {
    fn new(seed: u64) -> TinyGen {
        let mut r = Rng::derive(seed, 3);
        let k = 0.25 + (r.below(4096) as f64) / 8192.0;
        let mut bits = [8, 10, 12, 16];
        r.shuffle(&mut bits);
        TinyGen {
            source: format!("input x in [-1, 1];\noutput y = {k}*x;\n"),
            bits,
        }
    }

    fn body(&self, i: u64) -> (String, String) {
        let body = members(vec![
            ("cmd", Json::str("analyze")),
            ("source", Json::str(self.source.clone())),
            ("engine", Json::str("na")),
            ("bits", Json::int(self.bits[(i % 4) as usize].into())),
            ("pdf", Json::Bool(false)),
        ]);
        (body, "tiny".to_string())
    }
}
