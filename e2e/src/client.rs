//! The closed-loop TCP load: each connection thread writes a batch of
//! request lines in one write, reads one response line per request, and
//! only then claims its next batch.
//!
//! Response lines are checked later (see `gate`): during the timed phase
//! a thread only pulls out the id, the `cache` word and `elapsed_us`, and
//! folds the rest of the line into a count of distinct normalized
//! responses, which keeps a million tiny responses in a few strings.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest a request may take before it counts as timed out.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    Hit,
    CanonHit,
    ShapeHit,
    StoreHit,
    Miss,
    /// No `cache` word (an error response).
    None,
}

impl Tier {
    pub const ALL: [Tier; 6] = [
        Tier::Hit,
        Tier::CanonHit,
        Tier::ShapeHit,
        Tier::StoreHit,
        Tier::Miss,
        Tier::None,
    ];

    fn parse(word: &str) -> Tier {
        match word {
            "hit" => Tier::Hit,
            "canon-hit" => Tier::CanonHit,
            "shape-hit" => Tier::ShapeHit,
            "store-hit" => Tier::StoreHit,
            "miss" => Tier::Miss,
            _ => Tier::None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Tier::Hit => "hit",
            Tier::CanonHit => "canon-hit",
            Tier::ShapeHit => "shape-hit",
            Tier::StoreHit => "store-hit",
            Tier::Miss => "miss",
            Tier::None => "none",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub id: u64,
    /// Client round trip: from the batch's write to this response line.
    pub rtt_us: f64,
    /// The server's own `elapsed_us`.
    pub server_us: f64,
    pub tier: Tier,
    pub ok: bool,
}

/// Distinct normalized response → (count, first id that received it).
pub type Responses = HashMap<String, (u64, u64)>;

#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub responses: Responses,
    /// Requests sent that never got a response line (timeouts, resets).
    pub lost: u64,
    pub errors: Vec<String>,
    pub wall_s: f64,
}

/// Where a connection thread claims its next batch of `(id, line)`s; an
/// empty batch ends the thread.
pub trait Source: Sync {
    fn claim(&self, depth: usize) -> Vec<(u64, String)>;
}

/// A fixed list of requests (the warm-up).
pub struct Fixed<'a> {
    lines: &'a [(u64, String)],
    next: Mutex<usize>,
}

impl<'a> Fixed<'a> {
    pub fn new(lines: &'a [(u64, String)]) -> Self {
        Fixed {
            lines,
            next: Mutex::new(0),
        }
    }
}

impl Source for Fixed<'_> {
    fn claim(&self, depth: usize) -> Vec<(u64, String)> {
        let mut next = self.next.lock().expect("fixed source lock");
        let batch = &self.lines[*next..(*next + depth).min(self.lines.len())];
        *next += batch.len();
        batch.to_vec()
    }
}

/// Runs `conns` closed-loop connections against `addr` until `source`
/// runs dry.
pub fn run(addr: SocketAddr, conns: usize, depth: usize, source: &dyn Source) -> Phase {
    let started = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| s.spawn(move || connection(addr, depth, source)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut phase = Phase {
        wall_s,
        ..Phase::default()
    };
    for part in parts {
        phase.samples.extend(part.samples);
        phase.lost += part.lost;
        phase.errors.extend(part.errors);
        for (text, (count, first)) in part.responses {
            let e = phase.responses.entry(text).or_insert((0, first));
            e.0 += count;
            e.1 = e.1.min(first);
        }
    }
    phase.samples.sort_by_key(|s| s.id);
    phase
}

fn connection(addr: SocketAddr, depth: usize, source: &dyn Source) -> Phase {
    let mut phase = Phase::default();
    let stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            phase.errors.push(e);
            return phase;
        }
    };
    let mut writer = stream.try_clone().expect("clone tcp stream");
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let mut line = String::new();
    loop {
        let batch = source.claim(depth);
        if batch.is_empty() {
            break;
        }
        buf.clear();
        for (_, l) in &batch {
            buf.push_str(l);
        }
        let t0 = Instant::now();
        if let Err(e) = writer.write_all(buf.as_bytes()) {
            phase.errors.push(format!("write failed: {e}"));
            phase.lost += batch.len() as u64;
            break;
        }
        for (k, (id, _)) in batch.iter().enumerate() {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 && line.ends_with('\n') => {}
                other => {
                    phase
                        .errors
                        .push(format!("request {id}: no response ({other:?})"));
                    phase.lost += (batch.len() - k) as u64;
                    return phase;
                }
            }
            let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
            let parsed = Quick::parse(&line);
            if parsed.id != Some(*id) {
                phase
                    .errors
                    .push(format!("request {id}: response carries id {:?}", parsed.id));
            }
            phase.samples.push(Sample {
                id: *id,
                rtt_us,
                server_us: parsed.elapsed_us.unwrap_or(0) as f64,
                tier: parsed.tier,
                ok: parsed.ok,
            });
            let e = phase.responses.entry(parsed.normalized).or_insert((0, *id));
            e.0 += 1;
        }
    }
    phase
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

/// One request/response round trip on a fresh connection.
pub fn roundtrip(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    reader
        .read_line(&mut out)
        .map_err(|e| format!("read: {e}"))?;
    Ok(out)
}

/// The few fields a connection thread reads from a response line. The
/// server writes compact JSON with `id` first, then `ok`, `cmd`,
/// `cache`, `elapsed_us`, `result`.
struct Quick {
    id: Option<u64>,
    ok: bool,
    tier: Tier,
    elapsed_us: Option<u64>,
    /// The line without its `id` member and with every `elapsed_us`
    /// value zeroed: equal responses to equal requests compare equal.
    normalized: String,
}

const ELAPSED: &str = "\"elapsed_us\":";

impl Quick {
    fn parse(line: &str) -> Quick {
        let line = line.trim_end();
        let (id, rest) = match line.strip_prefix("{\"id\":") {
            Some(after) => {
                let end = after.find(',').unwrap_or(after.len());
                (
                    after[..end].parse().ok(),
                    &after[(end + 1).min(after.len())..],
                )
            }
            None => (None, line),
        };
        let ok = rest.starts_with("\"ok\":true");
        let tier = rest
            .find("\"cache\":\"")
            .map(|at| {
                let word = &rest[at + 9..];
                Tier::parse(&word[..word.find('"').unwrap_or(0)])
            })
            .unwrap_or(Tier::None);
        let mut elapsed_us = None;
        let mut normalized = String::with_capacity(rest.len());
        let mut tail = rest;
        while let Some(at) = tail.find(ELAPSED) {
            let after = &tail[at + ELAPSED.len()..];
            let digits = after.bytes().take_while(u8::is_ascii_digit).count();
            if elapsed_us.is_none() {
                elapsed_us = after[..digits].parse().ok();
            }
            normalized.push_str(&tail[..at + ELAPSED.len()]);
            normalized.push('0');
            tail = &after[digits..];
        }
        normalized.push_str(tail);
        Quick {
            id,
            ok,
            tier,
            elapsed_us,
            normalized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_parse_reads_the_fixed_fields_and_zeroes_timings() {
        let q = Quick::parse(
            "{\"id\":7,\"ok\":true,\"cmd\":\"simulate\",\"cache\":\"shape-hit\",\"elapsed_us\":123,\
             \"result\":{\"elapsed_us\":99,\"x\":1}}\n",
        );
        assert_eq!(q.id, Some(7));
        assert!(q.ok);
        assert_eq!(q.tier, Tier::ShapeHit);
        assert_eq!(q.elapsed_us, Some(123));
        assert_eq!(
            q.normalized,
            "\"ok\":true,\"cmd\":\"simulate\",\"cache\":\"shape-hit\",\"elapsed_us\":0,\
             \"result\":{\"elapsed_us\":0,\"x\":1}}"
        );
        let bad = Quick::parse("{\"id\":3,\"ok\":false,\"error\":\"boom\"}");
        assert!(!bad.ok);
        assert_eq!(bad.tier, Tier::None);
    }
}
