//! The service probes, run on every traced workload over that workload's
//! own Prophet profiles.
//!
//! * In-process: `ServiceState::submit`/`fetch` with no socket.
//! * Daemon: an in-process `prophet-service` daemon over a fresh store,
//!   driven in a closed loop by two client connections. The loop runs in
//!   epochs, each in the shape of the repository's `fleet_load` generator
//!   (`crates/bench/src/bin/fleet_load.rs`): a submission phase in which
//!   each client submits every profile to that epoch's keys (the two walks
//!   start half a list apart), then a fetch phase of `fleet_load`'s
//!   default 50 fetches per client, round-robin over the keys. So every
//!   profile is submitted once fresh (persist, merge, re-analyze) and once
//!   as a duplicate, and fetches read what the submissions wrote.
//!
//! No measured fleet traffic exists to take the mix from; this one is
//! assumed, and only repeats the shape `fleet_load` already uses.
//!
//! Both probes compare every key's served bytes with the serial canonical
//! reference (`merge_profiles` → `analyze` → `encode_hints`).

use crate::layers::Tracer;
use crate::out::{secs, Outcome, Scratch};
use prophet::{analyze, AnalysisConfig, HintSet, ProfileCounters};
use prophet_service::{merge_profiles, ServeConfig, Server, ServiceClient, ServiceState};
use prophet_store::{encode_counters, encode_hints, StoreKey};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Hint fetches a client makes after its submissions in each epoch
/// (`fleet_load`'s default `--fetches`).
const FETCHES_PER_CLIENT: usize = 50;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Rounds of the in-process probe and epochs of the daemon probe (fixed,
/// so the service's counters repeat exactly).
const STATE_ROUNDS: u64 = 20;
const DAEMON_EPOCHS: u64 = 40;

/// Profiles to serve and their serial reference hints.
pub struct ProfileSet {
    /// Key base names.
    keys: Vec<String>,
    /// `(key index, counters)`.
    profiles: Vec<(usize, ProfileCounters)>,
    /// `analyze(merge_profiles(key's profiles))` per key.
    reference: Vec<HintSet>,
    config: u64,
    warmup: u64,
    measure: u64,
}

impl ProfileSet {
    /// A set over `(key, profile)` pairs; profiles that share a key are
    /// merged by the service (the paper's multi-input learning).
    pub fn new(
        profiles: &[(String, ProfileCounters)],
        config: u64,
        warmup: u64,
        measure: u64,
    ) -> Self {
        let mut keys: Vec<String> = Vec::new();
        let mut indexed = Vec::new();
        for (key, counters) in profiles {
            let k = keys.iter().position(|x| x == key).unwrap_or_else(|| {
                keys.push(key.clone());
                keys.len() - 1
            });
            indexed.push((k, counters.clone()));
        }
        let reference = (0..keys.len())
            .map(|k| {
                let mine: Vec<ProfileCounters> = indexed
                    .iter()
                    .filter(|(pk, _)| *pk == k)
                    .map(|(_, c)| c.clone())
                    .collect();
                let merged = merge_profiles(&mine).expect("every key has a profile");
                analyze(&merged.counters, &AnalysisConfig::default())
            })
            .collect();
        ProfileSet {
            keys,
            profiles: indexed,
            reference,
            config,
            warmup,
            measure,
        }
    }

    /// The store key of `key` in `epoch` (every epoch starts fresh keys,
    /// so its submissions are fresh again).
    fn key(&self, key: usize, epoch: u64) -> StoreKey {
        StoreKey {
            workload: format!("{}#e{epoch}", self.keys[key]),
            config: self.config,
            warmup: self.warmup,
            measure: self.measure,
        }
    }

    /// Profiles that are not byte-identical to another under their key.
    fn distinct(&self) -> usize {
        self.profiles
            .iter()
            .map(|(k, c)| (*k, encode_counters(c)))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Checks `fetch`'s bytes for every key of `epoch` against the
    /// reference.
    fn check_served(
        &self,
        out: &mut Outcome,
        epoch: u64,
        mut fetch: impl FnMut(&StoreKey) -> Option<Vec<u8>>,
    ) {
        for k in 0..self.keys.len() {
            let key = self.key(k, epoch);
            let want = encode_hints(&key, &self.reference[k]);
            out.check(fetch(&key).as_deref() == Some(&want[..]), || {
                format!(
                    "served hints for {} differ from the serial reference",
                    key.workload
                )
            });
        }
    }
}

/// What the service probes measured.
#[derive(Debug, Default)]
pub struct ServiceNumbers {
    /// In-process `submit`/`fetch` latencies, seconds.
    pub state_submit_s: Vec<f64>,
    pub state_fetch_s: Vec<f64>,
    /// Client-observed daemon latencies, seconds.
    pub submit_s: Vec<f64>,
    pub fetch_s: Vec<f64>,
    /// Wall time of the submission and the fetch phases, summed over
    /// the epochs (as `fleet_load` times its two phases).
    pub submit_wall_s: f64,
    pub fetch_wall_s: f64,
    /// The daemon's fresh, duplicate and optimize counters.
    pub fresh: u64,
    pub duplicate: u64,
    pub optimizes: u64,
}

/// Runs both probes over `set`.
pub fn probe(set: &ProfileSet, t: &Tracer, out: &mut Outcome) -> ServiceNumbers {
    let mut n = ServiceNumbers::default();
    t.span("service.state_probe", || state_probe(set, t, out, &mut n));
    t.span("service.daemon_probe", || daemon_probe(set, t, out, &mut n));
    n
}

/// In-process `ServiceState::submit`/`fetch` in the daemon loop's
/// pattern, the clients taking turns.
fn state_probe(set: &ProfileSet, t: &Tracer, out: &mut Outcome, n: &mut ServiceNumbers) {
    let dir = Scratch::new("state-probe");
    let state = ServiceState::open(&dir.0).expect("open a probe service store");
    for round in 0..STATE_ROUNDS {
        for _ in 0..CLIENTS {
            for (k, counters) in &set.profiles {
                let key = set.key(*k, round);
                let start = Instant::now();
                let ok = t.span("service.state_submit", || {
                    state.submit(&key, counters.clone()).is_ok()
                });
                n.state_submit_s.push(secs(start));
                out.check(ok, || format!("in-process submit to {}", key.workload));
            }
        }
        for c in 0..CLIENTS {
            for r in 0..FETCHES_PER_CLIENT {
                let key = set.key((r + c) % set.keys.len(), round);
                let start = Instant::now();
                let ok = t.span("service.state_fetch", || state.fetch(&key).is_ok());
                n.state_fetch_s.push(secs(start));
                out.check(ok, || format!("in-process fetch of {}", key.workload));
            }
        }
        set.check_served(out, round, |key| state.fetch(key).ok());
    }
}

/// A running daemon over a fresh store, stopped and joined on drop.
struct Daemon {
    addr: SocketAddr,
    handle: prophet_service::ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    /// The store directory, removed after the daemon stops.
    _dir: Scratch,
}

impl Daemon {
    fn start() -> Daemon {
        let dir = Scratch::new("daemon-probe");
        let state = ServiceState::open(&dir.0).expect("open a fresh service store");
        let server = Server::bind(
            ServeConfig {
                threads: CLIENTS + 2,
                ..ServeConfig::default()
            },
            state,
        )
        .expect("bind the daemon on localhost");
        let handle = server.handle().expect("daemon handle");
        let addr = handle.addr();
        let join = Some(std::thread::spawn(move || server.run()));
        Daemon {
            addr,
            handle,
            join,
            _dir: dir,
        }
    }

    /// The `fresh`, `duplicate` and `optimizes` counters, read through
    /// the metrics endpoint.
    fn counters(&self) -> (u64, u64, u64) {
        let text = ServiceClient::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.metrics().map_err(|e| e.to_string()))
            .unwrap_or_default();
        let get = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
                .unwrap_or(0)
        };
        (
            get("prophet_service_submissions_fresh "),
            get("prophet_service_submissions_duplicate "),
            get("prophet_service_optimizes_total "),
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            match join.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("perfbench: daemon stopped with {e}"),
                Err(_) => eprintln!("perfbench: daemon thread panicked"),
            }
        }
    }
}

/// One client's view of the loop.
#[derive(Default)]
struct ClientStats {
    submit_s: Vec<f64>,
    fetch_s: Vec<f64>,
    /// Each phase from its start to the barrier that ends it.
    submit_wall_s: f64,
    fetch_wall_s: f64,
    failed: u64,
}

/// `DAEMON_EPOCHS` epochs of the closed loop; every request is a span.
fn daemon_probe(set: &ProfileSet, t: &Tracer, out: &mut Outcome, n: &mut ServiceNumbers) {
    let daemon = Daemon::start();
    let per_epoch = set.profiles.len();
    let barrier = Barrier::new(CLIENTS);
    let checks = Mutex::new(Outcome::default());
    let clients: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, checks, addr) = (&barrier, &checks, daemon.addr);
                scope.spawn(move || {
                    let mut mine = ClientStats::default();
                    let mut client = ServiceClient::connect(addr).ok();
                    for epoch in 0..DAEMON_EPOCHS {
                        let phase = Instant::now();
                        t.span("service.submit_phase", || {
                            for i in 0..per_epoch {
                                let (k, counters) =
                                    &set.profiles[(i + c * per_epoch / CLIENTS) % per_epoch];
                                let key = set.key(*k, epoch);
                                let start = Instant::now();
                                let ok = t.span("service.submit", || {
                                    client
                                        .as_mut()
                                        .is_some_and(|cl| cl.submit(&key, counters).is_ok())
                                });
                                mine.submit_s.push(secs(start));
                                mine.failed += u64::from(!ok);
                            }
                        });
                        barrier.wait();
                        mine.submit_wall_s += secs(phase);
                        let phase = Instant::now();
                        t.span("service.fetch_phase", || {
                            for r in 0..FETCHES_PER_CLIENT {
                                let key = set.key((r + c) % set.keys.len(), epoch);
                                let start = Instant::now();
                                let ok = t.span("service.fetch", || {
                                    client
                                        .as_mut()
                                        .is_some_and(|cl| cl.fetch_hints_bytes(&key).is_ok())
                                });
                                mine.fetch_s.push(secs(start));
                                mine.failed += u64::from(!ok);
                            }
                        });
                        barrier.wait();
                        mine.fetch_wall_s += secs(phase);
                        if c == 0 {
                            let mut checks = checks.lock().expect("epoch checks");
                            set.check_served(&mut checks, epoch, |key| {
                                client
                                    .as_mut()
                                    .and_then(|cl| cl.fetch_hints_bytes(key).ok())
                            });
                        }
                        barrier.wait();
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service client thread"))
            .collect()
    });
    let checks = checks.into_inner().expect("epoch checks");
    out.attempted += checks.attempted;
    out.failed += checks.failed;
    for c in clients {
        out.attempted += (c.submit_s.len() + c.fetch_s.len()) as u64;
        out.failed += c.failed;
        if c.failed > 0 {
            eprintln!("perfbench: FAILED: {} daemon request(s) errored", c.failed);
        }
        n.submit_wall_s = n.submit_wall_s.max(c.submit_wall_s);
        n.fetch_wall_s = n.fetch_wall_s.max(c.fetch_wall_s);
        n.submit_s.extend(c.submit_s);
        n.fetch_s.extend(c.fetch_s);
    }
    (n.fresh, n.duplicate, n.optimizes) = daemon.counters();
    let want_fresh = set.distinct() as u64 * DAEMON_EPOCHS;
    let total = (set.profiles.len() * CLIENTS) as u64 * DAEMON_EPOCHS;
    let (fresh, dup) = (n.fresh, n.duplicate);
    out.check(fresh == want_fresh && fresh + dup == total, || {
        format!("daemon counted {fresh} fresh + {dup} duplicate, want {want_fresh} of {total}")
    });
}
