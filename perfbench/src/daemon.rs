//! The `daemon-mix` load generator: seeds a running daemon, then drives
//! it with closed-loop TCP clients and checks every result.
//!
//! The loop is closed because CI callers each wait for their verdict.
//! Each client cycles compare, materialize, compare, ingest (a 2:1:1
//! mix), starting one step apart so the clients overlap different verbs.
//! Latency is taken from just before the submit (which hex-encodes an
//! ingest payload) until the terminal status arrives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use reprocmp_bench::DivergentPair;
use reprocmp_server::json::{get, get_str, get_u64};
use reprocmp_server::proto::hex_decode;
use reprocmp_server::{ClientResult, JobState, ObjectRef, RemoteStatus, ServerClient};
use serde::Value;

use crate::{le_bytes, obj, spec_named, Args, Res, CHUNK_BYTES};

/// One stored pair: both runs' payload bytes and the diff oracle.
struct Pair {
    runs: [Vec<u8>; 2],
    oracle: u64,
}

const SIDES: [&str; 2] = ["a", "b"];
const MIX: [Verb; 4] = [
    Verb::Compare,
    Verb::Materialize,
    Verb::Compare,
    Verb::Ingest,
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verb {
    Compare,
    Materialize,
    Ingest,
}

impl Verb {
    fn name(self) -> &'static str {
        match self {
            Verb::Compare => "compare",
            Verb::Materialize => "materialize",
            Verb::Ingest => "ingest",
        }
    }
}

struct Sample {
    verb: Verb,
    latency: Duration,
    error: Option<String>,
}

/// Seed of pair `k`; pair 0 uses the workload seed itself, so `gen`
/// with the same seed writes pair 0 for the traced run.
fn pair_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn stored_name(k: usize, side: usize) -> String {
    format!("p{k}{}", SIDES[side])
}

fn terminal(status: RemoteStatus) -> Res<Value> {
    match (status.state, status.result) {
        (JobState::Done, Some(result)) => Ok(result),
        (state, _) => Err(format!(
            "job {} ended {state:?}: {}",
            status.job,
            status.error.unwrap_or_default()
        )
        .into()),
    }
}

/// An ingest result's dedup ledger must balance.
pub(crate) fn check_ledger(result: &Value) -> Res<()> {
    let field = |k| get_u64(result, k).ok_or_else(|| format!("ingest result lacks `{k}`"));
    let (logical, physical, deduped) = (
        field("bytes_logical")?,
        field("bytes_physical")?,
        field("bytes_deduped")?,
    );
    if logical != physical + deduped {
        return Err(format!("ingest ledger: {logical} != {physical} + {deduped}").into());
    }
    Ok(())
}

fn submit_and_wait(
    client: &mut ServerClient,
    submit: impl FnOnce(&mut ServerClient) -> ClientResult<u64>,
) -> Res<Value> {
    let job = submit(client)?;
    terminal(client.wait(job)?)
}

/// An ingest payload: a stored run with the first value of every fourth
/// chunk overwritten by a value unique to this (client, op), so a
/// quarter of its chunks are new to the store and the rest deduplicate.
fn ingest_payload(base: &[u8], client: usize, op: usize) -> Vec<u8> {
    let mut data = base.to_vec();
    let mark = (client * 1_000_000 + op) as f32 * 1e-3;
    for chunk in data.chunks_mut(CHUNK_BYTES).step_by(4) {
        chunk[..4].copy_from_slice(&mark.to_le_bytes());
    }
    data
}

fn one_op(
    client: &mut ServerClient,
    pairs: &[Pair],
    c: usize,
    i: usize,
) -> (Verb, Res<()>, Duration) {
    let verb = MIX[(i + c) % MIX.len()];
    let k = (i / MIX.len() + c) % pairs.len();
    let side = i % 2;
    let payload = (verb == Verb::Ingest).then(|| ingest_payload(&pairs[k].runs[side], c, i));
    let start = Instant::now();
    let result = match verb {
        Verb::Compare => submit_and_wait(client, |cl| {
            cl.compare(
                ObjectRef {
                    name: stored_name(k, 0),
                    version: 1,
                },
                ObjectRef {
                    name: stored_name(k, 1),
                    version: 1,
                },
            )
        }),
        Verb::Materialize => submit_and_wait(client, |cl| cl.materialize(&stored_name(k, side), 1)),
        Verb::Ingest => submit_and_wait(client, |cl| {
            let data = payload.as_deref().expect("ingest payload");
            cl.ingest(
                &format!("ingest-c{c}"),
                i as u64 + 1,
                CHUNK_BYTES as u64,
                data,
            )
        }),
    };
    let latency = start.elapsed();
    let checked = result.and_then(|doc| match verb {
        Verb::Compare => {
            let diffs = get(&doc, "stats").and_then(|s| get_u64(s, "diff_count"));
            if diffs == Some(pairs[k].oracle) {
                Ok(())
            } else {
                Err(format!(
                    "compare of pair {k} found {diffs:?} diffs, oracle {}",
                    pairs[k].oracle
                )
                .into())
            }
        }
        Verb::Materialize => {
            let bytes = hex_decode(get_str(&doc, "data").unwrap_or_default())?;
            if bytes == pairs[k].runs[side] {
                Ok(())
            } else {
                Err(format!(
                    "materialize of {} returned different bytes",
                    stored_name(k, side)
                )
                .into())
            }
        }
        Verb::Ingest => check_ledger(&doc),
    });
    (verb, checked, latency)
}

/// Reads the daemon's peak RSS once a fixed number of jobs has completed,
/// so the figure covers the same work however fast the daemon is: it
/// keeps every finished job's result, so its footprint grows with the
/// jobs served.
struct RssProbe {
    pid: u32,
    after_jobs: usize,
    completed: AtomicUsize,
    mib: OnceLock<Result<f64, String>>,
}

impl RssProbe {
    fn job_done(&self) {
        if self.completed.fetch_add(1, Ordering::Relaxed) + 1 == self.after_jobs {
            self.read();
        }
    }

    fn read(&self) -> &Result<f64, String> {
        self.mib
            .get_or_init(|| vm_hwm_mib(self.pid).map_err(|e| e.to_string()))
    }
}

fn vm_hwm_mib(pid: u32) -> Res<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in the daemon's /proc status")?;
    Ok(kib / 1024.0)
}

fn client_loop(
    addr: SocketAddr,
    pairs: &[Pair],
    c: usize,
    deadline: Instant,
    probe: &RssProbe,
) -> Result<Vec<Sample>, String> {
    let mut client =
        ServerClient::connect(addr, &format!("bench-client-{c}")).map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    let mut i = 0;
    while Instant::now() < deadline {
        let (verb, checked, latency) = one_op(&mut client, pairs, c, i);
        probe.job_done();
        samples.push(Sample {
            verb,
            latency,
            error: checked.err().map(|e| e.to_string()),
        });
        i += 1;
    }
    Ok(samples)
}

/// `daemon-load --addr A --seed N --values N --pairs K --clients C
/// --seconds S --eps E --rss-pid P --rss-jobs J`. With `--seconds 0` it
/// only generates and seeds. The daemon's peak RSS is read after J jobs,
/// or at the end when fewer complete.
pub(crate) fn run(args: &Args) -> Res<Value> {
    let addr: SocketAddr = args.num("addr")?;
    let seed: u64 = args.num("seed")?;
    let values: usize = args.num("values")?;
    let n_pairs: usize = args.num("pairs")?;
    let clients: usize = args.num("clients")?;
    let seconds: f64 = args.num("seconds")?;
    let eps: f64 = args.num("eps")?;
    let probe = RssProbe {
        pid: args.num("rss-pid")?,
        after_jobs: args.num("rss-jobs")?,
        completed: AtomicUsize::new(0),
        mib: OnceLock::new(),
    };
    let spec = spec_named("hacc_like")?;

    let start = Instant::now();
    let pairs: Vec<Pair> = (0..n_pairs as u64)
        .map(|k| {
            let p = DivergentPair::generate(values, spec, pair_seed(seed, k));
            Pair {
                oracle: p.diffs_above(eps) as u64,
                runs: [le_bytes(&p.run1), le_bytes(&p.run2)],
            }
        })
        .collect();
    let gen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut seeder = ServerClient::connect(addr, "bench-seed")?;
    for (k, pair) in pairs.iter().enumerate() {
        for (side, data) in pair.runs.iter().enumerate() {
            let doc = submit_and_wait(&mut seeder, |cl| {
                cl.ingest(&stored_name(k, side), 1, CHUNK_BYTES as u64, data)
            })?;
            check_ledger(&doc)?;
        }
    }
    drop(seeder);
    let seed_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (pairs, probe) = (&pairs, &probe);
                s.spawn(move || client_loop(addr, pairs, c, deadline, probe))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let load_s = start.elapsed().as_secs_f64();

    let mut jobs = Vec::new();
    let mut errors = Vec::new();
    for samples in per_client {
        for s in samples? {
            if let Some(e) = &s.error {
                errors.push(Value::String(e.clone()));
            }
            jobs.push(Value::Array(vec![
                Value::String(s.verb.name().to_owned()),
                Value::Float(s.latency.as_secs_f64()),
                Value::Bool(s.error.is_none()),
            ]));
        }
    }
    Ok(obj(vec![
        ("gen_s", Value::Float(gen_s)),
        ("seed_s", Value::Float(seed_s)),
        ("load_s", Value::Float(load_s)),
        ("object_bytes", Value::UInt((values * 4) as u64)),
        ("rss_MiB", Value::Float(probe.read().clone()?)),
        ("jobs", Value::Array(jobs)),
        ("errors", Value::Array(errors)),
    ]))
}
