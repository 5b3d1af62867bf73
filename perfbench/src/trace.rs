//! The traced run: spans around calls into each crate's public
//! functions, on one checkpoint file pair.
//!
//! Spans are recorded here, in the benchmark, never read from the
//! program's own phase timers (under the CLI's default `sim_gpu` device
//! those report modeled time). Each repetition issues one request of
//! every kind below; a span's self time is its duration minus its
//! children's, so a request's own self time is the glue between the
//! layer calls. Reported values are medians over repetitions of the
//! per-request sums.
//!
//! * `cli.compare` replays the CLI's `compare` path in process:
//!   `veloc.read`, `core.source` and `core.compare` for both runs.
//! * `capture` runs the capture kernels one at a time on both payloads:
//!   `hash.*` on one thread, then `merkle.*` on the CLI's device.
//! * `stage1` is the pruning BFS, `stage2` the stage-two stream of the
//!   flagged chunks of both files through `StdFsStorage`.
//! * `store` ingests, materializes and opens both runs in a fresh store.
//! * `server.ingest` / `server.compare` / `server.materialize` run one
//!   job of each verb through the wire codecs and `execute_spec`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reprocmp_core::{CheckpointSource, CompareEngine, CompareReport, EngineConfig};
use reprocmp_device::Device;
use reprocmp_hash::{raw_chunk_digest, ChunkHasher};
use reprocmp_io::{PipelineConfig, StdFsStorage, Storage, StreamPipeline};
use reprocmp_merkle::{compare_trees, decode_tree, encode_tree, MerkleTree};
use reprocmp_server::json::{get, get_str, get_u64};
use reprocmp_server::proto::{encode, hex_decode, hex_encode};
use reprocmp_server::{execute_spec, JobSpec, JobState, ObjectRef, Request, Response};
use reprocmp_store::ChunkStore;
use reprocmp_veloc::decode_checkpoint;
use serde::Value;

use crate::daemon::check_ledger;
use crate::{obj, Args, Res, CHUNK_BYTES};

struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start: Instant,
    dur: Duration,
}

/// In-memory span recorder; a disabled tracer records nothing.
struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    requests: Vec<&'static str>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            stack: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Runs `f` under a span named `name`, nested in the open span; with
    /// no span open, `f` is a new request.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.stack.last().copied();
        let request = match parent {
            Some(p) => self.spans[p].request,
            None => {
                self.requests.push(name);
                self.requests.len() - 1
            }
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: Instant::now(),
            dur: Duration::ZERO,
        });
        self.stack.push(id);
        let out = f(self);
        self.spans[id].dur = self.spans[id].start.elapsed();
        self.stack.pop();
        out
    }

    /// Median over requests of kind `root` of the summed duration of
    /// the spans named `name` (inclusive time).
    fn median_total(&self, root: &str, name: &str) -> f64 {
        median(self.per_request(root, |_, s| (s.name == name).then_some(s.dur)))
    }

    /// Median over requests of kind `root` of each span name's summed
    /// self time.
    fn self_times(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur;
            }
        }
        let mut names: Vec<&'static str> = self
            .spans
            .iter()
            .filter(|s| self.requests[s.request] == root)
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let per = self.per_request(root, |i, s| {
                    (s.name == name).then(|| s.dur.saturating_sub(children[i]))
                });
                (name, median(per))
            })
            .collect()
    }

    fn per_request(&self, root: &str, f: impl Fn(usize, &Span) -> Option<Duration>) -> Vec<f64> {
        let mut sums: BTreeMap<usize, Duration> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.requests[s.request] == root {
                let sum = sums.entry(s.request).or_default();
                if let Some(d) = f(i, s) {
                    *sum += d;
                }
            }
        }
        sums.values().map(Duration::as_secs_f64).collect()
    }
}

pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One run's checkpoint file, decoded once outside any span.
struct Run {
    path: PathBuf,
    tree: PathBuf,
    bytes: Vec<u8>,
    offset: usize,
    values: Vec<f32>,
}

impl Run {
    fn load(dir: &Path, name: &str) -> Res<Self> {
        let path = dir.join(format!("{name}.ckpt"));
        let bytes = std::fs::read(&path)?;
        let file = decode_checkpoint(&bytes)?;
        let offset = usize::try_from(file.payload_offset)?;
        let end = offset + usize::try_from(file.payload_len)?;
        let values = f32_values(&bytes[offset..end]);
        Ok(Run {
            tree: dir.join(format!("{name}.tree")),
            path,
            bytes,
            offset,
            values,
        })
    }

    fn payload(&self) -> &[u8] {
        &self.bytes[self.offset..self.offset + self.values.len() * 4]
    }
}

fn f32_values(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

/// `cli.compare`: the CLI's `compare` path, with or without stored
/// trees.
fn cli_request(
    t: &mut Tracer,
    runs: &[Run; 2],
    stored: bool,
    engine: &CompareEngine,
) -> Res<CompareReport> {
    t.span("cli.compare", |t| {
        let mut sources = Vec::new();
        for run in runs {
            let (bytes, off, len) = t.span("veloc.read", |_| -> Res<_> {
                let bytes = std::fs::read(&run.path)?;
                let file = decode_checkpoint(&bytes)?;
                Ok((bytes, file.payload_offset, file.payload_len))
            })?;
            let source = if stored {
                t.span("core.source", |_| {
                    CheckpointSource::from_files(&run.path, off, len, &run.tree)
                })?
            } else {
                let values = f32_values(&bytes[usize::try_from(off)?..usize::try_from(off + len)?]);
                t.span("core.source", |_| {
                    CheckpointSource::in_memory(&values, engine)
                })?
            };
            sources.push(source);
        }
        Ok(t.span("core.compare", |_| engine.compare(&sources[0], &sources[1]))?)
    })
}

/// `capture`: the capture kernels one at a time; returns both trees.
fn capture(t: &mut Tracer, runs: &[Run; 2], engine: &CompareEngine) -> Res<[MerkleTree; 2]> {
    let hasher = ChunkHasher::new(*engine.quantizer());
    let device = Device::sim_gpu();
    let eps = engine.config().error_bound;
    let chunk_values = CHUNK_BYTES / 4;
    t.span("capture", |t| {
        t.span("hash.quantize", |_| {
            let mut scratch = Vec::new();
            for run in runs {
                for chunk in run.values.chunks(chunk_values) {
                    hasher.quantizer().quantize_to_bytes(chunk, &mut scratch);
                    black_box(&scratch);
                }
            }
        });
        let leaves: Vec<_> = t.span("hash.leaf", |_| {
            runs.iter()
                .map(|r| hasher.hash_leaves(black_box(&r.values), chunk_values))
                .collect()
        });
        t.span("hash.raw_digest", |_| {
            for run in runs {
                for chunk in run.payload().chunks(CHUNK_BYTES) {
                    black_box(raw_chunk_digest(chunk));
                }
            }
        });
        let built: Vec<_> = t.span("merkle.build", |_| {
            runs.iter()
                .map(|r| MerkleTree::build_from_f32(&r.values, CHUNK_BYTES, &hasher, &device))
                .collect()
        });
        let mut trees = Vec::new();
        for (run, leaves) in runs.iter().zip(leaves) {
            let data_len = (run.values.len() * 4) as u64;
            let tree = t.span("merkle.level_build", |_| {
                MerkleTree::from_leaves(leaves, CHUNK_BYTES, data_len, eps, &device)
            });
            trees.push(tree);
        }
        for (a, b) in trees.iter().zip(&built) {
            if a.root() != b.root() {
                return Err("from_leaves and build_from_f32 disagree on the root".into());
            }
        }
        let encoded: Vec<_> = t.span("merkle.encode", |_| trees.iter().map(encode_tree).collect());
        let decoded = t.span("merkle.decode", |_| {
            encoded
                .iter()
                .map(|e| decode_tree(e))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(decoded.try_into().map_err(|_| "two trees")?)
    })
}

/// `stage2`: streams the flagged chunks of both files through
/// `StdFsStorage`; returns (ops, bytes).
fn stage2(t: &mut Tracer, runs: &[Run; 2], flagged: &[usize]) -> Res<(u64, u64)> {
    t.span("stage2", |t| {
        t.span("io.stage2_read", |_| -> Res<(u64, u64)> {
            let mut pipes = Vec::new();
            for run in runs {
                let storage: Arc<dyn Storage> = Arc::new(StdFsStorage::open(&run.path)?);
                let payload_len = (run.values.len() * 4) as u64;
                let ops = flagged
                    .iter()
                    .map(|&i| {
                        let start = (i * CHUNK_BYTES) as u64;
                        let len = (payload_len - start).min(CHUNK_BYTES as u64) as usize;
                        (run.offset as u64 + start, len)
                    })
                    .collect();
                pipes.push(StreamPipeline::start(
                    storage,
                    ops,
                    PipelineConfig::default(),
                ));
            }
            let pipe_b = pipes.pop().expect("two pipelines");
            let pipe_a = pipes.pop().expect("two pipelines");
            let (mut ops, mut bytes) = (0u64, 0u64);
            for (a, b) in pipe_a.zip(pipe_b) {
                for slice in [a?, b?] {
                    ops += slice.ops.len() as u64;
                    bytes += slice.data.len() as u64;
                    black_box(&slice.data);
                }
            }
            Ok((ops, bytes))
        })
    })
}

/// `store`: ingest, materialize and open both runs in a fresh store;
/// returns the physical bytes written.
fn store_layer(
    t: &mut Tracer,
    root: &Path,
    runs: &[Run; 2],
    trees: &[MerkleTree; 2],
    engine: &CompareEngine,
) -> Res<u64> {
    let metas: Vec<_> = trees.iter().map(encode_tree).collect();
    let store = ChunkStore::open(root)?;
    let names = ["run1", "run2"];
    t.span("store", |t| {
        let mut physical = 0;
        t.span("store.ingest", |_| -> Res<()> {
            for ((run, meta), name) in runs.iter().zip(&metas).zip(names) {
                let s = store.ingest(name, 1, &[("data", run.payload())], CHUNK_BYTES, meta)?;
                if s.bytes_logical != s.bytes_physical + s.bytes_deduped {
                    return Err(format!("store ledger unbalanced: {s:?}").into());
                }
                physical += s.bytes_physical;
            }
            Ok(())
        })?;
        t.span("store.materialize", |_| -> Res<()> {
            for (run, name) in runs.iter().zip(names) {
                if store.materialize(name, 1)? != run.payload() {
                    return Err(format!("store materialized {name} wrongly").into());
                }
            }
            Ok(())
        })?;
        t.span("store.open_source", |_| -> Res<()> {
            for name in names {
                black_box(CheckpointSource::from_store(&store, name, 1, engine)?);
            }
            Ok(())
        })?;
        Ok(physical)
    })
}

fn job_result(spec: &JobSpec, store: &ChunkStore, engine: &CompareEngine) -> Res<Value> {
    execute_spec(store, engine, spec)
        .result
        .map_err(|e| format!("{} job failed: {e}", spec.verb()).into())
}

fn object(name: &str) -> ObjectRef {
    ObjectRef {
        name: name.to_owned(),
        version: 1,
    }
}

/// The three `server.*` requests: one job of each verb through the wire
/// codecs and `execute_spec`, checked against the oracle.
fn server_layer(
    t: &mut Tracer,
    root: &Path,
    runs: &[Run; 2],
    oracle: u64,
    engine: &CompareEngine,
) -> Res<()> {
    let store = ChunkStore::open(root)?;
    job_result(
        &JobSpec::Ingest {
            name: "run2".into(),
            version: 1,
            chunk_bytes: CHUNK_BYTES,
            data: runs[1].payload().to_vec(),
        },
        &store,
        engine,
    )?;
    t.span("server.ingest", |t| -> Res<()> {
        let hex = t.span("server.hex_encode", |_| hex_encode(runs[0].payload()));
        let frame = t.span("server.request_encode", |_| {
            encode(&Request::Ingest {
                name: "run1".into(),
                version: 1,
                chunk_bytes: CHUNK_BYTES as u64,
                data: hex,
            })
        });
        let request = t.span("server.request_decode", |_| Request::decode(&frame))?;
        drop(frame);
        let Request::Ingest { data, .. } = request else {
            return Err("ingest frame decoded as another request".into());
        };
        let data = t.span("server.hex_decode", |_| hex_decode(&data))?;
        let spec = JobSpec::Ingest {
            name: "run1".into(),
            version: 1,
            chunk_bytes: CHUNK_BYTES,
            data,
        };
        let result = t.span("server.execute_ingest", |_| {
            job_result(&spec, &store, engine)
        })?;
        check_ledger(&result)
    })?;
    t.span("server.compare", |t| -> Res<()> {
        let spec = JobSpec::Compare {
            left: object("run1"),
            right: object("run2"),
        };
        let result = t.span("server.execute_compare", |_| {
            job_result(&spec, &store, engine)
        })?;
        let diffs = get(&result, "stats").and_then(|s| get_u64(s, "diff_count"));
        if diffs != Some(oracle) {
            return Err(
                format!("execute_spec compare found {diffs:?} diffs, oracle {oracle}").into(),
            );
        }
        // Compare frames are small but not free: the result carries the
        // whole report.
        t.span("server.compare_codec", |_| -> Res<()> {
            let req = encode(&Request::Compare {
                left: object("run1"),
                right: object("run2"),
            });
            black_box(Request::decode(&req)?);
            let resp = encode(&status_response(result));
            black_box(Response::decode(&resp)?);
            Ok(())
        })
    })?;
    let spec = JobSpec::Materialize {
        name: "run1".into(),
        version: 1,
    };
    let decoded = t.span("server.materialize", |t| -> Res<Response> {
        let result = t.span("server.execute_materialize", |_| {
            job_result(&spec, &store, engine)
        })?;
        let frame = t.span("server.response_encode", |_| {
            encode(&status_response(result))
        });
        Ok(t.span("server.response_decode", |_| Response::decode(&frame))?)
    })?;
    let Response::Status {
        result: Some(result),
        ..
    } = decoded
    else {
        return Err("materialize response carries no result".into());
    };
    let bytes = hex_decode(get_str(&result, "data").unwrap_or_default())?;
    if bytes != runs[0].payload() {
        return Err("materialize returned different bytes".into());
    }
    Ok(())
}

fn status_response(result: Value) -> Response {
    Response::Status {
        job: 1,
        state: JobState::Done,
        result: Some(result),
        error: None,
    }
}

/// `trace --dir DIR --eps E --stored 0|1 --reps N`.
pub(crate) fn run(args: &Args) -> Res<Value> {
    let dir = Path::new(args.str("dir")?);
    let eps: f64 = args.num("eps")?;
    let stored = args.num::<u8>("stored")? == 1;
    let reps: usize = args.num("reps")?;
    let engine = CompareEngine::try_new(EngineConfig {
        chunk_bytes: CHUNK_BYTES,
        error_bound: eps,
        ..EngineConfig::default()
    })?;
    let runs = [Run::load(dir, "run1")?, Run::load(dir, "run2")?];

    // Brute-force oracle over the files' own values: the diff count and
    // the chunks that hold a real difference.
    let mut oracle = 0u64;
    let mut real_chunks = Vec::new();
    let chunk_values = CHUNK_BYTES / 4;
    for (i, (ca, cb)) in runs[0]
        .values
        .chunks(chunk_values)
        .zip(runs[1].values.chunks(chunk_values))
        .enumerate()
    {
        let n = ca
            .iter()
            .zip(cb)
            .filter(|(a, b)| (f64::from(**a) - f64::from(**b)).abs() > eps)
            .count() as u64;
        if n > 0 {
            real_chunks.push(i);
        }
        oracle += n;
    }

    let mut t = Tracer::new(true);
    let mut untraced = Vec::new();
    let (mut flagged_n, mut nodes, mut stage2_ops, mut stage2_bytes, mut physical) =
        (0, 0, 0, 0, 0);
    let scratch_store = |name: &str| -> Res<PathBuf> {
        let p = dir.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        Ok(p)
    };
    for rep in 0..reps {
        // Alternate which variant runs first, so neither always gets the
        // warmer cache.
        for traced in [rep % 2 == 0, rep % 2 == 1] {
            let report = if traced {
                cli_request(&mut t, &runs, stored, &engine)?
            } else {
                let start = Instant::now();
                let report = cli_request(&mut Tracer::new(false), &runs, stored, &engine)?;
                untraced.push(start.elapsed().as_secs_f64());
                report
            };
            if report.stats.diff_count != oracle {
                return Err(format!(
                    "compare found {} diffs, oracle {oracle}",
                    report.stats.diff_count
                )
                .into());
            }
        }
        let trees = capture(&mut t, &runs, &engine)?;
        let device = Device::sim_gpu();
        let outcome = t.span("stage1", |t| {
            t.span("merkle.bfs", |_| {
                compare_trees(
                    &trees[0],
                    &trees[1],
                    &device,
                    device.concurrent_kernel_threads(),
                )
            })
        })?;
        let missed = real_chunks
            .iter()
            .filter(|c| outcome.mismatched_leaves.binary_search(c).is_err())
            .count();
        if missed > 0 {
            return Err(format!("{missed} chunks with real differences were not flagged").into());
        }
        flagged_n = outcome.mismatched_leaves.len() as u64;
        nodes = outcome.nodes_visited as u64;
        (stage2_ops, stage2_bytes) = stage2(&mut t, &runs, &outcome.mismatched_leaves)?;
        let root = scratch_store("trace-store")?;
        physical = store_layer(&mut t, &root, &runs, &trees, &engine)?;
        std::fs::remove_dir_all(&root)?;
        let root = scratch_store("trace-server-store")?;
        server_layer(&mut t, &root, &runs, oracle, &engine)?;
        std::fs::remove_dir_all(&root)?;
    }

    let both_files = (runs[0].bytes.len() + runs[1].bytes.len()) as f64;
    let both_payloads = (runs[0].values.len() * 8) as f64;
    let m = |root: &str, name: &str| t.median_total(root, name);
    let traced_request = m("cli.compare", "cli.compare");
    let read = m("cli.compare", "veloc.read");
    let leaf = m("capture", "hash.leaf");
    let stage2_read = m("stage2", "io.stage2_read");
    let f = Value::Float;
    let metrics = obj(vec![
        ("veloc.read_s", f(read)),
        ("veloc.read_GBps", f(both_files / read / 1e9)),
        ("hash.quantize_s", f(m("capture", "hash.quantize"))),
        ("hash.leaf_s", f(leaf)),
        ("hash.leaf_GBps", f(both_payloads / leaf / 1e9)),
        ("hash.raw_digest_s", f(m("capture", "hash.raw_digest"))),
        ("merkle.build_s", f(m("capture", "merkle.build"))),
        (
            "merkle.level_build_s",
            f(m("capture", "merkle.level_build")),
        ),
        ("merkle.encode_s", f(m("capture", "merkle.encode"))),
        ("merkle.decode_s", f(m("capture", "merkle.decode"))),
        ("merkle.bfs_s", f(m("stage1", "merkle.bfs"))),
        ("merkle.bfs_nodes", Value::UInt(nodes)),
        ("merkle.chunks_flagged", Value::UInt(flagged_n)),
        (
            "merkle.flag_precision",
            f(real_chunks.len() as f64 / flagged_n.max(1) as f64),
        ),
        ("io.stage2_read_s", f(stage2_read)),
        ("io.stage2_ops", Value::UInt(stage2_ops)),
        ("io.stage2_bytes", Value::UInt(stage2_bytes)),
        ("io.stage2_GBps", f(stage2_bytes as f64 / stage2_read / 1e9)),
        ("core.source_s", f(m("cli.compare", "core.source"))),
        ("core.compare_s", f(m("cli.compare", "core.compare"))),
        ("core.diff_values", Value::UInt(oracle)),
        ("store.ingest_s", f(m("store", "store.ingest"))),
        ("store.bytes_physical", Value::UInt(physical)),
        ("store.materialize_s", f(m("store", "store.materialize"))),
        ("store.open_source_s", f(m("store", "store.open_source"))),
        (
            "server.hex_encode_s",
            f(m("server.ingest", "server.hex_encode")),
        ),
        (
            "server.request_encode_s",
            f(m("server.ingest", "server.request_encode")),
        ),
        (
            "server.request_decode_s",
            f(m("server.ingest", "server.request_decode")),
        ),
        (
            "server.hex_decode_s",
            f(m("server.ingest", "server.hex_decode")),
        ),
        (
            "server.execute_ingest_s",
            f(m("server.ingest", "server.execute_ingest")),
        ),
        (
            "server.execute_compare_s",
            f(m("server.compare", "server.execute_compare")),
        ),
        (
            "server.compare_codec_s",
            f(m("server.compare", "server.compare_codec")),
        ),
        (
            "server.execute_materialize_s",
            f(m("server.materialize", "server.execute_materialize")),
        ),
        (
            "server.response_encode_s",
            f(m("server.materialize", "server.response_encode")),
        ),
        (
            "server.response_decode_s",
            f(m("server.materialize", "server.response_decode")),
        ),
        ("trace.overhead_s", f(traced_request - median(untraced))),
    ]);
    let roots = [
        "cli.compare",
        "capture",
        "stage1",
        "stage2",
        "store",
        "server.ingest",
        "server.compare",
        "server.materialize",
    ];
    let self_times = Value::Object(
        roots
            .iter()
            .map(|root| {
                let per = t
                    .self_times(root)
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), Value::Float(v)))
                    .collect();
                ((*root).to_owned(), Value::Object(per))
            })
            .collect(),
    );
    Ok(obj(vec![
        ("metrics", metrics),
        ("self_s", self_times),
        ("oracle_diffs", Value::UInt(oracle)),
        ("real_chunks", Value::UInt(real_chunks.len() as u64)),
        ("reps", Value::UInt(reps as u64)),
    ]))
}
