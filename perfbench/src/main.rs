//! Helper for the wall-clock benchmark in this directory. `run.py`
//! drives it (see `README.md`); it has three subcommands:
//!
//! * `gen` writes one divergent checkpoint pair as VELOC-format files
//!   and prints the generator's brute-force diff oracle.
//! * `trace` is the traced run: it calls each crate's public functions
//!   on a file pair under spans and prints per-layer times.
//! * `daemon-load` seeds a running `reprocmp serve` daemon and drives it
//!   with closed-loop TCP clients, checking every result.
//!
//! Every subcommand prints one JSON object on stdout and exits non-zero
//! on any error.

mod daemon;
mod trace;

use std::collections::HashMap;
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use reprocmp_bench::{DivergenceSpec, DivergentPair};
use serde::{Serialize, Value};

pub(crate) type Res<T> = Result<T, Box<dyn Error>>;

/// Merkle leaf and store chunk size, the CLI's and the daemon's default.
pub(crate) const CHUNK_BYTES: usize = 4096;

/// `--flag value` pairs.
pub(crate) struct Args(HashMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Res<Self> {
        let mut map = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    pub(crate) fn str(&self, key: &str) -> Res<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}").into())
    }

    pub(crate) fn num<T: FromStr>(&self, key: &str) -> Res<T> {
        let raw = self.str(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: cannot parse `{raw}`").into())
    }
}

pub(crate) fn spec_named(name: &str) -> Res<DivergenceSpec> {
    match name {
        "hacc_like" => Ok(DivergenceSpec::hacc_like()),
        "hacc_like_late" => Ok(DivergenceSpec::hacc_like_late()),
        other => Err(format!("unknown divergence spec `{other}`").into()),
    }
}

pub(crate) fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Prints a [`Value`] as JSON (the vendored `serde_json` serializes
/// through [`Serialize`], which `Value` itself does not implement).
struct Doc(Value);

impl Serialize for Doc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// `gen --out DIR --values N --spec S --seed N --eps E`: writes
/// `DIR/run1.ckpt` and `DIR/run2.ckpt` (one `data` region each). The
/// pair is the same as a daemon workload's pair 0 under that seed.
fn gen(args: &Args) -> Res<Value> {
    let dir = Path::new(args.str("out")?);
    let pair = DivergentPair::generate(
        args.num("values")?,
        spec_named(args.str("spec")?)?,
        args.num("seed")?,
    );
    let oracle = pair.diffs_above(args.num("eps")?);
    for (name, run) in [("run1.ckpt", &pair.run1), ("run2.ckpt", &pair.run2)] {
        let image = reprocmp_veloc::format::encode_checkpoint(0, &[("data", run)]);
        std::fs::write(dir.join(name), image)?;
    }
    Ok(obj(vec![
        ("oracle_diffs", Value::UInt(oracle as u64)),
        ("payload_bytes", Value::UInt(pair.bytes())),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let result = Args::parse(rest).and_then(|args| match argv.first().map(String::as_str) {
        Some("gen") => gen(&args),
        Some("trace") => trace::run(&args),
        Some("daemon-load") => daemon::run(&args),
        _ => Err("usage: perfbench gen|trace|daemon-load --flag value ...".into()),
    });
    match result {
        Ok(v) => {
            println!(
                "{}",
                serde_json::to_string(&Doc(v)).expect("a Value always serializes")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
