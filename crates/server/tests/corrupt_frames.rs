//! Fuzz-style robustness tests for every JSON decoder an untrusted
//! peer can reach.
//!
//! A wire frame comes from any TCP client, and a `perf-diff` baseline
//! from any file, so `json::parse`, `Request::decode`,
//! `Response::decode` and `ProfileBaseline::parse` must treat their
//! input as hostile: arbitrary bytes, every truncation of a real frame,
//! and nesting around `json::MAX_DEPTH` must all come back as `Ok` or a
//! typed error — never a panic, and never a stack overflow, which
//! aborts the whole daemon rather than unwinding.
//!
//! Inputs come from the seeded proptest runner and from the committed
//! wire fixtures, so failures replay exactly under `cargo test`.

use std::path::PathBuf;

use proptest::prelude::*;
use reprocmp_obs::json::{self, MAX_DEPTH};
use reprocmp_obs::ProfileBaseline;
use reprocmp_server::{ProtoError, Request, Response};

/// Runs all four decoders on `bytes`. Reaching the end without
/// unwinding is the assertion; the typed-error arms spell out what
/// "typed" means for each.
fn decode_all_must_not_panic(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    match json::parse(&text) {
        Ok(_) | Err(json::JsonError { .. }) => {}
    }
    for frame in [Request::decode(bytes).err(), Response::decode(bytes).err()] {
        match frame {
            None | Some(ProtoError::Json(_) | ProtoError::Schema(_)) => {}
            Some(ProtoError::Io(e)) => panic!("decoding a buffer reported i/o: {e}"),
        }
    }
    let _: Result<ProfileBaseline, String> = ProfileBaseline::parse(&text);
}

/// JSON-ish tokens, so random sequences reach deep into the parser
/// instead of failing on the first byte.
#[rustfmt::skip]
const TOKENS: [&str; 20] = [
    "[", "]", "{", "}", ",", ":", "\"", "\"type\"", "\"hello\"", "\"stages\"", "0", "-1",
    "1e9", "18446744073709551616", "true", "null", "\\", "\\u", "\u{e9}", " ",
];

fn fixtures() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/wire");
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("wire fixtures")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read fixture"))
        })
        .collect();
    out.sort();
    assert!(out.len() >= 20, "wire fixtures went missing");
    out
}

fn nest(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        decode_all_must_not_panic(&bytes);
    }

    #[test]
    fn arbitrary_token_streams_never_panic(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..400),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        decode_all_must_not_panic(text.as_bytes());
    }
}

#[test]
fn every_truncated_wire_fixture_is_a_typed_error() {
    for (name, bytes) in fixtures() {
        let doc_end = bytes
            .iter()
            .rposition(|b| !b.is_ascii_whitespace())
            .map_or(0, |i| i + 1);
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            decode_all_must_not_panic(prefix);
            if cut < doc_end {
                let text = std::str::from_utf8(prefix).expect("fixtures are ASCII");
                assert!(json::parse(text).is_err(), "{name} cut at {cut} parsed");
            }
        }
        let whole = if name.starts_with("req_") {
            Request::decode(&bytes).err()
        } else {
            Response::decode(&bytes).err()
        };
        assert!(whole.is_none(), "{name} no longer decodes: {whole:?}");
    }
}

#[test]
fn nesting_below_the_limit_decodes_and_above_it_is_a_typed_error() {
    assert!(json::parse(&nest(MAX_DEPTH - 1)).is_ok());
    let err = json::parse(&nest(MAX_DEPTH + 1)).expect_err("too deep");
    assert!(err.message.contains("nesting"), "{err}");

    // The same depths inside real documents: an unknown field nested
    // to the limit is ignored; one level past it fails as bad JSON.
    let hello = |depth| {
        format!(
            r#"{{"type":"hello","client":"c","future":{}}}"#,
            nest(depth)
        )
    };
    let error = |depth| {
        format!(
            r#"{{"type":"error","message":"m","future":{}}}"#,
            nest(depth)
        )
    };
    let profile = |depth| format!(r#"{{"stages":{{}},"future":{}}}"#, nest(depth));
    // The document object itself is one level.
    let (below, above) = (MAX_DEPTH - 2, MAX_DEPTH);

    assert!(matches!(
        Request::decode(hello(below).as_bytes()),
        Ok(Request::Hello { .. })
    ));
    assert!(matches!(
        Request::decode(hello(above).as_bytes()),
        Err(ProtoError::Json(_))
    ));
    assert!(matches!(
        Response::decode(error(below).as_bytes()),
        Ok(Response::Error { .. })
    ));
    assert!(matches!(
        Response::decode(error(above).as_bytes()),
        Err(ProtoError::Json(_))
    ));
    assert!(ProfileBaseline::parse(&profile(below)).is_ok());
    let err = ProfileBaseline::parse(&profile(above)).expect_err("too deep");
    assert!(err.contains("nesting"), "{err}");
}
