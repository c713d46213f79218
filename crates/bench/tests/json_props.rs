//! Fail-closed property test of the two JSON decoders that read outside
//! input, `ClusterSpec::from_json` (the `CLUSTER.json` every `repro
//! dist` process parses on its own) and `CalibrationProfile::from_json`,
//! and of the one reader under both. Inputs the old key scanners
//! misread must fail with a typed error or decode correctly; random
//! specs and profiles must round-trip bit for bit, including strings
//! full of quotes, backslashes, control and astral characters; damaged
//! documents must give a value or a typed error, never a panic; and
//! every `BENCH_*.json` and `PLAN_*.json` record must parse.

use std::path::Path;

use parallax_cluster::{CalibrationProfile, SpecError};
use parallax_net::{ClusterSpec, NetError};
use parallax_tensor::DetRng;
use parallax_trace::json::{self, Reason, Value};

fn spec() -> ClusterSpec {
    ClusterSpec {
        preset: "lm".into(),
        machines: 1,
        gpus_per_machine: 2,
        iterations: 4,
        seed: 42,
        wire_format: "f32".into(),
        host: "127.0.0.1".into(),
        ports: vec![7101, 7102, 7103],
        artifact_dir: "/tmp/x".into(),
        recv_deadline_ms: 5000,
        fault_spec: String::new(),
        checkpoint: String::new(),
        snapshot: String::new(),
        checkpoint_interval: 2,
        max_recoveries: 1,
        validate_protocol: true,
    }
}

fn profile() -> CalibrationProfile {
    CalibrationProfile {
        machines: 2,
        iterations: 3,
        compute_per_iter: vec![0.3, 0.6],
        server_busy_per_iter: vec![0.0; 2],
        apply_per_iter: vec![0.0; 2],
        early_requests_per_iter: vec![2.0, 0.0],
        late_requests_per_iter: vec![2.0, 0.0],
        service_mean_s: vec![0.002, 0.0],
        wait_mean_s: 0.04,
    }
}

/// `text` with its first `from` replaced, which must exist.
fn edit(text: &str, from: &str, to: &str) -> String {
    let out = text.replacen(from, to, 1);
    assert_ne!(out, text, "{from} must occur in {text}");
    out
}

fn reason(text: &str) -> Reason {
    json::parse(text).expect_err(text).reason
}

#[test]
fn misread_inputs_fail_closed_or_decode_correctly() {
    let good = spec().to_json();
    assert_eq!(ClusterSpec::from_json(&good).unwrap(), spec());
    let body = good.strip_suffix('}').unwrap();
    let truex = edit(
        &good,
        "\"validate_protocol\":1",
        "\"validate_protocol\":truex",
    );
    let rejected = [
        (format!("{good}x"), Reason::TrailingBytes),
        (format!("{body},\"seed\":7}}"), Reason::DuplicateKey),
        (truex, Reason::Expected("',' or '}'")),
    ];
    for (text, why) in rejected {
        assert_eq!(reason(&text), why, "{text}");
        assert!(
            matches!(ClusterSpec::from_json(&text), Err(NetError::Spec(_))),
            "{text} must be rejected"
        );
    }
    // Escapes decode, and `seed` inside an earlier nested object does
    // not shadow the spec's own.
    let escaped = edit(&good, "\"/tmp/x\"", r#""/tmp/a\nbé😀""#);
    let nested = edit(&escaped, "{", r#"{"extra":{"seed":1},"#);
    let s = ClusterSpec::from_json(&nested).unwrap();
    assert_eq!(s.artifact_dir, "/tmp/a\nbé😀");
    assert_eq!(s.seed, 42);

    let good = profile().to_json();
    assert_eq!(CalibrationProfile::from_json(&good).unwrap(), profile());
    let body = good.strip_suffix('}').unwrap();
    let rejected = [
        (
            edit(&good, "[0.3,0.6]", "[0.3,,0.6]"),
            Reason::Expected("a value"),
        ),
        (
            edit(&good, "[0.3,0.6]", "[0.3,0.6,]"),
            Reason::Expected("a value"),
        ),
        (format!("{body},\"machines\":2}}"), Reason::DuplicateKey),
    ];
    for (text, why) in rejected {
        assert_eq!(reason(&text), why, "{text}");
        assert!(
            matches!(
                CalibrationProfile::from_json(&text),
                Err(SpecError::Invalid(_))
            ),
            "{text} must be rejected"
        );
    }
    let spaced = edit(&good, "\"machines\":2", "\"machines\" : 2");
    assert_eq!(CalibrationProfile::from_json(&spaced).unwrap(), profile());
}

/// A string drawn from what JSON must escape or carry through:
/// quotes, backslashes, every control character, non-ASCII and astral
/// characters, and printable ASCII.
fn random_string(rng: &mut DetRng, min_len: usize) -> String {
    const SPECIAL: [char; 8] = ['"', '\\', '/', 'é', '€', '\u{7f}', '\u{2028}', '😀'];
    let len = min_len + rng.below(12);
    (0..len)
        .map(|_| match rng.below(4) {
            0 => char::from(rng.below(0x20) as u8),
            1 => SPECIAL[rng.below(SPECIAL.len())],
            2 => char::from_u32(0x10000 + rng.below(0x100000) as u32).unwrap(),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

/// A `u64` that is often an edge: 0, 2^53 + 1 or `u64::MAX`.
fn edge_u64(rng: &mut DetRng) -> u64 {
    match rng.below(5) {
        0 => 0,
        1 => (1 << 53) + 1,
        2 => u64::MAX,
        _ => rng.next_u64(),
    }
}

fn random_spec(rng: &mut DetRng) -> ClusterSpec {
    let machines = 1 + rng.below(3);
    let gpus_per_machine = 1 + rng.below(3);
    let ports = match rng.below(3) {
        0 => Vec::new(),
        _ => (0..machines * (gpus_per_machine + 1))
            .map(|_| 1 + rng.below(65535) as u16)
            .collect(),
    };
    ClusterSpec {
        preset: random_string(rng, 1),
        machines,
        gpus_per_machine,
        iterations: edge_u64(rng).max(1) as usize,
        seed: edge_u64(rng),
        wire_format: random_string(rng, 0),
        host: random_string(rng, 1),
        ports,
        artifact_dir: random_string(rng, 1),
        recv_deadline_ms: edge_u64(rng),
        fault_spec: random_string(rng, 0),
        checkpoint: random_string(rng, 0),
        snapshot: random_string(rng, 0),
        checkpoint_interval: edge_u64(rng) as usize,
        max_recoveries: edge_u64(rng) as usize,
        validate_protocol: rng.below(2) == 1,
    }
}

/// Finite, non-negative figures: edges, small uniforms, and arbitrary
/// bit patterns with the sign cleared.
fn figures(rng: &mut DetRng, n: usize) -> Vec<f64> {
    const EDGES: [f64; 6] = [0.0, 5e-324, f64::MIN_POSITIVE, 1e-7, 0.1, f64::MAX];
    (0..n)
        .map(|_| match rng.below(3) {
            0 => EDGES[rng.below(EDGES.len())],
            1 => f64::from(rng.uniform()),
            _ => loop {
                let x = f64::from_bits(rng.next_u64() >> 1);
                if x.is_finite() {
                    break x;
                }
            },
        })
        .collect()
}

fn random_profile(rng: &mut DetRng) -> CalibrationProfile {
    let machines = rng.below(4);
    CalibrationProfile {
        machines,
        iterations: edge_u64(rng).max(1),
        compute_per_iter: figures(rng, machines),
        server_busy_per_iter: figures(rng, machines),
        apply_per_iter: figures(rng, machines),
        early_requests_per_iter: figures(rng, machines),
        late_requests_per_iter: figures(rng, machines),
        service_mean_s: figures(rng, machines),
        wait_mean_s: figures(rng, 1)[0],
    }
}

#[test]
fn random_specs_and_profiles_round_trip_bit_exactly() {
    let mut rng = DetRng::seed(0x15_0a);
    for _ in 0..300 {
        let s = random_spec(&mut rng);
        let text = s.to_json();
        assert!(
            !text.bytes().any(|b| b < 0x20),
            "raw control byte: {text:?}"
        );
        assert_eq!(ClusterSpec::from_json(&text).unwrap(), s, "{text:?}");

        let p = random_profile(&mut rng);
        let back = CalibrationProfile::from_json(&p.to_json()).unwrap();
        let bits = |p: &CalibrationProfile| {
            let vectors = [
                &p.compute_per_iter,
                &p.server_busy_per_iter,
                &p.apply_per_iter,
                &p.early_requests_per_iter,
                &p.late_requests_per_iter,
                &p.service_mean_s,
            ];
            let mut bits: Vec<u64> = vectors
                .iter()
                .flat_map(|v| v.iter().map(|x| x.to_bits()))
                .collect();
            bits.extend([p.machines as u64, p.iterations, p.wait_mean_s.to_bits()]);
            bits
        };
        assert_eq!(bits(&back), bits(&p));
    }
}

/// Damaged copies of `doc`: every truncation, then bytes flipped,
/// overwritten or inserted (1 to 4 each).
fn damaged(doc: &str, rng: &mut DetRng) -> Vec<String> {
    const TOKENS: &[u8] = b"\"\\,:{}[]0-+.eE tfnu\x00\xff";
    let bytes = doc.as_bytes();
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for _ in 0..96 {
        let mut changed = bytes.to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(changed.len());
            match rng.below(3) {
                0 => changed[at] ^= 1 << rng.below(8),
                1 => changed[at] = TOKENS[rng.below(TOKENS.len())],
                _ => changed[at] = rng.next_u64() as u8,
            }
        }
        out.push(changed);
        let mut grown = bytes.to_vec();
        for _ in 0..1 + rng.below(4) {
            let byte = match rng.below(2) {
                0 => TOKENS[rng.below(TOKENS.len())],
                _ => rng.next_u64() as u8,
            };
            grown.insert(rng.below(grown.len() + 1), byte);
        }
        out.push(grown);
    }
    out.iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect()
}

/// Valid documents made invalid: each member duplicated, and a second
/// document appended.
fn duplicated_or_appended(doc: &str) -> Vec<(String, Reason)> {
    let Ok(Value::Object(members)) = json::parse(doc) else {
        panic!("{doc} is not an object");
    };
    let mut out: Vec<(String, Reason)> = members
        .keys()
        .map(|k| (format!("{{\"{k}\":0,{}", &doc[1..]), Reason::DuplicateKey))
        .collect();
    out.push((format!("{doc}{doc}"), Reason::TrailingBytes));
    out.push((format!("{doc}\n[]"), Reason::TrailingBytes));
    out
}

#[test]
fn damaged_documents_give_a_value_or_a_typed_error() {
    let mut rng = DetRng::seed(0xda_3a9e);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for _ in 0..6 {
        let spec_doc = random_spec(&mut rng).to_json();
        let profile_doc = random_profile(&mut rng).to_json();
        for text in damaged(&spec_doc, &mut rng) {
            if let Err(e) = json::parse(&text) {
                assert!(e.offset <= text.len(), "{e} past the end of {text:?}");
            }
            match ClusterSpec::from_json(&text) {
                // Whatever is accepted re-encodes to the same spec.
                Ok(s) => {
                    accepted += 1;
                    assert_eq!(ClusterSpec::from_json(&s.to_json()).unwrap(), s);
                }
                Err(NetError::Spec(_)) => rejected += 1,
                Err(e) => panic!("{text:?}: untyped error {e}"),
            }
        }
        for text in damaged(&profile_doc, &mut rng) {
            match CalibrationProfile::from_json(&text) {
                Ok(p) => {
                    accepted += 1;
                    assert_eq!(CalibrationProfile::from_json(&p.to_json()).unwrap(), p);
                }
                Err(SpecError::Invalid(_)) => rejected += 1,
            }
        }
        for (text, why) in duplicated_or_appended(&spec_doc) {
            assert_eq!(reason(&text), why, "{text:?}");
            assert!(matches!(
                ClusterSpec::from_json(&text),
                Err(NetError::Spec(_))
            ));
        }
        for (text, why) in duplicated_or_appended(&profile_doc) {
            assert_eq!(reason(&text), why, "{text:?}");
            assert!(matches!(
                CalibrationProfile::from_json(&text),
                Err(SpecError::Invalid(_))
            ));
        }
    }
    // The damage reaches both outcomes.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// The committed `BENCH_*.json` records, plus the `PLAN_*.json` files
/// `repro plan` writes (verify.sh runs it; they are not committed), in
/// the repository root.
#[test]
fn records_parse_strictly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| (n.starts_with("BENCH_") || n.starts_with("PLAN_")) && n.ends_with(".json"))
        .collect();
    names.sort();
    let benches = names.iter().filter(|n| n.starts_with("BENCH_")).count();
    assert!(benches >= 4, "{names:?}");
    for name in names {
        let text = std::fs::read_to_string(root.join(&name)).unwrap();
        json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
