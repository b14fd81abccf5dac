//! The JSON codec, pinned: what `to_json_string` writes and what
//! `from_json_str` accepts for `FlightRecord`, its three point types and
//! `RunResult`.
//!
//! Each suite runs 256 fixed cases. A case generates a value and checks
//! that its text is canonical (parsing and re-rendering it changes
//! nothing) and that decode then encode gives the text back. It then
//! rewrites the document the way a foreign writer might — shuffled,
//! unknown and duplicate keys, `null`s, out-of-range integers, `\u`
//! escapes and surrogate pairs, odd whitespace, truncated or byte-flipped
//! text — and decodes that. The verdict of every case (the text's FNV-1a,
//! then `ok` and the FNV-1a of the decoded value's `Debug`, or `err`) is
//! compared with that suite's `tests/fixtures/codec/*_verdicts.txt`. A
//! sixth suite does the same for `FlightRecord::parse` over records stamped
//! with every version and stripped of the fields older versions lacked.
//!
//! The externally tagged enums (`LossModel`, `FaultAction`,
//! `TopologySpec`) are pinned through the configs that carry them (their
//! compact and pretty digests and cache keys) and through the verdicts on
//! odd hand-written inputs, in `tests/fixtures/codec/tagged.txt`.
//!
//! Every fixture here was written while every type still had a second,
//! document-model decoder, and that decoder agreed with the typed one on
//! every case; the test names that say "document model" keep that
//! agreement, now through the pinned verdicts. Regenerate only from a
//! known-good build, with `UPDATE_FIXTURES=1`.

use elephants::experiments::{LinkResult, RunOptions, ScenarioConfig};
use elephants::json::{parse, FromJson, JsonError, ToJson, Value};
use elephants::netsim::prelude::*;
use elephants::netsim::prop::vec_of;
use elephants::netsim::rng::fnv1a;
use elephants::telemetry::{EventPoint, FlightRecord, FlowPoint, QueuePoint, FLIGHT_RECORD_VERSION};
use elephants::{AqmKind, CcaKind, RunResult};
use integration_tests::assert_pinned;
use std::fmt::{Debug, Write};

// ---- value generators ----------------------------------------------------

fn gen_u64(rng: &mut SmallRng) -> u64 {
    match rng.random_range(0u32..4) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.random_range(0u64..100_000),
        _ => rng.random::<u64>(),
    }
}

fn gen_f64(rng: &mut SmallRng) -> f64 {
    match rng.random_range(0u32..8) {
        0 => 0.0,
        1 => rng.random_range(0u64..1000) as f64,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::MAX,
        5 => -rng.random_range(0.0f64..1e-6),
        _ => rng.random_range(0.0f64..1e4),
    }
}

fn gen_string(rng: &mut SmallRng) -> String {
    const ALPHABET: [char; 14] =
        ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '—', '\u{1F418}'];
    vec_of(rng, 0, 12, |r| ALPHABET[r.random_range(0..ALPHABET.len())]).into_iter().collect()
}

fn gen_opt<T>(rng: &mut SmallRng, gen: impl Fn(&mut SmallRng) -> T) -> Option<T> {
    rng.random_bool(0.6).then(|| gen(rng))
}

fn gen_flow_point(rng: &mut SmallRng) -> FlowPoint {
    FlowPoint {
        t_s: gen_f64(rng),
        flow: rng.random::<u32>(),
        cwnd: gen_u64(rng),
        pacing_bps: gen_opt(rng, gen_u64),
        srtt_s: gen_opt(rng, gen_f64),
        inflight: gen_u64(rng),
        phase: gen_string(rng),
        delivered_bytes: gen_u64(rng),
        retx: gen_u64(rng),
    }
}

fn gen_queue_point(rng: &mut SmallRng) -> QueuePoint {
    QueuePoint {
        t_s: gen_f64(rng),
        link: rng.random_range(0u32..8),
        backlog_pkts: gen_u64(rng),
        backlog_bytes: gen_u64(rng),
        dropped: gen_u64(rng),
        marked: gen_u64(rng),
        control: gen_opt(rng, gen_f64),
    }
}

fn gen_event_point(rng: &mut SmallRng) -> EventPoint {
    EventPoint {
        t_s: gen_f64(rng),
        kind: gen_string(rng),
        flow: if rng.random_bool(0.2) { u32::MAX } else { rng.random_range(0u32..400) },
        seq: gen_u64(rng),
        size: rng.random::<u32>(),
    }
}

fn gen_record(rng: &mut SmallRng) -> FlightRecord {
    FlightRecord {
        schema_version: FLIGHT_RECORD_VERSION,
        label: gen_string(rng),
        seed: gen_u64(rng),
        sample_interval_s: gen_f64(rng),
        flow_samples: vec_of(rng, 0, 6, gen_flow_point),
        queue_samples: vec_of(rng, 0, 4, gen_queue_point),
        events: vec_of(rng, 0, 4, gen_event_point),
        events_truncated: gen_u64(rng),
    }
}

fn gen_run_result(rng: &mut SmallRng) -> RunResult {
    RunResult {
        sender_mbps: vec_of(rng, 0, 4, gen_f64),
        jain: gen_f64(rng),
        utilization: gen_f64(rng),
        retransmits: gen_u64(rng),
        rtos: gen_u64(rng),
        drops: gen_u64(rng),
        down_drops: gen_u64(rng),
        flows: rng.random::<u32>(),
        events: gen_u64(rng),
        peak_queue_pkts: gen_u64(rng),
        fault_events_applied: gen_u64(rng),
        record_path: gen_opt(rng, gen_string),
        links: vec_of(rng, 0, 4, |r| LinkResult {
            link: r.random::<u32>(),
            drops: gen_u64(r),
            down_drops: gen_u64(r),
            peak_queue_pkts: gen_u64(r),
            utilization: gen_f64(r),
        }),
    }
}

// ---- document mutation ---------------------------------------------------

/// Any small JSON value: what an unknown key holds.
fn gen_value(rng: &mut SmallRng, depth: u32) -> Value {
    match rng.random_range(0u32..if depth > 2 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_bool(0.5)),
        2 => Value::Int(rng.random::<u64>() as i128 - (1 << 40)),
        3 => Value::Float(gen_f64(rng)),
        4 => Value::Str(gen_string(rng)),
        5 => Value::Array(vec_of(rng, 0, 3, |r| gen_value(r, depth + 1))),
        _ => Value::Object(vec_of(rng, 0, 3, |r| (gen_string(r), gen_value(r, depth + 1)))),
    }
}

/// Rewrite a document in ways a struct decoder must shrug off: key order,
/// unknown keys, a repeated key after the one that counts.
fn scramble(v: &mut Value, rng: &mut SmallRng) {
    match v {
        Value::Object(fields) => {
            fields.iter_mut().for_each(|(_, child)| scramble(child, rng));
            if rng.random_bool(0.3) && !fields.is_empty() {
                let (key, _) = &fields[rng.random_range(0..fields.len())];
                fields.push((key.clone(), gen_value(rng, 0)));
            }
            if rng.random_bool(0.3) {
                let at = rng.random_range(0..=fields.len());
                fields.insert(at, (format!("x_{}", gen_string(rng)), gen_value(rng, 0)));
            }
            if rng.random_bool(0.5) {
                // Fisher-Yates, except that a repeated key must keep its
                // first occurrence first: shuffle only when keys are unique.
                let unique = fields.iter().enumerate().all(|(i, (k, _))| {
                    fields[..i].iter().all(|(earlier, _)| earlier != k)
                });
                if unique {
                    for i in (1..fields.len()).rev() {
                        fields.swap(i, rng.random_range(0..=i));
                    }
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(|child| scramble(child, rng)),
        _ => {}
    }
}

/// Every node of a document, depth first, for picking one to damage.
fn count_nodes(v: &Value) -> usize {
    1 + match v {
        Value::Object(fields) => fields.iter().map(|(_, c)| count_nodes(c)).sum(),
        Value::Array(items) => items.iter().map(count_nodes).sum(),
        _ => 0,
    }
}

/// Replace node number `target` (depth-first order) with something of
/// another kind or range: the mutations a decoder must *notice*, unless
/// they land on an ignored key.
fn damage(v: &mut Value, target: &mut usize, rng: &mut SmallRng) {
    if *target == 0 {
        *v = match rng.random_range(0u32..7) {
            0 => Value::Null,
            1 => Value::Int(u64::MAX as i128 + 1 + rng.random_range(0i64..10) as i128),
            2 => Value::Int(-rng.random_range(1i64..1000) as i128),
            // Prints as an integer literal beyond i128.
            3 => Value::Float(1e40),
            4 => Value::Float(rng.random_range(0.0f64..10.0) + 0.5),
            5 => Value::Str(gen_string(rng)),
            _ => Value::Array(vec![]),
        };
        *target = usize::MAX;
        return;
    }
    *target -= 1;
    match v {
        Value::Object(fields) => {
            for (_, child) in fields {
                if *target == usize::MAX {
                    return;
                }
                damage(child, target, rng);
            }
        }
        Value::Array(items) => {
            for child in items {
                if *target == usize::MAX {
                    return;
                }
                damage(child, target, rng);
            }
        }
        _ => {}
    }
}

/// Render a document the way a foreign writer might: optional whitespace
/// around every token, and string characters spelled as `\u` escapes
/// (surrogate pairs above the BMP) or `\/` at random.
fn render(v: &Value, rng: &mut SmallRng, out: &mut String) {
    fn ws(rng: &mut SmallRng, out: &mut String) {
        if rng.random_bool(0.15) {
            out.push_str([" ", "\n", "\t", "\r\n  "][rng.random_range(0..4usize)]);
        }
    }
    fn string(s: &str, rng: &mut SmallRng, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            if rng.random_bool(0.2) {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            } else if c == '/' && rng.random_bool(0.5) {
                out.push_str("\\/");
            } else {
                // One character through the canonical writer's escaping.
                let quoted = Value::Str(c.to_string()).to_string_compact();
                out.push_str(&quoted[1..quoted.len() - 1]);
            }
        }
        out.push('"');
    }
    ws(rng, out);
    match v {
        Value::Str(s) => string(s, rng, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, child)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                string(k, rng, out);
                ws(rng, out);
                out.push(':');
                render(child, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string_compact()),
    }
    ws(rng, out);
}

/// Cut the text short or overwrite one ASCII byte with another.
fn corrupt(text: &str, rng: &mut SmallRng) -> String {
    let ascii: Vec<usize> =
        text.bytes().enumerate().filter(|(_, b)| b.is_ascii()).map(|(i, _)| i).collect();
    if ascii.is_empty() {
        return String::new();
    }
    let at = ascii[rng.random_range(0..ascii.len())];
    if rng.random_bool(0.5) {
        return text[..at].to_string();
    }
    const NOISE: &[u8] = b"\"\\{}[],:0-e.+ntf u";
    let mut bytes = text.as_bytes().to_vec();
    bytes[at] = NOISE[rng.random_range(0..NOISE.len())];
    String::from_utf8(bytes).expect("ASCII for ASCII keeps the text UTF-8")
}

// ---- the pinned suites ---------------------------------------------------

/// Cases per suite: the fixture holds one verdict per case, so this does
/// not follow `ELEPHANTS_PROP_CASES`.
const CASES: u64 = 256;

fn fnv(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// Run `case` on the seeds `run_cases(name, 256, ..)` draws, one verdict
/// line per case: the decoded text's FNV-1a, then `ok` and the FNV-1a of
/// the value's `Debug` (it stands in for `==`: `RunResult` has no
/// `PartialEq`, and a NaN field must compare equal to itself), or `err`.
fn suite<T: Debug>(
    name: &str,
    mut case: impl FnMut(&mut SmallRng) -> (String, Result<T, JsonError>),
) -> String {
    let base = fnv(name);
    let (mut out, mut accepted, mut rejected) = (String::new(), 0, 0);
    for i in 0..CASES {
        let (text, decoded) = case(&mut SmallRng::seed_from_u64(base.wrapping_add(i)));
        write!(out, "{name} {i} {:016x} ", fnv(&text)).unwrap();
        match decoded {
            Ok(v) => {
                accepted += 1;
                writeln!(out, "ok {:016x}", fnv(&format!("{v:?}"))).unwrap();
            }
            Err(_) => {
                rejected += 1;
                out.push_str("err\n");
            }
        }
    }
    assert!(accepted >= 20 && rejected >= 20, "{name}: {accepted} accepted, {rejected} rejected");
    out
}

/// One case of a type's codec: encode a generated value, check the text,
/// then decode a foreign rendering of it.
fn codec_case<T: ToJson + FromJson + Debug>(
    rng: &mut SmallRng,
    gen: fn(&mut SmallRng) -> T,
) -> (String, Result<T, JsonError>) {
    let text = gen(rng).to_json_string();
    let mut doc = parse(&text).unwrap_or_else(|e| panic!("{e} in written {text}"));
    assert_eq!(doc.to_string_compact(), text, "the writer's text is canonical");
    // Not compared with the generated value: a non-finite float comes back as NaN.
    let clean = T::from_json_str(&text).unwrap_or_else(|e| panic!("{e} reading {text}"));
    assert_eq!(clean.to_json_string(), text, "decode then encode is the identity");

    scramble(&mut doc, rng);
    if rng.random_bool(0.4) {
        let mut target = rng.random_range(0..count_nodes(&doc));
        damage(&mut doc, &mut target, rng);
    }
    let mut text = String::new();
    render(&doc, rng, &mut text);
    if rng.random_bool(0.25) {
        text = corrupt(&text, rng);
    }
    let decoded = T::from_json_str(&text);
    (text, decoded)
}

/// A record stamped with any version, some rows stripped of the fields
/// older versions lacked (whatever the version says: neither an old stamp
/// nor an old shape gets in), through `FlightRecord::parse`.
fn versioned_case(rng: &mut SmallRng) -> (String, Result<FlightRecord, JsonError>) {
    let mut doc = parse(&gen_record(rng).to_json_string()).expect("the writer emits JSON");
    let version = rng.random_range(0u32..=FLIGHT_RECORD_VERSION + 1);
    let strip_from = rng.random_range(0u32..=FLIGHT_RECORD_VERSION + 1);
    let Value::Object(fields) = &mut doc else { unreachable!("a struct encodes as an object") };
    for (key, value) in fields.iter_mut() {
        let dropped: &[&str] = match key.as_str() {
            "schema_version" => {
                *value = Value::Int(version as i128);
                continue;
            }
            "flow_samples" if strip_from < 3 => &["delivered_bytes", "retx"],
            "queue_samples" if strip_from < 2 => &["link"],
            _ => continue,
        };
        let Value::Array(rows) = value else { unreachable!("sample lists encode as arrays") };
        for row in rows {
            if let Value::Object(row_fields) = row {
                if rng.random_bool(0.7) {
                    row_fields.retain(|(k, _)| !dropped.contains(&k.as_str()));
                }
            }
        }
    }
    scramble(&mut doc, rng);
    let mut text = String::new();
    render(&doc, rng, &mut text);
    if rng.random_bool(0.1) {
        text = corrupt(&text, rng);
    }
    let decoded = FlightRecord::parse(&text);
    (text, decoded)
}

#[test]
fn flight_record_codec_matches_the_document_model() {
    let verdicts = suite("flight_record_codec", |r| codec_case(r, gen_record));
    assert_pinned("codec", "flight_record_verdicts.txt", &verdicts, "FlightRecord verdicts");
}

#[test]
fn point_codecs_match_the_document_model() {
    let verdicts = [
        suite("flow_point_codec", |r| codec_case(r, gen_flow_point)),
        suite("queue_point_codec", |r| codec_case(r, gen_queue_point)),
        suite("event_point_codec", |r| codec_case(r, gen_event_point)),
    ];
    assert_pinned("codec", "point_verdicts.txt", &verdicts.concat(), "point verdicts");
}

#[test]
fn run_result_codec_matches_the_document_model() {
    let verdicts = suite("run_result_codec", |r| codec_case(r, gen_run_result));
    assert_pinned("codec", "run_result_verdicts.txt", &verdicts, "RunResult verdicts");
}

#[test]
fn versioned_parse_keeps_its_accept_and_reject_set() {
    let verdicts = suite("versioned_parse_accept_set", versioned_case);
    assert_pinned("codec", "versioned_parse_verdicts.txt", &verdicts, "versioned parse verdicts");
}

// ---- the tagged enums ----------------------------------------------------

/// `text`, with `%` for a backslash, decoded as `T`: `ok` and the value's
/// `Debug`, or `err`.
fn tagged_verdict<T: FromJson + Debug>(text: &str) -> String {
    match T::from_json_str(&text.replace('%', "\\")) {
        Ok(v) => format!("ok {v:?}"),
        Err(_) => "err".to_string(),
    }
}

#[test]
fn tagged_enums_are_pinned() {
    let mut out = String::new();
    // Every loss model x every topology, each config carrying all five
    // fault actions (the loss model again inside `SetLossModel`).
    let losses = [
        LossModel::None,
        LossModel::Bernoulli { p: 0.015 },
        LossModel::GilbertElliott { p_gb: 0.002, p_bg: 0.2 },
    ];
    let topologies = [
        TopologySpec::Dumbbell,
        TopologySpec::ParkingLot { hops: 3 },
        TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] },
    ];
    let base = ScenarioConfig::new(
        CcaKind::BbrV1,
        CcaKind::Cubic,
        AqmKind::Red,
        0.5,
        100_000_000,
        &RunOptions::quick(),
    );
    for loss in losses {
        for topology in &topologies {
            let secs = SimDuration::from_secs;
            let faults = FaultPlan::flap(secs(1), SimDuration::from_millis(250))
                .with(secs(4), FaultAction::SetLossModel(loss));
            let cfg = ScenarioConfig { loss, faults, topology: topology.clone(), ..base.clone() };
            let compact = cfg.to_json_string();
            assert_eq!(ScenarioConfig::from_json_str(&compact).as_ref(), Ok(&cfg), "{compact}");
            writeln!(
                out,
                "{loss:?} | {topology} | compact {:016x} pretty {:016x} key {}",
                fnv(&compact),
                fnv(&cfg.to_json_pretty()),
                cfg.cache_key(1)
            )
            .unwrap();
        }
    }
    // Hand-written inputs no writer of ours produces: a string is a unit
    // variant, a one-key object a data variant, and the first key decides.
    // `%` stands for a backslash.
    let loss_inputs = [
        r#""None""#,
        r#""%u004Eone""#,
        r#""none""#,
        r#"{"None":{}}"#,
        r#"{"None":null}"#,
        r#""Bernoulli""#,
        r#"{}"#,
        r#"{"Bernoulli":{"p":0.1}}"#,
        r#"{"Bernoulli":{"p":1}}"#,
        r#"{"Bernoulli":{"p":null}}"#,
        r#"{"Bernoulli":{"p":"x"}}"#,
        r#"{"Bernoulli":{}}"#,
        r#"{"Bernoulli":5}"#,
        r#"{"Bernoulli":{"p":0.1,"q":[1,{}]}}"#,
        r#"{"Bernoulli":{"p":0.1,"p":"x"}}"#,
        r#"{"Bernoulli":{"p":0.1},"extra":1}"#,
        r#"{"Bernoulli":{"p":0.1},"Bernoulli":{"p":0.2}}"#,
        r#"{"Bernoulli":{"p":0.1},"Bernoulli":"junk"}"#,
        r#"{"Bernoulli":{"p":0.1},"x":[1,]}"#,
        r#"{"extra":1,"Bernoulli":{"p":0.1}}"#,
        r#"{"Bern%u006Fulli":{"p":0.5}}"#,
        r#"{"GilbertElliott":{"p_bg":0.2,"p_gb":0.01}}"#,
        r#"{"GilbertElliott":{"p_gb":0.01}}"#,
        r#" { "GilbertElliott" : { "p_gb" : 1e-3 , "p_bg" : 2E-1 } } "#,
        r#"{"Bernoulli":{"p":0.1}} x"#,
        "5",
        "null",
        "[]",
        "true",
    ];
    let action_inputs = [
        r#""LinkDown""#,
        r#""LinkUp""#,
        r#"{"LinkDown":null}"#,
        r#""SetDelay""#,
        r#"{"SetDelay":10000000}"#,
        r#"{"SetDelay":-5}"#,
        r#"{"SetDelay":1.5}"#,
        r#"{"SetDelay":5,"SetDelay":"x"}"#,
        r#"{"x":1,"SetDelay":5}"#,
        r#"{"SetBandwidth":50000000}"#,
        r#"{"SetBandwidth":18446744073709551616}"#,
        r#"{"SetLossModel":"None"}"#,
        r#"{"SetLossModel":{"Bernoulli":{"p":0.5}},"SetDelay":"x"}"#,
        r#"{"SetLossModel":{"x":{},"Bernoulli":{"p":0.5}}}"#,
        r#"{"SetLossModel":"LinkUp"}"#,
        r#"{}"#,
        "[]",
    ];
    let topology_inputs = [
        r#""Dumbbell""#,
        r#"{"Dumbbell":{}}"#,
        r#""ParkingLot""#,
        r#"{"ParkingLot":{"hops":3}}"#,
        r#"{"ParkingLot":{"hops":3.0}}"#,
        r#"{"ParkingLot":{"hops":-1}}"#,
        r#"{"ParkingLot":{"hops":3,"hops":"x"}}"#,
        r#"{"MultiDumbbell":{"rtts_ms":[31,124]}}"#,
        r#"{"MultiDumbbell":{"rtts_ms":[]},"ParkingLot":{"hops":3}}"#,
        r#"{"MultiDumbbell":{"rtts_ms":[31,124.5]}}"#,
        r#"{"MultiDumbbell":{"rtts":[31]}}"#,
        r#"{}"#,
        "7",
    ];
    for text in loss_inputs {
        writeln!(out, "LossModel {text} -> {}", tagged_verdict::<LossModel>(text)).unwrap();
    }
    for text in action_inputs {
        writeln!(out, "FaultAction {text} -> {}", tagged_verdict::<FaultAction>(text)).unwrap();
    }
    for text in topology_inputs {
        writeln!(out, "TopologySpec {text} -> {}", tagged_verdict::<TopologySpec>(text)).unwrap();
    }
    assert_pinned("codec", "tagged.txt", &out, "tagged enum codecs");
}

/// A plan naming a mid-run rate or delay change (actions the simulator no
/// longer has) is refused by name, not read as some other action.
#[test]
fn rate_and_delay_changes_are_unknown_fault_actions() {
    for name in ["SetBandwidth", "SetDelay"] {
        let json = format!(r#"{{"events":[{{"at":0,"action":{{"{name}":5}}}}]}}"#);
        let err = FaultPlan::from_json_str(&json).unwrap_err().to_string();
        assert!(err.contains(&format!("unknown FaultAction variant '{name}'")), "{err}");
    }
}

// ---- the committed current-version record --------------------------------

#[test]
fn golden_v3_record_re_encodes_to_the_file() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/records/v3.flight.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let record = FlightRecord::parse(&text).expect("v3 fixture parses");
    assert_eq!(record.schema_version, 3);
    assert!(!record.flow_samples.is_empty() && !record.queue_samples.is_empty());
    assert!(!record.events.is_empty(), "every channel is in the fixture");
    assert!(record.flow_samples.iter().any(|p| p.delivered_bytes > 0), "v3 counters are real");
    assert_eq!(record.to_json_string(), text, "typed encode reproduces the file");
    assert_eq!(parse(&text).unwrap().to_string_compact(), text, "and the file is canonical");
}
