//! Differential tests of the streaming JSON codec against the document
//! model it replaced on the hot path.
//!
//! `to_json_string` / `from_json_str` on macro-declared types no longer go
//! through a `Value`; `to_json` / `parse` / `from_json` still do, and are
//! the reference here. For `FlightRecord`, its three point types and
//! `RunResult`:
//!
//! * typed encode must equal `to_json().to_string_compact()` byte for byte;
//! * typed decode must agree with `from_json(&parse(..))` on the value *and*
//!   on accept/reject, over documents no writer of ours produces: shuffled
//!   keys, unknown keys, duplicate keys, integers for floats, `null`s,
//!   out-of-range integers, `\u` escapes and surrogate pairs, odd
//!   whitespace, and truncated or byte-flipped text;
//! * `FlightRecord::parse` must keep the accept/reject set of the same
//!   rule applied to the tree (current version and every field, or refuse);
//! * the committed v3 record must re-encode to exactly the file.

use elephants::experiments::LinkResult;
use elephants::json::{parse, FromJson, JsonError, ToJson, Value};
use elephants::netsim::prelude::*;
use elephants::netsim::prop::{run_cases, vec_of};
use elephants::netsim::{prop_check, prop_check_eq};
use elephants::telemetry::{EventPoint, FlightRecord, FlowPoint, QueuePoint, FLIGHT_RECORD_VERSION};
use elephants::RunResult;
use std::fmt::Debug;

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
/// unknown keys, a repeated key after the one that counts, whole floats
/// written as integers.
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
        Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 && rng.random_bool(0.5) => {
            *v = Value::Int(*x as i128);
        }
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
                // One character through the reference writer's escaping.
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

// ---- the differential property -------------------------------------------

/// `Debug` text stands in for `==`: `RunResult` has no `PartialEq`, and a
/// NaN field must compare equal to itself.
fn same<T: Debug>(a: &Result<T, JsonError>, b: &Result<T, JsonError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => format!("{a:?}") == format!("{b:?}"),
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

fn tree_decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Runs the differential over one type; returns how many of the generated
/// documents were accepted and rejected, so the caller can see both
/// happened.
fn differential<T: ToJson + FromJson + Debug>(
    name: &str,
    gen: impl Fn(&mut SmallRng) -> T,
) -> (u32, u32) {
    let (mut accepted, mut rejected) = (0, 0);
    run_cases(name, 256, |rng| {
        let x = gen(rng);
        let doc = x.to_json();
        let text = x.to_json_string();
        prop_check_eq!(&text, &doc.to_string_compact());
        // Not compared with `x`: a non-finite float comes back as NaN.
        let clean = T::from_json_str(&text);
        prop_check!(clean.is_ok() && same(&clean, &tree_decode::<T>(&text)), "clean {text}");

        let mut doc = doc;
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
        let (typed, tree) = (T::from_json_str(&text), tree_decode::<T>(&text));
        prop_check!(same(&typed, &tree), "typed {typed:?} vs tree {tree:?} on {text}");
        match typed {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
        Ok(())
    });
    (accepted, rejected)
}

fn assert_both_sides_exercised(name: &str, (accepted, rejected): (u32, u32)) {
    // Vacuous under a single-case replay, where the counts are 0 or 1.
    if std::env::var("ELEPHANTS_PROP_SEED").is_err() {
        assert!(accepted >= 20 && rejected >= 20, "{name}: {accepted} accepted, {rejected} rejected");
    }
}

#[test]
fn flight_record_codec_matches_the_document_model() {
    let counts = differential("flight_record_codec", gen_record);
    assert_both_sides_exercised("FlightRecord", counts);
}

#[test]
fn point_codecs_match_the_document_model() {
    assert_both_sides_exercised("FlowPoint", differential("flow_point_codec", gen_flow_point));
    assert_both_sides_exercised("QueuePoint", differential("queue_point_codec", gen_queue_point));
    assert_both_sides_exercised("EventPoint", differential("event_point_codec", gen_event_point));
}

#[test]
fn run_result_codec_matches_the_document_model() {
    assert_both_sides_exercised("RunResult", differential("run_result_codec", gen_run_result));
}

// ---- FlightRecord::parse: the versioned entry point ----------------------

/// `FlightRecord::parse`'s rule applied to the document model: the
/// accept/reject set the streaming one must keep.
fn parse_via_tree(text: &str) -> Result<FlightRecord, JsonError> {
    let v = parse(text)?;
    let version = u32::from_json(v.get_field("schema_version")?)?;
    if version != FLIGHT_RECORD_VERSION {
        return Err(JsonError::new(format!("flight record schema v{version}")));
    }
    FlightRecord::from_json(&v)
}

#[test]
fn versioned_parse_keeps_its_accept_and_reject_set() {
    let (mut accepted, mut rejected) = (0, 0);
    run_cases("versioned_parse_accept_set", 256, |rng| {
        let mut doc = gen_record(rng).to_json();
        let version = rng.random_range(0u32..=FLIGHT_RECORD_VERSION + 1);
        // Strip the fields older versions lacked from some rows, whatever
        // the version says: neither an old stamp nor an old shape gets in.
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
        let (now, before) = (FlightRecord::parse(&text), parse_via_tree(&text));
        prop_check!(same(&now, &before), "now {now:?} vs before {before:?} on {text}");
        match now {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
        Ok(())
    });
    assert_both_sides_exercised("FlightRecord::parse", (accepted, rejected));
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
    assert_eq!(record.to_json().to_string_compact(), text, "and so does the document model");
    assert_eq!(record, FlightRecord::from_json(&parse(&text).unwrap()).unwrap());
}
