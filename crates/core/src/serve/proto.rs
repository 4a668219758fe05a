//! The query wire protocol: JSON bodies in, JSON answers out.
//!
//! A `POST /query` body names one cell of the executor's
//! Objective × Metric matrix plus the query series itself:
//!
//! ```json
//! {"objective": "knn", "k": 5, "metric": "dtw", "series": [0.1, -0.2]}
//! ```
//!
//! The field rules live in [`QuerySpec::from_fields`], the one rule book
//! the `messi` CLI shares: `k` only with `knn`; `epsilon` is a *distance*
//! for `range` and a *relative error ratio* for `approx`; `delta` only
//! with `approx`; `window` only with `metric: "dtw"`. Unknown fields are
//! rejected so typos fail loudly instead of silently running a default
//! query.

use super::json::{escape, Json};
use crate::exact::QueryAnswer;
use crate::exec::{Objective, QuerySpec};
use crate::stats::{QueryStats, StopReason};

/// A decoding/validation failure, reported to the client as a 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for ProtoError {}

fn err(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// The fields a `/query` body may carry (anything else is rejected).
const KNOWN_FIELDS: &[&str] = &[
    "objective",
    "metric",
    "series",
    "k",
    "epsilon",
    "delta",
    "window",
];

/// Decodes and validates a `/query` body against an index whose series
/// have `series_len` points.
pub fn decode_query(body: &[u8], series_len: usize) -> Result<(QuerySpec, Vec<f32>), ProtoError> {
    let text = std::str::from_utf8(body).map_err(|_| err("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(err("empty body; expected a JSON query object"));
    }
    let doc = Json::parse(text).map_err(|e| err(e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(err("body must be a JSON object"));
    }
    for key in doc.keys() {
        if !KNOWN_FIELDS.contains(&key) {
            return Err(err(format!(
                "unknown field `{key}` (expected one of: {})",
                KNOWN_FIELDS.join(", ")
            )));
        }
    }

    // --- the query series ---
    let series_json = doc
        .get("series")
        .ok_or_else(|| err("missing `series`"))?
        .as_arr()
        .ok_or_else(|| err("`series` must be an array of numbers"))?;
    if series_json.len() != series_len {
        return Err(err(format!(
            "`series` has {} points, index expects {series_len}",
            series_json.len()
        )));
    }
    let mut series = Vec::with_capacity(series_json.len());
    for (i, v) in series_json.iter().enumerate() {
        let x = v
            .as_f64()
            .ok_or_else(|| err(format!("`series[{i}]` is not a number")))? as f32;
        // JSON numbers are finite f64s, but one beyond f32 range narrows
        // to ±∞ — which the engine answers with no neighbour at all.
        if !x.is_finite() {
            return Err(err(format!(
                "`series[{i}]` is not finite as a 32-bit float"
            )));
        }
        series.push(x);
    }

    // --- the objective and metric, by the one rule book ---
    let name = |field: &str, default: &'static str| match doc.get(field) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| err(format!("`{field}` must be a string"))),
    };
    let number = |field: &str| match doc.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{field}` must be a number")),
    };
    let spec = QuerySpec::from_fields(
        name("objective", "exact")?,
        name("metric", "ed")?,
        &number,
        series_len,
    )
    .map_err(ProtoError)?;
    Ok((spec, series))
}

/// The fields a `/ingest` body may carry (anything else is rejected).
const INGEST_FIELDS: &[&str] = &["series"];

/// Decodes and validates a `POST /ingest` body — a batch of series to
/// append, every one exactly `series_len` points:
///
/// ```json
/// {"series": [[0.1, -0.2, ...], [1.3, 0.7, ...]]}
/// ```
///
/// Shape is enforced here (400); value-level validation (non-finite
/// points, position-ceiling overflow) is the ingest layer's job so the
/// endpoint and the CLI reject identically.
pub fn decode_ingest(body: &[u8], series_len: usize) -> Result<messi_series::Dataset, ProtoError> {
    let text = std::str::from_utf8(body).map_err(|_| err("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(err("empty body; expected a JSON ingest object"));
    }
    let doc = Json::parse(text).map_err(|e| err(e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(err("body must be a JSON object"));
    }
    for key in doc.keys() {
        if !INGEST_FIELDS.contains(&key) {
            return Err(err(format!(
                "unknown field `{key}` (expected one of: {})",
                INGEST_FIELDS.join(", ")
            )));
        }
    }
    let batch = doc
        .get("series")
        .ok_or_else(|| err("missing `series`"))?
        .as_arr()
        .ok_or_else(|| err("`series` must be an array of series"))?;
    if batch.is_empty() {
        return Err(err("`series` holds no series"));
    }
    let mut values = Vec::with_capacity(batch.len() * series_len);
    for (i, row) in batch.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| err(format!("`series[{i}]` must be an array of numbers")))?;
        if row.len() != series_len {
            return Err(err(format!(
                "`series[{i}]` has {} points, index expects {series_len}",
                row.len()
            )));
        }
        for (j, v) in row.iter().enumerate() {
            let x = v
                .as_f64()
                .ok_or_else(|| err(format!("`series[{i}][{j}]` is not a number")))?;
            values.push(x as f32);
        }
    }
    messi_series::Dataset::from_flat(values, series_len).map_err(|e| err(e.to_string()))
}

/// Encodes a successful ingest response.
pub fn encode_ingest_report(report: &crate::ingest::IngestReport) -> String {
    format!(
        "{{\"accepted\":{},\"total_series\":{},\"epoch\":{},\"republished\":{}}}",
        report.accepted, report.total_series, report.epoch, report.republished
    )
}

/// Encodes a successful query response: the answers plus the per-query
/// stats counters (times in microseconds).
pub fn encode_answer(spec: &QuerySpec, answers: &[QueryAnswer], stats: &QueryStats) -> String {
    let mut out = String::with_capacity(64 + answers.len() * 32);
    out.push_str("{\"answers\":[");
    for (i, a) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"pos\":{},\"distance\":{:.6},\"dist_sq\":{:.6}}}",
            a.pos,
            a.distance(),
            a.dist_sq
        ));
    }
    out.push_str(&format!(
        "],\"objective\":\"{}\",\"stats\":{{\"time_us\":{},\"lb_distance_calcs\":{},\
         \"real_distance_calcs\":{},\"bsf_updates\":{}",
        objective_name(spec),
        stats.total_time.as_micros(),
        stats.lb_distance_calcs,
        stats.real_distance_calcs,
        stats.bsf_updates
    ));
    if let Some(reason) = stats.stop_reason {
        let reason = match reason {
            StopReason::HomeLeafOnly => "home_leaf_only",
            StopReason::Completed => "completed",
            StopReason::BudgetExhausted => "budget_exhausted",
        };
        out.push_str(&format!(",\"stop_reason\":\"{}\"", escape(reason)));
    }
    out.push_str("}}");
    out
}

fn objective_name(spec: &QuerySpec) -> &'static str {
    match spec.objective {
        Objective::Exact => "exact",
        Objective::Knn { .. } => "knn",
        Objective::Range { .. } => "range",
        Objective::Approx { .. } => "approx",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::MetricSpec;
    use messi_series::distance::dtw::DtwParams;

    const LEN: usize = 8;

    fn body(fields: &str) -> Vec<u8> {
        let series: Vec<String> = (0..LEN).map(|i| format!("{}.5", i)).collect();
        format!("{{{fields}\"series\":[{}]}}", series.join(",")).into_bytes()
    }

    #[test]
    fn decodes_every_objective_and_metric() {
        let (spec, series) = decode_query(&body(""), LEN).unwrap();
        assert_eq!(spec, QuerySpec::exact());
        assert_eq!(series.len(), LEN);
        assert_eq!(series[2], 2.5);

        let (spec, _) = decode_query(&body("\"objective\":\"knn\",\"k\":3,"), LEN).unwrap();
        assert_eq!(spec.objective, Objective::Knn { k: 3 });

        let (spec, _) =
            decode_query(&body("\"objective\":\"range\",\"epsilon\":2.0,"), LEN).unwrap();
        assert_eq!(spec.objective, Objective::Range { epsilon_sq: 4.0 });

        let (spec, _) = decode_query(
            &body("\"objective\":\"approx\",\"epsilon\":0.1,\"delta\":0.5,"),
            LEN,
        )
        .unwrap();
        assert_eq!(
            spec.objective,
            Objective::Approx {
                epsilon: 0.1,
                delta: 0.5
            }
        );

        let (spec, _) = decode_query(&body("\"metric\":\"dtw\",\"window\":2,"), LEN).unwrap();
        assert_eq!(spec.metric, MetricSpec::Dtw(DtwParams { window: 2 }));
        let (spec, _) = decode_query(&body("\"metric\":\"dtw\","), LEN).unwrap();
        assert_eq!(
            spec.metric,
            MetricSpec::Dtw(DtwParams::paper_default(LEN)),
            "window defaults to the paper's 10%"
        );
    }

    #[test]
    fn rejects_contradictory_field_combinations() {
        // The same contradictions the CLI rejects with exit code 2.
        for (fields, needle) in [
            ("\"k\":3,", "not valid for objective `exact`"),
            ("\"objective\":\"exact\",\"epsilon\":1,", "not valid"),
            ("\"objective\":\"knn\",\"delta\":0.5,", "not valid"),
            ("\"objective\":\"knn\",\"epsilon\":1,", "not valid"),
            (
                "\"objective\":\"range\",\"epsilon\":1,\"k\":2,",
                "not valid",
            ),
            ("\"objective\":\"approx\",\"k\":2,", "not valid"),
            ("\"window\":4,", "only valid with `metric: \"dtw\"`"),
        ] {
            let e = decode_query(&body(fields), LEN).unwrap_err();
            assert!(e.0.contains(needle), "{fields} → {e}");
        }
    }

    #[test]
    fn rejects_malformed_bodies() {
        for (raw, needle) in [
            (b"".to_vec(), "empty body"),
            (b"not json".to_vec(), "invalid JSON"),
            (b"[1,2]".to_vec(), "must be a JSON object"),
            (b"{\"series\":[1,2]}".to_vec(), "points, index expects"),
            (body("\"typo_field\":1,"), "unknown field `typo_field`"),
            (body("\"objective\":\"fuzzy\","), "unknown objective"),
            (body("\"metric\":\"manhattan\","), "unknown metric"),
            (body("\"objective\":\"range\","), "needs `epsilon`"),
            (body("\"objective\":\"knn\",\"k\":0,"), "positive integer"),
            (body("\"objective\":\"knn\",\"k\":2.5,"), "positive integer"),
            (
                body("\"objective\":\"approx\",\"delta\":1.5,"),
                "within [0, 1]",
            ),
            (
                body("\"objective\":\"range\",\"epsilon\":-1,"),
                "non-negative",
            ),
            (body("\"metric\":\"dtw\",\"window\":0,"), "integer in 1.."),
            (
                b"{\"series\":[1,\"x\",3,4,5,6,7,8]}".to_vec(),
                "`series[1]` is not a number",
            ),
            (
                b"{\"series\":[1,2,3,-1e39,5,6,7,8]}".to_vec(),
                "`series[3]` is not finite",
            ),
        ] {
            let e = decode_query(&raw, LEN).unwrap_err();
            assert!(
                e.0.contains(needle),
                "{:?} → {e}",
                String::from_utf8_lossy(&raw)
            );
        }
    }

    #[test]
    fn series_decode_is_exact_on_odd_spellings_and_total_on_hostile_ones() {
        // Whitespace everywhere, exponents, a signed zero, fields on both
        // sides of the series: the same bits as the literals.
        let body = " {\t\"objective\" : \"knn\",\"series\" :\n[ 1 , 2.5e0,\r\n-0 , 4E-2,\
                    5e+1 ,6,7,3.4028235e38 ] , \"k\":2 } ";
        let (spec, series) = decode_query(body.as_bytes(), LEN).unwrap();
        assert_eq!(spec.objective, Objective::Knn { k: 2 });
        let want = [1.0f32, 2.5, -0.0, 0.04, 50.0, 6.0, 7.0, f32::MAX];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&series), bits(&want));

        let deep = format!(
            "{{\"series\":[1,2,3,4,5,6,7,{}8{}]}}",
            "[".repeat(40),
            "]".repeat(40)
        );
        for (raw, needle) in [
            (
                r#"{"series":[1,2,3,4,5,6,7,8],"series":[1,2,3,4,5,6,7,8]}"#,
                "duplicate key `series`",
            ),
            (
                r#"{"series":[1,2,3,4,5,6,7,[8]]}"#,
                "`series[7]` is not a number",
            ),
            (
                r#"{"series":[1,"x",3,4,5,1e39,7,8]}"#,
                "`series[1]` is not a number",
            ),
            (
                r#"{"series":[1,2,3,4,5,1e39,7,"x"]}"#,
                "`series[5]` is not finite",
            ),
            (r#"{"series":[1,2,3,4,5,1e999,7,8]}"#, "number out of range"),
            (r#"{"series":{"0":1}}"#, "must be an array of numbers"),
            (&deep, "nesting too deep"),
        ] {
            let e = decode_query(raw.as_bytes(), LEN).unwrap_err();
            assert!(e.0.contains(needle), "{raw} → {e}");
        }
        // A valid body cut at any byte is an error, never a panic.
        let whole = body.trim_end().as_bytes();
        assert!(decode_query(whole, LEN).is_ok());
        for cut in 0..whole.len() {
            assert!(decode_query(&whole[..cut], LEN).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decodes_and_rejects_ingest_bodies() {
        let ds = decode_ingest(br#"{"series":[[1,2,3,4,5,6,7,8],[8,7,6,5,4,3,2,1]]}"#, LEN)
            .expect("well-formed batch");
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.series(1)[0], 8.0);

        for (raw, needle) in [
            (&b""[..], "empty body"),
            (br#"[1]"#, "must be a JSON object"),
            (br#"{"series":[]}"#, "holds no series"),
            (br#"{"series":[[1,2]]}"#, "points, index expects"),
            (br#"{"batch":[[1]]}"#, "unknown field `batch`"),
            (
                br#"{"series":[[1,2,3,4,5,6,7,"x"]]}"#,
                "`series[0][7]` is not a number",
            ),
            (
                br#"{"series":[1,2]}"#,
                "`series[0]` must be an array of numbers",
            ),
        ] {
            let e = decode_ingest(raw, LEN).unwrap_err();
            assert!(
                e.0.contains(needle),
                "{} → {e}",
                String::from_utf8_lossy(raw)
            );
        }

        let text = encode_ingest_report(&crate::ingest::IngestReport {
            accepted: 2,
            total_series: 102,
            epoch: 3,
            republished: true,
        });
        let doc = Json::parse(&text).expect("report is valid JSON");
        assert_eq!(doc.get("accepted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("total_series").and_then(Json::as_f64), Some(102.0));
        assert_eq!(doc.get("republished"), Some(&Json::Bool(true)));
    }

    #[test]
    fn encodes_answers_as_valid_json() {
        let answers = [
            QueryAnswer {
                pos: 42,
                dist_sq: 4.0,
            },
            QueryAnswer {
                pos: 7,
                dist_sq: 9.0,
            },
        ];
        let stats = QueryStats {
            lb_distance_calcs: 10,
            real_distance_calcs: 5,
            stop_reason: Some(StopReason::Completed),
            ..Default::default()
        };
        let text = encode_answer(&QuerySpec::knn(2), &answers, &stats);
        let doc = Json::parse(&text).expect("response is valid JSON");
        let list = doc.get("answers").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].get("pos").and_then(Json::as_f64), Some(42.0));
        assert_eq!(list[0].get("distance").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("objective").and_then(Json::as_str), Some("knn"));
        let s = doc.get("stats").unwrap();
        assert_eq!(
            s.get("lb_distance_calcs").and_then(Json::as_f64),
            Some(10.0)
        );
        assert_eq!(
            s.get("stop_reason").and_then(Json::as_str),
            Some("completed")
        );
    }
}
