//! SARIF 2.1.0 rendering of a [`Report`] (`adr-check --format sarif`).
//!
//! CI uploads the document so findings annotate PR diffs inline. The JSON
//! is built with `adr_obs::Json` — the same dependency-free,
//! byte-deterministic value type the BENCH telemetry uses — and
//! [`validate_sarif`] re-parses and structurally checks every document the
//! tool emits, so a malformed upload fails in `adr-check` itself rather
//! than in the forge's ingestion step.
//!
//! Only the subset of SARIF that code-scanning ingestion requires is
//! emitted: `version`, one `run` with `tool.driver` (name, version, rules)
//! and `results` carrying `ruleId`, `level`, `message.text`, and one
//! physical location each. Stale-allowlist entries and category errors are
//! reported as results too (rule ids `adr::stale_allow` /
//! `adr::allow_category`) anchored at their `adr-check.allow` line, so a
//! rotting allowlist is as visible on the PR as a source finding.

use adr_obs::Json;

use crate::lints::Lint;
use crate::Report;

/// Synthetic rule id for stale allowlist entries.
pub const STALE_ALLOW_RULE: &str = "adr::stale_allow";
/// Synthetic rule id for missing/unknown allowlist categories.
pub const ALLOW_CATEGORY_RULE: &str = "adr::allow_category";

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// Renders `report` as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> Json {
    let mut rules: Vec<Json> = Lint::ALL
        .iter()
        .map(|lint| {
            obj(vec![
                ("id", s(lint.name())),
                ("shortDescription", obj(vec![("text", s(lint.description()))])),
            ])
        })
        .collect();
    rules.push(obj(vec![
        ("id", s(STALE_ALLOW_RULE)),
        (
            "shortDescription",
            obj(vec![("text", s("adr-check.allow entry no longer matches any finding"))]),
        ),
    ]));
    rules.push(obj(vec![
        ("id", s(ALLOW_CATEGORY_RULE)),
        (
            "shortDescription",
            obj(vec![("text", s("adr-check.allow entry has a missing or unknown audit category"))]),
        ),
    ]));

    let mut results: Vec<Json> = report
        .findings
        .iter()
        .map(|f| result(f.lint.name(), "error", &f.message, &f.file, f.line))
        .collect();
    for diag in &report.unused_allow {
        let line = allow_line_of(diag);
        results.push(result(STALE_ALLOW_RULE, "error", diag, "adr-check.allow", line));
    }
    for diag in &report.bad_category {
        let line = allow_line_of(diag);
        results.push(result(ALLOW_CATEGORY_RULE, "error", diag, "adr-check.allow", line));
    }

    obj(vec![
        ("version", s("2.1.0")),
        (
            "$schema",
            s("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        ),
        (
            "runs",
            Json::Arr(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("adr-check")),
                            ("version", s(env!("CARGO_PKG_VERSION"))),
                            ("informationUri", s("DESIGN.md")),
                            ("rules", Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ])
}

/// One SARIF result.
fn result(rule_id: &str, level: &str, message: &str, file: &str, line: usize) -> Json {
    obj(vec![
        ("ruleId", s(rule_id)),
        ("level", s(level)),
        ("message", obj(vec![("text", s(message))])),
        (
            "locations",
            Json::Arr(vec![obj(vec![(
                "physicalLocation",
                obj(vec![
                    ("artifactLocation", obj(vec![("uri", s(file))])),
                    ("region", obj(vec![("startLine", Json::Uint(line.max(1) as u64))])),
                ]),
            )])]),
        ),
    ])
}

/// Recovers the `adr-check.allow` line number from a staleness diagnostic
/// of the form `adr-check.allow:<line>: ...`; `1` when unparseable.
fn allow_line_of(diag: &str) -> usize {
    diag.strip_prefix("adr-check.allow:")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or(1)
}

/// Structurally validates a SARIF document this tool emitted.
///
/// Checks the subset code-scanning ingestion depends on: version string,
/// exactly one run, a named driver whose rules all have ids, and every
/// result carrying a known `ruleId`, a `level`, message text, and one
/// physical location with a `uri` and a positive `startLine`.
///
/// # Errors
/// Returns a description of the first structural violation found.
pub fn validate_sarif(doc: &Json) -> Result<(), String> {
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("version must be \"2.1.0\"".to_string());
    }
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("runs must be an array")?;
    if runs.len() != 1 {
        return Err(format!("expected exactly one run, found {}", runs.len()));
    }
    let run = &runs[0];
    let driver =
        run.get("tool").and_then(|t| t.get("driver")).ok_or("run.tool.driver is missing")?;
    if driver.get("name").and_then(Json::as_str).is_none() {
        return Err("tool.driver.name is missing".to_string());
    }
    let rules = driver.get("rules").and_then(Json::as_arr).ok_or("tool.driver.rules is missing")?;
    let mut rule_ids = Vec::new();
    for rule in rules {
        let id = rule.get("id").and_then(Json::as_str).ok_or("a rule is missing its id")?;
        rule_ids.push(id);
    }
    let results = run.get("results").and_then(Json::as_arr).ok_or("run.results is missing")?;
    for (i, res) in results.iter().enumerate() {
        let rule_id = res
            .get("ruleId")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("results[{i}].ruleId is missing"))?;
        if !rule_ids.contains(&rule_id) {
            return Err(format!("results[{i}].ruleId `{rule_id}` is not a declared rule"));
        }
        if res.get("level").and_then(Json::as_str).is_none() {
            return Err(format!("results[{i}].level is missing"));
        }
        if res
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("results[{i}].message.text is missing or empty"));
        }
        let locations = res
            .get("locations")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("results[{i}].locations is missing"))?;
        if locations.len() != 1 {
            return Err(format!("results[{i}] must carry exactly one location"));
        }
        let phys = locations[0]
            .get("physicalLocation")
            .ok_or_else(|| format!("results[{i}].locations[0].physicalLocation is missing"))?;
        if phys
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("results[{i}] artifactLocation.uri is missing or empty"));
        }
        let start = phys.get("region").and_then(|r| r.get("startLine")).and_then(Json::as_u64);
        if start.is_none_or(|n| n == 0) {
            return Err(format!("results[{i}] region.startLine must be a positive integer"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Finding;

    fn sample_report() -> Report {
        Report {
            findings: vec![Finding {
                lint: Lint::AtomicOrdering,
                file: "crates/core/src/lib.rs".to_string(),
                line: 42,
                message: "atomic `load` with Ordering::Relaxed ...".to_string(),
                line_text: "epoch.load(Ordering::Relaxed)".to_string(),
            }],
            unused_allow: vec![
                "adr-check.allow:7: `crates/nn/src/conv.rs: gone(` matched nothing".to_string()
            ],
            bad_category: vec!["adr-check.allow:9: unknown audit category `vibes`".to_string()],
            files_scanned: 1,
        }
    }

    #[test]
    fn emitted_sarif_validates_and_round_trips() {
        let doc = to_sarif(&sample_report());
        validate_sarif(&doc).expect("emitted SARIF is structurally valid");
        let text = doc.render_pretty();
        let parsed = Json::parse(&text).expect("emitted SARIF re-parses");
        validate_sarif(&parsed).expect("parsed SARIF is structurally valid");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn allowlist_diagnostics_become_results_with_lines() {
        let doc = to_sarif(&sample_report());
        let results =
            doc.get("runs").unwrap().as_arr().unwrap()[0].get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        let stale = &results[1];
        assert_eq!(stale.get("ruleId").unwrap().as_str(), Some(STALE_ALLOW_RULE));
        let line = stale.get("locations").unwrap().as_arr().unwrap()[0]
            .get("physicalLocation")
            .unwrap()
            .get("region")
            .unwrap()
            .get("startLine")
            .unwrap()
            .as_u64();
        assert_eq!(line, Some(7));
        assert_eq!(results[2].get("ruleId").unwrap().as_str(), Some(ALLOW_CATEGORY_RULE));
    }

    #[test]
    fn validation_rejects_undeclared_rules() {
        let mut report = sample_report();
        report.findings[0].line = 0; // also exercises the line floor
        let mut doc = to_sarif(&report);
        validate_sarif(&doc).expect("line floor keeps startLine positive");
        // Corrupt only the result's ruleId (the rule declarations stay
        // intact) and expect rejection.
        let Json::Obj(top) = &mut doc else { panic!("document is an object") };
        let Json::Arr(runs) = &mut top.iter_mut().find(|(k, _)| k == "runs").unwrap().1 else {
            panic!("runs is an array")
        };
        let Json::Obj(run) = &mut runs[0] else { panic!("run is an object") };
        let Json::Arr(results) = &mut run.iter_mut().find(|(k, _)| k == "results").unwrap().1
        else {
            panic!("results is an array")
        };
        let Json::Obj(res) = &mut results[0] else { panic!("result is an object") };
        res.iter_mut().find(|(k, _)| k == "ruleId").unwrap().1 = Json::Str("adr::mystery".into());
        let err = validate_sarif(&doc).expect_err("undeclared rule must be rejected");
        assert!(err.contains("adr::mystery"), "{err}");
    }

    #[test]
    fn empty_report_is_valid_sarif() {
        let report = Report {
            findings: Vec::new(),
            unused_allow: Vec::new(),
            bad_category: Vec::new(),
            files_scanned: 0,
        };
        let doc = to_sarif(&report);
        validate_sarif(&doc).expect("empty report renders valid SARIF");
        let results =
            doc.get("runs").unwrap().as_arr().unwrap()[0].get("results").unwrap().as_arr().unwrap();
        assert!(results.is_empty());
    }
}
