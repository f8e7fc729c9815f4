//! The rule engine: scopes, allowlists, annotations, and the five rules.
//!
//! Every rule works the same way: a *scope* (which files it looks at), a
//! *detector* (substring tokens over the lexer's code/string views), an
//! *exact-match allowlist* (in the style the old `tests/lint.rs` pinned:
//! every entry must match exactly one current occurrence, so stale and
//! duplicate entries are themselves findings), and for the budget-poll
//! rule additionally a comment *annotation* grammar and a pinned
//! *poll-site inventory*. See `DESIGN.md` §13 for the catalog and policy.
//!
//! Rules never read raw lines for detection — only the masked code view
//! (strings and comments cannot trigger a rule) or, for the JSON rule,
//! the string-content view. Allowlist needles, by contrast, match against
//! the raw source line, so entries can quote message strings verbatim
//! (`expect("entering in row")`) and stay human-readable.

use crate::lexer::{self, MaskedFile};

/// Rule identifiers, used for sorting and reporting. Order here is the
/// order findings sort and render in.
pub const RULE_DETERMINISM: &str = "determinism";
/// Clock-discipline rule id.
pub const RULE_CLOCK: &str = "clock";
/// Budget-poll-coverage rule id.
pub const RULE_BUDGET_POLL: &str = "budget-poll";
/// Panic-freedom rule id.
pub const RULE_PANIC: &str = "panic";
/// JSON-emission-discipline rule id.
pub const RULE_JSON: &str = "json";
/// Meta-rule id for allowlist/inventory bookkeeping violations.
pub const RULE_ALLOWLIST: &str = "allowlist";

/// One allowlisted occurrence: `file` is a path suffix, `needle` a
/// substring of the raw source line, `why` the one-line justification
/// (rendered by `--fix-allowlist` and kept for reviewers; the engine
/// only requires it to be non-empty).
#[derive(Debug, Clone, Copy)]
pub struct Allow {
    /// Path suffix the entry applies to (forward slashes).
    pub file: &'static str,
    /// Raw-line substring that identifies the occurrence.
    pub needle: &'static str,
    /// Justification for the exemption.
    pub why: &'static str,
}

/// A required budget-poll site: `(path suffix, raw-line substring)`.
/// Duplicate entries are how multiple identical sites are pinned.
pub type PollSite = (&'static str, &'static str);

/// The analyzer configuration: scopes, allowlists and the poll
/// inventory. [`crate::config::default_config`] pins the workspace's
/// instance; tests build small custom ones.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Directories (relative to the workspace root) scanned for `.rs`
    /// sources.
    pub roots: &'static [&'static str],
    /// Path substrings of report-feeding files: the determinism rule
    /// fires only inside these.
    pub determinism_paths: &'static [&'static str],
    /// Path substrings of solver hot-path files: the budget-poll rule
    /// fires only inside these.
    pub hot_files: &'static [&'static str],
    /// Path substrings exempt from the JSON-emission rule (the shared
    /// JSON layer itself).
    pub json_exempt: &'static [&'static str],
    /// Determinism-rule allowlist.
    pub allow_determinism: &'static [Allow],
    /// Clock-rule allowlist.
    pub allow_clock: &'static [Allow],
    /// Panic-rule allowlist.
    pub allow_panic: &'static [Allow],
    /// JSON-rule allowlist.
    pub allow_json: &'static [Allow],
    /// Exact inventory of budget-poll sites in the hot files.
    pub poll_inventory: &'static [PollSite],
}

/// One analyzer finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number (0 for whole-file/bookkeeping findings).
    pub line: usize,
    /// The offending source line, trimmed (empty for bookkeeping).
    pub snippet: String,
    /// What is wrong and what to do about it.
    pub message: String,
}

/// Sort key pinning the deterministic output order.
fn rule_order(rule: &str) -> usize {
    [
        RULE_DETERMINISM,
        RULE_CLOCK,
        RULE_BUDGET_POLL,
        RULE_PANIC,
        RULE_JSON,
        RULE_ALLOWLIST,
    ]
    .iter()
    .position(|r| *r == rule)
    .unwrap_or(usize::MAX)
}

/// Does `file` fall under any of the path substrings in `scopes`?
fn in_scope(file: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| file.contains(s))
}

/// Tracks allowlist consumption: exact-once semantics. Each occurrence
/// consumes the first unconsumed entry whose `(file, needle)` matches;
/// entries left unconsumed at the end are stale.
#[derive(Debug)]
struct AllowLedger {
    rule: &'static str,
    entries: &'static [Allow],
    hits: Vec<u32>,
}

impl AllowLedger {
    fn new(rule: &'static str, entries: &'static [Allow]) -> Self {
        AllowLedger { rule, entries, hits: vec![0; entries.len()] }
    }

    /// Consumes a matching entry if one remains; `true` means allowed.
    fn consume(&mut self, file: &str, raw_line: &str) -> bool {
        for (i, a) in self.entries.iter().enumerate() {
            if self.hits[i] == 0 && file.ends_with(a.file) && raw_line.contains(a.needle) {
                self.hits[i] = 1;
                return true;
            }
        }
        false
    }

    /// Findings for entries that never matched (stale allowlist).
    fn stale(&self, out: &mut Vec<Finding>) {
        for (i, a) in self.entries.iter().enumerate() {
            if self.hits[i] == 0 {
                out.push(Finding {
                    rule: RULE_ALLOWLIST,
                    file: a.file.to_string(),
                    line: 0,
                    snippet: a.needle.to_string(),
                    message: format!(
                        "stale {} allowlist entry: the occurrence it covered is \
                         gone — remove the entry",
                        self.rule
                    ),
                });
            }
        }
    }
}

/// The detector tokens of the clock rule: bare paths, so a function
/// pointer (`flag.then(Instant::now)`) is caught as well as a call.
const CLOCK_TOKENS: &[&str] = &["Instant::now", "SystemTime::now"];

/// The detector tokens of the panic rule.
const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// The detector tokens of the determinism rule.
const DETERMINISM_TOKENS: &[&str] = &["HashMap", "HashSet"];

/// Substrings that mark a budget poll inside a loop body (broad on
/// purpose: `self.budget.exhausted()`, `budget.is_limited()` caching and
/// `self.poll()?` all count as evidence the loop is budget-aware).
const POLL_BODY_TOKENS: &[&str] = &["budget", "poll("];

/// Substrings that identify a *poll site* for the exact inventory
/// (narrower than [`POLL_BODY_TOKENS`]: only real clock checks).
const POLL_SITE_TOKENS: &[&str] = &["budget.exhausted(", ".poll()"];

/// The annotation marker the budget-poll rule reads from comments.
const NO_POLL_MARKER: &str = "analysis: no-poll(";

/// Hand-rolled JSON escape markers, built at runtime so the analyzer's
/// own source never contains the literal byte sequences it scans for.
fn json_markers() -> [String; 2] {
    let b = '\\';
    // In source text a hand-escaped quote is  \ \ \ "  and a hand-rolled
    // \uXXXX escape starts with  \ \ u {  (the format-string form).
    [format!("{b}{b}{b}\""), format!("{b}{b}u{{")]
}

/// Scans one file and appends findings. Poll sites are collected into
/// `poll_sites` for the cross-file inventory check run by the caller.
#[allow(clippy::too_many_arguments)]
fn scan_file(
    config: &Config,
    file: &str,
    text: &str,
    ledgers: &mut Ledgers,
    findings: &mut Vec<Finding>,
    poll_sites: &mut Vec<(String, usize, String)>,
) {
    let masked = lexer::mask(text);
    let raw: Vec<&str> = text.split('\n').collect();
    let json_marks = json_markers();
    let determinism = in_scope(file, config.determinism_paths);
    let hot = in_scope(file, config.hot_files);
    let json_checked = !in_scope(file, config.json_exempt);

    for li in 0..masked.len() {
        let code = &masked.code[li];
        let raw_line = raw.get(li).copied().unwrap_or("");
        let in_test = masked.in_test(li);

        // Clock discipline applies to test regions too: timing tests
        // inject Clock::fake() instead of reading the real clock, which
        // is what keeps them exact rather than flaky.
        if CLOCK_TOKENS.iter().any(|t| code.contains(t))
            && !ledgers.clock.consume(file, raw_line)
        {
            findings.push(Finding {
                rule: RULE_CLOCK,
                file: file.to_string(),
                line: li + 1,
                snippet: raw_line.trim().to_string(),
                message: "bare clock read — route timing through sta_smt::Clock \
                          (FakeClock-testable) or extend the clock allowlist"
                    .into(),
            });
        }

        if in_test {
            continue;
        }

        if determinism
            && DETERMINISM_TOKENS.iter().any(|t| code.contains(t))
            && !ledgers.determinism.consume(file, raw_line)
        {
            findings.push(Finding {
                rule: RULE_DETERMINISM,
                file: file.to_string(),
                line: li + 1,
                snippet: raw_line.trim().to_string(),
                message: "hash collection on a report-feeding path — iteration \
                          order is nondeterministic; use BTreeMap/BTreeSet or \
                          sort before iterating, or allowlist with a \
                          justification"
                    .into(),
            });
        }

        if PANIC_TOKENS.iter().any(|t| code.contains(t))
            && !ledgers.panics.consume(file, raw_line)
        {
            findings.push(Finding {
                rule: RULE_PANIC,
                file: file.to_string(),
                line: li + 1,
                snippet: raw_line.trim().to_string(),
                message: "potential panic in library code — handle the error, \
                          or document the invariant and extend the panic \
                          allowlist"
                    .into(),
            });
        }

        if json_checked
            && json_marks.iter().any(|m| masked.strings[li].contains(m.as_str()))
            && !ledgers.json.consume(file, raw_line)
        {
            findings.push(Finding {
                rule: RULE_JSON,
                file: file.to_string(),
                line: li + 1,
                snippet: raw_line.trim().to_string(),
                message: "hand-rolled JSON escaping — emit through \
                          sta_smt::json (escape_into/f64_into) instead"
                    .into(),
            });
        }

        if hot && POLL_SITE_TOKENS.iter().any(|t| code.contains(t)) {
            poll_sites.push((file.to_string(), li + 1, raw_line.trim().to_string()));
        }
    }

    if hot {
        scan_hot_loops(file, &masked, &raw, findings);
    }
}

/// The loop-coverage half of the budget-poll rule: every `while`/`loop`
/// in non-test code of a hot file must either contain a poll token in
/// its body or carry a `// analysis: no-poll(reason)` annotation on the
/// loop-head line or the line directly above. `for` loops are exempt —
/// they iterate finite collections, and the unbounded encode recursion
/// they appear in is pinned by the poll-site inventory instead.
fn scan_hot_loops(
    file: &str,
    masked: &MaskedFile,
    raw: &[&str],
    findings: &mut Vec<Finding>,
) {
    let n = masked.test_start.unwrap_or(masked.len());
    let mut consumed_annotations: Vec<usize> = Vec::new();
    let mut li = 0;
    while li < n {
        let Some(col) = loop_keyword_at(&masked.code[li]) else {
            li += 1;
            continue;
        };
        let head = li;
        let end = loop_end(masked, head, col, n);
        let polled = (head..=end.min(n.saturating_sub(1)))
            .any(|l| POLL_BODY_TOKENS.iter().any(|t| masked.code[l].contains(t)));
        let annotation = annotation_at(masked, head);
        match (polled, annotation) {
            (false, None) => findings.push(Finding {
                rule: RULE_BUDGET_POLL,
                file: file.to_string(),
                line: head + 1,
                snippet: raw.get(head).map(|l| l.trim()).unwrap_or("").to_string(),
                message: "loop in a solver hot path neither polls the budget \
                          nor carries an `// analysis: no-poll(reason)` \
                          annotation"
                    .into(),
            }),
            (false, Some((at, reason))) => {
                consumed_annotations.push(at);
                if reason.trim().is_empty() {
                    findings.push(Finding {
                        rule: RULE_BUDGET_POLL,
                        file: file.to_string(),
                        line: at + 1,
                        snippet: raw.get(at).map(|l| l.trim()).unwrap_or("").to_string(),
                        message: "no-poll annotation needs a non-empty reason"
                            .into(),
                    });
                }
            }
            (true, Some((at, _))) => {
                consumed_annotations.push(at);
                findings.push(Finding {
                    rule: RULE_BUDGET_POLL,
                    file: file.to_string(),
                    line: at + 1,
                    snippet: raw.get(at).map(|l| l.trim()).unwrap_or("").to_string(),
                    message: "stale no-poll annotation: the loop polls the \
                              budget — remove the annotation"
                        .into(),
                });
            }
            (true, None) => {}
        }
        li += 1;
    }
    // Orphaned annotations: a no-poll marker nobody's loop consumed is
    // either left over from a deleted loop or attached to the wrong line.
    for li in 0..n {
        if masked.comments[li].contains(NO_POLL_MARKER)
            && !consumed_annotations.contains(&li)
        {
            findings.push(Finding {
                rule: RULE_BUDGET_POLL,
                file: file.to_string(),
                line: li + 1,
                snippet: raw.get(li).map(|l| l.trim()).unwrap_or("").to_string(),
                message: "orphaned no-poll annotation: not attached to a \
                          `while`/`loop` head (put it on the loop-head line \
                          or the line directly above)"
                    .into(),
            });
        }
    }
}

/// Returns the byte column of a `while` or `loop` keyword on the masked
/// code line, if the line opens a loop.
fn loop_keyword_at(code: &str) -> Option<usize> {
    for kw in ["while", "loop"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(kw) {
            let at = from + rel;
            let before_ok = at == 0
                || !code.as_bytes()[at - 1].is_ascii_alphanumeric()
                    && code.as_bytes()[at - 1] != b'_';
            let after = at + kw.len();
            let after_ok = after >= code.len()
                || !code.as_bytes()[after].is_ascii_alphanumeric()
                    && code.as_bytes()[after] != b'_';
            if before_ok && after_ok {
                return Some(at);
            }
            from = after;
        }
    }
    None
}

/// Finds the 0-based line on which the loop opened at `(head, col)`
/// closes, by brace matching over the masked code view. Falls back to
/// the head line when no opening brace is found before `limit` (a
/// malformed or macro-heavy construct; the rule then sees an empty
/// body).
fn loop_end(masked: &MaskedFile, head: usize, col: usize, limit: usize) -> usize {
    let mut depth = 0usize;
    let mut seen_open = false;
    let mut li = head;
    let mut start_col = col;
    while li < limit {
        for b in masked.code[li].bytes().skip(start_col) {
            match b {
                b'{' => {
                    depth += 1;
                    seen_open = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if seen_open && depth == 0 {
                        return li;
                    }
                }
                _ => {}
            }
        }
        li += 1;
        start_col = 0;
        // Give up on pathological heads: a loop whose `{` is more than a
        // few lines below the keyword is not a shape this codebase uses.
        if !seen_open && li > head + 4 {
            return head;
        }
    }
    limit.saturating_sub(1)
}

/// Looks for a no-poll annotation on the head line or the line above;
/// returns `(line, reason)`.
fn annotation_at(masked: &MaskedFile, head: usize) -> Option<(usize, String)> {
    for li in [Some(head), head.checked_sub(1)].into_iter().flatten() {
        let comment = &masked.comments[li];
        if let Some(at) = comment.find(NO_POLL_MARKER) {
            let rest = &comment[at + NO_POLL_MARKER.len()..];
            let reason = rest.split(')').next().unwrap_or("").to_string();
            return Some((li, reason));
        }
    }
    None
}

/// The per-rule allowlist ledgers of one analysis run.
#[derive(Debug)]
struct Ledgers {
    determinism: AllowLedger,
    clock: AllowLedger,
    panics: AllowLedger,
    json: AllowLedger,
}

/// Runs the full analysis over in-memory `(path, text)` sources. Paths
/// are workspace-relative with forward slashes. Sources are scanned in
/// sorted path order, findings come back sorted, and the allowlist and
/// poll-inventory exactness checks run at the end — so equal inputs
/// always produce byte-equal reports.
pub fn analyze_sources(config: &Config, files: &[(String, String)]) -> Vec<Finding> {
    let mut order: Vec<usize> = (0..files.len()).collect();
    order.sort_by(|&a, &b| files[a].0.cmp(&files[b].0));

    let mut findings = Vec::new();
    let mut poll_sites = Vec::new();
    let mut ledgers = Ledgers {
        determinism: AllowLedger::new(RULE_DETERMINISM, config.allow_determinism),
        clock: AllowLedger::new(RULE_CLOCK, config.allow_clock),
        panics: AllowLedger::new(RULE_PANIC, config.allow_panic),
        json: AllowLedger::new(RULE_JSON, config.allow_json),
    };
    for &i in &order {
        let (path, text) = &files[i];
        scan_file(config, path, text, &mut ledgers, &mut findings, &mut poll_sites);
    }

    // Poll-site inventory: exact-once in both directions. Removing a
    // poll orphans its inventory entry; adding one demands a new entry.
    let mut entry_hits = vec![0u32; config.poll_inventory.len()];
    for (file, line, raw_line) in &poll_sites {
        let matched = config.poll_inventory.iter().enumerate().find(|(i, (f, needle))| {
            entry_hits[*i] == 0 && file.ends_with(f) && raw_line.contains(needle)
        });
        match matched {
            Some((i, _)) => entry_hits[i] = 1,
            None => findings.push(Finding {
                rule: RULE_BUDGET_POLL,
                file: file.clone(),
                line: *line,
                snippet: raw_line.clone(),
                message: "budget-poll site not in the pinned inventory — add \
                          an entry to POLL_INVENTORY in \
                          crates/analysis/src/config.rs"
                    .into(),
            }),
        }
    }
    for (i, (file, needle)) in config.poll_inventory.iter().enumerate() {
        if entry_hits[i] == 0 {
            findings.push(Finding {
                rule: RULE_BUDGET_POLL,
                file: (*file).to_string(),
                line: 0,
                snippet: (*needle).to_string(),
                message: "required budget-poll site is gone — a hot loop lost \
                          its poll (restore it, or update POLL_INVENTORY if \
                          the site moved)"
                    .into(),
            });
        }
    }

    ledgers.determinism.stale(&mut findings);
    ledgers.clock.stale(&mut findings);
    ledgers.panics.stale(&mut findings);
    ledgers.json.stale(&mut findings);

    findings.sort_by(|a, b| {
        (rule_order(a.rule), &a.file, a.line, &a.message)
            .cmp(&(rule_order(b.rule), &b.file, b.line, &b.message))
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMPTY: Config = Config {
        roots: &[],
        determinism_paths: &["crates/campaign/src/"],
        hot_files: &["crates/smt/src/hot.rs"],
        json_exempt: &["crates/smt/src/json.rs"],
        allow_determinism: &[],
        allow_clock: &[],
        allow_panic: &[],
        allow_json: &[],
        poll_inventory: &[],
    };

    fn run(path: &str, text: &str) -> Vec<Finding> {
        analyze_sources(&EMPTY, &[(path.to_string(), text.to_string())])
    }

    #[test]
    fn determinism_fires_only_in_scope() {
        let src = "use std::collections::HashMap;\n";
        let hits = run("crates/campaign/src/pool.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_DETERMINISM);
        assert_eq!(hits[0].line, 1);
        assert!(run("crates/linalg/src/matrix.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// HashMap Instant::now() .unwrap() panic!\nlet s = \"HashMap .unwrap()\";\n";
        assert!(run("crates/campaign/src/pool.rs", src).is_empty());
    }

    #[test]
    fn clock_rule_covers_test_regions() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod t {\n  fn f() { let _ = Instant::now(); }\n}\n";
        let hits = run("crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_CLOCK);
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn clock_rule_catches_function_pointer_reads() {
        let src = "fn f(x: bool) {\n    let _ = x.then(std::time::Instant::now);\n}\n";
        let hits = run("crates/smt/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_CLOCK);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn panic_rule_exempts_test_regions() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod t {\n  fn f() { None::<u8>.unwrap(); panic!(); }\n}\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn loop_without_poll_or_annotation_fires() {
        let src = "fn f() {\n    while x() {\n        step();\n    }\n}\n";
        let hits = run("crates/smt/src/hot.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_BUDGET_POLL);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn annotated_loop_is_clean_and_stale_annotation_fires() {
        let ok = "fn f() {\n    // analysis: no-poll(bounded by n)\n    while x() {\n        step();\n    }\n}\n";
        assert!(run("crates/smt/src/hot.rs", ok).is_empty());
        let stale = "fn f() {\n    // analysis: no-poll(bounded)\n    while x() {\n        if budget.exhausted().is_some() { return; }\n    }\n}\n";
        let hits = analyze_sources(
            &Config {
                poll_inventory: &[("crates/smt/src/hot.rs", "budget.exhausted()")],
                ..EMPTY
            },
            &[("crates/smt/src/hot.rs".into(), stale.into())],
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("stale no-poll"));
    }

    #[test]
    fn orphaned_annotation_fires() {
        let src = "fn f() {\n    // analysis: no-poll(nothing here)\n    step();\n}\n";
        let hits = run("crates/smt/src/hot.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("orphaned"));
    }

    #[test]
    fn poll_inventory_is_exact_both_ways() {
        let src = "fn f() {\n    loop {\n        if budget.exhausted().is_some() { break; }\n    }\n}\n";
        // Unlisted site.
        let hits = run("crates/smt/src/hot.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("not in the pinned inventory"));
        // Listed site: clean.
        let cfg = Config {
            poll_inventory: &[("crates/smt/src/hot.rs", "budget.exhausted()")],
            ..EMPTY
        };
        assert!(analyze_sources(&cfg, &[("crates/smt/src/hot.rs".into(), src.into())])
            .is_empty());
        // Missing site: the entry outlives the code.
        let gone = "fn f() {}\n";
        let hits =
            analyze_sources(&cfg, &[("crates/smt/src/hot.rs".into(), gone.into())]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("required budget-poll site is gone"));
    }

    #[test]
    fn allowlist_is_exact_once() {
        static ALLOW: &[Allow] = &[Allow {
            file: "crates/core/src/x.rs",
            needle: ".unwrap()",
            why: "test entry",
        }];
        let cfg = Config { allow_panic: ALLOW, ..EMPTY };
        // One occurrence: consumed, clean.
        let one = "fn f() { q().unwrap(); }\n";
        assert!(analyze_sources(&cfg, &[("crates/core/src/x.rs".into(), one.into())])
            .is_empty());
        // Two occurrences: the second is a finding.
        let two = "fn f() { q().unwrap(); }\nfn g() { q().unwrap(); }\n";
        let hits =
            analyze_sources(&cfg, &[("crates/core/src/x.rs".into(), two.into())]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        // Zero occurrences: the entry is stale.
        let zero = "fn f() {}\n";
        let hits =
            analyze_sources(&cfg, &[("crates/core/src/x.rs".into(), zero.into())]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_ALLOWLIST);
        assert!(hits[0].message.contains("stale"));
    }

    #[test]
    fn json_rule_spots_hand_escaping() {
        let b = '\\';
        let src = format!("fn f(out: &mut String) {{ out.push_str(\"{b}{b}{b}\"\"); }}\n");
        let hits = analyze_sources(&EMPTY, &[("crates/core/src/x.rs".into(), src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_JSON);
        // The shared JSON layer is exempt.
        let src = format!("fn f(out: &mut String) {{ out.push_str(\"{b}{b}{b}\"\"); }}\n");
        assert!(analyze_sources(&EMPTY, &[("crates/smt/src/json.rs".into(), src)])
            .is_empty());
    }

    #[test]
    fn findings_sort_deterministically() {
        let src = "use std::collections::HashMap;\nfn f() { let _ = Instant::now(); }\nfn g() { q().unwrap(); }\n";
        let a = analyze_sources(&EMPTY, &[("crates/campaign/src/pool.rs".into(), src.into())]);
        let b = analyze_sources(&EMPTY, &[("crates/campaign/src/pool.rs".into(), src.into())]);
        assert_eq!(a, b);
        let rules: Vec<&str> = a.iter().map(|f| f.rule).collect();
        assert_eq!(rules, [RULE_DETERMINISM, RULE_CLOCK, RULE_PANIC]);
    }
}
