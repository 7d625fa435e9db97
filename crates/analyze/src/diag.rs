//! Diagnostics: rustc-style rendering, severities, and the rule registry.

use std::fmt;

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but never fails the gate (e.g. an unused suppression).
    Warning,
    /// Fails `dlra-analyze check`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One rule of the invariant contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable kebab-case id — what `dlra-allow(<id>)` names.
    pub id: &'static str,
    /// Default severity of the rule's findings.
    pub severity: Severity,
    /// One-line summary for `dlra-analyze rules`.
    pub summary: &'static str,
}

/// The rule registry. Order is presentation order in `dlra-analyze rules`.
pub const RULES: &[Rule] = &[
    Rule {
        id: "determinism",
        severity: Severity::Error,
        summary: "no wall-clock reads or unordered collections in ledger-deterministic modules \
                  (crates/core, crates/sampler, crates/comm, crates/linalg kernels)",
    },
    Rule {
        id: "env-determinism",
        severity: Severity::Error,
        summary: "no ambient `std::env` reads in ledger-deterministic modules, the transport \
                  crate or the runtime layer — configuration must flow through typed parameters",
    },
    Rule {
        id: "panic-policy",
        severity: Severity::Error,
        summary: "no unwrap/expect/panic! in non-test crates/runtime, crates/comm, crates/obs, \
                  crates/net code — failures resolve to typed errors or recover from poisoning",
    },
    Rule {
        id: "unsafe-hygiene",
        severity: Severity::Error,
        summary: "`unsafe` confined to crates/linalg, every unsafe site carries a SAFETY \
                  comment, unsafe crates deny unsafe_op_in_unsafe_fn, unsafe-free crates \
                  forbid unsafe_code",
    },
    Rule {
        id: "atomic-ordering",
        severity: Severity::Error,
        summary: "every Ordering::SeqCst carries a justification comment naming SeqCst; \
                  plain counters use Relaxed",
    },
    Rule {
        id: "thread-discipline",
        severity: Severity::Error,
        summary: "no std::thread spawns or scopes outside the kernels' row-panel fan-out \
                  and the loopback cluster servers of the dlra-net coordinator",
    },
    Rule {
        id: "lock-order",
        severity: Severity::Error,
        summary: "the acquisition graph over `// dlra-lock-order:`-annotated locks is acyclic",
    },
    Rule {
        id: "suppression-hygiene",
        severity: Severity::Error,
        summary: "every dlra-allow names a known rule and carries a non-empty reason",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding, anchored to a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line; 0 for file- or crate-level findings.
    pub line: usize,
    /// 1-based column of the offending token; 0 when unknown.
    pub col: usize,
    /// The defect, stated in one sentence.
    pub message: String,
    /// Optional remediation hint (rendered as `= help:`).
    pub help: Option<String>,
    /// The raw source line, for the snippet gutter.
    pub snippet: Option<String>,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}[{}]: {}\n",
            self.severity, self.rule, self.message
        ));
        if self.line > 0 {
            out.push_str(&format!("  --> {}:{}", self.path, self.line));
            if self.col > 0 {
                out.push_str(&format!(":{}", self.col));
            }
            out.push('\n');
        } else {
            out.push_str(&format!("  --> {}\n", self.path));
        }
        if let Some(snippet) = &self.snippet {
            let gutter = format!("{}", self.line);
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{gutter} | {}\n", snippet.trim_end()));
            if self.col > 0 {
                let caret_pad: String = snippet
                    .chars()
                    .take(self.col - 1)
                    .map(|c| if c == '\t' { '\t' } else { ' ' })
                    .collect();
                out.push_str(&format!("{pad} | {caret_pad}^\n"));
            } else {
                out.push_str(&format!("{pad} |\n"));
            }
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
        out
    }
}

/// The outcome of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Files analyzed (for the summary line).
    pub files: usize,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Findings of one rule (tests use this to pin rule ownership).
    pub fn of_rule<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Renders every diagnostic plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "dlra-analyze: {} file{} checked, {} error{}, {} warning{}\n",
            self.files,
            if self.files == 1 { "" } else { "s" },
            self.errors(),
            if self.errors() == 1 { "" } else { "s" },
            self.warnings(),
            if self.warnings() == 1 { "" } else { "s" },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_kebab_case() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(RULES.iter().skip(i + 1).all(|o| o.id != r.id));
        }
        assert!(rule("determinism").is_some());
        assert!(rule("no-such-rule").is_none());
    }

    #[test]
    fn render_includes_position_snippet_and_help() {
        let d = Diagnostic {
            rule: "panic-policy",
            severity: Severity::Error,
            path: "crates/runtime/src/service.rs".into(),
            line: 42,
            col: 13,
            message: "`.unwrap()` in non-test runtime code".into(),
            help: Some("resolve to a ServiceError".into()),
            snippet: Some("    let x = y.unwrap();".into()),
        };
        let s = d.render();
        assert!(s.contains("error[panic-policy]"));
        assert!(s.contains("crates/runtime/src/service.rs:42:13"));
        assert!(s.contains("42 |     let x = y.unwrap();"));
        assert!(s.contains("= help: resolve to a ServiceError"));
    }

    #[test]
    fn report_counts_severities() {
        let mut r = Report {
            files: 3,
            ..Report::default()
        };
        r.diagnostics.push(Diagnostic {
            rule: "determinism",
            severity: Severity::Error,
            path: "x.rs".into(),
            line: 1,
            col: 0,
            message: "m".into(),
            help: None,
            snippet: None,
        });
        r.diagnostics.push(Diagnostic {
            rule: "suppression-hygiene",
            severity: Severity::Warning,
            path: "x.rs".into(),
            line: 2,
            col: 0,
            message: "m".into(),
            help: None,
            snippet: None,
        });
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.of_rule("determinism").count(), 1);
        assert!(r.render().contains("3 files checked, 1 error, 1 warning"));
    }
}
