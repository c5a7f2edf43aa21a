//! Machine-readable diagnostics and the check report.
//!
//! Every finding carries a stable **rule id** (`overflow.*`, `sat.*`,
//! `budget.*`, `exit.*`), a severity, a span into the network's item list, and — where
//! one exists — a suggested fix (e.g. a channel-tiling factor). The report
//! renders as human text ([`std::fmt::Display`]) or JSON
//! ([`CheckReport::to_json`], hand-rolled: this crate has zero external
//! dependencies), and supports `--deny`-style promotion of warning rules to
//! errors.

use crate::overflow::StageCheck;
use sia_telemetry::json::write_escaped;
use std::fmt;

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Precision or performance hazard; the model still runs correctly
    /// (saturating arithmetic, chunked streaming, DDR spills).
    Warning,
    /// The model is broken for the accelerator: a value wraps, a conversion
    /// clamped a coefficient, or a layer cannot be scheduled.
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

/// Where in the network a diagnostic points.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Index into [`sia_snn::SnnNetwork::items`].
    pub item_index: usize,
    /// Human-readable stage name (compiler naming scheme, e.g.
    /// `conv3x3,64@16`).
    pub name: String,
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (see [`rules`]).
    pub rule: &'static str,
    /// Severity after any `--deny` promotion.
    pub severity: Severity,
    /// Network location.
    pub span: Span,
    /// First offending output channel, when the finding is per-channel.
    pub channel: Option<usize>,
    /// What can go wrong, with the offending values.
    pub message: String,
    /// Suggested fix, when one is mechanical (e.g. a tiling factor).
    pub suggestion: Option<String>,
    /// Whether `--deny` promoted this from warning to error.
    pub promoted: bool,
}

impl Diagnostic {
    /// Builds a diagnostic (no channel, no suggestion; use the setters).
    #[must_use]
    pub fn new(
        rule: &'static str,
        severity: Severity,
        item_index: usize,
        name: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity,
            span: Span {
                item_index,
                name: name.into(),
            },
            channel: None,
            message: message.into(),
            suggestion: None,
            promoted: false,
        }
    }

    /// Attaches the first offending channel.
    #[must_use]
    pub fn with_channel(mut self, channel: usize) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Attaches a suggested fix.
    #[must_use]
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] item {} ({}): {}",
            self.severity, self.rule, self.span.item_index, self.span.name, self.message
        )?;
        if let Some(c) = self.channel {
            write!(f, " [first channel {c}]")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n    fix: {s}")?;
        }
        Ok(())
    }
}

/// The merged result of the overflow pass and the budget lints.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Model name (from the converted network).
    pub model: String,
    /// Timestep count the membrane analysis covered.
    pub timesteps: usize,
    /// All findings, ordered by item index then rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-stage value intervals (evidence for the verdict, and the data the
    /// soundness proptests validate against concrete runs).
    pub stages: Vec<StageCheck>,
}

impl CheckReport {
    /// Number of error-severity findings (after any promotion).
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when the model has no error-severity findings — the gate
    /// `sia run`/`sia eval` enforce.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` when the interval analysis proved every integer operation
    /// exact: no `overflow.*` finding and no `sat.*` finding. When this
    /// holds, the runtime saturation telemetry counter
    /// (`snn.membrane.saturated`) is guaranteed to stay at zero for every
    /// input — the property the dynamic cross-validation test asserts.
    #[must_use]
    pub fn overflow_free(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.rule.starts_with("overflow.") || d.rule.starts_with("sat."))
    }

    /// Promotes findings whose rule id matches any of `denied` to errors.
    /// A pattern matches its exact rule id or any id it prefixes
    /// (`sat` denies all `sat.*` rules; `budget.weight-sram` denies only
    /// that rule).
    pub fn deny(&mut self, denied: &[String]) {
        for d in &mut self.diagnostics {
            if d.severity == Severity::Error {
                continue;
            }
            let hit = denied
                .iter()
                .any(|p| d.rule == p || (d.rule.starts_with(p.as_str()) && p.len() < d.rule.len()));
            if hit {
                d.severity = Severity::Error;
                d.promoted = true;
            }
        }
    }

    /// Renders the report as a single JSON object (stable field order; no
    /// external dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.diagnostics.len());
        out.push_str("{\"model\":");
        write_escaped(&mut out, &self.model);
        out.push_str(&format!(
            ",\"timesteps\":{},\"verdict\":\"{}\",\"overflow_free\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.timesteps,
            if self.passed() { "pass" } else { "fail" },
            self.overflow_free(),
            self.error_count(),
            self.warning_count(),
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            write_escaped(&mut out, d.rule);
            out.push_str(&format!(
                ",\"severity\":\"{}\",\"item\":{},\"stage\":",
                d.severity, d.span.item_index
            ));
            write_escaped(&mut out, &d.span.name);
            match d.channel {
                Some(c) => out.push_str(&format!(",\"channel\":{c}")),
                None => out.push_str(",\"channel\":null"),
            }
            out.push_str(",\"message\":");
            write_escaped(&mut out, &d.message);
            out.push_str(",\"suggestion\":");
            match &d.suggestion {
                Some(s) => write_escaped(&mut out, s),
                None => out.push_str("null"),
            }
            out.push_str(&format!(",\"promoted\":{}}}", d.promoted));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sia check: {} (T = {}): {} — {} error(s), {} warning(s)",
            self.model,
            self.timesteps,
            if self.passed() { "PASS" } else { "FAIL" },
            self.error_count(),
            self.warning_count(),
        )?;
        if self.overflow_free() {
            writeln!(
                f,
                "  interval analysis: every integer operation proven exact \
                 (no wrap, no saturation reachable)"
            )?;
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Static description of one lint/analysis rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id.
    pub id: &'static str,
    /// Default severity (before `--deny` promotion).
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

/// All rule ids this crate can emit, with default severities — the source of
/// the README rule table and of `sia check --list-rules`.
#[must_use]
pub fn rules() -> &'static [RuleInfo] {
    &[
        RuleInfo {
            id: "overflow.dense-acc",
            severity: Severity::Error,
            summary: "dense-input 32-bit accumulator can wrap (undefined value)",
        },
        RuleInfo {
            id: "overflow.coeff-g",
            severity: Severity::Error,
            summary: "batch-norm multiplier G clamped during Q8.8 conversion",
        },
        RuleInfo {
            id: "overflow.coeff-h",
            severity: Severity::Error,
            summary: "batch-norm offset H clamped during 16-bit conversion",
        },
        RuleInfo {
            id: "overflow.skip-add",
            severity: Severity::Error,
            summary: "residual identity-skip current clamped during conversion",
        },
        RuleInfo {
            id: "sat.psum",
            severity: Severity::Warning,
            summary: "16-bit partial sum can saturate under the worst-case spike pattern",
        },
        RuleInfo {
            id: "sat.current",
            severity: Severity::Warning,
            summary: "batch-norm current (y·G + H) can clamp at the 16-bit rails",
        },
        RuleInfo {
            id: "sat.membrane",
            severity: Severity::Warning,
            summary: "membrane potential can pin at a 16-bit rail within T timesteps",
        },
        RuleInfo {
            id: "budget.config",
            severity: Severity::Error,
            summary: "the accelerator configuration itself is invalid",
        },
        RuleInfo {
            id: "budget.weight-sram",
            severity: Severity::Warning,
            summary: "kernel-group weights exceed the weight SRAM (chunked streaming)",
        },
        RuleInfo {
            id: "budget.membrane-bank",
            severity: Severity::Warning,
            summary: "membranes exceed a ping-pong U-bank (DDR spill each timestep)",
        },
        RuleInfo {
            id: "budget.residual-sram",
            severity: Severity::Error,
            summary: "residual currents exceed the residual memory",
        },
        RuleInfo {
            id: "budget.output-sram",
            severity: Severity::Error,
            summary: "output spike bitmap exceeds the output memory",
        },
        RuleInfo {
            id: "budget.pe-map",
            severity: Severity::Warning,
            summary:
                "kernel wider than the PE array edge (row-segment schedule, lower utilisation)",
        },
        RuleInfo {
            id: "exit.unreachable-threshold",
            severity: Severity::Warning,
            summary: "early-exit confidence threshold the head's logit bounds prove unreachable",
        },
        RuleInfo {
            id: "exit.trivial-threshold",
            severity: Severity::Warning,
            summary: "early-exit threshold every logit vector satisfies (exits at first boundary)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckReport {
        CheckReport {
            model: "m".into(),
            timesteps: 8,
            diagnostics: vec![
                Diagnostic::new("sat.membrane", Severity::Warning, 2, "conv3x3,8@4", "peaks")
                    .with_channel(1)
                    .with_suggestion("reduce gain"),
                Diagnostic::new(
                    "budget.output-sram",
                    Severity::Error,
                    3,
                    "conv1x1,8@4",
                    "big",
                ),
            ],
            stages: Vec::new(),
        }
    }

    #[test]
    fn counting_and_verdict() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.passed());
        assert!(!r.overflow_free());
    }

    #[test]
    fn deny_promotes_by_prefix() {
        let mut r = sample();
        r.deny(&["sat".into()]);
        assert_eq!(r.error_count(), 2);
        assert!(r.diagnostics[0].promoted);
        // exact id also matches; unrelated prefixes do not
        let mut r2 = sample();
        r2.deny(&["sat.membrane".into(), "budget.weight-sram".into()]);
        assert_eq!(r2.error_count(), 2);
        let mut r3 = sample();
        r3.deny(&["sat.current".into()]);
        assert_eq!(r3.error_count(), 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"verdict\":\"fail\""));
        assert!(j.contains("\"rule\":\"sat.membrane\""));
        assert!(j.contains("\"channel\":1"));
        assert!(j.contains("\"suggestion\":\"reduce gain\""));
        assert_eq!(j.matches("\"rule\"").count(), 2);
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn display_mentions_rule_and_fix() {
        let txt = sample().to_string();
        assert!(txt.contains("FAIL"));
        assert!(txt.contains("warning[sat.membrane]"));
        assert!(txt.contains("fix: reduce gain"));
    }

    #[test]
    fn rule_table_ids_are_unique_and_namespaced() {
        let rs = rules();
        for (i, a) in rs.iter().enumerate() {
            assert!(
                a.id.starts_with("overflow.")
                    || a.id.starts_with("sat.")
                    || a.id.starts_with("budget.")
                    || a.id.starts_with("exit.")
            );
            for b in &rs[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }
}
