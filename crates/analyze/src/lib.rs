//! dlra-analyze: the workspace-aware invariant lint engine.
//!
//! The distributed low-rank approximation runtime ships a contract the
//! type system can't state: bit-identical outputs and communication
//! ledgers across substrates and thread counts, a no-panic serving path,
//! unsafe code confined to the kernel crate, justified memory orderings,
//! two sanctioned spawn sites, and a total order on lock acquisition.
//! This crate enforces that contract mechanically, with no dependencies
//! beyond std (the build environment is offline), via a comment- and
//! string-aware lexer rather than a full parser.
//!
//! Run `cargo run -p dlra-analyze -- check` at the workspace root; CI
//! gates on its exit status. Findings are suppressed inline with
//! `// dlra-allow(<rule>): <reason>` — the reason is mandatory.

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod lock_order;
pub mod rules;
pub mod source;

pub use diag::{Diagnostic, Report, Rule, Severity, RULES};
pub use engine::{check_sources, check_workspace};
