//! The pattern-driven rules: determinism, env-determinism, panic-policy,
//! unsafe-hygiene (per-file and per-crate halves), atomic-ordering, and
//! thread-discipline. Lock ordering lives in [`crate::lock_order`].

use crate::diag::{Diagnostic, Severity};
use crate::source::SourceFile;

/// Modules on the ledger-deterministic path: their outputs and per-query
/// communication ledgers must be bit-identical across substrates, thread
/// counts, and plan-cache settings, so nothing inside them may branch on
/// wall clock, ambient environment, or unordered iteration. All of
/// `dlra-linalg` is on it except the kernel fan-out (`threads.rs`), which
/// times its panels when profiling is on.
pub fn is_deterministic_module(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/sampler/src/")
        || path.starts_with("crates/comm/src/")
        || (path.starts_with("crates/linalg/src/") && path != "crates/linalg/src/threads.rs")
}

/// Crates under the no-panic serving contract: queries must resolve to
/// typed errors (`ServiceError::RuntimeUnavailable`, poison recovery), not
/// unwind the executor. The transport crate is in scope: a malformed or
/// truncated frame must come back as a typed `NetError`, never a panic a
/// remote peer can trigger.
pub fn in_panic_scope(path: &str) -> bool {
    path.starts_with("crates/runtime/src/")
        || path.starts_with("crates/comm/src/")
        || path.starts_with("crates/obs/src/")
        || path.starts_with("crates/net/src/")
}

/// Modules barred from reading the ambient environment: the
/// ledger-deterministic core, the transport crate and the runtime layer.
/// `dlra-net` takes all configuration through typed parameters and the
/// bootstrap roster, and `dlra-runtime` through `ServiceConfig`, so a
/// cluster's wire transcript and a service's behaviour are pure functions
/// of their inputs. All of `dlra-linalg` is in scope, the kernel fan-out
/// included: its thread count comes from `set_threads` or the hardware.
/// The library's only env read is the tracer's `DLRA_TRACE` (`dlra-obs`).
pub fn in_env_scope(path: &str) -> bool {
    is_deterministic_module(path)
        || path.starts_with("crates/linalg/src/")
        || path.starts_with("crates/net/src/")
        || path.starts_with("crates/runtime/src/")
}

/// The only crate allowed to contain `unsafe` code.
pub fn unsafe_allowed(path: &str) -> bool {
    path.starts_with("crates/linalg/")
}

/// The sanctioned spawn sites: the kernels' row-panel fan-out (scoped
/// threads, joined before each kernel call returns), and the per-server
/// threads of the loopback clusters (`ThreadedCluster` and `SocketCluster`,
/// both started by the `dlra-net` coordinator). Everything else needs a
/// `dlra-allow(thread-discipline)` with a reason (the service executor pool
/// carries one).
pub fn spawn_allowed(path: &str) -> bool {
    path == "crates/linalg/src/threads.rs" || path == "crates/net/src/cluster.rs"
}

fn diag(
    rule: &'static str,
    file: &SourceFile,
    line: usize,
    col: usize,
    message: String,
    help: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        path: file.path.clone(),
        line,
        col,
        message,
        help: Some(help),
        snippet: file.snippet(line),
    }
}

/// Finds `needle` as a whole word (not embedded in a larger identifier).
fn word_matches(file: &SourceFile, needle: &str) -> Vec<(usize, usize)> {
    file.code_matches(needle)
        .into_iter()
        .filter(|&(line, col)| {
            let code = file.code(line);
            let bytes = code.as_bytes();
            let before_ok = col < 2
                || !bytes
                    .get(col - 2)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
            let after = col - 1 + needle.len();
            let after_ok = !bytes
                .get(after)
                .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
            before_ok && after_ok
        })
        .collect()
}

/// Whether the file contains any real (non-test) `unsafe` token — the
/// attribute spellings `unsafe_code` / `unsafe_op_in_unsafe_fn` don't
/// count because the word boundary check excludes them.
pub fn has_unsafe_code(file: &SourceFile) -> bool {
    !word_matches(file, "unsafe").is_empty()
}

/// Rule `determinism`: wall clocks and unordered collections are banned
/// from ledger-deterministic modules.
pub fn determinism(file: &SourceFile) -> Vec<Diagnostic> {
    if !is_deterministic_module(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (pattern, what, why) in [
        (
            "Instant::now",
            "wall-clock read",
            "execution time varies across substrates and thread counts; deterministic code \
             must not branch on it",
        ),
        (
            "SystemTime",
            "wall-clock read",
            "system time varies across runs; deterministic code must not depend on it",
        ),
        (
            "HashMap",
            "unordered collection",
            "HashMap iteration order is randomized per process; use a Vec, BTreeMap, or \
             index-keyed layout",
        ),
        (
            "HashSet",
            "unordered collection",
            "HashSet iteration order is randomized per process; use a Vec, BTreeSet, or \
             sorted layout",
        ),
    ] {
        for (line, col) in word_matches(file, pattern) {
            out.push(diag(
                "determinism",
                file,
                line,
                col,
                format!("{what} `{pattern}` in ledger-deterministic module"),
                format!("{why}; or suppress with `// dlra-allow(determinism): <reason>`"),
            ));
        }
    }
    out
}

/// Rule `env-determinism`: deterministic modules, the transport crate and
/// the runtime layer take configuration through typed parameters, never
/// from ambient process state.
pub fn env_determinism(file: &SourceFile) -> Vec<Diagnostic> {
    if !in_env_scope(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pattern in ["std::env", "env::var", "option_env!"] {
        for (line, col) in file.code_matches(pattern) {
            out.push(diag(
                "env-determinism",
                file,
                line,
                col,
                format!("ambient environment read `{pattern}` in env-isolated module"),
                "thread configuration through typed parameters so two runs with equal inputs \
                 are bit-identical; or suppress with `// dlra-allow(env-determinism): <reason>`"
                    .into(),
            ));
        }
    }
    out
}

/// Rule `panic-policy`: serving-path crates must not panic outside tests.
pub fn panic_policy(file: &SourceFile) -> Vec<Diagnostic> {
    if !in_panic_scope(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (pattern, what) in [
        (".unwrap()", "`.unwrap()`"),
        (".expect(", "`.expect(..)`"),
        ("panic!(", "`panic!`"),
        ("unreachable!(", "`unreachable!`"),
        ("todo!(", "`todo!`"),
        ("unimplemented!(", "`unimplemented!`"),
    ] {
        for (line, col) in file.code_matches(pattern) {
            out.push(diag(
                "panic-policy",
                file,
                line,
                col,
                format!("{what} in non-test serving-path code"),
                "resolve to a typed error (`ServiceError`/`CoreError`), recover poisoned locks \
                 with `dlra_util::sync`, or suppress with `// dlra-allow(panic-policy): <reason>`"
                    .into(),
            ));
        }
    }
    out
}

/// Per-file half of rule `unsafe-hygiene`: `unsafe` only in
/// `crates/linalg`, and every unsafe site carries a SAFETY comment.
pub fn unsafe_hygiene_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (line, col) in word_matches(file, "unsafe") {
        if !unsafe_allowed(&file.path) {
            out.push(diag(
                "unsafe-hygiene",
                file,
                line,
                col,
                "`unsafe` outside crates/linalg".into(),
                "unsafe code is confined to the kernel crate where it is reviewed against the \
                 pool protocol; express this safely or move it behind a dlra-linalg API"
                    .into(),
            ));
            continue;
        }
        let attached = file.attached_comment(line);
        let justified = attached.to_ascii_lowercase().contains("safety");
        if !justified {
            out.push(diag(
                "unsafe-hygiene",
                file,
                line,
                col,
                "`unsafe` without a `// SAFETY:` comment".into(),
                "state the invariant that makes this sound in a `// SAFETY:` comment on or \
                 directly above the unsafe site"
                    .into(),
            ));
        }
    }
    out
}

/// Per-crate half of rule `unsafe-hygiene`, run by the engine once per
/// crate: an unsafe-using crate must deny `unsafe_op_in_unsafe_fn`; a
/// provably unsafe-free crate must `#![forbid(unsafe_code)]` so it stays
/// that way.
pub fn unsafe_hygiene_crate(
    crate_root: &str,
    root_file: Option<&SourceFile>,
    has_unsafe: bool,
) -> Vec<Diagnostic> {
    let Some(root_file) = root_file else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let has_attr = |needle: &str| root_file.lines.iter().any(|l| l.code.contains(needle));
    if has_unsafe {
        if !has_attr("unsafe_op_in_unsafe_fn") {
            out.push(Diagnostic {
                rule: "unsafe-hygiene",
                severity: Severity::Error,
                path: root_file.path.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "crate `{crate_root}` contains unsafe code but does not deny \
                     `unsafe_op_in_unsafe_fn`"
                ),
                help: Some(
                    "add `#![deny(unsafe_op_in_unsafe_fn)]` to the crate root so every unsafe \
                     operation inside an unsafe fn is individually scoped and justified"
                        .into(),
                ),
                snippet: None,
            });
        }
    } else if !has_attr("#![forbid(unsafe_code)]") {
        out.push(Diagnostic {
            rule: "unsafe-hygiene",
            severity: Severity::Error,
            path: root_file.path.clone(),
            line: 0,
            col: 0,
            message: format!(
                "crate `{crate_root}` is unsafe-free but does not `#![forbid(unsafe_code)]`"
            ),
            help: Some(
                "add `#![forbid(unsafe_code)]` to the crate root; the analyzer proved the crate \
                 clean, the attribute keeps it that way"
                    .into(),
            ),
            snippet: None,
        });
    }
    out
}

/// Rule `atomic-ordering`: `SeqCst` is the strongest and slowest ordering;
/// each use must say why a weaker one does not suffice. Plain monotone
/// counters get a dedicated hint (they are always correct as `Relaxed`).
pub fn atomic_ordering(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (line, col) in word_matches(file, "SeqCst") {
        let attached = file.attached_comment(line);
        if attached.contains("SeqCst") {
            continue; // justified in place
        }
        let code = file.code(line);
        let counter = code.contains("fetch_add(1,") || code.contains("fetch_sub(1,");
        let (message, help) = if counter {
            (
                "`SeqCst` on a plain counter".to_string(),
                "a monotone counter needs no cross-variable ordering: use `Ordering::Relaxed`; \
                 if this really synchronizes other state, justify it in a comment naming SeqCst"
                    .to_string(),
            )
        } else {
            (
                "`Ordering::SeqCst` without a justification comment".to_string(),
                "downgrade to Relaxed/Acquire/Release if the total order is not load-bearing, \
                 or add a comment naming SeqCst that states which cross-thread invariant \
                 needs it"
                    .to_string(),
            )
        };
        out.push(diag("atomic-ordering", file, line, col, message, help));
    }
    out
}

/// Rule `thread-discipline`: every thread, scoped or long-lived, is started
/// at one of the two sanctioned sites; ad-hoc spawns multiply the
/// concurrent surface the equivalence suites have to reason about.
pub fn thread_discipline(file: &SourceFile) -> Vec<Diagnostic> {
    if spawn_allowed(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pattern in ["thread::spawn", "thread::Builder", "thread::scope"] {
        for (line, col) in file.code_matches(pattern) {
            out.push(diag(
                "thread-discipline",
                file,
                line,
                col,
                format!("`{pattern}` outside the sanctioned spawn sites"),
                "route work through the kernels' row-panel fan-out (dlra-linalg), the \
                 loopback cluster servers (dlra-net), or the service executor pool; or \
                 suppress with `// dlra-allow(thread-discipline): <reason>`"
                    .into(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    #[test]
    fn determinism_scopes_by_module() {
        let bad = "fn f() { let t = Instant::now(); }";
        assert_eq!(determinism(&parse("crates/core/src/a.rs", bad)).len(), 1);
        assert_eq!(determinism(&parse("crates/obs/src/a.rs", bad)).len(), 0);
        for path in [
            "crates/linalg/src/kernels.rs",
            "crates/linalg/src/svd.rs",
            "crates/linalg/src/lib.rs",
        ] {
            assert_eq!(determinism(&parse(path, bad)).len(), 1, "{path}");
        }
        assert_eq!(
            determinism(&parse("crates/linalg/src/threads.rs", bad)).len(),
            0
        );
        let ambient = "fn f() { let _ = std::env::var(\"DLRA_THREADS\"); }";
        assert!(!env_determinism(&parse("crates/linalg/src/svd.rs", ambient)).is_empty());
        assert!(!env_determinism(&parse("crates/linalg/src/threads.rs", ambient)).is_empty());
    }

    #[test]
    fn determinism_flags_unordered_collections_not_substrings() {
        let f = parse(
            "crates/sampler/src/a.rs",
            "use std::collections::HashMap;\nstruct MyHashMapLike;\n",
        );
        let d = determinism(&f);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn panic_policy_skips_tests_and_comments() {
        let src = "\
fn live() { x.unwrap(); } // not ok
/// doc: y.unwrap() is fine in docs
#[cfg(test)]
mod tests { fn t() { z.unwrap(); } }
";
        let d = panic_policy(&parse("crates/runtime/src/a.rs", src));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert!(panic_policy(&parse("crates/linalg/src/a.rs", src)).is_empty());
    }

    #[test]
    fn transport_crate_is_in_panic_and_env_scope() {
        let panicking = "fn f() { x.unwrap(); }";
        assert_eq!(
            panic_policy(&parse("crates/net/src/frame.rs", panicking)).len(),
            1
        );
        let ambient = "fn f() { let _ = std::env::var(\"PORT\"); }";
        assert!(!env_determinism(&parse("crates/net/src/cluster.rs", ambient)).is_empty());
        // ...but not in the determinism scope: the transport may keep a
        // HashMap job table and read the clock for timeouts.
        let clocked = "fn f() { let _ = Instant::now(); }";
        assert!(determinism(&parse("crates/net/src/cluster.rs", clocked)).is_empty());
    }

    #[test]
    fn unsafe_outside_linalg_is_flagged() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        assert_eq!(
            unsafe_hygiene_file(&parse("crates/comm/src/a.rs", src)).len(),
            1
        );
    }

    #[test]
    fn unsafe_in_linalg_needs_safety_comment() {
        let without = "fn f() { unsafe { go() } }";
        let with = "fn f() {\n    // SAFETY: bounds checked above\n    unsafe { go() }\n}";
        assert_eq!(
            unsafe_hygiene_file(&parse("crates/linalg/src/k.rs", without)).len(),
            1
        );
        assert!(unsafe_hygiene_file(&parse("crates/linalg/src/k.rs", with)).is_empty());
    }

    #[test]
    fn crate_level_attributes_are_required() {
        let clean_root = parse("crates/foo/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert!(unsafe_hygiene_crate("crates/foo", Some(&clean_root), false).is_empty());
        let bare_root = parse("crates/foo/src/lib.rs", "pub mod a;\n");
        assert_eq!(
            unsafe_hygiene_crate("crates/foo", Some(&bare_root), false).len(),
            1
        );
        assert_eq!(
            unsafe_hygiene_crate("crates/foo", Some(&bare_root), true).len(),
            1
        );
        let denying = parse(
            "crates/foo/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\n",
        );
        assert!(unsafe_hygiene_crate("crates/foo", Some(&denying), true).is_empty());
    }

    #[test]
    fn seqcst_requires_a_comment_naming_it() {
        let bare = "fn f() { X.store(1, Ordering::SeqCst); }";
        assert_eq!(atomic_ordering(&parse("crates/a/src/a.rs", bare)).len(), 1);
        let justified = "\
fn f() {
    // SeqCst: pairs with the CAS in claim(); both sides need the total order.
    X.store(1, Ordering::SeqCst);
}
";
        assert!(atomic_ordering(&parse("crates/a/src/a.rs", justified)).is_empty());
        let counter = "fn f() { N.fetch_add(1, Ordering::SeqCst); }";
        let d = atomic_ordering(&parse("crates/a/src/a.rs", counter));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("counter"));
    }

    #[test]
    fn spawns_flagged_outside_the_pools() {
        for src in [
            "fn f() { std::thread::spawn(|| {}); }",
            "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }",
        ] {
            assert_eq!(
                thread_discipline(&parse("crates/core/src/a.rs", src)).len(),
                1,
                "{src}"
            );
            assert!(thread_discipline(&parse("crates/linalg/src/threads.rs", src)).is_empty());
            assert!(thread_discipline(&parse("crates/net/src/cluster.rs", src)).is_empty());
            assert_eq!(
                thread_discipline(&parse("crates/runtime/src/service.rs", src)).len(),
                1,
                "{src}"
            );
            assert_eq!(
                thread_discipline(&parse("crates/net/src/node.rs", src)).len(),
                1,
                "{src}"
            );
        }
    }
}
