//! Fixture-driven integration tests: each rule gets a `bad` fixture that
//! must be flagged and a `good` fixture that must pass clean. Fixtures
//! live in `tests/fixtures/<rule>/` and are fed to [`check_sources`]
//! under virtual workspace paths that put them in the rule's scope.

use dlra_analyze::{check_sources, Report, Severity};

/// Runs the analyzer over one in-memory file at a virtual path.
fn run(path: &str, src: &str) -> Report {
    check_sources(&[(path.to_string(), src.to_string())])
}

fn errors_of(report: &Report, rule: &str) -> usize {
    report
        .of_rule(rule)
        .filter(|d| d.severity == Severity::Error)
        .count()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_bad_fixture_is_flagged() {
    let r = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/determinism/bad.rs"),
    );
    // One HashMap in the use, one in the signature, one Instant::now.
    assert!(errors_of(&r, "determinism") >= 3, "{}", r.render());
}

#[test]
fn determinism_good_fixture_is_clean() {
    let r = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/determinism/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
}

#[test]
fn determinism_rule_is_scoped_to_deterministic_modules() {
    // The same source outside the ledger-deterministic modules is fine:
    // the runtime is allowed to use HashMap and read the clock.
    let r = run(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/determinism/bad.rs"),
    );
    assert_eq!(errors_of(&r, "determinism"), 0, "{}", r.render());
}

// ------------------------------------------------------------ env-determinism

#[test]
fn env_determinism_bad_fixture_is_flagged() {
    let r = run(
        "crates/sampler/src/fixture.rs",
        include_str!("fixtures/env-determinism/bad.rs"),
    );
    assert!(errors_of(&r, "env-determinism") >= 1, "{}", r.render());
}

#[test]
fn env_determinism_good_fixture_is_clean() {
    let r = run(
        "crates/sampler/src/fixture.rs",
        include_str!("fixtures/env-determinism/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
}

// --------------------------------------------------------------- panic-policy

#[test]
fn panic_policy_bad_fixture_is_flagged() {
    let r = run(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/panic-policy/bad.rs"),
    );
    // unwrap, panic!, expect — three distinct sites.
    assert_eq!(errors_of(&r, "panic-policy"), 3, "{}", r.render());
}

#[test]
fn panic_policy_good_fixture_is_clean() {
    // The good fixture deliberately unwraps inside #[cfg(test)]: the rule
    // must skip test regions.
    let r = run(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/panic-policy/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
}

// ------------------------------------------------------------- unsafe-hygiene

#[test]
fn unsafe_outside_linalg_is_flagged() {
    let r = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unsafe-hygiene/bad.rs"),
    );
    assert!(errors_of(&r, "unsafe-hygiene") >= 1, "{}", r.render());
}

#[test]
fn unsafe_in_linalg_without_safety_comment_is_flagged() {
    let r = run(
        "crates/linalg/src/fixture.rs",
        include_str!("fixtures/unsafe-hygiene/bad.rs"),
    );
    assert!(errors_of(&r, "unsafe-hygiene") >= 1, "{}", r.render());
}

#[test]
fn justified_unsafe_in_linalg_is_clean() {
    let r = run(
        "crates/linalg/src/fixture.rs",
        include_str!("fixtures/unsafe-hygiene/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
}

#[test]
fn unsafe_crate_without_deny_attribute_is_flagged() {
    // Crate-level half: a lib.rs is present, the crate uses unsafe, but
    // the root does not deny unsafe_op_in_unsafe_fn.
    let r = check_sources(&[
        (
            "crates/linalg/src/lib.rs".to_string(),
            "//! Kernel crate.\npub mod fixture;\n".to_string(),
        ),
        (
            "crates/linalg/src/fixture.rs".to_string(),
            include_str!("fixtures/unsafe-hygiene/good.rs").to_string(),
        ),
    ]);
    assert_eq!(errors_of(&r, "unsafe-hygiene"), 1, "{}", r.render());
}

#[test]
fn unsafe_free_crate_without_forbid_attribute_is_flagged() {
    let r = check_sources(&[(
        "crates/core/src/lib.rs".to_string(),
        "//! Clean crate without the forbid attribute.\npub fn id(x: u64) -> u64 { x }\n"
            .to_string(),
    )]);
    assert_eq!(errors_of(&r, "unsafe-hygiene"), 1, "{}", r.render());
}

// ------------------------------------------------------------ atomic-ordering

#[test]
fn atomic_ordering_bad_fixture_is_flagged() {
    let r = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/atomic-ordering/bad.rs"),
    );
    // The unjustified store and the SeqCst counter.
    assert_eq!(errors_of(&r, "atomic-ordering"), 2, "{}", r.render());
}

#[test]
fn atomic_ordering_good_fixture_is_clean() {
    let r = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/atomic-ordering/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
}

// ---------------------------------------------------------- thread-discipline

#[test]
fn thread_discipline_bad_fixture_is_flagged() {
    let r = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/thread-discipline/bad.rs"),
    );
    assert_eq!(errors_of(&r, "thread-discipline"), 1, "{}", r.render());
}

#[test]
fn thread_discipline_good_fixture_is_clean() {
    let r = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/thread-discipline/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
}

#[test]
fn sanctioned_pool_files_may_spawn() {
    let r = run(
        "crates/linalg/src/threads.rs",
        include_str!("fixtures/thread-discipline/bad.rs"),
    );
    assert_eq!(errors_of(&r, "thread-discipline"), 0, "{}", r.render());
}

// ----------------------------------------------------------------- lock-order

#[test]
fn lock_order_cycle_is_flagged() {
    let r = run(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/lock-order/bad.rs"),
    );
    assert!(errors_of(&r, "lock-order") >= 1, "{}", r.render());
    // The diagnostic names the cycle through both locks.
    let d = r.of_rule("lock-order").next().unwrap();
    assert!(
        d.message.contains("fixture.queue") && d.message.contains("fixture.table"),
        "{}",
        d.render()
    );
}

#[test]
fn lock_order_consistent_order_is_clean() {
    let r = run(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/lock-order/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
}

// ------------------------------------------------------------------- topology

#[test]
fn topology_bad_fixture_breaks_the_comm_contract_three_ways() {
    // Tree-routing code lives in `crates/comm`, so it is simultaneously
    // in the determinism, env-determinism, and panic-policy scopes: a
    // plan with unordered hops, an ambient fanout override, and a
    // panicking accessor trips all three.
    let r = run(
        "crates/comm/src/fixture.rs",
        include_str!("fixtures/topology/bad.rs"),
    );
    assert!(errors_of(&r, "determinism") >= 2, "{}", r.render());
    assert!(errors_of(&r, "env-determinism") >= 1, "{}", r.render());
    assert!(errors_of(&r, "panic-policy") >= 1, "{}", r.render());
}

#[test]
fn topology_good_fixture_is_clean() {
    let r = run(
        "crates/comm/src/fixture.rs",
        include_str!("fixtures/topology/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
    assert_eq!(r.warnings(), 0, "{}", r.render());
}

// ------------------------------------------------------------- net transport

#[test]
fn net_bad_fixture_breaks_the_transport_contract_both_ways() {
    // The transport crate is simultaneously in the panic-policy and
    // env-determinism scopes: an ambient coordinator address plus three
    // panicking I/O sites trip both rules.
    let r = run(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/net/bad.rs"),
    );
    assert!(errors_of(&r, "env-determinism") >= 1, "{}", r.render());
    assert_eq!(errors_of(&r, "panic-policy"), 3, "{}", r.render());
}

#[test]
fn net_good_fixture_is_clean() {
    let r = run(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/net/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
    assert_eq!(r.warnings(), 0, "{}", r.render());
}

#[test]
fn net_env_scope_does_not_leak_into_other_crates() {
    // The same ambient read outside the env-isolated scopes is allowed:
    // the tracer keeps `DLRA_TRACE`.
    let r = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/net/bad.rs"),
    );
    assert_eq!(errors_of(&r, "env-determinism"), 0, "{}", r.render());
    // Panic policy still applies there.
    assert_eq!(errors_of(&r, "panic-policy"), 3, "{}", r.render());
    // The runtime layer is env-isolated: it takes every setting through
    // `ServiceConfig`.
    let r = run(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/net/bad.rs"),
    );
    assert!(errors_of(&r, "env-determinism") >= 1, "{}", r.render());
}

// --------------------------------------------------------- suppression-hygiene

#[test]
fn defective_suppressions_are_flagged() {
    let r = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/suppression-hygiene/bad.rs"),
    );
    // Reason-less dlra-allow + unknown rule id.
    assert_eq!(errors_of(&r, "suppression-hygiene"), 2, "{}", r.render());
    // The finding the reason-less suppression meant to cover still stands.
    assert!(errors_of(&r, "determinism") >= 1, "{}", r.render());
    // The well-formed suppression that matched nothing is a warning.
    assert_eq!(r.warnings(), 1, "{}", r.render());
}

#[test]
fn well_formed_suppression_silences_the_finding() {
    let r = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/suppression-hygiene/good.rs"),
    );
    assert_eq!(r.errors(), 0, "{}", r.render());
    assert_eq!(r.warnings(), 0, "{}", r.render());
}
