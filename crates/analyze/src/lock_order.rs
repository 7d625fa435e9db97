//! Rule `lock-order`: build the cross-function lock-acquisition graph over
//! `// dlra-lock-order:`-annotated locks and fail on cycles.
//!
//! The model is deliberately syntactic but sound for this codebase's
//! idioms:
//!
//! - A lock is *named* by writing `// dlra-lock-order: <name>` directly
//!   above its field declaration (`queue: Mutex<…>`), a static
//!   (`static POOL: Mutex<…>`), or an accessor fn (`fn pool() -> &'static
//!   Mutex<…>`). Names are global (e.g. `service.queue`); the bound
//!   identifier is per-file, so two files may both have a `state` field
//!   mapped to different names.
//! - An acquisition is `.ident.lock(` / `.ident.read(` / `.ident.write(`
//!   on a named field, or `ident().lock(` on a named accessor.
//!   `let`-bound guards are held until the end of their enclosing block
//!   or an explicit `drop(guard)`; acquisitions used as statement
//!   temporaries are held to the end of the statement.
//! - While lock A is held, acquiring lock B records the edge A → B.
//!   Calling a function that (transitively) acquires B records the same
//!   edge. Transitive acquisition is a per-crate fixpoint over a call
//!   graph keyed by bare function name; ubiquitous method names (`len`,
//!   `clone`, …) are excluded so the approximation doesn't wire
//!   unrelated types together.
//! - A cycle in the resulting graph is reported with one witness site per
//!   edge.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Severity};
use crate::source::SourceFile;

/// Method names too generic to treat as intra-crate calls: resolving
/// these by bare name would connect unrelated types and drown the graph
/// in false edges.
const CALL_DENYLIST: &[&str] = &[
    "as_deref",
    "as_mut",
    "as_ref",
    "clone",
    "cloned",
    "collect",
    "contains",
    "default",
    "drain",
    "drop",
    "entry",
    "eq",
    "expect",
    "extend",
    "fetch_add",
    "fetch_sub",
    "filter",
    "fmt",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "is_empty",
    "iter",
    "join",
    "len",
    "load",
    "lock",
    "lock_recover",
    "map",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "or_default",
    "pop",
    "push",
    "read",
    "read_recover",
    "recv",
    "remove",
    "retain",
    "send",
    "spawn",
    "store",
    "swap",
    "take",
    "to_string",
    "to_vec",
    "try_recv",
    "try_send",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "wait",
    "wait_timeout",
    "write",
    "write_recover",
];

/// A lock event inside a function body.
#[derive(Debug, Clone)]
struct Call {
    callee: String,
    held: Vec<String>,
    line: usize,
}

/// Per-function extraction result.
#[derive(Debug, Default)]
struct FnInfo {
    file: usize,
    /// Edges A → B observed directly (A held while B acquired).
    edges: Vec<(String, String, usize)>,
    /// Locks acquired anywhere in the body.
    acquires: BTreeSet<String>,
    /// Same-crate calls with the held-set at the call site.
    calls: Vec<Call>,
}

/// Runs the lock-order analysis over one crate's files.
pub fn check_crate(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let (edges, mut out) = build_edges(files);
    let mut graph: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in &edges {
        graph.entry(&e.from).or_default().push(&e.to);
    }
    if let Some(cycle) = find_cycle(&graph) {
        let witness = |a: &str, b: &str| -> &EdgeWitness {
            edges
                .iter()
                .find(|e| e.from == a && e.to == b)
                .expect("cycle edges come from the edge list")
        };
        let witness_lines: Vec<String> = cycle
            .windows(2)
            .map(|w| {
                let e = witness(w[0], w[1]);
                format!("  {} -> {} at {}:{}", e.from, e.to, e.path, e.line)
            })
            .collect();
        let first = witness(cycle[0], cycle[1]);
        out.push(Diagnostic {
            rule: "lock-order",
            severity: Severity::Error,
            path: first.path.clone(),
            line: first.line,
            col: 1,
            message: format!("lock acquisition cycle: {}", cycle.join(" -> ")),
            help: Some(format!(
                "two call paths acquire these locks in conflicting orders, which can deadlock; \
                 witnesses:\n{}",
                witness_lines.join("\n")
            )),
            snippet: first.snippet.clone(),
        });
    }
    out
}

/// The deduplicated acquisition edges for one crate (for `dlra-analyze
/// graph`), plus any annotation-shape diagnostics.
pub fn build_edges(files: &[&SourceFile]) -> (Vec<EdgeWitness>, Vec<Diagnostic>) {
    let mut out = Vec::new();

    // 1. Collect lock annotations (and flag orphaned ones).
    let mut field_maps: Vec<BTreeMap<String, String>> = vec![BTreeMap::new(); files.len()];
    for (fi, file) in files.iter().enumerate() {
        for (li, l) in file.lines.iter().enumerate() {
            // Only recognized at the start of the comment text, so prose
            // that merely mentions the syntax doesn't declare a lock.
            if !l.comment.trim_start().starts_with("dlra-lock-order:") {
                continue;
            }
            let at = l.comment.find("dlra-lock-order:").unwrap_or(0);
            let name = l.comment[at + "dlra-lock-order:".len()..]
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_string();
            match (name.is_empty(), annotated_ident(file, li + 1)) {
                (false, Some(ident)) => {
                    field_maps[fi].insert(ident, name);
                }
                _ => out.push(Diagnostic {
                    rule: "lock-order",
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: li + 1,
                    col: 1,
                    message: "malformed `dlra-lock-order:` annotation".into(),
                    help: Some(
                        "write `// dlra-lock-order: <name>` directly above the lock field, \
                         static, or accessor fn it names"
                            .into(),
                    ),
                    snippet: file.snippet(li + 1),
                }),
            }
        }
    }
    if field_maps.iter().all(BTreeMap::is_empty) {
        return (Vec::new(), out);
    }

    // 2. Extract function bodies and their lock events.
    let mut fns: BTreeMap<String, FnInfo> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (name, body_start, body_end) in functions(file) {
            let info = extract_fn(file, fi, &field_maps[fi], body_start, body_end);
            let merged = fns.entry(name).or_insert_with(|| FnInfo {
                file: fi,
                ..FnInfo::default()
            });
            merged.edges.extend(info.edges);
            merged.acquires.extend(info.acquires);
            merged.calls.extend(info.calls);
        }
    }

    // 3. Fixpoint: transitive acquisition sets over the call graph.
    let names: Vec<String> = fns.keys().cloned().collect();
    let mut trans: BTreeMap<String, BTreeSet<String>> = fns
        .iter()
        .map(|(n, f)| (n.clone(), f.acquires.clone()))
        .collect();
    loop {
        let mut changed = false;
        for name in &names {
            let callees: Vec<String> = fns[name].calls.iter().map(|c| c.callee.clone()).collect();
            let mut grown = trans[name].clone();
            for callee in callees {
                if let Some(set) = trans.get(&callee) {
                    for l in set.clone() {
                        grown.insert(l);
                    }
                }
            }
            if grown.len() != trans[name].len() {
                trans.insert(name.clone(), grown);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 4. Assemble the edge set: direct edges plus call-through edges.
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for info in fns.values() {
        for (a, b, line) in &info.edges {
            edges
                .entry((a.clone(), b.clone()))
                .or_insert((info.file, *line));
        }
        for call in &info.calls {
            let Some(acquired) = trans.get(&call.callee) else {
                continue;
            };
            for held in &call.held {
                for b in acquired {
                    if held != b {
                        edges
                            .entry((held.clone(), b.clone()))
                            .or_insert((info.file, call.line));
                    }
                }
            }
        }
    }

    let list = edges
        .into_iter()
        .map(|((from, to), (fi, line))| EdgeWitness {
            from,
            to,
            path: files[fi].path.clone(),
            line,
            snippet: files[fi].snippet(line),
        })
        .collect();
    (list, out)
}

/// A lock-order edge `from → to` (held `from` while acquiring `to`) plus
/// the witness location and snippet for rendering.
#[derive(Debug, Clone)]
pub struct EdgeWitness {
    pub from: String,
    pub to: String,
    pub path: String,
    pub line: usize,
    pub snippet: Option<String>,
}

/// The identifier an annotation on 0-based line `line - 1` binds to: the
/// field/static name of `ident: Type` (optionally behind `pub`, `static`,
/// `mut`), or the fn name of `fn ident(`.
fn annotated_ident(file: &SourceFile, from: usize) -> Option<String> {
    for l in file.lines.iter().skip(from).take(3) {
        let code = l.code.trim();
        if code.is_empty() {
            continue;
        }
        let mut code = code;
        for prefix in ["pub(crate)", "pub(super)", "pub"] {
            code = code.strip_prefix(prefix).unwrap_or(code).trim_start();
        }
        if let Some(rest) = code.strip_prefix("fn ") {
            let ident: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            return (!ident.is_empty()).then_some(ident);
        }
        for prefix in ["static", "mut"] {
            code = code.strip_prefix(prefix).unwrap_or(code).trim_start();
        }
        let ident: String = code
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let rest = &code[ident.len()..];
        if !ident.is_empty() && rest.trim_start().starts_with(':') {
            return Some(ident);
        }
        return None;
    }
    None
}

/// Every `fn name` with its body span: `(name, body_start, body_end)` as
/// 0-based line indices of the `{` line and the matching `}` line. Test
/// regions are skipped.
fn functions(file: &SourceFile) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for (i, l) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let code = &l.code;
        let mut from = 0;
        while let Some(at) = code[from..].find("fn ") {
            let abs = from + at;
            from = abs + 3;
            if abs > 0 {
                let prev = code.as_bytes()[abs - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue; // e.g. `often `
                }
            }
            let name: String = code[abs + 3..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            if let Some((start, end)) = body_span(file, i, abs + 3) {
                out.push((name, start, end));
            }
        }
    }
    out
}

/// The body span of a fn whose signature continues at `(line, col)`:
/// 0-based (line of `{`, line of matching `}`), or `None` for bodyless
/// declarations ending in `;`.
fn body_span(file: &SourceFile, line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth: i32 = 0;
    let mut started = false;
    let mut start_line = line;
    let mut j = line;
    let mut c0 = col;
    while j < file.lines.len() {
        let code = &file.lines[j].code;
        for ch in code[c0.min(code.len())..].chars() {
            match ch {
                '{' => {
                    if !started {
                        started = true;
                        start_line = j;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if started && depth == 0 {
                        return Some((start_line, j));
                    }
                }
                ';' if !started => return None,
                _ => {}
            }
        }
        j += 1;
        c0 = 0;
    }
    None
}

/// A guard currently held inside a function body.
#[derive(Debug)]
struct Held {
    lock: String,
    /// Brace depth at acquisition; released when depth drops below this.
    depth: i32,
    /// Binding name for `let` guards (releasable via `drop(name)`).
    var: Option<String>,
    /// Statement temporaries die at the first `;` at their depth.
    temp: bool,
}

/// Walks one function body, tracking held locks, direct edges, and calls.
fn extract_fn(
    file: &SourceFile,
    fi: usize,
    fields: &BTreeMap<String, String>,
    body_start: usize,
    body_end: usize,
) -> FnInfo {
    let mut info = FnInfo {
        file: fi,
        ..FnInfo::default()
    };
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    // Current statement prefix per depth, to recognize `let` bindings.
    let mut stmt: Vec<String> = vec![String::new()];

    for j in body_start..=body_end.min(file.lines.len().saturating_sub(1)) {
        let code = file.lines[j].code.clone();
        let bytes = code.as_bytes();
        let mut k = 0usize;
        while k < bytes.len() {
            let ch = bytes[k] as char;

            match ch {
                '{' => {
                    depth += 1;
                    stmt.push(String::new());
                    k += 1;
                    continue;
                }
                '}' => {
                    depth -= 1;
                    if stmt.len() > 1 {
                        stmt.pop();
                    }
                    if let Some(s) = stmt.last_mut() {
                        s.clear();
                    }
                    held.retain(|h| h.depth <= depth);
                    k += 1;
                    continue;
                }
                ';' => {
                    held.retain(|h| !(h.temp && h.depth == depth));
                    if let Some(s) = stmt.last_mut() {
                        s.clear();
                    }
                    k += 1;
                    continue;
                }
                _ => {}
            }

            // Acquisition: `.field.lock(` | `.field.read(` | `.field.write(`
            // or `accessor().lock(`.
            let ident_start = (bytes[k].is_ascii_alphabetic() || ch == '_')
                && (k == 0
                    || !{
                        let p = bytes[k - 1];
                        p.is_ascii_alphanumeric() || p == b'_'
                    });
            if ch == '.' || ident_start {
                if let Some((ident, consumed)) = match_acquisition(&code[k..], ch == '.') {
                    if let Some(lock) = fields.get(&ident) {
                        for h in &held {
                            if h.lock != *lock {
                                info.edges.push((h.lock.clone(), lock.clone(), j + 1));
                            }
                        }
                        info.acquires.insert(lock.clone());
                        let prefix = stmt.last().map(String::as_str).unwrap_or("").trim_start();
                        let bound = prefix.starts_with("let ")
                            || prefix.starts_with("if let ")
                            || prefix.starts_with("while let ");
                        let var = prefix.strip_prefix("let ").map(|rest| {
                            rest.trim_start()
                                .trim_start_matches("mut ")
                                .chars()
                                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                                .collect::<String>()
                        });
                        held.push(Held {
                            lock: lock.clone(),
                            depth,
                            var: var.filter(|v| !v.is_empty()),
                            temp: !bound,
                        });
                        if let Some(s) = stmt.last_mut() {
                            s.push_str(&code[k..k + consumed]);
                        }
                        k += consumed;
                        continue;
                    }
                }
            }

            if ident_start {
                let name: String = code[k..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let after = k + name.len();
                // `drop(var)` releases the named guard.
                if name == "drop" && bytes.get(after) == Some(&b'(') {
                    let arg: String = code[after + 1..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    held.retain(|h| h.var.as_deref() != Some(arg.as_str()));
                } else if bytes.get(after) == Some(&b'(') && !CALL_DENYLIST.contains(&name.as_str())
                {
                    // Recorded even with nothing held: the fixpoint needs
                    // the call graph to propagate transitive acquires.
                    info.calls.push(Call {
                        callee: name.clone(),
                        held: held.iter().map(|h| h.lock.clone()).collect(),
                        line: j + 1,
                    });
                }
                if let Some(s) = stmt.last_mut() {
                    s.push_str(&name);
                }
                k += name.len();
                continue;
            }

            if let Some(s) = stmt.last_mut() {
                s.push(ch);
            }
            k += 1;
        }
        // Keep multi-line statements flowing (`let\n  guard = …`).
        if let Some(s) = stmt.last_mut() {
            s.push(' ');
        }
    }
    info
}

/// Matches an acquisition at the start of `s`. With `dotted`, `s` starts
/// at the `.` of `.field.lock(`; otherwise at the ident of
/// `accessor().lock(`. Returns `(ident, bytes_consumed)`.
fn match_acquisition(s: &str, dotted: bool) -> Option<(String, usize)> {
    let rest = if dotted { &s[1..] } else { s };
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        return None;
    }
    let mut after = &rest[ident.len()..];
    let mut consumed = usize::from(dotted) + ident.len();
    if !dotted {
        // Accessor form requires `()` between the ident and the method.
        let stripped = after.strip_prefix("()")?;
        after = stripped;
        consumed += 2;
    }
    // The `_recover` variants are dlra-util's poison-recovering wrappers;
    // they acquire exactly like their std counterparts.
    for method in [
        ".lock_recover(",
        ".read_recover(",
        ".write_recover(",
        ".lock(",
        ".read(",
        ".write(",
    ] {
        if after.starts_with(method) {
            return Some((ident, consumed + method.len()));
        }
    }
    None
}

/// First cycle in `graph` (nodes visited in deterministic order), as a
/// node list whose first and last elements are equal.
fn find_cycle<'a>(graph: &BTreeMap<&'a str, Vec<&'a str>>) -> Option<Vec<&'a str>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: BTreeMap<&str, Mark> = BTreeMap::new();
    for (a, succs) in graph {
        marks.entry(a).or_insert(Mark::White);
        for s in succs {
            marks.entry(s).or_insert(Mark::White);
        }
    }

    fn dfs<'a>(
        node: &'a str,
        graph: &BTreeMap<&'a str, Vec<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<&'a str>> {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        if let Some(succs) = graph.get(node) {
            for &next in succs {
                match marks.get(next).copied().unwrap_or(Mark::White) {
                    Mark::Grey => {
                        let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                        let mut cycle: Vec<&str> = stack[from..].to_vec();
                        cycle.push(next);
                        return Some(cycle);
                    }
                    Mark::White => {
                        if let Some(c) = dfs(next, graph, marks, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }

    let nodes: Vec<&str> = marks.keys().copied().collect();
    for node in nodes {
        if marks[node] == Mark::White {
            let mut stack = Vec::new();
            if let Some(c) = dfs(node, graph, &mut marks, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(srcs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let fs: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let refs: Vec<&SourceFile> = fs.iter().collect();
        check_crate(&refs)
    }

    const TWO_LOCKS: &str = "\
struct S {
    // dlra-lock-order: lock.a
    a: Mutex<u32>,
    // dlra-lock-order: lock.b
    b: Mutex<u32>,
}
";

    #[test]
    fn reversed_acquisition_orders_are_a_cycle() {
        let src = format!(
            "{TWO_LOCKS}\
fn one(s: &S) {{
    let g = s.a.lock().unwrap();
    let h = s.b.lock().unwrap();
}}
fn two(s: &S) {{
    let g = s.b.lock().unwrap();
    let h = s.a.lock().unwrap();
}}
"
        );
        let out = check(&[("crates/x/src/a.rs", &src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cycle"));
        assert!(out[0].message.contains("lock.a"));
        assert!(out[0].message.contains("lock.b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{TWO_LOCKS}\
fn one(s: &S) {{
    let g = s.a.lock().unwrap();
    let h = s.b.lock().unwrap();
}}
fn two(s: &S) {{
    let g = s.a.lock().unwrap();
    helper(s);
}}
fn helper(s: &S) {{
    let h = s.b.lock().unwrap();
}}
"
        );
        let out = check(&[("crates/x/src/a.rs", &src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cross_function_cycle_through_calls_is_found() {
        let src = format!(
            "{TWO_LOCKS}\
fn one(s: &S) {{
    let g = s.a.lock().unwrap();
    takes_b(s);
}}
fn takes_b(s: &S) {{
    let h = s.b.lock().unwrap();
}}
fn two(s: &S) {{
    let g = s.b.lock().unwrap();
    takes_a(s);
}}
fn takes_a(s: &S) {{
    let h = s.a.lock().unwrap();
}}
"
        );
        let out = check(&[("crates/x/src/a.rs", &src)]);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn transitive_acquires_flow_through_lockless_middlemen() {
        let src = format!(
            "{TWO_LOCKS}\
fn one(s: &S) {{
    let g = s.a.lock().unwrap();
    middle(s);
}}
fn middle(s: &S) {{
    takes_b(s);
}}
fn takes_b(s: &S) {{
    let h = s.b.lock().unwrap();
}}
fn two(s: &S) {{
    let g = s.b.lock().unwrap();
    let h = s.a.lock().unwrap();
}}
"
        );
        let out = check(&[("crates/x/src/a.rs", &src)]);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = format!(
            "{TWO_LOCKS}\
fn one(s: &S) {{
    let g = s.b.lock().unwrap();
    drop(g);
    let h = s.a.lock().unwrap();
}}
fn two(s: &S) {{
    let g = s.a.lock().unwrap();
    let h = s.b.lock().unwrap();
}}
"
        );
        let out = check(&[("crates/x/src/a.rs", &src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn statement_temporaries_release_at_semicolon() {
        let src = format!(
            "{TWO_LOCKS}\
fn one(s: &S) {{
    *s.b.lock().unwrap() = 3;
    let h = s.a.lock().unwrap();
}}
fn two(s: &S) {{
    let g = s.a.lock().unwrap();
    let h = s.b.lock().unwrap();
}}
"
        );
        let out = check(&[("crates/x/src/a.rs", &src)]);
        assert!(out.is_empty(), "temp b released before a: {out:?}");
    }

    #[test]
    fn block_scoped_guards_release_at_close_brace() {
        let src = format!(
            "{TWO_LOCKS}\
fn one(s: &S) {{
    {{
        let g = s.b.lock().unwrap();
    }}
    let h = s.a.lock().unwrap();
}}
fn two(s: &S) {{
    let g = s.a.lock().unwrap();
    let h = s.b.lock().unwrap();
}}
"
        );
        let out = check(&[("crates/x/src/a.rs", &src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn orphan_annotation_is_an_error() {
        let out = check(&[(
            "crates/x/src/a.rs",
            "// dlra-lock-order: lock.a\nstruct NotAField;\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("malformed"));
    }

    #[test]
    fn accessor_fn_statics_are_tracked() {
        let src = "\
static POOL: Mutex<Option<Pool>> = Mutex::new(None);
// dlra-lock-order: kernel.pool
fn pool() -> &'static Mutex<Option<Pool>> { &POOL }
struct W {
    // dlra-lock-order: kernel.inbox
    inbox: Mutex<u32>,
}
fn one(w: &W) {
    let g = pool().lock().unwrap();
    let h = w.inbox.lock().unwrap();
}
fn two(w: &W) {
    let g = w.inbox.lock().unwrap();
    let h = pool().lock().unwrap();
}
";
        let out = check(&[("crates/x/src/a.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("kernel.pool"));
    }

    #[test]
    fn same_field_name_in_two_files_stays_separate() {
        // Both files have a `state` field bound to different lock names;
        // orders are consistent within each file.
        let a = "\
struct P {
    // dlra-lock-order: plan.slot
    state: Mutex<u32>,
}
fn fa(p: &P) {
    let g = p.state.lock().unwrap();
}
";
        let b = "\
struct Q {
    // dlra-lock-order: server.state
    state: Mutex<u32>,
}
fn fb(q: &Q) {
    let g = q.state.lock().unwrap();
}
";
        let out = check(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        assert!(out.is_empty(), "{out:?}");
    }
}
