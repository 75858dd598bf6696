//! Certificate-battery audit: every public algorithm entry point is called
//! by the certificate battery, and every scheduling `Policy` is run there
//! through both certified `FiberScheduler` entry points.
//!
//! The battery (`crates/wdm-core/tests/proptests.rs`) checks the paper's
//! theorems on random instances. This pass reads it as a token stream, so
//! the bodies inside `proptest! { … }` invocations count, and flags:
//!
//! * a module-level `pub fn` of the algorithm sources that the battery never
//!   calls;
//! * a `Policy` variant, read from its `enum` declaration, that appears in no
//!   battery function calling both [`CERTIFIED_ENTRY_POINTS`].
//!
//! A new public algorithm or policy without a certified test therefore
//! fails `cargo xtask lint`. Entry points are real `ItemFn`s at module level
//! (associated functions inside `impl` blocks are constructors/accessors,
//! not algorithm entry points), so indented functions, odd formatting, and
//! `#[cfg(test)]` helpers are classified correctly.

use std::collections::BTreeSet;
use std::path::Path;

use syn::{Delimiter, Item, TokenStream, TokenTree, Visibility};

use super::{FnCtx, SourceFile, Violation};

/// The certified `FiberScheduler` entry points every policy must run
/// through in the battery.
pub const CERTIFIED_ENTRY_POINTS: [&str; 2] =
    ["schedule_with_mask_checked", "schedule_slot_checked"];

/// Collects module-level public non-test function names across the
/// algorithm sources.
pub fn entry_points<'a>(sources: &[&'a SourceFile]) -> Vec<(&'a SourceFile, FnCtx<'a>)> {
    let mut fns = Vec::new();
    for source in sources {
        let mut on_fn = |ctx: FnCtx<'a>| {
            if ctx.at_module_level && !ctx.in_test && ctx.fun.vis == Visibility::Public {
                fns.push((*source, ctx));
            }
        };
        super::walk_items(&source.file.items, false, true, &mut on_fn, &mut |_, _| {});
    }
    fns
}

/// Runs the audit over the tree: reads and lexes the root-relative
/// `battery`, finds the parsed `policy_source` among `sources`, and checks
/// both against the algorithm sources. An unreadable battery or a missing
/// `Policy` declaration is itself a violation.
pub fn check_tree(
    root: &Path,
    (battery, policy_source): (&str, &str),
    sources: &[SourceFile],
    algorithms: &[&SourceFile],
    out: &mut Vec<Violation>,
) {
    let battery_path = root.join(battery);
    let tokens = match std::fs::read_to_string(&battery_path) {
        Ok(text) => syn::lex_to_stream(&text).map_err(|e| (e.line, e.message)),
        Err(e) => Err((0, e.to_string())),
    };
    let tokens = match tokens {
        Ok(tokens) => tokens,
        Err((line, err)) => {
            let message = format!("cannot read the certificate battery: {err}");
            out.push(Violation::new("certified", battery_path, line, message));
            return;
        }
    };
    let policy_path = root.join(policy_source);
    let Some(policy) = sources.iter().find(|s| s.path == policy_path) else {
        let message = "cannot find the `Policy` declaration source".to_string();
        out.push(Violation::new("certified", policy_path, 0, message));
        return;
    };
    check(algorithms, policy, battery, &tokens, out);
}

/// The audit proper, over already-read inputs (`battery` names the battery
/// in messages).
pub fn check(
    algorithms: &[&SourceFile],
    policy: &SourceFile,
    battery: &str,
    tokens: &TokenStream,
    out: &mut Vec<Violation>,
) {
    let mut called = BTreeSet::new();
    called_names(tokens, &mut called);
    for (source, ctx) in entry_points(algorithms) {
        let name = ctx.fun.sig.ident.text.as_str();
        if !called.contains(name) {
            out.push(Violation::new(
                "certified",
                source.path.clone(),
                ctx.fun.span.line,
                format!(
                    "`pub fn {name}` is not called by the certificate battery `{battery}` — \
                     add a test there that certifies it"
                ),
            ));
        }
    }

    let Some(variants) = policy_variants(&policy.file.items) else {
        out.push(Violation::new(
            "certified",
            policy.path.clone(),
            0,
            "no `enum Policy` declaration found".to_string(),
        ));
        return;
    };
    let mut bodies = Vec::new();
    fn_bodies(tokens, &mut bodies);
    let mut certified = BTreeSet::new();
    for body in bodies {
        let mut calls = BTreeSet::new();
        called_names(body, &mut calls);
        if CERTIFIED_ENTRY_POINTS.iter().all(|entry| calls.contains(*entry)) {
            policy_paths(body, &mut certified);
        }
    }
    for (variant, line) in variants {
        if !certified.contains(&variant) {
            out.push(Violation::new(
                "certified",
                policy.path.clone(),
                line,
                format!(
                    "`Policy::{variant}` is not run through both `{}` and `{}` in the \
                     certificate battery `{battery}`",
                    CERTIFIED_ENTRY_POINTS[0], CERTIFIED_ENTRY_POINTS[1]
                ),
            ));
        }
    }
}

/// Names called anywhere in `stream`: identifiers directly followed by a
/// parenthesized argument list (free and method calls), except the name of
/// a `fn` being defined.
fn called_names(stream: &TokenStream, out: &mut BTreeSet<String>) {
    let trees = &stream.trees;
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            TokenTree::Ident(ident) => {
                let args = matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                );
                let defined = i > 0 && trees[i - 1].as_ident() == Some("fn");
                if args && !defined {
                    out.insert(ident.text.clone());
                }
            }
            TokenTree::Group(g) => called_names(&g.stream, out),
            _ => {}
        }
    }
}

/// Every function body in `stream` — the brace group after `fn name(..)` —
/// at any depth, macro invocations included.
fn fn_bodies<'a>(stream: &'a TokenStream, out: &mut Vec<&'a TokenStream>) {
    let trees = &stream.trees;
    for (i, tree) in trees.iter().enumerate() {
        if tree.as_ident() == Some("fn") {
            let body = trees[i + 1..].iter().find_map(|t| match t {
                TokenTree::Group(g) if g.delimiter == Delimiter::Brace => Some(&g.stream),
                _ => None,
            });
            out.extend(body);
        }
        if let TokenTree::Group(g) = tree {
            fn_bodies(&g.stream, out);
        }
    }
}

/// The `X` of every `Policy::X` path in `stream`.
fn policy_paths(stream: &TokenStream, out: &mut BTreeSet<String>) {
    let trees = &stream.trees;
    for (i, tree) in trees.iter().enumerate() {
        if tree.as_ident() == Some("Policy")
            && trees.get(i + 1).and_then(TokenTree::as_punct) == Some(':')
            && trees.get(i + 2).and_then(TokenTree::as_punct) == Some(':')
        {
            if let Some(variant) = trees.get(i + 3).and_then(TokenTree::as_ident) {
                out.insert(variant.to_string());
            }
        }
        if let TokenTree::Group(g) = tree {
            policy_paths(&g.stream, out);
        }
    }
}

/// The variants of `enum Policy` with their lines, or `None` when `items`
/// declare no such enum.
fn policy_variants(items: &[Item]) -> Option<Vec<(String, usize)>> {
    let decl = items.iter().find_map(|item| match item {
        Item::Struct(s) if s.keyword == "enum" && s.ident.text == "Policy" => Some(s),
        _ => None,
    })?;
    let body = decl.body.trees.iter().find_map(|t| match t {
        TokenTree::Group(g) if g.delimiter == Delimiter::Brace => Some(&g.stream),
        _ => None,
    })?;
    let mut variants = Vec::new();
    let mut expect_name = true;
    let mut trees = body.trees.iter();
    while let Some(tree) = trees.next() {
        match tree {
            // An attribute (doc comments included): skip its `[…]` group.
            TokenTree::Punct(p) if p.ch == '#' => {
                trees.next();
            }
            TokenTree::Punct(p) if p.ch == ',' => expect_name = true,
            TokenTree::Ident(ident) if expect_name => {
                variants.push((ident.text.clone(), ident.span.line));
                expect_name = false;
            }
            _ => {}
        }
    }
    Some(variants)
}

#[cfg(test)]
mod tests {
    use super::super::SourceFile;
    use std::path::PathBuf;

    const POLICY: &str = "/// Doc.\n#[derive(Default)]\npub enum Policy {\n    \
                          /// First.\n    #[default]\n    Auto,\n    Exact,\n}";

    fn audit(algorithms: &str, battery: &str) -> Vec<String> {
        let source = |path: &str, src: &str| SourceFile {
            path: PathBuf::from(path),
            file: syn::parse_file(src).unwrap(),
        };
        let algorithms = source("algorithms.rs", algorithms);
        let policy = source("scheduler.rs", POLICY);
        let tokens = syn::lex_to_stream(battery).unwrap();
        let mut out = Vec::new();
        super::check(&[&algorithms], &policy, "battery.rs", &tokens, &mut out);
        out.iter().map(|v| v.message.clone()).collect()
    }

    /// A battery certifying both policies and calling `solve`.
    const BATTERY: &str = "proptest! {\n    #[test]\n    fn certified(x in any()) {\n        \
                           for p in [Policy::Auto, Policy::Exact] {\n            \
                           s.schedule_with_mask_checked(&rv, &m).unwrap();\n            \
                           s.schedule_slot_checked(&rv, &m, &mut a).unwrap();\n        }\n        \
                           solve(x);\n    }\n}";

    #[test]
    fn complete_battery_is_clean() {
        assert_eq!(audit("pub fn solve() {}", BATTERY), Vec::<String>::new());
    }

    #[test]
    fn uncalled_pub_fn_is_flagged() {
        let msgs = audit("pub fn solve() {}\npub fn uncertified() {}", BATTERY);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`pub fn uncertified` is not called"), "{}", msgs[0]);
    }

    #[test]
    fn mentions_outside_calls_do_not_count() {
        // Imported, defined, or merely named: none of these is a call.
        let battery = format!(
            "use crate::{{solve, extra}};\nfn extra(x: usize) {{ let f = extra; }}\n{BATTERY}"
        );
        let msgs = audit("pub fn solve() {}\npub fn extra() {}", &battery);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`pub fn extra`"), "{}", msgs[0]);
    }

    #[test]
    fn impl_private_and_test_fns_are_not_entry_points() {
        let src = "impl Foo {\n    pub fn helper(&self) {}\n}\nfn private() {}\n\
                   #[cfg(test)]\npub fn fixture() {}\npub fn solve() {}";
        assert!(audit(src, BATTERY).is_empty());
    }

    #[test]
    fn missing_policy_variant_is_flagged() {
        let battery = BATTERY.replace(", Policy::Exact", "");
        let msgs = audit("pub fn solve() {}", &battery);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`Policy::Exact` is not run through both"), "{}", msgs[0]);
    }

    #[test]
    fn policy_outside_a_doubly_certified_fn_is_flagged() {
        // The slot entry point is gone, so the function certifies only one
        // path and its policies do not count.
        let battery = BATTERY.replace("s.schedule_slot_checked(&rv, &m, &mut a).unwrap();", "");
        let msgs = audit("pub fn solve() {}", &battery);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("is not run through both")), "{msgs:?}");
    }
}
