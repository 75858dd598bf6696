//! Hot-path reachability lint (v2, interprocedural): functions marked
//! `#[hot_path]` must not allocate, acquire a Mutex/Condvar, or make a
//! blocking call — and neither may anything they reach, through any chain
//! of calls, across every workspace crate.
//!
//! The v1 pass resolved one level of *same-file* callees, so an allocation
//! two calls deep — or one module away — was invisible (the unit tests
//! below and the `tests/fixtures/hot_path` snapshot pin both cases). v2 is
//! a thin query over the whole-workspace call graph ([`crate::callgraph`]): from
//! every root, every reachable [`Property::Alloc`], [`Property::Lock`], and
//! [`Property::Block`] offense is reported with the witnessing call chain.
//!
//! The runtime complement is the `wdm-alloc-count` zero-alloc pins; this
//! lint catches the regression at review time instead of bench time.
//! `debug_assert!` argument lists are exempt: they vanish in release
//! builds, which is where the hot path runs. Findings the graph cannot see
//! around are suppressed per function with
//! `#[allow_reach(hot_path, reason = "…")]` — audited, see
//! `audit_suppressions` in `lints/mod.rs`.

use std::collections::HashSet;

use crate::callgraph::{CallGraph, Property};

use super::{reach_check, Violation};

/// Runs the hot-path reachability lint over the call graph. `used` records
/// which suppressions fired, for the audit pass.
pub fn check(graph: &CallGraph, used: &mut HashSet<(usize, usize)>, out: &mut Vec<Violation>) {
    reach_check(
        graph,
        "hot_path",
        &[Property::Alloc, Property::Lock, Property::Block],
        &|n| n.hot_path_root,
        used,
        &|root, offender, offense| {
            let hint = match offense.prop {
                Property::Alloc => {
                    "hoist the buffer to a reused field or restructure the call out of \
                     the per-slot path"
                }
                Property::Lock => {
                    "hot-path code must stay lock-free; move the acquisition outside \
                     the per-slot loop"
                }
                Property::Block => {
                    "hot-path code must not block; restructure the wait out of the \
                     per-slot loop"
                }
                // The pass only queries Alloc/Lock/Block.
                Property::Panic => "panic sources are the panic_free lint's domain",
            };
            let reach = if root.path() == offender.path() {
                format!("in `#[hot_path] fn {}`", root.path())
            } else {
                format!("reachable from `#[hot_path] fn {}`", root.path())
            };
            format!("{} {} {reach} — {hint}", offense.prop.name(), offense.what)
        },
        out,
    );
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use crate::callgraph::CallGraph;
    use crate::lints::{SourceFile, Violation};

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile {
                path: PathBuf::from(path),
                file: syn::parse_file(src).unwrap(),
            })
            .collect();
        let refs: Vec<&SourceFile> = sources.iter().collect();
        CallGraph::build(&refs, Path::new(""))
    }

    fn lint(files: &[(&str, &str)]) -> Vec<Violation> {
        let graph = graph_of(files);
        let mut used = std::collections::HashSet::new();
        let mut out = Vec::new();
        super::check(&graph, &mut used, &mut out);
        out
    }

    #[test]
    fn unmarked_fns_may_allocate() {
        let files =
            [("crates/wdm-core/src/lib.rs", "fn cold() { let v = Vec::new(); format!(\"x\"); }")];
        assert!(lint(&files).is_empty());
    }

    #[test]
    fn direct_allocations_flagged() {
        let src = "#[hot_path]\n\
                   fn hot() {\n\
                       let v: Vec<u8> = Vec::new();\n\
                       let s = format!(\"{}\", 1);\n\
                       let b = Box::new(3);\n\
                       let c: Vec<_> = it.collect();\n\
                   }";
        let out = lint(&[("crates/wdm-core/src/lib.rs", src)]);
        assert_eq!(out.len(), 4, "{out:?}");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("in `#[hot_path] fn wdm_core::hot`"), "{}", out[0].message);
    }

    #[test]
    fn allocation_two_calls_deep_is_caught() {
        // hot -> near -> far: the v1 one-level scanner missed this.
        let src = "#[hot_path]\n\
                   fn hot() { near(); }\n\
                   fn near() { far(); }\n\
                   fn far() { let v = vec![1, 2]; }";
        let out = lint(&[("crates/wdm-core/src/lib.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert_eq!(
            out[0].chain,
            vec!["wdm_core::hot", "wdm_core::near", "wdm_core::far"],
            "{out:?}"
        );
    }

    #[test]
    fn cross_crate_allocation_is_caught() {
        // The root lives in wdm-serve, the allocation in wdm-core, linked
        // by a module-qualified cross-crate call.
        let files = [
            ("crates/wdm-serve/src/engine.rs", "#[hot_path]\nfn run() { wdm_core::mask::grow(); }"),
            ("crates/wdm-core/src/mask.rs", "pub fn grow() { let v = Vec::with_capacity(8); }"),
        ];
        let out = lint(&files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].file.ends_with("crates/wdm-core/src/mask.rs"));
        assert_eq!(out[0].root_fn.as_deref(), Some("wdm_serve::engine::run"));
    }

    #[test]
    fn lock_and_block_are_flagged() {
        let src = "#[hot_path]\n\
                   fn hot(&self) {\n\
                       let g = self.state.lock();\n\
                       std::thread::sleep(d);\n\
                   }";
        let out = lint(&[("crates/wdm-serve/src/lib.rs", src)]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("lock acquisition"), "{}", out[0].message);
        assert!(out[1].message.contains("blocking call"), "{}", out[1].message);
    }

    #[test]
    fn debug_assert_args_are_exempt() {
        let src = "#[hot_path]\n\
                   fn hot() { debug_assert_eq!(xs.iter().collect::<Vec<_>>(), ys); }";
        assert!(lint(&[("crates/wdm-core/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn suppression_on_chain_suppresses_and_is_marked_used() {
        let src = "#[hot_path]\n\
                   fn hot() { helper(); }\n\
                   #[allow_reach(hot_path, reason = \"startup-only branch\")]\n\
                   fn helper() { let v = Vec::new(); }";
        let sources = [("crates/wdm-core/src/lib.rs", src)];
        let graph = graph_of(&sources);
        let mut used = std::collections::HashSet::new();
        let mut out = Vec::new();
        super::check(&graph, &mut used, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(used.len(), 1);
    }

    #[test]
    fn finding_shared_by_two_roots_reported_once() {
        let src = "#[hot_path]\n\
                   fn hot_a() { helper(); }\n\
                   #[hot_path]\n\
                   fn hot_b() { helper(); }\n\
                   fn helper() { let v = Vec::new(); }";
        let out = lint(&[("crates/wdm-core/src/lib.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].root_fn.as_deref(), Some("wdm_core::hot_a"));
    }

    #[test]
    fn test_gated_roots_and_callees_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   #[hot_path]\nfn hot() { let v = Vec::new(); }\n\
                   }";
        assert!(lint(&[("crates/wdm-core/src/lib.rs", src)]).is_empty());
    }
}
