//! Per-rule fixture tests: each rule must fire on its violating fixture
//! and stay silent on the clean one, with the fixture linted under a
//! path that puts it in the rule's scope.

use navicim_lint::{lint_source, lint_sources};

fn rules_at(path: &str, source: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(path, source)
        .into_iter()
        .map(|f| f.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn wall_clock_fixture_pair() {
    let bad = include_str!("fixtures/wall_clock_bad.rs");
    let clean = include_str!("fixtures/wall_clock_clean.rs");
    assert!(rules_at("crates/core/src/pipeline.rs", bad).contains(&"wall-clock"));
    assert!(rules_at("crates/core/src/pipeline.rs", clean).is_empty());
    // The same source is fine in measurement code.
    assert!(rules_at("crates/bench/src/bin/bench_kernels.rs", bad).is_empty());
}

#[test]
fn ambient_rng_fixture_pair() {
    let bad = include_str!("fixtures/ambient_rng_bad.rs");
    let clean = include_str!("fixtures/ambient_rng_clean.rs");
    assert!(rules_at("crates/math/src/rng.rs", bad).contains(&"ambient-rng"));
    assert!(rules_at("crates/math/src/rng.rs", clean).is_empty());
}

#[test]
fn hash_iteration_fixture_pair() {
    let bad = include_str!("fixtures/hash_iteration_bad.rs");
    let clean = include_str!("fixtures/hash_iteration_clean.rs");
    assert!(rules_at("crates/gmm/src/fit.rs", bad).contains(&"hash-iteration"));
    assert!(rules_at("crates/gmm/src/fit.rs", clean).is_empty());
    // Bench only reports timings: exempt.
    assert!(rules_at("crates/bench/src/bin/bench_serve.rs", bad).is_empty());
}

#[test]
fn unsafe_safety_fixture_pair() {
    let bad = include_str!("fixtures/unsafe_safety_bad.rs");
    let clean = include_str!("fixtures/unsafe_safety_clean.rs");
    assert!(rules_at("crates/math/src/simd.rs", bad).contains(&"unsafe-safety"));
    assert!(rules_at("crates/math/src/simd.rs", clean).is_empty());
}

#[test]
fn hot_path_panic_fixture_pair() {
    let bad = include_str!("fixtures/hot_path_panic_bad.rs");
    let clean = include_str!("fixtures/hot_path_panic_clean.rs");
    assert!(rules_at("crates/core/src/pipeline.rs", bad).contains(&"hot-path-panic"));
    assert!(rules_at("crates/core/src/pipeline.rs", clean).is_empty());
    // Outside the hot-path module list the rule does not apply.
    assert!(rules_at("crates/scene/src/camera.rs", bad).is_empty());
}

#[test]
fn hot_path_expect_allowlist_is_per_file() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"invariant\") }\n";
    // particle.rs carries a written reason for documented expects…
    assert!(rules_at("crates/filter/src/particle.rs", src).is_empty());
    // …pipeline.rs does not, so the same code is a finding there…
    assert!(rules_at("crates/core/src/pipeline.rs", src).contains(&"hot-path-panic"));
    // …and neither does the diagonal-only GMM kernel.
    assert!(rules_at("crates/gmm/src/gaussian.rs", src).contains(&"hot-path-panic"));
}

#[test]
fn reduction_order_fixture_pair() {
    let bad = include_str!("fixtures/reduction_order_bad.rs");
    let clean = include_str!("fixtures/reduction_order_clean.rs");
    assert!(rules_at("crates/math/src/simd.rs", bad).contains(&"reduction-order"));
    assert!(rules_at("crates/math/src/simd.rs", clean).is_empty());
    // Non-kernel files are out of scope.
    assert!(rules_at("crates/scene/src/camera.rs", bad).is_empty());
}

#[test]
fn hot_path_alloc_fixture_pair() {
    let bad = include_str!("fixtures/hot_path_alloc_bad.rs");
    let clean = include_str!("fixtures/hot_path_alloc_clean.rs");
    assert!(rules_at("crates/analog/src/engine.rs", bad).contains(&"hot-path-alloc"));
    assert!(rules_at("crates/analog/src/engine.rs", clean).is_empty());
}

#[test]
fn stale_hot_path_entry_is_reported() {
    // gaussian.rs registers `log_likelihood_into_policy`, `eval_range`,
    // `eval_range_pruned` and `eval_tiles`; this version defines the first
    // and the last, `eval_range` only under `cfg(test)` (which does not
    // count) and `eval_range_pruned` not at all.
    let gaussian = "pub fn log_likelihood_into_policy() {}\n\
                    fn eval_tiles() {}\n\
                    #[cfg(test)]\n\
                    mod tests { fn eval_range() {} }\n";
    let findings = lint_sources([("crates/gmm/src/gaussian.rs", gaussian)]);
    let stale: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == "hot-path-alloc" && f.file == "crates/gmm/src/gaussian.rs")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(stale.len(), 2, "{stale:?}");
    assert!(
        stale.iter().any(|m| m.contains("fn eval_range`")),
        "{stale:?}"
    );
    assert!(
        stale.iter().any(|m| m.contains("fn eval_range_pruned`")),
        "{stale:?}"
    );
    // A registered file absent from the tree reports each of its entries
    // (`log_likelihood_into_chunked`, `eval_stream`, `eval_lut`,
    // `finish_tile`).
    let engine = findings
        .iter()
        .filter(|f| f.file == "crates/analog/src/engine.rs")
        .count();
    assert_eq!(engine, 4);
}

#[test]
fn noise_stream_seq_fixture_pair() {
    let bad = include_str!("fixtures/noise_stream_seq_bad.rs");
    let clean = include_str!("fixtures/noise_stream_seq_clean.rs");
    assert!(rules_at("crates/serve/src/coalesce.rs", bad).contains(&"noise-stream-seq"));
    assert!(rules_at("crates/serve/src/coalesce.rs", clean).is_empty());
}

#[test]
fn suppression_requires_reason() {
    let with_reason =
        "// lint: allow(hash-iteration) order never observed: keys drained through sort below\n\
                       use std::collections::HashMap;\n";
    assert!(rules_at("crates/gmm/src/fit.rs", with_reason).is_empty());

    let without_reason = "// lint: allow(hash-iteration)\n\
                          use std::collections::HashMap;\n";
    let rules = rules_at("crates/gmm/src/fit.rs", without_reason);
    assert!(
        rules.contains(&"lint-directive"),
        "reasonless allow must itself be a finding: {rules:?}"
    );
}

#[test]
fn suppression_only_covers_adjacent_line() {
    let far = "// lint: allow(hash-iteration) some reason\n\nlet x = 1;\n\
               use std::collections::HashMap;\n";
    assert!(rules_at("crates/gmm/src/fit.rs", far).contains(&"hash-iteration"));
}

#[test]
fn cfg_test_code_is_exempt() {
    let src = "pub fn prod() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   use std::collections::HashMap;\n\
                   fn t() { let _ = std::time::Instant::now(); }\n\
               }\n";
    assert!(rules_at("crates/gmm/src/fit.rs", src).is_empty());
}

#[test]
fn tokens_in_strings_and_comments_do_not_fire() {
    let src = "pub fn doc() -> &'static str {\n\
               // HashMap and Instant::now discussed here only.\n\
               \"HashMap thread_rng Instant::now unsafe\"\n\
               }\n";
    assert!(rules_at("crates/gmm/src/fit.rs", src).is_empty());
}

/// `(file, line)` of every `unused-pub` finding naming `item`.
fn unused_pub(files: &[(&str, &str)], item: &str) -> Vec<(String, usize)> {
    let needle = format!("item `{item}`");
    lint_sources(files.iter().copied())
        .into_iter()
        .filter(|f| f.rule == "unused-pub" && f.message.contains(&needle))
        .map(|f| (f.file, f.line))
        .collect()
}

const LIB: &str = "crates/demo/src/lib.rs";

#[test]
fn unused_pub_reports_an_item_no_other_file_names() {
    let lib = "pub fn lonely() {}\npub fn used() {}\n";
    let caller = "fn main() { demo::used(); }\n";
    let files = [(LIB, lib), ("examples/run.rs", caller)];
    assert_eq!(unused_pub(&files, "lonely"), [(LIB.to_string(), 1)]);
    assert!(unused_pub(&files, "used").is_empty());
    // The per-file entry point never runs the cross-file rule.
    assert!(rules_at(LIB, lib).is_empty());
}

#[test]
fn unused_pub_counts_a_use_in_a_tests_file() {
    let lib = "pub struct Probe;\n";
    let test = "#[test]\nfn t() { let _ = demo::Probe; }\n";
    assert!(unused_pub(&[(LIB, lib), ("tests/probe.rs", test)], "Probe").is_empty());
}

#[test]
fn unused_pub_ignores_mentions_in_comments_and_strings() {
    let lib = "pub const LIMIT: u32 = 3;\n";
    let other = "// LIMIT is documented here\nfn f() -> &'static str { \"LIMIT\" }\n";
    let files = [(LIB, lib), ("crates/demo/src/other.rs", other)];
    assert_eq!(unused_pub(&files, "LIMIT").len(), 1);
}

#[test]
fn unused_pub_does_not_count_a_same_named_definition_as_a_use() {
    // Two types define `reset` and nothing calls either: neither file's
    // `fn reset` is a use of the other's.
    const B: &str = "crates/demo/src/b.rs";
    let a = "pub struct A;\nimpl A {\n    pub fn reset(&mut self) {}\n}\n";
    let b = "pub struct B;\nimpl B {\n    pub fn reset(&mut self) {}\n}\n";
    let caller = "fn main() { let _ = (demo::A, demo::b::B); }\n";
    let files = [(LIB, a), (B, b), ("src/main.rs", caller)];
    assert_eq!(
        unused_pub(&files, "reset"),
        [(LIB.to_string(), 3), (B.to_string(), 3)]
    );
    // One call anywhere keeps both: names are not resolved to types.
    let called = "fn main() { demo::A.reset(); let _ = demo::b::B; }\n";
    let files = [(LIB, a), (B, b), ("src/main.rs", called)];
    assert!(unused_pub(&files, "reset").is_empty());
}

#[test]
fn unused_pub_ignores_uses_in_its_own_cfg_test() {
    let lib = "pub fn helper() -> u32 { 1 }\n\
               #[cfg(test)]\n\
               mod tests { #[test] fn t() { assert_eq!(super::helper(), 1); } }\n";
    assert_eq!(unused_pub(&[(LIB, lib)], "helper").len(), 1);
}

#[test]
fn unused_pub_keeps_types_exposed_by_surviving_items() {
    // `Report` is named only by the signature of `run`, which another
    // file calls; `Stats` only by a `pub` field of `Report`; `Hidden`
    // only by a private field, so nothing reaches it.
    let lib = "pub struct Report { pub stats: Stats, hidden: Hidden }\n\
               pub struct Stats;\n\
               pub struct Hidden;\n\
               pub fn run() -> Report { todo() }\n";
    let files = [(LIB, lib), ("src/main.rs", "fn main() { demo::run(); }\n")];
    assert!(unused_pub(&files, "Report").is_empty());
    assert!(unused_pub(&files, "Stats").is_empty());
    assert_eq!(unused_pub(&files, "Hidden").len(), 1);
}

#[test]
fn unused_pub_suppression_requires_a_reason() {
    // Rules of the findings in the demo file (the stale hot-path
    // entries of the absent registered files are reported elsewhere).
    let rules = |src| -> Vec<&str> {
        lint_sources([(LIB, src)])
            .into_iter()
            .filter(|f| f.file == LIB)
            .map(|f| f.rule)
            .collect()
    };
    let reasoned =
        "// lint: allow(unused-pub) paper-figure API kept for one bin\npub fn figure() {}\n";
    assert!(rules(reasoned).is_empty(), "{:?}", rules(reasoned));
    let bare = "// lint: allow(unused-pub)\npub fn figure() {}\n";
    assert_eq!(rules(bare), ["lint-directive"]);
}
