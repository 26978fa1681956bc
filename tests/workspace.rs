//! Manifest and source hygiene for the whole workspace:
//!
//! * shared external dependencies come from `[workspace.dependencies]`,
//!   and every member (the `vendor/` stand-ins too) forbids unsafe code;
//! * `BANS` lists the text a superseded design may not bring back, and a
//!   few tests pin one file's shape;
//! * every public item of `crates/*/src` has a caller in product code
//!   (`crates/*/src` outside its tests, `src/`, `examples/`, `perf/src`)
//!   or a test listed beside it. A caller is the item's, not a namesake's:
//!   its line lies in a crate that can see the item's crate, and a method
//!   call `.name(…)` that closes on the line passes as many arguments as
//!   the method takes;
//! * every EXPERIMENTS.md section a source file or the README quotes
//!   exists.
//!
//! The checks parse the manifests line-by-line on purpose: the offline
//! environment has no `toml` crate, and the subset of TOML that Cargo
//! manifests use is regular enough for this.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// External dependencies that must be version-unified through the
/// workspace table.
const SHARED_DEPS: &[&str] = &["rand", "rand_distr", "serde", "serde_json", "proptest"];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// All member manifest paths: the root package plus `crates/*` and
/// `vendor/*`.
fn member_manifests() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        let entries = fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("workspace directory {dir}/ must exist: {e}"));
        for entry in entries {
            let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
            assert!(
                manifest.is_file(),
                "every {dir}/ subdirectory must be a crate, missing {}",
                manifest.display()
            );
            manifests.push(manifest);
        }
    }
    manifests
}

/// Returns the lines of a named TOML section (e.g. `dependencies`),
/// stopping at the next `[section]` header.
fn section_lines(manifest: &str, section: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut in_section = false;
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_section = trimmed == format!("[{section}]");
            continue;
        }
        if in_section && !trimmed.is_empty() && !trimmed.starts_with('#') {
            lines.push(trimmed.to_string());
        }
    }
    lines
}

/// The dependency name of a manifest dependency line (`foo = ...` or
/// `foo.workspace = true`).
fn dep_name(line: &str) -> Option<&str> {
    let key = line.split('=').next()?.trim();
    let name = key.split('.').next()?.trim();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

#[test]
fn workspace_table_declares_all_shared_dependencies() {
    let root_manifest = fs::read_to_string(workspace_root().join("Cargo.toml"))
        .expect("root Cargo.toml is readable");
    let table = section_lines(&root_manifest, "workspace.dependencies");
    for dep in SHARED_DEPS {
        assert!(
            table.iter().any(|l| dep_name(l) == Some(dep)),
            "[workspace.dependencies] must declare {dep}"
        );
    }
}

/// Every member's dependency line on a shared dependency, with its
/// manifest and the dependency's name.
fn shared_dependency_lines() -> Vec<(PathBuf, String, String)> {
    let mut out = Vec::new();
    for manifest in member_manifests() {
        let text = fs::read_to_string(&manifest).expect("manifest readable");
        for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
            for line in section_lines(&text, section) {
                if let Some(name) = dep_name(&line).filter(|n| SHARED_DEPS.contains(n)) {
                    out.push((manifest.clone(), name.to_string(), line.clone()));
                }
            }
        }
    }
    out
}

#[test]
fn members_use_workspace_versions_of_shared_dependencies() {
    let vendor = workspace_root().join("vendor");
    for (manifest, name, line) in shared_dependency_lines() {
        // Stand-ins may depend on their siblings by relative path; that
        // still resolves to the single vendored version of the dependency.
        let sibling = manifest.starts_with(&vendor) && line.contains("path =");
        assert!(
            line.contains("workspace = true") || sibling,
            "{}: dependency `{name}` must use `workspace = true` (or, in a stand-in, a \
             sibling's path) so all members share one version, got `{line}`",
            manifest.display()
        );
    }
}

#[test]
fn every_member_forbids_unsafe_code() {
    for manifest_path in member_manifests() {
        let crate_dir: &Path = manifest_path.parent().expect("manifest has a parent");
        let lib = crate_dir.join("src").join("lib.rs");
        let source = fs::read_to_string(&lib)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", lib.display()));
        assert!(
            source.contains("#![forbid(unsafe_code)]"),
            "{} must carry #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}

#[test]
fn no_member_pins_its_own_external_registry_version() {
    // With no registry access, any `foo = "x.y"` version requirement on a
    // shared dependency would break the build; everything must be a path
    // or workspace reference.
    for (manifest, name, line) in shared_dependency_lines() {
        let after_eq = line.split_once('=').map(|(_, v)| v.trim()).unwrap_or("");
        assert!(
            !after_eq.starts_with('"'),
            "{}: `{line}` pins a registry version of {name}; use `workspace = true` instead",
            manifest.display()
        );
    }
}

/// All `.rs` files under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
    {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn product_crates_keep_no_deprecated_items_and_no_cargo_features() {
    // A replaced entry point is removed in the PR that replaces it. Kept
    // "for the transition" it needs an attribute here, an `allow` at every
    // internal caller, a feature to switch it off and a CI leg for the
    // feature (`BANS` keeps `#[deprecated` and `cfg(feature` out).
    let root = workspace_root();
    let mut volume_tolerances = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        let crate_dir = entry.expect("readable dir entry").path();
        let manifest = fs::read_to_string(crate_dir.join("Cargo.toml")).expect("manifest readable");
        assert!(
            !manifest.lines().any(|l| l.trim() == "[features]"),
            "{}: no cargo features in product crates",
            crate_dir.display()
        );
        rust_sources(&crate_dir.join("src"), &mut volume_tolerances);
    }
    volume_tolerances.retain(|p| {
        let source = fs::read_to_string(p).expect("source readable");
        source.contains("const VOLUME_TOL")
    });
    assert_eq!(
        volume_tolerances,
        [root.join("crates/core/src/online/ledger.rs")],
        "the retire rule and its `VOLUME_TOL` are defined once, in the ledger"
    );
}

#[test]
fn solves_are_sequential_and_the_harness_owns_the_only_pool() {
    // Interval-parallel solving had no caller that won by it: a solve runs
    // on its caller's thread, the bench runner's `run_indexed` is the one
    // worker pool (`BANS` keeps the parallel knobs out), and `perf/` is the
    // one benchmark harness.
    let root = workspace_root();
    for gone in ["vendor/criterion", "crates/bench/benches"] {
        assert!(
            !root.join(gone).exists(),
            "{gone}/ is gone — benchmarks live in perf/"
        );
    }
}

#[test]
fn the_replay_reads_each_profile_by_its_segments() {
    // Between a profile's own breakpoints nothing of it changes: the
    // audit walks `segments()` once per flow, and asks no profile for
    // its rate window by window. Its link half reads the loads
    // `Schedule::link_loads` summed, so it integrates no power of its own.
    // The global sweep it replaced lives on below `#[cfg(test)]`, as the
    // reference. (The rest of `schedule.rs` may: `link_loads` integrates
    // the power.) `Schedule::audit` hands its loads to the one body,
    // `audit_with_loads`, which `dcfsr` calls with its draw's loads.
    let schedule = fs::read_to_string(workspace_root().join("crates/core/src/schedule.rs"))
        .expect("schedule.rs readable");
    let (product, tests) = schedule
        .split_once("#[cfg(test)]")
        .expect("schedule.rs keeps its unit tests");
    let lines: Vec<&str> = product.lines().collect();
    let body = |signature: &str| {
        let start = lines
            .iter()
            .position(|l| l.starts_with(signature))
            .unwrap_or_else(|| panic!("`{signature}` is defined in schedule.rs"));
        let end = (start..lines.len())
            .find(|&j| lines[j] == "    }")
            .unwrap_or_else(|| panic!("`{signature}` has a body"));
        lines[start..=end].join("\n")
    };
    assert!(body("    pub fn audit(")
        .contains("self.audit_with_loads(graph, flows, power, self.link_loads(power))"));
    let audit = body("    pub(crate) fn audit_with_loads(");
    assert!(
        !audit.contains("rate_at("),
        "Schedule::audit: `rate_at(` — walk `segments()` instead"
    );
    assert!(
        !audit.contains("dynamic_power("),
        "Schedule::audit: `dynamic_power(` — read `Schedule::link_loads`"
    );
    assert!(audit.contains(".segments()"));
    assert!(tests.contains("fn audit_reference("));
}

#[test]
fn dcn_sim_is_left_for_the_benchmark_alone() {
    // One verdict on a schedule: `Schedule::audit` in `dcn-core`. The
    // `dcn-sim` crate stays only as the wrapper the benchmark under
    // `perf/` calls, so no workspace member depends on it (nor names it:
    // see `BANS`).
    let root = workspace_root();
    let sim_manifest = root.join("crates/sim/Cargo.toml");
    for manifest in member_manifests() {
        if manifest == sim_manifest {
            continue;
        }
        let text = fs::read_to_string(&manifest).expect("manifest readable");
        assert!(
            !text.contains("dcn-sim"),
            "{}: names `dcn-sim` — call `Schedule::audit` instead",
            manifest.display()
        );
    }
}

#[test]
fn a_solution_is_audited_once() {
    // An algorithm audits the schedule it makes, and its `Solution`
    // carries that audit: the harness and the examples read it instead of
    // judging the schedule again. What they still audit is what no
    // `Solution` carries — an online engine's committed schedule and a raw
    // Random-Schedule draw — at these sites only.
    let root = workspace_root();
    let mut paths = Vec::new();
    for dir in ["crates/bench/src", "examples"] {
        rust_sources(&root.join(dir), &mut paths);
    }
    let mut sites: Vec<(String, usize)> = paths
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("in the workspace");
            let source = fs::read_to_string(path).expect("source readable");
            (
                rel.to_string_lossy().into_owned(),
                source.matches(".audit(").count(),
            )
        })
        .filter(|&(_, calls)| calls > 0)
        .collect();
    sites.sort();
    let expected = [
        ("crates/bench/src/bin/ablation_rounding.rs", 1),
        ("crates/bench/src/bin/online.rs", 1),
        ("crates/bench/src/lib.rs", 1),
        ("examples/online_arrivals.rs", 1),
    ];
    assert_eq!(
        sites,
        expected.map(|(file, calls)| (file.to_string(), calls)),
        "read `Solution::audit` instead of auditing a solution's schedule"
    );
}

/// The product half of a source file: everything before its first
/// `#[cfg(test)]`.
fn product_part(file: &str) -> String {
    let source = fs::read_to_string(workspace_root().join(file))
        .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    match source.split_once("#[cfg(test)]") {
        Some((product, _)) => product.to_string(),
        None => source,
    }
}

#[test]
fn edf_walks_the_ledgers_deadline_order_and_sorts_nothing() {
    // The in-flight ledger keeps the live set in deadline order, so
    // `edf` sorts nothing per event; the sorting planner it replaced lives
    // on below `#[cfg(test)]`, as the differential reference.
    assert!(
        !product_part("crates/core/src/online/policies/edf.rs").contains(".sort"),
        "edf.rs: no `.sort` outside the tests — walk `WorldView::in_flight_by_deadline`"
    );
}

#[test]
fn most_critical_first_keeps_no_endpoint_table_and_repairs_in_one_sweep() {
    // `IntervalScan` keeps one start and one end boundary per span, found
    // by binary search, not a row per (span, endpoint); the exhaustive table
    // lives on below `#[cfg(test)]`, as the reference of its property test.
    // One (P1) repair sweep is exact (`dcfs.rs`, **One repair sweep is
    // enough**), so the product has no pass loop; the pairwise reference in
    // tests/critical_interval.rs keeps one and asserts its second pass
    // raises nothing.
    for (file, banned) in [
        ("crates/solver/src/availability.rs", "ends: Vec<bool>"),
        ("crates/core/src/dcfs.rs", "for _pass in"),
    ] {
        assert!(
            !product_part(file).contains(banned),
            "{file}: `{banned}` is banned — see the comment above"
        );
    }
}

#[test]
fn the_route_memo_hashes_node_ids_without_siphash() {
    // `PathCache` is probed once per in-flight flow per event: its
    // maps hash node ids with the multiply–xor `NodeHash`, never with the
    // default SipHash of `HashMap<K, V>`.
    let policy = product_part("crates/core/src/online/policy.rs");
    let (_, cache) = policy
        .split_once("pub struct PathCache {")
        .expect("policy.rs declares PathCache");
    let fields = &cache[..cache.find('}').expect("PathCache has a closing brace")];
    assert_maps_hash_with_node_hash("policy.rs", fields, "HashMap<");
}

/// Every `HashMap<` line of `text` names `NodeHash`, and one holds `pair`.
fn assert_maps_hash_with_node_hash(file: &str, text: &str, pair: &str) {
    let maps: Vec<&str> = text.lines().filter(|l| l.contains("HashMap<")).collect();
    assert!(
        maps.iter().any(|map| map.contains(pair)),
        "{file} keeps its pair map"
    );
    for map in maps {
        assert!(
            map.contains(", NodeHash>"),
            "{file}: `{}` uses the default hasher — name `NodeHash`",
            map.trim()
        );
    }
}

#[test]
fn frank_wolfe_sorts_no_active_set_and_hashes_without_siphash() {
    // Registering a path sets bits of a link bitmap, and the ascending
    // active list is re-read from it: nothing is sorted. The split cache's
    // pair map and the warm-seed row map are probed once per commodity per
    // solve, so they hash with the multiply–xor `NodeHash`, as `PathCache`
    // does, never with the default SipHash of `HashMap<K, V>`.
    let fmcf = product_part("crates/solver/src/fmcf.rs");
    assert!(
        !fmcf.contains("active.sort"),
        "fmcf.rs: `active.sort` is banned — re-read the active bitmap"
    );
    assert_maps_hash_with_node_hash("fmcf.rs", &fmcf, "HashMap<(NodeId, NodeId),");
}

#[test]
fn a_served_flow_is_stored_once() {
    // A shard keeps one `FlowSchedule` per admitted flow: no
    // private plan type, no second, stitched history of what the plans
    // delivered, and no snapshot split between the two.
    let mut sources = Vec::new();
    rust_sources(&workspace_root().join("crates/server/src"), &mut sources);
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        // The tests may still spell out a version 1 snapshot.
        let product = source.split("#[cfg(test)]").next().unwrap_or_default();
        for code in product
            .lines()
            .map(|l| l.split("//").next().unwrap_or_default())
        {
            let plan_type = code
                .split("struct Plan")
                .skip(1)
                .any(|rest| !rest.starts_with(is_ident_char));
            let banned = ["committed", "restore_plans", "plan_records"]
                .into_iter()
                .find(|banned| code.contains(banned));
            assert!(
                !plan_type && banned.is_none(),
                "{}: `{}` is banned — a served flow is stored once",
                path.display(),
                banned.unwrap_or("struct Plan")
            );
        }
    }
    let snapshot = product_part("crates/server/src/snapshot.rs");
    let (_, bucket) = snapshot
        .split_once("pub struct BucketState {")
        .expect("snapshot.rs declares BucketState");
    let fields = &bucket[..bucket.find("\n}").expect("BucketState has a closing brace")];
    for field in ["pub plans:", "pub committed:"] {
        assert!(
            !fields.contains(field),
            "snapshot.rs: BucketState keeps `{field}` — one record per flow"
        );
    }
}

#[test]
fn the_relaxation_hands_random_schedule_its_paths() {
    // A Frank–Wolfe iterate is a path mixture and stays one from the solve
    // loop to the rounding (PR 22): the rounding never extracts paths from
    // link flows nor falls back to a path of its own, and the solver holds
    // no commodities-by-links matrix outside the on-demand dense view.
    let read = |file: &str| {
        fs::read_to_string(workspace_root().join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"))
    };
    let dcfsr = read("crates/core/src/dcfsr.rs");
    for banned in ["decompose_flow", "live_path"] {
        assert!(
            !dcfsr.contains(banned),
            "dcfsr.rs: `{banned}` — candidates come from `FmcfSolution::split` and `steps`"
        );
    }
    assert!(
        !read("crates/solver/src/fmcf.rs").contains("vec![0.0; n * m]"),
        "fmcf.rs: no dense flow matrix on the solve path"
    );
}

#[test]
fn the_online_comparison_lives_in_one_harness_driver() {
    // `OnlineEngine` runs an instance and nothing else: the clairvoyant
    // reference is solved by its one user, the bench harness (`BANS`), and
    // the `online` and `failures` sweeps share `run_online_sweep` there,
    // which builds every record of theirs in one place.
    for bin in ["online", "failures"] {
        let file = format!("crates/bench/src/bin/{bin}.rs");
        assert!(
            !product_part(&file).contains("InstanceRecord {"),
            "{file}: builds an `InstanceRecord` — describe the sweep to `run_online_sweep`"
        );
    }
}

/// Public items of `crates/*/src` that no product line calls, each kept
/// for the test named beside it (`file::fn`), which calls it: an oracle, a
/// reference the fast path is compared against, or a check of state the
/// product only writes. Everything else public has a product caller.
const CALLED_ONLY_BY_TESTS: &[(&str, &str)] = &[
    (
        "EngineConfig::policy_instance",
        "crates/core/src/online/engine.rs::admit_all_solve_failures_are_counted_and_surface_as_misses",
    ),
    (
        "FlowSet::max_density",
        "crates/flow/src/set.rs::max_density_is_the_largest_flow_density",
    ),
    (
        "hardness::partition_flows",
        "tests/hardness_gadget.rs::partition_gadget_deadlines_hold_even_at_capacity",
    ),
    (
        "PowerFunction::power_rate",
        "tests/properties.rs::optimal_rate_minimises_power_rate",
    ),
    (
        "PowerFunction::optimal_rate",
        "tests/properties.rs::optimal_rate_minimises_power_rate",
    ),
    (
        "PowerFunction::energy_for_volume",
        "tests/properties.rs::slower_transmission_never_costs_more",
    ),
    (
        "RateProfile::rate_at",
        "crates/core/src/schedule.rs::link_profiles_aggregate_sharing_flows",
    ),
    (
        "Server::config",
        "crates/server/tests/serve.rs::snapshot_restore_continues_bit_identically",
    ),
    (
        "SimSummary::all_good",
        "crates/bench/src/report.rs::summary_digests_the_audit",
    ),
    (
        "Audit::all_good",
        "tests/example1.rs::example1_closed_form_through_public_api",
    ),
    (
        "brute_force_optimal_energy",
        "tests/critical_interval.rs::energy_is_the_brute_force_optimum_on_small_instances",
    ),
    (
        "FmcfSolution::commodity_count",
        "tests/csr_equivalence.rs::fmcf_matches_prerefactor_solver",
    ),
    (
        "FmcfSolution::edge_load",
        "crates/solver/src/fmcf.rs::total_loads_is_consistent_with_commodity_flows",
    ),
    (
        "yds_schedule",
        "tests/critical_interval.rs::yds_equals_the_pairwise_reference",
    ),
    (
        "YdsSchedule::validate",
        "crates/solver/src/yds.rs::single_job_runs_at_its_density",
    ),
    (
        "YdsSchedule::placements",
        "tests/critical_interval.rs::yds_equals_the_pairwise_reference",
    ),
    (
        "BuiltTopology::csr",
        "tests/example1.rs::example1_energy_scales_with_alpha",
    ),
    (
        "Path::contains_node",
        "crates/topology/src/routing.rs::dijkstra_prefers_cheap_route",
    ),
];

/// A source file as the public-surface scan reads it.
struct ScannedFile {
    /// Path relative to the workspace root.
    rel: String,
    /// The crates (`crates/<dir>`) whose items this file can name, `None`
    /// for every crate.
    sees: Option<Vec<String>>,
    /// The lines, with every `#[cfg(test)]` item of `crates/*/src`
    /// blanked (all of `perf/src` counts: the benchmark's own tests build
    /// against the product).
    lines: Vec<String>,
    /// The same lines with comments, string contents and `use`
    /// declarations blanked too: where a caller can appear.
    code: Vec<String>,
}

/// A `pub fn`, `pub struct`, `pub enum` or `pub mod` of `crates/*/src`.
struct PubItem {
    file: usize,
    line: usize,
    kind: &'static str,
    name: String,
    /// `Owner::name` for an item inside an `impl` or inline `mod` block.
    key: String,
    /// A function's parameter count, `self` not counted.
    arity: Option<usize>,
    /// Lines of `file` that belong to the item: its own text, and for a
    /// type the `impl` blocks of that type.
    span: Vec<(usize, usize)>,
}

/// The crate directory of a `crates/<dir>/...` path.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// The crates whose items a file can name, `None` for every crate (`src/`,
/// `examples/`): a crate's own and its `dcn-*` dependencies, transitively,
/// or for `perf/src` what `perf/Cargo.toml` lists.
fn visible_crates(root: &Path, rel: &str) -> Option<Vec<String>> {
    let (mut sees, manifest_dir) = match crate_of(rel) {
        Some(own) => (vec![own.to_string()], root.join("crates").join(own)),
        None if rel.starts_with("perf/") => (Vec::new(), root.join("perf")),
        None => return None,
    };
    let mut todo = vec![manifest_dir];
    while let Some(dir) = todo.pop() {
        let text = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest readable");
        for line in section_lines(&text, "dependencies") {
            if let Some(dep) = dep_name(&line).and_then(|d| d.strip_prefix("dcn-")) {
                if !sees.iter().any(|c| c == dep) {
                    sees.push(dep.to_string());
                    todo.push(root.join("crates").join(dep));
                }
            }
        }
    }
    Some(sees)
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The last line of the item or block that starts at line `start`
/// (rustfmt layout: a block closes on the first `}` at its indentation).
fn item_end(lines: &[String], code: &[String], start: usize) -> usize {
    let head = code[start].trim_end();
    if head.ends_with([';', ',', '}']) {
        return start;
    }
    let close = " ".repeat(indent(&lines[start])) + "}";
    (start + 1..lines.len())
        .find(|&j| lines[j].trim_end().trim_end_matches([';', ',']) == close)
        .unwrap_or(lines.len() - 1)
}

/// Comments and string contents blanked, line by line; a string may span
/// lines.
fn strip_comments_and_strings(lines: &[String]) -> Vec<String> {
    let mut in_string = false;
    lines
        .iter()
        .map(|line| {
            let mut out = String::new();
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                if in_string {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => {
                            in_string = false;
                            out.push('"');
                        }
                        _ => {}
                    }
                } else if c == '"' {
                    in_string = true;
                    out.push('"');
                } else if c == '/' && chars.peek() == Some(&'/') {
                    break;
                } else if c == '\'' && matches!(chars.peek(), Some('"' | '\\')) {
                    // A char literal such as '"' or '\'': skip to its end.
                    for d in chars.by_ref() {
                        if d == '\'' {
                            break;
                        }
                    }
                } else {
                    out.push(c);
                }
            }
            out
        })
        .collect()
}

fn scan_file(root: &Path, path: &Path) -> ScannedFile {
    let rel = path
        .strip_prefix(root)
        .expect("scanned files lie in the workspace")
        .to_string_lossy()
        .replace('\\', "/");
    let sees = visible_crates(root, &rel);
    scanned(
        rel,
        sees,
        &fs::read_to_string(path).expect("source readable"),
    )
}

fn scanned(rel: String, sees: Option<Vec<String>>, text: &str) -> ScannedFile {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut code = strip_comments_and_strings(&lines);
    let mut i = 0;
    while rel.starts_with("crates/") && i < lines.len() {
        if lines[i].trim() != "#[cfg(test)]" {
            i += 1;
            continue;
        }
        let mut item = i + 1;
        while lines[item].trim_start().starts_with("#[") {
            item += 1;
        }
        let end = item_end(&lines, &code, item);
        for j in i..=end {
            lines[j].clear();
            code[j].clear();
        }
        i = end + 1;
    }
    let mut in_use = false;
    for line in &mut code {
        let t = line.trim_start();
        if in_use || t.starts_with("use ") || (t.starts_with("pub") && t.contains(" use ")) {
            in_use = !line.trim_end().ends_with(';');
            line.clear();
        }
    }
    ScannedFile {
        rel,
        sees,
        lines,
        code,
    }
}

/// `impl<..> Trait for Type<..> {` or `impl<..> Type<..> {` → `Type`.
fn impl_self_type(header: &str) -> Option<String> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.char_indices().find_map(|(i, c)| {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(i)
        })?;
        rest = &rest[end + 1..];
    }
    let rest = rest.split(" for ").last()?.trim();
    let path = rest.split(['<', ' ', '{']).next()?;
    Some(path.rsplit("::").next()?.to_string())
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` uses `item`: any mention for a type; for a function a
/// call (`name(`, `name::<`) or a path (`Type::name`), where a method call
/// `.name(…)` whose arguments close on the line must pass as many as the
/// function takes.
fn mentions(line: &str, item: &PubItem) -> bool {
    let name = item.name.as_str();
    line.match_indices(name).any(|(at, _)| {
        let before = &line[..at];
        let after = &line[at + name.len()..];
        if before.ends_with(is_ident_char) || after.starts_with(is_ident_char) {
            return false;
        }
        if item.kind != "fn" {
            return true;
        }
        if before.trim_end().ends_with(" fn") || before.trim_end() == "fn" {
            return false;
        }
        let after = after.trim_start();
        if let (true, Some(args)) = (before.ends_with('.'), after.strip_prefix('(')) {
            return arguments(args, false).is_none_or(|args| Some(args.len()) == item.arity);
        }
        before.ends_with("::") || after.starts_with('(') || after.starts_with("::<")
    })
}

/// The top-level arguments of a list whose `(` ends just before `text`,
/// if it closes in `text`. A `signature` counts `<…>` as brackets.
fn arguments(text: &str, signature: bool) -> Option<Vec<&str>> {
    let (mut depth, mut start, mut args) = (0usize, 0, Vec::new());
    let mut last = '(';
    let mut chars = text.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '(' | '[' | '{' => depth += 1,
            '<' if signature => depth += 1,
            '>' if signature && !text[..i].ends_with('-') => depth -= 1,
            // A closure's parameters, `|a, b|`, are not arguments.
            '|' if depth == 0 && matches!(last, '(' | ',') => {
                chars.by_ref().find(|&(_, d)| d == '|');
            }
            ')' | ']' | '}' if depth > 0 => depth -= 1,
            ')' | ',' if depth == 0 => {
                let arg = text[start..i].trim();
                if !arg.is_empty() {
                    args.push(arg);
                }
                if c == ')' {
                    return Some(args);
                }
                start = i + 1;
            }
            _ => {}
        }
        if !c.is_whitespace() {
            last = c;
        }
    }
    None
}

/// How many parameters, `self` not counted, the `fn name` whose signature
/// starts on line `start` takes.
fn arity(code: &[String], start: usize, name: &str) -> usize {
    let text = code[start..].join(" ");
    let sig = &text[text.find(&format!("fn {name}")).expect("a fn line") + 3 + name.len()..];
    let mut generics = 0;
    let open = sig
        .char_indices()
        .find(|&(i, c)| {
            match c {
                '<' => generics += 1,
                '>' if !sig[..i].ends_with('-') => generics -= 1,
                _ => {}
            }
            c == '(' && generics == 0
        })
        .expect("a signature has a parameter list")
        .0;
    let params = arguments(&sig[open + 1..], true).expect("a signature closes");
    params
        .iter()
        .filter(|p| {
            p.split(':')
                .next()
                .unwrap_or_default()
                .trim()
                .rsplit([' ', '&'])
                .next()
                != Some("self")
        })
        .count()
}

fn pub_items(files: &[ScannedFile]) -> Vec<PubItem> {
    let mut items = Vec::new();
    for (f, file) in files.iter().enumerate() {
        if !file.rel.starts_with("crates/") {
            continue;
        }
        for (line, text) in file.lines.iter().enumerate() {
            let Some(rest) = text.trim_start().strip_prefix("pub ") else {
                continue;
            };
            let Some((kind, rest)) = ["fn", "struct", "enum", "mod"]
                .into_iter()
                .find_map(|kind| Some((kind, rest.strip_prefix(kind)?.strip_prefix(' ')?)))
            else {
                continue;
            };
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            // The enclosing block, if any: an `impl` or an inline `mod`.
            let owner = (0..line)
                .rev()
                .find(|&j| {
                    !file.lines[j].trim().is_empty()
                        && indent(&file.lines[j]) < indent(text)
                        && file.code[j].trim_end().ends_with('{')
                })
                .and_then(|j| {
                    let header = file.lines[j].trim();
                    impl_self_type(header).or_else(|| {
                        let module = header.strip_prefix("pub ").unwrap_or(header);
                        Some(
                            module
                                .strip_prefix("mod ")?
                                .trim_end_matches([' ', '{'])
                                .into(),
                        )
                    })
                });
            let key = match owner {
                Some(owner) => format!("{owner}::{name}"),
                None => name.clone(),
            };
            let mut span = vec![(line, item_end(&file.lines, &file.code, line))];
            if kind == "struct" || kind == "enum" {
                for (j, header) in file.lines.iter().enumerate() {
                    if header.starts_with("impl") && impl_self_type(header).as_ref() == Some(&name)
                    {
                        span.push((j, item_end(&file.lines, &file.code, j)));
                    }
                }
            }
            items.push(PubItem {
                file: f,
                line,
                kind,
                arity: (kind == "fn").then(|| arity(&file.code, line, &name)),
                name,
                key,
                span,
            });
        }
    }
    items
}

/// Whether `file` belongs to module `name`, declared with `pub mod name;`
/// in `declarer`: it is `name.rs` or lies under `name/`, next to a
/// `lib.rs` or `mod.rs` declarer and below any other.
fn in_module_file(file: &str, declarer: &str, name: &str) -> bool {
    let (dir, stem) = declarer.rsplit_once('/').unwrap_or(("", declarer));
    let stem = stem.trim_end_matches(".rs");
    let base = if ["lib", "main", "mod"].contains(&stem) {
        format!("{dir}/{name}")
    } else {
        format!("{dir}/{stem}/{name}")
    };
    file == format!("{base}.rs") || file.starts_with(&format!("{base}/"))
}

/// Every public item whose name no product line outside the item uses,
/// with the uncalled items' own lines struck until nothing changes (an
/// item called only from another uncalled item is uncalled too). A module
/// is uncalled when every public item in it is. Items in `keep` count as
/// called.
fn uncalled_items(files: &[ScannedFile], items: &[PubItem], keep: &[&str]) -> Vec<usize> {
    let in_span = |item: &PubItem, f: usize, line: usize| {
        item.file == f && item.span.iter().any(|&(a, b)| (a..=b).contains(&line))
    };
    // The lines each identifier appears on, then where each item is
    // mentioned outside its own span.
    let mut lines_with: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (f, file) in files.iter().enumerate() {
        for (line, code) in file.code.iter().enumerate() {
            for word in code.split(|c| !is_ident_char(c)).filter(|w| !w.is_empty()) {
                let at = lines_with.entry(word).or_default();
                if at.last() != Some(&(f, line)) {
                    at.push((f, line));
                }
            }
        }
    }
    let uses: Vec<Vec<(usize, usize)>> = items
        .iter()
        .map(|item| {
            let candidates = lines_with
                .get(item.name.as_str())
                .map_or(&[][..], Vec::as_slice);
            let owner = crate_of(&files[item.file].rel);
            candidates
                .iter()
                .copied()
                .filter(|&(f, line)| {
                    let sees = files[f].sees.as_ref();
                    item.kind != "mod"
                        && sees.is_none_or(|s| s.iter().any(|c| Some(c.as_str()) == owner))
                        && mentions(&files[f].code[line], item)
                        && !in_span(item, f, line)
                })
                .collect()
        })
        .collect();
    let members: Vec<Vec<usize>> = items
        .iter()
        .map(|module| {
            if module.kind != "mod" {
                return Vec::new();
            }
            let declarer = &files[module.file].rel;
            (0..items.len())
                .filter(|&i| {
                    let file = &files[items[i].file].rel;
                    items[i].kind != "mod"
                        && (in_module_file(file, declarer, &module.name)
                            || in_span(module, items[i].file, items[i].line))
                })
                .collect()
        })
        .collect();
    let mut uncalled = vec![false; items.len()];
    let mut struck: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.lines.len()]).collect();
    loop {
        let mut changed = false;
        for i in 0..items.len() {
            if uncalled[i] || keep.contains(&items[i].key.as_str()) {
                continue;
            }
            let dead = if items[i].kind == "mod" {
                !members[i].is_empty() && members[i].iter().all(|&m| uncalled[m])
            } else {
                uses[i].iter().all(|&(f, line)| struck[f][line])
            };
            if dead {
                uncalled[i] = true;
                changed = true;
                for &(a, b) in &items[i].span {
                    struck[items[i].file][a..=b].fill(true);
                }
            }
        }
        if !changed {
            return (0..items.len()).filter(|&i| uncalled[i]).collect();
        }
    }
}

/// The body of test function `name` in `file`, if the file holds one in
/// a test position (a test target, or below a `#[cfg(test)]`).
fn test_body(root: &Path, file: &str, name: &str) -> Option<String> {
    let source = fs::read_to_string(root.join(file)).ok()?;
    let source = if file.contains("/src/") {
        source.split_once("#[cfg(test)]")?.1
    } else {
        &source
    };
    let lines: Vec<&str> = source.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.trim_start().starts_with(&format!("fn {name}(")))?;
    let close = " ".repeat(indent(lines[start])) + "}";
    let end = (start..lines.len()).find(|&j| lines[j] == close)?;
    Some(lines[start..=end].join("\n"))
}

#[test]
fn every_public_item_has_a_product_caller_or_a_named_test() {
    // A public item that nothing calls is deleted, not kept "for later":
    // the VL2 and Jellyfish builders, the flow-trace reader and writer and
    // accessors only their own tests called went that way. An item kept
    // for tests alone is listed in `CALLED_ONLY_BY_TESTS` with a test that
    // calls it.
    let root = workspace_root();
    let mut paths = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut paths,
        );
    }
    for dir in ["src", "examples", "perf/src"] {
        rust_sources(&root.join(dir), &mut paths);
    }
    paths.sort();
    let files: Vec<ScannedFile> = paths.iter().map(|p| scan_file(&root, p)).collect();
    let items = pub_items(&files);
    assert!(
        items.len() > 300,
        "the scan found only {} items",
        items.len()
    );
    let keep: Vec<&str> = CALLED_ONLY_BY_TESTS.iter().map(|&(item, _)| item).collect();
    let uncalled: Vec<String> = uncalled_items(&files, &items, &keep)
        .into_iter()
        .map(|i| (&files[items[i].file].rel, &items[i]))
        .map(|(rel, item)| format!("{rel}:{} pub {} {}", item.line + 1, item.kind, item.key))
        .collect();
    assert!(
        uncalled.is_empty(),
        "public items with no product caller — delete them, or list a test that \
         calls them in CALLED_ONLY_BY_TESTS:\n{}",
        uncalled.join("\n")
    );
    // Each listed item exists, is kept for tests alone and is called by
    // its test.
    let without_keep = uncalled_items(&files, &items, &[]);
    for &(key, test) in CALLED_ONLY_BY_TESTS {
        let item = items
            .iter()
            .position(|item| item.key == key)
            .unwrap_or_else(|| panic!("CALLED_ONLY_BY_TESTS lists `{key}`, which does not exist"));
        assert!(
            without_keep.contains(&item),
            "`{key}` has a product caller — drop it from CALLED_ONLY_BY_TESTS"
        );
        let (file, name) = test.rsplit_once("::").expect("a test is `file::fn`");
        let body = test_body(&root, file, name)
            .unwrap_or_else(|| panic!("`{key}`: no test `{name}` in {file}"));
        let item = &items[item];
        assert!(
            body.lines().skip(1).any(|l| mentions(l, item)),
            "`{key}`: {test} does not call it"
        );
    }
}

#[test]
fn the_surface_guard_matches_an_item_not_its_name() {
    // Two impls share `paths`: `src/` calls the one without arguments, and
    // only a file that may not see crate `a` calls the other.
    let uncalled = |perf_sees: &str| -> Vec<String> {
        let file =
            |rel: &str, sees: &str, text: &str| scanned(rel.into(), Some(vec![sees.into()]), text);
        let files = [
            file(
                "crates/a/src/lib.rs",
                "a",
                "pub struct One;\nimpl One {\n    pub fn paths(&self) {\n    }\n}\n\
                 pub struct Two;\nimpl Two {\n    pub fn paths(&self, c: usize) {\n    }\n}\n",
            ),
            file(
                "src/main.rs",
                "a",
                "fn main(two: a::Two) {\n    a::One.paths();\n}\n",
            ),
            file(
                "perf/src/main.rs",
                perf_sees,
                "fn main(two: a::Two) {\n    two.paths(1);\n}\n",
            ),
        ];
        let items = pub_items(&files);
        let found = uncalled_items(&files, &items, &[]);
        found.iter().map(|&i| items[i].key.clone()).collect()
    };
    assert_eq!(uncalled("b"), ["Two::paths"]);
    assert!(uncalled("a").is_empty());
}

#[test]
fn every_quoted_experiments_section_exists() {
    // Source docs and the README send a reader to EXPERIMENTS.md by
    // quoting a section heading (or its start), possibly across `//!`
    // line breaks: `EXPERIMENTS.md, "A"`, `("A", "B")` or `"A" and "B"`.
    let root = workspace_root();
    let experiments = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let headings: Vec<&str> = experiments
        .lines()
        .filter_map(|l| Some(l.strip_prefix('#')?.trim_start_matches('#').trim()))
        .collect();
    let mut paths = vec![root.join("README.md")];
    rust_sources(&root.join("src"), &mut paths);
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut paths,
        );
    }
    let mut quotes = 0;
    for path in paths {
        let source = fs::read_to_string(&path).expect("source readable");
        let text: Vec<&str> = source
            .lines()
            .map(|l| l.trim_start().trim_start_matches(['/', '!']).trim())
            .collect();
        let text = text.join(" ");
        for (at, cite) in text.match_indices("EXPERIMENTS.md") {
            let mut rest = text[at + cite.len()..].trim_start_matches([',', ' ', '(']);
            while let Some((quote, tail)) = rest.strip_prefix('"').and_then(|q| q.split_once('"')) {
                quotes += 1;
                assert!(
                    headings.iter().any(|h| h.starts_with(quote)),
                    "{}: EXPERIMENTS.md has no section \"{quote}\"",
                    path.display()
                );
                rest = tail
                    .trim_start_matches([',', ' '])
                    .trim_start_matches("and ");
            }
        }
    }
    assert!(quotes > 0, "no quoted EXPERIMENTS.md section found");
}

/// Where a ban applies: workspace directories or files, `*` standing for
/// any one crate, `!` excluding one.
const PRODUCT: &[&str] = &["src", "examples", "crates/*/src"];
const EVERYWHERE: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates",
    "vendor/serde",
    "vendor/serde_derive",
    "vendor/serde_json",
];

/// Text a superseded design may not bring back: `(scope, needle, why)`.
/// A file of the scope fails when it contains the needle. A public item
/// that nothing calls needs no entry — the surface guard above fails on it
/// whatever its name — so the bans are what the guard cannot see: traits,
/// fields, attributes, private items, and designs whose items would come
/// back with callers.
const BANS: &[(&[&str], &str, &str)] = &[
    (PRODUCT, "#[deprecated", SUPERSEDED),
    (PRODUCT, "cfg(feature", SUPERSEDED),
    (PRODUCT, "ServeAdmission", ONE_LEDGER),
    (PRODUCT, "struct FlowState", ONE_LEDGER),
    (PRODUCT, "fn residual_set", ONE_LEDGER),
    (PRODUCT, "fn stitch(", STORED_ONCE),
    (PRODUCT, "commit_index", STORED_ONCE),
    (PRODUCT, "pub link_profiles:", STORED_ONCE),
    (PRODUCT, "link_profiles.is_empty()", STORED_ONCE),
    (PRODUCT, "fn take_dirty", STORED_ONCE),
    (PRODUCT, "fn is_live(", STORED_ONCE),
    (PRODUCT, "EnergyMeter", LINK_LOADS),
    (PRODUCT, "fn energy_meter", LINK_LOADS),
    (PRODUCT, "fn dynamic_energy", LINK_LOADS),
    (PRODUCT, "fn capacity_excess", LINK_LOADS),
    (PRODUCT, "fn active_links", LINK_LOADS),
    (PRODUCT, "ParallelConfig", SEQUENTIAL),
    (PRODUCT, "set_parallelism", SEQUENTIAL),
    (PRODUCT, "interval_relaxation_threads", SEQUENTIAL),
    (PRODUCT, "run_indexed_with", SEQUENTIAL),
    (PRODUCT, "in_pool_worker", SEQUENTIAL),
    (PRODUCT, "solver_threads", SEQUENTIAL),
    (EVERYWHERE, "dcn_sim::", ONE_AUDIT),
    (EVERYWHERE, "deadline_dcn::sim", ONE_AUDIT),
    (EVERYWHERE, "fn run_admitted", ONE_AUDIT),
    (EVERYWHERE, "pub struct SimReport", ONE_AUDIT),
    (EVERYWHERE, "to_value", STREAMED),
    (EVERYWHERE, "from_value", STREAMED),
    (EVERYWHERE, "map_field", STREAMED),
    (EVERYWHERE, "DeError", STREAMED),
    (PRODUCT, "run_vs_offline", HARNESS),
    (PRODUCT, "competitive_ratio", HARNESS),
    (PRODUCT, "offline_energy", HARNESS),
    (BENCH, "too_many_arguments", "pass what the call needs"),
    (NETWORK_AND_POWER, "Serialize", "nothing serializes them"),
    (PRODUCT, "PolicyRegistry", NAME_TABLE),
    (PRODUCT, "mod registry", NAME_TABLE),
    (PRODUCT, "fn register(", NAME_TABLE),
    (PRODUCT, "fn algorithms(", NAME_TABLE),
    (PRODUCT, "fn policies(", NAME_TABLE),
    (PRODUCT, "Arc<dyn Fn", NAME_TABLE),
    (PRODUCT, "-> &RandomScheduleConfig", KNOBS),
    (PRODUCT, "headroom: f64", KNOBS),
    (PRODUCT, "slack_threshold: f64", KNOBS),
    (PRODUCT, "trait FlowCost", ONE_COST),
    (PRODUCT, "fn zero_load_is_free", ONE_COST),
    (PRODUCT, "fn uniform_zero_load_marginal", ONE_COST),
    (PRODUCT, "capacity_penalty", ONE_COST),
    (PRODUCT, "enum GraphRef", ONE_COST),
    (PRODUCT, "fn cost_fingerprint", ONE_COST),
    (PRODUCT, "RcdPolicy", POLICY),
    (PRODUCT, "pub struct OnlineEvent", POLICY),
    (PRODUCT, "SlackTimer", POLICY),
    (PRODUCT, "DcfsError", ONE_ERROR),
    (PRODUCT, "DcfsrError", ONE_ERROR),
    (PRODUCT, "ExactError", ONE_ERROR),
    (PRODUCT, "RoutingError", ONE_ERROR),
    (PRODUCT, "non_exhaustive", ONE_ERROR),
    (
        PRODUCT,
        "fn sole_out_neighbor",
        "the search engine reads its pendant index",
    ),
    (NETWORK_RS, "out_links:", ONE_READ_PATH),
    (NETWORK_RS, "in_links:", ONE_READ_PATH),
    (NETWORK_RS, "VecDeque", ONE_READ_PATH),
    (NETWORK_RS, "fn reconstruct", ONE_READ_PATH),
    (EVERYWHERE, "record_timings", RESULTS_ONLY),
    (EVERYWHERE, "wall_clock_seconds:", RESULTS_ONLY),
    (EVERYWHERE, "solve_wall_ms:", RESULTS_ONLY),
    (EVERYWHERE, "intervals_per_second:", RESULTS_ONLY),
    (EVERYWHERE, "requests_per_second:", RESULTS_ONLY),
    (EVERYWHERE, "p99_latency_ms:", RESULTS_ONLY),
    (PRODUCT, "\"--timings\"", RESULTS_ONLY),
    (PRODUCT, "ConsolidatingMcf", ROUTE_THEN_SCHEDULE),
    (PRODUCT, "exact_dcfsr_ctx", ROUTE_THEN_SCHEDULE),
    (PRODUCT, "ExactOutcome", ROUTE_THEN_SCHEDULE),
    (PRODUCT, "diagnostics.capacity_excess", AUDITED_ONCE),
    (PRODUCT, "capacity_excess: Option", AUDITED_ONCE),
    (OUTSIDE_SCHEDULE_RS, "energy_of(", AUDITED_ONCE),
];
const BENCH: &[&str] = &["crates/bench/src"];
const OUTSIDE_SCHEDULE_RS: &[&str] = &[
    "src",
    "examples",
    "crates/*/src",
    "!crates/core/src/schedule.rs",
];
const NETWORK_AND_POWER: &[&str] = &["crates/topology/src", "crates/power/src"];
const NETWORK_RS: &[&str] = &["crates/topology/src/network.rs"];
const SUPERSEDED: &str = "a superseded entry point is deleted, not kept behind an attribute";
const ONE_LEDGER: &str = "the engine and the daemon share one in-flight ledger";
const STORED_ONCE: &str = "a flow's schedule is stored once, and the queue only what can pop";
const LINK_LOADS: &str = "`Schedule::link_loads` sums a link's load, once";
const SEQUENTIAL: &str = "solves run sequentially";
const ONE_AUDIT: &str = "the audit is `Schedule::audit`";
const STREAMED: &str = "types stream to and from the text";
const HARNESS: &str = "the harness solves the clairvoyant reference";
const NAME_TABLE: &str = "a name table builds schedulers";
const KNOBS: &str = "a one-value knob is a constant, and a config is its owner's";
const ONE_COST: &str = "Frank–Wolfe takes the one cost it is given";
const POLICY: &str = "a policy keeps only what it uses";
const ONE_ERROR: &str = "`dcn-core` fails with one `SolveError`";
const RESULTS_ONLY: &str = "an artifact carries results; wall clock is `perf/`'s to measure";
const ROUTE_THEN_SCHEDULE: &str =
    "a fixed-path baseline is a `Routing` under `RoutedMcf`, and `ExactBrute::solve` enumerates";
const AUDITED_ONCE: &str =
    "a `Solution` carries its schedule's `Audit`, built where the schedule is made";
const ONE_READ_PATH: &str =
    "`Network` stores nodes and links; `GraphCsr` is the one adjacency and runs every traversal";

/// Whether `rel` lies in a ban's `scope`: in one of its directories or
/// files, and in none of those it excludes with a leading `!`.
fn in_scope(rel: &str, scope: &[&str]) -> bool {
    let (excluded, included): (Vec<&str>, Vec<&str>) =
        scope.iter().partition(|dir| dir.starts_with('!'));
    included.iter().any(|dir| in_dir(rel, dir))
        && !excluded.iter().any(|dir| in_dir(rel, &dir[1..]))
}

/// Whether `rel` lies in workspace directory `dir` (`*` is one crate), or
/// is the file `dir`.
fn in_dir(rel: &str, dir: &str) -> bool {
    match dir.split_once('*') {
        Some((head, tail)) => rel
            .strip_prefix(head)
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with(tail.trim_start_matches('/'))),
        None => rel == dir || rel.starts_with(&format!("{dir}/")),
    }
}

#[test]
fn banned_names_stay_deleted() {
    let root = workspace_root();
    let mut paths = Vec::new();
    for dir in ["src", "examples", "tests", "crates", "vendor"] {
        rust_sources(&root.join(dir), &mut paths);
    }
    for path in paths {
        let rel = path
            .strip_prefix(&root)
            .expect("in the workspace")
            .to_string_lossy();
        if rel == "tests/workspace.rs" {
            continue;
        }
        let source = fs::read_to_string(&path).expect("source readable");
        for &(scope, needle, why) in BANS {
            assert!(
                !(in_scope(&rel, scope) && source.contains(needle)),
                "{rel}: `{needle}` is banned — {why}"
            );
        }
    }
}
