//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, with units and directions. `BENCHMARK.json` at
//! the repo root lists the same names (a test holds the two together);
//! later issues cite them, so they do not change.

use crate::stats::Better::{self, Higher, Lower};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// (name, why it exists).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "codegen_cold",
        "compile_dyn with the memo off over 14 programs x 3 back ends: the CGF walk and vcode/icode do the work (paper Table 1)",
    ),
    (
        "exec_steady",
        "run_dyn of promoted functions, 7 loop kernels: the vm engines do all the work, compile none",
    ),
    (
        "exec_cold",
        "fresh compile then 1, 2 or 4 runs from tier 0: translation and the low tiers are on the critical path",
    ),
    (
        "serve_hot",
        "2-worker pool, 40 cells, Zipf 1.1, light churn: the hit path of the shared cache, where pool scaling lives",
    ),
    (
        "serve_churn",
        "2-worker pool, 320 cells, Zipf 0.2, 24 KiB budget, heavy churn: publish, evict, reclaim, recompile",
    ),
    (
        "warm_restart",
        "Session::new on a primed 320-cell store, 64 compiles answered from disk, run each, drop: what a restart pays",
    ),
];

/// What a user of the system sees. Printed by every workload with
/// `--trace 0`.
pub const END_TO_END: [MetricDef; 7] = [
    m("setup_s", "s", Lower),
    m("ops_per_s", "1/s", Higher),
    m("op_p50_us", "us", Lower),
    m("op_p99_us", "us", Lower),
    m("peak_rss_mb", "MiB", Lower),
    m("gen_insns", "count", Lower),
    m("run_cycles", "cycles", Lower),
];

/// Single layers. Printed by every workload with `--trace 1`. The
/// crate a metric belongs to is its prefix.
pub const PER_LAYER: [MetricDef; 82] = [
    m("front.parse_sema_us", "us", Lower),
    m("front.src_bytes_per_s", "B/s", Higher),
    m("mir.build_image_us", "us", Lower),
    m("mir.static_insns", "count", Lower),
    m("rt.heap_bytes_per_request", "B", Lower),
    m("tickc.session_new_ms", "ms", Lower),
    m("tickc.compiles", "count", Lower),
    m("tickc.codegen_ns_per_insn", "ns", Lower),
    m("tickc.compile_call_ns", "ns", Lower),
    m("tickc.hit_call_ns", "ns", Lower),
    m("tickc.walk_ns_per_insn", "ns", Lower),
    m("tickc.closures_per_compile", "count", Lower),
    m("tickc.unrolled_iters", "count", Higher),
    m("vcode.emit_ns_per_insn", "ns", Lower),
    m("vcode.gen_insns", "count", Lower),
    m("vcode.run_cycles", "cycles", Lower),
    m("icode.ls_ns_per_insn", "ns", Lower),
    m("icode.gc_ns_per_insn", "ns", Lower),
    m("icode.peephole_ns_per_ir", "ns", Lower),
    m("icode.flow_ns_per_ir", "ns", Lower),
    m("icode.liveness_ns_per_ir", "ns", Lower),
    m("icode.intervals_ns_per_ir", "ns", Lower),
    m("icode.alloc_ls_ns_per_ir", "ns", Lower),
    m("icode.alloc_gc_ns_per_ir", "ns", Lower),
    m("icode.emit_ns_per_ir", "ns", Lower),
    m("icode.ir_insns", "count", Lower),
    m("icode.spills_ls", "count", Lower),
    m("icode.spills_gc", "count", Lower),
    m("icode.gen_insns", "count", Lower),
    m("icode.run_cycles", "cycles", Lower),
    m("cache.memo_hit_ns", "ns", Lower),
    m("cache.shared_hit_ratio", "ratio", Higher),
    m("cache.waits", "count", Lower),
    m("cache.published", "count", Lower),
    m("cache.evictions", "count", Lower),
    m("cache.invalidations", "count", Lower),
    m("cache.compiles_per_unique", "ratio", Lower),
    m("cache.stale_faults", "count", Lower),
    m("cache.bytes_live", "B", Lower),
    m("cache.touch_ns_1t", "ns", Lower),
    m("cache.touch_ns_2t", "ns", Lower),
    m("cache.get_hit_ns", "ns", Lower),
    m("cache.publish_ns", "ns", Lower),
    m("cache.invalidate_ns", "ns", Lower),
    m("cache.persist_open_us", "us", Lower),
    m("cache.persist_load_ns", "ns", Lower),
    m("cache.persist_flush_us", "us", Lower),
    m("cache.persist_file_bytes", "B", Lower),
    m("cache.disk_hits", "count", Higher),
    m("cache.disk_rejected", "count", Lower),
    m("vm.install_ns_per_word", "ns", Lower),
    m("vm.free_ns", "ns", Lower),
    m("vm.decode_ns_per_insn", "ns", Lower),
    m("vm.predecoded_ns_per_insn", "ns", Lower),
    m("vm.fused_ns_per_insn", "ns", Lower),
    m("vm.threaded_ns_per_insn", "ns", Lower),
    m("vm.adaptive_ns_per_insn", "ns", Lower),
    m("vm.exec_ns_per_insn", "ns", Lower),
    m("vm.execute_call_ns", "ns", Lower),
    m("vm.translate_ns_per_word", "ns", Lower),
    m("vm.translations", "count", Lower),
    m("vm.promotions", "count", Lower),
    m("vm.demotions", "count", Lower),
    m("vm.invalidations", "count", Lower),
    m("vm.tier0_run_share", "ratio", Lower),
    m("vm.dispatches_per_insn", "ratio", Lower),
    m("vm.fused_pairs", "count", Higher),
    m("vm.superinstructions", "count", Higher),
    m("vm.insns", "count", Lower),
    m("vm.hcalls", "count", Lower),
    m("serve.run_serve_rps_1w", "1/s", Higher),
    m("serve.run_serve_rps_2w", "1/s", Higher),
    m("serve.run_serve_p99_us_2w", "us", Lower),
    m("pool.rps_1w", "1/s", Higher),
    m("pool.scaling_2w", "ratio", Higher),
    m("pool.p999_us", "us", Lower),
    m("pool.rotations", "count", Lower),
    m("pool.rotate_ms", "ms", Lower),
    m("obs.metrics_snapshot_ns", "ns", Lower),
    m("obs.json_encode_us", "us", Lower),
    m("trace.coverage", "ratio", Higher),
    m("trace.overhead_ratio", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn well_formed(name: &str) -> bool {
        let head = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn listed(doc: &json::Json, key: &str) -> Vec<(String, String, String)> {
        json::get(doc, key)
            .and_then(json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|row| {
                let field = |k| {
                    json::get(row, k)
                        .and_then(json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.better == Lower { "lower" } else { "higher" };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_caps() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        all.extend(END_TO_END.iter().map(|d| d.name));
        all.extend(PER_LAYER.iter().map(|d| d.name));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let distinct: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` and the binary name the same things.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let workloads: Vec<(String, String)> = json::get(&doc, "workloads")
            .and_then(json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k| json::get(w, k).and_then(json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.0.to_string(), w.1.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(listed(&doc, "end_to_end"), defined(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(&PER_LAYER));
        for row in json::get(&doc, "end_to_end")
            .and_then(json::as_arr)
            .unwrap()
        {
            let bound = match json::get(row, "bound") {
                Some(json::Json::Num(b)) => *b,
                Some(json::Json::Int(b)) => *b as f64,
                _ => panic!("end-to-end metric without a bound"),
            };
            assert!((0.0..=0.25).contains(&bound));
        }
    }
}
