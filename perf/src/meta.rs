//! The ledger's vocabulary: workload names, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! is expected to move. `BENCHMARK.json` is generated from these tables
//! (`perf manifest`) and `perf check` asserts the two still agree.

use vegen_trace::json::Json;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "suite_cold",
        why: "The paper's 33 kernels, cold, AVX2 beam 16: few expensive beam states over large pack spaces (idct8), so search, costSLP and producer enumeration dominate.",
    },
    Workload {
        name: "corpus_cold",
        why: "200 generated kernels, cold: many cheap beam states, so per-kernel set-up, freeze, dedup and merge dominate; a per-state win that costs set-up shows the opposite sign here.",
    },
    Workload {
        name: "serve_mixed",
        why: "NDJSON compile requests over a Unix socket to the in-process daemon, one connection on one pinned CPU: 70% hot set, 28.75% disk hits, 1.25% misses, so selection is bypassed on 98.75% of ops.",
    },
    Workload {
        name: "offline_build",
        why: "All 207 pseudocode specs to VIDL, then target description and audit for SSE4, AVX2 and AVX512-VNNI: the generator half, which uses no kernel, beam or engine code.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median of three set-ups: spec database + AVX2 target description, input generation, and (serve_mixed) disk-cache pre-population; on offline_build one untimed warm-up pass",
    },
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "wall time of one pass over the workload's ops: lower quartile over the run's passes",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median latency of one op (kernel compile / request / spec build) within a pass: lower quartile over passes",
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "95th percentile op latency (nearest rank) within a pass: lower quartile over passes",
    },
    EndToEnd {
        name: "op_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "99th percentile op latency within a pass (>= 10 samples beyond it only on serve_mixed, 4000 ops a pass; on suite_cold it is idct8's compile): lower quartile over passes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "VmHWM of the workload process when the first measured pass ends",
    },
    EndToEnd {
        name: "speedup_geomean",
        unit: "x",
        better: "higher",
        bound: 0.01,
        what: "geomean over kernels of baseline / vegen modeled cycles (the paper's Fig. 10 number); exact for a given corpus",
    },
    EndToEnd {
        name: "vectorized_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
        what: "kernels whose vegen program has at least one vector op / kernels; exact for a given corpus",
    },
    EndToEnd {
        name: "code_insts",
        unit: "count",
        better: "lower",
        bound: 0.02,
        what: "total VM instructions in the emitted vegen programs; exact for a given corpus",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower", moves }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "higher", moves }
}

const IR: &str = "op_p50_ms on serve_mixed (hit path); pass_s on corpus_cold";
const OFFLINE: &str = "pass_s, op_p* on offline_build; setup_s elsewhere";
const MATCH: &str = "pass_s on offline_build and corpus_cold";
const CORE: &str =
    "pass_s, op_p95_ms on suite_cold and corpus_cold; op_p99_ms on serve_mixed; nothing on offline_build";
const CODEGEN: &str = "pass_s on corpus_cold; code_insts, speedup_geomean";
const ANALYSIS: &str = "pass_s on corpus_cold and offline_build";
const BASELINE: &str = "pass_s on corpus_cold; denominator of speedup_geomean";
const DRIVER: &str = "pass_s on suite_cold and corpus_cold";
const ENGINE: &str = "op_p50_ms, op_p95_ms, pass_s on serve_mixed; nothing on suite_cold";
const TRACE: &str = "op_p50_ms on serve_mixed; pass_s on suite_cold";

/// Per-layer metrics. Times are sums over one pass (median over the
/// traced passes) unless the name says p50/max; a metric a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    lower("ir.canon_us", "us", IR),
    lower("ir.insts_in", "count", IR),
    lower("ir.insts_out", "count", IR),
    lower("ir.interp_us", "us", IR),
    lower("kernels.generate_us", "us", "setup_s"),
    lower("pseudo.parse_us", "us", OFFLINE),
    lower("pseudo.eval_us", "us", OFFLINE),
    lower("pseudo.simplify_us", "us", OFFLINE),
    lower("pseudo.lift_us", "us", OFFLINE),
    lower("pseudo.validate_us", "us", OFFLINE),
    lower("pseudo.formula_nodes_raw", "count", OFFLINE),
    lower("pseudo.formula_nodes_simplified", "count", OFFLINE),
    lower("vidl.check_us", "us", OFFLINE),
    lower("vidl.roundtrip_us", "us", OFFLINE),
    lower("isa.spec_build_ms", "ms", OFFLINE),
    higher("isa.specs_built", "count", OFFLINE),
    lower("match.target_desc_build_ms", "ms", MATCH),
    higher("match.rules", "count", MATCH),
    higher("match.ops", "count", MATCH),
    lower("match.table_build_us", "us", MATCH),
    lower("core.ctx_build_us", "us", CORE),
    lower("core.select_us", "us", CORE),
    lower("core.freeze_us", "us", CORE),
    lower("core.merge_us", "us", CORE),
    lower("core.search_us", "us", CORE),
    lower("core.us_per_state", "us", CORE),
    lower("core.select_max_ms", "ms", CORE),
    lower("core.states_expanded", "count", CORE),
    lower("core.transitions", "count", CORE),
    higher("core.dedup_hits", "count", CORE),
    higher("core.tt_hit_ratio", "ratio", CORE),
    higher("core.producer_hit_ratio", "ratio", CORE),
    lower("core.interned_operands", "count", CORE),
    lower("core.interned_packs", "count", CORE),
    higher("core.packs_committed", "count", CORE),
    lower("core.width1_select_us", "us", CORE),
    higher("core.beam_threads_speedup", "x", CORE),
    lower("codegen.lower_us", "us", CODEGEN),
    lower("codegen.vm_insts", "count", CODEGEN),
    higher("codegen.vector_ops", "count", CODEGEN),
    lower("codegen.verify_us", "us", CODEGEN),
    lower("vm.exec_us", "us", CODEGEN),
    lower("vm.static_cycles", "count", CODEGEN),
    lower("analysis.kernel_us", "us", ANALYSIS),
    higher("analysis.lanes_proved", "count", ANALYSIS),
    lower("analysis.speccheck_ms", "ms", ANALYSIS),
    higher("analysis.spec_lanes_proved", "count", ANALYSIS),
    lower("analysis.spec_lanes_validated", "count", ANALYSIS),
    lower("baseline.vectorize_us", "us", BASELINE),
    higher("baseline.trees", "count", BASELINE),
    lower("driver.compile_us", "us", DRIVER),
    lower("driver.unattributed_frac", "ratio", DRIVER),
    lower("engine.hash_us", "us", ENGINE),
    lower("engine.mem_hit_us", "us", ENGINE),
    lower("engine.batch_overhead_frac", "ratio", ENGINE),
    higher("engine.pool_speedup", "x", ENGINE),
    lower("engine.serdes_encode_us", "us", ENGINE),
    lower("engine.serdes_decode_us", "us", ENGINE),
    lower("engine.entry_bytes", "B", ENGINE),
    lower("engine.disk_store_us", "us", ENGINE),
    lower("engine.disk_load_us", "us", ENGINE),
    lower("engine.serve_ping_us", "us", ENGINE),
    lower("engine.serve_mem_hit_p50_us", "us", ENGINE),
    lower("engine.serve_disk_hit_p50_us", "us", ENGINE),
    lower("engine.serve_miss_p50_ms", "ms", ENGINE),
    lower("engine.serve_request_bytes", "B", ENGINE),
    higher("engine.mem_hits", "count", ENGINE),
    lower("engine.disk_hits", "count", ENGINE),
    lower("engine.misses", "count", ENGINE),
    lower("engine.disk_stores", "count", ENGINE),
    lower("engine.evicted", "count", ENGINE),
    lower("engine.shed", "count", ENGINE),
    higher("trace.json_parse_mb_s", "MB/s", TRACE),
    higher("trace.json_render_mb_s", "MB/s", TRACE),
    lower("trace.enabled_overhead_frac", "ratio", TRACE),
    lower(
        "bench.trace_overhead_frac",
        "ratio",
        "pass_s everywhere (harness cost, not product cost)",
    ),
];

/// Named metric values of one run, in table order. Setting a name the
/// table lacks is a harness bug and panics.
pub struct Metrics {
    names: Vec<(&'static str, &'static str)>,
    values: Vec<f64>,
}

impl Metrics {
    pub fn end_to_end() -> Metrics {
        Metrics::over(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    pub fn per_layer() -> Metrics {
        Metrics::over(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    }

    fn over(names: Vec<(&'static str, &'static str)>) -> Metrics {
        let values = vec![0.0; names.len()];
        Metrics { names, values }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the ledger tables"));
        self.values[at] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.names.iter().zip(&self.values).map(|((n, u), v)| (*n, *u, *v))
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the contract's shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(n, u, v)| {
                    (n.to_string(), Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]))
                })
                .collect(),
        )
    }
}

/// The `BENCHMARK.json` these tables describe.
pub fn manifest() -> Json {
    // The driver appends `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::str)
    .collect();
    Json::obj([
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_fit_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
            assert!(names.insert(w.name));
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{name}");
            assert!(well_formed(unit, 16, "_/%.-"), "{name}: {unit}");
            assert!(names.insert(name), "{name} is used twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(manifest().render().len() < 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "not in the ledger tables")]
    fn unknown_metric_names_are_rejected() {
        Metrics::end_to_end().set("made_up", 1.0);
    }
}
