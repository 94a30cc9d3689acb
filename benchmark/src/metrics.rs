//! The metric tables. `BENCHMARK.json` carries the same names, units,
//! directions and bounds for the driver; a unit test keeps the two in
//! step. What each metric means, and which end-to-end metric each layer
//! metric should move, is in `benchmark/README.md`.

use crate::data::{ADHOC_FAMILIES, STAR_FAMILIES};
use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Measured with tracing off, on every workload. Latency and rate are
/// taken over the workload's primary statement class (COPY on
/// `etl_load`, SELECT on the others); the other class is reported as
/// `client.*` in the traced run. Each bound is at least three times the
/// widest spread (quartile distance over median, ten seeds) seen on any
/// workload — see the spread table in the README — where 25% allows it.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "stmt_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_ms_per_stmt",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.01,
    },
];

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Taken in the traced run. A layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<PerLayer> {
    let fixed: [(&str, &str, Better); 52] = [
        ("frontdoor.ping_rtt_us", "us", Lower),
        ("frontdoor.wire_overhead_us", "us", Lower),
        ("frontdoor.encode_rows_us_per_krow", "us", Lower),
        ("frontdoor.decode_rows_us_per_krow", "us", Lower),
        ("frontdoor.connect_us", "us", Lower),
        ("core.result_cache_hit_us", "us", Lower),
        ("core.result_cache_hit_rate", "ratio", Higher),
        ("core.wlm_admit_us", "us", Lower),
        ("core.wlm_queue_wait_p95_ms", "ms", Lower),
        ("core.wlm_sqa_share", "ratio", Higher),
        ("core.plan_cache_hit_rate", "ratio", Higher),
        ("core.leader_other_us", "us", Lower),
        ("core.copy_us_per_krow", "us", Lower),
        ("core.ddl_us", "us", Lower),
        ("core.txn_conflicts", "count", Lower),
        ("core.write_retries", "count", Lower),
        ("core.recover_ms", "ms", Lower),
        ("core.crash_wal_bytes", "bytes", Lower),
        ("sql.parse_us", "us", Lower),
        ("sql.plan_us", "us", Lower),
        ("engine.compile_us", "us", Lower),
        ("engine.rows_scanned_per_s", "rows/s", Higher),
        ("engine.rows_examined_per_row_returned", "ratio", Lower),
        ("engine.kernel_filter_ns_per_row", "ns", Lower),
        ("engine.interp_filter_ns_per_row", "ns", Lower),
        ("engine.exchange_bytes_per_stmt", "bytes", Lower),
        ("storage.decode_ns_per_value", "ns", Lower),
        ("storage.encode_ns_per_value", "ns", Lower),
        ("storage.zonemap_skip_share", "ratio", Higher),
        ("storage.blocks_read_per_stmt", "count", Lower),
        ("storage.bytes_read_per_stmt", "bytes", Lower),
        ("storage.wal_commit_us", "us", Lower),
        ("storage.wal_bytes_per_user_byte", "ratio", Lower),
        ("replication.mirror_put_us", "us", Lower),
        ("replication.s3_put_us", "us", Lower),
        ("replication.s3_get_us", "us", Lower),
        ("replication.backup_backlog_blocks", "count", Lower),
        ("replication.backup_drain_ms", "ms", Lower),
        ("replication.s3_bytes_per_user_byte", "ratio", Lower),
        ("distribution.route_ns_per_row", "ns", Lower),
        ("obs.traced_slowdown", "ratio", Lower),
        ("obs.records_dropped", "count", Lower),
        ("client.read_samples", "count", Higher),
        ("client.write_samples", "count", Higher),
        ("client.gen_cpu_share", "ratio", Lower),
        ("client.read_p50_ms", "ms", Lower),
        ("client.read_p95_ms", "ms", Lower),
        ("client.reads_per_s", "1/s", Higher),
        ("client.write_p50_ms", "ms", Lower),
        ("client.write_p95_ms", "ms", Lower),
        ("client.rows_loaded_per_s", "rows/s", Higher),
        ("client.failed_share", "ratio", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.into(),
            unit,
            better,
        })
        .collect();
    for family in ADHOC_FAMILIES.iter().chain(STAR_FAMILIES.iter()) {
        out.push(PerLayer {
            name: format!("engine.exec_ms.{family}"),
            unit: "ms",
            better: Lower,
        });
    }
    out
}

/// The text of `BENCHMARK.json`: the contract the driver reads, written
/// from the tables above (`rsbench --print-benchmark-json`), so the two
/// cannot drift apart.
pub fn benchmark_json() -> String {
    let list = |items: Vec<Json>| -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.to_text()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let s = |x: &str| Json::Str(x.to_string());
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj(vec![("name", s(w.name())), ("why", s(w.why()))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj(vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let layers = per_layer();
    let per_layer = layers.iter().map(|m| {
        Json::obj(vec![
            ("name", s(&m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.as_str())),
        ])
    });
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        crate::DEFAULT_SECONDS,
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `rsbench --print-benchmark-json`"
        );
        let doc = Json::parse(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("per_layer").map(|p| p.items().len()),
            Some(per_layer().len())
        );
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }
}
