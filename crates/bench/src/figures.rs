//! Generators for the paper's figures (E2–E6, E12) as report tables.

use crate::report::{fmt_secs, Table};
use redsim_controlplane::{
    admin_op_durations, patch::simulate_patching, simulate_availability, tickets::simulate_fleet,
    AvailabilityConfig, FleetConfig, PatchConfig, PricingModel, ProvisioningModel,
};
use redsim_core::{Cluster, ClusterConfig};
use redsim_replication::SnapshotKind;
use std::time::Instant;

/// Figure 1 — the data analysis gap. The paper cites enterprise data
/// growing 30–60% CAGR against warehouse capacity tracking the DW market's
/// 8–11% CAGR; the gap (the "dark data") widens every year.
pub fn figure1_gap() -> Table {
    let mut t = Table::new(
        "Figure 1 — Data Analysis Gap in the Enterprise (relative units, 1990 = 1.0)",
        &["year", "enterprise_data", "data_in_warehouse", "dark_fraction"],
    );
    let mut enterprise: f64 = 1.0;
    let mut warehouse: f64 = 0.8;
    for year in 1990..=2020 {
        if year % 2 == 0 {
            let dark = 1.0 - (warehouse / enterprise).min(1.0);
            t.row(&[
                year.to_string(),
                format!("{enterprise:.1}"),
                format!("{:.1}", warehouse.min(enterprise)),
                format!("{:.0}%", dark * 100.0),
            ]);
        }
        // Enterprise data CAGR ramps 30% → 60% (the paper's §1 narrative);
        // warehouse capacity follows the DW market at ~10%.
        let data_growth = 0.30 + 0.30 * ((year - 1990) as f64 / 30.0);
        enterprise *= 1.0 + data_growth;
        warehouse *= 1.10;
    }
    t
}

/// Figure 2 — admin operation durations at 2/16/128 nodes.
pub fn figure2_admin_ops(seed: u64) -> Table {
    let mut t = Table::new(
        "Figure 2 — Time to Deploy and Manage a Cluster (simulated control plane)",
        &["nodes", "operation", "clicks", "duration"],
    );
    for r in admin_op_durations(&[2, 16, 128], seed) {
        t.row(&[
            r.nodes.to_string(),
            r.op.label().to_string(),
            fmt_secs(r.click_time.as_secs_f64()),
            fmt_secs(r.duration.as_secs_f64()),
        ]);
    }
    t
}

/// Figure 4 — cumulative features deployed over two years, plus the §5
/// patch-cadence ablation.
pub fn figure4_features(seed: u64) -> (Table, Table) {
    let sim = simulate_patching(&PatchConfig::default(), seed);
    let mut t = Table::new(
        "Figure 4 — Cumulative features deployed over time (biweekly reversible patches)",
        &["week", "features_shipped"],
    );
    for (week, shipped) in sim.cumulative_features.iter().step_by(8) {
        t.row(&[week.to_string(), shipped.to_string()]);
    }
    if let Some(last) = sim.cumulative_features.last() {
        t.row(&[last.0.to_string(), last.1.to_string()]);
    }

    let mut c = Table::new(
        "§5 — release cadence vs failed-patch probability (40-seed mean)",
        &["cadence_weeks", "failure_rate", "features_per_week"],
    );
    for weeks in [1u32, 2, 4, 8] {
        let mut rate = 0.0;
        let mut fpw = 0.0;
        for s in 0..40 {
            let sim = simulate_patching(
                &PatchConfig { cadence_weeks: weeks, ..Default::default() },
                seed + s,
            );
            rate += sim.failure_rate();
            fpw += sim.features_per_week();
        }
        c.row(&[
            weeks.to_string(),
            format!("{:.1}%", rate / 40.0 * 100.0),
            format!("{:.2}", fpw / 40.0),
        ]);
    }
    (t, c)
}

/// Figure 5 — Sev2 tickets per cluster over a growing fleet.
pub fn figure5_tickets(seed: u64) -> Table {
    let sim = simulate_fleet(&FleetConfig::default(), seed);
    let mut t = Table::new(
        "Figure 5 — Tickets per cluster over time (Pareto top-cause extinguishing, growing fleet)",
        &["week", "clusters", "tickets", "tickets_per_cluster"],
    );
    for w in sim.weeks.iter().step_by(8) {
        t.row(&[
            w.week.to_string(),
            format!("{:.0}", w.clusters),
            format!("{:.1}", w.tickets),
            format!("{:.4}", w.tickets_per_cluster),
        ]);
    }
    t
}

/// E6 — provisioning time: cold vs warm pool, by cluster size (§3.1's
/// "15 minutes → 3 minutes").
pub fn e6_provisioning(seed: u64) -> Table {
    let m = ProvisioningModel::default();
    let mut t = Table::new(
        "E6 — Cluster provisioning time (200 runs; mean and p99)",
        &["nodes", "cold_mean", "cold_p99", "warm_mean", "warm_p99", "speedup"],
    );
    for nodes in [2u32, 16, 128] {
        let cold = m.percentiles(nodes, None, 200, seed);
        let warm = m.percentiles(nodes, Some(nodes * 4), 200, seed);
        t.row(&[
            nodes.to_string(),
            format!("{:.1}min", cold.mean),
            format!("{:.1}min", cold.p99),
            format!("{:.1}min", warm.mean),
            format!("{:.1}min", warm.p99),
            format!("{:.1}x", cold.mean / warm.mean),
        ]);
    }
    t
}

/// §1/§3.1 — the pricing story.
pub fn pricing_table() -> Table {
    use redsim_controlplane::pricing::{Commitment, NodeType};
    let m = PricingModel;
    let mut t = Table::new(
        "Pricing — §1's \"$1000/TB/year\" and \"$0.25/hour\" claims",
        &["node_type", "nodes", "commitment", "hourly", "$/TB/year"],
    );
    for (nt, label) in [(NodeType::DW2Large, "dw2.large"), (NodeType::DW1XLarge, "dw1.xlarge")] {
        for (c, cl) in [(Commitment::OnDemand, "on-demand"), (Commitment::Reserved3Year, "3yr-reserved")]
        {
            let q = m.quote(nt, 8, c);
            t.row(&[
                label.to_string(),
                "8".to_string(),
                cl.to_string(),
                format!("${:.2}", q.hourly),
                format!("${:.0}", q.dollars_per_tb_year),
            ]);
        }
    }
    t
}

/// §5 "escalators, not elevators": a year of node failures over a fleet,
/// absorbed by replicas + warm-pool replacement. Varies the re-replication
/// window to show the exposure trade-off.
pub fn escalators_table(seed: u64) -> Table {
    let mut t = Table::new(
        "§5 — Escalators, not elevators: fleet availability under node failures (1 year, 500 clusters x 8 nodes)",
        &["rereplication_window", "node_failures", "absorbed", "availability_losses", "fleet_availability"],
    );
    for (label, secs) in [("5min", 300.0), ("20min", 1_200.0), ("4h", 14_400.0), ("24h", 86_400.0)] {
        let r = simulate_availability(
            AvailabilityConfig { rereplicate_secs: secs, ..Default::default() },
            seed,
        );
        t.row(&[
            label.to_string(),
            r.node_failures.to_string(),
            r.degraded_events.to_string(),
            r.availability_losses.to_string(),
            format!("{:.5}%", r.availability * 100.0),
        ]);
    }
    t
}

/// E12 — streaming restore: time-to-first-query vs full hydration, and
/// query service during hydration (functional, wall-clock).
pub fn e12_streaming_restore(rows: usize) -> redsim_common::Result<Table> {
    let cluster = Cluster::launch(ClusterConfig::new("e12").nodes(2).slices_per_node(2))?;
    cluster.execute(
        "CREATE TABLE t (k BIGINT, payload VARCHAR) DISTKEY(k) COMPOUND SORTKEY(k)",
    )?;
    let mut csv = String::new();
    for i in 0..rows {
        csv.push_str(&format!("{i},payload-{}-{}\n", i % 97, "x".repeat(40)));
    }
    cluster.put_s3_object("d/1", csv.into_bytes());
    cluster.execute("COPY t FROM 's3://d/'")?;
    cluster.create_snapshot("s", SnapshotKind::User)?;

    let t0 = Instant::now();
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("e12r").nodes(2).slices_per_node(2),
        std::sync::Arc::clone(cluster.s3()),
        "us-east-1",
        "e12",
        "s",
        None,
    )?;
    let open_secs = t0.elapsed().as_secs_f64();
    // Opening reads metadata and the catalog only: no block is faulted.
    let faults_at_open = restored.restore_page_faults();
    // Working-set query during hydration (page-faults what it needs).
    let t1 = Instant::now();
    let r = restored.query("SELECT COUNT(*) FROM t WHERE k < 100")?;
    let first_query_secs = t1.elapsed().as_secs_f64();
    assert_eq!(r.rows[0].get(0).as_i64(), Some(100));
    let progress_at_first_query = restored.hydration_progress();
    let t2 = Instant::now();
    while restored.hydrate_step(64)? > 0 {}
    let hydrate_secs = t2.elapsed().as_secs_f64();

    let mut t = Table::new(
        "E12 — Streaming restore: SQL service before hydration completes",
        &["metric", "value"],
    );
    t.row(&["rows in snapshot".into(), rows.to_string()]);
    t.row(&["open for SQL after".into(), fmt_secs(open_secs)]);
    t.row(&["page faults before first query".into(), faults_at_open.to_string()]);
    t.row(&["first (working-set) query".into(), fmt_secs(first_query_secs)]);
    t.row(&[
        "hydration at first query".into(),
        format!("{:.0}%", progress_at_first_query * 100.0),
    ]);
    t.row(&["background hydration".into(), fmt_secs(hydrate_secs)]);
    t.row(&["page faults served".into(), restored.restore_page_faults().to_string()]);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_gap_widens() {
        let t = figure1_gap();
        let text = t.render();
        assert!(text.contains("2020"));
        // The last row's dark fraction dominates.
        let last = text.lines().last().unwrap();
        let pct: f64 = last
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(pct > 80.0, "dark data dominates by 2020: {pct}%");
    }

    #[test]
    fn figure_tables_render() {
        assert!(figure2_admin_ops(1).render().contains("Backup"));
        let (f4, cadence) = figure4_features(1);
        assert!(f4.render().contains("104"));
        assert!(cadence.render().contains("cadence"));
        assert!(figure5_tickets(1).render().contains("tickets_per_cluster"));
        assert!(e6_provisioning(1).render().contains("speedup"));
        assert!(pricing_table().render().contains("$0.25"));
    }

    #[test]
    fn e12_restore_serves_early() {
        let t = e12_streaming_restore(5_000).unwrap();
        let text = t.render();
        assert!(text.contains("page faults"));
    }
}
