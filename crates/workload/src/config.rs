//! Workload parameterization: who the tenants are, when they arrive,
//! and what each query class runs.
//!
//! The model follows Redbench's decomposition of cloud-trace workloads
//! (PAPERS.md: "Workload Synthesis From Cloud Traces"): a tenant
//! population with heavy-tailed activity, per-class arrival curves
//! (diurnal base + bursts), and repeat-query skew — dashboards refresh
//! the same panels over and over (result-cache home turf), ETL runs a
//! small fixed set of transforms plus a COPY cadence, ad-hoc never
//! repeats. Everything is derived from one `seed`, so a config is a
//! complete, reproducible description of a fleet's day.

use redsim_core::{WlmConfig, WlmQueueDef};
use redsim_simkit::SimTime;
use std::time::Duration;

/// The three query classes of the paper's mixed fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryClass {
    /// BI panels: short, repeat-heavy, latency-sensitive. Sessions carry
    /// no user group, so they route by leader cost (logical rows ×
    /// tables). `fleet()`'s SQA ceiling is 60,000 units, so a panel over
    /// the benchmark's 200,000-row `events` lands in `default`, not the
    /// `sqa` class (`core.wlm_sqa_share` reads 0).
    Dashboard,
    /// Scheduled transforms + the COPY cadence; routed to the `etl`
    /// queue by user group.
    Etl,
    /// Exploratory one-offs: never the same text twice (worst case for
    /// the plan/result caches); routed to the `adhoc` queue.
    AdHoc,
}

impl QueryClass {
    pub const ALL: [QueryClass; 3] = [QueryClass::Dashboard, QueryClass::Etl, QueryClass::AdHoc];

    pub fn as_str(self) -> &'static str {
        match self {
            QueryClass::Dashboard => "dashboard",
            QueryClass::Etl => "etl",
            QueryClass::AdHoc => "adhoc",
        }
    }

    /// The WLM user group the class's sessions connect with. Dashboards
    /// have none: they route by cost, so a panel under the SQA ceiling
    /// takes an `sqa` slot when one is free. (SQA comes before the
    /// user-group match, so a grouped query under the ceiling rides it
    /// too.)
    pub fn user_group(self) -> Option<&'static str> {
        match self {
            QueryClass::Dashboard => None,
            QueryClass::Etl => Some("etl_users"),
            QueryClass::AdHoc => Some("adhoc_users"),
        }
    }
}

/// A non-homogeneous arrival-rate curve: a diurnal cosine over the
/// 24-hour day, optionally multiplied up during Poisson-started bursts.
/// Rates are fleet-wide (arrivals per virtual hour across all tenants).
#[derive(Debug, Clone)]
pub struct ArrivalCurve {
    /// Mean arrivals per virtual hour at the diurnal midpoint.
    pub per_hour: f64,
    /// Peak-to-midpoint swing, `0.0..1.0` (0 = flat).
    pub diurnal_amplitude: f64,
    /// Hour-of-day of the diurnal peak, `0.0..24.0`.
    pub peak_hour: f64,
    /// Expected burst starts per virtual hour (0 = no bursts).
    pub burst_per_hour: f64,
    /// Rate multiplier while a burst is active.
    pub burst_mult: f64,
    /// Burst length in virtual minutes.
    pub burst_mins: f64,
}

impl ArrivalCurve {
    /// Constant rate, no bursts.
    pub fn flat(per_hour: f64) -> ArrivalCurve {
        ArrivalCurve {
            per_hour,
            diurnal_amplitude: 0.0,
            peak_hour: 0.0,
            burst_per_hour: 0.0,
            burst_mult: 1.0,
            burst_mins: 0.0,
        }
    }

    /// Diurnal cosine with the given amplitude and peak hour.
    pub fn diurnal(per_hour: f64, amplitude: f64, peak_hour: f64) -> ArrivalCurve {
        ArrivalCurve { diurnal_amplitude: amplitude.clamp(0.0, 1.0), peak_hour, ..Self::flat(per_hour) }
    }

    /// Builder: add bursts on top of the diurnal base.
    pub fn bursts(mut self, per_hour: f64, mult: f64, mins: f64) -> ArrivalCurve {
        self.burst_per_hour = per_hour;
        self.burst_mult = mult.max(1.0);
        self.burst_mins = mins;
        self
    }

    /// Diurnal rate (per hour) at `hour_of_day`, burst factor excluded.
    pub fn rate_at(&self, hour_of_day: f64) -> f64 {
        let phase = (hour_of_day - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        self.per_hour * (1.0 + self.diurnal_amplitude * phase.cos())
    }

    /// Upper bound on the instantaneous rate (thinning envelope).
    pub fn max_rate(&self) -> f64 {
        self.per_hour * (1.0 + self.diurnal_amplitude) * self.burst_mult.max(1.0)
    }
}

/// One query class's generation parameters.
#[derive(Debug, Clone)]
pub struct ClassConfig {
    pub class: QueryClass,
    pub arrival: ArrivalCurve,
    /// Distinct query templates in the class's repeat pool; `0` means
    /// every generated statement has unique text (ad-hoc).
    pub repeat_pool: usize,
    /// Zipf skew over the repeat pool (and over which template a tenant
    /// refreshes): higher = more repeat-heavy = more cache hits.
    pub zipf_skew: f64,
    /// Emit a COPY this often (ETL's load cadence); `None` = no loads.
    pub copy_every: Option<SimTime>,
    /// Rows per emitted COPY object.
    pub copy_rows: u32,
}

/// The full fleet description. `synthesize` turns one of these plus its
/// `seed` into a byte-identical [`crate::Schedule`] every time.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub seed: u64,
    /// Tenant population; tenant activity is Zipf(`tenant_skew`)-skewed
    /// (a few big customers dominate, a long tail idles).
    pub tenants: u32,
    pub tenant_skew: f64,
    /// Virtual-time horizon of the schedule.
    pub horizon: SimTime,
    /// Position on the diurnal curve at t=0 (hour of day).
    pub start_hour: f64,
    /// WLM: cost ceiling for the `sqa` class (leader cost units — logical
    /// rows × tables referenced).
    pub sqa_max_cost: u64,
    pub classes: Vec<ClassConfig>,
}

impl WorkloadConfig {
    /// The standing fleet mix: repeat-heavy diurnal dashboards, a
    /// night-peaking ETL band with a COPY cadence, bursty ad-hoc. Rates
    /// are sized so the default 30-minute horizon yields a few thousand
    /// statements.
    pub fn fleet(tenants: u32) -> WorkloadConfig {
        WorkloadConfig {
            seed: 0xF1EE7,
            tenants: tenants.max(1),
            tenant_skew: 1.05,
            horizon: SimTime::from_mins(30),
            start_hour: 13.0,
            sqa_max_cost: 60_000,
            classes: vec![
                ClassConfig {
                    class: QueryClass::Dashboard,
                    arrival: ArrivalCurve::diurnal(4_000.0, 0.6, 14.0),
                    repeat_pool: 40,
                    zipf_skew: 1.1,
                    copy_every: None,
                    copy_rows: 0,
                },
                ClassConfig {
                    class: QueryClass::Etl,
                    arrival: ArrivalCurve::diurnal(500.0, 0.3, 2.0),
                    repeat_pool: 12,
                    zipf_skew: 0.8,
                    copy_every: Some(SimTime::from_mins(2)),
                    copy_rows: 1_000,
                },
                ClassConfig {
                    class: QueryClass::AdHoc,
                    arrival: ArrivalCurve::diurnal(800.0, 0.5, 11.0).bursts(4.0, 3.0, 2.0),
                    repeat_pool: 0,
                    zipf_skew: 0.0,
                    copy_every: None,
                    copy_rows: 0,
                },
            ],
        }
    }

    /// A small fleet for tests: fewer tenants, a short horizon,
    /// scaled-down rates — tens to a few hundred statements.
    pub fn quick(tenants: u32) -> WorkloadConfig {
        Self::fleet(tenants).horizon(SimTime::from_mins(5)).scaled(0.1)
    }

    pub fn with_seed(mut self, s: u64) -> WorkloadConfig {
        self.seed = s;
        self
    }

    pub fn horizon(mut self, h: SimTime) -> WorkloadConfig {
        self.horizon = h;
        self
    }

    /// Scale every class's arrival rate (and burst frequency) by `f` —
    /// the knob between "quick CI case" and "stress the queues".
    pub fn scaled(mut self, f: f64) -> WorkloadConfig {
        for c in &mut self.classes {
            c.arrival.per_hour *= f;
            c.arrival.burst_per_hour *= f;
        }
        self
    }

    /// The recommended WLM layout for this fleet: user-group queues for
    /// ETL and ad-hoc, a catch-all, and an `sqa` class for SELECTs whose
    /// leader cost (logical rows × tables referenced) is at most
    /// `sqa_max_cost`. The benchmark runs every workload under this
    /// layout from `fleet(1)`; its tables make every SELECT cost more
    /// than the 60,000-unit ceiling, so each one routes to `default`
    /// (or its group's queue) and `core.wlm_sqa_share` reads 0. Waits
    /// are generous (60 s) so a loaded run is not cut by evictions.
    pub fn wlm(&self) -> WlmConfig {
        WlmConfig::with_queues(vec![
            WlmQueueDef::new("etl", 4)
                .user_group("etl_users")
                .max_wait(Duration::from_secs(60)),
            WlmQueueDef::new("adhoc", 6)
                .user_group("adhoc_users")
                .max_wait(Duration::from_secs(60)),
            WlmQueueDef::new("default", 8).max_wait(Duration::from_secs(60)),
        ])
        .sqa(self.sqa_max_cost, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_curve_shapes() {
        let c = ArrivalCurve::diurnal(1_000.0, 0.5, 14.0);
        assert!((c.rate_at(14.0) - 1_500.0).abs() < 1e-6, "peak at peak_hour");
        assert!((c.rate_at(2.0) - 500.0).abs() < 1e-6, "trough 12h away");
        assert_eq!(c.max_rate(), 1_500.0);
        let b = c.bursts(2.0, 3.0, 5.0);
        assert_eq!(b.max_rate(), 4_500.0);
        let flat = ArrivalCurve::flat(100.0);
        assert_eq!(flat.rate_at(0.0), flat.rate_at(12.0));
    }

    #[test]
    fn fleet_config_is_self_consistent() {
        let cfg = WorkloadConfig::fleet(1_000);
        assert_eq!(cfg.classes.len(), 3);
        let wlm = cfg.wlm();
        assert_eq!(wlm.queues.len(), 3);
        // Scaling touches rates only.
        let scaled = cfg.clone().scaled(0.5);
        assert_eq!(scaled.classes[0].arrival.per_hour, cfg.classes[0].arrival.per_hour * 0.5);
        assert_eq!(scaled.classes[0].repeat_pool, cfg.classes[0].repeat_pool);
    }
}
