//! An Amazon-SWF-like workflow engine.
//!
//! Control-plane actions (provision, patch, resize, node replacement) are
//! sequences of idempotent steps with retries and timeouts, "coordinated
//! off-instance by a separate … control plane fleet" (§2.2).

use redsim_simkit::{SimRng, SimTime};

/// One workflow step's behaviour model.
#[derive(Debug, Clone)]
pub struct StepSpec {
    pub name: String,
    /// Nominal duration distribution (seconds).
    pub duration: redsim_simkit::Dist,
    /// Probability a single attempt fails.
    pub failure_prob: f64,
    /// Attempts before the workflow aborts.
    pub max_attempts: u32,
    /// Per-attempt timeout (seconds); attempts hitting it count as failed.
    pub timeout_secs: f64,
}

impl StepSpec {
    pub fn fixed(name: &str, secs: f64) -> StepSpec {
        StepSpec {
            name: name.into(),
            duration: redsim_simkit::Dist::Constant(secs),
            failure_prob: 0.0,
            max_attempts: 3,
            timeout_secs: f64::INFINITY,
        }
    }

    pub fn with_failure(mut self, p: f64) -> StepSpec {
        self.failure_prob = p;
        self
    }

    pub fn with_attempts(mut self, n: u32) -> StepSpec {
        self.max_attempts = n.max(1);
        self
    }
}

/// A sequence of steps.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    pub name: String,
    pub steps: Vec<StepSpec>,
}

impl Workflow {
    pub fn new(name: &str) -> Self {
        Workflow { name: name.into(), steps: Vec::new() }
    }

    pub fn step(mut self, s: StepSpec) -> Self {
        self.steps.push(s);
        self
    }
}

/// Outcome of one step.
#[derive(Debug, Clone)]
pub struct StepResult {
    pub name: String,
    pub attempts: u32,
    pub elapsed: SimTime,
    pub succeeded: bool,
}

/// Outcome of the whole workflow.
#[derive(Debug, Clone)]
pub struct WorkflowResult {
    pub name: String,
    pub steps: Vec<StepResult>,
    pub total: SimTime,
    pub succeeded: bool,
}

impl Workflow {
    /// Execute the workflow on virtual time.
    pub fn execute(&self, rng: &mut SimRng) -> WorkflowResult {
        let mut total = SimTime::ZERO;
        let mut steps = Vec::with_capacity(self.steps.len());
        for spec in &self.steps {
            let mut attempts = 0;
            let mut elapsed = SimTime::ZERO;
            let mut ok = false;
            while attempts < spec.max_attempts {
                attempts += 1;
                let d = spec.duration.sample(rng).max(0.0);
                let timed_out = d > spec.timeout_secs;
                let took = SimTime::from_secs_f64(d.min(spec.timeout_secs));
                elapsed += took;
                if !timed_out && !rng.chance(spec.failure_prob) {
                    ok = true;
                    break;
                }
                // Exponential backoff between retries (capped 60 s).
                let backoff = (2f64.powi(attempts as i32 - 1)).min(60.0);
                elapsed += SimTime::from_secs_f64(backoff);
            }
            total += elapsed;
            let failed_step = !ok;
            steps.push(StepResult { name: spec.name.clone(), attempts, elapsed, succeeded: ok });
            if failed_step {
                return WorkflowResult { name: self.name.clone(), steps, total, succeeded: false };
            }
        }
        WorkflowResult { name: self.name.clone(), steps, total, succeeded: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_simkit::Dist;

    #[test]
    fn all_steps_run_in_order() {
        let wf = Workflow::new("provision")
            .step(StepSpec::fixed("request", 10.0))
            .step(StepSpec::fixed("boot", 100.0))
            .step(StepSpec::fixed("configure", 50.0));
        let mut rng = SimRng::seeded(1);
        let r = wf.execute(&mut rng);
        assert!(r.succeeded);
        assert_eq!(r.steps.len(), 3);
        assert_eq!(r.total, SimTime::from_secs(160));
    }

    #[test]
    fn retries_until_success() {
        let wf = Workflow::new("flaky").step(
            StepSpec::fixed("s", 5.0).with_failure(0.5).with_attempts(50),
        );
        let mut rng = SimRng::seeded(2);
        let r = wf.execute(&mut rng);
        assert!(r.succeeded);
        assert!(r.steps[0].attempts >= 1);
        // Elapsed includes backoff when retries happened.
        if r.steps[0].attempts > 1 {
            assert!(r.total > SimTime::from_secs_f64(5.0 * r.steps[0].attempts as f64));
        }
    }

    #[test]
    fn aborts_after_max_attempts() {
        let wf = Workflow::new("doomed")
            .step(StepSpec::fixed("always-fails", 1.0).with_failure(1.0).with_attempts(3))
            .step(StepSpec::fixed("never-reached", 1.0));
        let mut rng = SimRng::seeded(3);
        let r = wf.execute(&mut rng);
        assert!(!r.succeeded);
        assert_eq!(r.steps.len(), 1, "later steps skipped");
        assert_eq!(r.steps[0].attempts, 3);
    }

    #[test]
    fn timeout_counts_as_failure() {
        let wf = Workflow::new("slow").step(
            StepSpec {
                name: "s".into(),
                duration: Dist::Constant(100.0),
                failure_prob: 0.0,
                max_attempts: 2,
                timeout_secs: 10.0,
            },
        );
        let mut rng = SimRng::seeded(4);
        let r = wf.execute(&mut rng);
        assert!(!r.succeeded);
        // Each attempt charged only up to the timeout.
        assert!(r.total < SimTime::from_secs(40));
    }

    #[test]
    fn deterministic_under_seed() {
        let wf = Workflow::new("w").step(
            StepSpec {
                name: "s".into(),
                duration: Dist::Uniform(1.0, 10.0),
                failure_prob: 0.3,
                max_attempts: 5,
                timeout_secs: f64::INFINITY,
            },
        );
        let a = wf.execute(&mut SimRng::seeded(7));
        let b = wf.execute(&mut SimRng::seeded(7));
        assert_eq!(a.total, b.total);
    }
}
