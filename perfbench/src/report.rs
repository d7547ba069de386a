//! The result line: every metric by name with its unit, plus the
//! attempted and failed operation counts that give `failed_frac`.

/// One named, united measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why operations failed (the first few), for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Add the operations and failures of `other` to these.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// A run that attempted nothing counts as one failed operation.
    pub fn finish(&mut self) {
        if self.attempted == 0 {
            self.attempted = 1;
            self.fail("the workload attempted no operation".to_string());
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A run is correct when it attempted something, nothing failed and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable lines, one per metric.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{workload:<17} {:<34} {:>16.6} {}", m.name, m.value, m.unit))
            .collect();
        out.push(format!(
            "{workload:<17} {:<34} {:>16.6} {} ({} of {})",
            "failed_frac",
            self.failed_frac(),
            "frac",
            self.failed,
            self.attempted
        ));
        for f in &self.failures {
            out.push(format!("{workload:<17} failure: {f}"));
        }
        out
    }

    /// The JSON result object. Non-finite values are written as `null`
    /// (and make the run incorrect, see [`Outcome::correct`]).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
