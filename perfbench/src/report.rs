//! Metrics as printed: name, value, unit, and how the value was formed.

use crate::stats;

fn percentile(name: &str, samples: &[f64], p: f64) -> Result<f64, String> {
    stats::percentile(&stats::sorted(samples), p).ok_or(format!(
        "{name}: {} samples leave fewer than {} beyond p{}",
        samples.len(),
        stats::MIN_TAIL,
        p * 100.0
    ))
}

#[derive(Default)]
pub struct Report {
    pub rows: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.rows.push((name.to_string(), value, unit, note.into()));
    }

    /// The interquartile mean over rounds of each round's `p`-percentile.
    /// Every round must satisfy the percentile rule, or the metric is not
    /// reported.
    pub fn pct_rounds(
        &mut self,
        name: &str,
        rounds: &[Vec<f64>],
        p: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let per_round = rounds
            .iter()
            .map(|s| percentile(name, s, p))
            .collect::<Result<Vec<f64>, String>>()?;
        let counts: Vec<String> = rounds.iter().map(|s| s.len().to_string()).collect();
        let values: Vec<String> = per_round.iter().map(|v| format!("{v:.4}")).collect();
        self.put(
            name,
            stats::iqm(&per_round),
            unit,
            format!(
                "interquartile mean over {} rounds of {}, n={}",
                rounds.len(),
                values.join("/"),
                counts.join("/")
            ),
        );
        Ok(())
    }

    /// A percentile of one pooled sample under the percentile rule.
    pub fn pct(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let v = percentile(name, samples, p)?;
        self.put(name, v, unit, format!("pooled, n={}", samples.len()));
        Ok(())
    }

    /// Print every metric, then the result object as the last line.
    pub fn print(&self, correct: bool, attempted: usize, failed: usize) -> Result<(), String> {
        for (name, v, unit, note) in &self.rows {
            println!("metric {name} = {v} {unit} ({note})");
        }
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|(name, v, unit, _)| {
                if v.is_finite() {
                    Ok(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ))
                } else {
                    Err(format!("{name} is not finite"))
                }
            })
            .collect::<Result<_, _>>()?;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        Ok(())
    }
}
