//! Named metrics and the result line.

use std::collections::BTreeMap;

/// Metrics by name, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Set a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Every metric's name and unit.
    #[cfg(test)]
    pub fn units(&self) -> impl Iterator<Item = (&str, &'static str)> {
        self.values.iter().map(|(n, &(_, u))| (n.as_str(), u))
    }

    /// A metric's value, if set.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Keep only `names`, in that order, failing if one is missing.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &n in names {
            let &(v, u) = self
                .values
                .get(n)
                .ok_or_else(|| format!("metric {n} was not measured"))?;
            out.put(n, v, u);
        }
        Ok(out)
    }

    /// One JSON object: `{"name": {"value": v, "unit": "u"}, ...}`.
    /// A non-finite value (a tail made of failed operations) prints as
    /// the largest finite double, since JSON has no infinity.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, &(v, u))| {
                let v = if v.is_finite() { v } else { f64::MAX };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("tail_ms", f64::INFINITY, "ms");
        m.put("n", 3.0, "count");
        let line = result_line(
            true,
            10,
            1,
            &m.select(&["latency_ms", "n", "tail_ms"]).unwrap(),
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"tail_ms\": {\"value\": 1.7976931348623157e308, \"unit\": \"ms\"}}}"
        );
        assert!(m.select(&["missing"]).is_err());
    }
}
