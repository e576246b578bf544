//! Sample sets, percentiles and the metric table a run prints.

use std::collections::BTreeMap;

/// Timing or count samples of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// The samples in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The `q`-quantile (0..=1) by linear interpolation between order
    /// statistics; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

impl From<&[f64]> for Samples {
    fn from(values: &[f64]) -> Samples {
        Samples(values.to_vec())
    }
}

/// The reference kernel's time at each boundary of a run's cycles:
/// `refs[i]` was measured just before cycle `i` and just after cycle
/// `i - 1`.
#[derive(Clone, Debug, Default)]
pub struct HostSpeed(pub Vec<f64>);

impl HostSpeed {
    /// Half-width, in cycles, of the window the host's speed around a
    /// cycle is taken over: one kernel run is noisy, while the host's
    /// speed drifts over tens of seconds.
    const HALF_WINDOW: usize = 8;

    /// The median kernel time over the boundaries within
    /// [`HostSpeed::HALF_WINDOW`] cycles of `cycle`.
    pub fn around(&self, cycle: usize) -> f64 {
        let last = self.0.len().saturating_sub(1);
        let lo = cycle.saturating_sub(Self::HALF_WINDOW).min(last);
        let hi = (cycle + 1 + Self::HALF_WINDOW).min(last);
        let mut window = Samples::default();
        for &r in &self.0[lo..=hi] {
            window.push(r);
        }
        window.median()
    }
}

/// Samples of one end-to-end quantity, each tagged with its cycle, so
/// that it can be scaled by the host's speed around that cycle.
#[derive(Clone, Debug, Default)]
pub struct Scaled {
    rate: bool,
    samples: Vec<(usize, f64)>,
}

impl Scaled {
    /// A duration: scaled down on a slow host.
    pub fn time() -> Scaled {
        Scaled::default()
    }

    /// A rate: scaled up on a slow host.
    pub fn rate() -> Scaled {
        Scaled {
            rate: true,
            samples: Vec::new(),
        }
    }

    pub fn push(&mut self, cycle: usize, value: f64) {
        self.samples.push((cycle, value));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The samples as measured.
    pub fn raw(&self) -> Samples {
        Samples(self.samples.iter().map(|&(_, v)| v).collect())
    }

    /// The samples scaled to the nominal host speed: a host `k` times
    /// slower than nominal around a sample's cycle has its durations
    /// divided and its rates multiplied by `k`.
    pub fn scaled(&self, speed: &HostSpeed) -> Samples {
        Samples(
            self.samples
                .iter()
                .map(|&(cycle, v)| {
                    let slowdown = speed.around(cycle) / crate::host::REF_NOMINAL_MS;
                    if self.rate {
                        v * slowdown
                    } else {
                        v / slowdown
                    }
                })
                .collect(),
        )
    }
}

/// Named metrics with units, printed in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut w = vadalog::obs::JsonWriter::new();
        w.open_object();
        for (name, (value, unit)) in &self.0 {
            w.key(name);
            w.open_object();
            // Every digit as measured: the writer's own float field
            // rounds to three decimals.
            w.key("value");
            w.raw(&if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            });
            w.field_str("unit", unit);
            w.close_object();
        }
        w.close_object();
        w.finish()
    }
}

#[cfg(test)]
impl Metrics {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.9), 4.6);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn scaling_follows_the_host_speed_around_each_cycle() {
        let nominal = crate::host::REF_NOMINAL_MS;
        let speed = HostSpeed(
            vec![nominal; 10]
                .into_iter()
                .chain(vec![2.0 * nominal; 20])
                .collect(),
        );
        assert_eq!(speed.around(0), nominal);
        assert_eq!(speed.around(25), 2.0 * nominal);
        let (mut time, mut rate) = (Scaled::time(), Scaled::rate());
        time.push(25, 10.0);
        rate.push(25, 10.0);
        assert_eq!(time.scaled(&speed).median(), 5.0);
        assert_eq!(rate.scaled(&speed).median(), 20.0);
        assert_eq!(time.raw().median(), 10.0);
    }
}
