//! Expected resource demand: the `Ũ^r_c[t]` series consumed by the
//! constraint and cost models.

use std::collections::BTreeMap;

/// Expected resource usage per component per time step, plus expected
//  per-edge traffic, over the period of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDemand {
    /// Length of one time step in seconds (the paper evaluates the cost
    /// every ten minutes; the cost model works with any step).
    pub step_s: u64,
    /// Number of time steps.
    pub steps: usize,
    /// Component names, defining the component index space.
    pub component_names: Vec<String>,
    /// Expected CPU cores: `cpu[component][step]`.
    pub cpu_cores: Vec<Vec<f64>>,
    /// Expected memory in GB: `memory_gb[component][step]`.
    pub memory_gb: Vec<Vec<f64>>,
    /// Expected storage in GB: `storage_gb[component][step]`.
    pub storage_gb: Vec<Vec<f64>>,
    /// Expected bytes transferred per step on each directed component edge:
    /// `edge_bytes[(from, to)][step]`. Ordered, because the cost model sums
    /// over this map: a hash map's per-process iteration order moved the
    /// last bits of `Q_Cost` from one run to the next.
    pub edge_bytes: BTreeMap<(usize, usize), Vec<f64>>,
}

impl ResourceDemand {
    /// Create an all-zero demand for `component_names` over `steps` steps.
    pub fn zeros(component_names: Vec<String>, steps: usize, step_s: u64) -> Self {
        let n = component_names.len();
        Self {
            step_s,
            steps,
            component_names,
            cpu_cores: vec![vec![0.0; steps]; n],
            memory_gb: vec![vec![0.0; steps]; n],
            storage_gb: vec![vec![0.0; steps]; n],
            edge_bytes: BTreeMap::new(),
        }
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.component_names.len()
    }

    /// Index of a component by name.
    pub fn component_index(&self, name: &str) -> Option<usize> {
        self.component_names.iter().position(|n| n == name)
    }

    /// Total duration covered, in seconds.
    pub fn duration_s(&self) -> u64 {
        self.step_s * self.steps as u64
    }

    /// Sum of expected CPU cores of a subset of components at a step.
    pub fn cpu_sum_at(&self, components: impl IntoIterator<Item = usize>, step: usize) -> f64 {
        components
            .into_iter()
            .map(|c| self.cpu_cores[c][step])
            .sum()
    }

    /// Peak (over steps) of the summed CPU demand of a subset of components.
    pub fn peak_cpu(&self, components: &[usize]) -> f64 {
        (0..self.steps)
            .map(|t| self.cpu_sum_at(components.iter().copied(), t))
            .fold(0.0, f64::max)
    }

    /// Peak (over steps) of the summed memory demand of a subset.
    pub fn peak_memory_gb(&self, components: &[usize]) -> f64 {
        (0..self.steps)
            .map(|t| {
                components
                    .iter()
                    .map(|&c| self.memory_gb[c][t])
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Peak (over steps) of the summed storage demand of a subset.
    pub fn peak_storage_gb(&self, components: &[usize]) -> f64 {
        (0..self.steps)
            .map(|t| {
                components
                    .iter()
                    .map(|&c| self.storage_gb[c][t])
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Total bytes expected on a directed edge over the whole period.
    pub fn total_edge_bytes(&self, from: usize, to: usize) -> f64 {
        self.edge_bytes
            .get(&(from, to))
            .map_or(0.0, |v| v.iter().sum())
    }

    /// Set a constant value for a component's whole CPU series.
    pub fn fill_cpu(&mut self, component: usize, cores: f64) {
        self.cpu_cores[component] = vec![cores; self.steps];
    }

    /// Set a constant value for a component's whole memory series.
    pub fn fill_memory(&mut self, component: usize, gb: f64) {
        self.memory_gb[component] = vec![gb; self.steps];
    }

    /// Set a constant value for a component's whole storage series.
    pub fn fill_storage(&mut self, component: usize, gb: f64) {
        self.storage_gb[component] = vec![gb; self.steps];
    }

    /// Set a constant per-step value for a directed edge's traffic.
    pub fn fill_edge(&mut self, from: usize, to: usize, bytes_per_step: f64) {
        self.edge_bytes
            .insert((from, to), vec![bytes_per_step; self.steps]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> ResourceDemand {
        let mut d = ResourceDemand::zeros(
            vec!["A".to_string(), "B".to_string(), "C".to_string()],
            4,
            600,
        );
        d.fill_cpu(0, 1.0);
        d.fill_cpu(1, 2.0);
        d.cpu_cores[2] = vec![0.0, 4.0, 1.0, 0.0];
        d.fill_memory(0, 0.5);
        d.fill_storage(2, 20.0);
        d.fill_edge(0, 1, 1_000.0);
        d
    }

    #[test]
    fn basic_queries() {
        let d = demand();
        assert_eq!(d.component_count(), 3);
        assert_eq!(d.duration_s(), 2_400);
        assert_eq!(d.component_index("B"), Some(1));
        assert_eq!(d.component_index("Z"), None);
    }

    #[test]
    fn cpu_aggregations() {
        let d = demand();
        assert_eq!(d.cpu_sum_at([0, 1], 0), 3.0);
        assert_eq!(d.cpu_sum_at([0, 1, 2], 1), 7.0);
        assert_eq!(d.peak_cpu(&[0, 1, 2]), 7.0);
        assert_eq!(d.peak_cpu(&[2]), 4.0);
        assert_eq!(d.peak_cpu(&[]), 0.0);
    }

    #[test]
    fn memory_and_storage_peaks() {
        let d = demand();
        assert_eq!(d.peak_memory_gb(&[0, 1]), 0.5);
        assert_eq!(d.peak_storage_gb(&[2]), 20.0);
        assert_eq!(d.peak_storage_gb(&[0]), 0.0);
    }

    #[test]
    fn edge_totals() {
        let d = demand();
        assert_eq!(d.total_edge_bytes(0, 1), 4_000.0);
        assert_eq!(d.total_edge_bytes(1, 0), 0.0);
    }
}
