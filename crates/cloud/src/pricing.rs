//! The generalised public-cloud pricing model (paper Appendix A).
//!
//! Public clouds charge for (i) compute nodes provisioned by the cluster
//! autoscaler, (ii) storage capacity, and (iii) egress traffic leaving their
//! datacenters (ingress is free). The exact figures vary per provider and
//! over time — the paper's evaluation uses AWS-like numbers (`m5.large` at
//! $0.096/h, $0.08/GB-month storage, $0.09/GB egress) — so the model is kept
//! as a plain parameter struct with presets.

/// Cloud providers with built-in pricing presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// Amazon-Web-Services-like pricing.
    AwsLike,
    /// Microsoft-Azure-like pricing.
    AzureLike,
    /// Google-Cloud-like pricing.
    GcpLike,
}

/// Pricing and node-granularity parameters of one cloud provider.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingModel {
    /// Name of the node type the cluster autoscaler provisions.
    pub node_type: String,
    /// CPU cores per node (`Ω_CPU`).
    pub node_cpu_cores: f64,
    /// Memory per node in GB (`Ω_mem`).
    pub node_memory_gb: f64,
    /// Price per node per hour (`Θ_compute`), in dollars.
    pub compute_per_node_hour: f64,
    /// Price per GB of provisioned storage per month (`Θ_storage`), dollars.
    pub storage_per_gb_month: f64,
    /// Price per GB of egress traffic (`Θ_traffic`), dollars.
    pub egress_per_gb: f64,
    /// Headroom fraction that triggers scale-up (`δ`), e.g. 0.2 to keep 20 %
    /// of each resource free.
    pub headroom: f64,
}

impl PricingModel {
    /// Pricing preset for a provider.
    pub fn preset(provider: Provider) -> Self {
        match provider {
            Provider::AwsLike => Self {
                node_type: "m5.large-x2".to_string(),
                node_cpu_cores: 4.0,
                node_memory_gb: 16.0,
                compute_per_node_hour: 0.192,
                storage_per_gb_month: 0.08,
                egress_per_gb: 0.09,
                headroom: 0.20,
            },
            Provider::AzureLike => Self {
                node_type: "D4s_v3".to_string(),
                node_cpu_cores: 4.0,
                node_memory_gb: 16.0,
                compute_per_node_hour: 0.208,
                storage_per_gb_month: 0.095,
                egress_per_gb: 0.087,
                headroom: 0.20,
            },
            Provider::GcpLike => Self {
                node_type: "e2-standard-4".to_string(),
                node_cpu_cores: 4.0,
                node_memory_gb: 16.0,
                compute_per_node_hour: 0.134,
                storage_per_gb_month: 0.10,
                egress_per_gb: 0.12,
                headroom: 0.20,
            },
        }
    }

    /// Price of one node for `seconds` of usage.
    pub fn compute_cost_for(&self, nodes: usize, seconds: f64) -> f64 {
        self.compute_per_node_hour * nodes as f64 * seconds / 3_600.0
    }

    /// Price of `gb` of storage provisioned for `seconds`.
    ///
    /// Storage is billed per GB-month; a month is taken as 30 days.
    pub fn storage_cost_for(&self, gb: f64, seconds: f64) -> f64 {
        const MONTH_SECONDS: f64 = 30.0 * 24.0 * 3_600.0;
        self.storage_per_gb_month * gb * seconds / MONTH_SECONDS
    }

    /// Price of `bytes` of egress traffic.
    pub fn egress_cost_for(&self, bytes: f64) -> f64 {
        self.egress_per_gb * bytes / 1.0e9
    }
}

impl Default for PricingModel {
    fn default() -> Self {
        Self::preset(Provider::AwsLike)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_positive() {
        let aws = PricingModel::preset(Provider::AwsLike);
        let azure = PricingModel::preset(Provider::AzureLike);
        let gcp = PricingModel::preset(Provider::GcpLike);
        for p in [&aws, &azure, &gcp] {
            assert!(p.compute_per_node_hour > 0.0);
            assert!(p.storage_per_gb_month > 0.0);
            assert!(p.egress_per_gb > 0.0);
            assert!(p.node_cpu_cores > 0.0);
            assert!((0.0..1.0).contains(&p.headroom));
        }
        assert_ne!(aws.compute_per_node_hour, gcp.compute_per_node_hour);
    }

    #[test]
    fn compute_cost_scales_linearly() {
        let p = PricingModel::default();
        let one_hour_one_node = p.compute_cost_for(1, 3_600.0);
        assert!((one_hour_one_node - p.compute_per_node_hour).abs() < 1e-12);
        assert!((p.compute_cost_for(3, 3_600.0) - 3.0 * one_hour_one_node).abs() < 1e-12);
        assert!((p.compute_cost_for(1, 1_800.0) - 0.5 * one_hour_one_node).abs() < 1e-12);
    }

    #[test]
    fn storage_cost_is_prorated_per_month() {
        let p = PricingModel::default();
        let full_month = p.storage_cost_for(100.0, 30.0 * 24.0 * 3_600.0);
        assert!((full_month - 8.0).abs() < 1e-9, "100 GB at $0.08/GB-month");
        let half_month = p.storage_cost_for(100.0, 15.0 * 24.0 * 3_600.0);
        assert!((half_month - 4.0).abs() < 1e-9);
    }

    #[test]
    fn egress_cost_per_gb() {
        let p = PricingModel::default();
        assert!((p.egress_cost_for(1.0e9) - 0.09).abs() < 1e-12);
        assert_eq!(p.egress_cost_for(0.0), 0.0);
    }
}
