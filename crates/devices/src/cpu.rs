//! Host CPU model.
//!
//! The hosts carry two Intel Xeon Gold 6148 sockets (20 cores each at
//! 2.4 GHz). In DL training the CPUs matter for the *data pipeline* —
//! JPEG decode, augmentation, tokenization — which the paper observes
//! stresses vision workloads far more than NLP (Fig 13). The spec gives the
//! core count; the training pipeline prices preprocessing in core-seconds
//! per sample and shares these cores among every GPU's dataloader workers.

/// Static description of the host CPU complex.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    pub name: String,
    /// Total physical cores across sockets.
    pub cores: u32,
    /// Sustained all-core clock (Hz) — used only for documentation.
    pub clock_hz: f64,
}

impl CpuSpec {
    /// 2 × Intel Xeon Gold 6148 (paper §II-A): 40 cores total.
    pub fn dual_xeon_6148() -> CpuSpec {
        CpuSpec {
            name: "2x Intel Xeon Gold 6148".to_string(),
            cores: 40,
            clock_hz: 2.4e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_has_forty_cores() {
        let c = CpuSpec::dual_xeon_6148();
        assert_eq!(c.cores, 40);
    }
}
