//! Host DRAM model.
//!
//! Each Supermicro host carries 756 GB of DDR4 (paper §II-A). In the
//! training pipeline, host memory is the staging area between storage and
//! the GPUs and doubles as the OS page cache — which is why the ImageNet
//! working set (~150 GB) is disk-bound only on its first epoch (relevant
//! to the paper's Fig 15 storage study).

use crate::GB;

/// Static description of a host's DRAM pool.
#[derive(Debug, Clone, PartialEq)]
pub struct DramSpec {
    pub capacity_bytes: f64,
    /// Aggregate bandwidth across channels (bytes/s).
    pub bandwidth: f64,
}

impl DramSpec {
    /// The paper host's 756 GB of DDR4-2666 across 12 channels.
    pub fn host_756gb() -> DramSpec {
        DramSpec {
            capacity_bytes: 756.0 * GB,
            bandwidth: 256.0 * GB,
        }
    }

    /// Can `bytes` of dataset be fully page-cached alongside `reserved`
    /// bytes of application working memory?
    pub fn fits_in_page_cache(&self, bytes: f64, reserved: f64) -> bool {
        bytes + reserved <= self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_capacity() {
        let d = DramSpec::host_756gb();
        assert_eq!(d.capacity_bytes, 756.0 * GB);
    }

    #[test]
    fn imagenet_fits_in_page_cache() {
        let d = DramSpec::host_756gb();
        assert!(d.fits_in_page_cache(150.0 * GB, 100.0 * GB));
        assert!(!d.fits_in_page_cache(700.0 * GB, 100.0 * GB));
    }
}
