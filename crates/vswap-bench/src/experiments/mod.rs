//! One module per reproduced table/figure, plus shared plumbing.

pub mod ablation;
pub mod chaos;
pub mod cluster;
pub mod cluster_chaos;
pub mod common;
pub mod devices;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod latency;
pub mod tab01;
pub mod tab02;
pub mod tab03;
pub mod tab04;
pub mod tab05;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The published experiment sizes (what `EXPERIMENTS.md` records).
    Paper,
    /// Everything shrunk ~16× so the suite runs in seconds (the golden
    /// corpus, the tests and the `vswap-perf` benchmark).
    Smoke,
}

impl Scale {
    /// Scales a paper-sized megabyte figure.
    pub fn mb(self, paper_mb: u64) -> u64 {
        match self {
            Scale::Paper => paper_mb,
            Scale::Smoke => (paper_mb / 16).max(2),
        }
    }

    /// Scales a paper-sized count (iterations, jobs, guests stay as-is;
    /// use for page-ish quantities).
    pub fn count(self, paper: u64) -> u64 {
        match self {
            Scale::Paper => paper,
            Scale::Smoke => (paper / 16).max(1),
        }
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;

    #[test]
    fn paper_scale_is_identity() {
        assert_eq!(Scale::Paper.mb(512), 512);
        assert_eq!(Scale::Paper.count(3000), 3000);
    }

    #[test]
    fn smoke_scale_shrinks_but_never_vanishes() {
        assert_eq!(Scale::Smoke.mb(512), 32);
        assert_eq!(Scale::Smoke.mb(8), 2, "clamped to a usable floor");
        assert_eq!(Scale::Smoke.count(8), 1);
    }
}
