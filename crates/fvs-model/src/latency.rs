//! Memory-hierarchy latency constants.

use serde::{Deserialize, Serialize};

/// Measured access latencies for each level of the memory hierarchy.
///
/// The paper's scheduling implementation treats these as constants (a
/// stated simplification and source of error — see its footnote 1). The L1
/// latency is expressed in **cycles** because L1 accesses are pipelined
/// with the core and scale with the clock; the L2/L3/memory latencies are
/// expressed in **seconds** because those structures run on their own
/// clocks and do not speed up when the core does. That split is exactly
/// what gives the CPI equation its frequency-dependent term.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryLatencies {
    /// L1 access latency in core cycles (frequency-independent when
    /// expressed in cycles).
    pub l1_cycles: f64,
    /// L2 access latency in seconds.
    pub l2_s: f64,
    /// L3 access latency in seconds.
    pub l3_s: f64,
    /// Main-memory access latency in seconds.
    pub mem_s: f64,
}

impl MemoryLatencies {
    /// The pSeries P630 platform of the paper (section 7.1): 4–5 cycles to
    /// L1, 15 cycles to L2, 113 to L3, and 393 to memory, all measured at
    /// the nominal 1 GHz clock, hence 15 ns / 113 ns / 393 ns.
    pub const P630: MemoryLatencies = MemoryLatencies {
        l1_cycles: 4.5,
        l2_s: 15.0e-9,
        l3_s: 113.0e-9,
        mem_s: 393.0e-9,
    };

    /// A flat-latency hierarchy useful in unit tests: every level costs the
    /// same `t` seconds (and L1 is free).
    pub fn uniform(t: f64) -> Self {
        MemoryLatencies {
            l1_cycles: 0.0,
            l2_s: t,
            l3_s: t,
            mem_s: t,
        }
    }
}

impl Default for MemoryLatencies {
    fn default() -> Self {
        MemoryLatencies::P630
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p630_latencies_match_paper_at_1ghz() {
        let l = MemoryLatencies::P630;
        assert!((l.l1_cycles - 4.5).abs() < 1e-9);
        assert!((l.l2_s * 1.0e9 - 15.0).abs() < 1e-9);
        assert!((l.l3_s * 1.0e9 - 113.0).abs() < 1e-9);
        assert!((l.mem_s * 1.0e9 - 393.0).abs() < 1e-9);
    }
}
