//! Parallel execution of independent simulation runs: the workspace's
//! one pool, [`map`], and [`run_all`], which maps every scenario's pair
//! groups over it. Both live in `workload`; this path names them for
//! the drivers.

pub use workload::{map, run_all};

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Gbps;
    use workload::{Mix, RuntimeKind, Scenario};

    fn tiny(seed: u64) -> Scenario {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 0, 1);
        sc.warmup_s = 0.01;
        sc.measure_s = 0.03;
        sc.seed = seed;
        sc
    }

    #[test]
    fn parallel_matches_serial() {
        let scenarios: Vec<Scenario> = (0..6).map(tiny).collect();
        let serial = run_all(&scenarios, Some(1));
        let parallel = run_all(&scenarios, Some(4));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn empty_input() {
        assert!(run_all(&[], None).is_empty());
    }

    #[test]
    fn order_preserved() {
        // Different seeds give different event counts; check positions.
        let scenarios: Vec<Scenario> = (0..4).map(tiny).collect();
        let serial = run_all(&scenarios, Some(1));
        let parallel = run_all(&scenarios, Some(2));
        let se: Vec<u64> = serial.iter().map(|r| r.events).collect();
        let pe: Vec<u64> = parallel.iter().map(|r| r.events).collect();
        assert_eq!(se, pe);
    }
}
