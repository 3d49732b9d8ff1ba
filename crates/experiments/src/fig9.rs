//! Figure 9: h5bench application-level scaling.
//!
//! 8 nodes (4 initiator-nodes, 4 target-nodes); each rank hosts one
//! initiator, one LS rank per node, the rest TC.
//!
//! * (a) write / (b) read — scaling pattern 2: 10 ranks per node,
//!   1..4 initiator-nodes;
//! * (c) write / (d) read — scaling pattern 1: 4 nodes, 1..10 ranks per
//!   node.

use crate::Durations;
use h5::bench::{run_h5bench, H5BenchConfig, H5Kernel};
use workload::report::fmt_us;
use workload::{RuntimeKind, Table};

fn particles_for(d: Durations) -> u64 {
    // Map the sweep budget onto dataset volume: full runs move 1M
    // particles (4 MiB) per rank-timestep, quick runs 128K.
    if d.measure_s >= 0.5 {
        1024 * 1024
    } else {
        128 * 1024
    }
}

fn panel(kernel: H5Kernel, pattern: u8, d: Durations, threads: Option<usize>) -> Table {
    let particles = particles_for(d);
    let points: Vec<(usize, usize)> = match pattern {
        2 => (1..=4).map(|pairs| (pairs, 10)).collect(),
        _ => (1..=10).map(|per| (4, per)).collect(),
    };
    let mut configs = Vec::new();
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        for &(pairs, per) in &points {
            let mut c = H5BenchConfig::fig9(runtime, kernel);
            c.pairs = pairs;
            c.ranks_per_node = per;
            c.particles = particles;
            configs.push(c);
        }
    }
    let results = crate::sweep::map(&configs, threads, run_h5bench);
    let mut t = Table::new([
        "ranks",
        "S MiB/s",
        "PF MiB/s",
        "PF/S",
        "S avg lat",
        "PF avg lat",
    ]);
    for (i, &(pairs, per)) in points.iter().enumerate() {
        let s = &results[i];
        let o = &results[points.len() + i];
        t.row([
            (pairs * per).to_string(),
            format!("{:.0}", s.bandwidth_mib_s),
            format!("{:.0}", o.bandwidth_mib_s),
            format!("{:.2}x", o.bandwidth_mib_s / s.bandwidth_mib_s.max(1e-9)),
            fmt_us(s.avg_latency_us),
            fmt_us(o.avg_latency_us),
        ]);
    }
    t
}

/// All of Figure 9.
pub fn all(d: Durations, threads: Option<usize>) {
    let panels = [
        (
            H5Kernel::Write,
            2,
            "a",
            "h5bench write, scaling initiator-nodes (10 ranks/node)",
        ),
        (
            H5Kernel::Read,
            2,
            "b",
            "h5bench read, scaling initiator-nodes (10 ranks/node)",
        ),
        (
            H5Kernel::Write,
            1,
            "c",
            "h5bench write, scaling ranks/node (4 nodes)",
        ),
        (
            H5Kernel::Read,
            1,
            "d",
            "h5bench read, scaling ranks/node (4 nodes)",
        ),
    ];
    for (kernel, pattern, tag, desc) in panels {
        crate::put(&format!("== Fig 9({tag}): {desc}, 25 Gbps ==\n"));
        let t = panel(kernel, pattern, d, threads);
        crate::put(&workload::render_table(&t));
        crate::save_csv(&format!("fig9{tag}"), &t);
    }
}
