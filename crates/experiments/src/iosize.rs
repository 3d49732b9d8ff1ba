//! Extension experiment: I/O size and access-pattern sensitivity.
//!
//! The paper evaluates 4K sequential I/O only, noting (§IV-B) that large
//! I/O splits into multiple data PDUs while coalescing reduces only
//! *completion* packets. This sweep quantifies the implication: the
//! benefit of completion coalescing shrinks as I/O size grows (data
//! transfer amortizes the per-request response cost) and is insensitive
//! to sequential-vs-random addressing (the response path doesn't touch
//! the media address).

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::report::fmt_iops;
use workload::{Mix, Pattern, RuntimeKind, Scenario, Table};

/// Run the I/O-size × pattern sweep and print the table.
pub fn all(d: Durations, threads: Option<usize>) {
    crate::put("== Extension: I/O size and access pattern (1 TC, read, 100 Gbps) ==\n");
    let sizes: [u16; 5] = [1, 4, 16, 32, 64]; // 4K .. 256K
    let mut scenarios = Vec::new();
    for pattern in [Pattern::Sequential, Pattern::Random] {
        for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
            for &blocks in &sizes {
                let mut sc = Scenario::ratio(runtime, Gbps::G100, Mix::READ, 0, 1);
                sc.io_blocks = blocks;
                sc.pattern = pattern;
                d.apply(&mut sc);
                scenarios.push(sc);
            }
        }
    }
    let results = run_all(&scenarios, threads);

    let mut t = Table::new([
        "pattern", "io size", "S IOPS", "PF IOPS", "PF/S", "S MB/s", "PF MB/s",
    ]);
    let mut it = results.chunks(sizes.len());
    for pattern in ["sequential", "random"] {
        let s_rows = it.next().unwrap();
        let o_rows = it.next().unwrap();
        for (i, &blocks) in sizes.iter().enumerate() {
            let s = &s_rows[i];
            let o = &o_rows[i];
            t.row([
                pattern.to_string(),
                format!("{}K", 4 * blocks),
                fmt_iops(s.tc_iops),
                fmt_iops(o.tc_iops),
                format!("{:.2}x", o.tc_iops / s.tc_iops.max(1.0)),
                format!("{:.0}", s.tc_mb_s),
                format!("{:.0}", o.tc_mb_s),
            ]);
        }
    }
    crate::put(&workload::render_table(&t));
    crate::save_csv("iosize", &t);
}
