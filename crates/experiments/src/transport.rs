//! Extension experiment: TCP vs RDMA transport.
//!
//! SPDK's NVMe-oF target supports both TCP and RDMA; the paper evaluates
//! TCP only ("we methodically design and assess NVMe-oPF request
//! completion coalescing for the TCP/IP channel"). This sweep asks the
//! natural follow-up: how much of NVMe-oPF's benefit survives on RDMA,
//! where per-message host costs are far lower (data lands by RDMA
//! WRITE/READ with zero initiator CPU and verbs sends are cheap)?
//!
//! Expected shape: the RDMA baseline runs faster — its per-request
//! completion path is cheaper — so coalescing has less to amortize and
//! NVMe-oPF's relative gain shrinks, but the LS-bypass tail benefit
//! remains, since FIFO head-of-line blocking is transport-independent.

use crate::sweep::run_all;
use crate::Durations;
use fabric::Gbps;
use workload::report::{fmt_iops, fmt_us};
use workload::{Mix, RuntimeKind, Scenario, Table, Transport};

/// Run the transport comparison and print the table.
pub fn all(d: Durations, threads: Option<usize>) {
    crate::put("== Extension: TCP vs RDMA transport (1 LS : 4 TC, read, 10 & 100 Gbps) ==\n");
    let mut scenarios = Vec::new();
    for speed in [Gbps::G10, Gbps::G100] {
        for transport in [Transport::Tcp, Transport::Rdma] {
            for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
                let mut sc = Scenario::ratio(runtime, speed, Mix::READ, 1, 4);
                sc.transport = transport;
                d.apply(&mut sc);
                scenarios.push(sc);
            }
        }
    }
    let results = run_all(&scenarios, threads);

    let mut t = Table::new([
        "speed",
        "transport",
        "S IOPS",
        "PF IOPS",
        "PF/S",
        "S LS p99.99",
        "PF LS p99.99",
    ]);
    let mut it = results.chunks(2);
    for speed in ["10 Gbps", "10 Gbps", "100 Gbps", "100 Gbps"] {
        let transport = if t.rows.len().is_multiple_of(2) {
            "TCP"
        } else {
            "RDMA"
        };
        let pair = it.next().unwrap();
        let (s, o) = (&pair[0], &pair[1]);
        t.row([
            speed.to_string(),
            transport.to_string(),
            fmt_iops(s.tc_iops),
            fmt_iops(o.tc_iops),
            format!("{:.2}x", o.tc_iops / s.tc_iops.max(1.0)),
            fmt_us(s.ls_p9999_us),
            fmt_us(o.ls_p9999_us),
        ]);
    }
    crate::put(&workload::render_table(&t));
    crate::save_csv("transport", &t);
}
