//! Table I: experiment configuration (hardware presets).

use fabric::{FabricConfig, Gbps};
use nvme::{FlashProfile, Opcode};
use nvmf::CpuCosts;
use workload::Table;

/// Build the Table I equivalent for the simulated testbeds.
pub fn build() -> Table {
    let mut t = Table::new(["", "CC (Chameleon Cloud)", "CL (CloudLab)"]);
    t.row([
        "Processor",
        "AMD EPYC 7352 2.3GHz (costs x2.8/2.3)",
        "AMD EPYC 7543 2.8GHz (baseline costs)",
    ]);
    t.row([
        "Cores",
        "24 (1 reactor/target modelled)",
        "32 (1 reactor/target modelled)",
    ]);
    t.row([
        "RAM",
        "256GB (not a bottleneck)",
        "256GB (not a bottleneck)",
    ]);
    t.row(["NIC", "10/25 Gbps", "100 Gbps"]);
    t.row(["SSD", "3.2 TB NVMe-SSD", "1.6 TB NVMe-SSD"]);

    let cc = FlashProfile::cc_ssd();
    let cl = FlashProfile::cl_ssd();
    t.row([
        "SSD 4K read peak".to_string(),
        format!("{:.0}K IOPS", cc.peak_iops(Opcode::Read) / 1e3),
        format!("{:.0}K IOPS", cl.peak_iops(Opcode::Read) / 1e3),
    ]);
    t.row([
        "SSD 4K write peak".to_string(),
        format!("{:.0}K IOPS", cc.peak_iops(Opcode::Write) / 1e3),
        format!("{:.0}K IOPS", cl.peak_iops(Opcode::Write) / 1e3),
    ]);
    let resp_cc = CpuCosts::cc().resp_path();
    let resp_cl = CpuCosts::cl().resp_path();
    t.row([
        "Reactor resp path".to_string(),
        format!("{resp_cc}"),
        format!("{resp_cl}"),
    ]);
    for speed in Gbps::ALL {
        let cfg = FabricConfig::preset(speed);
        t.row([
            format!("4K wire time @{speed}"),
            format!("{}", cfg.serialization(4096)),
            String::new(),
        ]);
    }
    t
}

/// Print Table I.
pub fn print() {
    crate::put("== Table I: experiment configuration (simulated testbeds) ==\n");
    let t = build();
    crate::put(&workload::render_table(&t));
    crate::save_csv("table1", &t);
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_builds() {
        let t = super::build();
        assert_eq!(t.headers.len(), 3);
        assert!(t.rows.len() >= 8);
    }
}
