//! Ready-made models using the constants of the paper's Table 1.
//!
//! The validation server is the Rutgers testbed machine: a single Pentium
//! III CPU (weighed with its heat sink), 512 MB of RAM, and a 15k-rpm SCSI
//! disk modelled as platters inside a shell, plus power supply and
//! motherboard. The graphs are exactly Figure 1(a) (heat flow) and
//! Figure 1(b) (intra-machine air flow); the constants — masses, specific
//! heat capacities, min/max powers, heat-transfer coefficients, air
//! fractions, inlet temperature and fan speed — are the values of Table 1.

use crate::model::{ClusterEndpoint, ClusterModel, MachineModel};

/// Node names used by the Table 1 models, so callers don't scatter string
/// literals.
pub mod nodes {
    /// Rotating platters inside the disk (heat source).
    pub const DISK_PLATTERS: &str = "disk_platters";
    /// Disk base + cover around the platters.
    pub const DISK_SHELL: &str = "disk_shell";
    /// CPU including its heat sink.
    pub const CPU: &str = "cpu";
    /// Power supply unit (constant 40 W draw).
    pub const POWER_SUPPLY: &str = "power_supply";
    /// Motherboard without removable components (constant 4 W draw).
    pub const MOTHERBOARD: &str = "motherboard";
    /// Machine inlet air (boundary).
    pub const INLET: &str = "inlet";
    /// Air flowing over the disk.
    pub const DISK_AIR: &str = "disk_air";
    /// Air just downstream of the disk.
    pub const DISK_AIR_DOWN: &str = "disk_air_down";
    /// Air flowing over the power supply.
    pub const PS_AIR: &str = "ps_air";
    /// Air just downstream of the power supply.
    pub const PS_AIR_DOWN: &str = "ps_air_down";
    /// Void-space air in the middle of the case.
    pub const VOID_AIR: &str = "void_air";
    /// Air flowing over the CPU heat sink.
    pub const CPU_AIR: &str = "cpu_air";
    /// Air just downstream of the CPU.
    pub const CPU_AIR_DOWN: &str = "cpu_air_down";
    /// Machine exhaust air (terminal).
    pub const EXHAUST: &str = "exhaust";
}

/// Table 1 inlet temperature, °C.
pub const INLET_TEMPERATURE_C: f64 = 21.6;
/// Table 1 fan speed, ft³/min.
pub const FAN_CFM: f64 = 38.6;

/// Builds the Table 1 validation server under the given machine name.
pub fn validation_machine_named(name: &str) -> MachineModel {
    machine_with_cpu_k(name, 0.75)
}

/// Builds the Freon-study server: Table 1 constants except a higher
/// CPU heat-transfer coefficient (1.0 W/K instead of 0.75).
///
/// The paper's §5 cluster uses thresholds `T_h^CPU = 67 °C`,
/// `T_l^CPU = 64 °C` and describes them as "the proper values for our
/// components" — i.e. a machine whose CPU sits *below* 67 °C at full load
/// under normal cooling, so that only a genuine emergency crosses the
/// threshold. With the validation server's k = 0.75 the die equilibrates
/// near 78 °C at 100% utilization, which would red-line even without an
/// emergency; a k of 1.0 (a better heat sink / airflow over the CPU)
/// lands full-load steady state at ≈ 64 °C, reproducing the paper's
/// operating envelope. See DESIGN.md.
pub fn freon_machine_named(name: &str) -> MachineModel {
    machine_with_cpu_k(name, 1.0)
}

/// The Freon-study server, named `"server"`.
pub fn freon_machine() -> MachineModel {
    freon_machine_named("server")
}

/// The §5 Freon cluster: `n` [`freon_machine_named`] servers wired like
/// [`validation_cluster`].
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn freon_cluster(n: usize) -> ClusterModel {
    build_cluster(n, freon_machine_named)
}

fn machine_with_cpu_k(name: &str, cpu_k: f64) -> MachineModel {
    let mut b = MachineModel::builder(name);

    // --- Components: masses, specific heats, (min, max) powers -----------
    b.component(nodes::DISK_PLATTERS)
        .mass_kg(0.336)
        .specific_heat(896.0)
        .power_range(9.0, 14.0);
    b.component(nodes::DISK_SHELL)
        .mass_kg(0.505)
        .specific_heat(896.0)
        .constant_power(0.0);
    b.component(nodes::CPU)
        .mass_kg(0.151)
        .specific_heat(896.0)
        .power_range(7.0, 31.0);
    b.component(nodes::POWER_SUPPLY)
        .mass_kg(1.643)
        .specific_heat(896.0)
        .constant_power(40.0);
    b.component(nodes::MOTHERBOARD)
        .mass_kg(0.718)
        .specific_heat(1245.0)
        .constant_power(4.0);

    // --- Air regions (Figure 1b) -----------------------------------------
    b.inlet(nodes::INLET);
    b.air(nodes::DISK_AIR);
    b.air(nodes::DISK_AIR_DOWN);
    b.air(nodes::PS_AIR);
    b.air(nodes::PS_AIR_DOWN);
    // The void space is most of the case volume; give it a larger
    // effective mass than the per-component channels.
    b.air_with_mass(nodes::VOID_AIR, 0.02, crate::model::AirKind::Internal);
    b.air(nodes::CPU_AIR);
    b.air(nodes::CPU_AIR_DOWN);
    b.exhaust(nodes::EXHAUST);

    // --- Heat-flow edges (Figure 1a, Table 1 k values) -------------------
    let heat_edges = [
        (nodes::DISK_PLATTERS, nodes::DISK_SHELL, 2.0),
        (nodes::DISK_SHELL, nodes::DISK_AIR, 1.9),
        (nodes::CPU, nodes::CPU_AIR, cpu_k),
        (nodes::POWER_SUPPLY, nodes::PS_AIR, 4.0),
        (nodes::MOTHERBOARD, nodes::VOID_AIR, 10.0),
        (nodes::MOTHERBOARD, nodes::CPU, 0.1),
    ];
    for (a, bn, k) in heat_edges {
        b.heat_edge(a, bn, k).expect("table 1 heat edge");
    }

    // --- Air-flow edges (Figure 1b, Table 1 fractions) -------------------
    let air_edges = [
        (nodes::INLET, nodes::DISK_AIR, 0.4),
        (nodes::INLET, nodes::PS_AIR, 0.5),
        (nodes::INLET, nodes::VOID_AIR, 0.1),
        (nodes::DISK_AIR, nodes::DISK_AIR_DOWN, 1.0),
        (nodes::DISK_AIR_DOWN, nodes::VOID_AIR, 1.0),
        (nodes::PS_AIR, nodes::PS_AIR_DOWN, 1.0),
        (nodes::PS_AIR_DOWN, nodes::VOID_AIR, 0.85),
        (nodes::PS_AIR_DOWN, nodes::CPU_AIR, 0.15),
        (nodes::VOID_AIR, nodes::CPU_AIR, 0.05),
        (nodes::VOID_AIR, nodes::EXHAUST, 0.95),
        (nodes::CPU_AIR, nodes::CPU_AIR_DOWN, 1.0),
        (nodes::CPU_AIR_DOWN, nodes::EXHAUST, 1.0),
    ];
    for (from, to, f) in air_edges {
        b.air_edge(from, to, f).expect("table 1 air edge");
    }

    b.fan_cfm(FAN_CFM).inlet_temperature_c(INLET_TEMPERATURE_C);
    b.build().expect("table 1 model validates")
}

/// The Table 1 validation server, named `"server"`.
pub fn validation_machine() -> MachineModel {
    validation_machine_named("server")
}

/// The Figure 1(c) cluster: `n` Table 1 servers named `machine1..machineN`,
/// an AC supply feeding each inlet an equal `1/n` fraction, and every
/// exhaust feeding a shared `cluster_exhaust` junction — the paper's ideal
/// no-recirculation layout.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn validation_cluster(n: usize) -> ClusterModel {
    build_cluster(n, validation_machine_named)
}

/// A Figure 1c room with *recirculation*: a fraction of the shared hot
/// exhaust is entrained back into every machine's inlet instead of
/// returning to the AC — the paper notes "recirculation and rack layout
/// effects can also be represented using more complex graphs".
///
/// Each machine inlet mixes `1 − recirculation` parts AC supply with
/// `recirculation` parts of the room's hot-aisle junction.
///
/// # Panics
///
/// Panics if `n` is zero or `recirculation` is outside `[0, 0.9]`.
pub fn recirculating_cluster(n: usize, recirculation: f64) -> ClusterModel {
    assert!(n > 0, "a cluster needs at least one machine");
    assert!(
        (0.0..=0.9).contains(&recirculation),
        "recirculation fraction must be in [0, 0.9]"
    );
    let mut b = ClusterModel::builder();
    b.supply("ac", INLET_TEMPERATURE_C);
    b.junction("hot_aisle");
    let prototype = validation_machine_named("machine1");
    for i in 0..n {
        let idx = b.machine(prototype.renamed(format!("machine{}", i + 1)));
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(idx),
            (1.0 - recirculation).max(1e-6),
        );
        if recirculation > 0.0 {
            b.edge(
                ClusterEndpoint::Junction("hot_aisle".into()),
                ClusterEndpoint::MachineInlet(idx),
                recirculation,
            );
        }
        b.edge(
            ClusterEndpoint::MachineExhaust(idx),
            ClusterEndpoint::Junction("hot_aisle".into()),
            1.0,
        );
    }
    b.build().expect("recirculating cluster validates")
}

/// A deliberately heterogeneous room: `replicated` identical Table 1
/// servers (named `machine1..`) plus `unique` structural variants (named
/// `variant1..`, each with a different CPU heat-transfer coefficient, so
/// each has its own structural fingerprint). All are wired to one AC
/// supply and one shared exhaust junction like [`validation_cluster`].
///
/// This is the shape that exercises the cluster solver's batched path
/// next to its per-machine fallback: the replicas form one batch group,
/// the variants step individually.
///
/// # Panics
///
/// Panics if `replicated + unique` is zero.
pub fn mixed_cluster(replicated: usize, unique: usize) -> ClusterModel {
    let n = replicated + unique;
    assert!(n > 0, "a cluster needs at least one machine");
    let mut b = ClusterModel::builder();
    b.supply("ac", INLET_TEMPERATURE_C);
    b.junction("cluster_exhaust");
    let fraction = 1.0 / n as f64;
    let wire = |b: &mut crate::model::ClusterBuilder, m: MachineModel| {
        let idx = b.machine(m);
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(idx),
            fraction,
        );
        b.edge(
            ClusterEndpoint::MachineExhaust(idx),
            ClusterEndpoint::Junction("cluster_exhaust".into()),
            1.0,
        );
    };
    let prototype = validation_machine_named("machine1");
    for i in 0..replicated {
        wire(&mut b, prototype.renamed(format!("machine{}", i + 1)));
    }
    for i in 0..unique {
        // A per-variant CPU k gives every variant a distinct fingerprint.
        let k = 1.0 + 0.05 * (i + 1) as f64;
        wire(&mut b, machine_with_cpu_k(&format!("variant{}", i + 1), k));
    }
    b.build().expect("mixed cluster validates")
}

fn build_cluster(n: usize, machine: fn(&str) -> MachineModel) -> ClusterModel {
    assert!(n > 0, "a cluster needs at least one machine");
    let mut b = ClusterModel::builder();
    b.supply("ac", INLET_TEMPERATURE_C);
    b.junction("cluster_exhaust");
    let fraction = 1.0 / n as f64;
    // One prototype, renamed: every replica shares its body.
    let prototype = machine("machine1");
    for i in 0..n {
        let idx = b.machine(prototype.renamed(format!("machine{}", i + 1)));
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(idx),
            fraction,
        );
        b.edge(
            ClusterEndpoint::MachineExhaust(idx),
            ClusterEndpoint::Junction("cluster_exhaust".into()),
            1.0,
        );
    }
    b.build().expect("figure 1c cluster validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PowerModel;
    use crate::solver::{Solver, SolverConfig};
    use crate::units::Watts;

    #[test]
    fn table_1_constants_are_encoded_exactly() {
        let m = validation_machine();
        let comp = |name: &str| {
            m.node(m.node_id(name).unwrap())
                .as_component()
                .unwrap()
                .clone()
        };

        let platters = comp(nodes::DISK_PLATTERS);
        assert_eq!(platters.mass.0, 0.336);
        assert_eq!(platters.specific_heat.0, 896.0);
        assert_eq!(platters.power, PowerModel::linear(9.0, 14.0));

        let shell = comp(nodes::DISK_SHELL);
        assert_eq!(shell.mass.0, 0.505);
        assert_eq!(shell.specific_heat.0, 896.0);

        let cpu = comp(nodes::CPU);
        assert_eq!(cpu.mass.0, 0.151);
        assert_eq!(cpu.power, PowerModel::linear(7.0, 31.0));

        let psu = comp(nodes::POWER_SUPPLY);
        assert_eq!(psu.mass.0, 1.643);
        assert_eq!(psu.power, PowerModel::Constant(Watts(40.0)));
        assert!(!psu.monitored);

        let mobo = comp(nodes::MOTHERBOARD);
        assert_eq!(mobo.mass.0, 0.718);
        assert_eq!(mobo.specific_heat.0, 1245.0);
        assert_eq!(mobo.power, PowerModel::Constant(Watts(4.0)));

        assert!((m.fan().to_cfm() - 38.6).abs() < 1e-9);
        assert_eq!(m.inlet_temperature().0, 21.6);
        assert_eq!(m.heat_edges().len(), 6);
        assert_eq!(m.air_edges().len(), 12);
    }

    #[test]
    fn table_1_k_values_are_encoded() {
        let m = validation_machine();
        let k_of = |a: &str, b: &str| {
            let ia = m.node_id(a).unwrap();
            let ib = m.node_id(b).unwrap();
            m.heat_edges()
                .iter()
                .find(|e| (e.a == ia && e.b == ib) || (e.a == ib && e.b == ia))
                .map(|e| e.k.0)
                .unwrap()
        };
        assert_eq!(k_of(nodes::DISK_PLATTERS, nodes::DISK_SHELL), 2.0);
        assert_eq!(k_of(nodes::DISK_SHELL, nodes::DISK_AIR), 1.9);
        assert_eq!(k_of(nodes::CPU, nodes::CPU_AIR), 0.75);
        assert_eq!(k_of(nodes::POWER_SUPPLY, nodes::PS_AIR), 4.0);
        assert_eq!(k_of(nodes::MOTHERBOARD, nodes::VOID_AIR), 10.0);
        assert_eq!(k_of(nodes::MOTHERBOARD, nodes::CPU), 0.1);
    }

    #[test]
    fn monitored_components_are_cpu_and_platters() {
        let m = validation_machine();
        let mut monitored = m.monitored_components();
        monitored.sort_unstable();
        assert_eq!(monitored, vec![nodes::CPU, nodes::DISK_PLATTERS]);
    }

    #[test]
    fn validation_machine_reaches_plausible_temperatures() {
        // Sanity: at full CPU+disk load the CPU air should settle in the
        // mid-30s °C (Figures 5/7) and the disk shell near the high 30s
        // (Figures 6/8 show ~35-37 °C peaks).
        let m = validation_machine();
        let mut s = Solver::new(&m, SolverConfig::default()).unwrap();
        s.set_utilization(nodes::CPU, 1.0).unwrap();
        s.set_utilization(nodes::DISK_PLATTERS, 1.0).unwrap();
        let (_, converged) = s.run_to_steady_state(1e-7, 100_000);
        assert!(converged);
        let cpu_air = s.temperature(nodes::CPU_AIR).unwrap().0;
        assert!(
            (28.0..45.0).contains(&cpu_air),
            "cpu air settled at {cpu_air}"
        );
        let disk = s.temperature(nodes::DISK_SHELL).unwrap().0;
        assert!((26.0..45.0).contains(&disk), "disk shell settled at {disk}");
        // The CPU die runs much hotter than its air.
        let cpu = s.temperature(nodes::CPU).unwrap().0;
        assert!(cpu > cpu_air + 20.0, "cpu {cpu} vs air {cpu_air}");
    }

    #[test]
    fn cluster_preset_shapes() {
        let c = validation_cluster(4);
        assert_eq!(c.machines().len(), 4);
        assert_eq!(c.supplies().len(), 1);
        assert_eq!(c.junctions().len(), 1);
        assert_eq!(c.edges().len(), 8);
        assert_eq!(c.machines()[0].name(), "machine1");
        assert_eq!(c.machines()[3].name(), "machine4");
        let shared = |c: &ClusterModel| {
            let first = c.machines()[0].body();
            c.machines()
                .iter()
                .all(|m| std::sync::Arc::ptr_eq(m.body(), first))
        };
        assert!(shared(&c), "replicas share one body");
        assert!(shared(&recirculating_cluster(3, 0.2)));
        assert!(shared(&freon_cluster(3)));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn cluster_preset_rejects_zero() {
        let _ = validation_cluster(0);
    }

    #[test]
    fn recirculation_raises_inlet_and_component_temperatures() {
        use crate::solver::ClusterSolver;
        let run = |recirc: f64| {
            let cluster = recirculating_cluster(2, recirc);
            let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
            for m in ["machine1", "machine2"] {
                s.set_utilization(m, nodes::CPU, 1.0).unwrap();
                s.set_utilization(m, nodes::DISK_PLATTERS, 0.5).unwrap();
            }
            s.step_for(4000);
            (
                s.machine("machine1").unwrap().inlet_temperature().0,
                s.temperature("machine1", nodes::CPU).unwrap().0,
            )
        };
        let (inlet_sealed, cpu_sealed) = run(0.0);
        let (inlet_leaky, cpu_leaky) = run(0.3);
        assert!(
            (inlet_sealed - 21.6).abs() < 0.2,
            "sealed inlet {inlet_sealed}"
        );
        assert!(
            inlet_leaky > inlet_sealed + 0.5,
            "recirculation invisible: {inlet_leaky}"
        );
        assert!(
            cpu_leaky > cpu_sealed + 0.5,
            "cpu {cpu_sealed} -> {cpu_leaky}"
        );
    }

    #[test]
    #[should_panic(expected = "recirculation fraction")]
    fn recirculation_fraction_is_bounded() {
        let _ = recirculating_cluster(2, 0.95);
    }

    #[test]
    fn freon_machine_runs_cooler_at_full_load() {
        // The Freon-study server must sit below T_h = 67 °C at 100% CPU
        // under normal cooling, so that only emergencies cross it.
        let m = freon_machine();
        let mut s = Solver::new(&m, SolverConfig::default()).unwrap();
        s.set_utilization(nodes::CPU, 1.0).unwrap();
        s.set_utilization(nodes::DISK_PLATTERS, 1.0).unwrap();
        s.run_to_steady_state(1e-7, 100_000);
        let cpu = s.temperature(nodes::CPU).unwrap().0;
        assert!(cpu < 67.0, "freon machine reaches {cpu} at full load");
        assert!(cpu > 55.0, "freon machine suspiciously cool: {cpu}");

        // The validation machine is hotter (k = 0.75).
        let mut v = Solver::new(&validation_machine(), SolverConfig::default()).unwrap();
        v.set_utilization(nodes::CPU, 1.0).unwrap();
        v.set_utilization(nodes::DISK_PLATTERS, 1.0).unwrap();
        v.run_to_steady_state(1e-7, 100_000);
        assert!(v.temperature(nodes::CPU).unwrap().0 > cpu + 5.0);
    }

    #[test]
    fn freon_cluster_uses_freon_machines() {
        let c = freon_cluster(4);
        assert_eq!(c.machines().len(), 4);
        let m = &c.machines()[0];
        let icpu = m.node_id(nodes::CPU).unwrap();
        let k = m
            .heat_edges()
            .iter()
            .find(|e| (e.a == icpu || e.b == icpu) && e.k.0 > 0.5)
            .map(|e| e.k.0)
            .unwrap();
        assert_eq!(k, 1.0);
    }
}
