//! Air-flow propagation and stability analysis.

use crate::model::{AirEdge, AirKind, MachineModel, NodeId};
use crate::units::{JoulesPerKelvin, KilogramsPerSecond, Seconds, WattsPerKelvin};

/// Propagates the fan's mass flow through the directed air-flow graph.
///
/// Every inlet sources the full fan mass flow (a machine with several
/// inlets models several fans). Processing nodes in topological order,
/// each node's inflow is the sum of its incoming edge flows and each
/// outgoing edge carries `inflow × fraction`.
///
/// Returns `(edge_flows, node_inflows)` indexed like
/// [`MachineModel::air_edges`] and [`MachineModel::nodes`] respectively.
///
/// Runs in O(nodes + edges): the edge list is first grouped by source
/// node (a counting sort that keeps declaration order within each
/// group), so the topological sweep touches each edge exactly once
/// instead of rescanning the full edge list per node. The per-node
/// accumulation order is identical to the naive rescan, so the results
/// are bit-for-bit unchanged.
pub fn air_flows(
    nodes_len: usize,
    air_edges: &[AirEdge],
    topo: &[NodeId],
    inlets: &[NodeId],
    fan_mass_flow: KilogramsPerSecond,
) -> (Vec<KilogramsPerSecond>, Vec<KilogramsPerSecond>) {
    let edges: Vec<(usize, usize, f64)> = air_edges
        .iter()
        .map(|e| (e.from.index(), e.to.index(), e.fraction))
        .collect();
    let index = |ids: &[NodeId]| ids.iter().map(|id| id.index()).collect::<Vec<_>>();
    let (mut edge_flow, mut inflow) = (Vec::new(), Vec::new());
    air_flows_into(
        nodes_len,
        &edges,
        &index(topo),
        &index(inlets),
        fan_mass_flow,
        &mut FlowScratch::default(),
        &mut edge_flow,
        &mut inflow,
    );
    (edge_flow, inflow)
}

/// The working memory of [`air_flows_into`], reusable across calls.
#[derive(Debug, Default)]
pub(crate) struct FlowScratch {
    out_off: Vec<u32>,
    out_edge: Vec<u32>,
    cursor: Vec<u32>,
    available: Vec<f64>,
}

/// [`air_flows`] over `(from, to, fraction)` edges and node indices — the
/// layout a solver stores — into `edge_flow` and `inflow`, working in
/// `scratch`: the one implementation, allocation-free once the buffers
/// have grown.
#[allow(clippy::too_many_arguments)]
pub(crate) fn air_flows_into(
    nodes_len: usize,
    air_edges: &[(usize, usize, f64)],
    topo: &[usize],
    inlets: &[usize],
    fan_mass_flow: KilogramsPerSecond,
    scratch: &mut FlowScratch,
    edge_flow: &mut Vec<KilogramsPerSecond>,
    inflow: &mut Vec<KilogramsPerSecond>,
) {
    let FlowScratch {
        out_off,
        out_edge,
        cursor,
        available,
    } = scratch;
    // Group edge indices by source: out_off[i]..out_off[i+1] indexes the
    // edges leaving node i, in declaration order.
    refill(out_off, nodes_len + 1, 0);
    for &(from, _, _) in air_edges {
        out_off[from + 1] += 1;
    }
    for i in 0..nodes_len {
        out_off[i + 1] += out_off[i];
    }
    refill(out_edge, air_edges.len(), 0);
    cursor.clear();
    cursor.extend_from_slice(&out_off[..nodes_len]);
    for (i, &(from, _, _)) in air_edges.iter().enumerate() {
        out_edge[cursor[from] as usize] = i as u32;
        cursor[from] += 1;
    }

    refill(edge_flow, air_edges.len(), KilogramsPerSecond(0.0));
    refill(inflow, nodes_len, KilogramsPerSecond(0.0));
    refill(available, nodes_len, 0.0);
    for &inlet in inlets {
        available[inlet] = fan_mass_flow.0;
    }
    for &node in topo {
        let out = available[node];
        if out <= 0.0 {
            continue;
        }
        for &i in &out_edge[out_off[node] as usize..out_off[node + 1] as usize] {
            let (_, to, fraction) = air_edges[i as usize];
            let f = out * fraction;
            edge_flow[i as usize] = KilogramsPerSecond(f);
            inflow[to].0 += f;
            available[to] += f;
        }
    }
}

/// Makes `v` `len` copies of `value`, keeping its allocation.
pub(crate) fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Computes the number of sub-steps needed for one tick of `dt` seconds to
/// stay within the explicit-Euler stability limit.
///
/// Two families of rates are considered, in 1/s:
/// - conductive: `k / (m·c)` on each side of every heat edge, summed per
///   node (a node touched by several strong edges is faster than any single
///   edge suggests), and
/// - advective: `ṁ_in / m_air` for every air region.
///
/// The sub-step count is `ceil(dt · max_rate / limit)`, at least 1.
pub fn required_substeps(
    dt: Seconds,
    limit: f64,
    heat_edges: &[(usize, usize, WattsPerKelvin)],
    capacity: &[JoulesPerKelvin],
    inflow: &[KilogramsPerSecond],
    air_mass: &[Option<f64>],
) -> usize {
    required_substeps_in(
        dt,
        limit,
        heat_edges,
        capacity,
        inflow,
        |i| air_mass[i],
        &mut Vec::new(),
    )
}

/// [`required_substeps`] with the air masses read through `air_mass(i)`
/// and the per-node rates summed in `conductive`: the one
/// implementation, allocation-free once `conductive` has grown.
pub(crate) fn required_substeps_in(
    dt: Seconds,
    limit: f64,
    heat_edges: &[(usize, usize, WattsPerKelvin)],
    capacity: &[JoulesPerKelvin],
    inflow: &[KilogramsPerSecond],
    air_mass: impl Fn(usize) -> Option<f64>,
    conductive: &mut Vec<f64>,
) -> usize {
    let n = capacity.len();
    refill(conductive, n, 0.0);
    for (a, b, k) in heat_edges {
        conductive[*a] += k.0 / capacity[*a].0;
        conductive[*b] += k.0 / capacity[*b].0;
    }
    let mut max_rate = conductive.iter().copied().fold(0.0_f64, f64::max);
    for (i, flow) in inflow.iter().enumerate().take(n) {
        if let Some(m) = air_mass(i) {
            if m > 0.0 {
                max_rate = max_rate.max(flow.0 / m);
            }
        }
    }
    let steps = (dt.0 * max_rate / limit).ceil();
    (steps as usize).max(1)
}

/// Dirty-tracked cache around [`air_flows`].
///
/// A kernel rebuild is triggered by *any* constant change — fan speed,
/// heat-transfer coefficient, air fraction — but the air-flow
/// distribution only depends on the fan's mass flow and the air-edge
/// fractions. The cache keys on exactly those inputs and replays the
/// stored `(edge_flows, node_inflows)` when they are unchanged, so e.g.
/// a `set_heat_k` fiddle no longer re-walks the flow graph and a fan
/// controller that commands the same speed twice pays nothing.
///
/// The recompute counter is observable via [`FlowCache::recomputes`]
/// (surfaced as the `mercury_solver_flow_recomputes_total` metric on
/// `Solver::metrics`) so tests can assert the invalidation contract: a
/// fan-speed change invalidates the cached flows exactly once.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowCache {
    valid: bool,
    /// Cache key: fan mass-flow bits plus every air edge's fraction
    /// bits in declaration order. A cache belongs to one kernel, whose
    /// edges keep their endpoints, so the fractions are all that moves.
    key_fan: u64,
    key_edges: Vec<u64>,
    edge_flow: Vec<KilogramsPerSecond>,
    inflow: Vec<KilogramsPerSecond>,
    recomputes: u64,
}

impl FlowCache {
    /// Creates an empty (invalid) cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Times the cached flows have been (re)computed since construction.
    pub(crate) fn recomputes(&self) -> u64 {
        self.recomputes
    }

    fn key_matches(
        &self,
        air_edges: &[(usize, usize, f64)],
        fan_mass_flow: KilogramsPerSecond,
    ) -> bool {
        self.valid
            && self.key_fan == fan_mass_flow.0.to_bits()
            && self.key_edges.len() == air_edges.len()
            && (self.key_edges.iter().zip(air_edges))
                .all(|(&key, &(_, _, fraction))| key == fraction.to_bits())
    }

    /// Returns the flow distribution for the given graph (laid out as
    /// [`air_flows_into`] takes it), recomputing it in place — working in
    /// `scratch` — only when the fan mass flow or an air-edge fraction
    /// actually changed since the last call.
    pub(crate) fn flows(
        &mut self,
        nodes_len: usize,
        air_edges: &[(usize, usize, f64)],
        topo: &[usize],
        inlets: &[usize],
        fan_mass_flow: KilogramsPerSecond,
        scratch: &mut FlowScratch,
    ) -> (&[KilogramsPerSecond], &[KilogramsPerSecond]) {
        if !self.key_matches(air_edges, fan_mass_flow) {
            air_flows_into(
                nodes_len,
                air_edges,
                topo,
                inlets,
                fan_mass_flow,
                scratch,
                &mut self.edge_flow,
                &mut self.inflow,
            );
            self.key_fan = fan_mass_flow.0.to_bits();
            self.key_edges.clear();
            (self.key_edges).extend(air_edges.iter().map(|&(_, _, f)| f.to_bits()));
            self.valid = true;
            self.recomputes += 1;
        }
        (&self.edge_flow, &self.inflow)
    }
}

/// Convenience: compute flows straight from a model at its nominal fan
/// speed. Used by tests and by the solver at construction.
pub fn model_air_flows(model: &MachineModel) -> (Vec<KilogramsPerSecond>, Vec<KilogramsPerSecond>) {
    let inlets: Vec<NodeId> = model
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.is_air_kind(AirKind::Inlet))
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    air_flows(
        model.nodes().len(),
        model.air_edges(),
        model.topo_order(),
        &inlets,
        model.fan().mass_flow(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;

    /// Build the paper's intra-machine air-flow graph (Figure 1b) with the
    /// Table 1 fractions and check flow conservation.
    fn paper_airflow_model() -> MachineModel {
        let mut b = MachineModel::builder("m");
        b.inlet("inlet");
        for name in [
            "disk_air",
            "ps_air",
            "void_air",
            "disk_air_down",
            "ps_air_down",
            "cpu_air",
            "cpu_air_down",
        ] {
            b.air(name);
        }
        b.exhaust("exhaust");
        b.air_edge("inlet", "disk_air", 0.4).unwrap();
        b.air_edge("inlet", "ps_air", 0.5).unwrap();
        b.air_edge("inlet", "void_air", 0.1).unwrap();
        b.air_edge("disk_air", "disk_air_down", 1.0).unwrap();
        b.air_edge("disk_air_down", "void_air", 1.0).unwrap();
        b.air_edge("ps_air", "ps_air_down", 1.0).unwrap();
        b.air_edge("ps_air_down", "void_air", 0.85).unwrap();
        b.air_edge("ps_air_down", "cpu_air", 0.15).unwrap();
        b.air_edge("void_air", "cpu_air", 0.05).unwrap();
        b.air_edge("void_air", "exhaust", 0.95).unwrap();
        b.air_edge("cpu_air", "cpu_air_down", 1.0).unwrap();
        b.air_edge("cpu_air_down", "exhaust", 1.0).unwrap();
        b.fan_cfm(38.6);
        b.build().unwrap()
    }

    #[test]
    fn flows_are_conserved_through_the_paper_graph() {
        let model = paper_airflow_model();
        let (_, inflow) = model_air_flows(&model);
        let fan = model.fan().mass_flow().0;
        let at = |name: &str| inflow[model.node_id(name).unwrap().index()].0;

        assert!((at("disk_air") - 0.4 * fan).abs() < 1e-12);
        assert!((at("ps_air") - 0.5 * fan).abs() < 1e-12);
        // void = 0.1 (inlet) + 0.4 (disk chain) + 0.5*0.85 (ps chain)
        let void_expect = (0.1 + 0.4 + 0.5 * 0.85) * fan;
        assert!((at("void_air") - void_expect).abs() < 1e-12);
        // cpu air = ps_down 0.15 of 0.5 + void 0.05 of its inflow
        let cpu_expect = 0.5 * 0.15 * fan + 0.05 * void_expect;
        assert!((at("cpu_air") - cpu_expect).abs() < 1e-12);
        // everything reaches the exhaust: 0.95*void + cpu chain
        let exhaust_expect = 0.95 * void_expect + cpu_expect;
        assert!((at("exhaust") - exhaust_expect).abs() < 1e-12);
        // total conservation: exhaust receives the full fan flow
        assert!((exhaust_expect - fan).abs() < 1e-12);
    }

    #[test]
    fn substeps_scale_with_the_fastest_coupling() {
        // One slow edge: 0.75 W/K on 135 J/K -> rate ~0.0055/s -> 1 substep.
        let caps = vec![JoulesPerKelvin(135.296), JoulesPerKelvin(135.296)];
        let edges = vec![(0usize, 1usize, WattsPerKelvin(0.75))];
        let inflow = vec![KilogramsPerSecond(0.0); 2];
        let air = vec![None, None];
        assert_eq!(
            required_substeps(Seconds(1.0), 0.25, &edges, &caps, &inflow, &air),
            1
        );

        // A fast edge: 10 W/K on a 6 J/K air region -> rate 1.67/s -> 7 substeps.
        let caps = vec![JoulesPerKelvin(894.0), JoulesPerKelvin(6.0)];
        let edges = vec![(0usize, 1usize, WattsPerKelvin(10.0))];
        let n = required_substeps(Seconds(1.0), 0.25, &edges, &caps, &inflow, &air);
        assert_eq!(n, (10.0_f64 / 6.0 / 0.25).ceil() as usize);
    }

    #[test]
    fn substeps_account_for_advection() {
        let caps = vec![JoulesPerKelvin(6.0)];
        let inflow = vec![KilogramsPerSecond(0.02)];
        let air = vec![Some(0.006)];
        // advective rate = 0.02/0.006 = 3.33/s -> ceil(3.33/0.25) = 14.
        let n = required_substeps(Seconds(1.0), 0.25, &[], &caps, &inflow, &air);
        assert_eq!(n, 14);
    }

    #[test]
    fn substeps_never_below_one() {
        let caps = vec![JoulesPerKelvin(1000.0)];
        let n = required_substeps(
            Seconds(1.0),
            0.25,
            &[],
            &caps,
            &[KilogramsPerSecond(0.0)],
            &[None],
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn flow_cache_recomputes_only_on_flow_affecting_changes() {
        let model = paper_airflow_model();
        let n = model.nodes().len();
        let inlets: Vec<NodeId> = model.inlets();
        // The cache reads the graph as a solver stores it.
        let edges: Vec<(usize, usize, f64)> = model
            .air_edges()
            .iter()
            .map(|e| (e.from.index(), e.to.index(), e.fraction))
            .collect();
        let topo: Vec<usize> = model.topo_order().iter().map(|id| id.index()).collect();
        let inlet_nodes: Vec<usize> = inlets.iter().map(|id| id.index()).collect();
        let mut cache = FlowCache::new();
        let mut scratch = FlowScratch::default();
        let mut flows = |edges: &[(usize, usize, f64)], fan: KilogramsPerSecond| {
            let (edge_flow, inflow) = cache.flows(n, edges, &topo, &inlet_nodes, fan, &mut scratch);
            (edge_flow.to_vec(), inflow.to_vec(), cache.recomputes())
        };

        let fan = model.fan().mass_flow();
        let direct = air_flows(n, model.air_edges(), model.topo_order(), &inlets, fan);
        let (edge_flow, inflow, recomputes) = flows(&edges, fan);
        assert_eq!((edge_flow, inflow), direct);
        assert_eq!(recomputes, 1);

        // Same inputs: served from cache.
        for _ in 0..5 {
            assert_eq!(flows(&edges, fan).2, 1);
        }

        // A fan change invalidates exactly once.
        let faster = KilogramsPerSecond(fan.0 * 2.0);
        assert_eq!(flows(&edges, faster).2, 2);
        assert_eq!(flows(&edges, faster).2, 2);

        // A fraction change invalidates too.
        let mut edited = edges.clone();
        edited[0].2 = 0.35;
        edited[1].2 = 0.55;
        assert_eq!(flows(&edited, faster).2, 3);
    }

    #[test]
    fn rates_sum_over_multiple_edges_on_one_node() {
        // Two edges of 1 W/K each into a 4 J/K node: combined rate 0.5/s.
        let caps = vec![
            JoulesPerKelvin(4.0),
            JoulesPerKelvin(1e9),
            JoulesPerKelvin(1e9),
        ];
        let edges = vec![
            (0usize, 1usize, WattsPerKelvin(1.0)),
            (0usize, 2usize, WattsPerKelvin(1.0)),
        ];
        let inflow = vec![KilogramsPerSecond(0.0); 3];
        let air = vec![None; 3];
        let n = required_substeps(Seconds(1.0), 0.25, &edges, &caps, &inflow, &air);
        assert_eq!(n, 2); // 0.5 / 0.25
    }
}
