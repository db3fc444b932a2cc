//! The LVS model: weighted least-connections request distribution.
//!
//! The paper's load balancer is LVS, "a kernel module for Linux, with
//! weighted least-connections request distribution" (§4.1): each request
//! goes to the server with the smallest `connections / weight` ratio.
//! Freon steers load by lowering a hot server's weight and by capping its
//! number of concurrent connections; Freon-EC additionally quiesces
//! servers entirely. This module reproduces exactly that control surface.

use crate::request::Request;
use crate::server::Server;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Why a request was (not) routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Routed to the server with this index.
    Routed(usize),
    /// Every eligible server was at its connection cap (or none was
    /// eligible): the request is lost, as in the paper's overload runs.
    Dropped,
}

/// Per-server balancer state.
#[derive(Debug, Clone, PartialEq)]
struct Backend {
    /// LVS weight; 0 removes the server from the rotation.
    weight: f64,
    /// Maximum concurrent connections admitted (`None` = unlimited).
    connection_cap: Option<usize>,
    /// Whether the balancer has been told to stop using this server
    /// (Freon-EC's remove-from-rotation before shutdown).
    quiesced: bool,
}

impl Default for Backend {
    fn default() -> Self {
        Backend {
            weight: 1.0,
            connection_cap: None,
            quiesced: false,
        }
    }
}

impl Backend {
    /// The routing contract's eligibility rule, in one place: a server
    /// can take one more connection when it is not quiesced, has a
    /// positive weight, accepts connections, and sits below both its own
    /// `max_connections` and the balancer's cap. Returns its
    /// `connections / weight` ratio when it can, `None` when it cannot.
    fn ratio_if_eligible(&self, server: &Server) -> Option<f64> {
        let connections = server.connections();
        if self.quiesced
            || self.weight <= 0.0
            || !server.accepts_connections()
            || connections >= server.config().max_connections
            || self.connection_cap.is_some_and(|cap| connections >= cap)
        {
            return None;
        }
        Some(connections as f64 / self.weight)
    }
}

/// One eligible server in a [`RouteHeap`], packed into one integer so
/// that the heap's top is the routing contract's choice: the ratio's
/// bit pattern in the high word, the index in the low word. Ratios are
/// never negative or NaN (connections ≥ 0, weight > 0), and for such
/// floats integer order of the bits is `total_cmp` order, +∞ included;
/// the low word then breaks ties to the lowest index. `Reverse` because
/// `BinaryHeap` is a max-heap and routing wants the minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate(Reverse<u128>);

impl Candidate {
    fn new(ratio: f64, index: usize) -> Self {
        debug_assert!(
            ratio.is_sign_positive() && !ratio.is_nan(),
            "routing ratio {ratio} breaks the packed key's precondition"
        );
        Candidate(Reverse(u128::from(ratio.to_bits()) << 64 | index as u128))
    }

    fn index(self) -> usize {
        // Truncates to the low word: the `usize` `new` was given.
        self.0 .0 as usize
    }
}

/// Reusable storage for [`LoadBalancer::route_batch`]: holding one
/// across batches means routing allocates only while the cluster grows.
#[derive(Debug, Clone, Default)]
pub struct RouteHeap(Vec<Candidate>);

/// The weighted least-connections balancer.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalancer {
    backends: Vec<Backend>,
}

impl LoadBalancer {
    /// Creates a balancer for `n` servers, all at weight 1, uncapped.
    pub fn new(n: usize) -> Self {
        LoadBalancer {
            backends: vec![Backend::default(); n],
        }
    }

    /// Number of servers the balancer knows about.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the balancer has no servers.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Sets a server's weight. Weight 0 removes it from the rotation
    /// without disturbing existing connections. Negative or non-finite
    /// weights are clamped to 0.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn set_weight(&mut self, server: usize, weight: f64) {
        let w = if weight.is_finite() {
            weight.max(0.0)
        } else {
            0.0
        };
        self.backends[server].weight = w;
    }

    /// A server's current weight.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn weight(&self, server: usize) -> f64 {
        self.backends[server].weight
    }

    /// Caps the number of concurrent connections the balancer will allow
    /// on a server — Freon's second lever: "limit the maximum allowed
    /// number of concurrent requests to the hot server".
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn set_connection_cap(&mut self, server: usize, cap: Option<usize>) {
        self.backends[server].connection_cap = cap;
    }

    /// A server's connection cap, if any.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn connection_cap(&self, server: usize) -> Option<usize> {
        self.backends[server].connection_cap
    }

    /// Removes a server from the rotation (existing connections drain
    /// naturally) or restores it.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn set_quiesced(&mut self, server: usize, quiesced: bool) {
        self.backends[server].quiesced = quiesced;
    }

    /// Whether a server is quiesced.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn is_quiesced(&self, server: usize) -> bool {
        self.backends[server].quiesced
    }

    /// Clears Freon's restrictions (weight back to 1, cap removed) — what
    /// `admd` does when a server cools below its low thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn clear_restrictions(&mut self, server: usize) {
        self.backends[server].weight = 1.0;
        self.backends[server].connection_cap = None;
    }

    /// Routes one request: picks the eligible server minimizing
    /// `connections / weight` (LVS's weighted least-connections), ties to
    /// the lowest index, and reports a drop when no server can take it.
    ///
    /// Eligible means: accepting connections, not quiesced, weight > 0,
    /// below its own `max_connections` and below its cap.
    pub fn route(&self, servers: &[Server]) -> RouteOutcome {
        debug_assert_eq!(servers.len(), self.backends.len());
        let mut best: Option<(usize, f64)> = None;
        for (i, (server, backend)) in servers.iter().zip(&self.backends).enumerate() {
            let Some(ratio) = backend.ratio_if_eligible(server) else {
                continue;
            };
            match best {
                Some((_, best_ratio)) if ratio >= best_ratio => {}
                _ => best = Some((i, ratio)),
            }
        }
        match best {
            Some((i, _)) => RouteOutcome::Routed(i),
            None => RouteOutcome::Dropped,
        }
    }

    /// Routes and admits a batch of requests arriving back to back, with
    /// exactly the outcomes of calling [`route`](Self::route) and
    /// [`Server::admit`] once per request, in O(N + k log N) for k
    /// requests over N servers instead of O(k N).
    ///
    /// Within a batch the only thing that changes any server's ratio or
    /// eligibility is the admission just made, so the eligible servers
    /// go into a min-heap once and each request re-keys (or retires) the
    /// one server it landed on. `on_outcome` sees every request's
    /// outcome in arrival order.
    pub fn route_batch(
        &self,
        servers: &mut [Server],
        heap: &mut RouteHeap,
        requests: impl IntoIterator<Item = Request>,
        mut on_outcome: impl FnMut(RouteOutcome),
    ) {
        debug_assert_eq!(servers.len(), self.backends.len());
        let mut requests = requests.into_iter().peekable();
        if requests.peek().is_none() {
            return;
        }
        let mut candidates = std::mem::take(&mut heap.0);
        candidates.clear();
        candidates.extend(servers.iter().zip(&self.backends).enumerate().filter_map(
            |(index, (server, backend))| {
                let ratio = backend.ratio_if_eligible(server)?;
                Some(Candidate::new(ratio, index))
            },
        ));
        let mut candidates = BinaryHeap::from(candidates);
        for request in requests {
            let Some(mut top) = candidates.peek_mut() else {
                on_outcome(RouteOutcome::Dropped);
                continue;
            };
            let index = top.index();
            servers[index].admit(request);
            match self.backends[index].ratio_if_eligible(&servers[index]) {
                Some(ratio) => *top = Candidate::new(ratio, index),
                None => {
                    PeekMut::pop(top);
                }
            }
            on_outcome(RouteOutcome::Routed(index));
        }
        heap.0 = candidates.into_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::server::{Server, ServerConfig};
    use proptest::prelude::*;

    /// `connections / weight` over the weights routing can meet: 1,
    /// subnormal (every busy server's ratio is +∞), huge, and distinct.
    fn ratio() -> impl Strategy<Value = f64> {
        let weight = prop_oneof![
            Just(1.0),
            Just(5e-324),
            Just(f64::MAX),
            Just(0.25),
            0.1..4.0f64,
        ];
        (0..6usize, weight).prop_map(|(connections, weight)| connections as f64 / weight)
    }

    fn index() -> impl Strategy<Value = usize> {
        prop_oneof![0..4usize, Just(usize::MAX)]
    }

    proptest! {
        #[test]
        fn packed_keys_order_like_total_cmp_then_index(
            a in ratio(),
            b in ratio(),
            i in index(),
            j in index(),
        ) {
            let (x, y) = (Candidate::new(a, i), Candidate::new(b, j));
            // Reversed: the heap's maximum is the smallest (ratio, index).
            prop_assert_eq!(y.cmp(&x), a.total_cmp(&b).then(i.cmp(&j)));
            prop_assert_eq!((x.index(), y.index()), (i, j));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn packing_a_negative_or_nan_ratio_is_a_bug() {
        for ratio in [-0.0, -1.0, f64::NAN] {
            assert!(std::panic::catch_unwind(|| Candidate::new(ratio, 0)).is_err());
        }
    }

    fn servers(n: usize) -> Vec<Server> {
        (0..n)
            .map(|_| Server::new(ServerConfig::default()))
            .collect()
    }

    fn route_and_admit(lvs: &LoadBalancer, servers: &mut [Server]) -> RouteOutcome {
        let outcome = lvs.route(servers);
        if let RouteOutcome::Routed(i) = outcome {
            servers[i].admit(Request::static_file());
        }
        outcome
    }

    #[test]
    fn equal_weights_balance_connection_counts() {
        let lvs = LoadBalancer::new(4);
        let mut s = servers(4);
        for _ in 0..40 {
            assert!(matches!(
                route_and_admit(&lvs, &mut s),
                RouteOutcome::Routed(_)
            ));
        }
        for server in &s {
            assert_eq!(server.connections(), 10);
        }
    }

    #[test]
    fn weights_shift_load_proportionally() {
        let mut lvs = LoadBalancer::new(2);
        lvs.set_weight(0, 3.0);
        lvs.set_weight(1, 1.0);
        let mut s = servers(2);
        for _ in 0..40 {
            route_and_admit(&lvs, &mut s);
        }
        // conns/weight equalizes: 30/3 == 10/1.
        assert_eq!(s[0].connections(), 30);
        assert_eq!(s[1].connections(), 10);
    }

    #[test]
    fn zero_weight_removes_from_rotation() {
        let mut lvs = LoadBalancer::new(2);
        lvs.set_weight(0, 0.0);
        let mut s = servers(2);
        for _ in 0..10 {
            assert_eq!(route_and_admit(&lvs, &mut s), RouteOutcome::Routed(1));
        }
        assert_eq!(s[0].connections(), 0);
    }

    #[test]
    fn connection_caps_spill_to_other_servers_then_drop() {
        let mut lvs = LoadBalancer::new(2);
        lvs.set_connection_cap(0, Some(3));
        lvs.set_connection_cap(1, Some(5));
        let mut s = servers(2);
        let mut dropped = 0;
        for _ in 0..12 {
            if route_and_admit(&lvs, &mut s) == RouteOutcome::Dropped {
                dropped += 1;
            }
        }
        assert_eq!(s[0].connections(), 3);
        assert_eq!(s[1].connections(), 5);
        assert_eq!(dropped, 4);
    }

    #[test]
    fn quiesced_and_offline_servers_are_skipped() {
        let mut lvs = LoadBalancer::new(3);
        lvs.set_quiesced(0, true);
        let mut s = servers(3);
        s[1].shutdown_graceful(); // idle -> Off immediately
        for _ in 0..6 {
            assert_eq!(route_and_admit(&lvs, &mut s), RouteOutcome::Routed(2));
        }
        // All gone -> drops.
        lvs.set_quiesced(2, true);
        assert_eq!(lvs.route(&s), RouteOutcome::Dropped);
        assert!(lvs.is_quiesced(2));
    }

    #[test]
    fn clear_restrictions_resets_weight_and_cap() {
        let mut lvs = LoadBalancer::new(1);
        lvs.set_weight(0, 0.2);
        lvs.set_connection_cap(0, Some(1));
        lvs.clear_restrictions(0);
        assert_eq!(lvs.weight(0), 1.0);
        assert_eq!(lvs.connection_cap(0), None);
    }

    #[test]
    fn bad_weights_are_clamped() {
        let mut lvs = LoadBalancer::new(1);
        lvs.set_weight(0, f64::NAN);
        assert_eq!(lvs.weight(0), 0.0);
        lvs.set_weight(0, -4.0);
        assert_eq!(lvs.weight(0), 0.0);
    }

    #[test]
    fn lower_weight_receives_fraction_of_load() {
        // Freon's adjustment: weight w on a hot server vs 1.0 elsewhere
        // steers roughly w/(w+...) of new connections away.
        let mut lvs = LoadBalancer::new(2);
        lvs.set_weight(0, 0.25);
        let mut s = servers(2);
        for _ in 0..50 {
            route_and_admit(&lvs, &mut s);
        }
        assert_eq!(s[0].connections(), 10); // 10/0.25 == 40/1.0
        assert_eq!(s[1].connections(), 40);
    }
}
