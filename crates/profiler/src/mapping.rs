//! Communication-aware thread mapping — the paper's headline application.
//!
//! §III/§VI: "exploiting communication patterns can improve performance by
//! mapping threads that communicate a lot to nearby cores on the memory
//! hierarchy. This way, there is less replication of data in different
//! caches." This module turns a communication matrix into a thread→core
//! placement for a simple NUMA topology model and quantifies the benefit
//! as a distance-weighted communication cost.
//!
//! The optimizer is a greedy agglomerative clusterer (merge the two thread
//! clusters with the highest mutual volume until clusters fit sockets),
//! the standard baseline in the thread-mapping literature the paper cites
//! (Cruz et al.).

use crate::matrix::DenseMatrix;

/// A machine model: `sockets` × `cores_per_socket` cores, optionally with
/// sub-socket cache clusters (L3 groups / CCXs) as a third sharing level.
#[derive(Clone, Copy, Debug)]
pub struct MachineTopology {
    /// NUMA sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Relative cost of a cache-to-cache transfer inside one socket (but
    /// across clusters, when clusters are modelled).
    pub intra_socket_cost: u64,
    /// Relative cost across sockets (remote access, "high overhead" §III).
    pub inter_socket_cost: u64,
    /// Cores sharing one last-level-cache cluster (0 = no cluster level).
    pub cluster_size: usize,
    /// Transfer cost inside one cluster (< `intra_socket_cost`).
    pub intra_cluster_cost: u64,
}

impl MachineTopology {
    /// The paper's testbed shape: 2 × 8-core Xeon, typical 1:4 cost ratio.
    pub fn dual_socket_xeon() -> Self {
        Self {
            sockets: 2,
            cores_per_socket: 8,
            intra_socket_cost: 1,
            inter_socket_cost: 4,
            cluster_size: 0,
            intra_cluster_cost: 0,
        }
    }

    /// A three-level model: sockets → 4-core L3 clusters → cores, with
    /// 1 : 2 : 8 transfer costs (CCX-style part).
    pub fn dual_socket_clustered() -> Self {
        Self {
            sockets: 2,
            cores_per_socket: 8,
            intra_socket_cost: 2,
            inter_socket_cost: 8,
            cluster_size: 4,
            intra_cluster_cost: 1,
        }
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Socket of a core.
    pub fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }

    /// Cluster of a core (meaningful only when `cluster_size > 0`).
    pub fn cluster_of(&self, core: usize) -> usize {
        match self.cluster_size {
            0 => self.socket_of(core),
            size => core / size,
        }
    }

    /// Transfer cost between two cores: shared core 0, shared cluster,
    /// shared socket, or cross-socket.
    pub fn distance(&self, a: usize, b: usize) -> u64 {
        if a == b {
            0
        } else if self.socket_of(a) != self.socket_of(b) {
            self.inter_socket_cost
        } else if self.cluster_size > 0 && self.cluster_of(a) == self.cluster_of(b) {
            self.intra_cluster_cost
        } else {
            self.intra_socket_cost
        }
    }
}

/// A thread→core assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadMapping {
    /// `assignment[thread] = core`.
    pub assignment: Vec<usize>,
}

impl ThreadMapping {
    /// Thread `i` on core `i`.
    pub fn identity(threads: usize) -> Self {
        Self {
            assignment: (0..threads).collect(),
        }
    }

    /// Deterministic pseudo-random permutation (worst-case baseline).
    pub fn scrambled(threads: usize, seed: u64) -> Self {
        let mut v: Vec<usize> = (0..threads).collect();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in (1..v.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Self { assignment: v }
    }

    /// Distance-weighted communication cost of this placement.
    pub fn cost(&self, m: &DenseMatrix, topo: &MachineTopology) -> u64 {
        let t = m.threads();
        assert!(self.assignment.len() >= t);
        let mut c = 0;
        for i in 0..t {
            for j in 0..t {
                c += m.get(i, j) * topo.distance(self.assignment[i], self.assignment[j]);
            }
        }
        c
    }

    /// Communication volume this placement sends across sockets.
    pub fn remote(&self, m: &DenseMatrix, topo: &MachineTopology) -> u64 {
        let t = m.threads();
        assert!(self.assignment.len() >= t);
        let socket = |i: usize| topo.socket_of(self.assignment[i]);
        let mut r = 0;
        for i in 0..t {
            for j in 0..t {
                if socket(i) != socket(j) {
                    r += m.get(i, j);
                }
            }
        }
        r
    }
}

/// Greedy communication-aware mapping: grow each socket's member set by
/// repeatedly placing the (thread, socket) pair with the highest affinity —
/// the thread's communication volume with the socket's current members.
/// Capacity-aware at every step, so a valid placement always exists; a
/// pairwise-swap refinement pass then repairs chain-splitting artefacts.
///
/// ```
/// use lc_profiler::{greedy_mapping, DenseMatrix, MachineTopology, ThreadMapping};
///
/// // Two chatty pairs: (0,9) and (1,8). Identity splits both across
/// // sockets; the mapper must co-locate each pair.
/// let topo = MachineTopology::dual_socket_xeon();
/// let mut m = DenseMatrix::zero(16);
/// m.set(0, 9, 10_000);
/// m.set(1, 8, 10_000);
/// let mapping = greedy_mapping(&m, &topo);
/// assert!(mapping.cost(&m, &topo) < ThreadMapping::identity(16).cost(&m, &topo));
/// ```
///
/// # Panics
/// If the matrix has more threads than the machine has cores.
pub fn greedy_mapping(m: &DenseMatrix, topo: &MachineTopology) -> ThreadMapping {
    let t = m.threads();
    assert!(t <= topo.cores(), "more threads than cores");
    let cap = topo.cores_per_socket;

    // Symmetric volume between thread pairs.
    let vol = |i: usize, j: usize| m.get(i, j) + m.get(j, i);
    let total_vol = |i: usize| -> u64 { (0..t).map(|j| vol(i, j)).sum() };

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); topo.sockets];
    let mut placed = vec![false; t];

    for _ in 0..t {
        // Best (thread, socket) by affinity; a thread with zero affinity
        // everywhere seeds the socket with the most room (keeps sockets
        // balanced), preferring the thread with the largest total volume so
        // chatty threads anchor clusters early.
        // Ranking key: higher affinity, then higher total volume (anchor
        // chatty threads early), then roomier socket (balance).
        let mut best: Option<(usize, usize, (u64, u64, usize))> = None;
        for (u, &done) in placed.iter().enumerate() {
            if done {
                continue;
            }
            let tv = total_vol(u);
            for (s, socket) in members.iter().enumerate() {
                if socket.len() >= cap {
                    continue;
                }
                let affinity: u64 = socket.iter().map(|&v| vol(u, v)).sum();
                let key = (affinity, tv, cap - socket.len());
                if best.is_none_or(|(_, _, bk)| key > bk) {
                    best = Some((u, s, key));
                }
            }
        }
        let (u, s, _) = best.expect("capacity equals cores, so a slot exists");
        members[s].push(u);
        placed[u] = true;
    }

    let mut assignment = vec![usize::MAX; t];
    for (s, socket) in members.iter().enumerate() {
        for (slot, &u) in socket.iter().enumerate() {
            assignment[u] = s * cap + slot;
        }
    }
    debug_assert!(assignment.iter().all(|&c| c != usize::MAX));
    refine(ThreadMapping { assignment }, m, topo, 8)
}

/// Local-search refinement: repeatedly apply the best improving pairwise
/// thread swap until a local optimum (or `max_rounds` sweeps). Cluster
/// growth is weak on chain-like graphs (it seeds mid-chain and splits two
/// edges where one suffices); swap refinement repairs exactly that.
pub fn refine(
    mut mapping: ThreadMapping,
    m: &DenseMatrix,
    topo: &MachineTopology,
    max_rounds: usize,
) -> ThreadMapping {
    let t = m.threads();
    // Marginal cost of thread `u` at its current core, given the placement.
    let thread_cost = |assign: &[usize], u: usize| -> u64 {
        (0..t)
            .map(|v| (m.get(u, v) + m.get(v, u)) * topo.distance(assign[u], assign[v]))
            .sum()
    };
    for _ in 0..max_rounds {
        let mut improved = false;
        for a in 0..t {
            for b in a + 1..t {
                // Same-socket swaps are cost-neutral only in two-level
                // models; with clusters every cross-cluster swap matters.
                if topo.cluster_of(mapping.assignment[a]) == topo.cluster_of(mapping.assignment[b])
                {
                    continue;
                }
                let before =
                    thread_cost(&mapping.assignment, a) + thread_cost(&mapping.assignment, b);
                mapping.assignment.swap(a, b);
                let after =
                    thread_cost(&mapping.assignment, a) + thread_cost(&mapping.assignment, b);
                if after < before {
                    improved = true;
                } else {
                    mapping.assignment.swap(a, b); // revert
                }
            }
        }
        if !improved {
            break;
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{generate, PatternClass};

    fn topo() -> MachineTopology {
        MachineTopology::dual_socket_xeon()
    }

    #[test]
    fn topology_distances() {
        let t = topo();
        assert_eq!(t.cores(), 16);
        assert_eq!(t.distance(3, 3), 0);
        assert_eq!(t.distance(0, 7), 1);
        assert_eq!(t.distance(0, 8), 4);
    }

    #[test]
    fn remote_counts_only_cross_socket_volume() {
        let t = topo();
        let mut m = DenseMatrix::zero(16);
        m.set(0, 1, 10);
        m.set(1, 9, 7);
        m.set(9, 0, 3);
        // Identity: 1→9 and 9→0 cross sockets, 0→1 does not.
        assert_eq!(ThreadMapping::identity(16).remote(&m, &t), 10);
        // Threads 0, 1 and 9 on one socket: nothing crosses.
        let mut local = ThreadMapping::identity(16);
        local.assignment.swap(9, 2);
        assert_eq!(local.remote(&m, &t), 0);
    }

    #[test]
    fn clustered_topology_has_three_levels() {
        let t = MachineTopology::dual_socket_clustered();
        assert_eq!(t.distance(0, 0), 0);
        assert_eq!(t.distance(0, 3), 1); // same 4-core cluster
        assert_eq!(t.distance(0, 4), 2); // same socket, next cluster
        assert_eq!(t.distance(0, 8), 8); // cross socket
        assert_eq!(t.cluster_of(5), 1);
        assert_eq!(t.socket_of(5), 0);
    }

    #[test]
    fn refinement_exploits_clusters() {
        // Four chatty pairs; on the clustered machine, co-locating each
        // pair inside one cluster beats merely sharing a socket.
        let t = MachineTopology::dual_socket_clustered();
        let mut m = DenseMatrix::zero(16);
        for k in 0..4usize {
            m.set(2 * k, 2 * k + 1, 10_000);
        }
        let greedy = greedy_mapping(&m, &t);
        for k in 0..4usize {
            assert_eq!(
                t.cluster_of(greedy.assignment[2 * k]),
                t.cluster_of(greedy.assignment[2 * k + 1]),
                "pair {k} split across clusters"
            );
        }
    }

    #[test]
    fn identity_and_scrambled_are_permutations() {
        let id = ThreadMapping::identity(16);
        assert_eq!(id.assignment, (0..16).collect::<Vec<_>>());
        let sc = ThreadMapping::scrambled(16, 7);
        let mut sorted = sc.assignment.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(sc.assignment, id.assignment);
    }

    #[test]
    fn greedy_never_loses_to_scrambled_on_structured_patterns() {
        let t = topo();
        for class in [
            PatternClass::Pipeline,
            PatternClass::Ring1D,
            PatternClass::Grid2D,
            PatternClass::MasterWorker,
            PatternClass::ReductionTree,
        ] {
            let m = generate(class, 16, 3, 0.05);
            let greedy = greedy_mapping(&m, &t).cost(&m, &t);
            let worst: u64 = (0..5)
                .map(|s| ThreadMapping::scrambled(16, s).cost(&m, &t))
                .min()
                .unwrap();
            assert!(
                greedy <= worst,
                "{class}: greedy {greedy} vs best-scrambled {worst}"
            );
        }
    }

    #[test]
    fn greedy_recovers_a_scrambled_pipeline() {
        // Permute a pipeline's thread ids so the identity placement splits
        // every hot pair across sockets; greedy should restore locality.
        let t = topo();
        let clean = generate(PatternClass::Pipeline, 16, 5, 0.0);
        let perm = ThreadMapping::scrambled(16, 99).assignment;
        let mut scrambled = DenseMatrix::zero(16);
        for i in 0..16 {
            for j in 0..16 {
                scrambled.set(perm[i], perm[j], clean.get(i, j));
            }
        }
        let identity_cost = ThreadMapping::identity(16).cost(&scrambled, &t);
        let greedy_cost = greedy_mapping(&scrambled, &t).cost(&scrambled, &t);
        assert!(
            (greedy_cost as f64) < identity_cost as f64 * 0.8,
            "greedy {greedy_cost} vs identity {identity_cost}"
        );
    }

    #[test]
    fn refined_greedy_matches_identity_on_chain_like_patterns() {
        // Identity is (near-)optimal for chains/rings; cluster growth alone
        // can split two chain edges, but swap refinement must repair it.
        let t = topo();
        for class in [PatternClass::Pipeline, PatternClass::Ring1D] {
            let m = generate(class, 16, 11, 0.0);
            let greedy = greedy_mapping(&m, &t).cost(&m, &t);
            let identity = ThreadMapping::identity(16).cost(&m, &t);
            assert!(
                (greedy as f64) <= identity as f64 * 1.05,
                "{class}: greedy {greedy} vs identity {identity}"
            );
        }
    }

    #[test]
    fn refine_never_increases_cost() {
        let t = topo();
        let m = generate(PatternClass::MasterWorker, 16, 2, 0.1);
        let start = ThreadMapping::scrambled(16, 5);
        let before = start.cost(&m, &t);
        let after = refine(start, &m, &t, 8).cost(&m, &t);
        assert!(after <= before);
    }

    #[test]
    fn mapping_is_valid_even_for_zero_matrix() {
        let t = topo();
        let m = DenseMatrix::zero(16);
        let map = greedy_mapping(&m, &t);
        let mut cores = map.assignment.clone();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 16, "cores must be distinct");
        assert_eq!(map.cost(&m, &t), 0);
    }

    #[test]
    fn fewer_threads_than_cores_is_fine() {
        let t = topo();
        let m = generate(PatternClass::Ring1D, 6, 1, 0.0);
        let map = greedy_mapping(&m, &t);
        assert_eq!(map.assignment.len(), 6);
        // Six mutually-communicating threads fit one socket entirely.
        let sockets: std::collections::HashSet<usize> =
            map.assignment.iter().map(|&c| t.socket_of(c)).collect();
        assert_eq!(sockets.len(), 1, "ring of 6 should land on one socket");
    }

    #[test]
    #[should_panic(expected = "more threads than cores")]
    fn too_many_threads_panics() {
        let m = DenseMatrix::zero(64);
        let _ = greedy_mapping(&m, &topo());
    }
}
