//! Breadth-first search on large irregular graphs — §2.3's example of a
//! problem with parallelism "on the order of thousands".

use std::sync::atomic::{AtomicI64, Ordering};

use cilk::hyper::ReducerList;
use cilk_testkit::Rng;

/// A directed graph in compressed adjacency form.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    edges: Vec<u32>,
}

impl Graph {
    /// Builds a random graph with `n` vertices and average out-degree
    /// `avg_degree`, connected enough for interesting BFS levels (each
    /// vertex gets an edge to vertex `(v+1) % n` plus random extras).
    pub fn random(n: usize, avg_degree: usize, seed: u64) -> Graph {
        let mut rng = Rng::seed_from_u64(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, list) in adj.iter_mut().enumerate() {
            list.push(((v + 1) % n) as u32);
            let extras = rng.gen_range(0..=2 * avg_degree.saturating_sub(1));
            for _ in 0..extras {
                list.push(rng.gen_range(0..n as u32));
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for list in &adj {
            edges.extend_from_slice(list);
            offsets.push(edges.len());
        }
        Graph { offsets, edges }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Serial BFS; returns the distance of each vertex from `source` (−1 if
/// unreachable).
pub fn bfs_serial(graph: &Graph, source: u32) -> Vec<i64> {
    let n = graph.num_vertices();
    let mut dist = vec![-1i64; n];
    let mut frontier = vec![source];
    dist[source as usize] = 0;
    let mut level = 0i64;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in graph.neighbors(v) {
                if dist[w as usize] == -1 {
                    dist[w as usize] = level;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Frontier vertices per `cilk_for` leaf: the loop's grain.
const CHUNK: usize = 64;

/// Parallel level-synchronous BFS: each level's frontier is scanned with a
/// `cilk_for` over chunks of [`CHUNK`] vertices. A chunk claims each newly
/// discovered vertex with an atomic compare-and-swap and pushes it straight
/// into its view of a list reducer, inside one access per chunk.
pub fn bfs(graph: &Graph, source: u32) -> Vec<i64> {
    bfs_observed(graph, source, |_| {})
}

/// [`bfs`], showing `observe` each frontier in turn, the source's first.
fn bfs_observed(graph: &Graph, source: u32, mut observe: impl FnMut(&[u32])) -> Vec<i64> {
    let n = graph.num_vertices();
    let dist: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![source];
    let mut level = 0i64;
    while !frontier.is_empty() {
        observe(&frontier);
        level += 1;
        let next = ReducerList::<u32>::list();
        let frontier_ref = &frontier;
        let dist_ref = &dist;
        let next_ref = &next;
        cilk::cilk_for_grain(0..frontier.len().div_ceil(CHUNK), 1, move |c| {
            let chunk = &frontier_ref[c * CHUNK..frontier_ref.len().min((c + 1) * CHUNK)];
            // One reducer access per chunk and no per-chunk buffer: growing
            // one takes the lock of a malloc arena the workers share.
            next_ref.with(|view| {
                for &v in chunk {
                    for &w in graph.neighbors(v) {
                        // The serial elision's test first: only a vertex that
                        // still reads unvisited pays for the bus-locked claim.
                        let d = &dist_ref[w as usize];
                        if d.load(Ordering::Relaxed) == -1
                            && d.compare_exchange(-1, level, Ordering::Relaxed, Ordering::Relaxed).is_ok()
                        {
                            view.push(w);
                        }
                    }
                }
            });
        });
        frontier = next.into_value();
    }
    dist.into_iter().map(AtomicI64::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shape() {
        let g = Graph::random(100, 4, 1);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() >= 100, "ring edges guarantee a minimum");
    }

    #[test]
    fn serial_bfs_on_ring() {
        // Pure ring when avg_degree = 1 may add extras; build explicit ring.
        let g = Graph { offsets: (0..=4).collect(), edges: vec![1, 2, 3, 0] };
        let d = bfs_serial(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_matches_serial_distances() {
        let g = Graph::random(5000, 4, 7);
        let serial = bfs_serial(&g, 0);
        let parallel = bfs(&g, 0);
        assert_eq!(serial, parallel, "BFS distances are schedule-invariant");
    }

    #[test]
    fn parallel_matches_under_pool() {
        let pool = cilk::ThreadPool::with_config(cilk::Config::new().num_workers(4))
            .expect("pool");
        let g = Graph::random(20_000, 6, 13);
        let serial = bfs_serial(&g, 0);
        let parallel = pool.install(|| bfs(&g, 0));
        assert_eq!(serial, parallel);
    }

    /// Every reachable vertex enters exactly one frontier, at its distance,
    /// and the frontier lengths sum to the number of reachable vertices.
    /// Comparing `dist` alone cannot show this: a claim that loads and then
    /// stores leaves `dist` right while two strands both push the vertex.
    fn assert_frontiers_partition_reachable(graph: &Graph, serial: &[i64]) {
        let mut frontiers: Vec<Vec<u32>> = Vec::new();
        let dist = bfs_observed(graph, 0, |frontier| frontiers.push(frontier.to_vec()));
        assert_eq!(dist, serial);
        let mut entered = vec![0u32; graph.num_vertices()];
        for (level, frontier) in frontiers.iter().enumerate() {
            for &v in frontier {
                entered[v as usize] += 1;
                assert_eq!(dist[v as usize], level as i64, "vertex {v} entered frontier {level}");
            }
        }
        for (v, (&times, &d)) in entered.iter().zip(&dist).enumerate() {
            assert_eq!(times, u32::from(d >= 0), "vertex {v} entered {times} frontiers");
        }
        let reachable = dist.iter().filter(|&&d| d >= 0).count();
        assert_eq!(frontiers.iter().map(Vec::len).sum::<usize>(), reachable);
    }

    #[test]
    fn each_reachable_vertex_enters_one_frontier() {
        // `Graph::random` draws duplicate edges and self-loops, and its
        // frontiers are not multiples of the 64-vertex grain.
        let graphs: Vec<(Graph, Vec<i64>)> = (0..2)
            .map(|seed| {
                let graph = Graph::random(100_000, 8, seed);
                let serial = bfs_serial(&graph, 0);
                (graph, serial)
            })
            .collect();
        for workers in [1, 2, 4] {
            let pool = cilk::ThreadPool::with_config(cilk::Config::new().num_workers(workers))
                .expect("pool");
            pool.install(|| {
                for (graph, serial) in &graphs {
                    for _ in 0..3 {
                        assert_frontiers_partition_reachable(graph, serial);
                    }
                }
            });
        }
    }

    #[test]
    fn unreachable_vertices_stay_minus_one() {
        // Two disconnected vertices (no edges at all).
        let g = Graph { offsets: vec![0, 0, 0], edges: vec![] };
        let d = bfs(&g, 0);
        assert_eq!(d, vec![0, -1]);
    }
}
