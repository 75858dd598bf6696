//! Hopcroft–Karp maximum bipartite matching — the paper's baseline \[1\].
//!
//! The best known algorithm for maximum matching in an *arbitrary* bipartite
//! graph, `O(sqrt(V) · E)`. Applied to a whole-interconnect request graph it
//! costs `O(N^1.5 k^1.5 d)` — the number the paper's `O(k)`/`O(dk)`
//! schedulers are measured against (and what the benchmark suite reproduces
//! empirically).

use std::collections::VecDeque;

use crate::graph::RequestGraph;
use crate::matching::Matching;

const INF: usize = usize::MAX;

/// Finds a maximum matching in an arbitrary request graph with the
/// Hopcroft–Karp algorithm.
///
/// Hopcroft–Karp is the oracle and the `Policy::HopcroftKarp` baseline, not
/// part of the certified zero-allocation hot path: it allocates its BFS
/// layering and match arrays per call.
///
/// Paper: reference \[1\] baseline (Hopcroft–Karp, O(sqrt(V)*E)).
#[wdm_attr::allow_reach(
    panic_free,
    reason = "the BFS/DFS layer arrays are sized to the graph's vertex counts at entry and every visited index comes from the graph's adjacency lists; the produced matching is re-verified by the maximality certificate in debug builds"
)]
pub fn hopcroft_karp(graph: &RequestGraph) -> Matching {
    let nl = graph.left_count();
    let nr = graph.right_count();
    let mut match_left = vec![None; nl];
    let mut match_right = vec![None; nr];
    let mut dist = vec![INF; nl];
    let mut queue = VecDeque::new();

    loop {
        // BFS phase: layer the free left vertices.
        queue.clear();
        for j in 0..nl {
            if match_left[j].is_none() {
                dist[j] = 0;
                queue.push_back(j);
            } else {
                dist[j] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        while let Some(j) = queue.pop_front() {
            for &p in graph.adjacent(j) {
                match match_right[p] {
                    None => found_augmenting_layer = true,
                    Some(j2) => {
                        if dist[j2] == INF {
                            dist[j2] = dist[j] + 1;
                            queue.push_back(j2);
                        }
                    }
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }

        // DFS phase: vertex-disjoint shortest augmenting paths.
        fn dfs(
            graph: &RequestGraph,
            j: usize,
            dist: &mut [usize],
            match_left: &mut [Option<usize>],
            match_right: &mut [Option<usize>],
        ) -> bool {
            for &p in graph.adjacent(j) {
                let advance = match match_right[p] {
                    None => true,
                    Some(j2) => {
                        dist[j2] == dist[j] + 1 && dfs(graph, j2, dist, match_left, match_right)
                    }
                };
                if advance {
                    match_right[p] = Some(j);
                    match_left[j] = Some(p);
                    return true;
                }
            }
            dist[j] = INF;
            false
        }
        for j in 0..nl {
            if match_left[j].is_none() {
                dfs(graph, j, &mut dist, &mut match_left, &mut match_right);
            }
        }
    }

    match Matching::from_right_assignment(nl, match_right) {
        Ok(m) => m,
        Err(_) => unreachable!("Hopcroft-Karp produces a consistent matching"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::kuhn;
    use crate::conversion::Conversion;
    use crate::request::RequestVector;

    #[test]
    fn paper_example_size_six() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 6);
        m.validate(&g).unwrap();
    }

    #[test]
    fn agrees_with_kuhn_on_deterministic_battery() {
        let cases: Vec<(Conversion, Vec<usize>)> = vec![
            (Conversion::symmetric_circular(6, 3).unwrap(), vec![2, 1, 0, 1, 1, 2]),
            (Conversion::symmetric_circular(6, 3).unwrap(), vec![0, 2, 3, 0, 1, 0]),
            (Conversion::full(5).unwrap(), vec![3, 3, 3, 0, 0]),
            (Conversion::none(5).unwrap(), vec![2, 0, 2, 0, 2]),
            (Conversion::circular(8, 2, 1).unwrap(), vec![1, 0, 4, 0, 0, 2, 0, 1]),
            (Conversion::non_circular(8, 1, 2).unwrap(), vec![4, 0, 0, 1, 1, 0, 0, 4]),
            (Conversion::circular(7, 3, 3).unwrap(), vec![7, 0, 0, 0, 0, 0, 0]),
        ];
        for (conv, counts) in cases {
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let g = RequestGraph::new(conv, &rv).unwrap();
            let hk = hopcroft_karp(&g);
            let oracle = kuhn(&g);
            hk.validate(&g).unwrap();
            assert_eq!(hk.size(), oracle.size(), "counts={counts:?}");
        }
    }

    #[test]
    fn full_conversion_grants_min_of_requests_and_channels() {
        let conv = Conversion::full(6).unwrap();
        for total in 0..=12usize {
            let mut counts = vec![0usize; 6];
            for i in 0..total {
                counts[i % 6] += 1;
            }
            let rv = RequestVector::from_counts(counts).unwrap();
            let g = RequestGraph::new(conv, &rv).unwrap();
            assert_eq!(hopcroft_karp(&g).size(), total.min(6));
        }
    }

    #[test]
    fn empty_sides() {
        let conv = Conversion::full(3).unwrap();
        let g = RequestGraph::new(conv, &RequestVector::new(3)).unwrap();
        assert_eq!(hopcroft_karp(&g).size(), 0);
    }
}
