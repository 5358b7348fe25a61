//! The naive TASM solution (Sec. I): one independent tree-edit-distance
//! computation per document subtree — `O(m² n²)` time. Kept as the
//! ground-truth oracle for the other algorithms and to quantify the
//! `O(n)` speedup of TASM-dynamic in the ablation bench.

use crate::ranking::{Match, TopKHeap};
use crate::tasm_dynamic::TasmOptions;
use tasm_ted::{ted, CostModel, TedStats};
use tasm_tree::Tree;

/// Computes the top-`k` ranking by evaluating `δ(Q, T_j)` separately for
/// every subtree `T_j` of `doc`.
pub fn tasm_naive(
    query: &Tree,
    doc: &Tree,
    k: usize,
    model: &dyn CostModel,
    opts: TasmOptions,
    mut stats: Option<&mut TedStats>,
) -> Vec<Match> {
    let mut heap = TopKHeap::new(k.max(1));
    for j in doc.nodes() {
        let subtree = doc.subtree(j);
        if let Some(s) = stats.as_deref_mut() {
            s.record_call();
            s.record_relevant(subtree.len() as u32);
        }
        let distance = ted(query, &subtree, model);
        heap.offer(Match {
            shard: 0,
            root: j,
            size: doc.size(j),
            distance,
            tree: opts.keep_trees.then_some(subtree),
        });
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasm_dynamic::tasm_dynamic;
    use tasm_ted::{Cost, UnitCost};
    use tasm_tree::{bracket, LabelDict};

    #[test]
    fn matches_paper_example_2() {
        let mut dict = LabelDict::new();
        let g = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        let h = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
        let top2 = tasm_naive(&g, &h, 2, &UnitCost, TasmOptions::default(), None);
        assert_eq!(top2[0].root.post(), 6);
        assert_eq!(top2[0].distance, Cost::ZERO);
        assert_eq!(top2[1].root.post(), 3);
        assert_eq!(top2[1].distance, Cost::from_natural(1));
    }

    #[test]
    fn agrees_with_dynamic_exactly() {
        let mut dict = LabelDict::new();
        let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        let t = bracket::parse("{r{a{b}{c}}{z{a{b}}{a{b}{c}{d}}}{a{c}{b}}}", &mut dict).unwrap();
        for k in [1, 2, 3, 5, 20] {
            let naive = tasm_naive(&q, &t, k, &UnitCost, TasmOptions::default(), None);
            let dynamic = tasm_dynamic(&q, &t, k, &UnitCost, TasmOptions::default(), None);
            let a: Vec<(u64, u32)> = naive
                .iter()
                .map(|m| (m.distance.halves(), m.root.post()))
                .collect();
            let b: Vec<(u64, u32)> = dynamic
                .iter()
                .map(|m| (m.distance.halves(), m.root.post()))
                .collect();
            assert_eq!(a, b, "k = {k}");
        }
    }

    #[test]
    fn keep_trees() {
        let mut dict = LabelDict::new();
        let q = bracket::parse("{b}", &mut dict).unwrap();
        let t = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        let top = tasm_naive(
            &q,
            &t,
            1,
            &UnitCost,
            TasmOptions {
                keep_trees: true,
                ..Default::default()
            },
            None,
        );
        assert_eq!(top[0].tree.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn naive_stats_count_every_subtree() {
        let mut dict = LabelDict::new();
        let q = bracket::parse("{b}", &mut dict).unwrap();
        let t = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
        let mut st = TedStats::new();
        tasm_naive(&q, &t, 1, &UnitCost, TasmOptions::default(), Some(&mut st));
        assert_eq!(st.ted_calls, 3);
        assert_eq!(st.total_relevant(), 3);
    }
}
